//! What a workload cycle talks to: the tracer, the end-to-end sample
//! vectors, the op/failure ledger, timed-phase bookkeeping and the
//! per-cycle layer facts the program reports about itself.

use crate::meter::Metered;
use crate::stats::quantile;
use crate::trace::{fnv, Layer, Tracer};
use obs::Registry;
use plfs::{Backend, ChunkBackend, ChunkParams, MemBackend};
use std::collections::BTreeMap;
use std::io;
use std::sync::Arc;
use std::time::Instant;

/// End-to-end samples of one run: per-call latencies pooled over the
/// run, and per-cycle figures (one value per timed cycle, or per
/// set-up where set-up writes).
#[derive(Debug, Default)]
pub struct Samples {
    pub write_us: Vec<f64>,
    pub sync_ms: Vec<f64>,
    pub read_us: Vec<f64>,
    pub open_ms: Vec<f64>,
    pub write_mbps: Vec<f64>,
    pub read_mbps: Vec<f64>,
    pub stored_per_user_byte: Vec<f64>,
    pub cycle_write_p99_us: Vec<f64>,
    pub cycle_sync_p50_ms: Vec<f64>,
    pub cycle_read_p50_us: Vec<f64>,
    pub cycle_read_p99_us: Vec<f64>,
    /// Lengths of the pooled vectors when the current cycle began.
    marks: [usize; 3],
}

impl Samples {
    /// End a cycle (or a set-up that wrote): summarise the latencies it
    /// added into the per-cycle figures.
    pub fn close_cycle(&mut self) {
        let [w, s, r] = self.marks;
        if self.write_us.len() > w {
            self.cycle_write_p99_us.push(quantile(&mut self.write_us[w..], 0.99));
        }
        if self.sync_ms.len() > s {
            self.cycle_sync_p50_ms.push(quantile(&mut self.sync_ms[s..], 0.5));
        }
        if self.read_us.len() > r {
            self.cycle_read_p50_us.push(quantile(&mut self.read_us[r..], 0.5));
            self.cycle_read_p99_us.push(quantile(&mut self.read_us[r..], 0.99));
        }
        self.marks = [self.write_us.len(), self.sync_ms.len(), self.read_us.len()];
    }
}

pub struct Ctx {
    pub tracer: Tracer,
    pub s: Samples,
    pub attempted: u64,
    pub failed: u64,
    /// Timed phases of the current cycle, `Instant`-timed wall seconds.
    pub phase_s: Vec<f64>,
    /// The same phases on the tracer's clock (traced runs only).
    pub phase_ns: Vec<(u64, u64)>,
    open_phase: Option<(Instant, u64)>,
    /// Per-cycle facts read from the program's own stats.
    pub facts: BTreeMap<&'static str, f64>,
    /// Digest of every delivered byte, when asked for (tests).
    pub delivered: Option<u64>,
}

impl Ctx {
    pub fn new(tracer: Tracer) -> Ctx {
        Ctx {
            tracer,
            s: Samples::default(),
            attempted: 0,
            failed: 0,
            phase_s: Vec::new(),
            phase_ns: Vec::new(),
            open_phase: None,
            facts: BTreeMap::new(),
            delivered: None,
        }
    }

    /// Count one attempted op; a failure is counted and reported once.
    pub fn op<T>(&mut self, r: io::Result<T>) -> Option<T> {
        self.attempted += 1;
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                if self.failed == 0 {
                    eprintln!("perfbench: first failed op: {e}");
                }
                self.failed += 1;
                None
            }
        }
    }

    /// Compare a delivered range with the oracle; a mismatch fails the op.
    pub fn check(&mut self, got: &[u8], want: &[u8]) {
        if got != want {
            if self.failed == 0 {
                eprintln!("perfbench: first byte mismatch ({} bytes compared)", want.len());
            }
            self.failed += 1;
        }
        if let Some(d) = &mut self.delivered {
            *d = fnv(*d, got);
        }
    }

    pub fn begin_phase(&mut self) {
        self.open_phase = Some((Instant::now(), self.tracer.now()));
    }

    /// Close the timed phase; returns its wall seconds.
    pub fn end_phase(&mut self) -> f64 {
        let (t0, n0) = self.open_phase.take().expect("end_phase without begin_phase");
        let secs = t0.elapsed().as_secs_f64();
        self.phase_s.push(secs);
        if self.tracer.is_enabled() {
            self.phase_ns.push((n0, self.tracer.now()));
        }
        secs
    }

    pub fn fact(&mut self, name: &'static str, v: f64) {
        *self.facts.entry(name).or_insert(0.0) += v;
    }

    /// Store stack for one cycle: `MemBackend`, under the timing wrapper
    /// in a traced run, with `ChunkBackend` (and a second wrapper over
    /// it) when `chunked`.
    pub fn store(&self, chunked: bool) -> Store {
        let mem = Arc::new(MemBackend::new());
        let mut top: Arc<dyn Backend> = mem.clone();
        let traced = self.tracer.is_enabled();
        if traced {
            top = Arc::new(Metered::new(top, Layer::Backend, self.tracer.clone()));
        }
        let mut chunk = None;
        let registry = Registry::new();
        if chunked {
            let cb = Arc::new(if traced {
                ChunkBackend::observed(
                    top,
                    ChunkParams::default(),
                    &registry,
                    obs::trace::TraceCtx::disabled(),
                )
            } else {
                ChunkBackend::new(top)
            });
            chunk = Some(cb.clone());
            top = cb;
            if traced {
                top = Arc::new(Metered::new(top, Layer::Chunk, self.tracer.clone()));
            }
        }
        Store { mem, top, chunk, registry }
    }

    pub fn store_facts(&mut self, st: &Store) {
        self.fact("backend.bytes_stored", st.mem.total_bytes() as f64);
        self.fact("backend.files", st.mem.file_count() as f64);
    }

    /// Record what the store holds against `user_bytes` written.
    pub fn account_store(&mut self, st: &Store, user_bytes: u64) {
        self.s.stored_per_user_byte.push(st.mem.total_bytes() as f64 / user_bytes as f64);
        self.store_facts(st);
        if let Some(cb) = &st.chunk {
            // The registry's counter names are the metric names.
            for name in [
                "chunk.dedup_hits",
                "chunk.blobs_written",
                "chunk.ingest_bytes",
                "chunk.compressed_bytes",
            ] {
                self.fact(name, st.registry.value(name).unwrap_or(0) as f64);
            }
            let pool = self.op(cb.pool_usage()).map_or(0, |(_, bytes)| bytes);
            self.fact("chunk.pool_bytes", pool as f64);
        }
    }
}

pub struct Store {
    pub mem: Arc<MemBackend>,
    /// What `Plfs` is built over.
    pub top: Arc<dyn Backend>,
    pub chunk: Option<Arc<ChunkBackend>>,
    registry: Registry,
}
