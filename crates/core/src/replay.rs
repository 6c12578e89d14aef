//! Deterministic op-log replay: drive a captured or generated
//! [`OpLog`] against any [`crate::Plfs`] instance — and therefore any
//! backend (memory, local dir, faulty) — and prove the outcome matched.
//!
//! ## Determinism model
//!
//! Replay must produce identical container contents and identical
//! delivered read bytes in every mode at any parallelism. Three
//! mechanisms make that hold:
//!
//! 1. **Recorded write stamps.** Cross-rank overlap resolution in the
//!    index merge orders extents by `(timestamp, writer)`. Every write
//!    is re-issued via [`crate::Writer::write_at_stamped`] with the
//!    stamp from the log's result column (captured logs) or the
//!    pre-assigned generated stamp; a `-` write falls back to
//!    `GEN_STAMP_BASE + log index`. Physical append order becomes
//!    irrelevant.
//! 2. **Canonical payloads.** Write bytes are regenerated with
//!    [`fill_payload`] — a pure function of `(rank, offset)` — so two
//!    replays of one log lay down identical bytes, and a capture that
//!    used canonical payloads (all generated scenarios do) is
//!    reproduced byte-for-byte.
//! 3. **Epoch barriers.** The log is split into maximal runs of
//!    write-class and read-class ops (see [`OpKind::is_read_side`]).
//!    At each write→read transition every open writer is synced and
//!    stale read handles are dropped, so reads always observe
//!    everything written before them in log order. Within an epoch,
//!    per-rank op order is preserved; cross-rank order is free — which
//!    is exactly the freedom the stamps make harmless.
//!
//! ## Modes
//!
//! - `Sequential`: one op at a time in global log order — the
//!   reference interleaving.
//! - `Asap`: per-rank lanes fan out on the bounded worker pool, each
//!   lane issuing its ops back to back.
//! - `TimingFaithful`: like `Asap`, but each lane sleeps until the
//!   op's recorded timestamp (scaled by `speedup`), reproducing the
//!   capture's arrival process — Poisson gaps stay Poisson.
//!
//! Op failures don't abort the replay: the op records an `err:<kind>`
//! result and the run continues (the differential harness then shows
//! whether the failure changed observable behaviour). Infrastructure
//! failures (e.g. the final content walk) do surface as errors.
//!
//! The differential harness ([`differential`]) replays one log against
//! two engine configurations and reports whether delivered bytes,
//! final contents, and invariant metrics agree — the regression
//! backbone for engine changes.

use crate::backend::Backend;
use crate::checksum::crc32;
use crate::filesystem::{Plfs, PlfsConfig};
use crate::pool;
use crate::read::Reader;
use crate::write::Writer;
use std::io;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use workloads::gen::GEN_STAMP_BASE;
use workloads::oplog::{
    fill_payload, fold_delivered, OpKind, OpLog, OpRecord, OpResult, Shape, DELIVERED_HASH_SEED,
};

/// How replayed ops are scheduled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReplayMode {
    /// Per-rank lanes on the bounded pool, each as fast as possible.
    #[default]
    Asap,
    /// Global log order, single-threaded — the reference interleaving.
    Sequential,
    /// Per-rank lanes paced to the recorded timestamps (divided by
    /// [`ReplayOptions::speedup`]), preserving the arrival process.
    TimingFaithful,
}

impl ReplayMode {
    /// CLI token table.
    pub fn by_name(name: &str) -> Option<ReplayMode> {
        Some(match name {
            "asap" => ReplayMode::Asap,
            "sequential" => ReplayMode::Sequential,
            "timing-faithful" | "timing" => ReplayMode::TimingFaithful,
            _ => return None,
        })
    }

    pub fn name(self) -> &'static str {
        match self {
            ReplayMode::Asap => "asap",
            ReplayMode::Sequential => "sequential",
            ReplayMode::TimingFaithful => "timing-faithful",
        }
    }
}

/// Replay configuration: scheduling plus the reader-engine knobs the
/// differential harness varies.
#[derive(Debug, Clone)]
pub struct ReplayOptions {
    pub mode: ReplayMode,
    /// Wall-time compression for timing-faithful replay: recorded gaps
    /// are divided by this. 1.0 replays in captured real time.
    pub speedup: f64,
    /// Serve reads through the serial per-piece oracle
    /// ([`Reader::read_at_serial`]) instead of the coalescing engine.
    pub serial_reads: bool,
    /// Override the reader's readahead (bytes, 0 disables).
    pub readahead: Option<u64>,
    /// Override read-path checksum verification.
    pub verify: Option<bool>,
}

impl Default for ReplayOptions {
    fn default() -> Self {
        ReplayOptions {
            mode: ReplayMode::Asap,
            speedup: 1.0,
            serial_reads: false,
            readahead: None,
            verify: None,
        }
    }
}

/// What a replay run did and what it observed.
#[derive(Debug, Clone)]
pub struct ReplayOutcome {
    /// Ops executed (== the log's op count).
    pub ops: u64,
    /// Ops that surfaced an error (recorded as `err:`, run continued).
    pub errors: u64,
    /// Epoch barriers the log split into.
    pub epochs: u64,
    /// Logical bytes written successfully.
    pub write_bytes: u64,
    /// Logical bytes delivered to reads.
    pub read_bytes: u64,
    /// Reads whose `(got, crc)` differed from the log's recorded
    /// outcome (only counted where the log had one).
    pub read_mismatches: u64,
    /// Order-sensitive digest of all delivered read bytes, in log
    /// order ([`OpLog::delivered_hash`] of the replayed log).
    pub delivered_hash: u64,
    /// Digest of the final logical file contents (all ranks' files for
    /// N-N), read back through a fresh uninstrumented instance.
    pub content_hash: u64,
    pub wall_ns: u64,
    /// The input log with every op's result replaced by what this
    /// replay observed — itself a valid, re-replayable op log.
    pub log: OpLog,
}

/// Per-rank replay lane state.
#[derive(Default)]
struct Lane {
    writer: Option<Writer>,
    reader: Option<Reader>,
}

/// One maximal run of same-class ops (indices into the log).
struct Epoch {
    read_side: bool,
    ops: Vec<usize>,
}

fn split_epochs(ops: &[OpRecord]) -> Vec<Epoch> {
    let mut out: Vec<Epoch> = Vec::new();
    for (i, op) in ops.iter().enumerate() {
        let rs = op.op.is_read_side();
        match out.last_mut() {
            Some(e) if e.read_side == rs => e.ops.push(i),
            _ => out.push(Epoch { read_side: rs, ops: vec![i] }),
        }
    }
    out
}

/// Logical path rank `rank` operates on: the shared file for N-1,
/// `<file>.<rank>` for N-N.
pub fn path_for(log: &OpLog, rank: u32) -> String {
    match log.shape {
        Shape::N1 => log.file.clone(),
        Shape::NN => format!("{}.{}", log.file, rank),
    }
}

fn ok_or_err<T>(res: io::Result<T>) -> OpResult {
    match res {
        Ok(_) => OpResult::Ok,
        Err(e) => OpResult::Err(format!("{:?}", e.kind())),
    }
}

fn open_reader_with_opts(
    fs: &Plfs,
    path: &str,
    rank: u32,
    opts: &ReplayOptions,
) -> io::Result<Reader> {
    let mut r = fs.open_reader_as(path, rank)?;
    if let Some(ra) = opts.readahead {
        r.set_readahead(ra);
    }
    if let Some(v) = opts.verify {
        r.set_verify(v);
    }
    Ok(r)
}

/// Execute one op against its lane. Never panics and never aborts the
/// replay: failures become `err:` results.
fn exec_op(
    fs: &Plfs,
    lane: &mut Lane,
    log: &OpLog,
    op: &OpRecord,
    idx: usize,
    opts: &ReplayOptions,
) -> OpResult {
    // Flight-recorder probe: replayed control ops (open/sync/stat/...)
    // never pass through the instrumented write/read hot paths, so the
    // replay loop polls once per op to keep frame cadence under
    // control-heavy logs. Free when the recorder is disabled.
    fs.metrics().flight.maybe_sample();
    let path = path_for(log, op.rank);
    match op.op {
        OpKind::Create => ok_or_err(fs.create(&path)),
        OpKind::OpenWriter => match fs.open_writer(&path, op.rank) {
            Ok(w) => {
                lane.writer = Some(w);
                OpResult::Ok
            }
            Err(e) => ok_or_err::<()>(Err(e)),
        },
        OpKind::Write => {
            if lane.writer.is_none() {
                // A log may start mid-session: open lazily.
                match fs.open_writer(&path, op.rank) {
                    Ok(w) => lane.writer = Some(w),
                    Err(e) => return ok_or_err::<()>(Err(e)),
                }
            }
            let stamp = match op.result {
                OpResult::Write { stamp } => stamp,
                // Pending/other: the deterministic fallback every mode
                // agrees on (position in the log, not issue order).
                _ => GEN_STAMP_BASE + idx as u64,
            };
            let mut payload = vec![0u8; op.len as usize];
            fill_payload(op.rank, op.offset, &mut payload);
            match lane.writer.as_mut().unwrap().write_at_stamped(op.offset, &payload, stamp) {
                Ok(()) => OpResult::Write { stamp },
                Err(e) => ok_or_err::<()>(Err(e)),
            }
        }
        OpKind::Sync => match lane.writer.as_mut() {
            Some(w) => ok_or_err(w.sync()),
            None => OpResult::Ok,
        },
        OpKind::CloseWriter => match lane.writer.take() {
            Some(w) => ok_or_err(w.close()),
            None => OpResult::Ok,
        },
        OpKind::OpenReader => match open_reader_with_opts(fs, &path, op.rank, opts) {
            Ok(r) => {
                lane.reader = Some(r);
                OpResult::Ok
            }
            Err(e) => ok_or_err::<()>(Err(e)),
        },
        OpKind::Read => {
            if lane.reader.is_none() {
                match open_reader_with_opts(fs, &path, op.rank, opts) {
                    Ok(r) => lane.reader = Some(r),
                    Err(e) => return ok_or_err::<()>(Err(e)),
                }
            }
            let r = lane.reader.as_ref().unwrap();
            let mut buf = vec![0u8; op.len as usize];
            let res = if opts.serial_reads {
                r.read_at_serial(op.offset, &mut buf)
            } else {
                r.read_at(op.offset, &mut buf)
            };
            match res {
                Ok(got) => OpResult::Read { got: got as u64, crc: crc32(&buf[..got]) },
                Err(e) => ok_or_err::<()>(Err(e)),
            }
        }
        OpKind::CloseReader => {
            lane.reader = None;
            OpResult::Ok
        }
        OpKind::Stat => ok_or_err(fs.stat(&path)),
        OpKind::Unlink => ok_or_err(fs.unlink(&path)),
    }
}

/// Sleep until the op's scaled capture time (timing-faithful lanes).
fn pace(start: Instant, t0: u64, t_ns: u64, speedup: f64) {
    let target = Duration::from_nanos((t_ns.saturating_sub(t0) as f64 / speedup.max(1e-9)) as u64);
    let elapsed = start.elapsed();
    if elapsed < target {
        std::thread::sleep(target - elapsed);
    }
}

/// Replay `log` against `fs`. See the module docs for the determinism
/// model; `replay.*` counters land in the instance registry alongside
/// the `plfs.*` series the replayed ops emit.
pub fn replay(fs: &Plfs, log: &OpLog, opts: &ReplayOptions) -> io::Result<ReplayOutcome> {
    let n = log.ops.len();
    let ranks = log.ranks.max(1) as usize;
    let lanes: Vec<Mutex<Lane>> = (0..ranks).map(|_| Mutex::new(Lane::default())).collect();
    let results: Vec<Mutex<Option<OpResult>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let t0 = log.ops.first().map(|o| o.t_ns).unwrap_or(0);
    let epochs = split_epochs(&log.ops);
    let start = Instant::now();

    for epoch in &epochs {
        if epoch.read_side {
            // Write→read barrier: land everything written so far and
            // drop read handles whose index predates it.
            for lane in &lanes {
                let mut lane = lane.lock().unwrap();
                lane.reader = None;
                if let Some(w) = lane.writer.as_mut() {
                    let _ = w.sync();
                }
            }
        }
        match opts.mode {
            ReplayMode::Sequential => {
                for &i in &epoch.ops {
                    let op = &log.ops[i];
                    let mut lane = lanes[op.rank as usize].lock().unwrap();
                    let r = exec_op(fs, &mut lane, log, op, i, opts);
                    *results[i].lock().unwrap() = Some(r);
                }
            }
            ReplayMode::Asap | ReplayMode::TimingFaithful => {
                // One lane per rank present in the epoch, per-rank op
                // order preserved, lanes fanned out on the bounded pool.
                let timed = opts.mode == ReplayMode::TimingFaithful;
                let mut per_rank: Vec<Vec<usize>> = vec![Vec::new(); ranks];
                let mut present: Vec<usize> = Vec::new();
                for &i in &epoch.ops {
                    let r = log.ops[i].rank as usize;
                    if per_rank[r].is_empty() {
                        present.push(r);
                    }
                    per_rank[r].push(i);
                }
                let cap = pool::available_parallelism();
                let (outs, _) = pool::run_bounded(present.len(), cap, |j| {
                    let rank = present[j];
                    let mut lane = lanes[rank].lock().unwrap();
                    for &i in &per_rank[rank] {
                        let op = &log.ops[i];
                        if timed {
                            pace(start, t0, op.t_ns, opts.speedup);
                        }
                        let r = exec_op(fs, &mut lane, log, op, i, opts);
                        *results[i].lock().unwrap() = Some(r);
                    }
                });
                drop(outs);
            }
        }
    }

    // Teardown: close every writer the log left open so the final
    // container state is clean and content-hashable.
    for lane in &lanes {
        let mut lane = lane.lock().unwrap();
        lane.reader = None;
        if let Some(w) = lane.writer.take() {
            let _ = w.close();
        }
    }
    let wall_ns = start.elapsed().as_nanos() as u64;

    // Assemble the replayed log and aggregate.
    let mut replayed = log.clone();
    let mut errors = 0u64;
    let mut write_bytes = 0u64;
    let mut read_bytes = 0u64;
    let mut read_mismatches = 0u64;
    for (i, slot) in results.iter().enumerate() {
        let result = slot.lock().unwrap().take().unwrap_or(OpResult::Pending);
        match &result {
            OpResult::Err(_) => errors += 1,
            OpResult::Write { .. } => write_bytes += replayed.ops[i].len,
            OpResult::Read { got, crc } => {
                read_bytes += got;
                if let OpResult::Read { got: g0, crc: c0 } = &log.ops[i].result {
                    if (g0, c0) != (got, crc) {
                        read_mismatches += 1;
                    }
                }
            }
            _ => {}
        }
        replayed.ops[i].result = result;
    }
    let delivered_hash = replayed.delivered_hash();
    let content = content_hash(fs, log)?;

    let reg = &fs.metrics().registry;
    reg.counter("replay.ops").add(n as u64);
    reg.counter("replay.errors").add(errors);
    reg.counter("replay.epochs").add(epochs.len() as u64);
    reg.counter("replay.write_bytes").add(write_bytes);
    reg.counter("replay.read_bytes").add(read_bytes);
    reg.counter("replay.read_mismatches").add(read_mismatches);
    reg.counter("replay.wall_ns").add(wall_ns);

    Ok(ReplayOutcome {
        ops: n as u64,
        errors,
        epochs: epochs.len() as u64,
        write_bytes,
        read_bytes,
        read_mismatches,
        delivered_hash,
        content_hash: content,
        wall_ns,
        log: replayed,
    })
}

/// Digest of the final logical contents of every file the log touches,
/// read back through a fresh, uninstrumented, capture-free instance on
/// the same backend (so the walk perturbs neither metrics nor any
/// active capture). Missing files fold a distinct marker — unlinked
/// and never-created states are distinguishable from empty.
pub fn content_hash(fs: &Plfs, log: &OpLog) -> io::Result<u64> {
    let clean = Plfs::new(
        Arc::clone(fs.backend()) as Arc<dyn Backend>,
        PlfsConfig { hostdirs: fs.config().hostdirs, ..Default::default() },
    );
    let mut h = DELIVERED_HASH_SEED ^ 0x636f_6e74; // "cont"
    let files: Vec<String> = match log.shape {
        Shape::N1 => vec![log.file.clone()],
        Shape::NN => (0..log.ranks).map(|r| path_for(log, r)).collect(),
    };
    for f in files {
        if !clean.exists(&f) {
            h = fold_delivered(h, u64::MAX, 0);
            continue;
        }
        let r = clean.open_reader(&f)?;
        h = fold_delivered(h, r.size(), 0);
        r.for_each_chunk(|_, chunk| {
            h = fold_delivered(h, chunk.len() as u64, crc32(chunk));
            Ok(())
        })?;
    }
    Ok(h)
}

/// Differential replay: one log, two engine configurations.
#[derive(Debug, Clone)]
pub struct DiffOutcome {
    pub a: ReplayOutcome,
    pub b: ReplayOutcome,
}

impl DiffOutcome {
    /// Both runs delivered byte-identical data to every read.
    pub fn delivered_match(&self) -> bool {
        self.a.delivered_hash == self.b.delivered_hash
    }

    /// Both runs left byte-identical logical file contents.
    pub fn content_match(&self) -> bool {
        self.a.content_hash == self.b.content_hash
    }

    /// Workload-shape invariants agree: same op count, same logical
    /// bytes moved, no surfaced errors on either side.
    pub fn invariants_match(&self) -> bool {
        self.a.ops == self.b.ops
            && self.a.write_bytes == self.b.write_bytes
            && self.a.read_bytes == self.b.read_bytes
            && self.a.errors == 0
            && self.b.errors == 0
    }

    /// The full byte-identity claim the harness pins.
    pub fn identical(&self) -> bool {
        self.delivered_match() && self.content_match() && self.invariants_match()
    }
}

/// Replay `log` against two engine configurations (instance + replay
/// options each) and report whether observable behaviour matched. The
/// two instances must be backed by *different* stores (each replay
/// builds its own container state).
pub fn differential(
    log: &OpLog,
    a: &Plfs,
    opts_a: &ReplayOptions,
    b: &Plfs,
    opts_b: &ReplayOptions,
) -> io::Result<DiffOutcome> {
    let ra = replay(a, log, opts_a)?;
    let rb = replay(b, log, opts_b)?;
    Ok(DiffOutcome { a: ra, b: rb })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::MemBackend;
    use workloads::gen::{generate, GenConfig, Scenario};
    use workloads::sample::{ArrivalDist, SizeDist};

    fn mem_fs() -> Plfs {
        Plfs::new(
            Arc::new(MemBackend::new()) as Arc<dyn Backend>,
            PlfsConfig { hostdirs: 4, ..Default::default() },
        )
    }

    fn small_cfg() -> GenConfig {
        GenConfig {
            ranks: 3,
            ops_per_rank: 4,
            size: SizeDist::Uniform { min: 100, max: 2000 },
            arrival: ArrivalDist::Immediate,
            seed: 5,
        }
    }

    #[test]
    fn all_modes_agree_on_bytes() {
        let log = generate(Scenario::N1Strided, &small_cfg());
        let mut hashes = Vec::new();
        for mode in [ReplayMode::Sequential, ReplayMode::Asap, ReplayMode::TimingFaithful] {
            let fs = mem_fs();
            let opts = ReplayOptions { mode, speedup: 1e9, ..Default::default() };
            let out = replay(&fs, &log, &opts).unwrap();
            assert_eq!(out.errors, 0, "{mode:?}");
            hashes.push((out.delivered_hash, out.content_hash));
        }
        assert_eq!(hashes[0], hashes[1], "sequential vs asap");
        assert_eq!(hashes[1], hashes[2], "asap vs timing-faithful");
    }

    #[test]
    fn replayed_log_is_replayable_and_stable() {
        let log = generate(Scenario::Mixed, &small_cfg());
        let first = replay(&mem_fs(), &log, &ReplayOptions::default()).unwrap();
        // Replaying the *replayed* log (now carrying recorded read
        // results) reproduces the same outcomes with zero mismatches.
        let second = replay(&mem_fs(), &first.log, &ReplayOptions::default()).unwrap();
        assert_eq!(second.read_mismatches, 0);
        assert_eq!(second.delivered_hash, first.delivered_hash);
        assert_eq!(second.content_hash, first.content_hash);
    }

    #[test]
    fn sequential_is_the_reference_for_every_scenario() {
        for sc in workloads::gen::SCENARIOS.iter().map(|(_, s)| *s) {
            let log = generate(sc, &small_cfg());
            let seq = replay(
                &mem_fs(),
                &log,
                &ReplayOptions { mode: ReplayMode::Sequential, ..Default::default() },
            )
            .unwrap();
            let par = replay(&mem_fs(), &log, &ReplayOptions::default()).unwrap();
            assert_eq!(seq.delivered_hash, par.delivered_hash, "{sc:?} delivered");
            assert_eq!(seq.content_hash, par.content_hash, "{sc:?} content");
            assert_eq!(seq.errors, 0, "{sc:?}");
        }
    }

    #[test]
    fn differential_engine_vs_oracle_is_identical() {
        let log = generate(Scenario::ReadHeavyRestart, &small_cfg());
        let a = mem_fs();
        let b = mem_fs();
        let diff = differential(
            &log,
            &a,
            &ReplayOptions::default(),
            &b,
            &ReplayOptions { serial_reads: true, readahead: Some(0), ..Default::default() },
        )
        .unwrap();
        assert!(diff.identical(), "coalescing engine vs serial oracle diverged");
    }

    #[test]
    fn replay_emits_metrics_into_the_instance_registry() {
        let fs = mem_fs();
        let log = generate(Scenario::NN, &small_cfg());
        let out = replay(&fs, &log, &ReplayOptions::default()).unwrap();
        let reg = &fs.metrics().registry;
        assert_eq!(reg.value("replay.ops"), Some(out.ops));
        assert_eq!(reg.value("replay.write_bytes"), Some(out.write_bytes));
        assert!(reg.value("plfs.write.bytes").unwrap() > 0, "replayed ops emit plfs.* too");
    }
}
