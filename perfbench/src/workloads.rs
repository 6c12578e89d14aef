//! The four workloads. Each is a closed loop: every caller waits for
//! its reply before issuing the next call. `setup` builds the seeded
//! inputs (and any pre-state) untimed; `cycle` runs one timed round
//! trip and checks every delivered byte against the oracle image.

use crate::ctx::{Ctx, Store};
use crate::inputs::{self, Rec};
use crate::meter::Metered;
use crate::trace::Layer;
use plfs::{IndexMap, IngestService, Plfs, PlfsConfig, Reader, ServiceConfig};
use std::io;
use std::sync::Arc;
use std::time::Instant;
use workloads::sample::SizeDist;
use workloads::swarm::{self, SwarmConfig, SwarmOp};

/// Read size of the sequential restart reads.
pub const SEQ_READ: u64 = 2 << 20;
/// Read size of the dedup read-back: a third of the `ChunkCache` (64
/// chunks of ~10 KiB mean), so one call's chunks fit it.
pub const DEDUP_READ: u64 = 512 << 10;
/// Read size of the small random restart reads.
pub const SMALL_READ: u64 = 4096;

pub const NAMES: [&str; 4] =
    ["ckpt-n1-strided", "restart-small-reads", "ingest-swarm", "dedup-repeat-ckpt"];

/// Workload sizes; `full` is what the benchmark runs, `small` what its
/// own tests run.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    pub ckpt_ranks: u32,
    pub ckpt_steps: u32,
    pub restart_ranks: u32,
    pub restart_steps: u32,
    pub restart_reads: usize,
    pub swarm_ops_per_client: u32,
    pub swarm_sync_every: usize,
    pub dedup_ranks: u32,
    pub dedup_seg: u64,
    pub dedup_iters: u32,
}

impl Params {
    pub fn full() -> Params {
        Params {
            ckpt_ranks: 64,
            ckpt_steps: 40,
            restart_ranks: 32,
            restart_steps: 24,
            restart_reads: 2000,
            swarm_ops_per_client: 8,
            swarm_sync_every: 500,
            dedup_ranks: 8,
            dedup_seg: 1536 << 10,
            dedup_iters: 4,
        }
    }

    pub fn small() -> Params {
        Params {
            ckpt_ranks: 8,
            ckpt_steps: 4,
            restart_ranks: 4,
            restart_steps: 4,
            restart_reads: 50,
            swarm_ops_per_client: 2,
            swarm_sync_every: 100,
            dedup_ranks: 2,
            dedup_seg: 192 << 10,
            dedup_iters: 3,
        }
    }
}

/// Small, unaligned records, as FLASH-IO's per-variable writes; the
/// 32 KiB mean makes each rank's share (~1.25 MiB) outgrow the
/// writer's 1 MiB data buffer once, so ~2.5% of `write_at`s flush.
const CKPT_SIZES: SizeDist = SizeDist::Uniform { min: 8189, max: 57_347 };
/// Larger records, so most 4 KiB reads stay inside one rank's record
/// and a seeded few (~6%) straddle two.
const RESTART_SIZES: SizeDist = SizeDist::Uniform { min: 32_761, max: 98_311 };
const SWARM_CLIENTS: u32 = 1000;
const SWARM_PRODUCERS: usize = 2;
const DEDUP_REGION: u64 = 64 << 10;
const DEDUP_CHANGE: f64 = 0.1;
const DEDUP_RECORDS: SizeDist = SizeDist::Uniform { min: 32 << 10, max: 96 << 10 };

/// A workload's seeded inputs and pre-state, plus the buffer reads
/// land in (allocated and touched before the first timed phase, so no
/// page fault is timed).
pub struct State {
    kind: Kind,
    arena: Vec<u8>,
}

enum Kind {
    Ckpt { recs: Vec<Rec>, image: Vec<u8> },
    Restart { recs: Vec<Rec>, image: Vec<u8>, store: Store, fs: Box<Plfs>, seed: u64, n: usize },
    Ingest { producers: Vec<Vec<SwarmOp>>, image: Vec<u8>, sync_every: usize },
    Dedup { recs: Vec<Rec>, images: Vec<Vec<u8>>, ranks: u32 },
}

const FILE: &str = "/ckpt";

fn seq_reads(size: u64, step: u64) -> Vec<(u64, u64)> {
    (0..size).step_by(step as usize).map(|o| (o, step.min(size - o))).collect()
}

/// The small reads of restart cycle `k`.
fn restart_reads(seed: u64, k: u64, n: usize, size: u64) -> Vec<(u64, u64)> {
    let offs = inputs::uniform_reads(n, SMALL_READ, size, seed ^ ((k + 1) << 32));
    offs.into_iter().map(|o| (o, SMALL_READ)).collect()
}

impl State {
    pub fn setup(name: &str, p: &Params, seed: u64, ctx: &mut Ctx) -> io::Result<State> {
        let kind = match name {
            "ckpt-n1-strided" => {
                let recs = inputs::strided(p.ckpt_ranks, p.ckpt_steps, CKPT_SIZES, seed);
                let image = inputs::image(&recs, |r| r.rank);
                Kind::Ckpt { recs, image }
            }
            "restart-small-reads" => {
                let recs = inputs::strided(p.restart_ranks, p.restart_steps, RESTART_SIZES, seed);
                let image = inputs::image(&recs, |r| r.rank);
                // The checkpoint and its first (cold) open are pre-state;
                // the write is timed as this workload's write phase.
                let store = ctx.store(false);
                let fs = Plfs::new(store.top.clone(), PlfsConfig::default());
                ctx.begin_phase();
                write_ckpt(ctx, &fs, FILE, &recs, &image, p.restart_ranks);
                let secs = ctx.end_phase();
                ctx.s.write_mbps.push(image.len() as f64 / secs / 1e6);
                ctx.account_store(&store, image.len() as u64);
                ctx.op(fs.open_reader(FILE));
                Kind::Restart { recs, image, store, fs: Box::new(fs), seed, n: p.restart_reads }
            }
            "ingest-swarm" => {
                let plan = swarm::plan(&SwarmConfig {
                    clients: SWARM_CLIENTS,
                    ops_per_client: p.swarm_ops_per_client,
                    size: SizeDist::Uniform { min: 1024, max: 8192 },
                    seed,
                });
                let mut producers = vec![Vec::new(); SWARM_PRODUCERS];
                for (i, op) in plan.issue_order(seed).into_iter().enumerate() {
                    producers[i % SWARM_PRODUCERS].push(op);
                }
                Kind::Ingest {
                    producers,
                    image: plan.expected_contents(),
                    sync_every: p.swarm_sync_every,
                }
            }
            "dedup-repeat-ckpt" => {
                let images = inputs::repeated_images(
                    p.dedup_ranks,
                    p.dedup_seg,
                    DEDUP_REGION,
                    p.dedup_iters,
                    DEDUP_CHANGE,
                    seed,
                );
                let recs = inputs::segmented(p.dedup_ranks, p.dedup_seg, DEDUP_RECORDS, seed);
                Kind::Dedup { recs, images, ranks: p.dedup_ranks }
            }
            other => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!("unknown workload {other:?}"),
                ))
            }
        };
        Ok(State { kind, arena: Vec::new() })
    }

    /// Digests of the op stream (reads of the first cycle included) and
    /// of the payload bytes, for determinism checks.
    pub fn digests(&self) -> (u64, u64) {
        use crate::trace::{fnv, FNV_SEED};
        match &self.kind {
            Kind::Ckpt { recs, image } => (inputs::ops_digest(recs), fnv(FNV_SEED, image)),
            Kind::Restart { recs, image, seed, n, .. } => {
                let reads = restart_reads(*seed, 0, *n, image.len() as u64);
                let h = reads
                    .iter()
                    .fold(inputs::ops_digest(recs), |h, (o, _)| fnv(h, &o.to_le_bytes()));
                (h, fnv(FNV_SEED, image))
            }
            Kind::Ingest { producers, image, .. } => {
                let recs: Vec<Rec> = producers
                    .iter()
                    .flatten()
                    .map(|o| Rec { rank: o.client, offset: o.offset, len: o.len })
                    .collect();
                (inputs::ops_digest(&recs), fnv(FNV_SEED, image))
            }
            Kind::Dedup { recs, images, .. } => {
                (inputs::ops_digest(recs), images.iter().fold(FNV_SEED, |h, i| fnv(h, i)))
            }
        }
    }

    /// One timed round trip; `k` numbers the cycle within the run.
    pub fn cycle(&mut self, ctx: &mut Ctx, k: u64) {
        // The read buffer is the benchmark's, not the program's pre-state:
        // it is made (and touched) here, outside set-up and every phase.
        let need = match &self.kind {
            Kind::Ckpt { image, .. } | Kind::Ingest { image, .. } => image.len(),
            Kind::Restart { n, .. } => n * SMALL_READ as usize,
            Kind::Dedup { images, .. } => images.last().map_or(0, |i| i.len()),
        };
        if self.arena.len() < need {
            self.arena = vec![0xA5; need];
        }
        let arena = &mut self.arena;
        match &mut self.kind {
            Kind::Ckpt { recs, image } => {
                let store = ctx.store(false);
                let fs = Plfs::new(store.top.clone(), PlfsConfig::default());
                let ranks = recs.iter().map(|r| r.rank).max().map_or(0, |r| r + 1);
                ctx.begin_phase();
                write_ckpt(ctx, &fs, FILE, recs, image, ranks);
                let secs = ctx.end_phase();
                ctx.s.write_mbps.push(image.len() as f64 / secs / 1e6);
                ctx.account_store(&store, image.len() as u64);
                read_into(ctx, &fs, FILE, image, &seq_reads(image.len() as u64, SEQ_READ), arena);
            }
            Kind::Restart { image, store, fs, seed, n, .. } => {
                let calls = restart_reads(*seed, k, *n, image.len() as u64);
                // A traced cycle needs the wrapper under the reader; the
                // store and its canonical index are the same.
                let traced;
                let fs = if ctx.tracer.is_enabled() {
                    let top = Arc::new(Metered::new(
                        store.mem.clone(),
                        Layer::Backend,
                        ctx.tracer.clone(),
                    ));
                    traced = Plfs::new(top, PlfsConfig::default());
                    &traced
                } else {
                    &*fs
                };
                read_into(ctx, fs, FILE, image, &calls, arena);
                ctx.store_facts(store);
            }
            Kind::Ingest { producers, image, sync_every } => {
                let store = ctx.store(false);
                let fs = Plfs::new(store.top.clone(), PlfsConfig::default());
                ctx.begin_phase();
                ingest(ctx, &fs, producers, image, *sync_every);
                let secs = ctx.end_phase();
                ctx.s.write_mbps.push(image.len() as f64 / secs / 1e6);
                ctx.account_store(&store, image.len() as u64);
                read_into(ctx, &fs, FILE, image, &seq_reads(image.len() as u64, SEQ_READ), arena);
            }
            Kind::Dedup { recs, images, ranks } => {
                let store = ctx.store(true);
                let fs = Plfs::new(store.top.clone(), PlfsConfig::default());
                ctx.begin_phase();
                for (it, image) in images.iter().enumerate() {
                    write_ckpt(ctx, &fs, &format!("{FILE}.{it}"), recs, image, *ranks);
                }
                let secs = ctx.end_phase();
                let user: u64 = images.iter().map(|i| i.len() as u64).sum();
                ctx.s.write_mbps.push(user as f64 / secs / 1e6);
                ctx.account_store(&store, user);
                let last = images.len() - 1;
                let image = &images[last];
                let calls = seq_reads(image.len() as u64, DEDUP_READ);
                read_into(ctx, &fs, &format!("{FILE}.{last}"), image, &calls, arena);
            }
        }
    }
}

/// Time `f` as one call into `layer`; returns its result and seconds.
fn timed<T>(ctx: &Ctx, layer: Layer, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = ctx.tracer.call(layer, name, f);
    (out, t0.elapsed().as_secs_f64())
}

/// N-1 checkpoint through one `Writer` per rank, driven round-robin
/// from this thread: open all, write every record, sync, close.
fn write_ckpt(ctx: &mut Ctx, fs: &Plfs, file: &str, recs: &[Rec], image: &[u8], ranks: u32) {
    let mut writers = Vec::with_capacity(ranks as usize);
    for rank in 0..ranks {
        let (w, _) = timed(ctx, Layer::Write, "open", || fs.open_writer(file, rank));
        writers.push(ctx.op(w));
    }
    for r in recs {
        let Some(w) = writers[r.rank as usize].as_mut() else { continue };
        let data = &image[r.offset as usize..(r.offset + r.len) as usize];
        let (res, secs) = timed(ctx, Layer::Write, "write_at", || w.write_at(r.offset, data));
        ctx.s.write_us.push(secs * 1e6);
        ctx.op(res);
    }
    for w in writers.iter_mut().flatten() {
        let (res, secs) = timed(ctx, Layer::Write, "sync", || w.sync());
        ctx.s.sync_ms.push(secs * 1e3);
        ctx.op(res);
    }
    ctx.fact("bytes.written", recs.iter().map(|r| r.len).sum::<u64>() as f64);
    for w in writers.into_iter().flatten() {
        let (res, _) = timed(ctx, Layer::Write, "close", || w.close());
        if let Some(st) = ctx.op(res) {
            ctx.fact("write.data_appends", st.data_appends as f64);
            ctx.fact("write.index_appends", st.index_appends as f64);
            ctx.fact("write.index_bytes", st.index_bytes as f64);
        }
    }
}

/// One producer's write latencies (us), sync latencies (ms) and results.
type ProducerOut = (Vec<f64>, Vec<f64>, Vec<io::Result<()>>);

/// The swarm through `IngestService` from two producer threads, each a
/// closed loop with a `sync` barrier every `sync_every` of its writes.
fn ingest(ctx: &mut Ctx, fs: &Plfs, producers: &[Vec<SwarmOp>], image: &[u8], sync_every: usize) {
    let (svc, _) = timed(ctx, Layer::Service, "start", || {
        IngestService::start(fs, FILE, ServiceConfig::default())
    });
    let Some(svc) = ctx.op(svc) else { return };
    ctx.tracer.set_single_client(false);
    let per_producer: Vec<ProducerOut> = std::thread::scope(|sc| {
        let handles: Vec<_> = producers
            .iter()
            .map(|ops| {
                let (svc, ctx) = (&svc, &*ctx);
                sc.spawn(move || {
                    let (mut w_us, mut s_ms, mut results) = (Vec::new(), Vec::new(), Vec::new());
                    for (i, op) in ops.iter().enumerate() {
                        let data = &image[op.offset as usize..(op.offset + op.len) as usize];
                        let (res, secs) = timed(ctx, Layer::Service, "write", || {
                            svc.write(op.client, op.offset, data)
                        });
                        w_us.push(secs * 1e6);
                        results.push(res);
                        if (i + 1) % sync_every == 0 || i + 1 == ops.len() {
                            let (res, secs) = timed(ctx, Layer::Service, "sync", || svc.sync());
                            s_ms.push(secs * 1e3);
                            results.push(res);
                        }
                    }
                    (w_us, s_ms, results)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("producer thread panicked")).collect()
    });
    ctx.tracer.set_single_client(true);
    for (w_us, s_ms, results) in per_producer {
        ctx.s.write_us.extend(w_us);
        ctx.s.sync_ms.extend(s_ms);
        for r in results {
            ctx.op(r);
        }
    }
    let (res, _) = timed(ctx, Layer::Service, "close", || svc.close());
    if let Some(st) = ctx.op(res) {
        ctx.fact("service.stalls", st.backpressure_stalls as f64);
        ctx.fact("service.stall_ms", st.backpressure_stall_ns as f64 / 1e6);
        ctx.fact("service.group_commits", st.group_commits as f64);
        ctx.fact("service.fanin", st.fanin());
    }
}

/// Open `file`, make `calls` as `read_at`s into `arena` (call `i`
/// fills the `i`-th slot of its length, so nothing is copied while
/// timed), then check every delivered byte against `image`.
fn read_into(
    ctx: &mut Ctx,
    fs: &Plfs,
    file: &str,
    image: &[u8],
    calls: &[(u64, u64)],
    arena: &mut [u8],
) {
    ctx.begin_phase();
    let (reader, secs) = timed(ctx, Layer::Index, "open_reader", || fs.open_reader(file));
    ctx.end_phase();
    ctx.s.open_ms.push(secs * 1e3);
    let Some(reader) = ctx.op(reader) else { return };
    let mut ok = Vec::with_capacity(calls.len());
    ctx.begin_phase();
    let mut at = 0usize;
    for &(off, len) in calls {
        let slot = &mut arena[at..at + len as usize];
        let (res, secs) = timed(ctx, Layer::Read, "read_at", || reader.read_at(off, slot));
        ctx.s.read_us.push(secs * 1e6);
        ok.push(matches!(res, Ok(n) if n as u64 == len));
        at += len as usize;
    }
    let secs = ctx.end_phase();
    let delivered: u64 = calls.iter().map(|c| c.1).sum();
    ctx.s.read_mbps.push(delivered as f64 / secs / 1e6);
    let mut at = 0usize;
    for (&(off, len), good) in calls.iter().zip(ok) {
        ctx.attempted += 1;
        if good {
            ctx.check(&arena[at..at + len as usize], &image[off as usize..(off + len) as usize]);
        } else {
            ctx.failed += 1;
        }
        at += len as usize;
    }
    index_facts(ctx, &reader, calls);
}

fn index_facts(ctx: &mut Ctx, reader: &Reader, calls: &[(u64, u64)]) {
    let st = reader.stats();
    ctx.fact("index.raw_entries", st.raw_entries as f64);
    ctx.fact("index.merged_extents", st.merged_extents as f64);
    ctx.fact("index.merge_steps", st.merge_steps as f64);
    ctx.fact("index.bytes", st.index_bytes as f64);
    ctx.fact("index.from_canonical", st.from_canonical as u8 as f64);
    ctx.fact("bytes.read", calls.iter().map(|c| c.1).sum::<u64>() as f64);
    if ctx.tracer.is_enabled() {
        ctx.fact("index.lookup_us", lookup_probe(reader.index(), calls));
    }
}

/// Mean `IndexMap::lookup` time over the workload's own read ranges,
/// cycled to at least 10 000 lookups.
fn lookup_probe(map: &IndexMap, calls: &[(u64, u64)]) -> f64 {
    const LOOKUPS: usize = 10_000;
    let t0 = Instant::now();
    let mut pieces = 0usize;
    for &(off, len) in calls.iter().cycle().take(LOOKUPS.max(calls.len())) {
        pieces += std::hint::black_box(map.lookup(off, len)).len();
    }
    std::hint::black_box(pieces);
    t0.elapsed().as_secs_f64() * 1e6 / LOOKUPS.max(calls.len()) as f64
}
