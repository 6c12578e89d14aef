//! One benchmark run: repeated set-up, timed cycles for the asked
//! duration, then either the end-to-end metrics (untraced) or the
//! per-layer split (traced, with ceiling probes and overhead).

use crate::ctx::Ctx;
use crate::probe;
use crate::stats::{describe, median, quantile};
use crate::trace::{self_times, Layer, Method, PathClass, Span, Tracer};
use crate::workloads::{Params, State};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::io;
use std::time::{Duration, Instant};

/// Set-ups (and rounds) per untraced run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;
/// Traced-run cycles made even when `--seconds` is already spent.
pub const MIN_CYCLES: u64 = 3;
/// Spans of the first traced cycles kept for the Chrome export.
pub const EXPORT_SPANS: usize = 20_000;

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Human-readable summary lines (sample counts and tails).
    pub notes: Vec<String>,
    /// Spans kept for export (traced runs).
    pub spans: Vec<Span>,
}

fn m(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value: if value.is_finite() { value } else { 0.0 } }
}

/// Untraced run: the end-to-end metrics. The run is `SETUP_REPS`
/// rounds, each a fresh set-up followed by timed cycles for its share
/// of `seconds`, so set-up samples spread over the whole run.
pub fn end_to_end(name: &str, p: &Params, seed: u64, seconds: f64) -> io::Result<Outcome> {
    let mut ctx = Ctx::new(Tracer::disabled());
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let round = Duration::from_secs_f64(seconds / SETUP_REPS as f64);
    let mut k = 0;
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        let mut state = State::setup(name, p, seed, &mut ctx)?;
        setup_s.push(t0.elapsed().as_secs_f64());
        ctx.s.close_cycle();
        let deadline = Instant::now() + round;
        loop {
            state.cycle(&mut ctx, k);
            ctx.s.close_cycle();
            k += 1;
            if Instant::now() >= deadline {
                break;
            }
        }
    }
    let s = &mut ctx.s;
    let notes = vec![
        format!("cycles: {k}, set-ups: {SETUP_REPS}"),
        describe("write_at/IngestService::write latency", "us", &mut s.write_us),
        describe("sync latency", "ms", &mut s.sync_ms),
        describe("read_at latency", "us", &mut s.read_us),
        describe("open_reader per cycle", "ms", &mut s.open_ms),
        describe("write bandwidth per cycle", "MB/s", &mut s.write_mbps),
        describe("read bandwidth per cycle", "MB/s", &mut s.read_mbps),
        describe("set-up", "s", &mut setup_s),
    ];
    // The machine's speed swings by a quarter over seconds (other
    // tenants); the best quarter of cycles tracks the program.
    let lo = |xs: &mut Vec<f64>| quantile(xs, 0.25);
    let hi = |xs: &mut Vec<f64>| quantile(xs, 0.75);
    let metrics = vec![
        m("setup_s", "s", median(&mut setup_s)),
        m("write_MBps", "MB/s", hi(&mut s.write_mbps)),
        m("write_p99_us", "us", lo(&mut s.cycle_write_p99_us)),
        m("sync_p50_ms", "ms", lo(&mut s.cycle_sync_p50_ms)),
        m("open_ms", "ms", lo(&mut s.open_ms)),
        m("read_MBps", "MB/s", hi(&mut s.read_mbps)),
        m("read_p50_us", "us", lo(&mut s.cycle_read_p50_us)),
        m("read_p99_us", "us", lo(&mut s.cycle_read_p99_us)),
        m("stored_per_user_byte", "B/B", median(&mut s.stored_per_user_byte)),
        m("peak_rss_MiB", "MiB", probe::peak_rss_mib()),
    ];
    Ok(Outcome { attempted: ctx.attempted, failed: ctx.failed, metrics, notes, spans: Vec::new() })
}

/// Traced run: untraced and traced cycles alternate for `seconds`; the
/// traced ones give the per-layer split, the pair gives the overhead.
pub fn per_layer(name: &str, p: &Params, seed: u64, seconds: f64) -> io::Result<Outcome> {
    let mut plain = Ctx::new(Tracer::disabled());
    let mut traced = Ctx::new(Tracer::enabled());
    let mut state = State::setup(name, p, seed, &mut plain)?;
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let (mut plain_wall, mut traced_wall) = (Vec::new(), Vec::new());
    let mut per_cycle: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut export = Vec::new();
    let mut k = 0;
    while k < 2 * MIN_CYCLES || Instant::now() < deadline {
        let ctx = if k % 2 == 0 { &mut plain } else { &mut traced };
        ctx.phase_s.clear();
        ctx.phase_ns.clear();
        ctx.facts.clear();
        state.cycle(ctx, k);
        let wall: f64 = ctx.phase_s.iter().sum();
        if k % 2 == 0 {
            plain_wall.push(wall);
        } else {
            traced_wall.push(wall);
            let spans = ctx.tracer.take();
            for (key, v) in analyse(&spans, &ctx.phase_ns, &ctx.facts) {
                per_cycle.entry(key).or_default().push(v);
            }
            let room = EXPORT_SPANS.saturating_sub(export.len());
            export.extend(spans.into_iter().take(room));
        }
        k += 1;
    }
    drop(state);
    let mut layer: BTreeMap<&'static str, f64> =
        per_cycle.into_iter().map(|(k, mut v)| (k, median(&mut v))).collect();
    let ceil = probe::ceilings();
    let get = |l: &BTreeMap<&'static str, f64>, k: &str| l.get(k).copied().unwrap_or(0.0);
    // A layer's own rate (bytes over busy or self time) against its ceiling.
    let ratio = |bytes: &str, ms: &str, ceiling: f64| match get(&layer, ms) {
        t if t > 0.0 => get(&layer, bytes) / (t / 1e3) / 1e6 / ceiling,
        _ => 0.0,
    };
    let memcpy = ceil.memcpy_mbps;
    let derived = [
        ("write.ceiling_ratio", ratio("bytes.written", "write.self_ms", memcpy)),
        ("read.ceiling_ratio", ratio("bytes.read", "read.self_ms", memcpy)),
        (
            "backend.append.ceiling_ratio",
            ratio("backend.append.bytes", "backend.append.busy_ms", memcpy),
        ),
        (
            "backend.read_at.ceiling_ratio",
            ratio("backend.read_at.bytes", "backend.read_at.busy_ms", memcpy),
        ),
        ("chunk.ceiling_ratio", ratio("chunk.ingest_bytes", "chunk.self_ms", ceil.sha256_mbps)),
        ("checksum.crc32_MBps", ceil.crc32_mbps),
        ("checksum.crc32_ceiling_ratio", ceil.crc32_mbps / memcpy),
        ("chunk.sha256_MBps", ceil.sha256_mbps),
        ("chunk.sha256_ceiling_ratio", ceil.sha256_mbps / memcpy),
        ("ceiling.memcpy_MBps", memcpy),
        ("ceiling.probe_MiB", ceil.probe_mib),
        ("pool.peak_inflight", traced.tracer.peak_inflight() as f64),
        ("trace.overhead_frac", median(&mut traced_wall) / median(&mut plain_wall) - 1.0),
    ];
    layer.extend(derived);
    let metrics =
        crate::PER_LAYER.iter().map(|&(name, unit)| m(name, unit, get(&layer, name))).collect();
    let notes = vec![
        format!("cycles: {} untraced, {} traced", plain_wall.len(), traced_wall.len()),
        format!(
            "ceiling probes over a {:.0} MiB buffer: memcpy {:.0} MB/s, crc32 {:.0} MB/s, sha256 {:.0} MB/s",
            ceil.probe_mib, ceil.memcpy_mbps, ceil.crc32_mbps, ceil.sha256_mbps
        ),
    ];
    Ok(Outcome {
        attempted: plain.attempted + traced.attempted,
        failed: plain.failed + traced.failed,
        metrics,
        notes,
        spans: export,
    })
}

/// Per-layer figures of one traced cycle: span busy and self times per
/// layer function, store traffic per method and path class, read fan-out,
/// coverage of the timed phases, plus the program's own facts.
pub fn analyse(
    spans: &[Span],
    phases: &[(u64, u64)],
    facts: &BTreeMap<&'static str, f64>,
) -> BTreeMap<&'static str, f64> {
    let selfs = self_times(spans);
    let ms = |ns: u64| ns as f64 / 1e6;
    let mut busy: HashMap<(Layer, &str), (u64, u64)> = HashMap::new();
    let mut self_ns: HashMap<Layer, u64> = HashMap::new();
    let mut store: HashMap<(Layer, Method), (u64, u64, u64)> = HashMap::new();
    let mut sidecar: HashMap<Method, (u64, u64)> = HashMap::new();
    let outer =
        if spans.iter().any(|s| s.layer == Layer::Chunk) { Layer::Chunk } else { Layer::Backend };
    let mut threads = BTreeSet::new();
    for (s, &st) in spans.iter().zip(&selfs) {
        let e = busy.entry((s.layer, s.name)).or_default();
        e.0 += 1;
        e.1 += s.end - s.begin;
        *self_ns.entry(s.layer).or_default() += st;
        if let Some(io) = s.io {
            threads.insert(s.thread);
            let e = store.entry((s.layer, io.method)).or_default();
            e.0 += 1;
            e.1 += io.bytes;
            e.2 += s.end - s.begin;
            if s.layer == outer && io.class == PathClass::Sidecar {
                let e = sidecar.entry(io.method).or_default();
                e.0 += 1;
                e.1 += io.bytes;
            }
        }
    }
    // Read fan-out: the store reads each `Reader::read_at` made directly.
    let mut kids: HashMap<u64, Vec<&Span>> = HashMap::new();
    for s in spans {
        if s.io.is_some_and(|io| io.method == Method::ReadAt) {
            kids.entry(s.parent).or_default().push(s);
        }
    }
    let (mut calls, mut reads, mut bytes, mut drops, mut multi) = (0u64, 0u64, 0u64, 0u64, 0u64);
    for s in spans.iter().filter(|s| s.layer == Layer::Read && s.name == "read_at") {
        calls += 1;
        let ks = kids.get(&s.id).map_or(&[][..], |v| v.as_slice());
        reads += ks.len() as u64;
        bytes += ks.iter().map(|k| k.io.map_or(0, |io| io.bytes)).sum::<u64>();
        let data: BTreeSet<u64> = ks
            .iter()
            .filter_map(|k| k.io.filter(|io| io.class == PathClass::Data).map(|io| io.path))
            .collect();
        drops += data.len() as u64;
        let tids: BTreeSet<u32> = ks.iter().map(|k| k.thread).collect();
        multi += (tids.len() > 1) as u64;
    }
    let per = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let b = |l: Layer, n: &str| busy.get(&(l, n)).copied().unwrap_or_default();
    let st = |l: Layer, m: Method| store.get(&(l, m)).copied().unwrap_or_default();
    let sc = |m: Method| sidecar.get(&m).copied().unwrap_or_default();
    let slf = |l: Layer| ms(self_ns.get(&l).copied().unwrap_or(0));
    let mut out: BTreeMap<&'static str, f64> = facts.clone();
    out.extend([
        ("service.write.busy_ms", ms(b(Layer::Service, "write").1)),
        ("service.sync.busy_ms", ms(b(Layer::Service, "sync").1)),
        ("write.open.busy_ms", ms(b(Layer::Write, "open").1)),
        ("write.write_at.calls", b(Layer::Write, "write_at").0 as f64),
        ("write.write_at.busy_ms", ms(b(Layer::Write, "write_at").1)),
        ("write.sync.busy_ms", ms(b(Layer::Write, "sync").1)),
        ("write.close.busy_ms", ms(b(Layer::Write, "close").1)),
        ("write.self_ms", slf(Layer::Write)),
        ("checksum.sidecar_write_bytes", sc(Method::Append).1 as f64),
        ("checksum.sidecar_reads", sc(Method::ReadAt).0 as f64),
        ("checksum.sidecar_read_bytes", sc(Method::ReadAt).1 as f64),
        ("index.open.busy_ms", ms(b(Layer::Index, "open_reader").1)),
        ("index.self_ms", slf(Layer::Index)),
        ("read.read_at.calls", calls as f64),
        ("read.read_at.busy_ms", ms(b(Layer::Read, "read_at").1)),
        ("read.self_ms", slf(Layer::Read)),
        ("read.backend_reads_per_call", per(reads, calls)),
        ("read.bytes_per_backend_read", per(bytes, reads)),
        ("read.droppings_per_call", per(drops, calls)),
        ("pool.distinct_threads", threads.len() as f64),
        ("pool.multi_thread_reads", multi as f64),
        ("chunk.append.busy_ms", ms(st(Layer::Chunk, Method::Append).2)),
        ("chunk.read_at.busy_ms", ms(st(Layer::Chunk, Method::ReadAt).2)),
        ("chunk.self_ms", slf(Layer::Chunk)),
        ("backend.append.calls", st(Layer::Backend, Method::Append).0 as f64),
        ("backend.append.bytes", st(Layer::Backend, Method::Append).1 as f64),
        ("backend.append.busy_ms", ms(st(Layer::Backend, Method::Append).2)),
        ("backend.read_at.calls", st(Layer::Backend, Method::ReadAt).0 as f64),
        ("backend.read_at.bytes", st(Layer::Backend, Method::ReadAt).1 as f64),
        ("backend.read_at.busy_ms", ms(st(Layer::Backend, Method::ReadAt).2)),
        ("backend.meta.calls", st(Layer::Backend, Method::Meta).0 as f64),
        ("backend.meta.busy_ms", ms(st(Layer::Backend, Method::Meta).2)),
        ("backend.self_ms", slf(Layer::Backend)),
        ("service.self_ms", slf(Layer::Service)),
        ("trace.spans", spans.len() as f64),
        ("trace.attributed_frac", attributed(spans, phases)),
    ]);
    out
}

/// Share of the timed phases during which at least one span was open.
fn attributed(spans: &[Span], phases: &[(u64, u64)]) -> f64 {
    let total: u64 = phases.iter().map(|(b, e)| e - b).sum();
    if total == 0 {
        return 0.0;
    }
    let mut ivs: Vec<(u64, u64)> = spans.iter().map(|s| (s.begin, s.end)).collect();
    let hit: u64 = phases.iter().map(|&(b, e)| crate::trace::covered(&mut ivs, b, e)).sum();
    hit as f64 / total as f64
}
