//! PLFS telemetry: one handle in, one instrumentation point per op.
//!
//! [`Telemetry`] is the one observability field of [`crate::PlfsConfig`].
//! [`PlfsMetrics::new`] turns it into the bundle every handle of an
//! instance shares: one registry, one clock, and a flight recorder
//! built over both.
//!
//! Each public operation runs inside one [`OpScope`]: opening it reads
//! the clock and starts the op's span, `finish` emits the latency
//! histogram, error counter, windowed meters, flight probe, capture
//! record and span end. A scope never takes a clock stamp, so telemetry
//! cannot move index timestamps; with everything off it costs a clock
//! read, a histogram observe and a few branches.
//!
//! Series schema (all under the instance's registry):
//!
//! | series | kind | meaning |
//! |---|---|---|
//! | `plfs.write.ops` | counter | `write_at` calls |
//! | `plfs.write.bytes` | counter | logical bytes written |
//! | `plfs.write.errors` | counter | `write_at` calls that returned an error |
//! | `plfs.write.lat_ns` | histogram | `write_at` wall/logical duration |
//! | `plfs.write.data_appends` | counter | data-dropping appends issued |
//! | `plfs.write.index_appends` | counter | index-dropping appends issued |
//! | `plfs.write.index_bytes` | counter | encoded index bytes persisted |
//! | `plfs.read.ops` | counter | `read_at` calls |
//! | `plfs.read.bytes` | counter | logical bytes actually delivered (failed reads count nothing) |
//! | `plfs.read.errors` | counter | `read_at` calls that returned an error |
//! | `plfs.read.lat_ns` | histogram | `read_at` wall/logical duration |
//! | `plfs.read.batches` | counter | coalesced per-dropping read batches issued |
//! | `plfs.read.backend_ops` | counter | backend `read_at` calls the engine issued |
//! | `plfs.read.coalesced_bytes` | counter | bytes served by batches that merged ≥ 2 extents |
//! | `plfs.read.readahead_hits` | counter | batches served entirely from the readahead cache |
//! | `plfs.read.parallelism` | histogram | peak concurrent batch workers per `read_at` |
//! | `plfs.read.open_ns` | histogram | container-open (index merge) spans |
//! | `plfs.index.merge_fanin` | histogram | writers merged per open |
//! | `plfs.index.raw_entries` | counter | index entries decoded |
//! | `plfs.index.tail_entries` | counter | entries decoded from dropping tails past a cache stamp |
//! | `plfs.index.merged_extents` | counter | extents after overlap merge |
//! | `plfs.index.bytes_read` | counter | index-dropping bytes fetched |
//! | `plfs.index.merge_steps` | counter | logical merge cost (see [`crate::index::IndexMap::merge_steps`]) |
//! | `plfs.index.decode_concurrency` | histogram | peak concurrent fetch+decode workers per open |
//! | `plfs.index.canonical_hits` | counter | opens served from the flattened-index cache |
//! | `plfs.index.canonical_writes` | counter | flattened-index caches persisted |
//! | `plfs.verify.blocks` | counter | checksum blocks verified on the read path |
//! | `plfs.verify.bytes` | counter | bytes covered by read-path verification |
//! | `plfs.verify.failures` | counter | blocks whose checksum mismatched (first detection per reader) |
//! | `scrub.extents` | counter | checksum blocks walked by `fsck::scrub` |
//! | `scrub.corrupt` | counter | corrupt extents found by `fsck::scrub` |
//!
//! The retry layer adds `retry.*` (see [`crate::retry::RetryObs`]) and
//! fault injection adds `faults.*` (see
//! [`crate::faults::FaultyBackend::export_into`]).

use crate::record::OpLogRecorder;
use obs::recorder::Recorder;
use obs::timeseries::{RateMeter, WindowHistogram, WindowSpec};
use obs::trace::{ActiveSpan, Phase, TraceCtx, TraceSink};
use obs::{Clock, Counter, Histogram, Registry, Timer};
use std::io;
use std::sync::Arc;
use workloads::oplog::{OpKind, OpResult};

/// The observability handle of one PLFS instance. The default records
/// into a private registry with everything else off; `with_*` switch
/// parts on.
#[derive(Debug, Clone, Default)]
pub struct Telemetry {
    registry: Registry,
    clock: Option<Clock>,
    trace: TraceSink,
    capture: Option<Arc<OpLogRecorder>>,
    /// Flight-recorder cadence (clock units) and ring capacity.
    flight: Option<(u64, usize)>,
    meters: Option<WindowSpec>,
}

impl Telemetry {
    /// Record into `registry` (shared, e.g. experiment-wide).
    pub fn new(registry: &Registry) -> Self {
        Telemetry { registry: registry.clone(), ..Default::default() }
    }

    /// Time source override. By default each instance gets a logical
    /// clock starting at 1 (index stamps are sequence numbers; 0 means
    /// "never written"). `Clock::wall()` makes latencies real time; index
    /// ordering only needs the monotonicity both modes provide.
    pub fn with_clock(mut self, clock: Clock) -> Self {
        self.clock = Some(clock);
        self
    }

    /// Causal trace sink; spans are timed from the instance clock.
    pub fn with_trace(mut self, sink: TraceSink) -> Self {
        self.trace = sink;
        self
    }

    /// Op-log capture (see [`crate::record`]).
    pub fn with_capture(mut self, recorder: Arc<OpLogRecorder>) -> Self {
        self.capture = Some(recorder);
        self
    }

    /// A flight recorder sampling the registry every `cadence_ns` clock
    /// units into `capacity` frames; read it via [`PlfsMetrics::flight`].
    pub fn with_flight(mut self, cadence_ns: u64, capacity: usize) -> Self {
        self.flight = Some((cadence_ns, capacity));
        self
    }

    /// Windowed live meters ([`PlfsMeters`]).
    pub fn with_meters(mut self, spec: WindowSpec) -> Self {
        self.meters = Some(spec);
        self
    }
}

/// Windowed live meters ("how fast *right now*") rotating on the
/// instance clock, shared by every handle.
#[derive(Debug, Clone)]
pub struct PlfsMeters {
    /// Write ops (events) and bytes (weight) per window.
    pub write_rate: RateMeter,
    /// Read ops (events) and delivered bytes (weight) per window.
    pub read_rate: RateMeter,
    /// Windowed `write_at` latency (p50/p95/p99/p999 over the window).
    pub write_lat: WindowHistogram,
    /// Windowed `read_at` latency.
    pub read_lat: WindowHistogram,
}

/// Counter/histogram handles for one PLFS instance.
#[derive(Debug, Clone)]
pub struct PlfsMetrics {
    pub registry: Registry,
    /// The instance time source; index stamps come from it.
    pub clock: Clock,
    /// Spans read the clock without stamping it.
    pub trace: TraceCtx,
    pub write_ops: Counter,
    pub write_bytes: Counter,
    pub write_errors: Counter,
    pub read_errors: Counter,
    pub data_appends: Counter,
    pub index_appends: Counter,
    pub index_bytes_written: Counter,
    pub read_ops: Counter,
    pub read_bytes: Counter,
    pub read_batches: Counter,
    pub read_backend_ops: Counter,
    pub read_coalesced_bytes: Counter,
    pub read_readahead_hits: Counter,
    pub index_bytes_read: Counter,
    pub raw_entries: Counter,
    pub tail_entries: Counter,
    pub merged_extents: Counter,
    pub merge_steps: Counter,
    pub canonical_hits: Counter,
    pub canonical_writes: Counter,
    pub verify_blocks: Counter,
    pub verify_bytes: Counter,
    pub verify_failures: Counter,
    pub scrub_extents: Counter,
    pub scrub_corrupt: Counter,
    pub merge_fanin: Histogram,
    pub decode_concurrency: Histogram,
    pub read_parallelism: Histogram,
    pub write_lat: Histogram,
    pub read_lat: Histogram,
    pub open_timer: Timer,
    /// Flight recorder over this bundle's registry and clock.
    pub flight: Recorder,
    pub meters: Option<Arc<PlfsMeters>>,
    capture: Option<Arc<OpLogRecorder>>,
}

impl PlfsMetrics {
    /// The bundle `telemetry` describes.
    pub fn new(telemetry: &Telemetry) -> Arc<Self> {
        let Telemetry { registry, clock, trace, capture, flight, meters } = telemetry;
        let clock = clock.clone().unwrap_or_else(|| Clock::logical_at(1));
        Arc::new(PlfsMetrics {
            registry: registry.clone(),
            clock: clock.clone(),
            trace: TraceCtx::new(trace.clone(), clock.clone()),
            write_ops: registry.counter("plfs.write.ops"),
            write_bytes: registry.counter("plfs.write.bytes"),
            write_errors: registry.counter("plfs.write.errors"),
            read_errors: registry.counter("plfs.read.errors"),
            data_appends: registry.counter("plfs.write.data_appends"),
            index_appends: registry.counter("plfs.write.index_appends"),
            index_bytes_written: registry.counter("plfs.write.index_bytes"),
            read_ops: registry.counter("plfs.read.ops"),
            read_bytes: registry.counter("plfs.read.bytes"),
            read_batches: registry.counter("plfs.read.batches"),
            read_backend_ops: registry.counter("plfs.read.backend_ops"),
            read_coalesced_bytes: registry.counter("plfs.read.coalesced_bytes"),
            read_readahead_hits: registry.counter("plfs.read.readahead_hits"),
            index_bytes_read: registry.counter("plfs.index.bytes_read"),
            raw_entries: registry.counter("plfs.index.raw_entries"),
            tail_entries: registry.counter("plfs.index.tail_entries"),
            merged_extents: registry.counter("plfs.index.merged_extents"),
            merge_steps: registry.counter("plfs.index.merge_steps"),
            canonical_hits: registry.counter("plfs.index.canonical_hits"),
            canonical_writes: registry.counter("plfs.index.canonical_writes"),
            verify_blocks: registry.counter("plfs.verify.blocks"),
            verify_bytes: registry.counter("plfs.verify.bytes"),
            verify_failures: registry.counter("plfs.verify.failures"),
            scrub_extents: registry.counter("scrub.extents"),
            scrub_corrupt: registry.counter("scrub.corrupt"),
            merge_fanin: registry.histogram("plfs.index.merge_fanin"),
            decode_concurrency: registry.histogram("plfs.index.decode_concurrency"),
            read_parallelism: registry.histogram("plfs.read.parallelism"),
            write_lat: registry.histogram("plfs.write.lat_ns"),
            read_lat: registry.histogram("plfs.read.lat_ns"),
            open_timer: registry.timer("plfs.read.open_ns", &clock),
            flight: match flight {
                Some((cadence, capacity)) => Recorder::new(registry, &clock, *cadence, *capacity),
                None => Recorder::disabled(),
            },
            meters: meters.map(|spec| {
                Arc::new(PlfsMeters {
                    write_rate: RateMeter::new(&clock, spec),
                    read_rate: RateMeter::new(&clock, spec),
                    write_lat: WindowHistogram::new(&clock, spec),
                    read_lat: WindowHistogram::new(&clock, spec),
                })
            }),
            capture: capture.clone(),
        })
    }

    /// A standalone bundle with its own private registry and a logical
    /// clock starting at 0 — for tests and components used outside a
    /// [`crate::Plfs`] instance.
    pub fn detached() -> Arc<Self> {
        PlfsMetrics::new(&Telemetry::default().with_clock(Clock::logical()))
    }

    /// Open the scope of one `kind` operation by `rank` (`None`: the op
    /// stays out of the capture log, as internal readers' ops do).
    pub(crate) fn op(&self, kind: OpKind, rank: Option<u32>, probe: Probe) -> OpScope {
        let timed = probe != Probe::CaptureOnly && matches!(kind, OpKind::Write | OpKind::Read);
        let span = match kind {
            OpKind::Write => Some(("plfs.write_at", Phase::Compute)),
            OpKind::Sync => Some(("plfs.sync", Phase::Compute)),
            OpKind::Read => Some(("plfs.read", Phase::Transfer)),
            _ => None,
        }
        .filter(|_| probe == Probe::Full && self.trace.enabled());
        OpScope {
            kind,
            rank,
            t0: timed.then(|| self.clock.now_nanos()),
            span: span.map(|(name, phase)| {
                let track = match kind {
                    OpKind::Read => "plfs.read".to_string(),
                    _ => self.rank_track(rank.unwrap_or(0)),
                };
                self.trace.start(name, phase, &track, 0)
            }),
        }
    }

    /// The trace track of writer `rank` (empty while tracing is off).
    pub(crate) fn rank_track(&self, rank: u32) -> String {
        if self.trace.enabled() {
            format!("rank.{rank}")
        } else {
            String::new()
        }
    }
}

/// How much of its kind's telemetry an [`OpScope`] emits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Probe {
    Full,
    /// No span: the op touched no data (empty write, read at EOF).
    NoSpan,
    /// Capture only: the serial read oracle stays off the engine's
    /// latency, error and meter series.
    CaptureOnly,
}

/// A finished op's capture columns (`file`, `offset`, requested `len`)
/// and the bytes it `moved` (the rate meters' weight).
#[derive(Debug, Clone, Copy)]
pub(crate) struct OpArgs<'a> {
    pub file: &'a str,
    pub offset: u64,
    pub len: u64,
    pub moved: u64,
}

impl<'a> OpArgs<'a> {
    pub fn meta(file: &'a str) -> Self {
        OpArgs { file, offset: 0, len: 0, moved: 0 }
    }
}

/// One in-flight PLFS operation. It borrows nothing, so the op body may
/// take `&mut self`; `finish` takes the bundle back.
#[must_use = "an operation's telemetry is emitted by `finish`"]
pub(crate) struct OpScope {
    kind: OpKind,
    rank: Option<u32>,
    /// Start on the instance clock; `None` for untimed ops.
    t0: Option<u64>,
    span: Option<ActiveSpan>,
}

impl OpScope {
    /// The op's span id, the parent of its child spans (0 when none).
    pub(crate) fn span_id(&self) -> u64 {
        self.span.as_ref().map_or(0, ActiveSpan::id)
    }

    /// Emit everything the op reports. `ok` renders a success for the
    /// capture log and runs only while capture is on.
    pub(crate) fn finish<T>(
        self,
        m: &PlfsMetrics,
        res: &io::Result<T>,
        args: OpArgs<'_>,
        ok: impl FnOnce(&T) -> OpResult,
    ) {
        drop(self.span);
        if let Some(t0) = self.t0 {
            let dt = m.clock.now_nanos().saturating_sub(t0);
            let write = self.kind == OpKind::Write;
            let (lat, errors) =
                if write { (&m.write_lat, &m.write_errors) } else { (&m.read_lat, &m.read_errors) };
            lat.observe(dt);
            if res.is_err() {
                errors.inc();
            }
            match &m.meters {
                Some(w) if write => {
                    w.write_rate.mark(args.moved);
                    w.write_lat.observe(dt);
                }
                // A failed read delivered nothing to meter.
                Some(w) if res.is_ok() => {
                    w.read_rate.mark(args.moved);
                    w.read_lat.observe(dt);
                }
                _ => {}
            }
            m.flight.maybe_sample();
        }
        if let (Some(rec), Some(rank)) = (&m.capture, self.rank) {
            let result = match res {
                Ok(v) => ok(v),
                Err(e) => OpResult::Err(format!("{:?}", e.kind())),
            };
            rec.record(args.file, rank, self.kind, args.offset, args.len, result);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_record_into_shared_registry() {
        let reg = Registry::new();
        let clock = Clock::logical_at(5);
        let m = PlfsMetrics::new(&Telemetry::new(&reg).with_clock(clock.clone()));
        m.write_ops.inc();
        m.write_bytes.add(100);
        m.merge_fanin.observe(8);
        assert_eq!(reg.value("plfs.write.ops"), Some(1));
        assert_eq!(reg.value("plfs.write.bytes"), Some(100));
        assert_eq!(reg.histogram("plfs.index.merge_fanin").count(), 1);
        assert_eq!(m.clock.stamp(), 5, "clock is the one passed in");
    }

    #[test]
    fn detached_bundles_are_independent() {
        let a = PlfsMetrics::detached();
        let b = PlfsMetrics::detached();
        a.write_ops.inc();
        assert_eq!(a.registry.value("plfs.write.ops"), Some(1));
        assert_eq!(b.registry.value("plfs.write.ops"), Some(0));
    }
}
