//! Outside-in spans: the traced run wraps every public call into a
//! `plfs` module, and every `Backend` trait call, in a span recorded
//! from the benchmark's own code. Nothing inside the program changes.
//!
//! Spans are kept in memory, analysed per cycle (self time = duration
//! minus the union of the child intervals inside it) and a capped
//! prefix is exported once at the end with [`obs::trace::to_chrome`].

use obs::trace::{Phase, SpanRecord};
use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The `plfs` module a span's time is charged to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Layer {
    Service,
    Write,
    Index,
    Read,
    Chunk,
    Backend,
}

impl Layer {
    pub fn as_str(self) -> &'static str {
        match self {
            Layer::Service => "service",
            Layer::Write => "write",
            Layer::Index => "index",
            Layer::Read => "read",
            Layer::Chunk => "chunk",
            Layer::Backend => "backend",
        }
    }
}

/// Which store file a `Backend` call touched, from its path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum PathClass {
    /// `data.R` droppings.
    Data,
    /// `index.R` droppings and `canonical.index`.
    Index,
    /// `chk.R` / `chki.R` checksum sidecars.
    Sidecar,
    /// Everything else PLFS keeps: `access`, `meta/`, `openhosts/`, `epochs/`.
    Meta,
    /// Blobs in the `ChunkBackend` dedup pool.
    Pool,
}

impl PathClass {
    pub fn of(path: &str) -> PathClass {
        if path.starts_with(plfs::chunk::DEFAULT_POOL_ROOT) {
            return PathClass::Pool;
        }
        let name = path.rsplit('/').next().unwrap_or(path);
        if name.starts_with("data.") {
            PathClass::Data
        } else if name.starts_with("index.") || name == plfs::container::CANONICAL {
            PathClass::Index
        } else if name.starts_with("chk.") || name.starts_with("chki.") {
            PathClass::Sidecar
        } else {
            PathClass::Meta
        }
    }
}

/// Store-call kind: the two data methods, and every other trait method.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Method {
    Append,
    ReadAt,
    Meta,
}

/// Present on spans recorded by the timing `Backend` wrapper.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Io {
    pub method: Method,
    pub class: PathClass,
    /// Hash of the path, to count distinct droppings per read.
    pub path: u64,
    pub bytes: u64,
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: u64,
    /// Enclosing span (0 = root).
    pub parent: u64,
    /// Id of the root span of the same operation.
    pub op: u64,
    pub layer: Layer,
    /// Function name inside the layer (`write_at`, `append`, ...).
    pub name: &'static str,
    /// Small per-thread number (threads are numbered on first use).
    pub thread: u32,
    pub begin: u64,
    pub end: u64,
    pub io: Option<Io>,
}

#[derive(Debug)]
struct Shared {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
    /// `(span, op)` of the root span on the single client thread, for
    /// calls made on helper threads (read fan-out) that inherit no
    /// thread-local parent. 0 when more than one client thread runs.
    ambient: Mutex<(u64, u64)>,
    ambient_on: AtomicBool,
    inflight: AtomicUsize,
    peak_inflight: AtomicUsize,
}

/// Handle to an in-memory span collector. The disabled handle (the
/// untraced run) runs every call bare: no clock read, no allocation.
#[derive(Debug, Clone, Default)]
pub struct Tracer {
    shared: Option<Arc<Shared>>,
}

static NEXT_THREAD: AtomicU32 = AtomicU32::new(1);

thread_local! {
    static THREAD: Cell<u32> = const { Cell::new(0) };
    static STACK: RefCell<Vec<(u64, u64)>> = const { RefCell::new(Vec::new()) };
}

fn thread_no() -> u32 {
    THREAD.with(|t| {
        if t.get() == 0 {
            t.set(NEXT_THREAD.fetch_add(1, Ordering::Relaxed));
        }
        t.get()
    })
}

/// FNV-1a, for path identity and input digests.
pub fn fnv(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| (h ^ b as u64).wrapping_mul(0x100_0000_01b3))
}

pub const FNV_SEED: u64 = 0xcbf2_9ce4_8422_2325;

impl Tracer {
    pub fn disabled() -> Tracer {
        Tracer { shared: None }
    }

    pub fn enabled() -> Tracer {
        Tracer {
            shared: Some(Arc::new(Shared {
                epoch: Instant::now(),
                next_id: AtomicU64::new(1),
                spans: Mutex::new(Vec::new()),
                ambient: Mutex::new((0, 0)),
                ambient_on: AtomicBool::new(true),
                inflight: AtomicUsize::new(0),
                peak_inflight: AtomicUsize::new(0),
            })),
        }
    }

    pub fn is_enabled(&self) -> bool {
        self.shared.is_some()
    }

    /// Nanoseconds since the collector was made (0 when disabled).
    pub fn now(&self) -> u64 {
        self.shared.as_ref().map_or(0, |s| s.epoch.elapsed().as_nanos() as u64)
    }

    /// Whether root spans lend their id to helper threads. Turn off
    /// while several client threads make calls at once.
    pub fn set_single_client(&self, on: bool) {
        if let Some(s) = &self.shared {
            s.ambient_on.store(on, Ordering::Relaxed);
        }
    }

    /// Run `f` as one call into `layer`'s public `name`.
    pub fn call<T>(&self, layer: Layer, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.record(layer, name, f, |_| None)
    }

    /// Run `f` as one store call; `io` describes it once it returns.
    /// Calls into the bottom store (layer `backend`) count towards
    /// [`Tracer::peak_inflight`].
    pub fn io<T>(
        &self,
        layer: Layer,
        name: &'static str,
        f: impl FnOnce() -> T,
        io: impl FnOnce(&T) -> Io,
    ) -> T {
        let Some(s) = &self.shared else { return f() };
        let bottom = layer == Layer::Backend;
        if bottom {
            let now = s.inflight.fetch_add(1, Ordering::Relaxed) + 1;
            s.peak_inflight.fetch_max(now, Ordering::Relaxed);
        }
        let out = self.record(layer, name, f, |r| Some(io(r)));
        if bottom {
            s.inflight.fetch_sub(1, Ordering::Relaxed);
        }
        out
    }

    fn record<T>(
        &self,
        layer: Layer,
        name: &'static str,
        f: impl FnOnce() -> T,
        io: impl FnOnce(&T) -> Option<Io>,
    ) -> T {
        let Some(s) = &self.shared else { return f() };
        let id = s.next_id.fetch_add(1, Ordering::Relaxed);
        let top = STACK.with(|st| st.borrow().last().copied());
        let (parent, op) = match top {
            Some((span, op)) => (span, op),
            None => {
                let amb = *s.ambient.lock().expect("ambient lock poisoned");
                if amb.0 != 0 {
                    amb
                } else {
                    (0, id)
                }
            }
        };
        let root = parent == 0;
        if root && s.ambient_on.load(Ordering::Relaxed) {
            *s.ambient.lock().expect("ambient lock poisoned") = (id, op);
        }
        STACK.with(|st| st.borrow_mut().push((id, op)));
        let begin = self.now();
        let out = f();
        let end = self.now();
        STACK.with(|st| st.borrow_mut().pop());
        if root {
            let mut amb = s.ambient.lock().expect("ambient lock poisoned");
            if amb.0 == id {
                *amb = (0, 0);
            }
        }
        let span =
            Span { id, parent, op, layer, name, thread: thread_no(), begin, end, io: io(&out) };
        s.spans.lock().expect("span lock poisoned").push(span);
        out
    }

    /// Take every span recorded so far.
    pub fn take(&self) -> Vec<Span> {
        self.shared.as_ref().map_or_else(Vec::new, |s| {
            std::mem::take(&mut *s.spans.lock().expect("span lock poisoned"))
        })
    }

    /// Most bottom-store calls ever in flight at once.
    pub fn peak_inflight(&self) -> usize {
        self.shared.as_ref().map_or(0, |s| s.peak_inflight.load(Ordering::Relaxed))
    }
}

/// Length of the union of `ivs`, each clipped to `[lo, hi]`.
pub fn covered(ivs: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    ivs.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for &(b, e) in ivs.iter() {
        let (b, e) = (b.max(lo), e.min(hi));
        if b >= e {
            continue;
        }
        cur = match cur {
            Some((cb, ce)) if b <= ce => Some((cb, ce.max(e))),
            Some((cb, ce)) => {
                total += ce - cb;
                Some((b, e))
            }
            None => Some((b, e)),
        };
    }
    total + cur.map_or(0, |(b, e)| e - b)
}

/// Self time of every span: its duration minus the part of it that
/// its children cover (children on other threads included).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut kids: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if s.parent != 0 {
            kids.entry(s.parent).or_default().push((s.begin, s.end));
        }
    }
    spans
        .iter()
        .map(|s| {
            let dur = s.end - s.begin;
            match kids.get_mut(&s.id) {
                Some(ivs) => dur - covered(ivs, s.begin, s.end),
                None => dur,
            }
        })
        .collect()
}

/// Chrome trace-event export of `spans` (one track per thread).
pub fn to_chrome(spans: &[Span]) -> obs::json::Value {
    let recs: Vec<SpanRecord> = spans
        .iter()
        .map(|s| {
            let mut labels = vec![("op".to_string(), s.op.to_string())];
            if let Some(io) = s.io {
                labels.push(("bytes".to_string(), io.bytes.to_string()));
                labels.push(("class".to_string(), format!("{:?}", io.class)));
            }
            SpanRecord {
                id: s.id,
                parent: s.parent,
                name: format!("{}.{}", s.layer.as_str(), s.name),
                phase: match s.layer {
                    Layer::Service => Phase::Queue,
                    Layer::Backend => Phase::Transfer,
                    _ => Phase::Compute,
                },
                track: format!("thread.{}", s.thread),
                begin: s.begin,
                end: s.end,
                labels,
            }
        })
        .collect();
    obs::trace::to_chrome(&recs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn covered_merges_overlaps_and_clips() {
        let mut ivs = vec![(5, 8), (0, 3), (2, 4), (9, 20)];
        assert_eq!(covered(&mut ivs, 1, 12), (4 - 1) + (8 - 5) + (12 - 9));
    }

    #[test]
    fn nested_calls_get_parent_op_and_self_time() {
        let t = Tracer::enabled();
        t.call(Layer::Read, "read_at", || {
            t.io(
                Layer::Backend,
                "read_at",
                || std::thread::sleep(std::time::Duration::from_millis(2)),
                |_| Io { method: Method::ReadAt, class: PathClass::Data, path: 1, bytes: 7 },
            )
        });
        let spans = t.take();
        assert_eq!(spans.len(), 2);
        let (inner, outer) = (&spans[0], &spans[1]);
        assert_eq!(inner.parent, outer.id);
        assert_eq!(inner.op, outer.id);
        assert_eq!(outer.op, outer.id);
        let st = self_times(&spans);
        assert_eq!(st[1], (outer.end - outer.begin) - (inner.end - inner.begin));
    }
}
