//! Op-log capture: the recording half of workload capture & replay.
//!
//! An [`OpLogRecorder`] is attached to a [`crate::Plfs`] instance via
//! [`crate::Telemetry::with_capture`]; every writer, reader, and metadata
//! operation the instance performs is appended as one
//! [`workloads::oplog::OpRecord`]. The recorder captures one logical
//! file per log (the op-log format is per-file); operations on other
//! logical paths are silently skipped, so an instance juggling many
//! files records a clean single-file log.
//!
//! What the result column captures is what makes the log replayable
//! byte-for-byte rather than merely op-for-op:
//!
//! - every write records the index timestamp it was stamped with, so a
//!   replay (via [`crate::Writer::write_at_stamped`]) resolves
//!   cross-rank overlaps exactly as the capture did, in any replay
//!   mode at any parallelism;
//! - every read records the delivered byte count plus a CRC32 of the
//!   delivered bytes, giving replays a per-op oracle and the log a
//!   delivered-bytes digest ([`workloads::oplog::OpLog::delivered_hash`]).
//!
//! Timestamps are nanoseconds since the recorder was created, taken
//! under the recorder lock at completion time — so the captured log is
//! timestamp-ordered by construction and always parses back.
//!
//! A failed operation of any kind, reads included, records an
//! `err:<kind>` result; the error still surfaces to the caller.

use std::sync::Mutex;
use std::time::Instant;
use workloads::oplog::{OpKind, OpLog, OpRecord, OpResult, Shape};

#[derive(Debug)]
struct RecorderInner {
    /// Logical path this log captures. `None` until the first op lands
    /// (unless pinned at construction). For N-N captures this is the
    /// *base* path; rank `r` operates on `<base>.<r>`.
    file: Option<String>,
    ops: Vec<OpRecord>,
    /// Monotonicity clamp: wall clocks can be coarse, and two ops
    /// completing within one tick must not go backwards in the log.
    last_t: u64,
}

/// Thread-safe op-log capture for one logical file.
#[derive(Debug)]
pub struct OpLogRecorder {
    start: Instant,
    shape: Shape,
    inner: Mutex<RecorderInner>,
}

impl Default for OpLogRecorder {
    fn default() -> Self {
        Self::new()
    }
}

impl OpLogRecorder {
    /// Record the first logical file touched (everything else skipped).
    pub fn new() -> Self {
        OpLogRecorder {
            start: Instant::now(),
            shape: Shape::N1,
            inner: Mutex::new(RecorderInner { file: None, ops: Vec::new(), last_t: 0 }),
        }
    }

    /// Record only operations on `logical`.
    pub fn for_file(logical: &str) -> Self {
        OpLogRecorder {
            start: Instant::now(),
            shape: Shape::N1,
            inner: Mutex::new(RecorderInner {
                file: Some(logical.to_string()),
                ops: Vec::new(),
                last_t: 0,
            }),
        }
    }

    /// N-N capture pinned to a base path: rank `r`'s operations on
    /// `<base>.<r>` are recorded; everything else is skipped. The
    /// snapshot carries [`Shape::NN`], so a replay reconstructs the
    /// same per-rank file family.
    pub fn for_file_nn(base: &str) -> Self {
        OpLogRecorder {
            start: Instant::now(),
            shape: Shape::NN,
            inner: Mutex::new(RecorderInner {
                file: Some(base.to_string()),
                ops: Vec::new(),
                last_t: 0,
            }),
        }
    }

    /// Append one op. Ops on a logical path outside the log's file
    /// (N-1: the file itself; N-N: `<base>.<rank>`) are skipped.
    pub fn record(
        &self,
        logical: &str,
        rank: u32,
        op: OpKind,
        offset: u64,
        len: u64,
        result: OpResult,
    ) {
        let t = self.start.elapsed().as_nanos() as u64;
        let mut inner = self.inner.lock().unwrap();
        match (&inner.file, self.shape) {
            (None, _) => inner.file = Some(logical.to_string()),
            (Some(f), Shape::N1) if f != logical => return,
            (Some(base), Shape::NN) => {
                let matches_rank = logical
                    .strip_prefix(base.as_str())
                    .and_then(|rest| rest.strip_prefix('.'))
                    .and_then(|r| r.parse::<u32>().ok())
                    == Some(rank);
                if !matches_rank {
                    return;
                }
            }
            (Some(_), _) => {}
        }
        let t_ns = t.max(inner.last_t);
        inner.last_t = t_ns;
        inner.ops.push(OpRecord { t_ns, rank, op, offset, len, result });
    }

    /// Ops captured so far.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().ops.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A copy of the captured log (capture may continue afterwards).
    pub fn snapshot(&self) -> OpLog {
        let inner = self.inner.lock().unwrap();
        let ops = inner.ops.clone();
        let ranks = ops.iter().map(|o| o.rank + 1).max().unwrap_or(0);
        OpLog { file: inner.file.clone().unwrap_or_default(), ranks, shape: self.shape, ops }
    }

    /// Drain the captured log, resetting the recorder for the next
    /// capture (the time origin is kept, so a multi-capture session
    /// stays monotone).
    pub fn take(&self) -> OpLog {
        let mut inner = self.inner.lock().unwrap();
        let ops = std::mem::take(&mut inner.ops);
        let file = inner.file.take().unwrap_or_default();
        let ranks = ops.iter().map(|o| o.rank + 1).max().unwrap_or(0);
        OpLog { file, ranks, shape: self.shape, ops }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_are_timestamp_ordered_and_parseable() {
        let rec = OpLogRecorder::new();
        rec.record("/f", 0, OpKind::OpenWriter, 0, 0, OpResult::Ok);
        rec.record("/f", 0, OpKind::Write, 0, 100, OpResult::Write { stamp: 9 });
        rec.record("/f", 1, OpKind::Write, 100, 50, OpResult::Write { stamp: 10 });
        let log = rec.snapshot();
        assert_eq!(log.file, "/f");
        assert_eq!(log.ranks, 2);
        assert_eq!(log.ops.len(), 3);
        assert!(log.ops.windows(2).all(|w| w[0].t_ns <= w[1].t_ns));
        let reparsed = OpLog::parse(&log.to_text()).unwrap();
        assert_eq!(reparsed, log);
    }

    #[test]
    fn other_files_are_skipped() {
        let rec = OpLogRecorder::new();
        rec.record("/a", 0, OpKind::Create, 0, 0, OpResult::Ok);
        rec.record("/b", 0, OpKind::Create, 0, 0, OpResult::Ok);
        rec.record("/a", 0, OpKind::Stat, 0, 0, OpResult::Ok);
        assert_eq!(rec.len(), 2);
        assert_eq!(rec.snapshot().file, "/a");
    }

    #[test]
    fn pinned_file_skips_everything_else() {
        let rec = OpLogRecorder::for_file("/target");
        rec.record("/other", 0, OpKind::Create, 0, 0, OpResult::Ok);
        assert!(rec.is_empty());
        rec.record("/target", 0, OpKind::Create, 0, 0, OpResult::Ok);
        assert_eq!(rec.len(), 1);
    }

    #[test]
    fn nn_capture_accepts_only_the_rank_file_family() {
        let rec = OpLogRecorder::for_file_nn("/ckpt");
        rec.record("/ckpt.0", 0, OpKind::OpenWriter, 0, 0, OpResult::Ok);
        rec.record("/ckpt.1", 1, OpKind::OpenWriter, 0, 0, OpResult::Ok);
        rec.record("/ckpt.1", 0, OpKind::Write, 0, 10, OpResult::Ok); // wrong rank for file
        rec.record("/ckpt", 0, OpKind::Stat, 0, 0, OpResult::Ok); // base itself: not a member
        rec.record("/other.0", 0, OpKind::Create, 0, 0, OpResult::Ok);
        assert_eq!(rec.len(), 2);
        let log = rec.snapshot();
        assert_eq!(log.shape, Shape::NN);
        assert_eq!(log.file, "/ckpt");
        assert_eq!(log.ranks, 2);
    }

    #[test]
    fn take_drains_and_resets() {
        let rec = OpLogRecorder::new();
        rec.record("/f", 0, OpKind::Create, 0, 0, OpResult::Ok);
        let log = rec.take();
        assert_eq!(log.ops.len(), 1);
        assert!(rec.is_empty());
        rec.record("/g", 0, OpKind::Create, 0, 0, OpResult::Ok);
        assert_eq!(rec.snapshot().file, "/g");
    }
}
