//! Telemetry contract tests: the exact metric schema one small workload
//! emits, and the capture log's coverage of failed operations.

use obs::trace::TraceCtx;
use pdsi::plfs::backend::{Backend, MemBackend};
use pdsi::plfs::{
    ChunkBackend, ChunkParams, ContainerPaths, IngestService, OpLogRecorder, Plfs, PlfsConfig,
    QuarantinePolicy, ServiceConfig, Telemetry,
};
use std::sync::Arc;
use workloads::oplog::{OpKind, OpResult};

/// Every series name (with its labels) one workload registers, sorted.
/// Pinned so a refactor of the instrumentation plumbing cannot rename,
/// drop or add a series unnoticed.
const SCHEMA: &[&str] = &[
    "chunk.blobs_written",
    "chunk.compressed_bytes",
    "chunk.dedup_bytes",
    "chunk.dedup_hits",
    "chunk.gc_swept",
    "chunk.ingest_bytes",
    "plfs.index.bytes_read",
    "plfs.index.canonical_hits",
    "plfs.index.canonical_writes",
    "plfs.index.decode_concurrency",
    "plfs.index.merge_fanin",
    "plfs.index.merge_steps",
    "plfs.index.merged_extents",
    "plfs.index.raw_entries",
    "plfs.index.tail_entries",
    "plfs.read.backend_ops",
    "plfs.read.batches",
    "plfs.read.bytes",
    "plfs.read.coalesced_bytes",
    "plfs.read.errors",
    "plfs.read.lat_ns",
    "plfs.read.open_ns",
    "plfs.read.ops",
    "plfs.read.parallelism",
    "plfs.read.readahead_hits",
    "plfs.verify.blocks",
    "plfs.verify.bytes",
    "plfs.verify.failures",
    "plfs.write.bytes",
    "plfs.write.data_appends",
    "plfs.write.errors",
    "plfs.write.index_appends",
    "plfs.write.index_bytes",
    "plfs.write.lat_ns",
    "plfs.write.ops",
    "retry.attempts",
    "retry.backoff_ns",
    "retry.masked_transient",
    "retry.surfaced",
    "retry.torn_recovered",
    "scrub.corrupt",
    "scrub.extents",
    "svc.commit.fanin",
    "svc.commits{shard=0}",
    "svc.commits{shard=1}",
    "svc.committed_ops{shard=0}",
    "svc.committed_ops{shard=1}",
    "svc.enqueued_bytes",
    "svc.enqueued_ops",
    "svc.queue.depth_bytes{shard=0}",
    "svc.queue.depth_bytes{shard=1}",
    "svc.queue.depth{shard=0}",
    "svc.queue.depth{shard=1}",
    "svc.queue.stall_ns",
    "svc.queue.stalls{shard=0}",
    "svc.queue.stalls{shard=1}",
    "svc.sync.barriers",
];

#[test]
fn one_workload_emits_the_pinned_series_schema() {
    let fs = Plfs::new(
        Arc::new(MemBackend::new()) as Arc<dyn Backend>,
        PlfsConfig { hostdirs: 2, ..Default::default() },
    );
    let reg = fs.metrics().registry.clone();

    // Write, sync, close; stat on the close-time fast path.
    let mut w = fs.open_writer("/ckpt", 0).unwrap();
    w.write_at(0, &[1u8; 6000]).unwrap();
    w.sync().unwrap();
    w.write_at(6000, &[2u8; 100]).unwrap();
    w.close().unwrap();
    assert_eq!(fs.stat("/ckpt").unwrap().size, 6100);

    // Both read engines.
    let r = fs.open_reader("/ckpt").unwrap();
    let mut buf = vec![0u8; 6100];
    assert_eq!(r.read_at(0, &mut buf).unwrap(), 6100);
    assert_eq!(r.read_at_serial(0, &mut buf).unwrap(), 6100);
    drop(r);

    // The ingest service on the same instance.
    let svc = IngestService::start(&fs, "/svc", ServiceConfig { shards: 2, ..Default::default() })
        .unwrap();
    for c in 0..8u32 {
        svc.write(c, c as u64 * 64, &[3u8; 64]).unwrap();
    }
    svc.sync().unwrap();
    svc.close().unwrap();

    // The chunk layer, observed into the same registry.
    let chunked = Arc::new(ChunkBackend::observed(
        Arc::new(MemBackend::new()),
        ChunkParams::default(),
        &reg,
        TraceCtx::disabled(),
    ));
    let cfs = Plfs::new(chunked as Arc<dyn Backend>, PlfsConfig::default());
    let mut cw = cfs.open_writer("/dedup", 0).unwrap();
    cw.write_at(0, &[4u8; 32 * 1024]).unwrap();
    cw.close().unwrap();
    assert_eq!(cfs.open_reader("/dedup").unwrap().read_all().unwrap().len(), 32 * 1024);

    let mut names: Vec<String> = reg
        .snapshot()
        .iter()
        .map(|s| {
            if s.labels.is_empty() {
                s.name.clone()
            } else {
                let labels: Vec<String> =
                    s.labels.iter().map(|(k, v)| format!("{k}={v}")).collect();
                format!("{}{{{}}}", s.name, labels.join(","))
            }
        })
        .collect();
    names.sort();
    names.dedup();
    assert_eq!(names, SCHEMA, "registry series schema changed");
}

/// A read that fails is captured like a failed write: one `read` record
/// with an `err:<kind>` result, where the replay harness emits the same.
#[test]
fn failed_read_is_captured_with_its_error() {
    let store = Arc::new(MemBackend::new());
    let recorder = Arc::new(OpLogRecorder::new());
    let fs = Plfs::new(
        store.clone() as Arc<dyn Backend>,
        PlfsConfig {
            hostdirs: 2,
            telemetry: Telemetry::default().with_capture(recorder.clone()),
            ..Default::default()
        },
    );
    let mut w = fs.open_writer("/ckpt", 0).unwrap();
    w.write_at(0, &[7u8; 6000]).unwrap();
    w.close().unwrap();

    // Flip one bit in the second checksum block of the data dropping.
    let data = ContainerPaths::new("/ckpt", 2).data_dropping(0);
    let mut blob = store.read_all(&data).unwrap();
    blob[4500] ^= 0x08;
    store.remove(&data).unwrap();
    store.create(&data).unwrap();
    store.append(&data, &blob).unwrap();

    let mut r = fs.open_reader_as("/ckpt", 0).unwrap();
    r.set_quarantine(QuarantinePolicy::FailStop);
    let mut buf = vec![0u8; 6000];
    assert!(r.read_at(0, &mut buf).is_err(), "bit flip must fail the read");
    drop(r);

    let log = recorder.snapshot();
    let reads: Vec<_> = log.ops.iter().filter(|o| o.op == OpKind::Read).collect();
    assert_eq!(reads.len(), 1, "the failed read is captured once");
    assert_eq!((reads[0].offset, reads[0].len), (0, 6000));
    assert!(
        matches!(&reads[0].result, OpResult::Err(kind) if !kind.is_empty()),
        "failed read captured as err:<kind>, got {:?}",
        reads[0].result
    );
    let text = log.to_text();
    let fields = |l: &str| l.split('\t').map(str::to_string).collect::<Vec<_>>();
    assert!(
        text.lines()
            .map(fields)
            .any(|f| f.len() == 6 && f[2] == "read" && f[5].starts_with("err:")),
        "no `read ... err:` line in the capture:\n{text}"
    );
}
