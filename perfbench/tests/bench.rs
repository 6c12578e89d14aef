//! Tests of the benchmark itself: seeded inputs are deterministic, and
//! the traced stack (timing wrappers + spans) is transparent.

use perfbench::ctx::Ctx;
use perfbench::trace::{Tracer, FNV_SEED};
use perfbench::workloads::{Params, State, NAMES};

fn digests(name: &str, seed: u64) -> (u64, u64) {
    let mut ctx = Ctx::new(Tracer::disabled());
    State::setup(name, &Params::small(), seed, &mut ctx).expect("set-up").digests()
}

#[test]
fn same_seed_same_inputs_other_seed_other_inputs() {
    for name in NAMES {
        let (ops, payload) = digests(name, 11);
        assert_eq!((ops, payload), digests(name, 11), "{name}: seed 11 is not reproducible");
        let (ops2, payload2) = digests(name, 12);
        assert_ne!(ops, ops2, "{name}: seeds 11 and 12 produce the same op stream");
        assert_ne!(payload, payload2, "{name}: seeds 11 and 12 send the same payload");
    }
}

/// Set up and run two cycles; returns (delivered digest, stored per user byte).
fn run(name: &str, tracer: Tracer) -> (u64, Vec<f64>) {
    let mut ctx = Ctx::new(tracer);
    ctx.delivered = Some(FNV_SEED);
    let mut st = State::setup(name, &Params::small(), 5, &mut ctx).expect("set-up");
    for k in 0..2 {
        st.cycle(&mut ctx, k);
    }
    assert_eq!(ctx.failed, 0, "{name}: {} failed ops", ctx.failed);
    assert!(ctx.attempted > 0);
    (ctx.delivered.expect("digest"), ctx.s.stored_per_user_byte)
}

#[test]
fn tracing_wrapper_is_transparent() {
    for name in NAMES {
        let traced = Tracer::enabled();
        let (plain_bytes, plain_stored) = run(name, Tracer::disabled());
        let (traced_bytes, traced_stored) = run(name, traced.clone());
        assert!(!traced.take().is_empty(), "{name}: traced run recorded no spans");
        assert_eq!(plain_bytes, traced_bytes, "{name}: delivered bytes differ under the wrapper");
        assert_eq!(plain_stored, traced_stored, "{name}: stored bytes differ under the wrapper");
    }
}

#[test]
fn traced_cycle_reports_every_layer_it_loads() {
    let cases = [
        (
            "ckpt-n1-strided",
            &["write.write_at.calls", "backend.append.calls", "index.raw_entries"][..],
        ),
        ("restart-small-reads", &["index.from_canonical"][..]),
        (
            "ingest-swarm",
            &["service.write.busy_ms", "service.group_commits", "backend.append.calls"][..],
        ),
        (
            "dedup-repeat-ckpt",
            &["chunk.append.busy_ms", "chunk.dedup_hits", "chunk.pool_bytes"][..],
        ),
    ];
    for (name, keys) in cases {
        let mut ctx = Ctx::new(Tracer::enabled());
        let mut st = State::setup(name, &Params::small(), 3, &mut ctx).expect("set-up");
        ctx.tracer.take();
        ctx.phase_ns.clear();
        ctx.facts.clear();
        st.cycle(&mut ctx, 0);
        let layer = perfbench::run::analyse(&ctx.tracer.take(), &ctx.phase_ns, &ctx.facts);
        for key in keys.iter().chain(&[
            "read.read_at.calls",
            "backend.read_at.calls",
            "trace.attributed_frac",
        ]) {
            assert!(layer.get(key).copied().unwrap_or(0.0) > 0.0, "{name}: {key} is 0");
        }
        let attributed = layer["trace.attributed_frac"];
        assert!(attributed <= 1.0, "{name}: attributed {attributed}");
    }
}
