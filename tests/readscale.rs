//! Acceptance tests for the parallel coalescing read engine: at scale
//! it must collapse the per-extent backend reads of a strided N-1
//! restart into per-dropping sweeps, and its output must be
//! byte-identical to the serial per-piece oracle. All op comparisons
//! use logical backend-op counters (deterministic, machine-independent)
//! — wall clock appears only in the release-mode bandwidth gate.

/// The ISSUE's headline number: at 64 ranks x 10k entries/rank the
/// engine must issue at least 4x fewer logical backend reads than the
/// serial per-piece path (it actually achieves one read per dropping —
/// a 10000x reduction), while producing byte-identical output.
#[test]
fn engine_reduces_backend_ops_4x_at_64_ranks_10k_entries() {
    let cell = pdsi_bench::readscale_cell(64, 10_000);
    assert_eq!(cell.entries, 640_000);
    assert!(cell.identical, "engine output must be byte-identical to the serial oracle");
    assert!(cell.serial_ops >= cell.entries as u64, "oracle pays at least one read per extent");
    assert!(
        cell.cold_ops * 4 <= cell.serial_ops,
        "coalescing must reduce logical backend ops >= 4x: serial {} vs engine {}",
        cell.serial_ops,
        cell.cold_ops
    );
    // The strided restart collapses to one batch per dropping.
    assert_eq!(cell.batches, 64);
    assert_eq!(cell.coalesced_bytes, cell.bytes, "every batch merged multiple extents");
}

/// Scaling shape: engine ops grow with ranks (one sweep per dropping),
/// not with entries — 10x the entries per rank must not change the
/// engine's op count while the serial oracle's grows 10x.
#[test]
fn engine_ops_scale_with_droppings_not_entries() {
    let small = pdsi_bench::readscale_cell(16, 100);
    let large = pdsi_bench::readscale_cell(16, 1000);
    assert!(small.identical && large.identical);
    assert_eq!(small.cold_ops, large.cold_ops, "engine ops are per-dropping");
    assert_eq!(large.serial_ops, 10 * small.serial_ops, "serial ops are per-extent");
    assert!(large.warm_ops <= large.cold_ops);
}

/// `repro readscale` must emit the machine-readable results with the
/// schema EXPERIMENTS.md documents.
#[test]
fn readscale_json_has_documented_schema() {
    let cells = vec![pdsi_bench::readscale_cell(4, 100)];
    let v = pdsi_bench::readscale_json(&cells);
    let cells = v.get("cells").and_then(|c| c.as_arr()).expect("cells array");
    assert_eq!(cells.len(), 1);
    for c in cells {
        for key in [
            "ranks",
            "per_rank",
            "entries",
            "bytes",
            "serial_ops",
            "cold_ops",
            "warm_ops",
            "batches",
            "coalesced_bytes",
            "serial_wall_ns",
            "cold_wall_ns",
            "warm_wall_ns",
            "identical",
        ] {
            assert!(c.get(key).and_then(|x| x.as_i64()).is_some(), "cell missing {key}");
        }
        assert!(c.get("op_reduction").and_then(|x| x.as_f64()).is_some());
        assert_eq!(c.get("identical").unwrap().as_i64(), Some(1));
    }
}

/// The CI bandwidth gate: the warm engine must not be slower than the
/// serial baseline on the large cell. Wall-clock comparison, so
/// release builds only — debug-mode codegen would measure the
/// optimizer, not the engine.
#[cfg(not(debug_assertions))]
#[test]
fn warm_engine_bandwidth_beats_serial_baseline() {
    let cells = vec![pdsi_bench::readscale_cell(64, 10_000)];
    let verdict = pdsi_bench::readscale_gate(&cells);
    assert!(verdict.is_ok(), "{}", verdict.unwrap_err());
}
