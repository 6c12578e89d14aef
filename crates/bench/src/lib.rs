//! # pdsi-bench — experiment harness regenerating every figure and
//! table in the PDSI final report.
//!
//! Each `figNN_report()` function runs the corresponding experiment on
//! the simulators and returns the paper-style table as a string;
//! [`EXPERIMENTS`] pairs every experiment id with the function that
//! runs it, and the `repro` binary is a thin CLI over that table.
//! Absolute numbers come from the simulated substrate (see
//! `DESIGN.md`), so the *shapes* — who wins, by what factor, where
//! crossovers fall — are the reproduction targets, recorded against
//! the paper in `EXPERIMENTS.md`.

pub mod dedup_experiments;
pub mod experiments;
pub mod ingest_experiments;
pub mod monitor_experiments;
pub mod replay_experiments;
pub mod trace_experiments;

pub use dedup_experiments::{
    dedup_gate, dedup_json, dedup_report, dedup_results, DedupDiffCell, DedupIterCell, DedupSummary,
};
pub use experiments::*;
pub use ingest_experiments::{
    ingest_cell, ingest_gate, ingest_json, ingest_report, ingest_results, ingest_swarm, IngestCell,
    PacedBackend,
};
pub use monitor_experiments::{
    monitor_gate, monitor_json, monitor_report, monitorscale_results, run_monitor,
    FlakyMonitorCell, MonitorRun, MonitorSummary, SimMonitorCell, MONITOR_SCENARIOS,
};
pub use replay_experiments::{
    backend_from_spec, drive_log, replay_gate, replay_json, replay_report, replay_results,
    DiffCell, ReplayModeCell, ReplaySummary,
};
pub use trace_experiments::{run_trace, TraceRun, TRACE_EXPERIMENTS};

use obs::json::Value;
use obs::Registry;

/// What one experiment run hands back to the harness. A suite with a
/// payload or a gate computes its results once and builds all three
/// from them.
pub struct Outcome {
    /// The paper-style table `repro` prints.
    pub report: String,
    /// The machine-readable results `repro` writes to `BENCH_<id>.json`.
    pub bench: Option<Value>,
    /// The acceptance gate's verdict: `Ok` carries the summary line,
    /// `Err` the violated bound.
    pub gate: Option<Result<String, String>>,
}

impl From<String> for Outcome {
    fn from(report: String) -> Self {
        Outcome { report, bench: None, gate: None }
    }
}

/// One experiment the harness knows.
pub struct Experiment {
    pub id: &'static str,
    /// One-line description `repro` lists.
    pub desc: &'static str,
    run: fn(&Registry) -> Outcome,
}

impl Experiment {
    /// Run the experiment, absorbing every metric series it records
    /// into `reg` under an `exp=<id>` label. Each experiment emits at
    /// least 20 distinct series (asserted by `tests/metrics.rs`), plus
    /// the harness-level `bench.runs` / `bench.report_bytes` /
    /// `bench.report_lines`.
    pub fn run_observed(&self, reg: &Registry) -> Outcome {
        let local = Registry::new();
        let outcome = (self.run)(&local);
        local.counter("bench.runs").inc();
        local.gauge("bench.report_bytes").set(outcome.report.len() as i64);
        local.gauge("bench.report_lines").set(outcome.report.lines().count() as i64);
        reg.absorb(&local.snapshot(), &[("exp", self.id)]);
        outcome
    }
}

/// Look an experiment up by id.
pub fn experiment(id: &str) -> Option<&'static Experiment> {
    EXPERIMENTS.iter().find(|e| e.id == id)
}

/// Every experiment id the harness knows, in the order `repro all`
/// runs them.
pub const EXPERIMENTS: &[Experiment] = &[
    Experiment {
        id: "fig2",
        desc: "S3D checkpoint time under weak scaling + 12-hour-run prediction",
        run: |reg| fig2_s3d_report(reg).into(),
    },
    Experiment {
        id: "fig3",
        desc: "CDF of file sizes across eleven surveyed file systems (fsstats)",
        run: |reg| fig3_fsstats_report(reg).into(),
    },
    Experiment {
        id: "fig4",
        desc: "interrupts linear in chips; MTTI projection to exascale",
        run: |reg| fig4_mtti_report(reg).into(),
    },
    Experiment {
        id: "fig5",
        desc: "effective application utilization; 50% crossing; disk growth",
        run: |reg| fig5_utilization_report(reg).into(),
    },
    Experiment {
        id: "fig7",
        desc: "GIGA+ create throughput vs servers (Metarates)",
        run: |reg| fig7_giga_report(reg).into(),
    },
    Experiment {
        id: "fig8",
        desc: "PLFS vs direct N-1 checkpoint bandwidth on three file systems",
        run: |reg| fig8_plfs_report(reg).into(),
    },
    Experiment {
        id: "fig9",
        desc: "TCP incast goodput collapse and RTO fixes (1GE and 10GE)",
        run: |reg| fig9_incast_report(reg).into(),
    },
    Experiment {
        id: "fig10",
        desc: "Argon performance insulation: shares under three policies",
        run: |reg| fig10_argon_report(reg).into(),
    },
    Experiment {
        id: "fig11",
        desc: "flash vs disk: bandwidth and random IOPS",
        run: |reg| fig11_flash_report(reg).into(),
    },
    Experiment {
        id: "tab1",
        desc: "Table 1 flash device characteristics (modeled vs published)",
        run: |reg| tab1_flash_table(reg).into(),
    },
    Experiment {
        id: "fig13",
        desc: "stacked formatted-I/O optimization gains (Chombo & GCRM)",
        run: |reg| fig13_hdf5_report(reg).into(),
    },
    Experiment {
        id: "fig14",
        desc: "sustained random-write IOPS degradation per flash device",
        run: |reg| fig14_degradation_report(reg).into(),
    },
    Experiment {
        id: "fig15",
        desc: "Ninjat visualization of an N-1 strided checkpoint",
        run: |reg| fig15_ninjat_report(reg).into(),
    },
    Experiment {
        id: "speedups",
        desc: "per-application PLFS speedup table (report headline claims)",
        run: |reg| speedup_table_report(reg).into(),
    },
    Experiment {
        id: "faults",
        desc: "degraded-mode bandwidth under OSD crash/restart; PLFS retry masking",
        run: |reg| faults_report(reg).into(),
    },
    Experiment {
        id: "pnfs",
        desc: "pNFS vs plain NFS aggregate bandwidth scaling",
        run: |reg| pnfs_report(reg).into(),
    },
    Experiment {
        id: "spyglass",
        desc: "partitioned metadata search vs full scan",
        run: |reg| spyglass_report(reg).into(),
    },
    Experiment {
        id: "openscale",
        desc: "read-open index merge scaling: sweep vs splice; flattened-index cache",
        run: |reg| {
            let (cells, e2e) = (openscale_results(), openscale_e2e());
            Outcome {
                report: openscale_report(reg, &cells, &e2e),
                bench: Some(openscale_json(&cells, &e2e)),
                gate: None,
            }
        },
    },
    Experiment {
        id: "readscale",
        desc: "restart read-back: parallel coalesced engine vs serial per-piece reads",
        run: |reg| {
            let cells = readscale_results();
            Outcome {
                report: readscale_report(reg, &cells),
                bench: Some(readscale_json(&cells)),
                gate: Some(readscale_gate(&cells)),
            }
        },
    },
    Experiment {
        id: "integrity",
        desc: "end-to-end corruption detection: verify-on-read, bit-flip sweep, scrub",
        run: |reg| {
            let s = integrity_results();
            Outcome {
                report: integrity_report(reg, &s),
                bench: Some(integrity_json(&s)),
                gate: Some(integrity_gate(&s)),
            }
        },
    },
    Experiment {
        id: "replay",
        desc: "workload capture & replay: 3-mode determinism + differential engine pairs",
        run: |reg| {
            let s = replay_results();
            Outcome {
                report: replay_report(reg, &s),
                bench: Some(replay_json(&s)),
                gate: Some(replay_gate(&s)),
            }
        },
    },
    Experiment {
        id: "monitorscale",
        desc: "continuous telemetry: flight recorder, SLO burn rates, tail-sampled traces",
        run: |reg| {
            let s = monitorscale_results();
            Outcome {
                report: monitor_report(reg, &s),
                bench: Some(monitor_json(&s)),
                gate: Some(monitor_gate(&s)),
            }
        },
    },
    Experiment {
        id: "ingestscale",
        desc: "sharded ingest service: shard scaling, group-commit fan-in, backpressure",
        run: |reg| {
            let cells = ingest_results();
            Outcome {
                report: ingest_report(reg, &cells),
                bench: Some(ingest_json(&cells)),
                gate: Some(ingest_gate(&cells)),
            }
        },
    },
    Experiment {
        id: "dedupscale",
        desc: "content-addressed dedup: repeated-checkpoint ratio, orphan GC, chunked diff",
        run: |reg| {
            let s = dedup_results();
            Outcome {
                report: dedup_report(reg, &s),
                bench: Some(dedup_json(&s)),
                gate: Some(dedup_gate(&s)),
            }
        },
    },
];

/// The headline reproduction numbers the repo stands behind, as a JSON
/// object. `tests/golden.rs` pins these against a committed fixture
/// with ±10% tolerance; `repro golden` prints them.
pub fn headline_numbers() -> obs::json::Value {
    use giga::{run_metarates, MetaratesConfig, Scheme};
    use netsim::{run_incast, IncastConfig, RtoPolicy};
    use pfs::sim::{Cluster, Op};
    use pfs::ClusterConfig;
    use plfs::simadapter::{compare, PlfsSimOptions};
    use simkit::units::MIB;
    use workloads::AppProfile;

    // The N-1 vs N-N speedup factor: PLFS converts FLASH-IO's strided
    // N-1 file into N sequential logs (256 ranks, Lustre-like; fig8).
    let flash = AppProfile::by_name("FLASH-IO").unwrap();
    let (_, _, plfs_speedup) = compare(
        ClusterConfig::lustre_like(16, MIB),
        &flash.pattern(256),
        &PlfsSimOptions::default(),
    );

    // Raw N-N over N-1 on stripe-ALIGNED 1 MiB records (the faults
    // workload, healthy cluster). Alignment rescues direct N-1 (~1.0x),
    // which is itself a paper point: the collapse — and PLFS's win
    // above — comes from small unaligned strided records.
    let clients = 16usize;
    let per_client = 48usize;
    let rec = MIB;
    let n1: Vec<Vec<Op>> = (0..clients)
        .map(|r| {
            let mut ops = vec![Op::Open(0)];
            for i in 0..per_client {
                let record = (i * clients + r) as u64;
                ops.push(Op::Write { file: 0, offset: record * rec, len: rec });
            }
            ops
        })
        .collect();
    let nn: Vec<Vec<Op>> = (0..clients)
        .map(|r| {
            let file = 1 + r as u64;
            let mut ops = vec![Op::Create(file)];
            for i in 0..per_client {
                ops.push(Op::Write { file, offset: i as u64 * rec, len: rec });
            }
            ops
        })
        .collect();
    let n1_bw = Cluster::new(ClusterConfig::lustre_like(8, MIB)).run_phase(&n1).write_bandwidth();
    let nn_bw = Cluster::new(ClusterConfig::lustre_like(8, MIB)).run_phase(&nn).write_bandwidth();

    // Incast collapse point: smallest 1 GbE fan-in where legacy-RTO
    // goodput drops below half of the single-sender goodput (fig9).
    let single = run_incast(&IncastConfig::gbe(1, RtoPolicy::legacy_200ms())).goodput_bps;
    let collapse = (2..=64)
        .find(|&n| {
            run_incast(&IncastConfig::gbe(n, RtoPolicy::legacy_200ms())).goodput_bps < 0.5 * single
        })
        .unwrap_or(0);

    // GIGA+ directory partitioning at 32 servers (fig7).
    let mut cfg = MetaratesConfig::new(64, 1000, 32, Scheme::GigaPlus);
    cfg.split_threshold = 256;
    let giga = run_metarates(&cfg);

    obs::json::Value::Obj(vec![
        ("plfs_flashio_speedup".into(), obs::json::Value::Float(plfs_speedup)),
        ("nn_over_n1_aligned".into(), obs::json::Value::Float(nn_bw / n1_bw)),
        ("incast_collapse_senders".into(), obs::json::Value::Int(collapse as i64)),
        ("giga_splits_32srv".into(), obs::json::Value::Int(giga.splits as i64)),
        ("giga_partitions_32srv".into(), obs::json::Value::Int(giga.partitions as i64)),
    ])
}
