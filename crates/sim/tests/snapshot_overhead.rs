//! The snapshot-overhead bound: at the default cadence, periodic
//! snapshots may take at most 5% of a run's wall time on the simulating
//! thread.
//!
//! The default cadence is the one every recoverable run uses:
//! `mlpwin-sim` and `mlpwin-worker` runs, and the workers of an
//! `mlpwin-serve` campaign (`CampaignConfig::new` forwards
//! `DEFAULT_SNAPSHOT_CADENCE`), so this bound covers campaign jobs too.
//!
//! A timing test, so it is ignored by default; run it in release:
//!
//! ```text
//! cargo test --release -p mlpwin-sim --test snapshot_overhead -- --ignored
//! ```
//!
//! The pinned suite (3 memory-bound profiles, the software-MLP kernels
//! and 3 compute-bound profiles, each under the base and the dynamic
//! model) runs serially through the recoverable runner. Each row's
//! snapshot host time (image encode plus its handoff to the background
//! writer, `METRIC_SNAPSHOT_HOST_NS`) is read inside that row's own run,
//! so host-speed drift between runs cannot move the share. The
//! writer's durable saves, off the simulating thread, are printed but
//! not bounded; per-run store setup and cleanup are not timed.

use mlpwin_sim::runner::{
    run_recoverable, RunSpec, METRIC_SNAPSHOT_HOST_NS, METRIC_SNAPSHOT_WRITE_NS,
};
use mlpwin_sim::snapshot::{SnapshotPolicy, DEFAULT_SNAPSHOT_CADENCE};
use mlpwin_sim::{metrics, SimModel};
use mlpwin_workloads::{profiles, Category};
use std::time::Instant;

/// The largest share of a category's wall time its snapshots may take.
const SNAPSHOT_OVERHEAD_BOUND: f64 = 0.05;

fn counter(name: &str) -> u64 {
    let counters = metrics::global().snapshot().counters;
    counters.get(name).copied().unwrap_or(0)
}

#[test]
#[ignore = "timing test: run in release with --ignored"]
fn snapshots_at_the_default_cadence_cost_at_most_5_percent() {
    let dir = std::env::temp_dir().join(format!("mlpwin-snap-overhead-{}", std::process::id()));
    let policy = SnapshotPolicy::in_dir(&dir).every(DEFAULT_SNAPSHOT_CADENCE);
    // The snapshot path's host time reaches the test through the
    // runner's telemetry counters.
    metrics::set_telemetry(true);
    let programs = profiles::SELECTED_MEM[..3]
        .iter()
        .copied()
        .chain(profiles::software_mlp_names())
        .chain(profiles::SELECTED_COMP[..3].iter().copied());
    // (snapshot seconds, wall seconds), memory-bound rows then the rest.
    let mut totals = [(0.0, 0.0); 2];
    for program in programs {
        let memory = profiles::params_by_name(program)
            .is_ok_and(|p| p.category == Category::MemoryIntensive);
        for model in [SimModel::Base, SimModel::Dynamic] {
            let spec = RunSpec::new(program, model).with_budget(50_000, 30_000);
            let (snap_before, write_before) = (
                counter(METRIC_SNAPSHOT_HOST_NS),
                counter(METRIC_SNAPSHOT_WRITE_NS),
            );
            let started = Instant::now();
            run_recoverable(&spec, &policy).expect("the run completes");
            let wall = started.elapsed().as_secs_f64();
            let snap = (counter(METRIC_SNAPSHOT_HOST_NS) - snap_before) as f64 / 1e9;
            let write = (counter(METRIC_SNAPSHOT_WRITE_NS) - write_before) as f64 / 1e9;
            println!(
                "{program:<12} {:<8} wall {:>7.1} ms  snap {:>5.1} ms  write {:>5.1} ms",
                model.tag(),
                wall * 1e3,
                snap * 1e3,
                write * 1e3,
            );
            let row = &mut totals[usize::from(!memory)];
            *row = (row.0 + snap, row.1 + wall);
        }
    }
    std::fs::remove_dir_all(&dir).ok();
    for (name, (snap, wall)) in ["memory-bound", "compute-bound"].into_iter().zip(totals) {
        let share = snap / wall;
        println!(
            "{name} rows: {:.2}% of wall time in snapshot encode + handoff",
            share * 100.0
        );
        assert!(
            share <= SNAPSHOT_OVERHEAD_BOUND,
            "{name} rows: {:.2}% of wall time in snapshots (> {:.0}% bound)",
            share * 100.0,
            SNAPSHOT_OVERHEAD_BOUND * 100.0
        );
    }
}
