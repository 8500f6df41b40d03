//! **mlpwin-bench** — the host-performance regression gate.
//!
//! Runs a pinned suite (the first three memory-intensive selected
//! programs, the software-MLP kernels, and the first three
//! compute-intensive programs, each under the baseline and the
//! dynamic-resizing model, at a fixed budget), times every run, and
//! writes a schema-versioned `BENCH.json` with per-run wall-clock,
//! simulated throughput and process peak RSS. When a previous file
//! exists it is the baseline: a matched per-category throughput drop
//! beyond
//! [`REGRESSION_THRESHOLD`](mlpwin_bench::benchfile::REGRESSION_THRESHOLD)
//! exits nonzero, so CI catches a PR that slows the hot loop.
//!
//! With `--snapshot-cycles N` the gate is instead the simulating
//! thread's host time inside the snapshot path (image encode plus its
//! handoff to the background writer) as a share of the same run's wall
//! time, bounded by
//! [`SNAPSHOT_OVERHEAD_BOUND`](mlpwin_bench::benchfile::SNAPSHOT_OVERHEAD_BOUND).
//! The writer's durable saves, off that thread, are printed beside it
//! (`write ms`) but not gated.
//!
//! ```text
//! cargo run --release -p mlpwin-bench --bin mlpwin-bench
//!     --out PATH     where to write the report  (default results/BENCH.json)
//!     --baseline P   compare against P          (default: the previous --out file)
//!     --insts N      measured insts per run     (default 30000; smoke 2000)
//!     --warmup N     warm-up insts per run      (default 50000; smoke 2000)
//!     --smoke        tiny budget, schema validation only, no threshold gate
//!     --snapshot-cycles N   run through the recoverable runner with this
//!                           snapshot cadence and gate on snapshot overhead
//!                           instead of baseline throughput
//!     --split N      also time an interval-parallel re-analysis of every
//!                    run: sampled split (stride N, N workers) against a
//!                    fresh snapshot sweep; records a speedup rider per
//!                    entry (serial wall over phase-2 wall)
//! ```
//!
//! Runs execute serially on one thread: the gate measures simulator
//! throughput, and sharing cores with sibling runs would fold scheduler
//! noise into the number it regresses on.
//!
//! SIGINT/SIGTERM stop the suite at the next run boundary (or, with
//! `--snapshot-cycles`, at the in-flight run's next snapshot point) and
//! exit with the "interrupted, resumable" code instead of writing a
//! partial report over the baseline trajectory.

use mlpwin_bench::benchfile::{
    matched_drop, peak_rss_kb, throughput_drop, BenchEntry, BenchReport, BenchSplit, BENCH_SCHEMA,
    REGRESSION_THRESHOLD, SNAPSHOT_OVERHEAD_BOUND,
};
use mlpwin_sim::metrics;
use mlpwin_sim::report::TextTable;
use mlpwin_sim::runner::{
    run, run_recoverable, RunSpec, METRIC_SNAPSHOT_HOST_NS, METRIC_SNAPSHOT_WRITE_NS,
};
use mlpwin_sim::snapshot::SnapshotPolicy;
use mlpwin_sim::split::{run_split, SplitConfig};
use mlpwin_sim::{signals, SimModel};
use mlpwin_workloads::profiles;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::time::Instant;

struct BenchArgs {
    out: PathBuf,
    baseline: Option<PathBuf>,
    warmup: u64,
    insts: u64,
    smoke: bool,
    snapshot_cycles: Option<u64>,
    split: Option<u64>,
}

impl BenchArgs {
    fn parse<I: IntoIterator<Item = String>>(args: I) -> BenchArgs {
        let mut out = BenchArgs {
            out: PathBuf::from("results/BENCH.json"),
            baseline: None,
            warmup: 0,
            insts: 0,
            smoke: false,
            snapshot_cycles: None,
            split: None,
        };
        let (mut warmup, mut insts) = (None, None);
        let mut it = args.into_iter();
        while let Some(flag) = it.next() {
            let mut value = |name: &str| {
                it.next()
                    .unwrap_or_else(|| panic!("{name} requires a value"))
            };
            match flag.as_str() {
                "--smoke" => out.smoke = true,
                "--out" => out.out = PathBuf::from(value("--out")),
                "--baseline" => out.baseline = Some(PathBuf::from(value("--baseline"))),
                "--warmup" => {
                    warmup = Some(value("--warmup").parse().expect("--warmup: not a number"))
                }
                "--insts" => insts = Some(value("--insts").parse().expect("--insts: not a number")),
                "--snapshot-cycles" => {
                    out.snapshot_cycles = Some(
                        value("--snapshot-cycles")
                            .parse()
                            .expect("--snapshot-cycles: not a number"),
                    )
                }
                "--split" => {
                    out.split = Some(value("--split").parse().expect("--split: not a number"))
                }
                other => panic!(
                    "unknown flag {other}; expected --smoke/--out/--baseline/--warmup/--insts/\
                     --snapshot-cycles/--split"
                ),
            }
        }
        let (dw, di) = if out.smoke {
            (2_000, 2_000)
        } else {
            (50_000, 30_000)
        };
        out.warmup = warmup.unwrap_or(dw);
        out.insts = insts.unwrap_or(di);
        if out.smoke && out.out == Path::new("results/BENCH.json") {
            // A smoke run must not overwrite (or gate against) the real
            // baseline trajectory.
            out.out = PathBuf::from("results/BENCH_smoke.json");
        }
        out
    }
}

/// The pinned suite: 3 memory-bound profiles, the software-MLP kernels
/// (sparse-event regime), and 3 compute-bound profiles, each under the
/// base and the dynamic-resizing model.
fn suite(warmup: u64, insts: u64) -> Vec<RunSpec> {
    let programs = profiles::SELECTED_MEM[..3]
        .iter()
        .copied()
        .chain(profiles::software_mlp_names())
        .chain(profiles::SELECTED_COMP[..3].iter().copied());
    let mut specs = Vec::new();
    for p in programs {
        for model in [SimModel::Base, SimModel::Dynamic] {
            specs.push(RunSpec::new(p, model).with_budget(warmup, insts));
        }
    }
    specs
}

/// Whether a report row names a memory-intensive profile (unknown
/// profiles — none are expected — fall on the compute side).
fn is_memory_row(e: &BenchEntry) -> bool {
    profiles::params_by_name(&e.profile)
        .map(|p| p.category == mlpwin_workloads::params::Category::MemoryIntensive)
        .unwrap_or(false)
}

/// Times the `--split N` rider for one spec: a sampled (stride `n`,
/// `n` workers) interval-parallel run against a fresh store. The
/// store is wiped first — a cached interval journal would fake the
/// phase-2 number — and the speedup is serial wall over phase 2 wall:
/// the sweep is the one-time cost a re-analysis no longer pays.
///
/// The interval length targets `2n` intervals of the serial row's
/// measured cycles (floored at 1024): every restore carries a fixed
/// megabyte-scale cost, so slicing a short run into many thin
/// intervals would measure restore overhead, not simulation.
///
/// Worker threads are capped at the host's available parallelism:
/// phase 2 is pure CPU, so threads beyond physical cores only add
/// scheduler churn to the wall clock being reported.
fn split_leg(
    spec: &RunSpec,
    n: u64,
    serial_wall_secs: f64,
    serial_cycles: u64,
    dir: &Path,
) -> BenchSplit {
    let n = n.max(1);
    let interval_cycles = (serial_cycles / (2 * n).max(1)).max(1_024);
    let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
    let cfg = SplitConfig::new(interval_cycles)
        .with_workers((n as usize).min(cores))
        .with_sampling(n);
    mlpwin_sim::split::discard_store(spec, interval_cycles, dir);
    let outcome = run_split(spec, &cfg, dir).unwrap_or_else(|error| {
        eprintln!("split leg failed: {error}");
        std::process::exit(1);
    });
    let phase2 = outcome.phase2_secs.max(1e-9);
    BenchSplit {
        stride: n,
        interval_cycles,
        intervals: outcome.n_intervals,
        simulated: outcome.simulated,
        sweep_secs: outcome.sweep_secs,
        phase2_secs: outcome.phase2_secs,
        speedup: serial_wall_secs / phase2,
    }
}

fn interrupted_exit() -> ! {
    eprintln!("mlpwin-bench: interrupted; no report written — re-run to redo the suite");
    std::process::exit(signals::EXIT_INTERRUPTED);
}

fn main() {
    signals::install();
    let args = BenchArgs::parse(std::env::args().skip(1));
    let specs = suite(args.warmup, args.insts);
    let snapshots = args.snapshot_cycles.map(|cadence| {
        let dir = args
            .out
            .parent()
            .filter(|p| !p.as_os_str().is_empty())
            .unwrap_or(Path::new("."))
            .join("bench-snapshots");
        SnapshotPolicy::in_dir(dir).every(cadence)
    });
    // The snapshot path's own host time reaches the bench through the
    // runner's telemetry counter, so snapshot mode turns telemetry on.
    if snapshots.is_some() {
        metrics::set_telemetry(true);
    }
    let counter = |name: &str| {
        metrics::global()
            .snapshot()
            .counters
            .get(name)
            .copied()
            .unwrap_or(0)
    };

    // Read the baseline before writing anything: the default baseline
    // IS the previous --out file.
    let baseline_path = args.baseline.clone().unwrap_or_else(|| args.out.clone());
    let baseline = match std::fs::read_to_string(&baseline_path) {
        Ok(text) => match BenchReport::parse(&text) {
            Ok(report) => Some(report),
            Err(e) => {
                eprintln!(
                    "warning: ignoring baseline {}: {e}",
                    baseline_path.display()
                );
                None
            }
        },
        Err(_) => None,
    };

    let split_dir = args
        .out
        .parent()
        .filter(|p| !p.as_os_str().is_empty())
        .unwrap_or(Path::new("."))
        .join("bench-splits");

    let mut entries = Vec::with_capacity(specs.len());
    // Per row: the run's skip fraction, its seconds in the snapshot path
    // and its writer's seconds in saves (both zero without
    // `--snapshot-cycles`).
    let mut row_extras = Vec::with_capacity(specs.len());
    for spec in &specs {
        if signals::interrupted() {
            interrupted_exit();
        }
        let snap_ns_before = counter(METRIC_SNAPSHOT_HOST_NS);
        let write_ns_before = counter(METRIC_SNAPSHOT_WRITE_NS);
        let started = Instant::now();
        let attempt = match &snapshots {
            // Overhead measurement: time the recoverable path, snapshot
            // writes included — what the ≤5% CI gate regresses on.
            Some(policy) => {
                match catch_unwind(AssertUnwindSafe(|| run_recoverable(spec, policy))) {
                    Ok(attempt) => attempt,
                    Err(payload) => {
                        if signals::is_interrupt_payload(payload.as_ref()) {
                            interrupted_exit();
                        }
                        std::panic::resume_unwind(payload)
                    }
                }
            }
            None => run(spec),
        };
        let result = mlpwin_bench::expect_run(attempt);
        let wall_secs = started.elapsed().as_secs_f64();
        let snap_secs = (counter(METRIC_SNAPSHOT_HOST_NS) - snap_ns_before) as f64 / 1e9;
        let write_secs = (counter(METRIC_SNAPSHOT_WRITE_NS) - write_ns_before) as f64 / 1e9;
        row_extras.push((result.engine.skip_fraction(), snap_secs, write_secs));
        let mut entry = BenchEntry {
            profile: spec.profile.clone(),
            model: spec.model.tag(),
            warmup: spec.warmup,
            insts: spec.insts,
            wall_secs,
            sim_cycles: result.stats.cycles,
            sim_insts: result.stats.committed_insts,
            split: None,
        };
        if let Some(n) = args.split {
            entry.split = Some(split_leg(
                spec,
                n,
                wall_secs,
                result.stats.cycles,
                &split_dir,
            ));
        }
        entries.push(entry);
    }
    let report = BenchReport {
        schema: BENCH_SCHEMA,
        peak_rss_kb: peak_rss_kb(),
        entries,
    };

    let mut t = TextTable::new(vec![
        "program", "model", "wall ms", "kcyc/s", "MIPS", "skip", "snap ms", "write ms",
    ]);
    for (e, &(skip, snap_secs, write_secs)) in report.entries.iter().zip(&row_extras) {
        t.row(vec![
            e.profile.clone(),
            e.model.clone(),
            format!("{:.1}", e.wall_secs * 1e3),
            format!("{:.0}", e.kcps()),
            format!("{:.3}", e.mips()),
            format!("{:.0}%", skip * 100.0),
            format!("{:.1}", snap_secs * 1e3),
            format!("{:.1}", write_secs * 1e3),
        ]);
    }
    println!("{}", t.render());
    if args.split.is_some() {
        let mut t = TextTable::new(vec![
            "program",
            "model",
            "intervals",
            "simulated",
            "sweep ms",
            "phase2 ms",
            "speedup",
        ]);
        for e in &report.entries {
            let Some(sp) = &e.split else { continue };
            t.row(vec![
                e.profile.clone(),
                e.model.clone(),
                sp.intervals.to_string(),
                sp.simulated.to_string(),
                format!("{:.1}", sp.sweep_secs * 1e3),
                format!("{:.1}", sp.phase2_secs * 1e3),
                format!("{:.2}x", sp.speedup),
            ]);
        }
        println!("split re-analysis (serial wall vs phase 2):");
        println!("{}", t.render());
    }
    println!(
        "total: {:.2}s wall, {:.0} kcyc/s, {:.3} MIPS, peak RSS {}",
        report.total_wall_secs(),
        report.total_kcps(),
        report.total_mips(),
        report
            .peak_rss_kb
            .map_or("n/a".to_string(), |kb| format!("{kb} kB")),
    );

    // Write, then re-read what landed on disk: the file CI archives must
    // itself satisfy the schema.
    if let Some(parent) = args.out.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent).expect("create output directory");
        }
    }
    let mut text = report.encode();
    text.push('\n');
    std::fs::write(&args.out, text).expect("write BENCH.json");
    let written = std::fs::read_to_string(&args.out).expect("re-read BENCH.json");
    if let Err(e) = BenchReport::parse(&written) {
        eprintln!("BENCH.json failed schema validation after write: {e}");
        std::process::exit(2);
    }
    println!("wrote {}", args.out.display());

    // Either gate runs per category over the memory-bound and the
    // compute-bound rows separately, so a swing in one cannot hide
    // behind the other.
    let (what, bound, legs) = if snapshots.is_some() {
        // Summed snapshot-path seconds over summed wall seconds.
        let share = |memory: bool| {
            let rows = report.entries.iter().zip(&row_extras);
            let (snap, wall) = rows
                .filter(|(e, _)| is_memory_row(e) == memory)
                .fold((0.0, 0.0), |(snap, wall), (e, &(_, s, _))| {
                    (snap + s, wall + e.wall_secs)
                });
            (wall > 0.0).then(|| snap / wall)
        };
        (
            "of wall time in snapshot encode + handoff",
            SNAPSHOT_OVERHEAD_BOUND,
            [share(true), share(false)],
        )
    } else if let Some(baseline) = &baseline {
        let Some(drop) = throughput_drop(baseline, &report) else {
            println!("baseline throughput is degenerate; gate skipped");
            return;
        };
        println!(
            "vs baseline {}: {:+.1}% throughput",
            baseline_path.display(),
            -drop * 100.0
        );
        // Only rows present in both reports are compared: freshly added
        // suite rows must neither mask a regression on old rows nor be
        // gated against nothing.
        let drop = |memory: bool| matched_drop(baseline, &report, |e| is_memory_row(e) == memory);
        (
            "throughput drop vs matched baseline rows",
            REGRESSION_THRESHOLD,
            [drop(true), drop(false)],
        )
    } else {
        println!("no baseline at {}; gate skipped", baseline_path.display());
        return;
    };
    let mut failed = false;
    for (name, value) in ["memory-bound", "compute-bound"].into_iter().zip(legs) {
        let Some(value) = value else {
            println!("{name} rows: nothing to compare; leg skipped");
            continue;
        };
        println!("{name} rows: {:.2}% {what}", value * 100.0);
        if value > bound {
            eprintln!(
                "FAIL: {name} rows: {:.2}% {what} (> {:.0}% bound)",
                value * 100.0,
                bound * 100.0
            );
            failed = true;
        }
    }
    if args.smoke {
        println!("smoke mode: threshold gate skipped");
    } else if failed {
        std::process::exit(1);
    }
}
