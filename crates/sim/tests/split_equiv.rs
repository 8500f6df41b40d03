//! Stitch-equivalence suite: the interval-parallel runner must be an
//! *identity* transform on results. For every profile and model the
//! exact-mode split — sweep, independent per-interval re-simulation,
//! stitch — has to reproduce the serial [`runner::run`] bit for bit:
//! the full [`RunResult`] (core stats including the CPI stacks and the
//! interval time series, memory counters, predictor stats, provenance),
//! and the encoded journal line down to its spec-hash bytes.
//!
//! Every test serializes on one lock because the
//! `MLPWIN_NO_FAST_FORWARD` sweep mutates process-global state that the
//! serial/split legs of the other tests read.

use mlpwin_sim::journal::encode_line;
use mlpwin_sim::runner::{self, RunSpec};
use mlpwin_sim::split::{run_split, SplitConfig};
use mlpwin_sim::SimModel;
use mlpwin_workloads::profiles;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard};

static ENV_LOCK: Mutex<()> = Mutex::new(());

fn serialize() -> MutexGuard<'static, ()> {
    ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mlpwin-split-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn spec(profile: &str, model: SimModel) -> RunSpec {
    let mut s = RunSpec::new(profile, model);
    s.warmup = 2_000;
    s.insts = 3_000;
    // Exercise the interval time series too: the stitcher must splice
    // the per-interval sample suffixes back together.
    s.interval_cycles = Some(512);
    s
}

/// Asserts serial == split for one spec and returns the interval count
/// (callers assert the run actually split into several pieces).
fn assert_equivalent(spec: &RunSpec, cfg: &SplitConfig, dir: &Path, tag: &str) -> u64 {
    let serial = runner::run(spec).expect("serial run is healthy");
    let outcome = run_split(spec, cfg, dir).expect("split run is healthy");
    let stitched = outcome.result.as_ref().expect("exact mode yields a result");
    assert_eq!(stitched, &serial, "{tag}: stitched result != serial result");
    assert_eq!(
        encode_line(spec, stitched),
        encode_line(spec, &serial),
        "{tag}: journal lines differ"
    );
    // The per-interval deltas individually conserve CPI cycles and
    // chain across boundaries without gaps.
    let mut cursor = 0u64;
    for rec in &outcome.intervals {
        assert_eq!(rec.start_cycle, cursor, "{tag}: interval chain has a gap");
        assert_eq!(
            rec.delta.as_stats().cpi_stack_cycles(),
            rec.delta.cycles(),
            "{tag}: interval {} breaks CPI conservation",
            rec.index
        );
        cursor = rec.end_cycle;
    }
    assert_eq!(
        cursor, serial.stats.cycles,
        "{tag}: intervals don't cover the run"
    );
    outcome.n_intervals
}

#[test]
fn all_28_profiles_stitch_bit_identical_to_serial() {
    let _guard = serialize();
    let dir = scratch("all-profiles");
    let names = profiles::names();
    assert_eq!(names.len(), 28, "the paper's full benchmark roster");
    for name in names {
        let spec = spec(name, SimModel::Dynamic);
        // 3000 committed insts on a 4-wide machine is at least 750
        // cycles, so 512-cycle intervals split every profile — even the
        // high-IPC ones that finish in under a thousand cycles.
        let cfg = SplitConfig::new(512).with_workers(2);
        let n = assert_equivalent(&spec, &cfg, &dir, name);
        assert!(n >= 2, "{name}: want at least two intervals, got {n}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn models_by_fast_forward_modes_stitch_identically() {
    let _guard = serialize();
    let dir = scratch("models-ff");
    let models = [SimModel::Base, SimModel::Dynamic, SimModel::Runahead];
    for no_ff in [false, true] {
        if no_ff {
            std::env::set_var("MLPWIN_NO_FAST_FORWARD", "1");
        } else {
            std::env::remove_var("MLPWIN_NO_FAST_FORWARD");
        }
        for model in models {
            // One memory-bound profile (long fast-forwardable stalls)
            // and one compute-bound (near-empty skip regions).
            for name in ["libquantum", "sjeng"] {
                let spec = spec(name, model);
                let cfg = SplitConfig::new(1_024).with_workers(2);
                let tag = format!("{name}/{} no_ff={no_ff}", model.tag());
                assert_equivalent(&spec, &cfg, &dir, &tag);
            }
        }
    }
    std::env::remove_var("MLPWIN_NO_FAST_FORWARD");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn second_run_stitches_entirely_from_the_store() {
    let _guard = serialize();
    let dir = scratch("cache");
    let spec = spec("omnetpp", SimModel::Dynamic);
    let cfg = SplitConfig::new(2_048).with_workers(2);
    let serial = runner::run(&spec).expect("serial run is healthy");
    let first = run_split(&spec, &cfg, &dir).expect("first split run");
    assert!(!first.sweep_reused);
    assert_eq!(first.cached, 0);
    let second = run_split(&spec, &cfg, &dir).expect("second split run");
    assert!(second.sweep_reused, "manifest must be reused");
    assert_eq!(second.simulated, 0, "no interval should be re-simulated");
    assert_eq!(second.cached, first.n_intervals);
    assert_eq!(second.result.unwrap(), serial, "cached stitch == serial");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fault_injected_specs_are_refused() {
    let _guard = serialize();
    let dir = scratch("fault");
    let mut spec = spec("gcc", SimModel::Base);
    spec.fault = Some(mlpwin_sim::FaultSpec::PanicAt(1_000));
    let err = run_split(&spec, &SplitConfig::new(2_048), &dir).unwrap_err();
    assert_eq!(err.kind(), "split");
    let _ = std::fs::remove_dir_all(&dir);
}
