//! Determinism guarantees: every run is a pure function of
//! (profile, model, seed, budgets) — across repeated executions, across
//! thread counts, and across all models.

use mlpwin::sim::runner::{run, run_matrix, RunSpec};
use mlpwin::sim::SimModel;

fn spec(profile: &str, model: SimModel, seed: u64) -> RunSpec {
    let mut s = RunSpec::new(profile, model).with_budget(10_000, 5_000);
    s.seed = seed;
    s
}

#[test]
fn repeated_runs_are_bit_identical() {
    for model in [
        SimModel::Base,
        SimModel::Fixed(3),
        SimModel::Dynamic,
        SimModel::Runahead,
        SimModel::BigL2,
    ] {
        let a = run(&spec("soplex", model, 1)).expect("healthy run");
        let b = run(&spec("soplex", model, 1)).expect("healthy run");
        assert_eq!(a.stats, b.stats, "{model:?} not deterministic");
        assert_eq!(a.provenance, b.provenance);
        assert_eq!(a.l2_miss_cycles, b.l2_miss_cycles);
    }
}

#[test]
fn thread_count_cannot_change_results() {
    let specs: Vec<RunSpec> = ["gcc", "milc", "mcf", "sjeng"]
        .iter()
        .map(|p| spec(p, SimModel::Dynamic, 1))
        .collect();
    let serial = run_matrix(&specs, 1);
    let parallel = run_matrix(&specs, 4);
    for (s, p) in serial.iter().zip(&parallel) {
        let s = s.as_ref().expect("healthy spec");
        let p = p.as_ref().expect("healthy spec");
        assert_eq!(
            s.stats, p.stats,
            "{}: thread-count sensitivity",
            s.spec.profile
        );
    }
}

#[test]
fn interval_series_is_deterministic_across_threads_and_repeats() {
    let specs: Vec<RunSpec> = ["libquantum", "gcc", "mcf"]
        .iter()
        .map(|p| spec(p, SimModel::Dynamic, 1).with_intervals(500))
        .collect();
    let serial = run_matrix(&specs, 1);
    let parallel = run_matrix(&specs, 4);
    let again = run_matrix(&specs, 4);
    for ((s, p), a) in serial.iter().zip(&parallel).zip(&again) {
        let s = s.as_ref().expect("healthy spec");
        let p = p.as_ref().expect("healthy spec");
        let a = a.as_ref().expect("healthy spec");
        assert!(
            !s.stats.intervals.is_empty(),
            "{}: series must be collected",
            s.spec.profile
        );
        // The whole CoreStats — intervals and CPI stack included — must
        // be bit-identical whatever the thread count, and across runs.
        assert_eq!(
            s.stats, p.stats,
            "{}: thread-count sensitivity in observability data",
            s.spec.profile
        );
        assert_eq!(
            p.stats, a.stats,
            "{}: repeat sensitivity in observability data",
            p.spec.profile
        );
    }
}

#[test]
fn different_seeds_diverge() {
    let a = run(&spec("soplex", SimModel::Base, 1)).expect("healthy run");
    let b = run(&spec("soplex", SimModel::Base, 2)).expect("healthy run");
    assert_ne!(
        a.stats.cycles, b.stats.cycles,
        "distinct seeds should explore distinct dynamic behaviour"
    );
    // But aggregate character stays put: same category, same regime.
    let ratio = a.ipc() / b.ipc();
    assert!(
        (0.5..2.0).contains(&ratio),
        "seed variance should be bounded: {ratio}"
    );
}

#[test]
fn warmup_reset_preserves_microarchitectural_state() {
    // Running 2k after an 8k warmup must differ from a cold 2k run
    // (warm caches), and two warm runs must agree with each other.
    let cold =
        run(&RunSpec::new("gcc", SimModel::Base).with_budget(0, 2_000)).expect("healthy run");
    let warm1 =
        run(&RunSpec::new("gcc", SimModel::Base).with_budget(8_000, 2_000)).expect("healthy run");
    let warm2 =
        run(&RunSpec::new("gcc", SimModel::Base).with_budget(8_000, 2_000)).expect("healthy run");
    assert_eq!(warm1.stats, warm2.stats);
    assert!(
        warm1.ipc() > cold.ipc(),
        "warm ({:.3}) should beat cold ({:.3})",
        warm1.ipc(),
        cold.ipc()
    );
}
