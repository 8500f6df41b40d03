//! End-to-end integration tests asserting the paper's *qualitative*
//! results hold on small (debug-friendly) budgets.
//!
//! These runs are intentionally tiny compared with the bench binaries —
//! enough to pin the direction of every headline claim without slowing
//! `cargo test --workspace`. The full-budget numbers live in
//! `EXPERIMENTS.md`.

use mlpwin::sim::runner::{run, run_matrix, RunSpec};
use mlpwin::sim::SimModel;

const WARMUP: u64 = 120_000;
const INSTS: u64 = 15_000;

fn ipc(profile: &str, model: SimModel) -> f64 {
    run(&RunSpec::new(profile, model).with_budget(WARMUP, INSTS))
        .expect("healthy run")
        .ipc()
}

#[test]
fn memory_workload_prefers_large_window_and_res_tracks_it() {
    let specs: Vec<RunSpec> = [SimModel::Fixed(1), SimModel::Fixed(3), SimModel::Dynamic]
        .into_iter()
        .map(|m| RunSpec::new("sphinx3", m).with_budget(WARMUP, INSTS))
        .collect();
    let r = run_matrix(&specs, 3);
    let ipc_of = |i: usize| r[i].as_ref().expect("healthy spec").ipc();
    let (fix1, fix3, res) = (ipc_of(0), ipc_of(1), ipc_of(2));
    assert!(
        fix3 > fix1 * 1.3,
        "sphinx3 must gain from the big window: {fix1:.3} -> {fix3:.3}"
    );
    assert!(
        res > fix3 * 0.9,
        "dynamic ({res:.3}) must track the best fixed level ({fix3:.3})"
    );
}

#[test]
fn compute_workload_prefers_small_window_and_res_tracks_it() {
    let fix1 = ipc("sjeng", SimModel::Fixed(1));
    let fix3 = ipc("sjeng", SimModel::Fixed(3));
    let res = ipc("sjeng", SimModel::Dynamic);
    assert!(
        fix3 < fix1,
        "pipelined large window must hurt sjeng: {fix1:.3} vs {fix3:.3}"
    );
    assert!(
        res > fix3,
        "dynamic ({res:.3}) must beat the pipelined large window ({fix3:.3})"
    );
    assert!(
        res > fix1 * 0.95,
        "dynamic ({res:.3}) must stay near the base ({fix1:.3})"
    );
}

#[test]
fn ideal_model_upper_bounds_the_fixed_model() {
    for profile in ["sphinx3", "gobmk"] {
        let fixed = ipc(profile, SimModel::Fixed(3));
        let ideal = ipc(profile, SimModel::Ideal(3));
        assert!(
            ideal >= fixed * 0.99,
            "{profile}: ideal ({ideal:.3}) must not lose to pipelined ({fixed:.3})"
        );
    }
}

#[test]
fn dynamic_residency_follows_the_workload_character() {
    let mem = run(&RunSpec::new("sphinx3", SimModel::Dynamic).with_budget(WARMUP, INSTS))
        .expect("healthy run");
    let comp = run(&RunSpec::new("sjeng", SimModel::Dynamic).with_budget(WARMUP, INSTS))
        .expect("healthy run");
    let mem_upper = mem.stats.level_residency(1) + mem.stats.level_residency(2);
    assert!(
        mem_upper > 0.5,
        "memory-bound run should live enlarged: {:?}",
        mem.stats.level_cycles
    );
    assert!(
        comp.stats.level_residency(0) > 0.85,
        "compute-bound run should live at level 1: {:?}",
        comp.stats.level_cycles
    );
}

#[test]
fn resizing_beats_runahead_where_computation_overlaps_misses() {
    let base = ipc("sphinx3", SimModel::Base);
    let ra = ipc("sphinx3", SimModel::Runahead);
    let res = ipc("sphinx3", SimModel::Dynamic);
    assert!(
        res > ra,
        "resizing ({res:.3}) must beat runahead ({ra:.3}) on sphinx3"
    );
    assert!(
        ra > base * 0.95,
        "runahead ({ra:.3}) must not collapse below base ({base:.3})"
    );
}

#[test]
fn enlarged_l2_buys_far_less_than_resizing() {
    let base = ipc("sphinx3", SimModel::Base);
    let big = ipc("sphinx3", SimModel::BigL2);
    let res = ipc("sphinx3", SimModel::Dynamic);
    let l2_gain = big / base - 1.0;
    let res_gain = res / base - 1.0;
    assert!(
        res_gain > l2_gain * 3.0,
        "resizing (+{:.1}%) must dwarf the enlarged L2 (+{:.1}%)",
        res_gain * 100.0,
        l2_gain * 100.0
    );
}

#[test]
fn cache_pollution_from_speculation_stays_small() {
    let r = run(&RunSpec::new("gobmk", SimModel::Dynamic).with_budget(WARMUP, INSTS))
        .expect("healthy run");
    let p = &r.provenance;
    assert!(p.total() > 0, "some lines must have been brought in");
    let wrong_share = p.wrongpath_total() as f64 / p.total() as f64;
    assert!(
        wrong_share < 0.35,
        "wrong-path lines should be a minority: {:.1}%",
        wrong_share * 100.0
    );
}

#[test]
fn transition_penalty_is_not_the_bottleneck() {
    // The paper: 30-cycle transitions cost ~1.3%. On a small budget we
    // assert the direction: tripling the penalty costs < 10%.
    let ipcs = [10, 30].map(|penalty| ipc("soplex", SimModel::Penalty(penalty)));
    let loss = 1.0 - ipcs[1] / ipcs[0];
    assert!(
        loss < 0.10,
        "30-cycle transitions should cost little, lost {:.1}%",
        loss * 100.0
    );
}

#[test]
fn milc_is_hostile_to_runahead_but_safe_for_resizing() {
    let base = ipc("milc", SimModel::Base);
    let res = ipc("milc", SimModel::Dynamic);
    // Resizing must never lose meaningfully on the sparse-miss program.
    assert!(
        res > base * 0.97,
        "resizing must be safe on milc: {base:.3} -> {res:.3}"
    );
    // And the CST must be suppressing episodes (the workload's character).
    let ra = run(&RunSpec::new("milc", SimModel::Runahead).with_budget(WARMUP, INSTS))
        .expect("healthy run");
    assert!(
        ra.stats.runahead_suppressed + ra.stats.runahead_short_skips > 0,
        "milc should trip the useless-runahead defenses"
    );
}
