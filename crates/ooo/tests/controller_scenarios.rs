//! Scenario tests of the Fig. 5 controller against hand-built miss
//! schedules, plus randomized tests of its safety invariants (driven by
//! the workspace's own RNG so the suite builds offline).

use mlpwin_isa::Xoshiro256StarStar;
use mlpwin_ooo::{DynamicResizingPolicy, WindowPolicy};
use std::collections::BTreeSet;

const LAT: u32 = 300;
const MAX: usize = 2;

/// Drives the policy over a miss schedule, applying every requested
/// transition immediately (an always-vacant core). Returns the level
/// trace as (cycle, new_level) pairs.
fn drive(misses: &[u64], horizon: u64) -> Vec<(u64, usize)> {
    let mut p = DynamicResizingPolicy::new(LAT);
    let mut level = 0usize;
    let mut trace = Vec::new();
    for t in 0..horizon {
        let m = misses.contains(&t) as u32;
        let target = p.target_level(t, m, level, MAX);
        if target != level {
            p.on_transition(t, level, target);
            level = target;
            trace.push((t, level));
        }
    }
    trace
}

#[test]
fn isolated_miss_causes_one_round_trip() {
    let trace = drive(&[100], 1200);
    assert_eq!(trace, vec![(100, 1), (400, 0)]);
}

#[test]
fn miss_burst_climbs_the_ladder_once_per_cycle() {
    // Three misses in consecutive cycles: level 1 -> 2 -> 3 in 3 cycles.
    let trace = drive(&[100, 101, 102], 1500);
    assert_eq!(&trace[..2], &[(100, 1), (101, 2)]);
    // Shrinks follow 300 cycles after the last miss, spaced by 300.
    assert_eq!(&trace[2..], &[(402, 1), (702, 0)]);
}

#[test]
fn sustained_misses_pin_the_window_at_max() {
    let misses: Vec<u64> = (100..2000).step_by(50).collect();
    let trace = drive(&misses, 3000);
    // Climbs to max and stays until the stream ends.
    let at_max_since = trace
        .iter()
        .find(|(_, l)| *l == MAX)
        .expect("must reach max")
        .0;
    let first_shrink = trace
        .iter()
        .find(|(t, l)| *t > at_max_since && *l < MAX)
        .expect("must eventually shrink")
        .0;
    let last_miss = *misses.last().expect("non-empty");
    assert_eq!(
        first_shrink,
        last_miss + LAT as u64,
        "first shrink exactly one memory latency after the last miss"
    );
}

#[test]
fn miss_during_drain_reverses_course() {
    // Miss at 100 (level 1). Shrink would come at 400, but a miss at 399
    // re-arms and re-enlarges.
    let trace = drive(&[100, 399], 1500);
    assert_eq!(trace[0], (100, 1));
    assert_eq!(trace[1], (399, 2), "miss at the brink re-enlarges");
    assert_eq!(trace[2], (699, 1));
    assert_eq!(trace[3], (999, 0));
}

#[test]
fn postponed_shrink_still_counts_from_the_decision_point() {
    // The core may not be able to shrink immediately (region occupied).
    // The policy keeps requesting; once the core commits the transition,
    // the *next* shrink is a full latency after that commit.
    let mut p = DynamicResizingPolicy::new(LAT);
    let _ = p.target_level(0, 1, 0, MAX); // -> 1
    p.on_transition(0, 0, 1);
    let _ = p.target_level(1, 1, 1, MAX); // -> 2
    p.on_transition(1, 1, 2);
    // Shrink arms at 301; the core stalls until 350.
    for t in 301..350 {
        assert_eq!(p.target_level(t, 0, 2, MAX), 1, "keeps requesting at {t}");
    }
    p.on_transition(350, 2, 1);
    // Next shrink exactly at 350 + 300.
    for t in 351..650 {
        assert_eq!(p.target_level(t, 0, 1, MAX), 1);
    }
    assert_eq!(p.target_level(650, 0, 1, MAX), 0);
}

/// A random miss schedule of up to `max_misses` cycles below `horizon`.
fn random_schedule(
    rng: &mut Xoshiro256StarStar,
    horizon: u64,
    min_misses: u64,
    max_misses: u64,
) -> Vec<u64> {
    let n = rng.range_between(min_misses, max_misses);
    let set: BTreeSet<u64> = (0..n).map(|_| rng.range(horizon)).collect();
    set.into_iter().collect()
}

/// For any miss schedule: levels stay in range, every enlarge is
/// triggered by a miss, and every shrink follows >= one full memory
/// latency without misses.
#[test]
fn controller_safety_invariants() {
    for case in 0..32u64 {
        let mut rng = Xoshiro256StarStar::seed_from(0x5AFE + case);
        let schedule = random_schedule(&mut rng, 5_000, 0, 120);
        let mut p = DynamicResizingPolicy::new(LAT);
        let mut level = 0usize;
        let mut last_miss: Option<u64> = None;
        for t in 0..6_000u64 {
            let m = schedule.binary_search(&t).is_ok();
            let target = p.target_level(t, m as u32, level, MAX);
            assert!(target <= MAX, "case {case}");
            assert!(
                (target as i64 - level as i64).abs() <= 1,
                "case {case}: one level per decision"
            );
            if target > level {
                assert!(m, "case {case}: enlarge only on a miss cycle");
            }
            if target < level {
                let quiet_since = last_miss.map_or(t, |lm| t - lm);
                assert!(
                    quiet_since >= LAT as u64,
                    "case {case}: shrink after only {quiet_since} quiet cycles"
                );
            }
            if target != level {
                p.on_transition(t, level, target);
                level = target;
            }
            if m {
                last_miss = Some(t);
            }
        }
    }
}

/// The controller always returns to level 0 after the miss stream ends
/// (no stuck-enlarged leak).
#[test]
fn controller_always_drains_to_level_zero() {
    for case in 0..32u64 {
        let mut rng = Xoshiro256StarStar::seed_from(0xD2A1 + case);
        let schedule = random_schedule(&mut rng, 2_000, 1, 60);
        let mut p = DynamicResizingPolicy::new(LAT);
        let mut level = 0usize;
        let horizon = 2_000 + (MAX as u64 + 2) * LAT as u64 + 100;
        for t in 0..horizon {
            let m = schedule.binary_search(&t).is_ok() as u32;
            let target = p.target_level(t, m, level, MAX);
            if target != level {
                p.on_transition(t, level, target);
                level = target;
            }
        }
        assert_eq!(
            level, 0,
            "case {case}: window must fully shrink after quiet"
        );
    }
}
