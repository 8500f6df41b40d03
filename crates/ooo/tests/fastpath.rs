//! Fast-forward equivalence: the stall-cycle fast-forward is a pure
//! performance optimisation, so every observable statistic must be
//! bit-identical with it on and off — on every workload profile, at
//! every window shape, under the oscillating policy that thrashes the
//! transition machinery, with runahead enabled, and across the
//! snapshot/resume boundary. The interval time series, CPI-stack
//! conservation and snapshot bytes are part of the contract: a skip
//! that crossed an epoch boundary or under-charged a bucket would show
//! up here before it could corrupt a journal hash.

use mlpwin_isa::Cycle;
use mlpwin_ooo::{
    Core, CoreConfig, CoreStats, CpiBucket, FixedLevelPolicy, WakeSource, WindowPolicy,
};
use mlpwin_workloads::{profiles, ProfileWorkload};

/// Runs one profile to completion twice — fast-forward on and off —
/// and returns both final stats plus the fast-forwarded core, whose
/// host-side counters say how the fast path advanced.
fn run_pair(
    name: &str,
    cfg: &CoreConfig,
    make_policy: &dyn Fn() -> Box<dyn WindowPolicy>,
    warmup: u64,
    insts: u64,
) -> (CoreStats, CoreStats, Core<ProfileWorkload>) {
    let run_one = |fast_forward: bool| {
        let cfg = CoreConfig {
            fast_forward,
            ..cfg.clone()
        };
        let w = profiles::by_name(name, 7).expect("profile exists");
        let mut core = Core::new(cfg, w, make_policy());
        core.run_warmup(warmup).expect("warm-up must not stall");
        let stats = core.run(insts).expect("healthy profile must not stall");
        (stats, core)
    };
    let (fast, fast_core) = run_one(true);
    let (slow, slow_core) = run_one(false);
    assert_eq!(
        slow_core.fast_forwarded_cycles(),
        0,
        "{name}: the knob must actually disable it"
    );
    (fast, slow, fast_core)
}

/// The full bit-identity check, including the pieces `PartialEq` on the
/// struct would already cover — spelled out so a mismatch names the
/// first field that diverged instead of dumping two whole structs.
fn assert_identical(name: &str, fast: &CoreStats, slow: &CoreStats) {
    assert_eq!(fast.cycles, slow.cycles, "{name}: cycles");
    assert_eq!(
        fast.committed_insts, slow.committed_insts,
        "{name}: committed_insts"
    );
    assert_eq!(fast.level_cycles, slow.level_cycles, "{name}: level_cycles");
    assert_eq!(fast.cpi_stack, slow.cpi_stack, "{name}: cpi_stack");
    assert_eq!(
        fast.intervals.len(),
        slow.intervals.len(),
        "{name}: interval count"
    );
    for (i, (f, s)) in fast.intervals.iter().zip(&slow.intervals).enumerate() {
        assert_eq!(f, s, "{name}: interval sample {i}");
    }
    assert_eq!(fast, slow, "{name}: full CoreStats");
    // Conservation must hold on the fast-forwarded run in its own right:
    // bulk-charged cycles land in exactly one bucket of one level.
    let stack: u64 = fast.cpi_stack_cycles();
    assert_eq!(stack, fast.cycles, "{name}: CPI stack covers cycles");
    let levels: u64 = fast.level_cycles.iter().sum();
    assert_eq!(levels, fast.cycles, "{name}: level residency covers cycles");
}

fn fixed(level: usize) -> Box<dyn Fn() -> Box<dyn WindowPolicy>> {
    Box::new(move || Box::new(FixedLevelPolicy::new(level)))
}

#[test]
fn every_profile_is_bit_identical_at_level_1() {
    let cfg = CoreConfig {
        interval_cycles: Some(512),
        ..CoreConfig::default()
    };
    for name in profiles::names()
        .into_iter()
        .chain(profiles::software_mlp_names())
    {
        let (fast, slow, _) = run_pair(name, &cfg, &fixed(0), 3_000, 4_000);
        assert_identical(name, &fast, &slow);
    }
}

#[test]
fn every_profile_is_bit_identical_at_table2_level_3() {
    let cfg = CoreConfig {
        interval_cycles: Some(777),
        ..CoreConfig::with_table2_levels()
    };
    for name in profiles::names()
        .into_iter()
        .chain(profiles::software_mlp_names())
    {
        let (fast, slow, _) = run_pair(name, &cfg, &fixed(2), 2_000, 3_000);
        assert_identical(name, &fast, &slow);
    }
}

#[test]
fn memory_bound_profiles_actually_fast_forward() {
    // The optimisation must engage where it matters: a pointer-chasing
    // profile at a fixed level spends most of its cycles with the window
    // full behind an L2 miss, and most of those must be skipped rather
    // than stepped. The Cimple-style software-MLP kernels exist to
    // exercise exactly this sparse regime (long quiet stretches between
    // bursts of independent fills). Every coast must be attributed to a
    // real wake source — never to the reserved memory-side slot, which
    // the wake plan does not produce.
    let sparse = profiles::software_mlp_names();
    let names = ["libquantum", "mcf", "omnetpp", "GemsFDTD"];
    for name in names.into_iter().chain(sparse) {
        let (fast, slow, core) = run_pair(name, &CoreConfig::default(), &fixed(0), 5_000, 8_000);
        assert_identical(name, &fast, &slow);
        let skip = core.engine_counters().skip_fraction();
        assert!(skip > 0.5, "{name}: {:.0}% bulk-advanced", skip * 100.0);
        assert!(
            fast.cpi_fraction(CpiBucket::MemoryStall) > 0.3,
            "{name}: profile is not memory-bound enough to exercise the path"
        );
        let wake = core.wake_histogram();
        assert!(wake.iter().sum::<u64>() > 0, "{name}: no wake source");
        assert_eq!(wake[WakeSource::MemSystem.index()], 0, "{name}: reserved");
    }
}

/// A policy that requests the top level and level 0 alternately, forcing
/// frequent transitions, and that opts into fast-forward by exposing the
/// next period boundary as its quiet horizon.
struct OscillatingPolicy {
    period: Cycle,
}

impl WindowPolicy for OscillatingPolicy {
    fn target_level(
        &mut self,
        now: Cycle,
        _l2_demand_misses: u32,
        _current_level: usize,
        max_level: usize,
    ) -> usize {
        if (now / self.period).is_multiple_of(2) {
            max_level
        } else {
            0
        }
    }

    fn quiet_until(&self, now: Cycle, _current_level: usize) -> Cycle {
        // The answer flips at the next multiple of `period`.
        (now / self.period + 1) * self.period
    }
}

#[test]
fn oscillating_policy_is_bit_identical_through_transitions() {
    let cfg = CoreConfig {
        interval_cycles: Some(400),
        ..CoreConfig::with_table2_levels()
    };
    let make =
        |period: Cycle| move || Box::new(OscillatingPolicy { period }) as Box<dyn WindowPolicy>;
    for (name, period) in [
        ("libquantum", 200),
        ("mcf", 331),
        ("hash-probe", 331),
        ("gcc", 250),
    ] {
        let (fast, slow, _) = run_pair(name, &cfg, &make(period), 4_000, 12_000);
        assert_identical(name, &fast, &slow);
        assert!(
            fast.transitions_up > 0 && fast.transitions_down > 0,
            "{name}: oscillation must exercise the transition machinery"
        );
    }
}

#[test]
fn runahead_runs_are_bit_identical() {
    let cfg = CoreConfig {
        runahead: Some(mlpwin_ooo::RunaheadOpts::default()),
        interval_cycles: Some(600),
        ..CoreConfig::default()
    };
    for name in ["libquantum", "mcf", "milc", "chase-batch"] {
        let (fast, slow, _) = run_pair(name, &cfg, &fixed(0), 5_000, 8_000);
        assert_identical(name, &fast, &slow);
        assert!(
            fast.runahead_episodes > 0,
            "{name}: runahead must actually trigger"
        );
    }
}

#[test]
fn compute_bound_profiles_are_identical_even_when_nothing_skips() {
    // Profiles that rarely stall exercise the "decline to skip" guards;
    // equivalence must hold regardless of how often the path fires.
    for name in ["sjeng", "bwaves", "gobmk"] {
        let (fast, slow, _) = run_pair(name, &CoreConfig::default(), &fixed(0), 3_000, 6_000);
        assert_identical(name, &fast, &slow);
    }
}

#[test]
fn snapshot_bytes_match_and_resume_crosses_fast_forward_settings() {
    // A run paused at the same cadence boundary must serialize to the
    // same bytes with the fast-forward on and off, and an image taken
    // under one setting must resume bit-identically under the other —
    // the property the interval-split sweep and campaign resume paths
    // rely on. `snapshot_cycles` pins pauses to exact boundaries (the
    // coast at the tail of a boundary step is declined), exactly how the
    // split runner's `build_core` configures interval-paused execution.
    let base = CoreConfig {
        interval_cycles: Some(512),
        snapshot_cycles: Some(512),
        ..CoreConfig::default()
    };
    let cfg = |fast_forward: bool| CoreConfig {
        fast_forward,
        ..base.clone()
    };
    for name in ["mcf", "chase-batch"] {
        let (reference, _, _) = run_pair(name, &base, &fixed(0), 3_000, 6_000);
        let paused = |fast_forward: bool| {
            let w = profiles::by_name(name, 7).expect("profile exists");
            let mut core = Core::new(cfg(fast_forward), w, fixed(0)());
            core.run_warmup(3_000).expect("warm-up");
            core.arm_run(6_000);
            let done = core.run_to_cycle(1_024).expect("drive to boundary");
            assert!(!done, "{name}: must pause before the commit target");
            assert_eq!(core.stats().cycles, 1_024, "{name}: paused off-boundary");
            core.snapshot()
        };
        let slow_image = paused(false);
        let fast_image = paused(true);
        assert_eq!(
            slow_image, fast_image,
            "{name}: snapshot bytes must not depend on the fast-forward"
        );
        for (resume_fast, image) in [(true, &slow_image), (false, &fast_image)] {
            let w = profiles::by_name(name, 7).expect("profile exists");
            let mut core = Core::new(cfg(resume_fast), w, fixed(0)());
            core.restore(image).expect("image restores");
            let done = core.run_to_cycle(Cycle::MAX).expect("drive to completion");
            assert!(done, "{name}: resumed run reaches its commit target");
            assert_identical(name, core.stats(), &reference);
        }
    }
}
