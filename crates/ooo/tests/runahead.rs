//! Behaviour of runahead execution (Mutlu, Stark, Wilkerson & Patt,
//! HPCA 2003, with the ISCA 2005 efficiency enhancements) — the paper's
//! §5.7 comparator — on the base level-1 window: episodes trigger where
//! misses are independent, pay off where they cluster, stay out of
//! cache-resident code, and the cause status table suppresses useless
//! ones.

use mlpwin_ooo::{Core, CoreConfig, CoreStats, FixedLevelPolicy, RunaheadOpts};
use mlpwin_workloads::profiles;

/// The §5.7 runahead processor: the base window plus runahead.
fn runahead_config(use_cause_status_table: bool) -> CoreConfig {
    CoreConfig {
        runahead: Some(RunaheadOpts {
            use_cause_status_table,
        }),
        ..CoreConfig::default()
    }
}

fn run_config(config: CoreConfig, profile: &str, insts: u64) -> CoreStats {
    let w = profiles::by_name(profile, 7).expect("profile");
    let mut core = Core::new(config, w, Box::new(FixedLevelPolicy::new(0)));
    core.run_warmup(30_000).expect("warm-up must not stall");
    core.run(insts).expect("healthy run must not stall")
}

/// Runs the paper's runahead configuration (cause status table on).
fn run(profile: &str, insts: u64) -> CoreStats {
    run_config(runahead_config(true), profile, insts)
}

fn run_base(profile: &str, insts: u64) -> CoreStats {
    run_config(CoreConfig::default(), profile, insts)
}

#[test]
fn episodes_trigger_on_memory_bound_workloads() {
    // sphinx3: independent random misses the prefetcher cannot cover
    // and a 128-entry window cannot hold — runahead's sweet spot.
    let s = run("sphinx3", 8_000);
    assert!(s.runahead_episodes > 10, "got {}", s.runahead_episodes);
    assert!(
        s.runahead_cycles > s.cycles / 10,
        "memory-bound run should spend real time in runahead: {} of {}",
        s.runahead_cycles,
        s.cycles
    );
    assert!(
        s.runahead_useful_episodes > 0,
        "sphinx3 episodes overlap further independent misses"
    );
}

#[test]
fn runahead_speeds_up_clustered_misses() {
    let base = run_base("libquantum", 8_000);
    let ra = run("libquantum", 8_000);
    assert!(
        ra.ipc() > base.ipc() * 1.05,
        "runahead {:.3} vs base {:.3}",
        ra.ipc(),
        base.ipc()
    );
}

#[test]
fn compute_workloads_barely_enter_runahead() {
    let s = run("sjeng", 8_000);
    assert!(
        s.runahead_cycles < s.cycles / 20,
        "cache-resident workload should almost never run ahead: {} of {}",
        s.runahead_cycles,
        s.cycles
    );
}

#[test]
fn cause_status_table_suppresses_useless_episodes() {
    // milc's misses are sparse and unclustered: episodes rarely
    // overlap another miss, so the CST should learn to suppress.
    let with = run("milc", 8_000);
    let without = run_config(runahead_config(false), "milc", 8_000);
    assert!(
        with.runahead_episodes < without.runahead_episodes,
        "CST should reduce episodes: {} vs {}",
        with.runahead_episodes,
        without.runahead_episodes
    );
    assert!(with.runahead_suppressed > 0);
}

#[test]
fn runahead_never_corrupts_committed_count() {
    for p in ["libquantum", "mcf", "milc", "gcc"] {
        let s = run(p, 3_000);
        assert!(
            s.committed_insts >= 3_000,
            "{p}: checkpoint restore lost instructions"
        );
    }
}

#[test]
fn determinism_holds_under_runahead() {
    let a = run("mcf", 3_000);
    let b = run("mcf", 3_000);
    assert_eq!(a, b);
}
