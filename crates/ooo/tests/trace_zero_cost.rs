//! Tracing must never perturb the simulation.
//!
//! The statistics of a run are a pure function of the configuration's
//! *modelled* knobs; the observability switch (`trace`) must be inert:
//! a run with tracing on and the same run with it off produce
//! bit-identical `CoreStats`. The remaining tests check what the tracer
//! records when it is on.

use mlpwin_ooo::{Core, CoreConfig, CoreStats, FixedLevelPolicy, TraceEventKind};
use mlpwin_workloads::{profiles, Workload};

fn build(profile: &str, trace: bool) -> Core<impl Workload> {
    let cfg = CoreConfig {
        trace,
        ..CoreConfig::default()
    };
    let w = profiles::by_name(profile, 7).expect("profile exists");
    Core::new(cfg, w, Box::new(FixedLevelPolicy::new(0)))
}

fn run_with(trace: bool, insts: u64) -> CoreStats {
    let mut core = build("libquantum", trace);
    core.run_warmup(5_000).expect("warm-up must not stall");
    core.run(insts).expect("healthy run")
}

#[test]
fn trace_knob_never_changes_stats() {
    let off = run_with(false, 6_000);
    let on = run_with(true, 6_000);
    assert_eq!(off, on, "enabling tracing must not change statistics");
}

#[test]
fn runtime_disabled_records_nothing() {
    let mut core = build("libquantum", false);
    core.run(3_000).expect("healthy run");
    assert!(core.tracer().is_none(), "switch off, no tracer");
}

#[test]
fn enabled_tracer_captures_llc_misses_on_a_memory_profile() {
    let mut core = build("libquantum", true);
    core.run_warmup(5_000).expect("warm-up must not stall");
    core.run(6_000).expect("healthy run");
    let tracer = core.tracer().expect("switch on, tracer allocated");
    assert!(tracer.recorded() > 0, "libquantum must produce events");
    assert!(
        tracer
            .events()
            .any(|e| matches!(e.kind, TraceEventKind::LlcMiss { .. })),
        "a memory-bound profile must log LLC misses"
    );
    // Events arrive in simulation order.
    let cycles: Vec<_> = tracer.events().map(|e| e.cycle).collect();
    assert!(cycles.windows(2).all(|w| w[0] <= w[1]));
}

#[test]
fn warmup_reset_restarts_the_trace() {
    let mut core = build("libquantum", true);
    core.run_warmup(6_000).expect("warm-up must not stall");
    let tracer = core.tracer().expect("tracer");
    assert_eq!(tracer.recorded(), 0, "warm-up events are discarded");
}

/// Events share the measured-cycle clock of the interval samples, not
/// the core's absolute clock, which also counts the warm-up. With a
/// warm-up longer than the measured window, an absolute stamp lands
/// past the end of the window.
#[test]
fn events_are_stamped_on_the_measured_clock() {
    let mut core = build("mcf", true);
    core.run_warmup(20_000).expect("warm-up must not stall");
    let stats = core.run(5_000).expect("healthy run");
    assert!(
        core.cycle() > 2 * stats.cycles,
        "the warm-up must outlast the measured window ({} absolute, {} measured)",
        core.cycle(),
        stats.cycles
    );
    let tracer = core.tracer().expect("tracer");
    assert!(tracer.recorded() > 0, "mcf must produce events");
    for e in tracer.events() {
        assert!(
            (1..=stats.cycles).contains(&e.cycle),
            "{} at cycle {} lies outside the measured window 1..={}",
            e.kind.name(),
            e.cycle,
            stats.cycles
        );
    }
}
