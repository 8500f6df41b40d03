//! The timed simulation loop.
//!
//! It makes the calls `runner::run` makes — `SimModel::build`, the
//! profile generator, `Core::try_new`, `run_warmup`, `run` — and takes
//! one `Instant` at each phase boundary and nothing else inside the
//! phases. The traced variant wraps the generator and the policy in the
//! per-call timers of [`crate::timed`]; everything else is identical.

use crate::stats::Checks;
use crate::timed::{Meter, TimedPolicy, TimedWorkload};
use mlpwin_ooo::{Core, CoreConfig, EngineCounters, WakeSource, WindowPolicy};
use mlpwin_sim::runner::{RunResult, RunSpec};
use mlpwin_sim::SimError;
use mlpwin_workloads::{profiles, Category, Workload};
use std::rc::Rc;
use std::time::Instant;

/// `(calls, ns)` of the generator and policy timers at the end of
/// warm-up and at the end of the measured run.
#[derive(Debug, Clone, Copy)]
pub struct LayerTimes {
    pub workload: [(u64, u64); 2],
    pub policy: [(u64, u64); 2],
}

/// One simulated spec and how long each phase took.
#[derive(Debug)]
pub struct SimRun {
    pub result: RunResult,
    /// Fresh demand L2 misses of the measured run.
    pub l2_demand_misses: u64,
    /// Coasts ended per wake-up source, over the core's lifetime.
    pub wake: [u64; WakeSource::COUNT],
    /// Start, core built, warm-up done, measurement done.
    pub t: [Instant; 4],
    /// Lifetime engine counters at the end of warm-up.
    pub engine_warm: EngineCounters,
    /// Present on traced runs only.
    pub layers: Option<LayerTimes>,
    /// Factor that rescales this run's host time to reference speed
    /// ([`crate::host`]); 1 until the caller sets it.
    pub scale: f64,
}

impl SimRun {
    fn phase_ns(&self, i: usize) -> u64 {
        (self.t[i + 1] - self.t[i]).as_nanos() as u64
    }

    pub fn build_ns(&self) -> u64 {
        self.phase_ns(0)
    }

    pub fn warmup_ns(&self) -> u64 {
        self.phase_ns(1)
    }

    pub fn measure_ns(&self) -> u64 {
        self.phase_ns(2)
    }

    /// Build + warm-up: the host time spent filling the modelled caches.
    pub fn setup_ns(&self) -> u64 {
        self.build_ns() + self.warmup_ns()
    }

    pub fn total_ns(&self) -> u64 {
        self.setup_ns() + self.measure_ns()
    }

    /// Committed instructions, warm-up (at its requested budget — the
    /// core clears its counters when warm-up ends) plus measured.
    pub fn insts(&self) -> u64 {
        delivered_insts(&self.result)
    }
}

/// Instructions a result stands for: warm-up budget plus measured
/// commits.
pub fn delivered_insts(result: &RunResult) -> u64 {
    result.spec.warmup + result.stats.committed_insts
}

/// Host ns to build `spec`'s core and run its warm-up: the set-up every
/// campaign worker performs before it measures.
pub fn warm_up(spec: &RunSpec) -> Result<u64, SimError> {
    let start = Instant::now();
    let (config, policy) = spec.model.build();
    let workload = profiles::by_name(&spec.profile, spec.seed)?;
    let mut core = Core::try_new(config, workload, policy)?;
    if spec.warmup > 0 {
        core.run_warmup(spec.warmup)?;
    }
    Ok(start.elapsed().as_nanos() as u64)
}

/// Simulates `spec` once, traced or not.
pub fn simulate(spec: &RunSpec, traced: bool) -> Result<SimRun, SimError> {
    let category = profiles::params_by_name(&spec.profile)?.category;
    let start = Instant::now();
    let (config, policy) = spec.model.build();
    let workload = profiles::by_name(&spec.profile, spec.seed)?;
    if !traced {
        return drive(spec, category, start, config, workload, policy, None);
    }
    let meters = (Rc::new(Meter::default()), Rc::new(Meter::default()));
    drive(
        spec,
        category,
        start,
        config,
        TimedWorkload::new(workload, Rc::clone(&meters.0)),
        Box::new(TimedPolicy::new(policy, Rc::clone(&meters.1))),
        Some((&*meters.0, &*meters.1)),
    )
}

fn drive<W: Workload>(
    spec: &RunSpec,
    category: Category,
    start: Instant,
    config: CoreConfig,
    workload: W,
    policy: Box<dyn WindowPolicy>,
    meters: Option<(&Meter, &Meter)>,
) -> Result<SimRun, SimError> {
    let levels = config.levels.clone();
    let mut core = Core::try_new(config, workload, policy)?;
    let built = Instant::now();
    if spec.warmup > 0 {
        core.run_warmup(spec.warmup)?;
    }
    let warmed = Instant::now();
    let engine_warm = core.engine_counters();
    let at_warm = meters.map(|(w, p)| (w.read(), p.read()));
    let stats = core.run(spec.insts)?;
    let measured = Instant::now();

    let layers = meters.zip(at_warm).map(|((w, p), (w0, p0))| LayerTimes {
        workload: [w0, w.read()],
        policy: [p0, p.read()],
    });
    // The epilogue `runner::run` performs, minus its telemetry: the
    // result must compare equal to the runner's.
    core.mem_mut().finalize();
    let engine = core.engine_counters();
    let wake = *core.wake_histogram();
    let mem = core.mem();
    let accesses = |c: &mlpwin_memsys::Cache| c.stats().hits + c.stats().misses;
    let result = RunResult {
        spec: spec.clone(),
        category,
        predictor: core.predictor().stats().clone(),
        provenance: *mem.provenance(),
        l2_miss_cycles: mem.stats().l2_demand_miss_cycles.clone(),
        l1_accesses: accesses(mem.l1d()) + accesses(mem.l1i()),
        l2_accesses: accesses(mem.l2()),
        dram_lines: mem.dram().stats().requests,
        avg_load_latency: stats.avg_load_latency(),
        levels,
        stats,
        engine,
    };
    Ok(SimRun {
        l2_demand_misses: mem.stats().l2_demand_misses,
        result,
        wake,
        t: [start, built, warmed, measured],
        engine_warm,
        layers,
        scale: 1.0,
    })
}

/// Short label for messages: `profile/model/seed`.
pub fn label(spec: &RunSpec) -> String {
    format!("{}/{}/s{}", spec.profile, spec.model.tag(), spec.seed)
}

/// Checks `run` against the reference `runner::run` result and against
/// the identities every result must satisfy: the CPI stack covers every
/// cycle, IPC does not exceed the commit width, and at least the
/// requested instructions committed.
pub fn check_run(run: &SimRun, reference: &RunResult, checks: &mut Checks) {
    let r = &run.result;
    let name = label(&r.spec);
    checks.check(r == reference, || {
        format!("{name}: result differs from runner::run")
    });
    checks.check(r.engine == reference.engine, || {
        format!("{name}: engine counters differ from runner::run")
    });
    check_identities(r, checks);
}

/// The per-result identities alone.
pub fn check_identities(r: &RunResult, checks: &mut Checks) {
    let name = label(&r.spec);
    let width = r.spec.model.build().0.commit_width as f64;
    checks.check(r.stats.cpi_stack_cycles() == r.stats.cycles, || {
        format!("{name}: CPI stack does not sum to the cycle count")
    });
    checks.check(r.stats.ipc() <= width, || {
        format!("{name}: IPC {} exceeds the commit width", r.stats.ipc())
    });
    checks.check(r.stats.committed_insts >= r.spec.insts, || {
        format!("{name}: committed fewer instructions than requested")
    });
}
