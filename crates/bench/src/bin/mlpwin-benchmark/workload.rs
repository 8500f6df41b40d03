//! The four workloads and how each one is measured.
//!
//! Every workload is a spec list. Untraced, a workload repeats its own
//! operation — serial simulation for `sim-mem` and `sim-comp`, three
//! campaigns for `campaign`, a sampled plus an exact re-analysis for
//! `split` — and reports the end-to-end metrics. Traced, every layer is
//! driven with the workload's own specs: the sim loop with per-call
//! timers, the campaign legs, a split of the first spec, and the layer
//! probes.

use crate::host::Host;
use crate::layers;
use crate::legs::{self, CampaignLegs, Leg, SplitLegs};
use crate::sim::{self, check_run, delivered_insts, label, LayerTimes, SimRun};
use crate::spans::Spans;
use crate::stats::{Checks, Report, Scope};
use crate::Ctx;
use mlpwin_ooo::WakeSource;
use mlpwin_sim::runner::{self, RunResult, RunSpec};
use mlpwin_sim::{Journal, SimModel};
use std::fmt::Display;
use std::path::Path;
use std::time::Instant;

pub const NAMES: [&str; 4] = ["sim-mem", "sim-comp", "campaign", "split"];

/// Profiles of the `campaign` workload; each runs under base and
/// dynamic with two consecutive seeds.
const CAMPAIGN_PROFILES: [&str; 8] = [
    "libquantum",
    "omnetpp",
    "GemsFDTD",
    "hash-probe",
    "gcc",
    "bwaves",
    "gobmk",
    "sjeng",
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Sim,
    Campaign,
    Split,
}

pub struct Plan {
    pub name: &'static str,
    pub kind: Kind,
    pub specs: Vec<RunSpec>,
}

/// The named workload at `seed`; `smoke` shrinks every budget. Each row
/// runs at `seeds` consecutive seeds from `seed`: one seed's inputs move
/// a sim workload's host time by about 10%, three seeds average that
/// down.
pub fn plan(name: &str, seed: u64, smoke: bool) -> Option<Plan> {
    use SimModel::{Base, Dynamic, Runahead};
    let budget = |full: (u64, u64), tiny: (u64, u64)| if smoke { tiny } else { full };
    let (name, kind, rows, seeds, (warmup, insts)) = match name {
        "sim-mem" => (
            "sim-mem",
            Kind::Sim,
            vec![
                ("libquantum", Base),
                ("libquantum", Dynamic),
                ("libquantum", Runahead),
                ("mcf", Base),
                ("mcf", Dynamic),
                ("hash-probe", Base),
                ("hash-probe", Dynamic),
                ("omnetpp", Base),
                ("omnetpp", Dynamic),
            ],
            3,
            budget((50_000, 50_000), (2_000, 2_000)),
        ),
        "sim-comp" => (
            "sim-comp",
            Kind::Sim,
            vec![
                ("gcc", Base),
                ("gcc", Dynamic),
                ("bwaves", Base),
                ("bwaves", Dynamic),
                ("gobmk", Base),
                ("gobmk", Dynamic),
            ],
            3,
            budget((50_000, 100_000), (2_000, 4_000)),
        ),
        "campaign" => (
            "campaign",
            Kind::Campaign,
            CAMPAIGN_PROFILES
                .iter()
                .flat_map(|&p| [Base, Dynamic].map(|m| (p, m)))
                .collect(),
            2,
            budget((20_000, 20_000), (1_000, 1_000)),
        ),
        "split" => (
            "split",
            Kind::Split,
            vec![("omnetpp", Dynamic)],
            1,
            budget((250_000, 3_000_000), (2_000, 40_000)),
        ),
        _ => return None,
    };
    let specs = rows
        .into_iter()
        .flat_map(|(profile, model)| {
            (0..seeds).map(move |k| RunSpec {
                seed: seed.wrapping_add(k),
                ..RunSpec::new(profile, model).with_budget(warmup, insts)
            })
        })
        .collect();
    Some(Plan { name, kind, specs })
}

/// One sample: scope, name, unit, value.
type Sample = (Scope, &'static str, &'static str, f64);

/// Measures `plan`. Failures end the workload early and are counted.
pub fn run(plan: &Plan, ctx: &Ctx, spans: &mut Spans) -> Report {
    let mut report = Report::new(plan.name);
    let dir = ctx.work.join(plan.name);
    if let Err(e) = measure(plan, ctx, &dir, spans, &mut report) {
        report.checks.fail(&format!("{}: {e}", plan.name));
    }
    std::fs::remove_dir_all(&dir).ok();
    report
}

/// Counts one attempt that succeeded; a failure is counted once, where
/// the error ends the workload.
fn attempt<T, E: Display>(checks: &mut Checks, what: &str, r: Result<T, E>) -> Result<T, String> {
    let value = r.map_err(|e| format!("{what}: {e}"))?;
    checks.attempted += 1;
    Ok(value)
}

fn measure(
    plan: &Plan,
    ctx: &Ctx,
    dir: &Path,
    spans: &mut Spans,
    report: &mut Report,
) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;

    // Untimed warm-up and check repeat. The reference results come from
    // `runner::run` itself; their wall time is what the specs cost
    // in-process.
    let mut results = Vec::with_capacity(plan.specs.len());
    let mut sim_ns = 0;
    for spec in &plan.specs {
        let started = Instant::now();
        results.push(attempt(
            &mut report.checks,
            &label(spec),
            runner::run(spec),
        )?);
        sim_ns += started.elapsed().as_nanos() as u64;
    }
    let journal = reference_journal(&results, dir)?;
    report.digest = fnv1a(&journal);
    let refs = Refs {
        results,
        journal,
        sim_s: sim_ns as f64 / 1e9,
    };
    let mut host = Host::new();
    // The reference pass ran the sim loop's own code; campaigns and
    // splits have processes, stores and page cache to warm first.
    if plan.kind != Kind::Sim {
        repeat(plan, ctx, &refs, dir, &mut host, &mut report.checks)?;
        host.take_peak_rss_mb();
    }

    let started = Instant::now();
    let (mut done, mut last) = (0, 0.0);
    while ctx.more(done, started, last) {
        let pass = Instant::now();
        let samples = if ctx.trace {
            trace_pass(plan, ctx, &refs, dir, &mut host, &mut report.checks, spans)?
        } else {
            repeat(plan, ctx, &refs, dir, &mut host, &mut report.checks)?
        };
        for (scope, name, unit, value) in samples {
            report.add(scope, name, unit, value);
        }
        done += 1;
        last = pass.elapsed().as_secs_f64();
    }
    report.repeats = done;
    // The timed spans' peak, which includes what the reference pass
    // holds but not the reference kernel.
    if let Some(mb) = host.take_peak_rss_mb() {
        report.add(Scope::EndToEnd, "peak_rss_mb", "MB", mb);
    }
    Ok(())
}

/// What every repeat is checked against.
struct Refs {
    /// `runner::run` of every spec, in spec order.
    results: Vec<RunResult>,
    /// Those results appended to a `Journal`, in spec order.
    journal: Vec<u8>,
    /// Summed `runner::run` wall seconds.
    sim_s: f64,
}

fn reference_journal(results: &[RunResult], dir: &Path) -> Result<Vec<u8>, String> {
    let path = dir.join("reference.jsonl");
    std::fs::remove_file(&path).ok();
    let journal = Journal::new(&path);
    for r in results {
        journal.append(&r.spec, r).map_err(|e| e.to_string())?;
    }
    std::fs::read(&path).map_err(|e| format!("read {}: {e}", path.display()))
}

/// FNV-1a over `bytes`: the digest of a workload's journal lines.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// One timed repeat of the workload's own operation, and its end-to-end
/// and leg metrics. Spans that run on this thread — simulations, the
/// campaign's in-process warm-ups, the split sweep — are rescaled to
/// reference speed ([`crate::host`]); campaigns and split phase 2, which
/// fan out to worker processes and threads on every CPU, are wall time.
fn repeat(
    plan: &Plan,
    ctx: &Ctx,
    refs: &Refs,
    dir: &Path,
    host: &mut Host,
    checks: &mut Checks,
) -> Result<Vec<Sample>, String> {
    use Scope::{EndToEnd, Info};
    let insts = refs.results.iter().map(delivered_insts).sum::<u64>() as f64;
    let jobs = plan.specs.len() as f64;
    Ok(match plan.kind {
        Kind::Sim => {
            let runs = sim_loop(&plan.specs, &refs.results, false, host, checks)?;
            let setup_ns: f64 = runs.iter().map(|r| r.setup_ns() as f64 * r.scale).sum();
            vec![
                (EndToEnd, "sim_ns_per_inst", "ns/inst", ns_per_inst(&runs)),
                (EndToEnd, "setup_s", "s", setup_ns / 1e9),
                (Info, "wall_ns_per_inst", "ns/inst", wall_ns_per_inst(&runs)),
            ]
        }
        Kind::Campaign => {
            let legs = campaign(&plan.specs, ctx, refs, dir, checks)?;
            host.restart();
            let mut setup_ns = 0;
            for spec in &plan.specs {
                setup_ns += attempt(checks, &label(spec), sim::warm_up(spec))?;
            }
            let setup = setup_ns as f64 / 1e9 * host.rescale();
            let simulating: Vec<f64> = legs.simulating().map(Leg::secs).collect();
            let mut samples = vec![
                (
                    EndToEnd,
                    "sim_ns_per_inst",
                    "ns/inst",
                    simulating.iter().sum::<f64>() * 1e9 / (simulating.len() as f64 * insts),
                ),
                (EndToEnd, "setup_s", "s", setup),
                (
                    Info,
                    "campaign_specs_per_s",
                    "specs/s",
                    jobs / legs.local.secs(),
                ),
                (
                    Info,
                    "cached_specs_per_s",
                    "specs/s",
                    jobs / legs.cached_secs(),
                ),
            ];
            if let Some(fleet) = &legs.fleet {
                samples.push((Info, "fleet_specs_per_s", "specs/s", jobs / fleet.secs()));
            }
            samples
        }
        Kind::Split => {
            let legs = split(&plan.specs[0], &refs.results[0], ctx, dir, host, checks)?;
            legs::check_sampling(&legs, &refs.results[0], checks);
            let (sampled, exact) = (legs.sampled.phase2_secs, legs.exact.phase2_secs);
            vec![
                (
                    EndToEnd,
                    "sim_ns_per_inst",
                    "ns/inst",
                    (sampled + exact) * 1e9 / insts,
                ),
                (
                    EndToEnd,
                    "setup_s",
                    "s",
                    legs.sampled.sweep_secs * legs.sweep_scale,
                ),
                (Info, "split_sampled_s", "s", sampled),
                (Info, "split_exact_s", "s", exact),
            ]
        }
    })
}

/// Host ns per committed instruction over `runs`, every phase counted,
/// at reference speed.
fn ns_per_inst(runs: &[SimRun]) -> f64 {
    let ns: f64 = runs.iter().map(|r| r.total_ns() as f64 * r.scale).sum();
    ns / runs.iter().map(SimRun::insts).sum::<u64>() as f64
}

/// [`ns_per_inst`] in wall time, not rescaled.
fn wall_ns_per_inst(runs: &[SimRun]) -> f64 {
    let ns: u64 = runs.iter().map(SimRun::total_ns).sum();
    ns as f64 / runs.iter().map(SimRun::insts).sum::<u64>() as f64
}

fn sim_loop(
    specs: &[RunSpec],
    refs: &[RunResult],
    traced: bool,
    host: &mut Host,
    checks: &mut Checks,
) -> Result<Vec<SimRun>, String> {
    let mut runs = Vec::with_capacity(specs.len());
    host.restart();
    for (spec, reference) in specs.iter().zip(refs) {
        let mut run = attempt(checks, &label(spec), sim::simulate(spec, traced))?;
        run.scale = host.rescale();
        check_run(&run, reference, checks);
        runs.push(run);
    }
    Ok(runs)
}

fn campaign(
    specs: &[RunSpec],
    ctx: &Ctx,
    refs: &Refs,
    dir: &Path,
    checks: &mut Checks,
) -> Result<CampaignLegs, String> {
    let dir = dir.join("campaign");
    std::fs::remove_dir_all(&dir).ok();
    let legs = legs::campaign_legs(specs, ctx, &dir);
    std::fs::remove_dir_all(&dir).ok();
    let legs = attempt(checks, "campaign", legs)?;
    legs::check_campaign(&legs, &refs.journal, checks);
    Ok(legs)
}

fn split(
    spec: &RunSpec,
    reference: &RunResult,
    ctx: &Ctx,
    dir: &Path,
    host: &mut Host,
    checks: &mut Checks,
) -> Result<SplitLegs, String> {
    let dir = dir.join("split");
    let legs = legs::split_legs(spec, reference.stats.cycles, ctx.workers, &dir, host);
    std::fs::remove_dir_all(&dir).ok();
    let legs = attempt(checks, "split", legs)?;
    // Two `run_split` calls.
    checks.attempted += 1;
    legs::check_split(&legs, reference, checks);
    Ok(legs)
}

/// One traced pass: every layer, driven with this workload's specs.
fn trace_pass(
    plan: &Plan,
    ctx: &Ctx,
    refs: &Refs,
    dir: &Path,
    host: &mut Host,
    checks: &mut Checks,
    spans: &mut Spans,
) -> Result<Vec<Sample>, String> {
    let w = plan.name;
    let pass = spans.open(w, "trace pass", None);
    let mut samples = Vec::new();

    let span = spans.open(w, "sim untraced", Some(pass));
    let plain = sim_loop(&plan.specs, &refs.results, false, host, checks)?;
    spans.close(span);
    let span = spans.open(w, "sim traced", Some(pass));
    let traced = sim_loop(&plan.specs, &refs.results, true, host, checks)?;
    for run in &traced {
        record_sim_spans(spans, w, span, run, checks);
    }
    spans.close(span);
    samples.extend(sim_layers(&traced));
    samples.push((
        Scope::Layer,
        "trace.overhead",
        "ratio",
        ns_per_inst(&traced) / ns_per_inst(&plain),
    ));

    let legs = campaign(&plan.specs, ctx, refs, dir, checks)?;
    record_campaign_spans(spans, w, pass, &legs);
    let jobs = plan.specs.len();
    let overhead = |secs: f64, parallel: usize| {
        (secs * parallel.min(jobs) as f64 - refs.sim_s) * 1e3 / jobs as f64
    };
    samples.extend([
        (Scope::Layer, "campaign.sim_s", "s", refs.sim_s),
        (
            Scope::Layer,
            "campaign.overhead_ms_per_job",
            "ms/job",
            overhead(legs.local.secs(), ctx.workers),
        ),
    ]);
    if let Some(fleet) = &legs.fleet {
        samples.push((
            Scope::Layer,
            "fleet.overhead_ms_per_job",
            "ms/job",
            overhead(fleet.secs(), ctx.workers),
        ));
    }

    let legs = split(&plan.specs[0], &refs.results[0], ctx, dir, host, checks)?;
    if plan.kind == Kind::Split {
        legs::check_sampling(&legs, &refs.results[0], checks);
    }
    record_split_spans(spans, w, pass, &legs);
    samples.extend([
        (
            Scope::Layer,
            "split.intervals",
            "count",
            legs.exact.n_intervals as f64,
        ),
        (
            Scope::Layer,
            "split.simulated",
            "count",
            legs.exact.simulated as f64,
        ),
        (
            Scope::Layer,
            "split.cached",
            "count",
            legs.exact.cached as f64,
        ),
        (
            Scope::Layer,
            "split.interval_ms",
            "ms",
            legs.interval_secs() * 1e3,
        ),
    ]);

    let span = spans.open(w, "layer probes", Some(pass));
    samples.extend(probe_layers(plan, ctx, refs, dir, checks, spans, span)?);
    spans.close(span);
    spans.close(pass);
    Ok(samples)
}

/// Per-layer numbers of the traced sim loop, summed over its runs.
fn sim_layers(runs: &[SimRun]) -> Vec<Sample> {
    use Scope::Layer;
    let sum = |f: &dyn Fn(&SimRun) -> u64| runs.iter().map(f).sum::<u64>() as f64;
    let engine = |f: fn(&mlpwin_ooo::EngineCounters) -> u64| sum(&|r| f(&r.result.engine));
    let stats = |f: fn(&mlpwin_ooo::CoreStats) -> u64| sum(&|r| f(&r.result.stats));
    let timers = |f: fn(&LayerTimes) -> u64| sum(&|r| f(&r.layers.expect("traced run")));
    // The core's own time in the measured phase: the phase minus the
    // generator and policy time inside it.
    let ooo_measure_ns = sum(&|r| r.measure_ns())
        - timers(|l| l.workload[1].1 - l.workload[0].1 + l.policy[1].1 - l.policy[0].1);
    let measure_stepped = sum(&|r| r.result.engine.stepped_cycles - r.engine_warm.stepped_cycles);
    let (stepped, skipped) = (engine(|e| e.stepped_cycles), engine(|e| e.skipped_cycles));
    let branches = sum(&|r| {
        r.result.predictor.conditional_branches + r.result.predictor.unconditional_branches
    });
    let mut samples = vec![
        (Layer, "ooo.build_ms", "ms", sum(&|r| r.build_ns()) / 1e6),
        (Layer, "ooo.warmup_s", "s", sum(&|r| r.warmup_ns()) / 1e9),
        (Layer, "ooo.measure_s", "s", sum(&|r| r.measure_ns()) / 1e9),
        (Layer, "ooo.stepped_cycles", "count", stepped),
        (Layer, "ooo.skipped_cycles", "count", skipped),
        (
            Layer,
            "ooo.skip_fraction",
            "ratio",
            skipped / (stepped + skipped),
        ),
        (
            Layer,
            "ooo.events_posted",
            "count",
            engine(|e| e.events_posted),
        ),
        (
            Layer,
            "ooo.events_popped",
            "count",
            engine(|e| e.events_popped),
        ),
        (
            Layer,
            "ooo.ns_per_stepped_cycle",
            "ns/cycle",
            ooo_measure_ns / measure_stepped,
        ),
        (
            Layer,
            "ooo.useful_dispatch_ratio",
            "ratio",
            stats(|s| s.committed_insts) / stats(|s| s.dispatched_total),
        ),
        (
            Layer,
            "workloads.next_inst_calls",
            "count",
            timers(|l| l.workload[1].0),
        ),
        (
            Layer,
            "workloads.next_inst_ns",
            "ns",
            timers(|l| l.workload[1].1),
        ),
        (
            Layer,
            "core.policy_calls",
            "count",
            timers(|l| l.policy[1].0),
        ),
        (Layer, "core.policy_ns", "ns", timers(|l| l.policy[1].1)),
        (
            Layer,
            "core.transitions",
            "count",
            stats(|s| s.transitions_up + s.transitions_down),
        ),
        (
            Layer,
            "runahead.episodes",
            "count",
            stats(|s| s.runahead_episodes),
        ),
        (
            Layer,
            "runahead.cycles",
            "count",
            stats(|s| s.runahead_cycles),
        ),
        (
            Layer,
            "memsys.l1_accesses",
            "count",
            sum(&|r| r.result.l1_accesses),
        ),
        (
            Layer,
            "memsys.l2_accesses",
            "count",
            sum(&|r| r.result.l2_accesses),
        ),
        (
            Layer,
            "memsys.dram_lines",
            "count",
            sum(&|r| r.result.dram_lines),
        ),
        (
            Layer,
            "memsys.l2_demand_misses",
            "count",
            sum(&|r| r.l2_demand_misses),
        ),
        (
            Layer,
            "branch.mispredict_ratio",
            "ratio",
            sum(&|r| r.result.predictor.total_mispredicts()) / branches,
        ),
    ];
    for source in WakeSource::ALL {
        samples.push((
            Layer,
            wake_name(source),
            "count",
            sum(&|r| r.wake[source.index()]),
        ));
    }
    samples
}

fn wake_name(source: WakeSource) -> &'static str {
    match source {
        WakeSource::OperandReady => "ooo.wake.operand_ready",
        WakeSource::Completion => "ooo.wake.completion",
        WakeSource::MemSystem => "ooo.wake.mem_system",
        WakeSource::EpisodeEnd => "ooo.wake.episode_end",
        WakeSource::AllocStall => "ooo.wake.alloc_stall",
        WakeSource::PolicyQuiet => "ooo.wake.policy_quiet",
        WakeSource::FrontEnd => "ooo.wake.front_end",
        WakeSource::IntervalEpoch => "ooo.wake.interval_epoch",
        WakeSource::SnapshotCadence => "ooo.wake.snapshot_cadence",
        WakeSource::Watchdog => "ooo.wake.watchdog",
        WakeSource::Deadline => "ooo.wake.deadline",
    }
}

/// A traced run as spans — build, warm-up, measure — with the generator
/// and policy timers folded into the phase they ran in. Checks that the
/// timers fit inside their phase: the core's own (`ooo`) self time is
/// the remainder and must not be negative.
fn record_sim_spans(
    spans: &mut Spans,
    w: &'static str,
    parent: u64,
    run: &SimRun,
    checks: &mut Checks,
) {
    let t = run.t;
    let l = run.layers.expect("traced run");
    let run_span = spans.record(
        w,
        format!("run {}", label(&run.result.spec)),
        Some(parent),
        t[0],
        t[3],
    );
    spans.record(w, "build", Some(run_span), t[0], t[1]);
    let warm = spans.record(w, "warmup", Some(run_span), t[1], t[2]);
    let measure = spans.record(w, "measure", Some(run_span), t[2], t[3]);
    let delta = |a: (u64, u64), b: (u64, u64)| (b.0 - a.0, b.1 - a.1);
    let phases = [
        (
            warm,
            (0, 0),
            l.workload[0],
            (0, 0),
            l.policy[0],
            run.setup_ns(),
        ),
        (
            measure,
            l.workload[0],
            l.workload[1],
            l.policy[0],
            l.policy[1],
            run.measure_ns(),
        ),
    ];
    for (span, w0, w1, p0, p1, phase_ns) in phases {
        let (wd, pd) = (delta(w0, w1), delta(p0, p1));
        spans.aggregate(span, "workloads", wd.0, wd.1);
        spans.aggregate(span, "core", pd.0, pd.1);
        checks.check(wd.1 + pd.1 <= phase_ns, || {
            format!(
                "{}: generator + policy time exceeds its phase",
                label(&run.result.spec)
            )
        });
    }
}

fn record_campaign_spans(spans: &mut Spans, w: &'static str, parent: u64, legs: &CampaignLegs) {
    spans.record(
        w,
        "campaign local",
        Some(parent),
        legs.local.start,
        legs.local.end,
    );
    if let Some(fleet) = &legs.fleet {
        spans.record(w, "campaign fleet", Some(parent), fleet.start, fleet.end);
    }
    let (first, last) = (&legs.cached[0], &legs.cached[legs.cached.len() - 1]);
    let cached = spans.record(w, "campaign cached", Some(parent), first.start, last.end);
    for leg in &legs.cached {
        spans.record(w, "cached campaign", Some(cached), leg.start, leg.end);
    }
}

/// The split calls as spans; sweep and phase 2 are placed from the
/// durations `SplitOutcome` reports (the sweep first, phase 2 last).
fn record_split_spans(spans: &mut Spans, w: &'static str, parent: u64, legs: &SplitLegs) {
    let [t0, t1, t2] = legs.t;
    let secs = std::time::Duration::from_secs_f64;
    let sampled = spans.record(w, "split sampled", Some(parent), t0, t1);
    spans.record(
        w,
        "split sweep",
        Some(sampled),
        t0,
        t0 + secs(legs.sampled.sweep_secs),
    );
    spans.record(
        w,
        "split phase 2",
        Some(sampled),
        t1 - secs(legs.sampled.phase2_secs),
        t1,
    );
    let exact = spans.record(w, "split exact", Some(parent), t1, t2);
    spans.record(
        w,
        "split phase 2",
        Some(exact),
        t2 - secs(legs.exact.phase2_secs),
        t2,
    );
}

/// The layer probes of [`crate::layers`], each as a span.
fn probe_layers(
    plan: &Plan,
    ctx: &Ctx,
    refs: &Refs,
    dir: &Path,
    checks: &mut Checks,
    spans: &mut Spans,
    parent: u64,
) -> Result<Vec<Sample>, String> {
    use Scope::Layer;
    let w = plan.name;
    let (specs, results, first) = (&plan.specs, &refs.results, &plan.specs[0]);
    let mut span = |name: &str, start: Instant| {
        spans.record(w, name.to_string(), Some(parent), start, Instant::now());
    };

    let t = Instant::now();
    let (access_ns, _) = attempt(checks, "memsys replay", layers::memsys_replay(specs))?;
    span("memsys replay", t);
    let t = Instant::now();
    let (predict_ns, _) = attempt(checks, "branch replay", layers::branch_replay(specs))?;
    span("branch replay", t);
    let t = Instant::now();
    let (image, encode_ns, decode_ns) =
        attempt(checks, "snapshot codec", layers::snap_codec(first))?;
    span("snapshot codec", t);
    let t = Instant::now();
    let saved = layers::snapshot_save(first, &image, &dir.join("snapshots"));
    let save_ns = attempt(checks, "snapshot save", saved)?;
    span("snapshot save", t);
    let t = Instant::now();
    let queued = layers::queue(specs, dir, checks);
    let q = attempt(checks, "queue", queued)?;
    span("queue", t);
    let t = Instant::now();
    let cached = layers::cache(results, dir, checks);
    let (absorb_ns, lookup_ns) = attempt(checks, "cache", cached)?;
    span("cache", t);
    let t = Instant::now();
    let (encode_line_ns, decode_line_ns, line_bytes) = layers::journal(results, checks);
    span("journal codec", t);
    let t = Instant::now();
    let (roundtrip_ns, frame_bytes) = layers::wire(results, checks);
    span("wire codec", t);
    let t = Instant::now();
    let spawn_ns = layers::spawn(first, &ctx.sim_exe, dir, checks);
    span("worker spawn", t);

    Ok(vec![
        (Layer, "memsys.access_ns", "ns/access", access_ns),
        (Layer, "branch.predict_ns", "ns/branch", predict_ns),
        (Layer, "snap.bytes", "bytes", image.len() as f64),
        (Layer, "snap.encode_ms", "ms", encode_ns as f64 / 1e6),
        (Layer, "snap.decode_ms", "ms", decode_ns as f64 / 1e6),
        (Layer, "snapshot.save_ms", "ms", save_ns as f64 / 1e6),
        (Layer, "queue.submit_us", "us", q.submit_ns / 1e3),
        (Layer, "queue.lease_us", "us", q.lease_ns / 1e3),
        (Layer, "queue.complete_us", "us", q.complete_ns / 1e3),
        (Layer, "queue.replay_ms", "ms", q.replay_ns as f64 / 1e6),
        (Layer, "cache.absorb_ms", "ms", absorb_ns as f64 / 1e6),
        (Layer, "cache.lookup_us", "us", lookup_ns / 1e3),
        (Layer, "journal.encode_us", "us", encode_line_ns / 1e3),
        (Layer, "journal.decode_us", "us", decode_line_ns / 1e3),
        (Layer, "journal.line_bytes", "bytes", line_bytes),
        (Layer, "wire.roundtrip_us", "us", roundtrip_ns / 1e3),
        (Layer, "wire.frame_bytes", "bytes", frame_bytes),
        (Layer, "supervisor.spawn_ms", "ms", spawn_ns as f64 / 1e6),
    ])
}
