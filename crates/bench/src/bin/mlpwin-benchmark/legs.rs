//! The multi-step legs: a spec list through the campaign control plane
//! (local workers, a loopback fleet, and cache-served reruns), and one
//! spec through the interval-parallel splitter (sampled, then exact).

use crate::host::Host;
use crate::stats::Checks;
use crate::Ctx;
use mlpwin_sim::runner::{RunResult, RunSpec};
use mlpwin_sim::split::{self, run_split, SplitConfig, SplitOutcome};
use mlpwin_sim::{run_campaign, CampaignConfig, CampaignOutcome, CampaignReport, Lane, SimError};
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Cache-served campaigns per sample: one takes tens of milliseconds,
/// too short to time alone.
pub const CACHED_CAMPAIGNS: usize = 10;
/// Intervals a split divides its run into.
pub const SPLIT_INTERVALS: u64 = 24;
/// Systematic-sampling stride of the sampled split.
pub const SAMPLE_STRIDE: u64 = 4;
/// Name the loopback fleet worker registers under.
const REMOTE: &str = "remote";

/// One finished campaign.
#[derive(Debug)]
pub struct Leg {
    pub start: Instant,
    pub end: Instant,
    pub report: CampaignReport,
    /// The finalized `journal.jsonl` bytes.
    pub journal: Vec<u8>,
    /// Whether the loopback fleet worker leased at least one job.
    pub remote_leased: bool,
}

impl Leg {
    pub fn secs(&self) -> f64 {
        (self.end - self.start).as_secs_f64()
    }
}

#[derive(Debug)]
pub struct CampaignLegs {
    pub local: Leg,
    /// Absent on a one-CPU host, where a loopback worker beside a local
    /// one would run more simulating processes than there are CPUs.
    pub fleet: Option<Leg>,
    pub cached: Vec<Leg>,
}

impl CampaignLegs {
    /// Mean wall seconds of one cache-served campaign.
    pub fn cached_secs(&self) -> f64 {
        self.cached.iter().map(Leg::secs).sum::<f64>() / self.cached.len() as f64
    }

    /// The campaigns that simulated: local, then fleet when it ran.
    pub fn simulating(&self) -> impl Iterator<Item = &Leg> {
        std::iter::once(&self.local).chain(&self.fleet)
    }
}

/// Runs `specs` as three campaigns under `dir`: `ctx.workers`
/// child-process workers; `ctx.workers - 1` local workers plus one
/// loopback `mlpwin-worker` (skipped below two workers); then
/// [`CACHED_CAMPAIGNS`] fresh campaigns warmed from the first one's
/// journal.
pub fn campaign_legs(specs: &[RunSpec], ctx: &Ctx, dir: &Path) -> Result<CampaignLegs, String> {
    let jobs: Vec<(RunSpec, Lane)> = specs.iter().map(|s| (s.clone(), Lane::Normal)).collect();
    let local_cfg = CampaignConfig {
        workers: ctx.workers,
        ..CampaignConfig::new(dir.join("local"), &ctx.sim_exe)
    };
    let start = Instant::now();
    let outcome = run_campaign(&jobs, &local_cfg);
    let local = finish(&local_cfg, start, outcome)?;
    let fleet = if ctx.workers >= 2 {
        Some(fleet_leg(&jobs, ctx, &dir.join("fleet"))?)
    } else {
        None
    };
    let cached = (0..CACHED_CAMPAIGNS)
        .map(|i| {
            let cfg = CampaignConfig {
                cache: Some(local_cfg.journal_path()),
                ..CampaignConfig::new(dir.join(format!("cached{i}")), &ctx.sim_exe)
            };
            let start = Instant::now();
            let outcome = run_campaign(&jobs, &cfg);
            finish(&cfg, start, outcome)
        })
        .collect::<Result<_, _>>()?;
    Ok(CampaignLegs {
        local,
        fleet,
        cached,
    })
}

fn finish(
    cfg: &CampaignConfig,
    start: Instant,
    outcome: Result<CampaignOutcome, SimError>,
) -> Result<Leg, String> {
    let end = Instant::now();
    let dir = cfg.dir.display();
    let report = match outcome {
        Ok(CampaignOutcome::Complete(report)) => report,
        Ok(CampaignOutcome::Interrupted(report)) => {
            return Err(format!(
                "campaign {dir} was interrupted: {}",
                report.render()
            ))
        }
        Err(e) => return Err(format!("campaign {dir}: {e}")),
    };
    let journal = std::fs::read(cfg.journal_path())
        .map_err(|e| format!("campaign {dir}: read journal: {e}"))?;
    let wal = std::fs::read_to_string(cfg.wal_path()).unwrap_or_default();
    Ok(Leg {
        start,
        end,
        report,
        journal,
        remote_leased: wal.contains(&format!("{REMOTE}#")),
    })
}

/// `ctx.workers - 1` local workers plus one `mlpwin-worker` dialing the
/// controller's loopback fleet listener. The worker keeps retrying its
/// connection after the controller drains, so it is killed and reaped as
/// soon as the campaign returns.
fn fleet_leg(jobs: &[(RunSpec, Lane)], ctx: &Ctx, dir: &Path) -> Result<Leg, String> {
    let cfg = CampaignConfig {
        workers: ctx.workers - 1,
        fleet_listen: Some("127.0.0.1:0".to_string()),
        ..CampaignConfig::new(dir, &ctx.sim_exe)
    };
    std::thread::scope(|scope| {
        let start = Instant::now();
        let controller = scope.spawn(|| run_campaign(jobs, &cfg));
        let mut remote = None;
        let deadline = start + Duration::from_secs(60);
        while !controller.is_finished() && Instant::now() < deadline {
            if let Some(addr) = std::fs::read_to_string(cfg.fleet_addr_path())
                .ok()
                .filter(|a| a.ends_with('\n'))
            {
                remote = Some(
                    Command::new(&ctx.worker_exe)
                        .args(["--connect", addr.trim(), "--name", REMOTE])
                        .arg("--snapshot-dir")
                        .arg(dir.join("remote-snapshots"))
                        .args(["--snapshot-cycles", &cfg.snapshot_cycles.to_string()])
                        .stdout(Stdio::null())
                        .stderr(Stdio::null())
                        .spawn(),
                );
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        let outcome = controller.join().unwrap_or_else(|_| {
            Err(SimError::Panic {
                message: "fleet controller thread panicked".to_string(),
            })
        });
        let leg = finish(&cfg, start, outcome);
        match remote {
            Some(Ok(mut child)) => {
                child.kill().ok();
                child.wait().ok();
                leg
            }
            Some(Err(e)) => Err(format!("spawn {}: {e}", ctx.worker_exe.display())),
            None => Err("the fleet listener never published its address".to_string()),
        }
    })
}

/// The campaign checks: every leg finishes every job without failures,
/// the cache-served legs simulate nothing, and every finalized journal
/// is byte-identical to the serial in-process reference.
pub fn check_campaign(legs: &CampaignLegs, reference: &[u8], checks: &mut Checks) {
    let jobs = legs.local.report.jobs;
    let named = [("local", &legs.local)]
        .into_iter()
        .chain(legs.fleet.iter().map(|leg| ("fleet", leg)))
        .chain(legs.cached.iter().map(|leg| ("cached", leg)));
    for (name, leg) in named {
        let r = &leg.report;
        checks.check(r.done == r.jobs && r.jobs == jobs, || {
            format!("{name} campaign: {}", r.render())
        });
        checks.check(r.failed == 0 && r.quarantined == 0, || {
            format!("{name} campaign: {}", r.render())
        });
        checks.check(leg.journal == reference, || {
            format!("{name} campaign: journal.jsonl differs from the serial reference")
        });
        if name == "cached" {
            checks.check(r.simulated == 0 && r.cache_hits == r.jobs, || {
                format!("cached campaign simulated: {}", r.render())
            });
        }
    }
    // A one-job campaign may finish on the local worker before the
    // remote one connects.
    if let Some(fleet) = legs.fleet.as_ref().filter(|_| jobs > 1) {
        checks.check(fleet.remote_leased, || {
            "fleet campaign: the loopback worker never leased a job".to_string()
        });
    }
}

/// A sampled split (stride [`SAMPLE_STRIDE`]) on a fresh store, then an
/// exact split on the same store, which reuses the sweep and replays the
/// sampled intervals from the interval journal.
#[derive(Debug)]
pub struct SplitLegs {
    pub sampled: SplitOutcome,
    pub exact: SplitOutcome,
    pub workers: usize,
    /// Start of the sampled split, end of it, end of the exact split.
    pub t: [Instant; 3],
    /// Rescales the sampled split's sweep, which runs on this thread, to
    /// reference speed ([`crate::host`]).
    pub sweep_scale: f64,
}

impl SplitLegs {
    /// Phase-2 wall time per re-simulated interval, per worker.
    pub fn interval_secs(&self) -> f64 {
        if self.exact.simulated == 0 {
            return 0.0;
        }
        self.exact.phase2_secs * self.workers as f64 / self.exact.simulated as f64
    }
}

/// Splits `spec` (whose serial run takes `serial_cycles` measured
/// cycles) into [`SPLIT_INTERVALS`] intervals under `dir`.
pub fn split_legs(
    spec: &RunSpec,
    serial_cycles: u64,
    workers: usize,
    dir: &Path,
    host: &mut Host,
) -> Result<SplitLegs, SimError> {
    let interval_cycles = serial_cycles.div_ceil(SPLIT_INTERVALS).max(1);
    let exact = SplitConfig::new(interval_cycles).with_workers(workers);
    let sampled = exact.clone().with_sampling(SAMPLE_STRIDE);
    split::discard_store(spec, interval_cycles, dir);
    host.restart();
    let t0 = Instant::now();
    let sampled = run_split(spec, &sampled, dir)?;
    let t1 = Instant::now();
    let sweep_scale = host.rescale();
    let exact = run_split(spec, &exact, dir)?;
    let t2 = Instant::now();
    split::discard_store(spec, interval_cycles, dir);
    Ok(SplitLegs {
        sampled,
        exact,
        workers,
        t: [t0, t1, t2],
        sweep_scale,
    })
}

/// The split checks: the exact stitch equals the serial run, and every
/// interval was either simulated or replayed.
pub fn check_split(legs: &SplitLegs, reference: &RunResult, checks: &mut Checks) {
    let (sampled, exact) = (&legs.sampled, &legs.exact);
    checks.check(exact.result.as_ref() == Some(reference), || {
        "exact split: stitched result differs from runner::run".to_string()
    });
    checks.check(exact.simulated + exact.cached == exact.n_intervals, || {
        format!(
            "exact split: simulated {} + cached {} != intervals {}",
            exact.simulated, exact.cached, exact.n_intervals
        )
    });
    checks.check(
        exact.sweep_reused && exact.cached == sampled.simulated,
        || {
            format!(
                "exact split replayed {} intervals, the sampled split simulated {}",
                exact.cached, sampled.simulated
            )
        },
    );
}

/// The serial CPI lies inside the sampled split's 95% interval, each
/// side widened to [`CI_WIDENING`] times its distance from the estimate.
/// A statistical check: it holds for the `split` workload's long run,
/// not for every short spec.
pub fn check_sampling(legs: &SplitLegs, reference: &RunResult, checks: &mut Checks) {
    let cpi = reference.stats.cycles as f64 / reference.stats.committed_insts as f64;
    let est = legs
        .sampled
        .sampling
        .as_ref()
        .map(|e| (e.est_cpi, e.ci95_cpi));
    let inside = est.is_some_and(|(mid, (lo, hi))| {
        mid - CI_WIDENING * (mid - lo) <= cpi && cpi <= mid + CI_WIDENING * (hi - mid)
    });
    checks.check(inside, || {
        format!("sampled split: serial CPI {cpi:.4} outside {CI_WIDENING}x ci95_cpi {est:?}")
    });
}

/// A 95% interval misses the truth on one seed in twenty by design: the
/// plain interval excludes the serial CPI on `split` seed 72 (one of
/// seeds 0–75), by an eighth of its half-width. Twice the half-width
/// still fails an estimator that is off, and not a correct one.
const CI_WIDENING: f64 = 2.0;
