//! Interval-parallel simulation worker.
//!
//! Runs one `(profile, model)` spec through the two-phase split runner:
//! a serial snapshot sweep delimits the run into fixed-cycle intervals,
//! then worker threads re-simulate the intervals independently and the
//! stitcher rebuilds totals bit-identical to the serial run (exact
//! mode) or extrapolates them with 95% confidence intervals (sampling
//! mode, `--sample-every K`). The store under `--dir` is resumable:
//! re-running the same command after any kind of death re-simulates
//! only the intervals whose results are missing.
//!
//! ```text
//! mlpwin-split --profile mcf --model dynamic --interval-cycles N
//!              [--warmup N] [--insts N] [--seed N] [--workers N]
//!              [--sample-every K] [--dir DIR]
//!              [--journal PATH] [--chaos-kill-at N] [--listen ADDR]
//! ```
//!
//! `--listen ADDR` serves read-only `/metrics` and `/healthz` while the
//! split runs (job-queue views are campaign-only and render empty
//! here); the bound address prints to stderr.

use mlpwin_sim::httpserve::{HttpServer, MetricsOnly};
use mlpwin_sim::runner::RunSpec;
use mlpwin_sim::split::{run_split, SplitConfig};
use mlpwin_sim::{Journal, SimModel};
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;

struct Args {
    spec: RunSpec,
    cfg: SplitConfig,
    dir: PathBuf,
    journal: Option<PathBuf>,
    listen: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut spec = RunSpec::new("gcc", SimModel::Base);
    let mut profile_seen = false;
    let mut cfg = SplitConfig::new(0);
    let mut dir = PathBuf::from("splits");
    let mut journal = None;
    let mut listen = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or_else(|| format!("{flag} needs a {what}"));
        match flag.as_str() {
            "--profile" => {
                spec.profile = value("profile name")?;
                profile_seen = true;
            }
            "--model" => {
                let tag = value("model tag")?;
                spec.model =
                    SimModel::from_tag(&tag).ok_or_else(|| format!("unknown model tag `{tag}`"))?;
            }
            "--warmup" => spec.warmup = parse_u64(&value("count")?)?,
            "--insts" => spec.insts = parse_u64(&value("count")?)?,
            "--seed" => spec.seed = parse_u64(&value("seed")?)?,
            "--intervals" => spec.interval_cycles = Some(parse_u64(&value("cycles")?)?),
            "--interval-cycles" => cfg.interval_cycles = parse_u64(&value("cycles")?)?,
            "--workers" => cfg.workers = parse_u64(&value("count")?)?.max(1) as usize,
            "--sample-every" => cfg = cfg.with_sampling(parse_u64(&value("stride")?)?),
            "--dir" => dir = PathBuf::from(value("directory")?),
            "--journal" => journal = Some(PathBuf::from(value("path")?)),
            "--chaos-kill-at" => cfg.chaos_kill_at = Some(parse_u64(&value("cycle")?)?),
            "--listen" => listen = Some(value("address")?),
            "--help" | "-h" => {
                println!(
                    "usage: mlpwin-split --profile NAME --model TAG --interval-cycles N \
                     [--warmup N] [--insts N] [--seed N] [--intervals N] [--workers N] \
                     [--sample-every K] [--dir DIR] [--journal PATH] \
                     [--chaos-kill-at N] [--listen ADDR]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if !profile_seen {
        return Err("--profile is required".to_string());
    }
    if cfg.interval_cycles == 0 {
        return Err("--interval-cycles is required and must be positive".to_string());
    }
    Ok(Args {
        spec,
        cfg,
        dir,
        journal,
        listen,
    })
}

fn parse_u64(s: &str) -> Result<u64, String> {
    s.parse().map_err(|_| format!("`{s}` is not a number"))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("mlpwin-split: {e}");
            return ExitCode::from(2);
        }
    };

    let server = match &args.listen {
        Some(addr) => {
            mlpwin_sim::metrics::set_telemetry(true);
            match HttpServer::start(addr, Arc::new(MetricsOnly { mode: "split" })) {
                Ok(server) => {
                    eprintln!("observability: listening on http://{}", server.addr());
                    Some(server)
                }
                Err(e) => {
                    eprintln!("mlpwin-split: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        None => None,
    };
    let outcome = run_split(&args.spec, &args.cfg, &args.dir);
    if let Some(server) = server {
        server.shutdown();
    }
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("mlpwin-split: {e}");
            return ExitCode::FAILURE;
        }
    };

    if let Some(path) = &args.journal {
        if let Some(result) = &outcome.result {
            if let Err(e) = Journal::new(path).append(&args.spec, result) {
                eprintln!("mlpwin-split: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    match (&outcome.result, &outcome.sampling) {
        (Some(result), _) => {
            println!(
                "split done profile={} model={} intervals={} simulated={} cached={} \
                 sweep_reused={} cycles={} insts={} ipc={:.4} sweep_secs={:.3} phase2_secs={:.3}",
                args.spec.profile,
                args.spec.model.tag(),
                outcome.n_intervals,
                outcome.simulated,
                outcome.cached,
                outcome.sweep_reused,
                result.stats.cycles,
                result.stats.committed_insts,
                result.ipc(),
                outcome.sweep_secs,
                outcome.phase2_secs
            );
        }
        (None, Some(est)) => {
            println!(
                "split sampled profile={} model={} intervals={} simulated={} cached={} \
                 sweep_reused={} stride={} sampled={}/{} cycles={} est_insts={:.1} \
                 ci95_insts=[{:.1},{:.1}] est_cpi={:.4} ci95_cpi=[{:.4},{:.4}] \
                 sweep_secs={:.3} phase2_secs={:.3}",
                args.spec.profile,
                args.spec.model.tag(),
                outcome.n_intervals,
                outcome.simulated,
                outcome.cached,
                outcome.sweep_reused,
                est.stride,
                est.sampled,
                est.frame,
                est.total_cycles,
                est.est_insts,
                est.ci95_insts.0,
                est.ci95_insts.1,
                est.est_cpi,
                est.ci95_cpi.0,
                est.ci95_cpi.1,
                outcome.sweep_secs,
                outcome.phase2_secs
            );
        }
        (None, None) => unreachable!("run_split returns a result or an estimate"),
    }
    ExitCode::SUCCESS
}
