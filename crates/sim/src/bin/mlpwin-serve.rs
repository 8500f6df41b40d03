//! Campaign controller: durable queue + leased workers + dedup cache.
//!
//! Runs a spec matrix as a fault-tolerant campaign (see
//! [`mlpwin_sim::serve`]): every job transition is WAL-logged under the
//! campaign directory, workers are `mlpwin-sim` child processes owned
//! through heartbeat-renewed leases, poison jobs quarantine after a
//! bounded number of kills, and already-computed results are served
//! from the content-addressed cache with full-spec verification.
//!
//! ```text
//! mlpwin-serve --campaign DIR --job PROFILE,MODEL[,WARMUP,INSTS,SEED[,LANE]] ...
//!              [--workers N] [--lease-ms N] [--max-kills N] [--backoff-ms N]
//!              [--snapshot-cycles N] [--time-budget-ms N]
//!              [--cache PATH] [--worker-exe PATH] [--chaos-kill-at N]
//!              [--listen ADDR] [--fleet-listen ADDR] [--trace-out PATH]
//!              [--progress]
//! mlpwin-serve --probe ADDR_OR_DIR
//! ```
//!
//! `--listen ADDR` embeds the read-only observability HTTP server
//! (`/metrics`, `/status`, `/jobs`, `/jobs/<id>`, `/healthz`); the
//! bound address (useful with port 0) is written atomically to
//! `DIR/obs.addr` and removed when the campaign ends.
//! `--fleet-listen ADDR` additionally accepts remote `mlpwin-worker`
//! processes over the TCP wire protocol (bound address published to
//! `DIR/fleet.addr`); the campaign then shards across the fleet and the
//! local worker threads together, degrading to local-only when every
//! remote worker vanishes.
//! `--trace-out PATH` writes a Chrome trace of the campaign (one track
//! per worker, one span per job phase) when the campaign ends.
//! `--probe ADDR_OR_DIR` is a standalone mode: fetch every endpoint from
//! a running controller, validate the Prometheus and JSON payloads,
//! print a one-line summary, and exit (0 healthy / 1 not) — a
//! self-contained smoke client for CI, no curl required. Passing a
//! campaign directory resolves the controller through `DIR/obs.addr`
//! and reports a stale address file (controller gone) distinctly.
//!
//! Exit codes: 0 — every job done; 1 — finished but some jobs failed or
//! were quarantined (or a fatal control-plane error); 75 — gracefully
//! drained on SIGINT/SIGTERM with work remaining (re-run the same
//! command to resume); 2 — CLI error.

use mlpwin_sim::json::Json;
use mlpwin_sim::queue::Lane;
use mlpwin_sim::runner::RunSpec;
use mlpwin_sim::serve::{run_campaign, CampaignConfig, CampaignOutcome};
use mlpwin_sim::{httpserve, metrics, signals, SimModel};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

struct Args {
    jobs: Vec<(RunSpec, Lane)>,
    cfg: CampaignConfig,
}

fn parse_args() -> Result<Args, String> {
    let mut campaign: Option<PathBuf> = None;
    let mut worker_exe: Option<PathBuf> = None;
    let mut jobs = Vec::new();
    // Flags assign onto the library's defaults; the directory and the
    // worker are filled in once every flag is read.
    let mut cfg = CampaignConfig::new(PathBuf::new(), PathBuf::new());
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or_else(|| format!("{flag} needs a {what}"));
        match flag.as_str() {
            "--campaign" => campaign = Some(PathBuf::from(value("directory")?)),
            "--job" => jobs.push(parse_job(&value("job spec")?)?),
            "--workers" => cfg.workers = (parse_u64(&value("count")?)? as usize).max(1),
            "--lease-ms" => cfg.lease = Duration::from_millis(parse_u64(&value("ms")?)?),
            "--max-kills" => cfg.max_kills = (parse_u64(&value("count")?)? as u32).max(1),
            "--backoff-ms" => cfg.backoff_base = Duration::from_millis(parse_u64(&value("ms")?)?),
            "--snapshot-cycles" => cfg.snapshot_cycles = parse_u64(&value("cycles")?)?,
            "--time-budget-ms" => {
                cfg.job_time_budget = Some(Duration::from_millis(parse_u64(&value("ms")?)?))
            }
            "--cache" => cfg.cache = Some(PathBuf::from(value("path")?)),
            "--worker-exe" => worker_exe = Some(PathBuf::from(value("path")?)),
            "--chaos-kill-at" => cfg.chaos_kill_at = Some(parse_u64(&value("cycle")?)?),
            "--listen" => cfg.listen = Some(value("address")?),
            "--fleet-listen" => cfg.fleet_listen = Some(value("address")?),
            "--trace-out" => cfg.trace_out = Some(PathBuf::from(value("path")?)),
            "--progress" => cfg.progress = true,
            "--help" | "-h" => {
                println!(
                    "usage: mlpwin-serve --campaign DIR \
                     --job PROFILE,MODEL[,WARMUP,INSTS,SEED[,LANE]] ... \
                     [--workers N] [--lease-ms N] [--max-kills N] [--backoff-ms N] \
                     [--snapshot-cycles N] [--time-budget-ms N] \
                     [--cache PATH] [--worker-exe PATH] [--chaos-kill-at N] \
                     [--listen ADDR] [--fleet-listen ADDR] [--trace-out PATH] \
                     [--progress] | --probe ADDR_OR_DIR"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    let campaign = campaign.ok_or("--campaign is required")?;
    if jobs.is_empty() {
        return Err("at least one --job is required".to_string());
    }
    // The worker ships next to the controller unless pointed elsewhere.
    cfg.worker_exe = match worker_exe {
        Some(path) => path,
        None => std::env::current_exe()
            .map_err(|e| format!("cannot locate own executable: {e}"))?
            .with_file_name("mlpwin-sim"),
    };
    cfg.dir = campaign;
    Ok(Args { jobs, cfg })
}

/// `PROFILE,MODEL[,WARMUP,INSTS,SEED[,LANE]]` — e.g. `mcf,dynamic` or
/// `gcc,base,1000,50000,7,high`.
fn parse_job(text: &str) -> Result<(RunSpec, Lane), String> {
    let fields: Vec<&str> = text.split(',').collect();
    let err = || format!("job `{text}` is not PROFILE,MODEL[,WARMUP,INSTS,SEED[,LANE]]");
    if fields.len() < 2 || fields.len() > 6 {
        return Err(err());
    }
    let model = SimModel::from_tag(fields[1])
        .ok_or_else(|| format!("unknown model tag `{}`", fields[1]))?;
    let mut spec = RunSpec::new(fields[0], model);
    if fields.len() >= 5 {
        spec.warmup = parse_u64(fields[2])?;
        spec.insts = parse_u64(fields[3])?;
        spec.seed = parse_u64(fields[4])?;
    } else if fields.len() != 2 {
        return Err(err());
    }
    let lane = match fields.get(5) {
        None => Lane::Normal,
        Some(tag) => Lane::from_tag(tag).ok_or_else(|| format!("unknown lane `{tag}`"))?,
    };
    Ok((spec, lane))
}

fn parse_u64(s: &str) -> Result<u64, String> {
    s.parse().map_err(|_| format!("`{s}` is not a number"))
}

/// Resolves a `--probe` operand: a literal `host:port`, or a campaign
/// directory whose `obs.addr` file names the controller. The second
/// form distinguishes "no address published" from "address published
/// but stale" so operators see which half of the handoff broke.
fn resolve_probe_target(text: &str) -> Result<SocketAddr, String> {
    let text = text.trim();
    if let Ok(addr) = text.parse::<SocketAddr>() {
        return Ok(addr);
    }
    let dir = PathBuf::from(text);
    if !dir.is_dir() {
        return Err(format!(
            "`{text}` is neither a host:port address nor a campaign directory"
        ));
    }
    let addr_file = dir.join("obs.addr");
    let published = std::fs::read_to_string(&addr_file).map_err(|_| {
        format!(
            "{} does not exist — the controller is not running with \
             --listen (or already drained and removed it)",
            addr_file.display()
        )
    })?;
    published.trim().parse::<SocketAddr>().map_err(|e| {
        format!(
            "{} holds `{}`, which is not an address: {e}",
            addr_file.display(),
            published.trim()
        )
    })
}

/// Fetches and validates every observability endpoint of a running
/// controller. Exit 0 when all payloads are healthy.
fn probe(target: &str) -> Result<String, String> {
    let from_dir = target.trim().parse::<SocketAddr>().is_err();
    let addr = resolve_probe_target(target)?;
    let get = |path: &str| -> Result<String, String> {
        let (code, body) =
            httpserve::http_get(&addr, path).map_err(|e| format!("GET {path}: {e}"))?;
        if code != 200 {
            return Err(format!("GET {path}: HTTP {code}"));
        }
        Ok(body)
    };
    // Liveness first: an address resolved through obs.addr may be stale
    // (controller SIGKILLed before it could remove the file) — turn the
    // connect failure into a diagnosis instead of a bare I/O error.
    let health = get("/healthz").map_err(|e| {
        if from_dir {
            format!(
                "{e} — {target}/obs.addr points at {addr} but nothing \
                 answers there; the address file is stale (controller gone)"
            )
        } else {
            e
        }
    })?;
    if health.trim() != "ok" {
        return Err(format!("/healthz said `{}`", health.trim()));
    }
    let metrics_text = get("/metrics")?;
    metrics::validate_prometheus(&metrics_text)
        .map_err(|e| format!("/metrics is not valid Prometheus text: {e}"))?;
    let status =
        Json::parse(&get("/status")?).map_err(|e| format!("/status is not valid JSON: {e}"))?;
    let jobs = Json::parse(&get("/jobs")?).map_err(|e| format!("/jobs is not valid JSON: {e}"))?;
    let n_jobs = jobs.as_arr().map(<[Json]>::len).unwrap_or(0);
    if n_jobs > 0 {
        let detail =
            Json::parse(&get("/jobs/0")?).map_err(|e| format!("/jobs/0 is not valid JSON: {e}"))?;
        if detail.get("events").and_then(Json::as_arr).is_none() {
            return Err("/jobs/0 carries no events array".to_string());
        }
    }
    Ok(format!(
        "probe {addr}: healthy ({} metric lines, {} jobs, {} done)",
        metrics_text.lines().count(),
        n_jobs,
        status.get("done").and_then(Json::as_u64).unwrap_or(0),
    ))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--probe") {
        let Some(addr) = argv.get(1) else {
            eprintln!("mlpwin-serve: --probe needs an address or campaign directory");
            return ExitCode::from(2);
        };
        return match probe(addr) {
            Ok(line) => {
                println!("{line}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("mlpwin-serve: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("mlpwin-serve: {e}");
            return ExitCode::from(2);
        }
    };
    signals::install();
    if args.cfg.listen.is_some() {
        // The observability plane lives in the controller process only;
        // worker children keep their own (default-off) telemetry knob,
        // so the simulation hot path is untouched.
        metrics::set_telemetry(true);
    }
    match run_campaign(&args.jobs, &args.cfg) {
        Ok(CampaignOutcome::Complete(report)) => {
            println!("{}", report.render());
            if report.failed > 0 || report.quarantined > 0 {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            }
        }
        Ok(CampaignOutcome::Interrupted(report)) => {
            println!("{}", report.render());
            eprintln!(
                "mlpwin-serve: campaign drained; state is in the WAL — \
                 re-run the same command to resume"
            );
            ExitCode::from(signals::EXIT_INTERRUPTED as u8)
        }
        Err(e) => {
            eprintln!("mlpwin-serve: {e}");
            ExitCode::FAILURE
        }
    }
}
