//! Single-spec simulation worker with crash recovery.
//!
//! Runs one `(profile, model)` spec through the recoverable runner:
//! periodic snapshots, resume-from-latest on start, graceful
//! SIGINT/SIGTERM (final snapshot already on disk, exit code 75 =
//! "interrupted, resumable"). Re-running the exact same command after
//! any kind of death resumes the run bit-identically.
//!
//! With `--wire` the worker speaks the fleet's [`wire`] protocol on
//! stdout: one `heartbeat` frame at every snapshot, then — on success
//! only — one `result` frame carrying the journal line, then EOF. The
//! [`Supervisor`](mlpwin_sim::Supervisor) launches this binary per
//! campaign job with `--wire` and settles the result frame the way it
//! settles a fleet worker's. The frames carry job id 0: the pipe, not
//! the frame, names the job. A heartbeat that cannot be written means
//! the controller is gone: the child stops at that snapshot, keeps it,
//! and exits 75 like an interrupted run, so a resumed campaign's child
//! for the same spec picks up from it. Without `--wire`, a
//! human-readable `done` line ends a clean run; `--journal` appends the
//! result to a journal for standalone runs.
//!
//! ```text
//! mlpwin-sim --profile mcf --model dynamic [--warmup N] [--insts N]
//!            [--seed N] [--watchdog N] [--deadline N] [--intervals N]
//!            [--fault panic@N|livelock@N]
//!            [--snapshot-dir DIR] [--snapshot-cycles N]
//!            [--journal PATH] [--wire] [--chaos-kill-at N]
//! ```

use mlpwin_sim::journal::encode_line;
use mlpwin_sim::runner::{run_recoverable, FaultSpec, RunSpec};
use mlpwin_sim::snapshot::{hooks, SnapshotPolicy};
use mlpwin_sim::wire::{self, Msg, WireError};
use mlpwin_sim::{signals, Journal, SimModel};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;

struct Args {
    spec: RunSpec,
    snapshots: SnapshotPolicy,
    journal: Option<PathBuf>,
    wire: bool,
    chaos_kill_at: Option<u64>,
}

fn parse_args() -> Result<Args, String> {
    let mut spec = RunSpec::new("gcc", SimModel::Base);
    let mut profile_seen = false;
    let mut snapshots = SnapshotPolicy::default();
    let mut journal = None;
    let mut wire = false;
    let mut chaos_kill_at = None;
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
            "--watchdog" => spec.watchdog_cycles = Some(parse_u64(&value("cycles")?)?),
            "--deadline" => spec.deadline_cycles = Some(parse_u64(&value("cycles")?)?),
            "--intervals" => spec.interval_cycles = Some(parse_u64(&value("cycles")?)?),
            "--fault" => spec.fault = Some(value("fault spec")?.parse::<FaultSpec>()?),
            "--snapshot-dir" => snapshots.dir = PathBuf::from(value("directory")?),
            "--snapshot-cycles" => snapshots.cadence_cycles = parse_u64(&value("cycles")?)?,
            "--journal" => journal = Some(PathBuf::from(value("path")?)),
            "--wire" => wire = true,
            "--chaos-kill-at" => chaos_kill_at = Some(parse_u64(&value("cycle")?)?),
            "--help" | "-h" => {
                println!(
                    "usage: mlpwin-sim --profile NAME --model TAG [--warmup N] [--insts N] \
                     [--seed N] [--watchdog N] [--deadline N] [--intervals N] \
                     [--fault panic@N|livelock@N] [--snapshot-dir DIR] \
                     [--snapshot-cycles N] [--journal PATH] [--wire] \
                     [--chaos-kill-at N]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if !profile_seen {
        return Err("--profile is required".to_string());
    }
    Ok(Args {
        spec,
        snapshots,
        journal,
        wire,
        chaos_kill_at,
    })
}

fn parse_u64(s: &str) -> Result<u64, String> {
    s.parse().map_err(|_| format!("`{s}` is not a number"))
}

/// Writes one wire frame to stdout.
fn send(msg: &Msg) -> Result<(), WireError> {
    wire::write_frame(&mut std::io::stdout().lock(), msg)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("mlpwin-sim: {e}");
            return ExitCode::from(2);
        }
    };
    signals::install();
    if args.wire {
        hooks::set_heartbeat_fn(Some(Arc::new(|cycle| {
            // A broken pipe means the controller is gone: an orphan run
            // to the end would discard the snapshots a resumed
            // campaign's child shares, so stop here with them kept.
            let beat = Msg::Heartbeat {
                job: 0,
                cycle,
                rtt_us: 0,
            };
            if send(&beat).is_err() {
                signals::request_interrupt();
            }
        })));
    }
    hooks::set_chaos_kill_at(args.chaos_kill_at);

    let outcome = catch_unwind(AssertUnwindSafe(|| {
        run_recoverable(&args.spec, &args.snapshots)
    }));
    match outcome {
        Ok(Ok(result)) => {
            if let Some(path) = &args.journal {
                if let Err(e) = Journal::new(path).append(&args.spec, &result) {
                    eprintln!("mlpwin-sim: {e}");
                    return ExitCode::FAILURE;
                }
            }
            if args.wire {
                let line = encode_line(&args.spec, &result);
                if let Err(e) = send(&Msg::Result { job: 0, line }) {
                    eprintln!("mlpwin-sim: {e}");
                    return ExitCode::FAILURE;
                }
            } else {
                println!(
                    "done profile={} model={} cycles={} insts={} ipc={:.4}",
                    args.spec.profile,
                    args.spec.model.tag(),
                    result.stats.cycles,
                    result.stats.committed_insts,
                    result.ipc()
                );
            }
            ExitCode::SUCCESS
        }
        Ok(Err(e)) => {
            eprintln!("mlpwin-sim: {e}");
            ExitCode::FAILURE
        }
        Err(payload) => {
            if signals::is_interrupt_payload(payload.as_ref()) {
                eprintln!(
                    "mlpwin-sim: interrupted; latest snapshot is on disk — \
                     re-run the same command to resume"
                );
                // BSD EX_TEMPFAIL: the caller can distinguish "try me
                // again" from a real failure.
                return ExitCode::from(signals::EXIT_INTERRUPTED as u8);
            }
            eprintln!("mlpwin-sim: worker panicked");
            ExitCode::FAILURE
        }
    }
}
