//! Process-level supervision of simulation workers.
//!
//! In-process isolation (`catch_unwind` in the matrix runner) cannot
//! survive an aborting worker, a runaway allocation, or an OOM kill. The
//! [`Supervisor`] closes that gap: it runs a spec in a **child process**
//! (the `mlpwin-sim` worker binary, launched with `--wire`), reads the
//! [`wire`] frames the worker writes to its stdout — a
//! `heartbeat` at every snapshot, then one `result` on success — kills
//! the child when its heartbeat goes stale or its wall-clock budget runs
//! out, and classifies how it ended. Retrying is not its job: the
//! campaign queue's lease, backoff and quarantine logic decides that,
//! and a retried worker resumes from the latest valid snapshot on disk,
//! so a crash costs at most one snapshot cadence of re-simulation — and
//! the final result is bit-identical to an uninterrupted run (the chaos
//! suite in `tests/recovery.rs` asserts exactly that).

use crate::metrics;
use crate::runner::{FaultSpec, RunSpec};
use crate::signals::EXIT_INTERRUPTED;
use crate::snapshot::SnapshotPolicy;
use crate::wire::{self, Msg};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Counter of worker child processes launched.
pub const METRIC_WORKER_LAUNCHES: &str = "mlpwin_worker_launches_total";
/// Counter of workers killed for a blown budget (heartbeat staleness or
/// wall clock).
pub const METRIC_WORKER_BUDGET_KILLS: &str = "mlpwin_worker_budget_kills_total";
/// Counter of worker heartbeat frames observed.
pub const METRIC_WORKER_HEARTBEATS: &str = "mlpwin_worker_heartbeats_total";

/// How often a running child's heartbeat and wall-clock budgets are
/// checked.
const BUDGET_TICK: Duration = Duration::from_millis(20);

/// A callback handed every wire frame a worker writes, on the
/// supervisor's reader thread. The campaign control plane tags it with
/// the job it launched and routes heartbeats to lease renewal and the
/// result to settlement — the same handlers a fleet connection uses.
pub type FrameHook = Arc<dyn Fn(Msg) + Send + Sync>;

/// How a single worker launch ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WorkerEnd {
    /// Exit 0: the spec finished (and wrote its result frame).
    Clean,
    /// [`EXIT_INTERRUPTED`]: graceful drain; resuming later continues
    /// from the latest snapshot.
    Interrupted,
    /// A deterministic, typed failure (the worker's exit 1 = simulation
    /// error, 2 = CLI error) — retrying cannot change it.
    TypedFailure {
        /// The worker's exit code.
        code: i32,
        /// The tail of the worker's stderr, when captured.
        stderr_tail: String,
    },
    /// The worker died: panic abort, signal, OOM kill, or a blown
    /// supervision budget. Retrying resumes from the latest snapshot.
    Death {
        /// What happened, human-readable.
        detail: String,
        /// The tail of the worker's stderr, when captured — for a
        /// stalled core this includes the StallSnapshot it printed.
        stderr_tail: String,
    },
    /// The worker binary could not even start.
    LaunchFailed {
        /// The spawn error.
        detail: String,
    },
}

/// Runs specs in supervised child processes.
#[derive(Clone)]
pub struct Supervisor {
    /// The `mlpwin-sim` worker executable.
    pub worker_exe: PathBuf,
    /// Snapshot policy forwarded to every worker (and the place a
    /// relaunched worker resumes from).
    pub snapshots: SnapshotPolicy,
    /// Kill a worker whose last frame is older than this; `None`
    /// disables the liveness check.
    pub heartbeat_timeout: Option<Duration>,
    /// Kill a worker running longer than this wall-clock budget.
    pub time_budget: Option<Duration>,
    /// Test-only chaos injection forwarded to the worker
    /// (`--chaos-kill-at`): abort at the first snapshot at or past this
    /// cycle, on fresh starts only — so the next launch resumes and
    /// completes.
    pub chaos_kill_at: Option<u64>,
    /// Handed every frame the worker writes; `None` drops them.
    pub frame_hook: Option<FrameHook>,
    /// Pipe and keep the tail of worker stderr — attached to
    /// [`WorkerEnd::Death`] so a quarantined job carries its last
    /// diagnostics (StallSnapshot, panic message). Off by default:
    /// inherited stderr streams to the operator live.
    pub capture_stderr: bool,
}

impl Supervisor {
    /// A supervisor with lenient defaults: no heartbeat or time budget,
    /// no frame hook.
    pub fn new(worker_exe: impl Into<PathBuf>, snapshots: SnapshotPolicy) -> Supervisor {
        Supervisor {
            worker_exe: worker_exe.into(),
            snapshots,
            heartbeat_timeout: None,
            time_budget: None,
            chaos_kill_at: None,
            frame_hook: None,
            capture_stderr: false,
        }
    }

    /// The worker command line for `spec` — the exact inverse of the
    /// `mlpwin-sim` binary's argument parser.
    pub fn spec_args(&self, spec: &RunSpec) -> Vec<String> {
        let mut args = vec![
            "--profile".into(),
            spec.profile.clone(),
            "--model".into(),
            spec.model.tag().to_string(),
            "--warmup".into(),
            spec.warmup.to_string(),
            "--insts".into(),
            spec.insts.to_string(),
            "--seed".into(),
            spec.seed.to_string(),
            "--snapshot-dir".into(),
            self.snapshots.dir.display().to_string(),
            "--snapshot-cycles".into(),
            self.snapshots.cadence_cycles.to_string(),
            "--keep".into(),
            self.snapshots.keep.to_string(),
            "--wire".into(),
        ];
        if let Some(cycles) = spec.watchdog_cycles {
            args.push("--watchdog".into());
            args.push(cycles.to_string());
        }
        if let Some(cycles) = spec.deadline_cycles {
            args.push("--deadline".into());
            args.push(cycles.to_string());
        }
        if let Some(epoch) = spec.interval_cycles {
            args.push("--intervals".into());
            args.push(epoch.to_string());
        }
        match spec.fault {
            Some(FaultSpec::PanicAt(at)) => {
                args.push("--fault".into());
                args.push(format!("panic@{at}"));
            }
            Some(FaultSpec::LivelockAt(at)) => {
                args.push("--fault".into());
                args.push(format!("livelock@{at}"));
            }
            None => {}
        }
        if let Some(at) = self.chaos_kill_at {
            args.push("--chaos-kill-at".into());
            args.push(at.to_string());
        }
        args
    }

    /// Launches `spec`'s worker exactly once, hands every frame it
    /// writes to the [`frame_hook`](Supervisor::frame_hook), watches it
    /// against every budget, and classifies how it ended. The reader is
    /// joined before this returns, so the hook has seen the worker's
    /// result frame by the time the caller looks at a
    /// [`WorkerEnd::Clean`]. No restarts, no backoff — that policy
    /// lives in the campaign queue's lease/quarantine machinery.
    pub fn supervise_once(&self, spec: &RunSpec) -> WorkerEnd {
        let mut command = Command::new(&self.worker_exe);
        command.args(self.spec_args(spec)).stdout(Stdio::piped());
        if self.capture_stderr {
            command.stderr(Stdio::piped());
        }
        let mut child = match command.spawn() {
            Ok(child) => child,
            Err(e) => {
                return WorkerEnd::LaunchFailed {
                    detail: format!("worker {} failed to launch: {e}", self.worker_exe.display()),
                }
            }
        };
        metrics::counter_add(METRIC_WORKER_LAUNCHES, 1);
        let last_beat = Arc::new(Mutex::new(Instant::now()));
        // The reader drops its sender when the child's stdout closes,
        // which wakes `watch` to reap the exiting child at once.
        let (eof_tx, eof_rx) = mpsc::channel::<()>();
        let reader = child.stdout.take().map(|stdout| {
            let last_beat = Arc::clone(&last_beat);
            let hook = self.frame_hook.clone();
            std::thread::spawn(move || {
                let _eof = eof_tx;
                let mut stdout = std::io::BufReader::new(stdout);
                while let Ok(msg) = wire::read_frame(&mut stdout) {
                    *last_beat.lock().expect("heartbeat clock poisoned") = Instant::now();
                    if matches!(msg, Msg::Heartbeat { .. }) {
                        metrics::counter_add(METRIC_WORKER_HEARTBEATS, 1);
                    }
                    if let Some(hook) = &hook {
                        hook(msg);
                    }
                }
                // EOF, or a torn frame from a dying worker: its exit
                // status tells the rest. Drain so it never blocks on a
                // full pipe.
                std::io::copy(&mut stdout, &mut std::io::sink()).ok();
                // The reader thread owns its own metrics shard: merge
                // it before the thread vanishes.
                metrics::flush();
            })
        });
        let stderr_reader = child.stderr.take().map(|stderr| {
            std::thread::spawn(move || {
                use std::io::Read as _;
                let mut text = String::new();
                std::io::BufReader::new(stderr)
                    .read_to_string(&mut text)
                    .ok();
                // Keep the tail: the StallSnapshot / panic message is
                // the last thing a dying worker prints.
                const TAIL: usize = 4096;
                if text.len() > TAIL {
                    let cut = text.len() - TAIL;
                    let cut = (cut..text.len())
                        .find(|&i| text.is_char_boundary(i))
                        .unwrap_or(text.len());
                    text = text[cut..].to_string();
                }
                text
            })
        });
        let eof = reader.is_some().then_some(eof_rx);
        let verdict = self.watch(&mut child, &last_beat, eof);
        if let Some(reader) = reader {
            reader.join().ok();
        }
        let stderr_tail = stderr_reader
            .and_then(|r| r.join().ok())
            .unwrap_or_default();
        match verdict {
            Verdict::Exited(0) => WorkerEnd::Clean,
            Verdict::Exited(code) if code == EXIT_INTERRUPTED => WorkerEnd::Interrupted,
            // The worker binary's contract: 1 = typed simulation error,
            // 2 = CLI error — deterministic either way.
            Verdict::Exited(code @ (1 | 2)) => WorkerEnd::TypedFailure { code, stderr_tail },
            Verdict::Exited(code) => WorkerEnd::Death {
                detail: format!("worker exited with code {code}"),
                stderr_tail,
            },
            Verdict::Killed(reason) => WorkerEnd::Death {
                detail: reason,
                stderr_tail,
            },
            Verdict::Died => WorkerEnd::Death {
                detail: "worker died (killed by signal or crash)".into(),
                stderr_tail,
            },
        }
    }

    /// Watches the child against every budget until it exits or is
    /// killed. Budgets are checked every [`BUDGET_TICK`]; between checks
    /// the wait ends early when `stdout_eof` reports that the child closed
    /// its stdout, after which its exit status is polled from 1 ms up,
    /// doubling to the tick for a child that lingers.
    fn watch(
        &self,
        child: &mut Child,
        last_beat: &Arc<Mutex<Instant>>,
        mut stdout_eof: Option<mpsc::Receiver<()>>,
    ) -> Verdict {
        let started = Instant::now();
        let mut reap_pause = Duration::from_millis(1);
        loop {
            match child.try_wait() {
                Ok(Some(status)) => {
                    return match status.code() {
                        Some(code) => Verdict::Exited(code),
                        None => Verdict::Died,
                    }
                }
                Ok(None) => {}
                Err(_) => return Verdict::Died,
            }
            if let Some(reason) = self.blown_budget(started, last_beat) {
                child.kill().ok();
                child.wait().ok();
                metrics::counter_add(METRIC_WORKER_BUDGET_KILLS, 1);
                return Verdict::Killed(reason);
            }
            match &stdout_eof {
                Some(eof) => {
                    if !matches!(
                        eof.recv_timeout(BUDGET_TICK),
                        Err(RecvTimeoutError::Timeout)
                    ) {
                        stdout_eof = None;
                    }
                }
                None => {
                    std::thread::sleep(reap_pause);
                    reap_pause = (reap_pause * 2).min(BUDGET_TICK);
                }
            }
        }
    }

    fn blown_budget(&self, started: Instant, last_beat: &Arc<Mutex<Instant>>) -> Option<String> {
        if let Some(timeout) = self.heartbeat_timeout {
            let age = last_beat
                .lock()
                .expect("heartbeat clock poisoned")
                .elapsed();
            if age > timeout {
                return Some(format!(
                    "heartbeat stale for {age:.1?} (budget {timeout:.1?})"
                ));
            }
        }
        if let Some(budget) = self.time_budget {
            let elapsed = started.elapsed();
            if elapsed > budget {
                return Some(format!("running for {elapsed:.1?} (budget {budget:.1?})"));
            }
        }
        None
    }
}

enum Verdict {
    Exited(i32),
    Killed(String),
    Died,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimModel;

    #[test]
    fn spec_args_round_trip_every_field() {
        let sup = Supervisor::new(
            "/bin/true",
            SnapshotPolicy::in_dir("/tmp/snaps").every(5_000),
        );
        let spec = RunSpec::new("mcf", SimModel::Dynamic)
            .with_budget(1_000, 2_000)
            .with_watchdog(9_999)
            .with_deadline(88_888)
            .with_intervals(250)
            .with_fault(FaultSpec::PanicAt(500));
        let args = sup.spec_args(&spec);
        for expected in [
            "--profile",
            "mcf",
            "--model",
            "dynamic",
            "--warmup",
            "1000",
            "--insts",
            "2000",
            "--watchdog",
            "9999",
            "--deadline",
            "88888",
            "--intervals",
            "250",
            "--fault",
            "panic@500",
            "--snapshot-dir",
            "/tmp/snaps",
            "--snapshot-cycles",
            "5000",
            "--wire",
        ] {
            assert!(
                args.iter().any(|a| a == expected),
                "missing {expected}: {args:?}"
            );
        }
        assert!(
            !args.iter().any(|a| a == "--journal"),
            "the controller alone writes journals: {args:?}"
        );
    }

    #[test]
    fn supervise_once_classifies_exit_one_as_typed_failure() {
        let mut sup = Supervisor::new("/bin/false", SnapshotPolicy::in_dir("/tmp/never-used"));
        sup.capture_stderr = true;
        match sup.supervise_once(&RunSpec::new("gcc", SimModel::Base)) {
            WorkerEnd::TypedFailure { code: 1, .. } => {}
            other => panic!("expected TypedFailure(1), got {other:?}"),
        }
    }

    #[test]
    fn missing_worker_binary_fails_without_restarts_burning_time() {
        let sup = Supervisor::new(
            "/nonexistent/mlpwin-sim",
            SnapshotPolicy::in_dir("/tmp/never-used"),
        );
        match sup.supervise_once(&RunSpec::new("gcc", SimModel::Base)) {
            WorkerEnd::LaunchFailed { detail } => {
                assert!(detail.contains("failed to launch"), "{detail}")
            }
            other => panic!("expected launch failure, got {other:?}"),
        }
    }
}
