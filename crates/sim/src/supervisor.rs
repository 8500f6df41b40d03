//! Process-level supervision of simulation workers.
//!
//! In-process isolation (`catch_unwind` in the matrix runner) cannot
//! survive an aborting worker, a runaway allocation, or an OOM kill. The
//! [`Supervisor`] closes that gap: it runs each spec in a **child
//! process** (the `mlpwin-sim` worker binary), watches a heartbeat the
//! worker prints at every snapshot, enforces memory and wall-clock
//! budgets by killing the child, and restarts dead workers with
//! exponential backoff. Restarted workers resume from the latest valid
//! snapshot on disk, so a crash costs at most one snapshot cadence of
//! re-simulation — and the final result is bit-identical to an
//! uninterrupted run (the chaos suite in `tests/recovery.rs` asserts
//! exactly that).

use crate::journal::spec_hash;
use crate::metrics;
use crate::runner::{
    FaultSpec, RunSpec, METRIC_CYCLES_SKIPPED, METRIC_CYCLES_STEPPED, METRIC_EVENTS_POPPED,
    METRIC_EVENTS_POSTED,
};
use crate::signals::EXIT_INTERRUPTED;
use crate::snapshot::SnapshotPolicy;
use mlpwin_ooo::EngineCounters;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Counter of worker child processes launched.
pub const METRIC_WORKER_LAUNCHES: &str = "mlpwin_worker_launches_total";
/// Counter of workers killed for a blown budget (heartbeat staleness,
/// resident set, or wall clock).
pub const METRIC_WORKER_BUDGET_KILLS: &str = "mlpwin_worker_budget_kills_total";
/// Counter of worker heartbeat lines observed.
pub const METRIC_WORKER_HEARTBEATS: &str = "mlpwin_worker_heartbeats_total";

/// How often a running child's heartbeat, memory and wall-clock budgets
/// are checked.
const BUDGET_TICK: Duration = Duration::from_millis(20);

/// A callback invoked with the cycle count of every `hb <cycle>` line a
/// worker prints. The campaign control plane uses it to renew the
/// worker's job lease — liveness and ownership ride the same signal.
#[derive(Clone)]
pub struct HeartbeatHook(pub Arc<dyn Fn(u64) + Send + Sync>);

impl std::fmt::Debug for HeartbeatHook {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("<heartbeat hook>")
    }
}

/// How a single worker launch ended — the one-attempt verdict behind
/// [`Supervisor::supervise`]'s retrying loop, exposed for callers (the
/// campaign control plane) that do their own retry accounting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WorkerEnd {
    /// Exit 0: the spec finished and (when configured) journaled.
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

/// How a supervised spec ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SuperviseOutcome {
    /// The worker exited cleanly (possibly after restarts).
    Completed {
        /// Worker launches it took, including the successful one.
        attempts: u32,
    },
    /// The worker reported a graceful interrupt
    /// ([`EXIT_INTERRUPTED`]); re-supervising the same spec resumes it.
    Interrupted {
        /// Worker launches before the interrupt.
        attempts: u32,
    },
    /// The restart budget ran out (or the worker could not launch).
    Failed {
        /// Worker launches attempted.
        attempts: u32,
        /// The final failure, human-readable.
        detail: String,
    },
}

/// Parses the body of a worker's `eng` stdout line —
/// `posted=N popped=N skipped=N stepped=N`, any order, unknown keys
/// ignored so the protocol can grow. `None` when any of the four is
/// missing or malformed.
fn parse_engine_line(rest: &str) -> Option<EngineCounters> {
    let mut engine = EngineCounters::default();
    let mut seen = 0u8;
    for field in rest.split_whitespace() {
        let (key, value) = field.split_once('=')?;
        let value: u64 = value.parse().ok()?;
        match key {
            "posted" => (engine.events_posted, seen) = (value, seen | 1),
            "popped" => (engine.events_popped, seen) = (value, seen | 2),
            "skipped" => (engine.skipped_cycles, seen) = (value, seen | 4),
            "stepped" => (engine.stepped_cycles, seen) = (value, seen | 8),
            _ => {}
        }
    }
    (seen == 0b1111).then_some(engine)
}

/// Runs specs in supervised child processes.
#[derive(Debug, Clone)]
pub struct Supervisor {
    /// The `mlpwin-sim` worker executable.
    pub worker_exe: PathBuf,
    /// Snapshot policy forwarded to every worker (and the place
    /// restarted workers resume from).
    pub snapshots: SnapshotPolicy,
    /// Results journal forwarded to every worker.
    pub journal: Option<PathBuf>,
    /// Restarts after the first launch (total launches = 1 + restarts).
    pub max_restarts: u32,
    /// First-restart delay; doubles per restart.
    pub backoff_base: Duration,
    /// Kill a worker whose last heartbeat is older than this; `None`
    /// disables the liveness check.
    pub heartbeat_timeout: Option<Duration>,
    /// Kill a worker whose resident set exceeds this many kilobytes.
    pub memory_budget_kb: Option<u64>,
    /// Kill a worker running longer than this wall-clock budget.
    pub time_budget: Option<Duration>,
    /// Test-only chaos injection forwarded to the worker
    /// (`--chaos-kill-at`): abort at the first snapshot at or past this
    /// cycle, on fresh starts only — so the supervised restart resumes
    /// and completes.
    pub chaos_kill_at: Option<u64>,
    /// Called with the cycle of every worker heartbeat (lease renewal).
    pub heartbeat_hook: Option<HeartbeatHook>,
    /// Pipe and keep the tail of worker stderr — attached to
    /// [`WorkerEnd::Death`] so a quarantined job carries its last
    /// diagnostics (StallSnapshot, panic message). Off by default:
    /// inherited stderr streams to the operator live.
    pub capture_stderr: bool,
    /// The engine-telemetry summary (`eng ...` line) of the most recent
    /// worker that printed one; workers predating the protocol simply
    /// never fill it.
    last_engine: Arc<Mutex<Option<EngineCounters>>>,
}

impl Supervisor {
    /// A supervisor with lenient defaults: three restarts, 100 ms base
    /// backoff, no heartbeat/memory/time budgets.
    pub fn new(worker_exe: impl Into<PathBuf>, snapshots: SnapshotPolicy) -> Supervisor {
        Supervisor {
            worker_exe: worker_exe.into(),
            snapshots,
            journal: None,
            max_restarts: 3,
            backoff_base: Duration::from_millis(100),
            heartbeat_timeout: None,
            memory_budget_kb: None,
            time_budget: None,
            chaos_kill_at: None,
            heartbeat_hook: None,
            capture_stderr: false,
            last_engine: Arc::new(Mutex::new(None)),
        }
    }

    /// The event-engine counters the most recent supervised worker
    /// reported on exit, if it spoke the `eng` protocol line.
    pub fn last_engine(&self) -> Option<EngineCounters> {
        *self.last_engine.lock().expect("engine slot poisoned")
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
            "--heartbeat".into(),
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
        if let Some(journal) = &self.journal {
            args.push("--journal".into());
            args.push(journal.display().to_string());
        }
        if let Some(at) = self.chaos_kill_at {
            args.push("--chaos-kill-at".into());
            args.push(at.to_string());
        }
        args
    }

    /// Launches `spec`'s worker exactly once, watches it against every
    /// budget, and classifies how it ended. No restarts, no backoff —
    /// that policy lives in [`supervise`](Supervisor::supervise) (local
    /// retrying) and in the campaign queue's lease/quarantine machinery
    /// (distributed retrying), both built on this primitive.
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
            let hook = self.heartbeat_hook.clone();
            let engine_slot = Arc::clone(&self.last_engine);
            std::thread::spawn(move || {
                use std::io::BufRead as _;
                let _eof = eof_tx;
                for line in std::io::BufReader::new(stdout).lines() {
                    let Ok(line) = line else { break };
                    if let Some(rest) = line.strip_prefix("hb ") {
                        *last_beat.lock().expect("heartbeat clock poisoned") = Instant::now();
                        metrics::counter_add(METRIC_WORKER_HEARTBEATS, 1);
                        if let (Some(hook), Ok(cycle)) = (&hook, rest.trim().parse::<u64>()) {
                            (hook.0)(cycle);
                        }
                    } else if let Some(rest) = line.strip_prefix("eng ") {
                        // Worker engine telemetry: fold into this
                        // process's registry so the controller's
                        // /metrics sees the fleet's event traffic, and
                        // stash it for the campaign progress line.
                        if let Some(engine) = parse_engine_line(rest) {
                            metrics::counter_add(METRIC_EVENTS_POSTED, engine.events_posted);
                            metrics::counter_add(METRIC_EVENTS_POPPED, engine.events_popped);
                            metrics::counter_add(METRIC_CYCLES_SKIPPED, engine.skipped_cycles);
                            metrics::counter_add(METRIC_CYCLES_STEPPED, engine.stepped_cycles);
                            *engine_slot.lock().expect("engine slot poisoned") = Some(engine);
                        }
                    }
                }
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

    /// Runs `spec` to completion under supervision: launch the worker,
    /// watch heartbeat/memory/time, kill on a blown budget, restart with
    /// exponential backoff. Restarted workers find the previous
    /// incarnation's snapshots (same directory, same
    /// [`spec_hash`]) and resume mid-run.
    pub fn supervise(&self, spec: &RunSpec) -> SuperviseOutcome {
        let max_attempts = 1 + self.max_restarts;
        let mut attempts = 0;
        let mut last_detail = String::new();
        while attempts < max_attempts {
            if attempts > 0 {
                // Exponential backoff between restarts.
                let delay = self.backoff_base * 2_u32.saturating_pow(attempts - 1);
                std::thread::sleep(delay);
            }
            attempts += 1;
            match self.supervise_once(spec) {
                WorkerEnd::Clean => return SuperviseOutcome::Completed { attempts },
                WorkerEnd::Interrupted => return SuperviseOutcome::Interrupted { attempts },
                WorkerEnd::LaunchFailed { detail } => {
                    return SuperviseOutcome::Failed { attempts, detail }
                }
                // Local supervision predates the typed/death split and
                // retries both: a restart is cheap, and a worker that
                // fails the same way again exhausts the budget quickly.
                WorkerEnd::TypedFailure { code, .. } => {
                    last_detail = format!("worker exited with code {code}");
                }
                WorkerEnd::Death { detail, .. } => last_detail = detail,
            }
            eprintln!(
                "supervisor: spec {:016x} attempt {attempts}: {last_detail}; will resume from latest snapshot",
                spec_hash(spec)
            );
        }
        SuperviseOutcome::Failed {
            attempts,
            detail: format!("restart budget exhausted: {last_detail}"),
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
            let kill_reason = self.blown_budget(child.id(), started, last_beat);
            if let Some(reason) = kill_reason {
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

    fn blown_budget(
        &self,
        pid: u32,
        started: Instant,
        last_beat: &Arc<Mutex<Instant>>,
    ) -> Option<String> {
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
        if let Some(budget_kb) = self.memory_budget_kb {
            if let Some(rss_kb) = resident_kb(pid) {
                if rss_kb > budget_kb {
                    return Some(format!(
                        "resident set {rss_kb} kB over budget {budget_kb} kB"
                    ));
                }
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

/// The process's resident set in kilobytes, from `/proc/<pid>/status`;
/// `None` off Linux or when the process is gone.
fn resident_kb(pid: u32) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    parse_vmrss_kb(&status)
}

fn parse_vmrss_kb(status: &str) -> Option<u64> {
    status
        .lines()
        .find(|l| l.starts_with("VmRSS:"))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimModel;

    #[test]
    fn engine_line_parses_and_rejects() {
        let engine =
            parse_engine_line("posted=10 popped=9 skipped=8000 stepped=2000").expect("well-formed");
        assert_eq!(engine.events_posted, 10);
        assert_eq!(engine.events_popped, 9);
        assert_eq!(engine.skipped_cycles, 8000);
        assert_eq!(engine.stepped_cycles, 2000);
        assert!((engine.skip_fraction() - 0.8).abs() < 1e-9);
        // Order-free, unknown keys tolerated.
        assert!(parse_engine_line("stepped=1 skipped=2 popped=3 posted=4 future=5").is_some());
        // Missing or malformed fields reject the line.
        assert!(parse_engine_line("posted=10 popped=9 skipped=8000").is_none());
        assert!(parse_engine_line("posted=x popped=9 skipped=8 stepped=2").is_none());
        assert!(parse_engine_line("").is_none());
    }

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
            "--heartbeat",
        ] {
            assert!(
                args.iter().any(|a| a == expected),
                "missing {expected}: {args:?}"
            );
        }
    }

    #[test]
    fn vmrss_parses_the_proc_status_format() {
        let status = "Name:\tmlpwin-sim\nVmPeak:\t  123 kB\nVmRSS:\t    4567 kB\n";
        assert_eq!(parse_vmrss_kb(status), Some(4567));
        assert_eq!(parse_vmrss_kb("Name: x\n"), None);
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
        let mut sup = Supervisor::new(
            "/nonexistent/mlpwin-sim",
            SnapshotPolicy::in_dir("/tmp/never-used"),
        );
        sup.backoff_base = Duration::from_millis(1);
        let out = sup.supervise(&RunSpec::new("gcc", SimModel::Base));
        match out {
            SuperviseOutcome::Failed { detail, .. } => {
                assert!(detail.contains("failed to launch"), "{detail}")
            }
            other => panic!("expected launch failure, got {other:?}"),
        }
    }
}
