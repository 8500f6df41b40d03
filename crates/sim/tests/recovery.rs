//! Crash-recovery chaos suite.
//!
//! Kills real worker processes (SIGKILL-equivalent aborts, SIGTERM
//! interrupts, supervisor budget kills) at pseudo-random cycles across
//! memory- and compute-intensive profiles, base and dynamic policies,
//! and runahead — then asserts the resumed runs are **bit-identical** to
//! uninterrupted ones: same stats, same journal bytes, same spec hash.
//! Also exercises snapshot-corruption healing and the in-process
//! interrupt path end to end.

use mlpwin_sim::journal::encode_line;
use mlpwin_sim::runner::{run_recoverable, RunSpec};
use mlpwin_sim::snapshot::{SnapshotPolicy, SnapshotStore};
use mlpwin_sim::split::{run_split, SplitConfig};
use mlpwin_sim::wire::{read_frame, WireError};
use mlpwin_sim::{signals, spec_hash, Journal, Msg, SimModel, Supervisor, WorkerEnd};
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::{Arc, Mutex};
use std::time::Duration;

const WORKER: &str = env!("CARGO_BIN_EXE_mlpwin-sim");

/// The in-process interrupt flag is process-global; tests that touch it
/// serialize on this lock (worker-process tests don't need it).
static SIGNAL_LOCK: Mutex<()> = Mutex::new(());

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mlpwin-recovery-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// The worker command line for `spec` in `dir`, with a snapshot cadence
/// of `cadence` cycles and the journal at `dir/journal.jsonl`.
fn worker_cmd(spec: &RunSpec, dir: &Path, cadence: u64) -> Command {
    let mut cmd = Command::new(WORKER);
    cmd.args([
        "--profile".to_string(),
        spec.profile.clone(),
        "--model".to_string(),
        spec.model.tag(),
        "--warmup".to_string(),
        spec.warmup.to_string(),
        "--insts".to_string(),
        spec.insts.to_string(),
        "--seed".to_string(),
        spec.seed.to_string(),
        "--snapshot-dir".to_string(),
        dir.join("snaps").display().to_string(),
        "--snapshot-cycles".to_string(),
        cadence.to_string(),
        "--journal".to_string(),
        dir.join("journal.jsonl").display().to_string(),
    ]);
    cmd
}

fn journal_bytes(dir: &Path) -> Vec<u8> {
    std::fs::read(dir.join("journal.jsonl")).expect("journal written")
}

/// Kill a worker at `kill_cycle` via the chaos hook, resume it with the
/// identical command, run an uninterrupted control in a second
/// directory, and demand byte-identical journals (which embed the full
/// stats and the spec). `env` is applied to every invocation.
fn chaos_round(spec: &RunSpec, kill_cycle: u64, tag: &str, env: &[(&str, &str)]) {
    let cadence = 400;
    let dir = scratch(&format!("chaos-{tag}"));
    let clean_dir = scratch(&format!("chaos-{tag}-clean"));

    let mut doomed = worker_cmd(spec, &dir, cadence);
    doomed.arg("--chaos-kill-at").arg(kill_cycle.to_string());
    for (k, v) in env {
        doomed.env(k, v);
    }
    let status = doomed.status().expect("spawn worker");
    assert!(
        !status.success(),
        "{tag}: the chaos-killed worker must not exit cleanly"
    );
    let snaps = std::fs::read_dir(dir.join("snaps"))
        .expect("snapshot dir")
        .count();
    assert!(snaps > 0, "{tag}: the dying worker left no snapshot");

    // Same command, same chaos flag: resumed runs never re-fire it.
    let mut resume = worker_cmd(spec, &dir, cadence);
    resume.arg("--chaos-kill-at").arg(kill_cycle.to_string());
    for (k, v) in env {
        resume.env(k, v);
    }
    let status = resume.status().expect("spawn worker");
    assert!(status.success(), "{tag}: the resumed worker must complete");

    let mut clean = worker_cmd(spec, &clean_dir, cadence);
    for (k, v) in env {
        clean.env(k, v);
    }
    let status = clean.status().expect("spawn worker");
    assert!(status.success(), "{tag}: the control worker must complete");

    assert_eq!(
        journal_bytes(&dir),
        journal_bytes(&clean_dir),
        "{tag}: kill at cycle {kill_cycle} + resume must be bit-identical \
         to an uninterrupted run"
    );
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&clean_dir).ok();
}

#[test]
fn chaos_killed_workers_resume_bit_identically() {
    let combos: &[(&str, SimModel)] = &[
        ("mcf", SimModel::Base),
        ("mcf", SimModel::Dynamic),
        ("gcc", SimModel::Base),
        ("gcc", SimModel::Dynamic),
        ("libquantum", SimModel::Runahead),
    ];
    // Deterministic pseudo-random kill cycles (no clock, no RNG crate).
    let mut x: u64 = 0x2545_F491_4F6C_DD1D;
    for (i, (profile, model)) in combos.iter().enumerate() {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let kill_cycle = 300 + x % 2200;
        let spec = RunSpec::new(profile, *model).with_budget(2_000, 4_000);
        chaos_round(
            &spec,
            kill_cycle,
            &format!("{i}-{profile}-{}", model.tag()),
            &[],
        );
    }
}

#[test]
fn chaos_resume_is_bit_identical_with_fast_forward_on_either_setting() {
    let spec = RunSpec::new("mcf", SimModel::Dynamic).with_budget(2_000, 4_000);
    // Fast-forward disabled end to end.
    chaos_round(&spec, 1_100, "noff", &[("MLPWIN_NO_FAST_FORWARD", "1")]);
    // And the default fast-forwarding build again, for the same kill
    // cycle — the fastpath must not perturb recovery.
    chaos_round(&spec, 1_100, "ff", &[]);
}

#[test]
fn sigterm_exits_resumable_and_the_rerun_completes() {
    let spec = RunSpec::new("gcc", SimModel::Base).with_budget(1_000, 400_000);
    let dir = scratch("sigterm");
    let clean_dir = scratch("sigterm-clean");

    let mut cmd = worker_cmd(&spec, &dir, 200);
    cmd.arg("--wire").stdout(std::process::Stdio::piped());
    let mut child = cmd.spawn().expect("spawn worker");
    // Wait for the first heartbeat frame so the signal lands mid-run
    // with at least one snapshot on disk.
    {
        let mut stdout = child.stdout.take().expect("piped stdout");
        let first = read_frame(&mut stdout).expect("one frame");
        assert!(
            matches!(first, Msg::Heartbeat { .. }),
            "expected a heartbeat, got {first:?}"
        );
        extern "C" {
            fn kill(pid: i32, sig: i32) -> i32;
        }
        let rc = unsafe { kill(child.id() as i32, 15) };
        assert_eq!(rc, 0, "kill(SIGTERM) failed");
        // Drain the pipe so the worker never blocks on a full buffer.
        std::io::copy(&mut stdout, &mut std::io::sink()).expect("drain");
    }
    let status = child.wait().expect("wait worker");
    assert_eq!(
        status.code(),
        Some(signals::EXIT_INTERRUPTED),
        "a signalled worker must exit with the resumable code"
    );
    assert!(
        !std::fs::read_to_string(dir.join("journal.jsonl"))
            .map(|s| s.contains("gcc"))
            .unwrap_or(false),
        "an interrupted run must not be journaled as complete"
    );

    let status = worker_cmd(&spec, &dir, 200).status().expect("spawn worker");
    assert!(status.success(), "the rerun must resume and complete");
    let status = worker_cmd(&spec, &clean_dir, 200)
        .status()
        .expect("spawn worker");
    assert!(status.success());
    assert_eq!(
        journal_bytes(&dir),
        journal_bytes(&clean_dir),
        "SIGTERM + resume must be bit-identical to an uninterrupted run"
    );
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&clean_dir).ok();
}

/// `mlpwin-sim --wire` speaks the fleet's frames on stdout: heartbeats
/// at snapshot cadence, then exactly one result frame carrying the
/// journal line of the run, then EOF.
#[test]
fn wire_worker_writes_heartbeats_then_one_result_frame() {
    let spec = RunSpec::new("mcf", SimModel::Dynamic).with_budget(2_000, 4_000);
    let dir = scratch("wire");
    let out = worker_cmd(&spec, &dir, 400)
        .arg("--wire")
        .output()
        .expect("run worker");
    assert!(out.status.success(), "worker failed: {out:?}");
    let mut stdout = out.stdout.as_slice();
    let mut frames = Vec::new();
    let eof = loop {
        match read_frame(&mut stdout) {
            Ok(msg) => frames.push(msg),
            Err(e) => break e,
        }
    };
    assert_eq!(
        eof,
        WireError::Closed,
        "stdout must end on a frame boundary"
    );
    let (last, beats) = frames.split_last().expect("at least one frame");
    assert!(!beats.is_empty(), "no heartbeat frame before the result");
    assert!(
        beats.iter().all(|m| matches!(m, Msg::Heartbeat { .. })),
        "only heartbeats precede the result: {beats:?}"
    );
    let reference = mlpwin_sim::runner::run(&spec).expect("reference run");
    match last {
        Msg::Result { line, .. } => assert_eq!(*line, encode_line(&spec, &reference)),
        other => panic!("the last frame must be the result, got {other:?}"),
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A `--wire` child whose reader goes away is an orphan: its next
/// heartbeat fails, and it stops there with the snapshot kept and the
/// resumable exit code, instead of simulating to the end and discarding
/// the snapshots a resumed campaign's child shares.
#[test]
fn wire_worker_whose_reader_goes_away_exits_resumable() {
    let spec = RunSpec::new("gcc", SimModel::Base).with_budget(1_000, 400_000);
    let dir = scratch("orphan");
    let mut cmd = worker_cmd(&spec, &dir, 200);
    cmd.arg("--wire")
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::null());
    let mut child = cmd.spawn().expect("spawn worker");
    {
        let mut stdout = child.stdout.take().expect("piped stdout");
        let first = read_frame(&mut stdout).expect("one frame");
        assert!(
            matches!(first, Msg::Heartbeat { .. }),
            "expected a heartbeat, got {first:?}"
        );
    } // the read end closes here
    let status = child.wait().expect("wait worker");
    assert_eq!(
        status.code(),
        Some(signals::EXIT_INTERRUPTED),
        "an orphaned wire worker must exit with the resumable code"
    );
    let store = SnapshotStore::new(dir.join("snaps"), spec_hash(&spec), 3);
    assert!(
        store.load_latest().is_some(),
        "the orphan must keep its snapshot"
    );

    let status = worker_cmd(&spec, &dir, 200).status().expect("spawn worker");
    assert!(status.success(), "the rerun must resume and complete");
    let reference = mlpwin_sim::runner::run(&spec).expect("reference run");
    assert_eq!(
        journal_bytes(&dir),
        format!("{}\n", encode_line(&spec, &reference)).into_bytes(),
        "orphan stop + resume must equal an uninterrupted run"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn in_process_interrupt_leaves_a_resumable_snapshot() {
    let _guard = SIGNAL_LOCK.lock().expect("signal lock");
    let dir = scratch("inproc");
    let policy = SnapshotPolicy::in_dir(dir.join("snaps")).every(300);
    let spec = RunSpec::new("milc", SimModel::Dynamic).with_budget(2_000, 3_000);

    signals::reset();
    signals::request_interrupt();
    let err = std::panic::catch_unwind(|| run_recoverable(&spec, &policy))
        .expect_err("an interrupted run unwinds");
    assert!(signals::is_interrupt_payload(err.as_ref()));

    let store = SnapshotStore::new(dir.join("snaps"), spec_hash(&spec), 3);
    let snap = store.load_latest().expect("interrupt leaves a snapshot");
    assert!(snap.cycle > 0);

    signals::reset();
    let resumed = run_recoverable(&spec, &policy).expect("resume completes");
    let reference = mlpwin_sim::runner::run(&spec).expect("reference run");
    assert_eq!(resumed, reference, "resumed run must be bit-identical");
    assert!(
        store.load_latest().is_none(),
        "a completed spec must not keep stale snapshots"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn corrupt_snapshot_heals_to_an_older_generation_or_fresh_start() {
    let _guard = SIGNAL_LOCK.lock().expect("signal lock");
    let dir = scratch("heal");
    let policy = SnapshotPolicy::in_dir(dir.join("snaps")).every(250);
    let spec = RunSpec::new("soplex", SimModel::Base).with_budget(1_500, 2_500);

    signals::reset();
    signals::request_interrupt();
    let _ = std::panic::catch_unwind(|| run_recoverable(&spec, &policy));
    signals::reset();

    // Bit-flip the newest snapshot mid-file.
    let store = SnapshotStore::new(dir.join("snaps"), spec_hash(&spec), 3);
    let newest = store.load_latest().expect("snapshot present").path;
    let mut bytes = std::fs::read(&newest).expect("read snapshot");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    std::fs::write(&newest, &bytes).expect("corrupt snapshot");

    // The quarantine must also be visible in telemetry.
    mlpwin_sim::metrics::set_telemetry(true);
    let corrupt_before = mlpwin_sim::metrics::global()
        .snapshot()
        .counters
        .get(mlpwin_sim::snapshot::METRIC_SNAPSHOT_CORRUPT)
        .copied()
        .unwrap_or(0);

    let resumed = run_recoverable(&spec, &policy).expect("healed run completes");
    let corrupt_after = mlpwin_sim::metrics::global()
        .snapshot()
        .counters
        .get(mlpwin_sim::snapshot::METRIC_SNAPSHOT_CORRUPT)
        .copied()
        .unwrap_or(0);
    mlpwin_sim::metrics::set_telemetry(false);
    assert_eq!(
        corrupt_after,
        corrupt_before + 1,
        "exactly one quarantined snapshot must be counted"
    );
    let reference = mlpwin_sim::runner::run(&spec).expect("reference run");
    assert_eq!(resumed, reference, "healed run must be bit-identical");
    assert!(
        std::fs::read_dir(dir.join("snaps"))
            .expect("snapshot dir")
            .filter_map(|e| e.ok())
            .any(|e| e.file_name().to_string_lossy().ends_with(".corrupt")),
        "the corrupt file must be quarantined"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// The schema this build's predecessor wrote; its core images carry
/// completion events for every instruction rather than branches only.
const OLD_SNAPSHOT_SCHEMA: u32 = 2;

/// Rewrites a snapshot frame as an intact frame of the old schema: the
/// schema field changes and the CRC is recomputed, so only the schema
/// check can refuse it.
fn downgrade_frame(path: &Path) {
    assert_ne!(OLD_SNAPSHOT_SCHEMA, mlpwin_sim::SNAPSHOT_SCHEMA);
    let mut bytes = std::fs::read(path).expect("read frame");
    bytes[8..12].copy_from_slice(&OLD_SNAPSHOT_SCHEMA.to_le_bytes());
    let body = bytes.len() - 4;
    let crc = mlpwin_isa::snap::crc32(&bytes[..body]);
    bytes[body..].copy_from_slice(&crc.to_le_bytes());
    std::fs::write(path, bytes).expect("rewrite frame");
}

fn corrupt_counter() -> u64 {
    mlpwin_sim::metrics::global()
        .snapshot()
        .counters
        .get(mlpwin_sim::snapshot::METRIC_SNAPSHOT_CORRUPT)
        .copied()
        .unwrap_or(0)
}

/// Files under `dir` (recursively) whose name ends with `suffix`.
fn files_ending(dir: &Path, suffix: &str) -> Vec<PathBuf> {
    let mut out = Vec::new();
    for entry in std::fs::read_dir(dir).expect("read dir").flatten() {
        let path = entry.path();
        if path.is_dir() {
            out.extend(files_ending(&path, suffix));
        } else if path.to_string_lossy().ends_with(suffix) {
            out.push(path);
        }
    }
    out.sort();
    out
}

/// Journal bytes of one result appended to a fresh journal.
fn journal_of(dir: &Path, name: &str, spec: &RunSpec, result: &mlpwin_sim::RunResult) -> Vec<u8> {
    let path = dir.join(name);
    Journal::new(&path)
        .append(spec, result)
        .expect("journal append");
    std::fs::read(&path).expect("journal written")
}

#[test]
fn old_schema_snapshots_are_quarantined_and_the_rerun_journal_is_identical() {
    let _guard = SIGNAL_LOCK.lock().expect("signal lock");
    let dir = scratch("old-schema");
    let policy = SnapshotPolicy::in_dir(dir.join("snaps")).every(250);
    let spec = RunSpec::new("libquantum", SimModel::Runahead).with_budget(1_500, 2_500);

    signals::reset();
    signals::request_interrupt();
    let _ = std::panic::catch_unwind(|| run_recoverable(&spec, &policy));
    signals::reset();

    let frames = files_ending(&dir.join("snaps"), ".snap");
    assert!(!frames.is_empty(), "the interrupted run left no snapshot");
    for frame in &frames {
        downgrade_frame(frame);
    }

    mlpwin_sim::metrics::set_telemetry(true);
    let before = corrupt_counter();
    let rerun = run_recoverable(&spec, &policy).expect("rerun completes");
    let after = corrupt_counter();
    mlpwin_sim::metrics::set_telemetry(false);

    assert_eq!(
        after,
        before + frames.len() as u64,
        "every old-schema snapshot must be counted as quarantined"
    );
    assert_eq!(
        files_ending(&dir.join("snaps"), ".corrupt").len(),
        frames.len(),
        "every old-schema snapshot must be moved aside"
    );
    let reference = mlpwin_sim::runner::run(&spec).expect("reference run");
    assert_eq!(
        journal_of(&dir, "rerun.jsonl", &spec, &rerun),
        journal_of(&dir, "reference.jsonl", &spec, &reference),
        "the rerun must journal byte-identically to a clean run"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn old_schema_split_boundary_is_quarantined_and_the_rerun_journal_is_identical() {
    let _guard = SIGNAL_LOCK.lock().expect("signal lock");
    let dir = scratch("old-schema-split");
    let spec = RunSpec::new("mcf", SimModel::Dynamic).with_budget(2_000, 6_000);
    let cfg = SplitConfig::new(44_000);
    let first = run_split(&spec, &cfg, &dir.join("store")).expect("first split");
    assert!(
        first.n_intervals >= 3,
        "the run must split into several intervals"
    );

    // An old build's boundary frame, and no cached interval results, so
    // the rerun must either use the stored frames or re-sweep.
    let boundary = files_ending(&dir.join("store"), "b000001.snap");
    assert_eq!(boundary.len(), 1, "one store, one boundary 1 frame");
    downgrade_frame(&boundary[0]);
    for journal in files_ending(&dir.join("store"), "intervals.jsonl") {
        std::fs::remove_file(journal).expect("drop cached intervals");
    }

    mlpwin_sim::metrics::set_telemetry(true);
    let before = corrupt_counter();
    let rerun = run_split(&spec, &cfg, &dir.join("store")).expect("rerun split");
    let after = corrupt_counter();
    mlpwin_sim::metrics::set_telemetry(false);

    assert_eq!(after, before + 1, "the old-schema boundary must be counted");
    assert!(
        !rerun.sweep_reused,
        "a store with a refused frame is re-swept"
    );
    assert_eq!(
        files_ending(&dir.join("store"), "b000001.snap.corrupt").len(),
        1,
        "the old-schema boundary must be moved aside"
    );
    let reference = mlpwin_sim::runner::run(&spec).expect("reference run");
    let stitched = rerun.result.as_ref().expect("exact mode yields a result");
    assert_eq!(
        journal_of(&dir, "rerun.jsonl", &spec, stitched),
        journal_of(&dir, "reference.jsonl", &spec, &reference),
        "the re-swept split must journal byte-identically to a serial run"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn supervisor_restarts_a_crashed_worker_which_resumes_to_the_same_result() {
    let dir = scratch("supervised");
    let mut sup = Supervisor::new(WORKER, SnapshotPolicy::in_dir(dir.join("snaps")).every(400));
    sup.chaos_kill_at = Some(1_200);
    let results = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&results);
    sup.frame_hook = Some(Arc::new(move |msg| {
        if let Msg::Result { line, .. } = msg {
            sink.lock().expect("results").push(line);
        }
    }));
    let spec = RunSpec::new("mcf", SimModel::Dynamic).with_budget(2_000, 4_000);

    match sup.supervise_once(&spec) {
        WorkerEnd::Death { .. } => {}
        other => panic!("the chaos-killed worker must die, got {other:?}"),
    }
    assert!(
        results.lock().expect("results").is_empty(),
        "a dead worker sends no result frame"
    );
    assert_eq!(
        sup.supervise_once(&spec),
        WorkerEnd::Clean,
        "the relaunch resumes and completes"
    );
    let reference = mlpwin_sim::runner::run(&spec).expect("reference run");
    assert_eq!(
        *results.lock().expect("results"),
        vec![encode_line(&spec, &reference)],
        "the supervised, crashed, resumed run is bit-identical"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn supervisor_kills_a_worker_with_a_stale_heartbeat() {
    let dir = scratch("stale");
    // A cadence the run never reaches: no snapshots, hence no heartbeats.
    let mut sup = Supervisor::new(
        WORKER,
        SnapshotPolicy::in_dir(dir.join("snaps")).every(1_000_000_000_000),
    );
    sup.heartbeat_timeout = Some(Duration::from_millis(300));
    let spec = RunSpec::new("mcf", SimModel::Base).with_budget(0, 50_000_000);

    match sup.supervise_once(&spec) {
        WorkerEnd::Death { detail, .. } => {
            assert!(detail.contains("heartbeat"), "{detail}");
        }
        other => panic!("expected a heartbeat kill, got {other:?}"),
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn supervisor_enforces_the_wall_clock_budget() {
    let dir = scratch("timebudget");
    let mut sup = Supervisor::new(
        WORKER,
        SnapshotPolicy::in_dir(dir.join("snaps")).every(1_000_000_000_000),
    );
    sup.time_budget = Some(Duration::from_millis(200));
    let spec = RunSpec::new("mcf", SimModel::Base).with_budget(0, 50_000_000);

    match sup.supervise_once(&spec) {
        WorkerEnd::Death { detail, .. } => {
            assert!(detail.contains("budget"), "{detail}");
        }
        other => panic!("expected a time-budget kill, got {other:?}"),
    }
    std::fs::remove_dir_all(&dir).ok();
}

// --------------------------------------------------------- split chaos

const SPLIT_WORKER: &str = env!("CARGO_BIN_EXE_mlpwin-split");

/// The split-worker command line for `spec` over `interval`-cycle
/// intervals, storing under `dir/store` and journaling the stitched
/// result to `dir/journal.jsonl`.
fn split_cmd(spec: &RunSpec, dir: &Path, interval: u64) -> Command {
    let mut cmd = Command::new(SPLIT_WORKER);
    cmd.args([
        "--profile".to_string(),
        spec.profile.clone(),
        "--model".to_string(),
        spec.model.tag(),
        "--warmup".to_string(),
        spec.warmup.to_string(),
        "--insts".to_string(),
        spec.insts.to_string(),
        "--seed".to_string(),
        spec.seed.to_string(),
        "--interval-cycles".to_string(),
        interval.to_string(),
        "--workers".to_string(),
        "1".to_string(),
        "--dir".to_string(),
        dir.join("store").display().to_string(),
        "--journal".to_string(),
        dir.join("journal.jsonl").display().to_string(),
    ]);
    cmd
}

/// Field extractor for the split worker's `key=value` done line.
fn split_field(stdout: &str, key: &str) -> u64 {
    let line = stdout
        .lines()
        .find(|l| l.starts_with("split "))
        .unwrap_or_else(|| panic!("no split done line in {stdout:?}"));
    line.split_whitespace()
        .find_map(|tok| tok.strip_prefix(&format!("{key}=")))
        .unwrap_or_else(|| panic!("no {key}= in {line:?}"))
        .parse()
        .unwrap_or_else(|_| panic!("{key} is not a number in {line:?}"))
}

#[test]
fn chaos_killed_split_worker_resumes_only_the_dead_interval() {
    const INTERVAL: u64 = 1_024;
    let spec = RunSpec::new("mcf", SimModel::Dynamic).with_budget(2_000, 6_000);

    // Clean reference split: learn the interval structure and keep the
    // stitched journal as the byte-identity baseline.
    let clean_dir = scratch("split-chaos-clean");
    let out = split_cmd(&spec, &clean_dir, INTERVAL)
        .output()
        .expect("spawn clean split worker");
    assert!(out.status.success(), "clean split worker failed: {out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout).to_string();
    let n = split_field(&stdout, "intervals");
    let cycles = split_field(&stdout, "cycles");
    let last_start = (n - 1) * INTERVAL;
    assert!(n >= 3, "want several intervals, got {n}");
    assert!(cycles > last_start + 2, "tail interval too thin to kill in");

    // Doomed run on a fresh store: serial phase 2 journals every
    // interval before the last, then aborts midway through it.
    let kill_at = last_start + (cycles - last_start) / 2;
    let dir = scratch("split-chaos");
    let mut doomed = split_cmd(&spec, &dir, INTERVAL);
    doomed.arg("--chaos-kill-at").arg(kill_at.to_string());
    let status = doomed.status().expect("spawn doomed split worker");
    assert!(
        !status.success(),
        "the chaos-killed split worker must not exit cleanly"
    );

    // Resume with the identical command (chaos disarms itself once the
    // store holds any interval results): the sweep is reused and only
    // the interval that died is re-simulated.
    let mut resume = split_cmd(&spec, &dir, INTERVAL);
    resume.arg("--chaos-kill-at").arg(kill_at.to_string());
    let out = resume.output().expect("spawn resumed split worker");
    assert!(out.status.success(), "resumed split worker failed: {out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(
        stdout.contains("sweep_reused=true"),
        "resume must not redo the sweep: {stdout:?}"
    );
    assert_eq!(
        split_field(&stdout, "simulated"),
        1,
        "resume must re-simulate exactly the dead interval: {stdout:?}"
    );
    assert_eq!(split_field(&stdout, "cached"), n - 1, "{stdout:?}");

    assert_eq!(
        journal_bytes(&dir),
        journal_bytes(&clean_dir),
        "kill at cycle {kill_at} + resume must stitch a journal \
         bit-identical to the uninterrupted split"
    );
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&clean_dir).ok();
}
