//! Campaign control-plane chaos suite.
//!
//! Drives the real `mlpwin-serve` controller and `mlpwin-sim` workers
//! through every failure the control plane claims to survive — chaos
//! worker kills, a SIGKILL'd controller replayed from its WAL, graceful
//! SIGTERM drain, duplicate controllers, poison jobs — and asserts the
//! finalized journal is **bit-identical** to a serial, uninterrupted
//! in-process run, with no job lost, none double-counted, and a cached
//! resubmission simulating zero cycles.

use mlpwin_sim::queue::Lane;
use mlpwin_sim::runner::{FaultSpec, RunSpec};
use mlpwin_sim::serve::{run_campaign, CampaignConfig, CampaignOutcome};
use mlpwin_sim::{signals, Journal, LockedFile, SimModel};
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{Duration, Instant};

const WORKER: &str = env!("CARGO_BIN_EXE_mlpwin-sim");
const CONTROLLER: &str = env!("CARGO_BIN_EXE_mlpwin-serve");

extern "C" {
    fn kill(pid: i32, sig: i32) -> i32;
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mlpwin-campaign-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn specs() -> Vec<RunSpec> {
    vec![
        RunSpec::new("gcc", SimModel::Base).with_budget(2_000, 4_000),
        RunSpec::new("mcf", SimModel::Dynamic).with_budget(2_000, 4_000),
        RunSpec::new("milc", SimModel::Base).with_budget(2_000, 4_000),
    ]
}

fn job_arg(spec: &RunSpec) -> String {
    format!(
        "{},{},{},{},{}",
        spec.profile,
        spec.model.tag(),
        spec.warmup,
        spec.insts,
        spec.seed
    )
}

/// The journal a serial, uninterrupted, in-process run would write for
/// these specs, in submission order — the byte-level ground truth.
fn serial_reference(specs: &[RunSpec], dir: &Path) -> Vec<u8> {
    let path = dir.join("reference.jsonl");
    let journal = Journal::new(&path);
    for spec in specs {
        let result = mlpwin_sim::runner::run(spec).expect("reference run");
        journal.append(spec, &result).expect("reference append");
    }
    std::fs::read(&path).expect("reference bytes")
}

/// The controller command for `specs` in `dir` (5 s leases, 30 ms
/// backoff, 400-cycle snapshots, 2 workers).
fn controller_cmd(specs: &[RunSpec], dir: &Path) -> Command {
    let mut cmd = Command::new(CONTROLLER);
    cmd.arg("--campaign").arg(dir);
    for spec in specs {
        cmd.arg("--job").arg(job_arg(spec));
    }
    cmd.args([
        "--workers",
        "2",
        "--backoff-ms",
        "30",
        "--snapshot-cycles",
        "400",
    ]);
    cmd.arg("--worker-exe").arg(WORKER);
    cmd
}

fn journal_bytes(dir: &Path) -> Vec<u8> {
    std::fs::read(dir.join("journal.jsonl")).expect("finalized journal")
}

/// The controller is the only writer of `done.jsonl`, and it banks a
/// spec's result once: one decodable line per distinct spec.
fn assert_one_done_line_per_spec(dir: &Path, specs: &[RunSpec]) {
    let done = Journal::new(dir.join("done.jsonl"))
        .load()
        .expect("done.jsonl reads");
    assert_eq!(done.len(), specs.len(), "done.jsonl lines: {done:?}");
    for spec in specs {
        assert_eq!(
            done.iter().filter(|(s, _)| s == spec).count(),
            1,
            "{} {}: one done.jsonl line",
            spec.profile,
            spec.model.tag()
        );
    }
}

fn stdout_of(out: &std::process::Output) -> String {
    String::from_utf8_lossy(&out.stdout).to_string()
}

#[test]
fn campaign_matches_serial_reference_and_cached_rerun_simulates_nothing() {
    let dir = scratch("basic");
    let ref_dir = scratch("basic-ref");
    let specs = specs();
    let reference = serial_reference(&specs, &ref_dir);

    let out = controller_cmd(&specs, &dir)
        .output()
        .expect("run controller");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = stdout_of(&out);
    assert!(stdout.contains("jobs=3"), "{stdout}");
    assert!(stdout.contains("done=3"), "{stdout}");
    assert_eq!(
        journal_bytes(&dir),
        reference,
        "the campaign journal must be bit-identical to the serial reference"
    );

    // Resubmit into a fresh campaign warmed from the finished journal:
    // every job is a verified cache hit, zero cycles simulated.
    let cache_dir = scratch("basic-cache");
    let mut rerun = controller_cmd(&specs, &cache_dir);
    rerun.arg("--cache").arg(dir.join("journal.jsonl"));
    let out = rerun.output().expect("run cached controller");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = stdout_of(&out);
    assert!(stdout.contains("cache_hits=3"), "{stdout}");
    assert!(stdout.contains("simulated=0"), "{stdout}");
    assert_eq!(
        journal_bytes(&cache_dir),
        reference,
        "a fully-cached campaign must still finalize the identical journal"
    );

    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&ref_dir).ok();
    std::fs::remove_dir_all(&cache_dir).ok();
}

#[test]
fn chaos_worker_kills_converge_to_the_identical_journal() {
    let dir = scratch("chaos");
    let ref_dir = scratch("chaos-ref");
    let specs = specs();
    let reference = serial_reference(&specs, &ref_dir);

    // Every job's first worker aborts mid-run; the lease machinery
    // charges the death, requeues, and the retry resumes from the
    // dead worker's snapshot.
    let mut cmd = controller_cmd(&specs, &dir);
    cmd.args(["--chaos-kill-at", "1200", "--max-kills", "3"]);
    let out = cmd.output().expect("run controller");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = stdout_of(&out);
    assert!(stdout.contains("done=3"), "{stdout}");
    assert!(stdout.contains("quarantined=0"), "{stdout}");
    assert_eq!(
        journal_bytes(&dir),
        reference,
        "worker SIGKILLs + resumed retries must converge bit-identically"
    );
    assert_one_done_line_per_spec(&dir, &specs);
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&ref_dir).ok();
}

#[test]
fn controller_sigkill_mid_campaign_resumes_without_losing_or_repeating_jobs() {
    let dir = scratch("ctlkill");
    let ref_dir = scratch("ctlkill-ref");
    let specs = specs();
    let reference = serial_reference(&specs, &ref_dir);

    // Chaos worker kills both slow the campaign down (so the SIGKILL
    // lands mid-flight) and compound the failure: workers AND the
    // controller die in one run.
    let mut cmd = controller_cmd(&specs, &dir);
    cmd.args(["--chaos-kill-at", "1200"]);
    let mut controller = cmd.spawn().expect("spawn controller");

    // Kill the controller as soon as the WAL proves the campaign is
    // mid-flight (first lease logged).
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let mid_flight = std::fs::read_to_string(dir.join("campaign.wal"))
            .map(|wal| wal.contains("\"lease\""))
            .unwrap_or(false);
        if mid_flight {
            break;
        }
        if let Some(status) = controller.try_wait().expect("try_wait") {
            panic!("controller finished before the kill landed: {status}");
        }
        assert!(Instant::now() < deadline, "campaign never got mid-flight");
        std::thread::sleep(Duration::from_millis(5));
    }
    let rc = unsafe { kill(controller.id() as i32, 9) };
    assert_eq!(rc, 0, "kill(SIGKILL) failed");
    let status = controller.wait().expect("wait controller");
    assert!(
        !status.success(),
        "a SIGKILL'd controller cannot exit cleanly"
    );

    // Same command again: the WAL replays, leased jobs return to the
    // queue, finished jobs are never re-run, and the campaign finishes.
    let mut cmd = controller_cmd(&specs, &dir);
    cmd.args(["--chaos-kill-at", "1200"]);
    let out = cmd.output().expect("resume controller");
    assert!(
        out.status.success(),
        "resumed controller failed; stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = stdout_of(&out);
    assert!(
        stdout.contains("jobs=3"),
        "no job lost or invented: {stdout}"
    );
    assert!(stdout.contains("done=3"), "{stdout}");
    assert_eq!(
        journal_bytes(&dir),
        reference,
        "controller SIGKILL + WAL replay must still produce the \
         bit-identical journal"
    );
    assert_one_done_line_per_spec(&dir, &specs);
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&ref_dir).ok();
}

#[test]
fn sigterm_drains_gracefully_and_the_rerun_finishes_the_campaign() {
    let dir = scratch("drain");
    let ref_dir = scratch("drain-ref");
    // More jobs + single worker + chaos retries: the drain signal lands
    // with work still queued.
    let specs: Vec<RunSpec> = ["gcc", "mcf", "milc", "libquantum", "soplex", "lbm"]
        .iter()
        .map(|p| RunSpec::new(p, SimModel::Base).with_budget(2_000, 4_000))
        .collect();
    let reference = serial_reference(&specs, &ref_dir);

    let mut cmd = Command::new(CONTROLLER);
    cmd.arg("--campaign").arg(&dir);
    for spec in &specs {
        cmd.arg("--job").arg(job_arg(spec));
    }
    cmd.args([
        "--workers",
        "1",
        "--backoff-ms",
        "30",
        "--snapshot-cycles",
        "400",
        "--chaos-kill-at",
        "1200",
    ]);
    cmd.arg("--worker-exe").arg(WORKER);
    let mut controller = cmd.spawn().expect("spawn controller");

    // SIGTERM once the first lease is logged.
    let deadline = Instant::now() + Duration::from_secs(60);
    while !std::fs::read_to_string(dir.join("campaign.wal"))
        .map(|wal| wal.contains("\"lease\""))
        .unwrap_or(false)
    {
        if controller.try_wait().expect("try_wait").is_some() {
            panic!("controller finished before the drain signal landed");
        }
        assert!(Instant::now() < deadline, "campaign never got mid-flight");
        std::thread::sleep(Duration::from_millis(5));
    }
    let rc = unsafe { kill(controller.id() as i32, 15) };
    assert_eq!(rc, 0, "kill(SIGTERM) failed");
    let status = controller.wait().expect("wait controller");
    // The drain either left work pending (exit 75, the resumable
    // contract) or the last job was already in flight and finished
    // (exit 0); anything else is a failure.
    let code = status.code().expect("controller not signal-killed");
    assert!(
        code == signals::EXIT_INTERRUPTED || code == 0,
        "drain must exit 0 or {}, got {code}",
        signals::EXIT_INTERRUPTED
    );

    let out = Command::new(CONTROLLER)
        .arg("--campaign")
        .arg(&dir)
        .args(specs.iter().flat_map(|s| ["--job".to_string(), job_arg(s)]))
        .args([
            "--workers",
            "2",
            "--backoff-ms",
            "30",
            "--snapshot-cycles",
            "400",
            "--chaos-kill-at",
            "1200",
        ])
        .arg("--worker-exe")
        .arg(WORKER)
        .output()
        .expect("resume controller");
    assert!(
        out.status.success(),
        "rerun failed; stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout_of(&out).contains("done=6"), "{}", stdout_of(&out));
    assert_eq!(
        journal_bytes(&dir),
        reference,
        "drain + resume must finalize the bit-identical journal"
    );
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&ref_dir).ok();
}

#[test]
fn a_second_controller_on_the_same_campaign_fails_fast() {
    let dir = scratch("dup");
    // Hold the controller lock the way a live controller does.
    let _lock = LockedFile::try_exclusive(dir.join("LOCK")).expect("first controller's lock");
    let out = controller_cmd(&specs(), &dir)
        .output()
        .expect("second controller");
    assert!(
        !out.status.success(),
        "a second controller must not run the campaign"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("lock"),
        "typed lock error expected: {stderr}"
    );
    assert!(
        !dir.join("journal.jsonl").exists(),
        "the rejected controller must write nothing"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn poison_jobs_quarantine_with_diagnostics_while_siblings_complete() {
    let dir = scratch("poison");
    // Three jobs: one healthy, one deterministic panicker (typed
    // failure — exit 1, no retry), one runaway that blows the per-job
    // time budget on every attempt (a death each time — quarantined
    // after max_kills).
    let healthy = RunSpec::new("gcc", SimModel::Base).with_budget(1_000, 1_000);
    let panicker = RunSpec::new("mcf", SimModel::Base)
        .with_budget(1_000, 1_000)
        .with_fault(FaultSpec::PanicAt(500));
    let runaway = RunSpec::new("milc", SimModel::Base).with_budget(0, 50_000_000);
    let jobs = vec![
        (healthy.clone(), Lane::Normal),
        (panicker, Lane::Normal),
        (runaway, Lane::Normal),
    ];

    let mut cfg = CampaignConfig::new(&dir, WORKER);
    cfg.workers = 2;
    cfg.max_kills = 2;
    cfg.backoff_base = Duration::from_millis(10);
    cfg.job_time_budget = Some(Duration::from_millis(400));
    // A cadence the runaway never reaches: no snapshots, no heartbeats.
    cfg.snapshot_cycles = 1_000_000_000_000;
    cfg.lease = Duration::from_secs(120);

    signals::reset();
    let outcome = run_campaign(&jobs, &cfg).expect("campaign runs");
    let report = match outcome {
        CampaignOutcome::Complete(report) => report,
        CampaignOutcome::Interrupted(report) => panic!("not interrupted: {report:?}"),
    };
    assert_eq!(report.jobs, 3);
    assert_eq!(report.done, 1, "the healthy sibling completes");
    assert_eq!(report.failed, 1, "the panicker is a typed failure");
    assert_eq!(report.quarantined, 1, "the runaway is poison");

    // The finalized journal holds exactly the healthy result.
    let finalized = Journal::new(dir.join("journal.jsonl"))
        .load()
        .expect("finalized journal");
    assert_eq!(finalized.len(), 1);
    assert_eq!(finalized[0].0, healthy);

    // The WAL carries the diagnostics: the panicker's stderr tail and
    // the runaway's budget kill, plus the quarantine record itself.
    let wal = std::fs::read_to_string(dir.join("campaign.wal")).expect("wal");
    assert!(wal.contains("\"quarantine\""), "quarantine logged: {wal}");
    assert!(
        wal.contains("panicked"),
        "panic stderr tail attached: {wal}"
    );
    assert!(wal.contains("budget"), "budget-kill detail attached: {wal}");
    std::fs::remove_dir_all(&dir).ok();
}
