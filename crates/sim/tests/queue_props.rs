//! Property-style state-machine suite for the campaign job queue.
//!
//! The workspace is dependency-free, so this is a hand-rolled take on a
//! proptest stateful model: a deterministic LCG drives hundreds of
//! random operations (submit / lease / renew / heartbeat-loss / worker
//! death / completion / controller crash-and-replay) against the real
//! [`JobQueue`] while a simple reference model tracks what *must* be
//! true. Invariants checked after every step:
//!
//! - **No job lost** — every submitted job is always in exactly one
//!   state, and driving the queue to the end leaves all terminal.
//! - **No double execution** — a job completes at most once, and a
//!   done/failed/quarantined job is never leased again.
//! - **Quarantine exactly at `max_kills`** — the verdict flips from
//!   requeue to quarantine on precisely the configured death.
//! - **Lane priority** — a granted lease never bypasses a ready job in
//!   a higher lane.
//! - **Crash-safe** — dropping the queue mid-run and replaying its WAL
//!   reproduces every terminal state and kill count exactly, with
//!   in-flight leases released back to pending.
//! - **One source of state** — the queue's running tally equals a
//!   from-scratch recount of its jobs (replay included), and its event
//!   ring holds exactly one job event per appended WAL record, in order.

use mlpwin_sim::queue::{
    decode_wal_line, DeathVerdict, Job, JobId, JobQueue, JobState, Lane, QueuePolicy, QueueTally,
    WalRecord,
};
use mlpwin_sim::runner::RunSpec;
use mlpwin_sim::SimModel;
use std::collections::HashMap;
use std::path::PathBuf;

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mlpwin-qprops-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// The same LCG the recovery chaos suite uses: deterministic, no RNG
/// crate, no clock.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 11
    }

    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound.max(1)
    }
}

/// What the reference model believes about one job.
#[derive(Debug, Clone, PartialEq)]
enum ModelState {
    Pending { not_before_ms: u64 },
    Leased { worker: String },
    Done,
    Failed,
    Quarantined,
}

#[derive(Debug)]
struct Model {
    states: HashMap<JobId, ModelState>,
    lanes: HashMap<JobId, Lane>,
    kills: HashMap<JobId, u32>,
    completions: HashMap<JobId, u32>,
}

impl Model {
    fn new() -> Model {
        Model {
            states: HashMap::new(),
            lanes: HashMap::new(),
            kills: HashMap::new(),
            completions: HashMap::new(),
        }
    }

    fn ready_ids(&self, now_ms: u64) -> Vec<JobId> {
        self.states
            .iter()
            .filter(|(_, s)| matches!(s, ModelState::Pending { not_before_ms } if *not_before_ms <= now_ms))
            .map(|(&id, _)| id)
            .collect()
    }
}

/// Cross-checks the queue's full job table against the model. With
/// `replayed` set, non-terminal jobs are expected as fresh `Pending`
/// (leases died with the old controller; backoff windows reset).
fn check_agreement(queue: &JobQueue, model: &Model, replayed: bool) {
    assert_eq!(queue.jobs().len(), model.states.len(), "no job lost");
    for job in queue.jobs() {
        let model_state = model.states.get(&job.id).expect("job known to the model");
        let model_kills = *model.kills.get(&job.id).unwrap_or(&0);
        assert_eq!(job.kills, model_kills, "kill count for job {}", job.id);
        assert_eq!(
            job.lane,
            *model.lanes.get(&job.id).expect("lane known"),
            "lane for job {}",
            job.id
        );
        match (&job.state, model_state, replayed) {
            (JobState::Done { .. }, ModelState::Done, _)
            | (JobState::Failed { .. }, ModelState::Failed, _)
            | (JobState::Quarantined { .. }, ModelState::Quarantined, _) => {}
            (JobState::Pending { not_before_ms: 0 }, ModelState::Pending { .. }, true)
            | (JobState::Pending { not_before_ms: 0 }, ModelState::Leased { .. }, true) => {}
            (
                JobState::Pending { not_before_ms },
                ModelState::Pending { not_before_ms: m },
                false,
            ) => {
                assert_eq!(not_before_ms, m, "backoff window for job {}", job.id)
            }
            (JobState::Leased { worker, .. }, ModelState::Leased { worker: m }, false) => {
                assert_eq!(worker, m, "lease owner for job {}", job.id)
            }
            (got, want, _) => panic!(
                "job {}: queue says {got:?}, model says {want:?} (replayed={replayed})",
                job.id
            ),
        }
    }
}

/// Counts `jobs` per state from scratch; with `replayed`, leases count
/// as pending (they die with the controller).
fn recount(jobs: &[Job], replayed: bool) -> QueueTally {
    let mut t = QueueTally::default();
    for job in jobs {
        match &job.state {
            JobState::Leased { .. } if replayed => t.pending[job.lane as usize] += 1,
            JobState::Pending { .. } => t.pending[job.lane as usize] += 1,
            JobState::Leased { .. } => t.leased += 1,
            JobState::Done { cached: true } => t.cached += 1,
            JobState::Done { cached: false } => t.simulated += 1,
            JobState::Failed { .. } => t.failed += 1,
            JobState::Quarantined { .. } => t.quarantined += 1,
        }
    }
    t
}

/// The job events a queue must have logged since it was opened: one
/// per WAL record it appended, plus a `submitted` for every resubmitted
/// open job.
struct Ledger {
    wal_lines: usize,
    events: Vec<(JobId, &'static str)>,
}

impl Ledger {
    /// A ledger for a queue opening the WAL at `wal` now.
    fn opening(wal: &std::path::Path) -> Ledger {
        let text = std::fs::read_to_string(wal).unwrap_or_default();
        Ledger {
            wal_lines: text.lines().count(),
            events: Vec::new(),
        }
    }

    /// Folds in the records appended since the last check, then holds
    /// the queue's tally and event ring to them.
    fn check(&mut self, queue: &JobQueue, wal: &std::path::Path) {
        let text = std::fs::read_to_string(wal).expect("read WAL");
        for line in text.lines().skip(self.wal_lines) {
            let (_, rec) = decode_wal_line(line).expect("an intact WAL record");
            self.events.push(match rec {
                WalRecord::Enqueue { job, .. } => (job, "submitted"),
                WalRecord::Lease { job, .. } => (job, "leased"),
                WalRecord::Release { job, .. } => (job, "released"),
                WalRecord::Done { job, .. } => (job, "done"),
                WalRecord::Failed { job, .. } => (job, "failed"),
                WalRecord::Quarantine { job, .. } => (job, "quarantined"),
            });
        }
        self.wal_lines = text.lines().count();
        assert_eq!(queue.tally(), recount(queue.jobs(), false), "tally drift");
        let ring: Vec<(JobId, &'static str)> = queue
            .log()
            .snapshot()
            .iter()
            .filter_map(|e| e.job.map(|job| (job, e.kind.tag())))
            .collect();
        assert_eq!(ring, self.events, "event ring vs WAL records");
    }
}

fn spec_for(n: u64) -> RunSpec {
    let mut s = RunSpec::new("gcc", SimModel::Base).with_budget(1_000, 1_000);
    s.seed = n;
    s
}

/// One full random campaign against one seed.
fn drive(seed: u64, tag: &str) {
    let policy = QueuePolicy {
        lease_ms: 40,
        max_kills: 3,
        backoff_base_ms: 7,
    };
    let dir = scratch(tag);
    let wal = dir.join("campaign.wal");
    let mut ledger = Ledger::opening(&wal);
    let mut queue = JobQueue::open(&wal, policy).expect("open queue");
    let mut model = Model::new();
    let mut rng = Lcg(seed);
    let mut now_ms: u64 = 0;
    let mut next_spec: u64 = 0;

    for _step in 0..400 {
        match rng.below(100) {
            // Submit a new spec (or re-submit an old one: must dedup).
            0..=14 => {
                let fresh = rng.below(4) != 0 || next_spec == 0;
                let n = if fresh {
                    next_spec += 1;
                    next_spec
                } else {
                    rng.below(next_spec) + 1
                };
                let lane = [Lane::High, Lane::Normal, Lane::Low][rng.below(3) as usize];
                let id = queue.submit(&spec_for(n), lane).expect("submit");
                if fresh && !model.states.contains_key(&id) {
                    model
                        .states
                        .insert(id, ModelState::Pending { not_before_ms: 0 });
                    model.lanes.insert(id, lane);
                } else {
                    assert!(
                        model.states.contains_key(&id),
                        "resubmitting spec {n} must coalesce into a known job"
                    );
                    if !queue.job(id).state.is_terminal() {
                        ledger.events.push((id, "submitted"));
                    }
                }
            }
            // Lease: must pick a ready job from the best occupied lane.
            15..=44 => {
                let worker = format!("w{}", rng.below(4));
                let granted = queue.lease(&worker, now_ms).expect("lease");
                let ready = model.ready_ids(now_ms);
                match granted {
                    None => assert!(
                        ready.is_empty(),
                        "queue returned no lease with ready jobs {ready:?}"
                    ),
                    Some(job) => {
                        let state = model.states.get(&job.id).expect("leased job known");
                        assert!(
                            matches!(state, ModelState::Pending { .. }),
                            "job {} leased from non-pending state {state:?} — double execution",
                            job.id
                        );
                        let best = ready
                            .iter()
                            .map(|id| model.lanes[id])
                            .min()
                            .expect("ready set non-empty");
                        assert_eq!(
                            model.lanes[&job.id], best,
                            "lane priority violated: granted {:?} while {best:?} was ready",
                            model.lanes[&job.id]
                        );
                        model.states.insert(job.id, ModelState::Leased { worker });
                    }
                }
            }
            // A leased worker heartbeats.
            45..=54 => {
                if let Some((&id, _)) = model
                    .states
                    .iter()
                    .find(|(_, s)| matches!(s, ModelState::Leased { .. }))
                {
                    queue.renew(id, now_ms);
                }
            }
            // A leased worker finishes (or fails typed).
            55..=74 => {
                let leased: Vec<JobId> = model
                    .states
                    .iter()
                    .filter(|(_, s)| matches!(s, ModelState::Leased { .. }))
                    .map(|(&id, _)| id)
                    .collect();
                if leased.is_empty() {
                    continue;
                }
                let id = leased[rng.below(leased.len() as u64) as usize];
                if rng.below(5) == 0 {
                    queue.fail(id, "typed failure", now_ms).expect("fail");
                    model.states.insert(id, ModelState::Failed);
                } else {
                    queue.complete(id, false, now_ms).expect("complete");
                    model.states.insert(id, ModelState::Done);
                    let n = model.completions.entry(id).or_insert(0);
                    *n += 1;
                    assert_eq!(*n, 1, "job {id} completed more than once");
                }
            }
            // A leased worker dies violently.
            75..=84 => {
                let leased: Vec<JobId> = model
                    .states
                    .iter()
                    .filter(|(_, s)| matches!(s, ModelState::Leased { .. }))
                    .map(|(&id, _)| id)
                    .collect();
                if leased.is_empty() {
                    continue;
                }
                let id = leased[rng.below(leased.len() as u64) as usize];
                let verdict = queue.death(id, "chaos kill", now_ms).expect("death");
                let kills = model.kills.entry(id).or_insert(0);
                *kills += 1;
                if *kills >= policy.max_kills {
                    assert_eq!(
                        verdict,
                        DeathVerdict::Quarantined,
                        "death #{kills} of job {id} must quarantine (threshold {})",
                        policy.max_kills
                    );
                    model.states.insert(id, ModelState::Quarantined);
                } else {
                    match verdict {
                        DeathVerdict::Requeued { not_before_ms } => {
                            assert!(not_before_ms > now_ms, "retry backoff must push past now");
                            model
                                .states
                                .insert(id, ModelState::Pending { not_before_ms });
                        }
                        DeathVerdict::Quarantined => {
                            panic!("job {id} quarantined early at death #{kills}")
                        }
                    }
                }
            }
            // Time passes; stale leases expire (charging kills).
            85..=92 => {
                now_ms += rng.below(80);
                let stale = queue.expire_stale(now_ms).expect("expire");
                for id in stale {
                    assert!(
                        matches!(model.states[&id], ModelState::Leased { .. }),
                        "expired job {id} was not leased in the model"
                    );
                    let kills = model.kills.entry(id).or_insert(0);
                    *kills += 1;
                    if *kills >= policy.max_kills {
                        model.states.insert(id, ModelState::Quarantined);
                        assert!(
                            matches!(queue.job(id).state, JobState::Quarantined { .. }),
                            "job {id} must quarantine at the threshold"
                        );
                    } else {
                        // Mirror the backoff window the queue chose; the
                        // invariant is that it lies in the future.
                        match &queue.job(id).state {
                            JobState::Pending { not_before_ms } => {
                                assert!(*not_before_ms > now_ms, "backoff in the past");
                                model.states.insert(
                                    id,
                                    ModelState::Pending {
                                        not_before_ms: *not_before_ms,
                                    },
                                );
                            }
                            other => panic!("expired job {id} in state {other:?}"),
                        }
                    }
                }
            }
            // Controller crash: drop the queue, replay the WAL.
            _ => {
                let want = recount(queue.jobs(), true);
                drop(queue);
                ledger = Ledger::opening(&wal);
                queue = JobQueue::open(&wal, policy).expect("replay");
                assert_eq!(queue.tally(), want, "replay must reproduce the tally");
                check_agreement(&queue, &model, true);
                // The model adopts the replayed reality: leases died
                // with the controller, backoff windows reset.
                for state in model.states.values_mut() {
                    if let ModelState::Leased { .. } | ModelState::Pending { .. } = state {
                        *state = ModelState::Pending { not_before_ms: 0 };
                    }
                }
            }
        }
        check_agreement(&queue, &model, false);
        ledger.check(&queue, &wal);
    }

    // Drain to the end: every job must reach a terminal state. Jump the
    // clock each round so leases expire and backoff windows open.
    while !queue.all_terminal() {
        now_ms += 1_000_000;
        queue.expire_stale(now_ms).expect("expire");
        while let Some(job) = queue.lease("drain", now_ms).expect("lease") {
            queue.complete(job.id, false, now_ms).expect("complete");
            let n = model.completions.entry(job.id).or_insert(0);
            *n += 1;
            assert_eq!(*n, 1, "job {} completed more than once", job.id);
        }
    }
    assert!(queue.all_terminal(), "drained queue must be all-terminal");
    assert_eq!(
        queue.jobs().len(),
        model.states.len(),
        "every submitted job accounted for at the end"
    );

    // And the final state survives one more crash bit-exactly.
    ledger.check(&queue, &wal);
    let final_jobs: Vec<_> = queue.jobs().to_vec();
    let final_tally = queue.tally();
    drop(queue);
    let replayed = JobQueue::open(&wal, policy).expect("final replay");
    assert_eq!(
        replayed.tally(),
        final_tally,
        "terminal tally replays exactly"
    );
    assert_eq!(
        replayed.jobs(),
        &final_jobs[..],
        "terminal states replay exactly"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Replays the intact prefix of a (possibly torn) WAL into the state
/// each job must land in after `JobQueue::open`: the last record wins,
/// and any lease still open at the end is released back to `Pending`
/// (orphaned with the dead controller) without charging a kill.
fn expected_after_replay(text: &str) -> HashMap<JobId, (ModelState, u32)> {
    let mut jobs: HashMap<JobId, (ModelState, u32)> = HashMap::new();
    for line in text.lines() {
        let Some((_seq, rec)) = decode_wal_line(line.trim()) else {
            continue; // torn or corrupt line: vanishes
        };
        match rec {
            WalRecord::Enqueue { job, .. } => {
                jobs.insert(job, (ModelState::Pending { not_before_ms: 0 }, 0));
            }
            WalRecord::Lease { job, worker } => {
                if let Some(slot) = jobs.get_mut(&job) {
                    slot.0 = ModelState::Leased { worker };
                }
            }
            WalRecord::Release { job, kill, .. } => {
                if let Some(slot) = jobs.get_mut(&job) {
                    slot.0 = ModelState::Pending { not_before_ms: 0 };
                    if kill {
                        slot.1 += 1;
                    }
                }
            }
            WalRecord::Done { job, .. } => {
                if let Some(slot) = jobs.get_mut(&job) {
                    slot.0 = ModelState::Done;
                }
            }
            WalRecord::Failed { job, .. } => {
                if let Some(slot) = jobs.get_mut(&job) {
                    slot.0 = ModelState::Failed;
                }
            }
            WalRecord::Quarantine { job, .. } => {
                if let Some(slot) = jobs.get_mut(&job) {
                    slot.0 = ModelState::Quarantined;
                    slot.1 += 1;
                }
            }
        }
    }
    for slot in jobs.values_mut() {
        if matches!(slot.0, ModelState::Leased { .. }) {
            slot.0 = ModelState::Pending { not_before_ms: 0 };
        }
    }
    jobs
}

/// SIGKILL can tear the WAL's tail at ANY byte: the fsync policy only
/// promises that terminal records (done/failed/quarantine) it returned
/// success for are on the platter, while trailing lease/release traffic
/// may be lost wholesale or mid-line. This test cuts a real campaign's
/// WAL at every line boundary (±1 byte) plus a seeded spray of random
/// offsets and proves every cut replays to exactly the state the intact
/// record prefix dictates — a terminal state whose record survived the
/// cut is never regressed, a torn line merely vanishes, and `open`
/// never errors on the wreckage.
#[test]
fn torn_wal_tail_after_kill_never_regresses_terminal_states() {
    let policy = QueuePolicy {
        lease_ms: 40,
        max_kills: 2,
        backoff_base_ms: 7,
    };
    let dir = scratch("torn");
    let wal = dir.join("campaign.wal");
    {
        // A scripted campaign mixing every record type, ending with
        // fresh lease traffic after the last durable record so the
        // tear-prone suffix is exactly the non-fsynced class.
        let mut q = JobQueue::open(&wal, policy).expect("open");
        for n in 0..6 {
            q.submit(&spec_for(n), Lane::Normal).expect("submit");
        }
        q.lease("w0", 0).expect("lease").expect("granted"); // job 0
        q.complete(0, false, 5).expect("complete");
        q.lease("w1", 10).expect("lease").expect("granted"); // job 1
        q.death(1, "chaos", 15).expect("death"); // kill 1: requeue
        q.expire_stale(1_000).expect("expire");
        q.lease("w1", 1_000).expect("lease").expect("granted"); // job 1
        q.death(1, "chaos", 1_005).expect("death"); // kill 2: quarantine
        q.lease("w2", 1_010).expect("lease").expect("granted"); // job 2
        q.fail(2, "typed failure", 1_015).expect("fail");
        q.lease("w0", 1_020).expect("lease").expect("granted"); // job 3
        q.complete(3, true, 1_025).expect("complete");
        q.lease("w3", 1_030).expect("lease").expect("granted"); // job 4
        q.renew(4, 1_035);
        // job 5 stays pending; job 4's lease is open at the "kill".
    }
    let bytes = std::fs::read(&wal).expect("read WAL");
    let full = String::from_utf8(bytes.clone()).expect("WAL is ASCII JSON lines");

    // Every line boundary ±1, plus 64 seeded random offsets, plus the
    // degenerate cuts (empty file, full file).
    let mut cuts: Vec<usize> = vec![0, bytes.len()];
    let mut offset = 0;
    for line in full.split_inclusive('\n') {
        offset += line.len();
        cuts.push(offset);
        cuts.push(offset.saturating_sub(1));
        cuts.push((offset + 1).min(bytes.len()));
    }
    let mut rng = Lcg(0x7A11_5EED_0F5C_A1E5);
    for _ in 0..64 {
        cuts.push(rng.below(bytes.len() as u64 + 1) as usize);
    }
    cuts.sort_unstable();
    cuts.dedup();

    let mut prior_terminal: HashMap<JobId, ModelState> = HashMap::new();
    for cut in cuts {
        let torn_dir = dir.join(format!("cut-{cut}"));
        std::fs::create_dir_all(&torn_dir).expect("cut dir");
        let torn = torn_dir.join("campaign.wal");
        std::fs::write(&torn, &bytes[..cut]).expect("write torn WAL");

        let expected = expected_after_replay(&String::from_utf8_lossy(&bytes[..cut]));
        let mut replayed = JobQueue::open(&torn, policy)
            .unwrap_or_else(|e| panic!("replay of {cut}-byte torn WAL must not error: {e}"));
        assert_eq!(
            replayed.jobs().len(),
            expected.len(),
            "cut at byte {cut}: job count"
        );
        for job in replayed.jobs() {
            let (want, kills) = expected
                .get(&job.id)
                .unwrap_or_else(|| panic!("cut {cut}: job {} not expected", job.id));
            assert_eq!(
                job.kills, *kills,
                "cut {cut}: kill count for job {}",
                job.id
            );
            let agrees = matches!(
                (&job.state, want),
                (JobState::Done { .. }, ModelState::Done)
                    | (JobState::Failed { .. }, ModelState::Failed)
                    | (JobState::Quarantined { .. }, ModelState::Quarantined)
                    | (
                        JobState::Pending { not_before_ms: 0 },
                        ModelState::Pending { .. }
                    )
            );
            assert!(
                agrees,
                "cut {cut}: job {} replayed to {:?}, records dictate {want:?}",
                job.id, job.state
            );
            // Monotone durability: once a cut shows a job terminal, every
            // longer cut must agree — terminal states never regress as
            // more of the tail survives.
            if let Some(earlier) = prior_terminal.get(&job.id) {
                assert!(
                    matches!(
                        (earlier, &job.state),
                        (ModelState::Done, JobState::Done { .. })
                            | (ModelState::Failed, JobState::Failed { .. })
                            | (ModelState::Quarantined, JobState::Quarantined { .. })
                    ),
                    "cut {cut}: job {} regressed from terminal {earlier:?} to {:?}",
                    job.id,
                    job.state
                );
            }
        }
        for (id, (state, _)) in &expected {
            if matches!(
                state,
                ModelState::Done | ModelState::Failed | ModelState::Quarantined
            ) {
                prior_terminal.insert(*id, state.clone());
            }
        }
        // The restarted controller's first records land after the torn
        // fragment, never glued to it: a job submitted now survives the
        // next replay.
        replayed
            .submit(&spec_for(6), Lane::Normal)
            .expect("submit after replay");
        drop(replayed);
        let reopened = JobQueue::open(&torn, policy).expect("reopen after a submit");
        assert_eq!(
            reopened.jobs().len(),
            expected.len() + 1,
            "cut at byte {cut}: the job submitted after replay"
        );
        drop(reopened);
        std::fs::remove_dir_all(&torn_dir).ok();
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn random_campaigns_hold_every_queue_invariant_seed_1() {
    drive(0x2545_F491_4F6C_DD1D, "s1");
}

#[test]
fn random_campaigns_hold_every_queue_invariant_seed_2() {
    drive(0x9E37_79B9_7F4A_7C15, "s2");
}

#[test]
fn random_campaigns_hold_every_queue_invariant_seed_3() {
    drive(0xDEAD_BEEF_CAFE_F00D, "s3");
}

#[test]
fn random_campaigns_hold_every_queue_invariant_seed_4() {
    drive(7, "s4");
}
