//! The core's event queue: a binary min-heap over `(cycle, dyn_seq)`
//! wake-up events.
//!
//! The scheduler keeps two of these: operand-ready promotions due more
//! than the core's `LANE_HORIZON` cycles out (short-latency promotions
//! ride a plain lane in the core instead), and branch completions. The stall fast-forward reads
//! their [`next_time`](EventQueue::next_time) as two legs of its
//! next-event bound, so single-step pops and bulk skips share one
//! source of truth for "when does the pipeline wake next".
//!
//! # Ordering contract
//!
//! Pops yield non-decreasing `(time, seq)` pairs, ties broken by
//! ascending `seq`, and duplicate `(time, seq)` posts pop back to back —
//! the writeback and wakeup stages' squash/filter logic depends on it.
//! Since sequence numbers are handed out in program order, ascending
//! `seq` within a cycle is FIFO over same-cycle posts.

use crate::types::DynSeq;
use mlpwin_isa::Cycle;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Every distinct wake-up source the scheduler tracks. The event queues,
/// the short-latency ready lane and the ROB head carry the first two;
/// the rest
/// are scalar horizons the
/// [`next_wake`](crate::core::Core::next_wake) plan folds in. Carried
/// alongside the bound so telemetry can say *what* ends each coast.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WakeSource {
    /// An instruction's operands arrive (pending-ready queue or lane).
    OperandReady,
    /// An instruction finishes executing (a branch's completion event,
    /// or the ROB head's completion time).
    Completion,
    /// Reserved: a memory-side fill completing. Never produced — the
    /// plan needs no memory-side bound (see
    /// [`next_wake`](crate::core::Core::next_wake)) — but kept so
    /// histogram indices and metric labels stay stable.
    MemSystem,
    /// A runahead episode ends.
    EpisodeEnd,
    /// The post-transition allocation stall expires.
    AllocStall,
    /// The window policy's quiet promise runs out.
    PolicyQuiet,
    /// The front end resumes (queued head decodes, or recovery ends).
    FrontEnd,
    /// An interval-series epoch boundary must be sampled.
    IntervalEpoch,
    /// A snapshot-cadence point must land on a real step.
    SnapshotCadence,
    /// The commit watchdog would trip.
    Watchdog,
    /// The armed run deadline would trip.
    Deadline,
}

impl WakeSource {
    /// Number of distinct sources (histogram width).
    pub const COUNT: usize = 11;

    /// Every source, in [`index`](WakeSource::index) order.
    pub const ALL: [WakeSource; WakeSource::COUNT] = [
        WakeSource::OperandReady,
        WakeSource::Completion,
        WakeSource::MemSystem,
        WakeSource::EpisodeEnd,
        WakeSource::AllocStall,
        WakeSource::PolicyQuiet,
        WakeSource::FrontEnd,
        WakeSource::IntervalEpoch,
        WakeSource::SnapshotCadence,
        WakeSource::Watchdog,
        WakeSource::Deadline,
    ];

    /// Dense histogram index.
    pub fn index(self) -> usize {
        match self {
            WakeSource::OperandReady => 0,
            WakeSource::Completion => 1,
            WakeSource::MemSystem => 2,
            WakeSource::EpisodeEnd => 3,
            WakeSource::AllocStall => 4,
            WakeSource::PolicyQuiet => 5,
            WakeSource::FrontEnd => 6,
            WakeSource::IntervalEpoch => 7,
            WakeSource::SnapshotCadence => 8,
            WakeSource::Watchdog => 9,
            WakeSource::Deadline => 10,
        }
    }

    /// Snake-case label for metric names and reports.
    pub fn label(self) -> &'static str {
        match self {
            WakeSource::OperandReady => "operand_ready",
            WakeSource::Completion => "completion",
            WakeSource::MemSystem => "mem_system",
            WakeSource::EpisodeEnd => "episode_end",
            WakeSource::AllocStall => "alloc_stall",
            WakeSource::PolicyQuiet => "policy_quiet",
            WakeSource::FrontEnd => "front_end",
            WakeSource::IntervalEpoch => "interval_epoch",
            WakeSource::SnapshotCadence => "snapshot_cadence",
            WakeSource::Watchdog => "watchdog",
            WakeSource::Deadline => "deadline",
        }
    }
}

/// Event-engine telemetry totals over a core's lifetime: event-queue
/// traffic and how the cycle clock advanced (bulk skips versus real
/// steps). Host-side diagnostics — never part of stats or snapshots.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineCounters {
    /// Events posted into both event queues (the short-latency ready
    /// lane is not a queue and is not counted).
    pub events_posted: u64,
    /// Events popped from both event queues.
    pub events_popped: u64,
    /// Cycles advanced in bulk by the stall fast-forward.
    pub skipped_cycles: u64,
    /// Cycles executed as real pipeline steps.
    pub stepped_cycles: u64,
}

impl EngineCounters {
    /// Fraction of all cycles advanced in bulk, in `[0, 1]`.
    pub fn skip_fraction(&self) -> f64 {
        let total = self.skipped_cycles + self.stepped_cycles;
        if total == 0 {
            0.0
        } else {
            self.skipped_cycles as f64 / total as f64
        }
    }
}

/// A time-indexed queue of `(cycle, seq)` wake-up events.
#[derive(Debug, Clone, Default)]
pub struct EventQueue {
    heap: BinaryHeap<Reverse<(Cycle, DynSeq)>>,
    /// Every event at a time `< floor` has been popped: the time of the
    /// last pop, or the restore point.
    floor: Cycle,
    /// Host-side telemetry: lifetime posts and pops. Deliberately not
    /// snapshotted (like the fast-forward's skip counter): restoring a
    /// core resets them to the restored session's own activity.
    posted: u64,
    popped: u64,
}

impl EventQueue {
    /// An empty queue with its floor at cycle 0.
    pub fn new() -> EventQueue {
        EventQueue::default()
    }

    /// Number of queued events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no event is queued.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Lifetime events posted (telemetry).
    pub fn posted(&self) -> u64 {
        self.posted
    }

    /// Lifetime events popped (telemetry).
    pub fn popped(&self) -> u64 {
        self.popped
    }

    /// Queues an event.
    ///
    /// # Panics
    ///
    /// Panics if `t` is below the queue's floor (a wake-up in the past:
    /// scheduler posts are always strictly in the future).
    pub fn post(&mut self, t: Cycle, seq: DynSeq) {
        assert!(
            t >= self.floor,
            "event at {t} posted below floor {}",
            self.floor
        );
        self.posted += 1;
        self.heap.push(Reverse((t, seq)));
    }

    /// Earliest queued event time, if any.
    pub fn next_time(&self) -> Option<Cycle> {
        self.heap.peek().map(|&Reverse((t, _))| t)
    }

    /// Pops the earliest event if it is due (`time <= now`), raising the
    /// floor to its time.
    pub fn pop_due(&mut self, now: Cycle) -> Option<(Cycle, DynSeq)> {
        if self.next_time()? > now {
            return None;
        }
        let Reverse((t, seq)) = self.heap.pop().expect("peeked non-empty");
        self.floor = t;
        self.popped += 1;
        Some((t, seq))
    }

    /// Drops every queued event (runahead exit). The floor — and the
    /// telemetry counters — are unaffected.
    pub fn clear(&mut self) {
        self.heap.clear();
    }

    /// Every queued event as ascending `(time, seq)` pairs — the
    /// canonical serialized form, independent of the heap's layout.
    pub fn sorted_events(&self) -> Vec<(Cycle, DynSeq)> {
        let mut out: Vec<(Cycle, DynSeq)> = self.heap.iter().map(|&Reverse(e)| e).collect();
        out.sort_unstable();
        out
    }

    /// Rebuilds the queue from serialized events with its floor at
    /// `floor`. Returns `false` (leaving the queue cleared) when any
    /// event lies below the floor — a corrupt image, since snapshots are
    /// only taken at step boundaries where every queued event is
    /// strictly in the future.
    #[must_use]
    pub fn restore(&mut self, floor: Cycle, events: &[(Cycle, DynSeq)]) -> bool {
        self.clear();
        self.floor = floor;
        if events.iter().any(|&(t, _)| t < floor) {
            return false;
        }
        self.heap.extend(events.iter().map(|&e| Reverse(e)));
        self.posted += events.len() as u64;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(q: &mut EventQueue, now: Cycle) -> Vec<(Cycle, DynSeq)> {
        let mut out = Vec::new();
        while let Some(e) = q.pop_due(now) {
            out.push(e);
        }
        out
    }

    #[test]
    fn pops_ascending_time_then_seq() {
        let mut q = EventQueue::new();
        q.post(5, 30);
        q.post(3, 99);
        q.post(5, 10);
        q.post(3, 1);
        assert_eq!(q.next_time(), Some(3));
        assert_eq!(drain(&mut q, 100), vec![(3, 1), (3, 99), (5, 10), (5, 30)]);
        assert!(q.is_empty());
    }

    #[test]
    fn pop_due_respects_now() {
        let mut q = EventQueue::new();
        q.post(10, 1);
        q.post(20, 2);
        assert_eq!(q.pop_due(9), None);
        assert_eq!(q.pop_due(10), Some((10, 1)));
        assert_eq!(q.pop_due(19), None);
        assert_eq!(q.next_time(), Some(20));
        assert_eq!(q.pop_due(20), Some((20, 2)));
    }

    #[test]
    fn squash_then_reuse_duplicates_pop_adjacent() {
        // A squashed instruction's stale event and its seq's new owner's
        // event name the same (t, seq); the filter that drops the repeat
        // relies on the two popping back to back, between the same-cycle
        // neighbours on either side and before any later event.
        let mut q = EventQueue::new();
        q.post(12, 9); // stale: posted before the squash
        q.post(12, 3);
        q.post(13, 1);
        q.post(12, 11);
        q.post(12, 9); // the reused seq's own event
        q.post(11, 20);
        assert_eq!(q.len(), 6);
        assert_eq!(
            drain(&mut q, 13),
            vec![(11, 20), (12, 3), (12, 9), (12, 9), (12, 11), (13, 1)]
        );
    }

    #[test]
    fn clear_empties_without_moving_the_floor() {
        let mut q = EventQueue::new();
        q.post(100, 1);
        assert_eq!(q.pop_due(100), Some((100, 1)));
        q.post(150, 2);
        q.post(5_000, 3);
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.next_time(), None);
        // Still usable after clear, with the floor where pops left it.
        q.post(120, 9);
        assert_eq!(q.pop_due(120), Some((120, 9)));
    }

    #[test]
    #[should_panic(expected = "below floor")]
    fn posting_into_the_past_is_a_bug() {
        let mut q = EventQueue::new();
        q.post(50, 1);
        let _ = q.pop_due(50);
        q.post(49, 2);
    }

    #[test]
    fn snapshot_round_trip_preserves_events_and_order() {
        let mut q = EventQueue::new();
        q.post(900, 1);
        let _ = q.pop_due(900);
        for (t, s) in [(901, 5), (1500, 2), (999_999, 7), (901, 3)] {
            q.post(t, s);
        }
        let events = q.sorted_events();
        assert_eq!(events, vec![(901, 3), (901, 5), (1500, 2), (999_999, 7)]);
        let mut r = EventQueue::new();
        assert!(r.restore(901, &events));
        assert_eq!(r.len(), 4);
        assert_eq!(drain(&mut r, Cycle::MAX), events);
    }

    #[test]
    fn restore_rejects_events_below_the_floor() {
        let mut q = EventQueue::new();
        assert!(!q.restore(100, &[(99, 1)]));
        assert!(q.is_empty(), "rejected restore leaves the queue empty");
        assert!(q.restore(100, &[(100, 1)]));
    }

    #[test]
    #[should_panic(expected = "below floor")]
    fn restore_sets_the_floor() {
        let mut q = EventQueue::new();
        assert!(q.restore(100, &[]));
        q.post(99, 1);
    }

    #[test]
    fn telemetry_counts_posts_and_pops() {
        let mut q = EventQueue::new();
        q.post(1, 1);
        q.post(2, 2);
        let _ = q.pop_due(5);
        assert_eq!((q.posted(), q.popped()), (2, 1));
        q.clear();
        assert_eq!((q.posted(), q.popped()), (2, 1), "clear keeps telemetry");
    }

    /// An LCG drives random post / duplicate post / pop_due / next_time
    /// / snapshot-restore traffic against a naive sorted reference
    /// model, asserting identical contents and pop order (deterministic
    /// ties, adjacent duplicates), monotone pop times per sweep, and
    /// length bookkeeping throughout.
    #[test]
    fn lcg_fuzz_against_reference_model() {
        let mut lcg: u64 = 0x2545F4914F6CDD1D;
        let mut next = move || {
            lcg = lcg
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            lcg >> 33
        };
        let mut q = EventQueue::new();
        let mut model: Vec<(Cycle, DynSeq)> = Vec::new();
        let mut now: Cycle = 0;
        let insert = |model: &mut Vec<(Cycle, DynSeq)>, e: (Cycle, DynSeq)| {
            let pos = model.partition_point(|&m| m < e);
            model.insert(pos, e);
        };
        for step in 0..20_000 {
            match next() % 10 {
                // Post: biased near, occasionally far out.
                0..=4 => {
                    let spread = if next() % 8 == 0 { 5_000 } else { 300 };
                    let t = now + 1 + next() % spread;
                    let seq = next() % 64;
                    q.post(t, seq);
                    insert(&mut model, (t, seq));
                }
                // Advance time and drain everything due, checking order.
                5..=6 => {
                    now += next() % 700;
                    let mut last_pop: Option<(Cycle, DynSeq)> = None;
                    while let Some((t, seq)) = q.pop_due(now) {
                        assert!(t <= now);
                        assert!(last_pop <= Some((t, seq)), "pop order regressed");
                        last_pop = Some((t, seq));
                        assert_eq!(model.remove(0), (t, seq), "model disagrees at {step}");
                    }
                    assert!(model.first().is_none_or(|&(t, _)| t > now));
                }
                // Re-post a queued event verbatim (squash-then-reuse).
                7 => {
                    if !model.is_empty() {
                        let e = model[(next() % model.len() as u64) as usize];
                        q.post(e.0, e.1);
                        insert(&mut model, e);
                    }
                }
                // Snapshot and restore into a fresh queue at the floor a
                // core restore uses (every queued event is in the future).
                8 => {
                    let events = q.sorted_events();
                    assert_eq!(events, model, "sorted form diverged at {step}");
                    let mut r = EventQueue::new();
                    assert!(r.restore(now + 1, &events));
                    q = r;
                }
                // Pure observation.
                _ => {
                    assert_eq!(q.next_time(), model.first().map(|&(t, _)| t));
                    assert_eq!(q.len(), model.len());
                }
            }
        }
        assert_eq!(q.sorted_events(), model, "final contents diverged");
    }
}
