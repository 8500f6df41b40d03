//! The core's wake-up queues: a binary min-heap over `(cycle, dyn_seq)`
//! events, and the operand-wakeup ring built on it.
//!
//! The scheduler keeps two queues. Operand-ready promotions live in a
//! [`WakeRing`]: a ring of per-cycle buckets covering the next
//! [`WakeRing::SPAN`] cycles, which `issue` drains one bucket per cycle,
//! backed by an [`EventQueue`] heap for the wakeups due further out (the
//! memory-latency ones). Branch completions live in a plain
//! [`EventQueue`]. The stall fast-forward reads both queues'
//! `next_time` as two legs of its next-event bound, so single-step
//! drains and bulk skips share one source of truth for "when does the
//! pipeline wake next".
//!
//! # Ordering contract
//!
//! [`EventQueue`] pops yield non-decreasing `(time, seq)` pairs, ties
//! broken by ascending `seq`, and duplicate `(time, seq)` posts pop back
//! to back — the writeback stage's squash/filter logic depends on it.
//! Since sequence numbers are handed out in program order, ascending
//! `seq` within a cycle is FIFO over same-cycle posts. A [`WakeRing`]
//! drain hands out every due wakeup, duplicates included, but in no
//! particular order: promotion only sets a bit in the age-ordered ready
//! set, so it needs none.

use crate::types::DynSeq;
use mlpwin_isa::Cycle;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Every distinct wake-up source the scheduler tracks. The wakeup ring,
/// the completion queue and the ROB head carry the first two;
/// the rest are scalar horizons the `Core::next_wake` plan folds in.
/// Carried alongside the bound so telemetry can say *what* ends each coast.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WakeSource {
    /// An instruction's operands arrive (the operand-wakeup ring).
    OperandReady,
    /// An instruction finishes executing (a branch's completion event,
    /// or the ROB head's completion time).
    Completion,
    /// Reserved: a memory-side fill completing. Never produced — the
    /// plan needs no memory-side bound (see `Core::next_wake`) — but
    /// kept so
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
    /// Events posted into both heaps: the operand-wakeup ring's far
    /// heap and the completion queue. Wakeups that land in one of the
    /// ring's per-cycle buckets are not counted.
    pub events_posted: u64,
    /// Events popped from both heaps.
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
    #[inline]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no event is queued.
    #[inline]
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
    #[inline]
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
    #[inline]
    pub fn next_time(&self) -> Option<Cycle> {
        self.heap.peek().map(|&Reverse((t, _))| t)
    }

    /// Pops the earliest event if it is due (`time <= now`), raising the
    /// floor to its time.
    #[inline]
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

/// Operand-ready wakeups: a ring of per-cycle buckets for the next
/// [`WakeRing::SPAN`] cycles, and an [`EventQueue`] for the rest.
///
/// Bucket `t % SPAN` holds the sequence numbers due at cycle `t`, for
/// every `t` in `(drained, drained + SPAN]`, where `drained` is the last
/// cycle [`drain_due`](WakeRing::drain_due) ran for. Those are `SPAN`
/// distinct cycles, so each bucket holds exactly one cycle's wakeups and
/// a drain empties whole buckets without looking at a time. A one-word
/// occupancy bitmap makes [`next_time`](WakeRing::next_time) a rotate
/// and a trailing-zero count. A wakeup posted further out than the span
/// goes to the heap and stays there until it is due: nothing migrates.
#[derive(Debug, Clone)]
pub struct WakeRing {
    buckets: Box<[Vec<DynSeq>]>,
    /// Bit `b` is set exactly when bucket `b` is non-empty.
    occupied: u64,
    /// Every wakeup due at or before this cycle has been drained.
    drained: Cycle,
    /// Wakeups posted more than `SPAN` cycles past `drained`.
    far: EventQueue,
}

impl Default for WakeRing {
    fn default() -> WakeRing {
        WakeRing::new()
    }
}

impl WakeRing {
    /// Cycles the buckets cover: one per bit of the occupancy word.
    pub const SPAN: Cycle = 64;

    /// An empty ring whose drained point is cycle 0.
    pub fn new() -> WakeRing {
        WakeRing {
            buckets: vec![Vec::new(); WakeRing::SPAN as usize].into_boxed_slice(),
            occupied: 0,
            drained: 0,
            far: EventQueue::new(),
        }
    }

    /// Number of queued wakeups.
    pub fn len(&self) -> usize {
        self.buckets.iter().map(Vec::len).sum::<usize>() + self.far.len()
    }

    /// Whether no wakeup is queued.
    pub fn is_empty(&self) -> bool {
        self.occupied == 0 && self.far.is_empty()
    }

    /// Queued wakeups held in the heap rather than the buckets.
    pub fn far_len(&self) -> usize {
        self.far.len()
    }

    /// Lifetime heap posts (telemetry; bucket posts are not counted).
    pub fn posted(&self) -> u64 {
        self.far.posted()
    }

    /// Lifetime heap pops (telemetry; bucket drains are not counted).
    pub fn popped(&self) -> u64 {
        self.far.popped()
    }

    #[inline]
    fn bucket(t: Cycle) -> usize {
        (t % WakeRing::SPAN) as usize
    }

    /// Queues a wakeup of `seq` at cycle `t`.
    ///
    /// # Panics
    ///
    /// Panics if `t` lies at or before the last drained cycle (a wakeup
    /// in the past: scheduler posts are always strictly in the future).
    #[inline]
    pub fn post(&mut self, t: Cycle, seq: DynSeq) {
        if t.wrapping_sub(self.drained + 1) < WakeRing::SPAN {
            let b = WakeRing::bucket(t);
            self.buckets[b].push(seq);
            self.occupied |= 1 << b;
        } else {
            self.post_far(t, seq);
        }
    }

    /// The heap half of [`post`](WakeRing::post), kept out of line so
    /// the bucket half inlines into the scheduler.
    #[inline(never)]
    fn post_far(&mut self, t: Cycle, seq: DynSeq) {
        assert!(
            t > self.drained,
            "wakeup at {t} posted at or before drained cycle {}",
            self.drained
        );
        self.far.post(t, seq);
    }

    /// Earliest queued wakeup time, if any.
    #[inline]
    pub fn next_time(&self) -> Option<Cycle> {
        let near = (self.occupied != 0).then(|| {
            let from = self.drained + 1;
            let rotated = self.occupied.rotate_right(WakeRing::bucket(from) as u32);
            from + rotated.trailing_zeros() as Cycle
        });
        match (near, self.far.next_time()) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// Hands every wakeup due at or before `now` to `wake` as
    /// `(time, seq)`, in no particular order, removes them, and marks
    /// every cycle up to `now` drained. A drain that jumps several
    /// cycles empties every bucket it passes, so a caller that skips
    /// idle cycles loses nothing.
    #[inline]
    pub fn drain_due(&mut self, now: Cycle, mut wake: impl FnMut(Cycle, DynSeq)) {
        if now > self.drained {
            if self.occupied != 0 {
                let from = self.drained + 1;
                let cycles = (now - self.drained).min(WakeRing::SPAN);
                let window = u64::MAX >> (WakeRing::SPAN - cycles);
                let mut due = self.occupied.rotate_right(WakeRing::bucket(from) as u32) & window;
                while due != 0 {
                    let t = from + due.trailing_zeros() as Cycle;
                    due &= due - 1;
                    let b = WakeRing::bucket(t);
                    let bucket = &mut self.buckets[b];
                    for &seq in bucket.iter() {
                        wake(t, seq);
                    }
                    bucket.clear();
                    self.occupied &= !(1 << b);
                }
            }
            self.drained = now;
        }
        while let Some((t, seq)) = self.far.pop_due(now) {
            wake(t, seq);
        }
    }

    /// Drops every queued wakeup (runahead exit). The drained point and
    /// the telemetry counters are unaffected.
    pub fn clear(&mut self) {
        while self.occupied != 0 {
            let b = self.occupied.trailing_zeros();
            self.occupied &= self.occupied - 1;
            self.buckets[b as usize].clear();
        }
        self.far.clear();
    }

    /// Every queued wakeup as ascending `(time, seq)` pairs — the
    /// canonical serialized form, independent of where each one is held.
    pub fn sorted_events(&self) -> Vec<(Cycle, DynSeq)> {
        let mut out = self.far.sorted_events();
        let from = self.drained + 1;
        for (b, bucket) in self.buckets.iter().enumerate() {
            let t = from + (b as Cycle).wrapping_sub(from) % WakeRing::SPAN;
            out.extend(bucket.iter().map(|&seq| (t, seq)));
        }
        out.sort_unstable();
        out
    }

    /// Rebuilds the queue from serialized wakeups, all into the heap,
    /// with every cycle before `floor` drained. Returns `false` (leaving
    /// the queue cleared) when any wakeup lies below the floor — a
    /// corrupt image, since snapshots are only taken at step boundaries
    /// where every queued wakeup is strictly in the future.
    #[must_use]
    pub fn restore(&mut self, floor: Cycle, events: &[(Cycle, DynSeq)]) -> bool {
        self.clear();
        self.drained = floor.saturating_sub(1);
        self.far.restore(floor, events)
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
    fn drain_sorted(r: &mut WakeRing, now: Cycle) -> Vec<(Cycle, DynSeq)> {
        let mut out = Vec::new();
        r.drain_due(now, |t, seq| out.push((t, seq)));
        out.sort_unstable();
        out
    }

    #[test]
    fn ring_drains_each_cycle_and_keeps_far_wakeups_in_the_heap() {
        let mut r = WakeRing::new();
        r.post(3, 7);
        r.post(1, 2);
        r.post(3, 7); // duplicate: both copies come back
        r.post(64, 9); // last cycle the buckets cover from cycle 0
        r.post(65, 4); // one past the span: heap
        assert_eq!((r.len(), r.far_len()), (5, 1));
        assert_eq!(r.next_time(), Some(1));
        assert_eq!(
            r.sorted_events(),
            vec![(1, 2), (3, 7), (3, 7), (64, 9), (65, 4)]
        );
        assert_eq!(drain_sorted(&mut r, 1), vec![(1, 2)]);
        assert_eq!(drain_sorted(&mut r, 2), vec![]);
        assert_eq!(r.next_time(), Some(3));
        assert_eq!(drain_sorted(&mut r, 3), vec![(3, 7), (3, 7)]);
        // A jump drains every bucket and heap event it passes.
        assert_eq!(drain_sorted(&mut r, 100), vec![(64, 9), (65, 4)]);
        assert!(r.is_empty());
        assert_eq!(r.next_time(), None);
        assert_eq!(
            (r.posted(), r.popped()),
            (1, 1),
            "bucket traffic is not counted"
        );
    }

    #[test]
    #[should_panic(expected = "at or before drained cycle")]
    fn posting_a_drained_cycle_is_a_bug() {
        let mut r = WakeRing::new();
        drain_sorted(&mut r, 10);
        r.post(10, 1);
    }

    #[test]
    fn ring_restore_puts_every_wakeup_in_the_heap() {
        let mut r = WakeRing::new();
        drain_sorted(&mut r, 50);
        for (t, s) in [(52, 1), (80, 2), (500, 3)] {
            r.post(t, s);
        }
        let events = r.sorted_events();
        let mut q = WakeRing::new();
        assert!(q.restore(51, &events));
        assert_eq!((q.len(), q.far_len()), (3, 3));
        assert_eq!(q.sorted_events(), events);
        q.post(53, 4); // within the span of the restored drained point
        assert_eq!(q.far_len(), 3);
        assert!(!q.restore(51, &[(50, 1)]), "a wakeup below the floor");
        assert!(q.is_empty(), "rejected restore leaves the ring empty");
    }

    /// An LCG drives the ring and a `BTreeMap` reference model through
    /// posts 1-300 cycles ahead (duplicates and stale seqs included),
    /// single steps, coasts to the next wake, jumps past pending
    /// wakeups, runahead-style clears and snapshot/restore round trips.
    /// Every cycle, both must hand out the same wakeups and agree on the
    /// next wake and the sorted snapshot list.
    #[test]
    fn ring_matches_a_btreemap_reference_model() {
        use std::collections::BTreeMap;
        let mut lcg: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut next = move || {
            lcg = lcg
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            lcg >> 33
        };
        let mut ring = WakeRing::new();
        let mut model: BTreeMap<Cycle, Vec<DynSeq>> = BTreeMap::new();
        let mut now: Cycle = 0;
        let mut recent: Vec<DynSeq> = Vec::new();
        let (mut drained, mut drained_far, mut coasts, mut jumps) = (0, 0, 0, 0);
        for step in 0..40_000 {
            match next() % 16 {
                // Posts, mostly near, sometimes past the ring's span.
                0..=6 => {
                    for _ in 0..=next() % 4 {
                        let ahead = if next() % 5 == 0 {
                            1 + next() % 300
                        } else {
                            1 + next() % 12
                        };
                        // A stale seq (one already posted, drained or
                        // not) now and then, else a fresh one.
                        let seq = if !recent.is_empty() && next() % 4 == 0 {
                            recent[(next() % recent.len() as u64) as usize]
                        } else {
                            next() % 4096
                        };
                        recent.push(seq);
                        if recent.len() > 32 {
                            recent.remove(0);
                        }
                        ring.post(now + ahead, seq);
                        model.entry(now + ahead).or_default().push(seq);
                        if next() % 10 == 0 {
                            // Exact duplicate post.
                            ring.post(now + ahead, seq);
                            model.entry(now + ahead).or_default().push(seq);
                        }
                    }
                }
                // Coast as the fast-forward does: to just before the
                // next wake.
                7 => {
                    if let Some(t) = ring.next_time() {
                        now = now.max(t - 1);
                        coasts += 1;
                    }
                }
                // Jump past pending wakeups: the next drain must hand
                // out everything the jump passed.
                8 => {
                    now += next() % 150;
                    jumps += 1;
                }
                // Runahead exit, now and then.
                9 if next() % 8 == 0 => {
                    ring.clear();
                    model.clear();
                }
                // Snapshot and restore at the next cycle's floor, as a
                // core restore does.
                10 => {
                    let events = ring.sorted_events();
                    let mut fresh = WakeRing::new();
                    assert!(fresh.restore(now + 1, &events));
                    drained_far += ring.popped();
                    ring = fresh;
                }
                _ => {}
            }
            // One step: advance and drain.
            now += 1;
            let got = drain_sorted(&mut ring, now);
            let mut want = Vec::new();
            while let Some((&t, _)) = model.first_key_value() {
                if t > now {
                    break;
                }
                let (t, seqs) = model.pop_first().expect("non-empty");
                want.extend(seqs.into_iter().map(|s| (t, s)));
            }
            want.sort_unstable();
            assert_eq!(got, want, "drain at cycle {now} (step {step})");
            drained += got.len() as u64;
            assert_eq!(
                ring.next_time(),
                model.keys().next().copied(),
                "next wake after cycle {now}"
            );
            let mut flat: Vec<(Cycle, DynSeq)> = model
                .iter()
                .flat_map(|(&t, seqs)| seqs.iter().map(move |&s| (t, s)))
                .collect();
            flat.sort_unstable();
            let listed = ring.sorted_events();
            assert_eq!(ring.len(), listed.len());
            assert_eq!(listed, flat, "sorted snapshot list after cycle {now}");
        }
        // Both halves of the ring carried real traffic.
        drained_far += ring.popped();
        assert!(
            drained > 20_000 && drained_far > 1_000 && drained - drained_far > 10_000,
            "drained {drained}, from the heap {drained_far}"
        );
        assert!(coasts > 1_000 && jumps > 1_000, "{coasts} {jumps}");
    }
}
