//! Structured event tracing.
//!
//! A [`Tracer`] records the events that explain *why* the window is the
//! size it is: level transitions, runahead episode boundaries, pipeline
//! squashes and last-level-cache misses. Events live in a bounded ring
//! buffer of [`CAPACITY`] events — when it fills, the oldest events are
//! overwritten and a drop counter keeps the books, so a long run costs
//! bounded memory and the tail of the run (usually the interesting part)
//! survives.
//!
//! The core's hooks are compiled into every build; the run-time switch
//! is [`CoreConfig::trace`](crate::CoreConfig). When it is off no
//! tracer is allocated and each hook is one `Option` test on a rare
//! path (a squash, an L2 demand miss, a level transition, a runahead
//! entry or exit). Either way the simulated state is untouched: stats
//! and snapshot images are identical with tracing on and off (see
//! `tests/trace_zero_cost.rs` and the root `golden_digests` suite).
//!
//! Events are stamped with the measured-cycle clock of
//! [`CoreStats::cycles`](crate::CoreStats), the clock
//! [`IntervalSample::end_cycle`](crate::IntervalSample) uses: an event
//! stamped `c` happened in measured cycle `c` (1-based), so it falls in
//! the interval sample whose `(end_cycle - epoch, end_cycle]` holds `c`.
//! The ring restarts when the warm-up ends, with every other counter.

use mlpwin_isa::{Addr, Cycle};
use std::collections::VecDeque;

/// What happened, without the timestamp (that lives in [`TraceEvent`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEventKind {
    /// The window grew `from` → `to` (0-based levels); allocation stalls
    /// for `penalty` cycles.
    LevelUp {
        /// Previous level (0-based).
        from: usize,
        /// New level (0-based).
        to: usize,
        /// Transition penalty charged (cycles).
        penalty: u32,
    },
    /// The window shrank `from` → `to` after its doomed regions drained.
    LevelDown {
        /// Previous level (0-based).
        from: usize,
        /// New level (0-based).
        to: usize,
        /// Transition penalty charged (cycles).
        penalty: u32,
    },
    /// A runahead episode began on an L2-missing load at `trigger_pc`.
    RunaheadEnter {
        /// PC of the triggering load.
        trigger_pc: Addr,
    },
    /// The runahead episode ended (the triggering miss returned).
    RunaheadExit {
        /// Additional L2 misses the episode overlapped.
        l2_misses: u32,
        /// Whether the cause-status table will count it useful.
        useful: bool,
    },
    /// Branch recovery squashed every instruction younger than `at_seq`.
    Squash {
        /// Dynamic sequence number of the mispredicted branch.
        at_seq: u64,
    },
    /// A demand access missed the last-level cache.
    LlcMiss {
        /// PC of the access.
        pc: Addr,
        /// Missing address.
        addr: Addr,
        /// Outstanding misses (MSHR occupancy) at record time, read from
        /// `MemSystem::outstanding_misses()`. That count includes MSHR
        /// entries whose fill has already returned but that no later
        /// miss has reclaimed yet, so it over-counts live misses until
        /// the MSHR count is fixed (ROADMAP item 1).
        mshr_occupancy: u32,
    },
}

impl TraceEventKind {
    /// Short stable name, used by exporters.
    pub fn name(&self) -> &'static str {
        match self {
            TraceEventKind::LevelUp { .. } => "level_up",
            TraceEventKind::LevelDown { .. } => "level_down",
            TraceEventKind::RunaheadEnter { .. } => "runahead_enter",
            TraceEventKind::RunaheadExit { .. } => "runahead_exit",
            TraceEventKind::Squash { .. } => "squash",
            TraceEventKind::LlcMiss { .. } => "llc_miss",
        }
    }
}

/// One timestamped event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Measured cycle the event happened in (1-based; see the module
    /// docs for the clock).
    pub cycle: Cycle,
    /// What happened.
    pub kind: TraceEventKind,
}

/// Ring-buffer capacity of the tracer a core allocates, in events.
pub const CAPACITY: usize = 64 * 1024;

/// A bounded ring of [`TraceEvent`]s with overflow accounting.
#[derive(Debug, Clone)]
pub struct Tracer {
    capacity: usize,
    buf: VecDeque<TraceEvent>,
    dropped: u64,
}

impl Tracer {
    /// An empty tracer holding at most `capacity` events (a core uses
    /// [`CAPACITY`]).
    ///
    /// # Panics
    ///
    /// Panics on a zero capacity.
    pub fn new(capacity: usize) -> Tracer {
        assert!(capacity > 0, "trace capacity must be positive");
        Tracer {
            capacity,
            buf: VecDeque::with_capacity(capacity.min(4096)),
            dropped: 0,
        }
    }

    /// Records an event, evicting the oldest one when the ring is full.
    /// `cycle` must be non-decreasing across calls (the core records in
    /// simulation order); the buffered slice is therefore always sorted.
    pub fn record(&mut self, cycle: Cycle, kind: TraceEventKind) {
        debug_assert!(
            self.buf.back().is_none_or(|e| e.cycle <= cycle),
            "trace events must be recorded in cycle order"
        );
        if self.buf.len() == self.capacity {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(TraceEvent { cycle, kind });
    }

    /// The buffered events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.buf.iter()
    }

    /// Number of buffered events (≤ capacity).
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been recorded (or everything was evicted).
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Events evicted by ring overflow. Every event ever recorded is
    /// either buffered or counted here: `recorded = len() + dropped()`.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Total events recorded into the ring (buffered + dropped).
    pub fn recorded(&self) -> u64 {
        self.buf.len() as u64 + self.dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn squash(seq: u64) -> TraceEventKind {
        TraceEventKind::Squash { at_seq: seq }
    }

    #[test]
    fn ring_keeps_the_newest_events() {
        let mut t = Tracer::new(3);
        for i in 0..10u64 {
            t.record(i, squash(i));
        }
        assert_eq!(t.len(), 3);
        assert_eq!(t.dropped(), 7);
        assert_eq!(t.recorded(), 10);
        let cycles: Vec<Cycle> = t.events().map(|e| e.cycle).collect();
        assert_eq!(cycles, vec![7, 8, 9]);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_is_rejected() {
        let _ = Tracer::new(0);
    }

    #[test]
    fn event_kinds_have_stable_names() {
        assert_eq!(
            TraceEventKind::LevelUp {
                from: 0,
                to: 2,
                penalty: 10
            }
            .name(),
            "level_up"
        );
        assert_eq!(
            TraceEventKind::LlcMiss {
                pc: 0,
                addr: 0,
                mshr_occupancy: 0
            }
            .name(),
            "llc_miss"
        );
    }
}
