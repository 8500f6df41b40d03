//! The fetch front end.
//!
//! Fetches up to `fetch_width` instructions per cycle from the committed
//! path (via a rewindable [`TraceWindow`]) or, after a branch
//! misprediction, from the deterministic wrong-path synthesizer. Fetched
//! instructions wait `front_depth` cycles (decode/rename pipe) in the
//! fetch queue before the dispatch stage may consume them.
//!
//! The front end consults the branch predictor for every fetched control
//! transfer. A misprediction silently switches the fetch source to the
//! wrong path at the *predicted* next PC — exactly what the hardware
//! would fetch — until the core observes the branch resolve and calls
//! [`FrontEnd::redirect`].

use mlpwin_branch::{BranchPredictor, PredictionOutcome};
use mlpwin_isa::snap::{SnapError, SnapReader, SnapWriter};
use mlpwin_isa::{Addr, Cycle, Instruction, SeqNum};
use mlpwin_memsys::{AccessKind, MemSystem, PathKind};
use mlpwin_workloads::{TraceWindow, Workload, WrongPathGen};
use std::collections::VecDeque;

/// An instruction sitting in the fetch queue, decoded and predicted,
/// waiting for the rename/dispatch stage.
#[derive(Debug, Clone)]
pub struct FetchedInst {
    /// The static instruction.
    pub inst: Instruction,
    /// Committed-path sequence number; `None` on the wrong path.
    pub trace_seq: Option<SeqNum>,
    /// Fetched past an unresolved mispredicted branch.
    pub wrong_path: bool,
    /// Prediction made at fetch (branches only).
    pub bp_outcome: Option<PredictionOutcome>,
    /// Cycle the instruction was fetched.
    pub fetched_at: Cycle,
    /// Cycle the instruction reaches the dispatch stage.
    pub ready_at: Cycle,
}

#[derive(Debug, Clone, Copy)]
enum Source {
    /// Fetching the committed path at this trace sequence number.
    Trace(SeqNum),
    /// Fetching the wrong path after a misprediction.
    Wrong { start_pc: Addr, offset: u64 },
}

/// Fetch statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FrontEndStats {
    /// Committed-path instructions fetched.
    pub trace_fetched: u64,
    /// Wrong-path instructions fetched.
    pub wrongpath_fetched: u64,
    /// Cycles fetch was stalled waiting on the I-cache.
    pub icache_stall_cycles: u64,
    /// Redirects received (mispredict recoveries + runahead exits).
    pub redirects: u64,
}

/// The fetch front end.
#[derive(Debug)]
pub struct FrontEnd<W> {
    window: TraceWindow<W>,
    wrong: WrongPathGen,
    source: Source,
    queue: VecDeque<FetchedInst>,
    queue_cap: usize,
    fetch_width: usize,
    front_depth: u32,
    stall_until: Cycle,
    /// End of the latest redirect's resume delay plus the decode refill
    /// (`front_depth`) — while `now` is below this, an empty fetch queue
    /// is recovery latency, not a fetch-bandwidth problem.
    recovery_until: Cycle,
    last_line: Option<Addr>,
    stats: FrontEndStats,
}

impl<W: Workload> FrontEnd<W> {
    /// Creates a front end fetching the trace from sequence 0.
    pub fn new(
        workload: W,
        wrongpath_seed: u64,
        fetch_width: usize,
        front_depth: u32,
        queue_cap: usize,
    ) -> FrontEnd<W> {
        FrontEnd {
            window: TraceWindow::new(workload),
            wrong: WrongPathGen::new(wrongpath_seed),
            source: Source::Trace(0),
            queue: VecDeque::with_capacity(queue_cap),
            queue_cap,
            fetch_width,
            front_depth,
            stall_until: 0,
            recovery_until: 0,
            last_line: None,
            stats: FrontEndStats::default(),
        }
    }

    /// Fetch statistics.
    pub fn stats(&self) -> &FrontEndStats {
        &self.stats
    }

    /// True while the front end is fetching down a wrong path.
    pub fn on_wrong_path(&self) -> bool {
        matches!(self.source, Source::Wrong { .. })
    }

    /// Whether the fetch queue holds no instruction (fetched or still
    /// in the decode pipe), for stall accounting.
    pub fn queue_is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// The next instruction, if it has cleared the decode pipe, without
    /// consuming it (dispatch peeks to check LSQ capacity first).
    pub fn peek_ready(&self, now: Cycle) -> Option<&FetchedInst> {
        self.queue.front().filter(|f| f.ready_at <= now)
    }

    /// Pops the next instruction if it has cleared the decode pipe.
    pub fn pop_ready(&mut self, now: Cycle) -> Option<FetchedInst> {
        if self.queue.front().is_some_and(|f| f.ready_at <= now) {
            self.queue.pop_front()
        } else {
            None
        }
    }

    /// Discards all fetched-but-not-dispatched instructions and resumes
    /// fetching the committed path at `resume_seq`, no earlier than
    /// `resume_at` (the misprediction penalty or runahead exit time).
    pub fn redirect(&mut self, resume_seq: SeqNum, resume_at: Cycle) {
        self.queue.clear();
        self.source = Source::Trace(resume_seq);
        self.stall_until = self.stall_until.max(resume_at);
        self.recovery_until = self
            .recovery_until
            .max(resume_at + self.front_depth as Cycle);
        self.last_line = None;
        self.stats.redirects += 1;
    }

    /// Whether an empty queue at `now` is explained by a recent redirect
    /// (the resume delay plus the decode pipe refilling) — the CPI
    /// stack's branch-recovery bucket.
    pub fn recovering(&self, now: Cycle) -> bool {
        now < self.recovery_until
    }

    /// Releases trace storage below the commit frontier.
    pub fn retire_below(&mut self, seq: SeqNum) {
        self.window.retire_below(seq);
    }

    /// Until when a [`fetch_cycle`](FrontEnd::fetch_cycle) call is
    /// guaranteed to be a no-op (for the stall-cycle fast-forward):
    ///
    /// - `Some(Cycle::MAX)` — the queue is full; fetch cannot make
    ///   progress until dispatch drains it (which is itself an event the
    ///   fast-forward already bounds on);
    /// - `Some(t)` — fetch is stalled on the I-cache or a redirect's
    ///   resume delay until cycle `t`;
    /// - `None` — fetch could make progress right now; never skip.
    pub fn quiescent_until(&self, now: Cycle) -> Option<Cycle> {
        if self.queue.len() >= self.queue_cap {
            Some(Cycle::MAX)
        } else if now < self.stall_until {
            Some(self.stall_until)
        } else {
            None
        }
    }

    /// When the oldest queued instruction clears the decode pipe (for
    /// the fast-forward's next-event bound).
    pub fn head_ready_at(&self) -> Option<Cycle> {
        self.queue.front().map(|f| f.ready_at)
    }

    /// End of the current redirect-recovery interval (see
    /// [`recovering`](FrontEnd::recovering)).
    pub fn recovery_until(&self) -> Cycle {
        self.recovery_until
    }

    /// Serializes the fetch state: the trace window (including the
    /// workload generator's own state), the fetch source, the decode
    /// queue, stall/recovery horizons and counters. The wrong-path
    /// synthesizer is a pure function of its seed and carries no state.
    pub fn save_state(&self, w: &mut SnapWriter) {
        self.window.save_state(w);
        match self.source {
            Source::Trace(seq) => {
                w.put_u8(0);
                w.put_u64(seq);
            }
            Source::Wrong { start_pc, offset } => {
                w.put_u8(1);
                w.put_u64(start_pc);
                w.put_u64(offset);
            }
        }
        w.put_seq(self.queue.iter(), |w, f| {
            f.inst.encode(w);
            w.put_opt_u64(f.trace_seq);
            w.put_bool(f.wrong_path);
            w.put_opt(f.bp_outcome.as_ref(), |w, o| o.encode(w));
            w.put_u64(f.fetched_at);
            w.put_u64(f.ready_at);
        });
        w.put_u64(self.stall_until);
        w.put_u64(self.recovery_until);
        w.put_opt_u64(self.last_line);
        w.put_u64(self.stats.trace_fetched);
        w.put_u64(self.stats.wrongpath_fetched);
        w.put_u64(self.stats.icache_stall_cycles);
        w.put_u64(self.stats.redirects);
    }

    /// Restores the state written by [`FrontEnd::save_state`].
    pub fn load_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.window.load_state(r)?;
        let offset = r.offset();
        self.source = match r.get_u8()? {
            0 => Source::Trace(r.get_u64()?),
            1 => Source::Wrong {
                start_pc: r.get_u64()?,
                offset: r.get_u64()?,
            },
            tag => {
                return Err(SnapError::BadTag {
                    offset,
                    tag,
                    what: "fetch source",
                })
            }
        };
        let queue = r.get_seq(|r| {
            let inst = Instruction::decode(r)?;
            let trace_seq = r.get_opt_u64()?;
            let wrong_path = r.get_bool()?;
            let bp_outcome = r.get_opt(PredictionOutcome::decode)?;
            let fetched_at = r.get_u64()?;
            let ready_at = r.get_u64()?;
            Ok(FetchedInst {
                inst,
                trace_seq,
                wrong_path,
                bp_outcome,
                fetched_at,
                ready_at,
            })
        })?;
        if queue.len() > self.queue_cap {
            return Err(SnapError::Mismatch {
                what: "fetch-queue capacity",
            });
        }
        self.queue = queue.into();
        self.stall_until = r.get_u64()?;
        self.recovery_until = r.get_u64()?;
        self.last_line = r.get_opt_u64()?;
        self.stats.trace_fetched = r.get_u64()?;
        self.stats.wrongpath_fetched = r.get_u64()?;
        self.stats.icache_stall_cycles = r.get_u64()?;
        self.stats.redirects = r.get_u64()?;
        Ok(())
    }

    /// Runs one fetch cycle, filling the queue.
    pub fn fetch_cycle(&mut self, now: Cycle, bp: &mut BranchPredictor, mem: &mut MemSystem) {
        if now < self.stall_until {
            return;
        }
        for _ in 0..self.fetch_width {
            if self.queue.len() >= self.queue_cap {
                break;
            }
            let (inst, trace_seq, wrong_path) = match self.source {
                Source::Trace(seq) => (self.window.get(seq).clone(), Some(seq), false),
                Source::Wrong { start_pc, offset } => {
                    (self.wrong.inst(start_pc, offset), None, true)
                }
            };

            // Instruction-cache access once per new line.
            let line = inst.pc & !31;
            if self.last_line != Some(line) {
                let r = mem.access(
                    AccessKind::InstFetch,
                    inst.pc,
                    inst.pc,
                    now,
                    if wrong_path {
                        PathKind::Wrong
                    } else {
                        PathKind::Correct
                    },
                );
                self.last_line = Some(line);
                if r.ready_at > now + 1 {
                    // I-miss: fetch resumes when the line arrives.
                    self.stall_until = r.ready_at;
                    self.stats.icache_stall_cycles += r.ready_at - now;
                    break;
                }
            }

            let mut bp_outcome = None;
            let mut end_group = false;
            if inst.op.is_branch() && !wrong_path {
                let outcome = bp.predict(&inst);
                // Fetch follows the *prediction*.
                if outcome.mispredicted {
                    let predicted_next = if outcome.pred_taken {
                        outcome.pred_target.unwrap_or_else(|| inst.next_pc())
                    } else {
                        inst.next_pc()
                    };
                    self.source = Source::Wrong {
                        start_pc: predicted_next,
                        offset: 0,
                    };
                } else if let Source::Trace(seq) = self.source {
                    self.source = Source::Trace(seq + 1);
                }
                // A predicted-taken transfer ends the fetch group.
                end_group = outcome.pred_taken;
                bp_outcome = Some(outcome);
            } else {
                match &mut self.source {
                    Source::Trace(seq) => *seq += 1,
                    Source::Wrong { offset, .. } => *offset += 1,
                }
            }

            if wrong_path {
                self.stats.wrongpath_fetched += 1;
            } else {
                self.stats.trace_fetched += 1;
            }
            self.queue.push_back(FetchedInst {
                inst,
                trace_seq,
                wrong_path,
                bp_outcome,
                fetched_at: now,
                ready_at: now + self.front_depth as Cycle,
            });
            if end_group {
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlpwin_branch::PredictorConfig;
    use mlpwin_memsys::MemSystemConfig;
    use mlpwin_workloads::{profiles, ProfileWorkload};

    fn setup() -> (FrontEnd<ProfileWorkload>, BranchPredictor, MemSystem) {
        let w = profiles::by_name("gcc", 5).unwrap();
        (
            FrontEnd::new(w, 1, 4, 4, 16),
            BranchPredictor::new(PredictorConfig::default()),
            MemSystem::new(MemSystemConfig::default()),
        )
    }

    #[test]
    fn fetches_up_to_width_per_cycle() {
        let (mut fe, mut bp, mut mem) = setup();
        // Warm the I-cache (first access misses and stalls fetch).
        fe.fetch_cycle(0, &mut bp, &mut mem);
        let start = fe.stats().trace_fetched;
        let resume = 2000;
        fe.fetch_cycle(resume, &mut bp, &mut mem);
        let fetched = fe.stats().trace_fetched - start;
        assert!((1..=4).contains(&fetched), "fetched {fetched}");
    }

    #[test]
    fn decode_depth_delays_dispatch() {
        let (mut fe, mut bp, mut mem) = setup();
        fe.fetch_cycle(0, &mut bp, &mut mem);
        // First access is an I-miss; run until something is in the queue.
        let mut t = 0;
        while fe.queue_is_empty() && t < 5000 {
            t += 1;
            fe.fetch_cycle(t, &mut bp, &mut mem);
        }
        assert!(!fe.queue_is_empty());
        assert!(fe.pop_ready(t).is_none(), "needs front_depth cycles");
        assert!(fe.pop_ready(t + 4).is_some());
    }

    #[test]
    fn trace_sequence_numbers_are_consecutive() {
        let (mut fe, mut bp, mut mem) = setup();
        let mut seqs = Vec::new();
        for t in 0..50_000 {
            fe.fetch_cycle(t, &mut bp, &mut mem);
            // Emulate the backend: resolve each delivered branch (training
            // the predictor) and redirect on mispredictions.
            while let Some(f) = fe.pop_ready(t) {
                if let Some(s) = f.trace_seq {
                    seqs.push(s);
                }
                if let (Some(outcome), Some(s)) = (&f.bp_outcome, f.trace_seq) {
                    fe_resolve(&mut bp, &mut fe, &f.inst, outcome, s, t);
                    if outcome.mispredicted {
                        break; // queue was cleared by the redirect
                    }
                }
            }
            if seqs.len() > 300 {
                break;
            }
        }
        assert!(seqs.len() > 300, "only fetched {}", seqs.len());
        assert!(seqs.windows(2).all(|w| w[1] > w[0]));
    }

    fn fe_resolve(
        bp: &mut BranchPredictor,
        fe: &mut FrontEnd<ProfileWorkload>,
        inst: &Instruction,
        outcome: &PredictionOutcome,
        trace_seq: SeqNum,
        t: Cycle,
    ) {
        bp.resolve(inst, outcome);
        if outcome.mispredicted {
            fe.redirect(trace_seq + 1, t + 10);
        }
    }

    #[test]
    fn mispredict_switches_to_wrong_path_and_redirect_recovers() {
        let (mut fe, mut bp, mut mem) = setup();
        let mut t = 0;
        // Fetch until the predictor gets one wrong (cold predictor: soon).
        while !fe.on_wrong_path() && t < 50_000 {
            fe.fetch_cycle(t, &mut bp, &mut mem);
            while fe.pop_ready(t).is_some() {}
            t += 1;
        }
        assert!(fe.on_wrong_path(), "expected a misprediction");
        // Wrong-path instructions flow with trace_seq = None.
        let mut saw_wrong = false;
        for dt in 1..200 {
            fe.fetch_cycle(t + dt, &mut bp, &mut mem);
            while let Some(f) = fe.pop_ready(t + dt) {
                if f.wrong_path {
                    assert!(f.trace_seq.is_none());
                    saw_wrong = true;
                }
            }
        }
        assert!(saw_wrong);
        // Redirect back to the trace.
        fe.redirect(7, t + 300);
        assert!(!fe.on_wrong_path());
        assert!(fe.queue_is_empty());
        fe.fetch_cycle(t + 300, &mut bp, &mut mem);
        let mut found = None;
        for dt in 300..400 {
            if let Some(f) = fe.pop_ready(t + dt) {
                found = f.trace_seq;
                break;
            }
            fe.fetch_cycle(t + dt + 1, &mut bp, &mut mem);
        }
        assert_eq!(found, Some(7), "fetch resumes at the redirect target");
    }

    #[test]
    fn redirect_respects_resume_time() {
        let (mut fe, mut bp, mut mem) = setup();
        fe.redirect(0, 100);
        fe.fetch_cycle(50, &mut bp, &mut mem);
        assert!(fe.queue_is_empty(), "must not fetch before resume_at");
        fe.fetch_cycle(100, &mut bp, &mut mem);
        // May still be an I-miss stall, but the attempt happened: either
        // queued or stalled on the cache.
        assert!(fe.stats().redirects == 1);
    }
}
