//! Dynamic-instruction state carried through the pipeline.

use mlpwin_branch::PredictionOutcome;
use mlpwin_isa::snap::{SnapError, SnapReader, SnapWriter};
use mlpwin_isa::{Cycle, Instruction, SeqNum};

/// Identifier of a dynamic instruction: a monotonically increasing
/// counter over everything that enters the pipeline, wrong path included.
pub type DynSeq = u64;

/// A producer's dependent-waiter list, inlined into the ROB entry.
///
/// Most producers have only a couple of direct readers, so the first few
/// sequence numbers live in the entry itself; only crowded lists (a
/// long-latency load feeding a wide fan-out) spill to the heap. This
/// keeps the rename stage allocation-free on the common path.
#[derive(Debug, Clone, Default)]
pub struct SeqList {
    inline: [DynSeq; SeqList::INLINE],
    inline_len: u8,
    spill: Vec<DynSeq>,
}

impl SeqList {
    const INLINE: usize = 4;

    /// Appends a waiter.
    #[inline]
    pub fn push(&mut self, seq: DynSeq) {
        let n = self.inline_len as usize;
        if n < SeqList::INLINE {
            self.inline[n] = seq;
            self.inline_len += 1;
        } else {
            self.spill.push(seq);
        }
    }

    /// Empties the list in place. A spilled buffer is dropped rather
    /// than kept for the next occupant of the ROB slot: holding every
    /// slot's largest fan-out ever seen raised `sim-comp`'s peak RSS by
    /// about 0.4 MB.
    #[inline]
    pub fn clear(&mut self) {
        self.inline_len = 0;
        if self.spill.capacity() != 0 {
            self.spill = Vec::new();
        }
    }

    /// Number of waiters recorded.
    #[inline]
    pub fn len(&self) -> usize {
        self.inline_len as usize + self.spill.len()
    }

    /// Whether no waiter is recorded.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.inline_len == 0
    }

    /// The waiter at `pos` in insertion order.
    ///
    /// # Panics
    ///
    /// Panics if `pos >= self.len()`.
    #[inline]
    pub fn get(&self, pos: usize) -> DynSeq {
        if pos < self.inline_len as usize {
            self.inline[pos]
        } else {
            self.spill[pos - SeqList::INLINE]
        }
    }

    /// Iterates the waiters in insertion order.
    #[inline]
    pub fn iter(&self) -> impl Iterator<Item = DynSeq> + '_ {
        self.inline[..self.inline_len as usize]
            .iter()
            .copied()
            .chain(self.spill.iter().copied())
    }

    /// Serializes the waiter list in insertion order.
    pub fn encode(&self, w: &mut SnapWriter) {
        w.put_usize(self.len());
        for s in self.iter() {
            w.put_u64(s);
        }
    }

    /// Decodes a waiter list written by [`SeqList::encode`].
    pub fn decode(r: &mut SnapReader<'_>) -> Result<SeqList, SnapError> {
        let seqs = r.get_u64_vec()?;
        let mut list = SeqList::default();
        for s in seqs {
            list.push(s);
        }
        Ok(list)
    }
}

/// Memory-operation progress of a load or store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemState {
    /// Not a memory operation.
    None,
    /// In the LSQ, operands not yet ready or access not yet performed.
    Waiting,
    /// A load blocked behind an older store (not yet issued/overlapping).
    Blocked,
    /// Access performed (data in flight or arrived for loads; address and
    /// data valid in the store queue for stores).
    Issued,
}

/// One in-flight dynamic instruction: the ROB entry, issue-queue state,
/// and LSQ state fused into a single record (the simulator's ROB *is* the
/// ordered collection of these).
#[derive(Debug, Clone)]
pub struct DynInst {
    /// Pipeline-unique sequence number (allocation order).
    pub dyn_seq: DynSeq,
    /// Position in the committed-path trace; `None` for wrong-path
    /// instructions.
    pub trace_seq: Option<SeqNum>,
    /// The static instruction.
    pub inst: Instruction,
    /// True if fetched past an unresolved mispredicted branch.
    pub wrong_path: bool,
    /// Cycle the instruction was fetched.
    pub fetched_at: Cycle,

    // ---- scheduling ----
    /// Producer (by `dyn_seq`) of each source operand, if in flight at
    /// rename time.
    pub src_producers: [Option<DynSeq>; 2],
    /// Cycle each source operand becomes available.
    pub src_ready: [Cycle; 2],
    /// Whether each source operand carries an INV (runahead) value.
    pub src_inv: [bool; 2],
    /// Number of source operands whose availability is still unknown.
    pub unresolved_srcs: u8,
    /// Earliest cycle at which every source is available (valid once
    /// `unresolved_srcs == 0`).
    pub ready_time: Cycle,
    /// Still occupies an issue-queue entry.
    pub in_iq: bool,
    /// Has been selected and sent to a function unit.
    pub issued: bool,
    /// Cycle the instruction issued (meaningful once `issued`).
    pub issued_at: Cycle,
    /// Cycle the result is available to dependents (`Cycle::MAX` until
    /// known). Includes the issue-queue re-broadcast depth.
    pub value_ready_at: Cycle,
    /// Cycle execution finishes and the instruction may commit: it has
    /// finished executing once `complete_at <= now`.
    pub complete_at: Cycle,
    /// Writeback has consumed this instruction's completion event. Only
    /// branches post one, so this stays false for every other
    /// instruction; it guards against resolving a branch twice when a
    /// squashed instruction's stale event names the same `(time, seq)`.
    pub completed: bool,
    /// Dependents (by `dyn_seq`) waiting for this result.
    pub waiters: SeqList,

    // ---- memory ----
    /// Load/store progress.
    pub mem_state: MemState,
    /// End-to-end latency of the memory access (loads; for Table 3).
    pub mem_latency: u32,
    /// The access missed the L2 (used by runahead's trigger condition).
    pub l2_miss: bool,

    // ---- control ----
    /// Prediction made at fetch, for resolution/training.
    pub bp_outcome: Option<PredictionOutcome>,
    /// The prediction was wrong; resolution squashes younger state.
    pub mispredicted: bool,

    // ---- rename rollback ----
    /// Previous map-table entry for the destination register (restored on
    /// squash), as (register index, previous producer).
    pub prev_map: Option<(usize, Option<DynSeq>)>,

    // ---- runahead ----
    /// Result is invalid (dependent on the runahead-triggering miss).
    pub inv: bool,
}

impl DynInst {
    /// Wraps a fetched instruction with cleared pipeline state.
    pub fn new(
        dyn_seq: DynSeq,
        trace_seq: Option<SeqNum>,
        inst: Instruction,
        wrong_path: bool,
        fetched_at: Cycle,
    ) -> DynInst {
        let mem_state = if inst.op.is_mem() {
            MemState::Waiting
        } else {
            MemState::None
        };
        DynInst {
            dyn_seq,
            trace_seq,
            inst,
            wrong_path,
            fetched_at,
            src_producers: [None, None],
            src_ready: [0, 0],
            src_inv: [false, false],
            unresolved_srcs: 0,
            ready_time: 0,
            in_iq: false,
            issued: false,
            issued_at: 0,
            value_ready_at: Cycle::MAX,
            complete_at: Cycle::MAX,
            completed: false,
            waiters: SeqList::default(),
            mem_state,
            mem_latency: 0,
            l2_miss: false,
            bp_outcome: None,
            mispredicted: false,
            prev_map: None,
            inv: false,
        }
    }

    /// Re-initializes a recycled ROB slot to the state
    /// [`DynInst::new`] builds, field by field and in place, so
    /// dispatch never builds a record and moves it into the ROB.
    #[inline]
    pub fn reset(
        &mut self,
        dyn_seq: DynSeq,
        trace_seq: Option<SeqNum>,
        inst: Instruction,
        wrong_path: bool,
        fetched_at: Cycle,
    ) {
        self.mem_state = if inst.op.is_mem() {
            MemState::Waiting
        } else {
            MemState::None
        };
        self.dyn_seq = dyn_seq;
        self.trace_seq = trace_seq;
        self.inst = inst;
        self.wrong_path = wrong_path;
        self.fetched_at = fetched_at;
        self.src_producers = [None, None];
        self.src_ready = [0, 0];
        self.src_inv = [false, false];
        self.unresolved_srcs = 0;
        self.ready_time = 0;
        self.in_iq = false;
        self.issued = false;
        self.issued_at = 0;
        self.value_ready_at = Cycle::MAX;
        self.complete_at = Cycle::MAX;
        self.completed = false;
        self.waiters.clear();
        self.mem_latency = 0;
        self.l2_miss = false;
        self.bp_outcome = None;
        self.mispredicted = false;
        self.prev_map = None;
        self.inv = false;
    }

    /// True for loads and stores.
    #[inline]
    pub fn is_mem(&self) -> bool {
        self.inst.op.is_mem()
    }

    /// True for control transfers.
    #[inline]
    pub fn is_branch(&self) -> bool {
        self.inst.op.is_branch()
    }

    /// Serializes the full dynamic state for a snapshot.
    pub fn encode(&self, w: &mut SnapWriter) {
        w.put_u64(self.dyn_seq);
        w.put_opt_u64(self.trace_seq);
        self.inst.encode(w);
        w.put_bool(self.wrong_path);
        w.put_u64(self.fetched_at);
        for p in &self.src_producers {
            w.put_opt_u64(*p);
        }
        for t in &self.src_ready {
            w.put_u64(*t);
        }
        for i in &self.src_inv {
            w.put_bool(*i);
        }
        w.put_u8(self.unresolved_srcs);
        w.put_u64(self.ready_time);
        w.put_bool(self.in_iq);
        w.put_bool(self.issued);
        w.put_u64(self.issued_at);
        w.put_u64(self.value_ready_at);
        w.put_u64(self.complete_at);
        w.put_bool(self.completed);
        self.waiters.encode(w);
        w.put_u8(match self.mem_state {
            MemState::None => 0,
            MemState::Waiting => 1,
            MemState::Blocked => 2,
            MemState::Issued => 3,
        });
        w.put_u32(self.mem_latency);
        w.put_bool(self.l2_miss);
        w.put_opt(self.bp_outcome.as_ref(), |w, o| o.encode(w));
        w.put_bool(self.mispredicted);
        w.put_opt(self.prev_map.as_ref(), |w, (reg, prev)| {
            w.put_usize(*reg);
            w.put_opt_u64(*prev);
        });
        w.put_bool(self.inv);
    }

    /// Decodes the record written by [`DynInst::encode`].
    pub fn decode(r: &mut SnapReader<'_>) -> Result<DynInst, SnapError> {
        let dyn_seq = r.get_u64()?;
        let trace_seq = r.get_opt_u64()?;
        let inst = Instruction::decode(r)?;
        let wrong_path = r.get_bool()?;
        let fetched_at = r.get_u64()?;
        let mut d = DynInst::new(dyn_seq, trace_seq, inst, wrong_path, fetched_at);
        for p in &mut d.src_producers {
            *p = r.get_opt_u64()?;
        }
        for t in &mut d.src_ready {
            *t = r.get_u64()?;
        }
        for i in &mut d.src_inv {
            *i = r.get_bool()?;
        }
        d.unresolved_srcs = r.get_u8()?;
        d.ready_time = r.get_u64()?;
        d.in_iq = r.get_bool()?;
        d.issued = r.get_bool()?;
        d.issued_at = r.get_u64()?;
        d.value_ready_at = r.get_u64()?;
        d.complete_at = r.get_u64()?;
        d.completed = r.get_bool()?;
        d.waiters = SeqList::decode(r)?;
        let offset = r.offset();
        d.mem_state = match r.get_u8()? {
            0 => MemState::None,
            1 => MemState::Waiting,
            2 => MemState::Blocked,
            3 => MemState::Issued,
            tag => {
                return Err(SnapError::BadTag {
                    offset,
                    tag,
                    what: "mem state",
                })
            }
        };
        d.mem_latency = r.get_u32()?;
        d.l2_miss = r.get_bool()?;
        d.bp_outcome = r.get_opt(PredictionOutcome::decode)?;
        d.mispredicted = r.get_bool()?;
        d.prev_map = r.get_opt(|r| {
            let offset = r.offset();
            let reg = r.get_usize()?;
            if reg >= 64 {
                return Err(SnapError::BadLength {
                    offset,
                    len: reg as u64,
                    what: "rename rollback register",
                });
            }
            let prev = r.get_opt_u64()?;
            Ok((reg, prev))
        })?;
        d.inv = r.get_bool()?;
        Ok(d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlpwin_isa::{ArchReg, MemRef, OpClass};

    #[test]
    fn new_inst_state_is_clean() {
        let i = Instruction::alu(0x100, OpClass::IntAlu, ArchReg::int(1), &[ArchReg::int(2)]);
        let d = DynInst::new(7, Some(3), i, false, 42);
        assert_eq!(d.dyn_seq, 7);
        assert_eq!(d.trace_seq, Some(3));
        assert!(!d.issued && !d.completed && !d.inv);
        assert_eq!(d.mem_state, MemState::None);
        assert_eq!(d.value_ready_at, Cycle::MAX);
    }

    #[test]
    fn memory_ops_start_waiting() {
        let l = Instruction::load(
            0x100,
            ArchReg::int(1),
            ArchReg::int(2),
            MemRef::new(0x40, 8),
        );
        let d = DynInst::new(0, None, l, true, 0);
        assert_eq!(d.mem_state, MemState::Waiting);
        assert!(d.is_mem());
        assert!(d.wrong_path);
    }

    #[test]
    fn branch_predicate() {
        let b = Instruction::cond_branch(0x100, ArchReg::int(1), true, 0x80);
        assert!(DynInst::new(0, Some(0), b, false, 0).is_branch());
    }

    #[test]
    fn seq_list_spills_past_its_inline_capacity() {
        let mut l = SeqList::default();
        assert!(l.is_empty());
        for s in 0..10u64 {
            l.push(s);
        }
        assert_eq!(l.len(), 10);
        assert!(!l.is_empty());
        let collected: Vec<DynSeq> = l.iter().collect();
        assert_eq!(collected, (0..10).collect::<Vec<_>>());
        // Positional reads agree with iteration across the spill edge.
        let by_pos: Vec<DynSeq> = (0..l.len()).map(|k| l.get(k)).collect();
        assert_eq!(by_pos, collected);
        // Clearing drops the spill buffer, and the list is reusable.
        l.clear();
        assert!(l.is_empty() && l.spill.capacity() == 0);
        l.push(42);
        assert_eq!(l.iter().collect::<Vec<_>>(), vec![42]);
    }

    #[test]
    fn reset_matches_a_freshly_built_entry() {
        let st = Instruction::store(
            0x200,
            ArchReg::int(3),
            ArchReg::int(4),
            MemRef::new(0x80, 8),
        );
        let mut d = DynInst::new(1, None, st, true, 5);
        // Dirty every field a pipeline pass could touch.
        d.src_producers = [Some(9), Some(8)];
        d.src_ready = [3, 4];
        d.src_inv = [true, true];
        d.unresolved_srcs = 2;
        d.ready_time = 11;
        d.in_iq = true;
        d.issued = true;
        d.issued_at = 12;
        d.value_ready_at = 13;
        d.complete_at = 14;
        d.completed = true;
        for s in 0..9 {
            d.waiters.push(s);
        }
        d.mem_state = MemState::Issued;
        d.mem_latency = 200;
        d.l2_miss = true;
        d.mispredicted = true;
        d.prev_map = Some((3, Some(2)));
        d.inv = true;
        let i = Instruction::alu(0x100, OpClass::IntAlu, ArchReg::int(1), &[ArchReg::int(2)]);
        d.reset(7, Some(3), i.clone(), false, 42);
        let fresh = DynInst::new(7, Some(3), i, false, 42);
        let (mut a, mut b) = (
            SnapWriter::with_capacity(256),
            SnapWriter::with_capacity(256),
        );
        d.encode(&mut a);
        fresh.encode(&mut b);
        assert_eq!(a.into_bytes(), b.into_bytes());
        assert_eq!(d.waiters.spill.capacity(), 0, "the spill buffer is dropped");
    }
}
