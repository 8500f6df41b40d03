//! The reorder buffer: a sequence-indexed ring of reusable slots.
//!
//! ROB sequence numbers are contiguous (`dyn_seq - head` is an entry's
//! age rank; squashes reuse sequence numbers to keep it that way), so —
//! like the [`ReadyRing`](crate::ReadyRing) — an entry can live in slot
//! `dyn_seq mod N`, with `N` a power of two at least as large as the
//! biggest configured ROB. Dispatch re-initializes the tail slot in
//! place ([`DynInst::reset`]) instead of building a record and moving it
//! in; retire and squash read the vacated slot in place. No entry is
//! ever moved.
//!
//! Slots are materialized lazily, the first time a sequence number maps
//! to them, so a ring sized for the largest level costs memory only for
//! the slots a run actually reaches.

use crate::types::{DynInst, DynSeq};
use mlpwin_isa::Instruction;
use std::ops::{Index, IndexMut};

/// The reorder buffer: live entries `head .. head + len`, in allocation
/// order, each in slot `dyn_seq & mask`.
#[derive(Debug, Clone)]
pub struct Rob {
    /// Materialized slots; grows on demand up to `mask + 1`.
    slots: Vec<DynInst>,
    /// `slots - 1`; the slot count is a power of two ≥ the largest ROB.
    mask: u64,
    /// Sequence number of the oldest entry (meaningful when `len > 0`).
    head: DynSeq,
    len: usize,
}

/// Filler for a slot materialized ahead of its first occupant.
fn vacant() -> DynInst {
    DynInst::new(0, None, Instruction::nop(0), false, 0)
}

impl Rob {
    /// Creates an empty ROB able to hold `capacity` entries (rounded up
    /// to a power of two). Slot memory is reserved, not touched.
    pub fn with_capacity(capacity: usize) -> Rob {
        let slots = capacity.max(1).next_power_of_two();
        Rob {
            slots: Vec::with_capacity(slots),
            mask: (slots - 1) as u64,
            head: 0,
            len: 0,
        }
    }

    /// The ring's slot count: the most entries it can hold.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.mask as usize + 1
    }

    /// Number of live entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    #[inline]
    fn slot(&self, seq: DynSeq) -> usize {
        (seq & self.mask) as usize
    }

    /// The age rank of live entry `seq` (0 = oldest), or `None` when
    /// `seq` is not in the ROB.
    #[inline]
    pub fn idx(&self, seq: DynSeq) -> Option<usize> {
        let i = seq.wrapping_sub(self.head);
        if i < self.len as u64 {
            debug_assert_eq!(self[i as usize].dyn_seq, seq, "slot holds another seq");
            Some(i as usize)
        } else {
            None
        }
    }

    /// The oldest entry.
    #[inline]
    pub fn front(&self) -> Option<&DynInst> {
        (self.len > 0).then(|| &self.slots[self.slot(self.head)])
    }

    /// The youngest entry.
    #[inline]
    pub fn back(&self) -> Option<&DynInst> {
        (self.len > 0).then(|| &self.slots[self.slot(self.head + self.len as u64 - 1)])
    }

    /// Appends entry `seq` and returns its slot, still holding whatever
    /// occupied it last: the caller re-initializes it
    /// ([`DynInst::reset`]) or overwrites it.
    ///
    /// # Panics
    ///
    /// Panics if the ring is full. `seq` must follow the youngest entry
    /// directly; an empty ROB accepts any `seq` as its new head.
    #[inline]
    pub fn push_back(&mut self, seq: DynSeq) -> &mut DynInst {
        assert!(self.len < self.capacity(), "ROB ring overflow");
        if self.len == 0 {
            self.head = seq;
        }
        debug_assert_eq!(
            seq,
            self.head + self.len as u64,
            "ROB seqs must be contiguous"
        );
        let s = self.slot(seq);
        if s >= self.slots.len() {
            self.materialize(s);
        }
        self.len += 1;
        &mut self.slots[s]
    }

    /// Materializes every slot up to and including `s` (each slot's
    /// first use only, so kept out of line).
    #[cold]
    #[inline(never)]
    fn materialize(&mut self, s: usize) {
        while self.slots.len() <= s {
            self.slots.push(vacant());
        }
    }

    /// Removes the oldest entry and returns its vacated slot, readable
    /// in place until the next push.
    #[inline]
    pub fn pop_front(&mut self) -> Option<&DynInst> {
        if self.len == 0 {
            return None;
        }
        let s = self.slot(self.head);
        self.head += 1;
        self.len -= 1;
        Some(&self.slots[s])
    }

    /// Removes the youngest entry and returns its vacated slot, readable
    /// in place until the next push.
    #[inline]
    pub fn pop_back(&mut self) -> Option<&DynInst> {
        if self.len == 0 {
            return None;
        }
        self.len -= 1;
        Some(&self.slots[self.slot(self.head + self.len as u64)])
    }

    /// Drops every entry; the slots stay materialized for reuse.
    pub fn clear(&mut self) {
        self.len = 0;
    }

    /// The live entries, oldest first.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &DynInst> + '_ {
        (0..self.len).map(move |i| &self[i])
    }

    /// Appends already-built entries (a snapshot restore), each moved
    /// into its slot.
    pub fn extend(&mut self, entries: impl IntoIterator<Item = DynInst>) {
        for d in entries {
            let seq = d.dyn_seq;
            *self.push_back(seq) = d;
        }
    }
}

impl Index<usize> for Rob {
    type Output = DynInst;

    /// The entry of age rank `i` (0 = oldest).
    #[inline]
    fn index(&self, i: usize) -> &DynInst {
        debug_assert!(i < self.len, "ROB rank {i} out of {}", self.len);
        &self.slots[self.slot(self.head + i as u64)]
    }
}

impl IndexMut<usize> for Rob {
    #[inline]
    fn index_mut(&mut self, i: usize) -> &mut DynInst {
        debug_assert!(i < self.len, "ROB rank {i} out of {}", self.len);
        let s = self.slot(self.head + i as u64);
        &mut self.slots[s]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;

    /// Dispatch as the core does it: recycle the tail slot in place,
    /// tagging it through `fetched_at` so stale data would show.
    fn push(rob: &mut Rob, seq: DynSeq, tag: u64) {
        rob.push_back(seq)
            .reset(seq, None, Instruction::nop(0), false, tag);
    }

    fn key(d: &DynInst) -> (DynSeq, u64) {
        (d.dyn_seq, d.fetched_at)
    }

    fn check(rob: &Rob, model: &VecDeque<(DynSeq, u64)>, step: usize) {
        assert_eq!(rob.len(), model.len(), "step {step}: len");
        assert_eq!(
            rob.front().map(key),
            model.front().copied(),
            "step {step}: front"
        );
        assert_eq!(
            rob.back().map(key),
            model.back().copied(),
            "step {step}: back"
        );
        for (i, want) in model.iter().enumerate() {
            assert_eq!(key(&rob[i]), *want, "step {step}: rank {i}");
        }
        assert!(
            rob.iter().map(key).eq(model.iter().copied()),
            "step {step}: iter"
        );
        if let (Some(&(lo, _)), Some(&(hi, _))) = (model.front(), model.back()) {
            for seq in lo.saturating_sub(3)..hi + 4 {
                let want = model.iter().position(|&(s, _)| s == seq);
                assert_eq!(rob.idx(seq), want, "step {step}: idx({seq})");
            }
        } else {
            assert_eq!(rob.idx(0), None);
        }
    }

    #[test]
    fn ring_matches_a_deque_model_across_wraps_squashes_and_restores() {
        let mut rng = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = |bound: u64| {
            rng = rng
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (rng >> 33) % bound
        };
        let mut rob = Rob::with_capacity(12); // 16 slots
        let cap = rob.capacity();
        assert_eq!(cap, 16);
        let mut model: VecDeque<(DynSeq, u64)> = VecDeque::new();
        let mut next_seq: DynSeq = 1;
        let (mut peak, mut restores) = (0, 0);
        for step in 0..20_000 {
            match next(100) {
                // Dispatch, biased so the ring fills up and wraps.
                0..=54 => {
                    if model.len() < cap {
                        let tag = next(1 << 30);
                        push(&mut rob, next_seq, tag);
                        model.push_back((next_seq, tag));
                        next_seq += 1;
                    }
                }
                // Retire the head.
                55..=84 => {
                    assert_eq!(rob.pop_front().map(key), model.pop_front());
                }
                // Squash a branch's younger entries; their seqs are reused.
                85..=93 => {
                    let keep = next(model.len() as u64 + 1) as usize;
                    while model.len() > keep {
                        assert_eq!(rob.pop_back().map(key), model.pop_back());
                    }
                    next_seq = model.back().map_or(next_seq, |&(s, _)| s + 1);
                }
                // Runahead exit: everything goes, numbering continues.
                94..=96 => {
                    rob.clear();
                    model.clear();
                }
                // Snapshot restore: a fresh contiguous window anywhere.
                _ => {
                    let start = (next_seq + next(4 * cap as u64)).saturating_sub(cap as u64);
                    let n = next(cap as u64 + 1);
                    let entries: Vec<DynInst> = (start..start + n)
                        .map(|s| DynInst::new(s, None, Instruction::nop(0), false, next(1 << 30)))
                        .collect();
                    model.clear();
                    model.extend(entries.iter().map(key));
                    rob.clear();
                    rob.extend(entries);
                    next_seq = start + n;
                    restores += 1;
                }
            }
            peak = peak.max(model.len());
            check(&rob, &model, step);
        }
        assert_eq!(peak, cap, "the ring must be driven to capacity");
        assert!(next_seq > 10 * cap as u64, "numbering must wrap the ring");
        assert!(restores > 0);
    }

    #[test]
    fn slots_materialize_lazily() {
        let mut rob = Rob::with_capacity(64);
        assert_eq!(rob.slots.len(), 0, "reserved, not touched");
        push(&mut rob, 1, 0);
        assert_eq!(rob.slots.len(), 2, "only slots up to the first seq exist");
        push(&mut rob, 2, 0);
        rob.pop_front();
        rob.pop_front();
        push(&mut rob, 3, 0);
        assert_eq!(rob.slots.len(), 4);
        // Runahead exit and re-dispatch recycle the same slots.
        rob.clear();
        push(&mut rob, 3, 0);
        assert_eq!(rob.slots.len(), 4);
    }

    #[test]
    #[should_panic(expected = "ROB ring overflow")]
    fn overfilling_the_ring_panics() {
        let mut rob = Rob::with_capacity(4);
        for s in 0..5 {
            push(&mut rob, s, 0);
        }
    }
}
