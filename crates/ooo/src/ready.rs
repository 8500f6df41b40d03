//! The age-ordered ready set: a packed bitmap over ROB slots.
//!
//! The scheduler's ready set used to be a `BTreeSet<DynSeq>` that the
//! select loop materialized into a fresh `Vec` every cycle. Because ROB
//! sequence numbers are contiguous (`dyn_seq - head.dyn_seq` indexes the
//! ROB; squashes reuse sequence numbers to keep it that way), a ready
//! instruction can instead set one bit in a ring of `u64` words indexed
//! by `dyn_seq mod N`, where `N` is a power of two at least as large as
//! the biggest configured ROB. Any window of at most `N` consecutive
//! sequence numbers then maps injectively onto the ring, so walking the
//! bitmap from the ROB head's slot visits ready instructions strictly
//! oldest-first — the same order the `BTreeSet` gave — with O(1)
//! insert/remove and no per-cycle allocation.

use crate::types::DynSeq;
use mlpwin_isa::snap::{SnapError, SnapReader, SnapWriter};

/// A fixed-capacity ready set over a contiguous `DynSeq` window,
/// iterated oldest-first in place.
#[derive(Debug, Clone)]
pub struct ReadyRing {
    words: Box<[u64]>,
    /// `slots - 1`; `slots` is a power of two ≥ the largest ROB.
    mask: u64,
    len: usize,
}

impl ReadyRing {
    /// Creates a ring able to distinguish any `capacity` consecutive
    /// sequence numbers (rounded up to a power of two, minimum 64).
    pub fn with_capacity(capacity: usize) -> ReadyRing {
        let slots = capacity.next_power_of_two().max(64);
        ReadyRing {
            words: vec![0u64; slots / 64].into_boxed_slice(),
            mask: (slots - 1) as u64,
            len: 0,
        }
    }

    /// Number of ready sequence numbers currently set.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the set is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    fn locate(&self, seq: DynSeq) -> (usize, u64) {
        let slot = (seq & self.mask) as usize;
        (slot >> 6, 1u64 << (slot & 63))
    }

    /// Inserts `seq`; returns whether it was newly set.
    #[inline]
    pub fn insert(&mut self, seq: DynSeq) -> bool {
        let (w, bit) = self.locate(seq);
        let fresh = self.words[w] & bit == 0;
        self.words[w] |= bit;
        self.len += fresh as usize;
        fresh
    }

    /// Removes `seq`; returns whether it was present.
    #[inline]
    pub fn remove(&mut self, seq: DynSeq) -> bool {
        let (w, bit) = self.locate(seq);
        let present = self.words[w] & bit != 0;
        self.words[w] &= !bit;
        self.len -= present as usize;
        present
    }

    /// Whether `seq` is in the set.
    #[inline]
    pub fn contains(&self, seq: DynSeq) -> bool {
        let (w, bit) = self.locate(seq);
        self.words[w] & bit != 0
    }

    /// Serializes the raw bitmap words.
    pub fn save_state(&self, w: &mut SnapWriter) {
        w.put_u64_slice(&self.words);
    }

    /// Restores the bitmap written by [`ReadyRing::save_state`] into a
    /// ring of the same geometry; the population count is recomputed.
    pub fn load_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let words = r.get_u64_vec()?;
        if words.len() != self.words.len() {
            return Err(SnapError::Mismatch {
                what: "ready-ring geometry",
            });
        }
        self.len = words.iter().map(|w| w.count_ones() as usize).sum();
        self.words = words.into_boxed_slice();
        Ok(())
    }

    /// Clears the whole set.
    pub fn clear(&mut self) {
        if self.len > 0 {
            self.words.fill(0);
            self.len = 0;
        }
    }

    /// The smallest set sequence number in `[from, end)`, or `None`.
    ///
    /// Callers must keep every live member inside one window of at most
    /// `slots` consecutive sequence numbers (the ROB guarantees this);
    /// bits belonging to slots outside `[from, end)` are never reported.
    /// Scans whole words, so a sparse set costs a handful of loads.
    #[inline]
    pub fn next_at_or_after(&self, from: DynSeq, end: DynSeq) -> Option<DynSeq> {
        if self.len == 0 || from >= end {
            return None;
        }
        debug_assert!(end - from <= self.mask + 1, "window exceeds ring capacity");
        let mut seq = from;
        let mut remaining = end - from;
        loop {
            let slot = (seq & self.mask) as usize;
            let (w, bit) = (slot >> 6, (slot & 63) as u32);
            // Slots below `bit` in this word are behind the cursor (or
            // belong to the older arc of the window); shift them away.
            let word = self.words[w] >> bit;
            if word != 0 {
                let tz = word.trailing_zeros() as u64;
                // A set bit past the window's end belongs to the older
                // arc wrapping around the ring — the window is exhausted.
                return (tz < remaining).then_some(seq + tz);
            }
            let step = 64 - bit as u64;
            if step >= remaining {
                return None;
            }
            seq += step;
            remaining -= step;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_remove_contains_len() {
        let mut r = ReadyRing::with_capacity(128);
        assert!(r.is_empty());
        assert!(r.insert(5));
        assert!(!r.insert(5), "double insert is idempotent");
        assert!(r.insert(70));
        assert_eq!(r.len(), 2);
        assert!(r.contains(5) && r.contains(70) && !r.contains(6));
        assert!(r.remove(5));
        assert!(!r.remove(5), "double remove is idempotent");
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn walks_oldest_first() {
        let mut r = ReadyRing::with_capacity(128);
        for s in [90u64, 3, 47, 120] {
            r.insert(s);
        }
        let mut seen = Vec::new();
        let mut cursor = 0u64;
        while let Some(s) = r.next_at_or_after(cursor, 128) {
            seen.push(s);
            cursor = s + 1;
        }
        assert_eq!(seen, vec![3, 47, 90, 120]);
    }

    #[test]
    fn window_wraps_across_the_ring() {
        // Capacity 64 → one word; live window [60, 70) wraps mod 64.
        let mut r = ReadyRing::with_capacity(64);
        r.insert(61);
        r.insert(66); // slot 2
        assert_eq!(r.next_at_or_after(60, 70), Some(61));
        assert_eq!(r.next_at_or_after(62, 70), Some(66));
        assert_eq!(r.next_at_or_after(67, 70), None);
        // Bits behind the cursor (slot 61) must not surface via wrap.
        r.remove(66);
        assert_eq!(r.next_at_or_after(62, 70), None);
    }

    #[test]
    fn window_end_excludes_older_arc_bits() {
        let mut r = ReadyRing::with_capacity(64);
        // Window [100, 110); a bit at 100 sits at slot 36.
        r.insert(100);
        // Cursor past it: nothing ahead even though slot 36 wraps ahead
        // of slot (101 & 63) = 37 only in seq space, not slot space.
        assert_eq!(r.next_at_or_after(101, 110), None);
        assert_eq!(r.next_at_or_after(100, 110), Some(100));
    }

    #[test]
    fn multi_word_scan_skips_empty_words() {
        let mut r = ReadyRing::with_capacity(512);
        r.insert(400);
        assert_eq!(r.next_at_or_after(0, 512), Some(400));
        assert_eq!(r.next_at_or_after(401, 512), None);
    }

    #[test]
    fn clear_resets_everything() {
        let mut r = ReadyRing::with_capacity(64);
        r.insert(1);
        r.insert(2);
        r.clear();
        assert!(r.is_empty());
        assert_eq!(r.next_at_or_after(0, 64), None);
    }
}
