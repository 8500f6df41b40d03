//! Load/store queue with store-to-load forwarding.
//!
//! The LSQ keeps loads and stores in program order. A load about to
//! access memory scans the older stores:
//!
//! - an older *issued* store overlapping its address forwards the data
//!   (L1-hit-like latency, no cache access);
//! - an older *un-issued* store overlapping its address blocks the load
//!   until the store's operands arrive;
//! - otherwise the load goes to the cache.
//!
//! Non-overlapping un-issued stores do not block — perfect memory
//! disambiguation, the standard idealization for trace-driven simulation
//! where every address is architecturally known (`DESIGN.md` §5).
//!
//! The scan is the per-load hot path, so two early-outs sit in front of
//! it: a count of resident stores (loads in a store-free window never
//! scan at all) and a small counting filter over 64-byte address
//! granules (a load whose granules hold no store skips the scan even
//! when stores are resident). Both are conservative — a filter hit only
//! means "scan", never "forward" — so they cannot change the scan's
//! answer, only avoid it.

use crate::types::DynSeq;
use mlpwin_isa::snap::{SnapError, SnapReader, SnapWriter};
use mlpwin_isa::MemRef;
use std::collections::VecDeque;

/// What a load should do, per the disambiguation scan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoadCheck {
    /// Forward from the youngest older overlapping (issued) store,
    /// identified by its `DynSeq` (so the consumer can inherit its INV
    /// status during runahead).
    Forward(DynSeq),
    /// Wait: an older overlapping store has not produced its data yet.
    Blocked,
    /// Access the cache hierarchy.
    Access,
}

#[derive(Debug, Clone, Copy)]
struct LsqEntry {
    dyn_seq: DynSeq,
    is_store: bool,
    mem: MemRef,
    /// Whether a store has executed (its data can forward). Only store
    /// entries' flag is ever read; the core never marks loads.
    issued: bool,
}

/// log2 of the address-filter granule (64 bytes: one cache line).
const FILTER_SHIFT: u32 = 6;
/// Number of counting-filter buckets (granule address, low 8 bits).
const FILTER_BUCKETS: usize = 256;

/// The load/store queue.
#[derive(Debug, Clone)]
pub struct Lsq {
    entries: VecDeque<LsqEntry>,
    /// Resident stores (issued or not); loads skip disambiguation
    /// entirely while this is zero.
    stores: usize,
    /// Counting filter: for each resident store, every 64-byte granule
    /// its reference touches increments one bucket. A load whose
    /// granules all read zero provably overlaps no resident store.
    store_filter: [u16; FILTER_BUCKETS],
}

impl Default for Lsq {
    fn default() -> Lsq {
        Lsq {
            entries: VecDeque::new(),
            stores: 0,
            store_filter: [0; FILTER_BUCKETS],
        }
    }
}

/// Calls `f` with the filter bucket of every granule `mem` touches.
/// References are at most a few bytes wide, so this is one bucket, or
/// two when the access straddles a granule boundary.
fn for_each_bucket(mem: &MemRef, mut f: impl FnMut(usize)) {
    let first = mem.addr >> FILTER_SHIFT;
    let last = mem.addr.wrapping_add(mem.size.max(1) as u64 - 1) >> FILTER_SHIFT;
    let mut g = first;
    loop {
        f((g as usize) & (FILTER_BUCKETS - 1));
        if g == last {
            break;
        }
        g += 1;
    }
}

impl Lsq {
    /// Creates an empty queue.
    pub fn new() -> Lsq {
        Lsq::default()
    }

    /// Current occupancy.
    #[inline]
    pub fn occupancy(&self) -> usize {
        self.entries.len()
    }

    #[inline]
    fn filter_add(&mut self, mem: &MemRef) {
        for_each_bucket(mem, |b| self.store_filter[b] += 1);
    }

    #[inline]
    fn filter_remove(&mut self, mem: &MemRef) {
        for_each_bucket(mem, |b| {
            debug_assert!(self.store_filter[b] > 0, "filter underflow");
            self.store_filter[b] -= 1;
        });
    }

    /// Whether any filter bucket touched by `mem` holds a store.
    #[inline]
    fn filter_hit(&self, mem: &MemRef) -> bool {
        let mut hit = false;
        for_each_bucket(mem, |b| hit |= self.store_filter[b] != 0);
        hit
    }

    /// Appends a memory operation (program order).
    ///
    /// # Panics
    ///
    /// Panics if `dyn_seq` is not younger than every current entry.
    #[inline]
    pub fn allocate(&mut self, dyn_seq: DynSeq, is_store: bool, mem: MemRef) {
        if let Some(back) = self.entries.back() {
            assert!(back.dyn_seq < dyn_seq, "LSQ allocation out of order");
        }
        if is_store {
            self.stores += 1;
            self.filter_add(&mem);
        }
        self.entries.push_back(LsqEntry {
            dyn_seq,
            is_store,
            mem,
            issued: false,
        });
    }

    /// Marks a store's address and data as produced (the store
    /// executed), so overlapping younger loads forward from it. Only
    /// stores need marking: [`check_load`](Lsq::check_load) never reads a
    /// load entry's flag.
    #[inline]
    pub fn mark_issued(&mut self, dyn_seq: DynSeq) {
        if let Ok(i) = self.entries.binary_search_by_key(&dyn_seq, |e| e.dyn_seq) {
            self.entries[i].issued = true;
        }
    }

    /// Disambiguation scan for the load `dyn_seq` with reference `mem`.
    #[inline]
    pub fn check_load(&self, dyn_seq: DynSeq, mem: &MemRef) -> LoadCheck {
        // Early-outs: no resident store at all, or none in this load's
        // address granules.
        if self.stores == 0 || !self.filter_hit(mem) {
            return LoadCheck::Access;
        }
        // Scan only the entries older than the load (entries are in
        // program order), youngest-first so the nearest store wins.
        let older = self.entries.partition_point(|e| e.dyn_seq < dyn_seq);
        for e in self.entries.range(..older).rev() {
            if e.is_store && e.mem.overlaps(mem) {
                return if e.issued {
                    LoadCheck::Forward(e.dyn_seq)
                } else {
                    LoadCheck::Blocked
                };
            }
        }
        LoadCheck::Access
    }

    /// Removes the committed (oldest) entry.
    ///
    /// # Panics
    ///
    /// Panics if the head is not `dyn_seq` (commit must be in order).
    #[inline]
    pub fn commit(&mut self, dyn_seq: DynSeq) {
        let head = self.entries.pop_front().expect("commit from empty LSQ");
        assert_eq!(head.dyn_seq, dyn_seq, "LSQ commit out of order");
        if head.is_store {
            self.stores -= 1;
            self.filter_remove(&head.mem);
        }
    }

    /// Drops every entry younger than `dyn_seq` (squash).
    #[inline]
    pub fn squash_younger(&mut self, dyn_seq: DynSeq) {
        while let Some(back) = self.entries.back() {
            if back.dyn_seq > dyn_seq {
                let dropped = self.entries.pop_back().unwrap();
                if dropped.is_store {
                    self.stores -= 1;
                    self.filter_remove(&dropped.mem);
                }
            } else {
                break;
            }
        }
    }

    /// Drops everything (runahead exit).
    pub fn clear(&mut self) {
        self.entries.clear();
        self.stores = 0;
        self.store_filter = [0; FILTER_BUCKETS];
    }

    /// Serializes the queue entries; the store count and address filter
    /// are derived state and are rebuilt on restore.
    pub fn save_state(&self, w: &mut SnapWriter) {
        w.put_seq(self.entries.iter(), |w, e| {
            w.put_u64(e.dyn_seq);
            w.put_bool(e.is_store);
            w.put_u64(e.mem.addr);
            w.put_u8(e.mem.size);
            w.put_bool(e.issued);
        });
    }

    /// Restores the queue written by [`Lsq::save_state`], replaying each
    /// store into the counting filter.
    pub fn load_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let entries = r.get_seq(|r| {
            let dyn_seq = r.get_u64()?;
            let is_store = r.get_bool()?;
            let addr = r.get_u64()?;
            let offset = r.offset();
            let size = r.get_u8()?;
            if !matches!(size, 1 | 2 | 4 | 8) {
                return Err(SnapError::BadTag {
                    offset,
                    tag: size,
                    what: "LSQ mem size",
                });
            }
            let issued = r.get_bool()?;
            Ok(LsqEntry {
                dyn_seq,
                is_store,
                mem: MemRef { addr, size },
                issued,
            })
        })?;
        // `allocate` asserts program order; a restored queue must meet it
        // too, since the disambiguation scan and squash rely on it.
        if entries.windows(2).any(|p| p[0].dyn_seq >= p[1].dyn_seq) {
            return Err(SnapError::Mismatch {
                what: "LSQ program order",
            });
        }
        self.clear();
        for e in entries {
            if e.is_store {
                self.stores += 1;
                let mem = e.mem;
                self.filter_add(&mem);
            }
            self.entries.push_back(e);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(addr: u64) -> MemRef {
        MemRef::new(addr, 8)
    }

    #[test]
    fn load_with_no_stores_accesses_cache() {
        let mut q = Lsq::new();
        q.allocate(1, false, m(0x100));
        assert_eq!(q.check_load(1, &m(0x100)), LoadCheck::Access);
    }

    #[test]
    fn issued_store_forwards() {
        let mut q = Lsq::new();
        q.allocate(1, true, m(0x100));
        q.allocate(2, false, m(0x100));
        assert_eq!(q.check_load(2, &m(0x100)), LoadCheck::Blocked);
        q.mark_issued(1);
        assert_eq!(q.check_load(2, &m(0x100)), LoadCheck::Forward(1));
    }

    #[test]
    fn nearest_older_store_wins() {
        let mut q = Lsq::new();
        q.allocate(1, true, m(0x100));
        q.mark_issued(1);
        q.allocate(2, true, m(0x100)); // younger, un-issued
        q.allocate(3, false, m(0x100));
        // Store 2 is nearer: load must block on it even though store 1
        // could forward.
        assert_eq!(q.check_load(3, &m(0x100)), LoadCheck::Blocked);
    }

    #[test]
    fn younger_stores_do_not_affect_the_load() {
        let mut q = Lsq::new();
        q.allocate(1, false, m(0x100));
        q.allocate(2, true, m(0x100));
        assert_eq!(q.check_load(1, &m(0x100)), LoadCheck::Access);
    }

    #[test]
    fn disjoint_stores_do_not_block() {
        let mut q = Lsq::new();
        q.allocate(1, true, m(0x200));
        q.allocate(2, false, m(0x100));
        assert_eq!(q.check_load(2, &m(0x100)), LoadCheck::Access);
    }

    #[test]
    fn partial_overlap_blocks() {
        let mut q = Lsq::new();
        q.allocate(1, true, MemRef::new(0x104, 8));
        q.allocate(2, false, MemRef::new(0x100, 8));
        assert_eq!(q.check_load(2, &m(0x100)), LoadCheck::Blocked);
    }

    #[test]
    fn commit_pops_in_order() {
        let mut q = Lsq::new();
        q.allocate(1, false, m(0x100));
        q.allocate(2, true, m(0x108));
        q.commit(1);
        q.commit(2);
        assert_eq!(q.occupancy(), 0);
    }

    #[test]
    #[should_panic(expected = "out of order")]
    fn commit_out_of_order_panics() {
        let mut q = Lsq::new();
        q.allocate(1, false, m(0x100));
        q.allocate(2, false, m(0x108));
        q.commit(2);
    }

    #[test]
    fn squash_drops_younger_only() {
        let mut q = Lsq::new();
        q.allocate(1, false, m(0x100));
        q.allocate(2, true, m(0x108));
        q.allocate(3, false, m(0x110));
        q.squash_younger(1);
        assert_eq!(q.occupancy(), 1);
        assert_eq!(q.check_load(5, &m(0x100)), LoadCheck::Access);
    }

    #[test]
    #[should_panic(expected = "out of order")]
    fn allocation_must_be_in_order() {
        let mut q = Lsq::new();
        q.allocate(5, false, m(0x100));
        q.allocate(3, false, m(0x108));
    }

    #[test]
    fn filter_stays_consistent_through_commit_squash_clear() {
        let mut q = Lsq::new();
        // Committing and squashing stores must re-open the fast path.
        q.allocate(1, true, m(0x100));
        q.allocate(2, true, m(0x300));
        assert_eq!(q.check_load(3, &m(0x100)), LoadCheck::Blocked);
        q.commit(1);
        assert_eq!(
            q.check_load(3, &m(0x100)),
            LoadCheck::Access,
            "committed store must leave the filter"
        );
        q.squash_younger(1);
        assert_eq!(
            q.check_load(3, &m(0x300)),
            LoadCheck::Access,
            "squashed store must leave the filter"
        );
        q.allocate(4, true, m(0x500));
        q.clear();
        assert_eq!(q.occupancy(), 0);
        assert_eq!(q.check_load(9, &m(0x500)), LoadCheck::Access);
    }

    #[test]
    fn filter_bucket_collision_still_scans_and_allows_access() {
        // 0x100 and 0x100 + 256*64 granules collide in the 256-bucket
        // filter; the scan behind the filter must still say Access.
        let mut q = Lsq::new();
        q.allocate(1, true, m(0x100 + 256 * 64));
        assert_eq!(
            q.check_load(2, &m(0x100)),
            LoadCheck::Access,
            "a filter collision may force the scan but not a false block"
        );
    }

    #[test]
    fn straddling_reference_touches_both_granules() {
        // A store crossing a 64-byte boundary must be visible to loads
        // in either granule.
        let mut q = Lsq::new();
        q.allocate(1, true, MemRef::new(0x13c, 8)); // spans 0x100 and 0x140 granules
        assert_eq!(q.check_load(2, &MemRef::new(0x140, 4)), LoadCheck::Blocked);
        assert_eq!(q.check_load(3, &MemRef::new(0x138, 8)), LoadCheck::Blocked);
    }

    #[test]
    fn restore_rejects_out_of_order_entries() {
        let mut q = Lsq::new();
        q.allocate(4, true, m(0x100));
        q.allocate(9, false, m(0x200));
        let mut w = SnapWriter::with_capacity(64);
        q.save_state(&mut w);
        let mut bytes = w.into_bytes();
        let mut fresh = Lsq::new();
        fresh
            .load_state(&mut SnapReader::new(&bytes))
            .expect("in-order image restores");
        assert_eq!(fresh.occupancy(), 2);
        // Give the second entry (after the 8-byte count and the first
        // entry's 19 bytes) the first entry's seq.
        bytes[27..35].copy_from_slice(&4u64.to_le_bytes());
        assert_eq!(
            Lsq::new().load_state(&mut SnapReader::new(&bytes)),
            Err(SnapError::Mismatch {
                what: "LSQ program order"
            })
        );
    }

    /// A load entry's issue flag is never read: marking every load
    /// issued leaves each disambiguation answer unchanged.
    #[test]
    fn load_issue_state_cannot_change_any_check_load_answer() {
        let mut rng = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = |bound: u64| {
            rng = rng
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (rng >> 33) % bound
        };
        for _ in 0..200 {
            let (mut plain, mut marked) = (Lsq::new(), Lsq::new());
            let mut loads = Vec::new();
            for seq in 1..=24 {
                let is_store = next(3) == 0;
                let mem = MemRef::new(0x100 + next(16) * 4, 1 << next(4));
                plain.allocate(seq, is_store, mem);
                marked.allocate(seq, is_store, mem);
                if is_store && next(2) == 0 {
                    plain.mark_issued(seq);
                    marked.mark_issued(seq);
                } else if !is_store {
                    marked.mark_issued(seq);
                    loads.push(seq);
                }
            }
            for &seq in &loads {
                for probe in 0..20 {
                    let mem = MemRef::new(0x100 + probe * 4, 8);
                    assert_eq!(plain.check_load(seq, &mem), marked.check_load(seq, &mem));
                }
            }
        }
    }
}
