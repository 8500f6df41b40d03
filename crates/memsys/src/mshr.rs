//! Miss-status holding registers (MSHRs) — the structure that makes the
//! caches non-blocking.
//!
//! Each entry tracks one in-flight line fill. A second access to the same
//! line *merges* into the existing entry (returning the same completion
//! time) instead of issuing a duplicate request. When the file is full,
//! new misses are rejected and the requester must retry — bounding the
//! number of outstanding misses the cache level supports.

use mlpwin_isa::{Addr, Cycle};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::hash::{BuildHasherDefault, Hasher};

/// Outcome of asking the MSHR file to track a miss.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MshrOutcome {
    /// A new entry was allocated; the caller must issue the fill request.
    Allocated,
    /// The line is already in flight; data arrives at the given cycle.
    Merged(Cycle),
    /// No free entry; the access must retry later.
    Full,
}

/// One tracked fill.
#[derive(Debug, Clone, Copy)]
struct Slot {
    complete_at: Cycle,
    /// Allocation number: orders the entries in snapshots and tells a
    /// live heap item from a stale one.
    seq: u64,
}

/// Hasher for line addresses. Their low bits are all zero, so the
/// multiplicative hash folds its high half down into the bucket bits.
#[derive(Debug, Clone, Copy, Default)]
struct LineHasher(u64);

impl Hasher for LineHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(self.0 ^ b as u64);
        }
    }

    fn write_u64(&mut self, x: u64) {
        let h = x.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 = h ^ (h >> 32);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// A file of MSHRs for one cache level.
///
/// Entries are indexed by line (a second miss on a tracked line merges,
/// so a line has at most one entry) and by completion time in a
/// min-heap, so lookups, allocation and reclamation cost O(1) or
/// O(log n) instead of a scan. Reclamation is exactly the old linear
/// file's: entries whose fill completed by `now` are dropped when a miss
/// begins or [`MshrFile::expire`] runs, and not before, so
/// [`occupancy`](MshrFile::occupancy) counts completed fills not yet
/// reclaimed.
#[derive(Debug, Clone)]
pub struct MshrFile {
    by_line: HashMap<Addr, Slot, BuildHasherDefault<LineHasher>>,
    /// `(complete_at, seq, line)` of every entry whose completion is
    /// set, earliest first. An item whose entry has since been given a
    /// new completion is stale; the top is never stale.
    by_completion: BinaryHeap<Reverse<(Cycle, u64, Addr)>>,
    next_seq: u64,
    capacity: usize,
    /// Peak simultaneous occupancy, for reporting.
    peak: usize,
    merges: u64,
    allocations: u64,
    rejections: u64,
}

impl MshrFile {
    /// Creates an empty file with `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> MshrFile {
        assert!(capacity > 0, "MSHR file needs at least one entry");
        MshrFile {
            by_line: HashMap::with_capacity_and_hasher(capacity, BuildHasherDefault::default()),
            by_completion: BinaryHeap::with_capacity(capacity),
            next_seq: 0,
            capacity,
            peak: 0,
            merges: 0,
            allocations: 0,
            rejections: 0,
        }
    }

    /// Whether a heap item still describes its entry.
    #[inline]
    fn is_live(&self, complete_at: Cycle, seq: u64, line_addr: Addr) -> bool {
        self.by_line
            .get(&line_addr)
            .is_some_and(|s| s.seq == seq && s.complete_at == complete_at)
    }

    /// Pops stale items off the heap top.
    fn drop_stale_top(&mut self) {
        while let Some(&Reverse((t, seq, line))) = self.by_completion.peek() {
            if self.is_live(t, seq, line) {
                break;
            }
            self.by_completion.pop();
        }
    }

    /// Drops entries whose fills have completed as of `now`.
    pub fn expire(&mut self, now: Cycle) {
        while let Some(&Reverse((t, seq, line))) = self.by_completion.peek() {
            if t > now {
                break;
            }
            self.by_completion.pop();
            if self.is_live(t, seq, line) {
                self.by_line.remove(&line);
            }
        }
        self.drop_stale_top();
    }

    /// Looks up an in-flight fill for `line_addr` (without expiring).
    #[inline]
    pub fn pending(&self, line_addr: Addr) -> Option<Cycle> {
        if self.by_line.is_empty() {
            return None;
        }
        self.by_line.get(&line_addr).map(|s| s.complete_at)
    }

    /// Tries to track a miss on `line_addr` at cycle `now`. Expired
    /// entries are reclaimed first. On [`MshrOutcome::Allocated`] the
    /// caller must follow up with [`MshrFile::set_completion`] once it
    /// knows the fill's completion time.
    pub fn begin_miss(&mut self, line_addr: Addr, now: Cycle) -> MshrOutcome {
        self.expire(now);
        if let Some(t) = self.pending(line_addr) {
            self.merges += 1;
            return MshrOutcome::Merged(t);
        }
        if self.by_line.len() >= self.capacity {
            self.rejections += 1;
            return MshrOutcome::Full;
        }
        self.by_line.insert(
            line_addr,
            Slot {
                complete_at: Cycle::MAX, // patched by set_completion
                seq: self.next_seq,
            },
        );
        self.next_seq += 1;
        self.allocations += 1;
        self.peak = self.peak.max(self.by_line.len());
        MshrOutcome::Allocated
    }

    /// Records the completion time of the entry for `line_addr`.
    ///
    /// # Panics
    ///
    /// Panics if no entry exists for `line_addr` (misuse of the API).
    pub fn set_completion(&mut self, line_addr: Addr, complete_at: Cycle) {
        let slot = self
            .by_line
            .get_mut(&line_addr)
            .expect("set_completion without begin_miss");
        slot.complete_at = complete_at;
        let seq = slot.seq;
        self.by_completion
            .push(Reverse((complete_at, seq, line_addr)));
        // Re-setting a completion leaves the old item stale.
        self.drop_stale_top();
    }

    /// Earliest completion time among tracked fills, if any — the retry
    /// horizon when the file is full.
    pub fn earliest_completion(&self) -> Option<Cycle> {
        match self.by_completion.peek() {
            Some(&Reverse((t, ..))) => Some(t),
            // Only entries still awaiting `set_completion`, if any.
            None => (!self.by_line.is_empty()).then_some(Cycle::MAX),
        }
    }

    /// Number of currently tracked in-flight fills (including expired ones
    /// not yet reclaimed).
    pub fn occupancy(&self) -> usize {
        self.by_line.len()
    }

    /// Peak simultaneous occupancy observed.
    pub fn peak_occupancy(&self) -> usize {
        self.peak
    }

    /// (allocations, merges, rejections) counters.
    pub fn counters(&self) -> (u64, u64, u64) {
        (self.allocations, self.merges, self.rejections)
    }

    /// Serializes the in-flight entries, oldest allocation first, and
    /// the counters.
    pub fn save_state(&self, w: &mut mlpwin_isa::snap::SnapWriter) {
        let mut entries: Vec<(u64, Addr, Cycle)> = self
            .by_line
            .iter()
            .map(|(&line, s)| (s.seq, line, s.complete_at))
            .collect();
        entries.sort_unstable();
        w.put_seq(entries.into_iter(), |w, (_, line, complete_at)| {
            w.put_u64(line);
            w.put_u64(complete_at);
        });
        w.put_usize(self.peak);
        w.put_u64(self.merges);
        w.put_u64(self.allocations);
        w.put_u64(self.rejections);
    }

    /// Restores the state written by [`MshrFile::save_state`]; capacity
    /// stays as constructed.
    pub fn load_state(
        &mut self,
        r: &mut mlpwin_isa::snap::SnapReader<'_>,
    ) -> Result<(), mlpwin_isa::snap::SnapError> {
        use mlpwin_isa::snap::SnapError;
        let entries = r.get_seq(|r| Ok((r.get_u64()?, r.get_u64()?)))?;
        if entries.len() > self.capacity {
            return Err(SnapError::Mismatch {
                what: "MSHR capacity",
            });
        }
        self.by_line.clear();
        self.by_completion.clear();
        for (seq, &(line, complete_at)) in (0u64..).zip(&entries) {
            if self
                .by_line
                .insert(line, Slot { complete_at, seq })
                .is_some()
            {
                return Err(SnapError::Mismatch {
                    what: "MSHR line tracked twice",
                });
            }
            if complete_at != Cycle::MAX {
                self.by_completion.push(Reverse((complete_at, seq, line)));
            }
        }
        self.next_seq = entries.len() as u64;
        self.peak = r.get_usize()?;
        self.merges = r.get_u64()?;
        self.allocations = r.get_u64()?;
        self.rejections = r.get_u64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocate_then_merge() {
        let mut m = MshrFile::new(4);
        assert_eq!(m.begin_miss(0x100, 0), MshrOutcome::Allocated);
        m.set_completion(0x100, 300);
        assert_eq!(m.begin_miss(0x100, 10), MshrOutcome::Merged(300));
        assert_eq!(m.counters(), (1, 1, 0));
    }

    #[test]
    fn full_file_rejects() {
        let mut m = MshrFile::new(2);
        assert_eq!(m.begin_miss(0x100, 0), MshrOutcome::Allocated);
        m.set_completion(0x100, 300);
        assert_eq!(m.begin_miss(0x200, 0), MshrOutcome::Allocated);
        m.set_completion(0x200, 300);
        assert_eq!(m.begin_miss(0x300, 0), MshrOutcome::Full);
        assert_eq!(m.counters().2, 1);
    }

    #[test]
    fn expiry_frees_entries() {
        let mut m = MshrFile::new(1);
        assert_eq!(m.begin_miss(0x100, 0), MshrOutcome::Allocated);
        m.set_completion(0x100, 300);
        // Still in flight at 299.
        assert_eq!(m.begin_miss(0x200, 299), MshrOutcome::Full);
        // Free at 300 (completion cycle means data available).
        assert_eq!(m.begin_miss(0x200, 300), MshrOutcome::Allocated);
    }

    #[test]
    fn peak_occupancy_tracks_high_water_mark() {
        let mut m = MshrFile::new(4);
        for (i, a) in [0x0u64, 0x40, 0x80].iter().enumerate() {
            assert_eq!(m.begin_miss(*a, 0), MshrOutcome::Allocated);
            m.set_completion(*a, 500);
            assert_eq!(m.peak_occupancy(), i + 1);
        }
        m.expire(1000);
        assert_eq!(m.occupancy(), 0);
        assert_eq!(m.peak_occupancy(), 3);
    }

    #[test]
    #[should_panic(expected = "set_completion without begin_miss")]
    fn set_completion_requires_entry() {
        let mut m = MshrFile::new(1);
        m.set_completion(0xdead, 1);
    }

    /// The linear MSHR file this one replaced, kept as the reference
    /// model: a `Vec` in allocation order, reclaimed by `retain`.
    #[derive(Default)]
    struct VecMshr {
        entries: Vec<(Addr, Cycle)>,
        capacity: usize,
        peak: usize,
        counters: (u64, u64, u64),
    }

    impl VecMshr {
        fn expire(&mut self, now: Cycle) {
            self.entries.retain(|e| e.1 > now);
        }

        fn pending(&self, line: Addr) -> Option<Cycle> {
            self.entries.iter().find(|e| e.0 == line).map(|e| e.1)
        }

        fn begin_miss(&mut self, line: Addr, now: Cycle) -> MshrOutcome {
            self.expire(now);
            if let Some(t) = self.pending(line) {
                self.counters.1 += 1;
                return MshrOutcome::Merged(t);
            }
            if self.entries.len() >= self.capacity {
                self.counters.2 += 1;
                return MshrOutcome::Full;
            }
            self.entries.push((line, Cycle::MAX));
            self.counters.0 += 1;
            self.peak = self.peak.max(self.entries.len());
            MshrOutcome::Allocated
        }

        fn set_completion(&mut self, line: Addr, t: Cycle) {
            let e = self
                .entries
                .iter_mut()
                .find(|e| e.0 == line)
                .expect("entry");
            e.1 = t;
        }

        fn earliest_completion(&self) -> Option<Cycle> {
            self.entries.iter().map(|e| e.1).min()
        }

        fn image(&self) -> Vec<u8> {
            let mut w = mlpwin_isa::snap::SnapWriter::new();
            w.put_seq(self.entries.iter(), |w, e| {
                w.put_u64(e.0);
                w.put_u64(e.1);
            });
            w.put_usize(self.peak);
            w.put_u64(self.counters.1);
            w.put_u64(self.counters.0);
            w.put_u64(self.counters.2);
            w.into_bytes()
        }
    }

    fn image(m: &MshrFile) -> Vec<u8> {
        let mut w = mlpwin_isa::snap::SnapWriter::new();
        m.save_state(&mut w);
        w.into_bytes()
    }

    /// Random misses, completions (some re-set), expiries and restores
    /// over a few lines: every answer, the occupancy and the snapshot
    /// bytes must match the linear reference at every step.
    #[test]
    fn indexed_file_matches_the_linear_reference() {
        let mut rng = 0x2545_f491_4f6c_dd1du64;
        let mut next = |bound: u64| {
            rng = rng
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (rng >> 33) % bound
        };
        for capacity in [1, 3, 8] {
            let mut m = MshrFile::new(capacity);
            let mut model = VecMshr {
                capacity,
                ..VecMshr::default()
            };
            let mut now: Cycle = 0;
            for step in 0..20_000 {
                // Time mostly advances; sometimes it steps back, as an
                // L2 probe at `now + l1_lat` precedes a later L1 access.
                now = (now + next(6)).saturating_sub(next(4) * (next(8) == 0) as u64);
                let line = next(12) * 64;
                match next(10) {
                    0..=5 => {
                        let got = m.begin_miss(line, now);
                        assert_eq!(got, model.begin_miss(line, now), "step {step}: begin_miss");
                        if got == MshrOutcome::Allocated {
                            let t = now + 1 + next(40);
                            m.set_completion(line, t);
                            model.set_completion(line, t);
                        }
                    }
                    6 if model.pending(line).is_some() => {
                        let t = now + next(40);
                        m.set_completion(line, t);
                        model.set_completion(line, t);
                    }
                    7 => {
                        m.expire(now);
                        model.expire(now);
                    }
                    8 => {
                        let bytes = image(&m);
                        let mut restored = MshrFile::new(capacity);
                        let mut r = mlpwin_isa::snap::SnapReader::new(&bytes);
                        restored.load_state(&mut r).expect("restore");
                        m = restored;
                    }
                    _ => {}
                }
                assert_eq!(m.pending(line), model.pending(line), "step {step}: pending");
                assert_eq!(
                    m.earliest_completion(),
                    model.earliest_completion(),
                    "step {step}: earliest"
                );
                assert_eq!(m.occupancy(), model.entries.len(), "step {step}: occupancy");
                assert_eq!(m.peak_occupancy(), model.peak, "step {step}: peak");
                assert_eq!(m.counters(), model.counters, "step {step}: counters");
                assert_eq!(image(&m), model.image(), "step {step}: snapshot bytes");
            }
        }
    }

    #[test]
    fn an_image_tracking_a_line_twice_is_refused() {
        let mut w = mlpwin_isa::snap::SnapWriter::new();
        w.put_seq([(0x40u64, 10u64), (0x40, 20)].into_iter(), |w, (l, t)| {
            w.put_u64(l);
            w.put_u64(t);
        });
        for _ in 0..4 {
            w.put_u64(0);
        }
        let bytes = w.into_bytes();
        let mut r = mlpwin_isa::snap::SnapReader::new(&bytes);
        assert!(MshrFile::new(4).load_state(&mut r).is_err());
    }
}
