//! Runahead-execution support structures (paper §5.7 comparison).
//!
//! Runahead execution (Mutlu et al., HPCA 2003) checkpoints the
//! architectural state when an L2-miss load blocks the ROB head, lets the
//! pipeline *pseudo-retire* past it to prefetch further misses, and
//! squashes back to the checkpoint when the blocking miss resolves. Two
//! auxiliary structures live here:
//!
//! - the **runahead cache** (512 B, 4-way in the paper): holds the data —
//!   and INV status — of stores pseudo-retired during runahead, so later
//!   runahead loads can forward from them;
//! - the **cause status table** from the "Techniques for efficient
//!   processing in runahead execution engines" enhancements: a per-load-PC
//!   predictor of whether entering runahead for that load is useful,
//!   suppressing useless episodes.
//!
//! The mode machinery itself (trigger, pseudo-retire, INV propagation,
//! exit squash) is woven into [`crate::core::Core`]'s commit stage; see
//! the crate docs for why.

use mlpwin_isa::snap::{SnapError, SnapReader, SnapWriter};
use mlpwin_isa::{Addr, Cycle};

/// Runahead-cache capacity in bytes (512 B in the paper's §5.7).
pub const CACHE_BYTES: usize = 512;
/// Runahead-cache associativity (4-way in the paper).
pub const CACHE_WAYS: usize = 4;
/// Runahead-cache line size in bytes: word-granular store forwarding.
pub const CACHE_LINE: usize = 8;
/// Cause-status-table entries.
pub const CST_ENTRIES: usize = 256;
/// Minimum L2 misses observed during an episode for the cause status
/// table to deem the triggering load useful.
pub const CST_USEFUL_THRESHOLD: u32 = 1;
/// Do not enter runahead unless at least this many cycles of the
/// triggering miss remain — short episodes cannot overlap anything (one
/// of the ISCA 2005 efficiency techniques).
pub const MIN_ENTRY_REMAINING: Cycle = 150;

/// Outcome of a runahead-cache load lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RaLookup {
    /// No runahead store wrote this address: read memory.
    Miss,
    /// A runahead store with valid data wrote it: forward.
    Valid,
    /// A runahead store with INV data wrote it: the load result is INV.
    Inv,
}

#[derive(Debug, Clone, Copy)]
struct RaLine {
    tag: Addr,
    inv: bool,
    valid: bool,
    lru: u64,
}

/// The runahead cache: word-granular store-forwarding state for the
/// duration of one runahead episode.
#[derive(Debug, Clone)]
pub struct RunaheadCache {
    lines: Vec<RaLine>,
    ways: usize,
    sets: usize,
    line_shift: u32,
    tick: u64,
}

impl RunaheadCache {
    /// Creates an empty cache of `bytes` capacity with `ways`
    /// associativity and `line` bytes per entry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry does not divide into a power-of-two number
    /// of sets.
    pub fn new(bytes: usize, ways: usize, line: usize) -> RunaheadCache {
        assert!(line.is_power_of_two(), "line size must be a power of two");
        assert!(
            ways > 0 && bytes.is_multiple_of(ways * line),
            "bad geometry"
        );
        let sets = bytes / (ways * line);
        assert!(sets.is_power_of_two(), "sets must be a power of two");
        RunaheadCache {
            lines: vec![
                RaLine {
                    tag: 0,
                    inv: false,
                    valid: false,
                    lru: 0
                };
                sets * ways
            ],
            ways,
            sets,
            line_shift: line.trailing_zeros(),
            tick: 0,
        }
    }

    fn set_range(&self, addr: Addr) -> std::ops::Range<usize> {
        let set = ((addr >> self.line_shift) as usize) & (self.sets - 1);
        let base = set * self.ways;
        base..base + self.ways
    }

    /// Records a pseudo-retired store to `addr` with validity `inv`.
    pub fn write(&mut self, addr: Addr, inv: bool) {
        self.tick += 1;
        let tag = addr >> self.line_shift;
        let tick = self.tick;
        let range = self.set_range(addr);
        let set = &mut self.lines[range];
        if let Some(l) = set.iter_mut().find(|l| l.valid && l.tag == tag) {
            l.inv = inv;
            l.lru = tick;
            return;
        }
        let victim = set
            .iter_mut()
            .min_by_key(|l| if l.valid { l.lru } else { 0 })
            .expect("at least one way");
        *victim = RaLine {
            tag,
            inv,
            valid: true,
            lru: tick,
        };
    }

    /// Looks up a runahead load at `addr`.
    pub fn lookup(&mut self, addr: Addr) -> RaLookup {
        self.tick += 1;
        let tag = addr >> self.line_shift;
        let tick = self.tick;
        let range = self.set_range(addr);
        for l in &mut self.lines[range] {
            if l.valid && l.tag == tag {
                l.lru = tick;
                return if l.inv {
                    RaLookup::Inv
                } else {
                    RaLookup::Valid
                };
            }
        }
        RaLookup::Miss
    }

    /// Invalidates everything (episode exit).
    pub fn clear(&mut self) {
        for l in &mut self.lines {
            l.valid = false;
        }
    }

    /// Serializes the line array and LRU clock.
    pub fn save_state(&self, w: &mut SnapWriter) {
        w.put_u64(self.tick);
        w.put_seq(self.lines.iter(), |w, l| {
            w.put_u64(l.tag);
            w.put_bool(l.inv);
            w.put_bool(l.valid);
            w.put_u64(l.lru);
        });
    }

    /// Restores the state written by [`RunaheadCache::save_state`] into
    /// a cache of the same geometry.
    pub fn load_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.tick = r.get_u64()?;
        let lines = r.get_seq(|r| {
            Ok(RaLine {
                tag: r.get_u64()?,
                inv: r.get_bool()?,
                valid: r.get_bool()?,
                lru: r.get_u64()?,
            })
        })?;
        if lines.len() != self.lines.len() {
            return Err(SnapError::Mismatch {
                what: "runahead-cache geometry",
            });
        }
        self.lines = lines;
        Ok(())
    }
}

/// Per-load-PC usefulness predictor for runahead entry (2-bit counters,
/// direct-mapped, initialized to weakly useful).
#[derive(Debug, Clone)]
pub struct CauseStatusTable {
    counters: Vec<u8>,
}

impl CauseStatusTable {
    /// Creates a table with `entries` counters (power of two).
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a positive power of two.
    pub fn new(entries: usize) -> CauseStatusTable {
        assert!(
            entries.is_power_of_two(),
            "CST entries must be a power of two"
        );
        CauseStatusTable {
            // Strongly useful: one useless episode must not immediately
            // suppress a load whose episodes usually overlap misses.
            counters: vec![3; entries],
        }
    }

    fn index(&self, pc: Addr) -> usize {
        ((pc >> 2) as usize) & (self.counters.len() - 1)
    }

    /// Whether runahead should be entered for the load at `pc`.
    pub fn predict_useful(&self, pc: Addr) -> bool {
        self.counters[self.index(pc)] >= 2
    }

    /// Trains the counter with the observed usefulness of an episode.
    pub fn update(&mut self, pc: Addr, useful: bool) {
        let i = self.index(pc);
        let c = &mut self.counters[i];
        if useful {
            *c = (*c + 1).min(3);
        } else {
            *c = c.saturating_sub(1);
        }
    }

    /// Serializes the counter array.
    pub fn save_state(&self, w: &mut SnapWriter) {
        w.put_bytes(&self.counters);
    }

    /// Restores the counters written by
    /// [`CauseStatusTable::save_state`] into a same-sized table.
    pub fn load_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let counters = r.get_bytes()?;
        if counters.len() != self.counters.len() {
            return Err(SnapError::Mismatch {
                what: "cause-status-table size",
            });
        }
        self.counters.copy_from_slice(counters);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_write_then_lookup() {
        let mut c = RunaheadCache::new(512, 4, 8);
        assert_eq!(c.lookup(0x1000), RaLookup::Miss);
        c.write(0x1000, false);
        assert_eq!(c.lookup(0x1000), RaLookup::Valid);
        c.write(0x1000, true);
        assert_eq!(c.lookup(0x1000), RaLookup::Inv);
    }

    #[test]
    fn cache_clear_empties_everything() {
        let mut c = RunaheadCache::new(512, 4, 8);
        c.write(0x10, false);
        c.write(0x20, true);
        c.clear();
        assert_eq!(c.lookup(0x10), RaLookup::Miss);
        assert_eq!(c.lookup(0x20), RaLookup::Miss);
    }

    #[test]
    fn cache_evicts_lru_within_set() {
        // 2 sets x 2 ways x 8B = 32 bytes: easy to conflict.
        let mut c = RunaheadCache::new(32, 2, 8);
        // Set 0 holds addresses with (addr>>3) even.
        c.write(0x00, false);
        c.write(0x20, false);
        let _ = c.lookup(0x00); // refresh 0x00
        c.write(0x40, false); // evicts 0x20
        assert_eq!(c.lookup(0x00), RaLookup::Valid);
        assert_eq!(c.lookup(0x20), RaLookup::Miss);
        assert_eq!(c.lookup(0x40), RaLookup::Valid);
    }

    #[test]
    fn cst_defaults_to_entering() {
        let t = CauseStatusTable::new(64);
        assert!(t.predict_useful(0x1234));
    }

    #[test]
    fn cst_learns_useless_loads_then_recovers() {
        let mut t = CauseStatusTable::new(64);
        t.update(0x100, false);
        assert!(t.predict_useful(0x100), "one bad episode only weakens");
        t.update(0x100, false);
        assert!(!t.predict_useful(0x100), "two bad episodes suppress");
        t.update(0x100, true);
        assert!(t.predict_useful(0x100), "one good episode re-enables");
    }

    #[test]
    fn cst_entries_are_pc_indexed() {
        let mut t = CauseStatusTable::new(64);
        t.update(0x100, false);
        t.update(0x100, false);
        t.update(0x100, false);
        assert!(!t.predict_useful(0x100));
        assert!(t.predict_useful(0x104), "different PC unaffected");
    }
}
