//! Branch target buffer: set-associative PC → target cache.
//!
//! Table 1 of the paper specifies 2K sets × 4 ways. Replacement is true
//! LRU within a set.

use mlpwin_isa::Addr;

/// BTB geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BtbConfig {
    /// Number of sets; must be a power of two.
    pub sets: usize,
    /// Associativity.
    pub ways: usize,
}

impl Default for BtbConfig {
    fn default() -> BtbConfig {
        BtbConfig {
            sets: 2048,
            ways: 4,
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct BtbEntry {
    tag: Addr,
    target: Addr,
    lru: u64,
    valid: bool,
}

/// An entry no branch has been inserted into: every entry starts so, and
/// stays so until its first insert.
const INVALID_ENTRY: BtbEntry = BtbEntry {
    tag: 0,
    target: 0,
    lru: 0,
    valid: false,
};

/// The branch target buffer.
#[derive(Debug, Clone)]
pub struct Btb {
    entries: Vec<BtbEntry>,
    ways: usize,
    set_mask: usize,
    tick: u64,
}

impl Btb {
    /// Creates an empty BTB.
    ///
    /// # Panics
    ///
    /// Panics if `sets` is not a power of two or `ways` is zero.
    pub fn new(config: BtbConfig) -> Btb {
        assert!(
            config.sets.is_power_of_two(),
            "BTB sets must be a power of two"
        );
        assert!(config.ways > 0, "BTB needs at least one way");
        Btb {
            entries: vec![INVALID_ENTRY; config.sets * config.ways],
            ways: config.ways,
            set_mask: config.sets - 1,
            tick: 0,
        }
    }

    #[inline]
    fn set_range(&self, pc: Addr) -> std::ops::Range<usize> {
        let set = ((pc >> 2) as usize) & self.set_mask;
        let base = set * self.ways;
        base..base + self.ways
    }

    /// Looks up the predicted target for the branch at `pc`, refreshing
    /// its LRU position on a hit.
    pub fn lookup(&mut self, pc: Addr) -> Option<Addr> {
        self.tick += 1;
        let range = self.set_range(pc);
        for e in &mut self.entries[range] {
            if e.valid && e.tag == pc {
                e.lru = self.tick;
                return Some(e.target);
            }
        }
        None
    }

    /// Installs or updates the target for the branch at `pc`, evicting the
    /// LRU way on a conflict.
    pub fn insert(&mut self, pc: Addr, target: Addr) {
        self.tick += 1;
        let range = self.set_range(pc);
        let tick = self.tick;
        // Update in place on a tag match.
        let entries = &mut self.entries[range.clone()];
        if let Some(e) = entries.iter_mut().find(|e| e.valid && e.tag == pc) {
            e.target = target;
            e.lru = tick;
            return;
        }
        // Otherwise fill an invalid way or evict LRU.
        let victim = entries
            .iter_mut()
            .min_by_key(|e| if e.valid { e.lru } else { 0 })
            .expect("set has at least one way");
        *victim = BtbEntry {
            tag: pc,
            target,
            lru: tick,
            valid: true,
        };
    }

    /// Serializes the table contents and the LRU clock.
    ///
    /// Each entry is its valid flag, followed by its fields only when
    /// valid: nothing clears `valid`, so an invalid entry still holds
    /// [`INVALID_ENTRY`]'s fields, and neither lookup nor victim choice
    /// reads them.
    pub fn save_state(&self, w: &mut mlpwin_isa::snap::SnapWriter) {
        w.put_u64(self.tick);
        w.put_seq(self.entries.iter(), |w, e| {
            w.put_bool(e.valid);
            if e.valid {
                w.put_u64(e.tag);
                w.put_u64(e.target);
                w.put_u64(e.lru);
            }
        });
    }

    /// Restores the state written by [`Btb::save_state`]; geometry
    /// (ways, set mask) stays as constructed.
    pub fn load_state(
        &mut self,
        r: &mut mlpwin_isa::snap::SnapReader<'_>,
    ) -> Result<(), mlpwin_isa::snap::SnapError> {
        self.tick = r.get_u64()?;
        let entries = r.get_seq(|r| {
            if !r.get_bool()? {
                return Ok(INVALID_ENTRY);
            }
            Ok(BtbEntry {
                tag: r.get_u64()?,
                target: r.get_u64()?,
                lru: r.get_u64()?,
                valid: true,
            })
        })?;
        if entries.len() != self.entries.len() {
            return Err(mlpwin_isa::snap::SnapError::Mismatch {
                what: "BTB geometry",
            });
        }
        self.entries = entries;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Btb {
        Btb::new(BtbConfig { sets: 2, ways: 2 })
    }

    #[test]
    fn miss_then_hit() {
        let mut btb = tiny();
        assert_eq!(btb.lookup(0x100), None);
        btb.insert(0x100, 0x800);
        assert_eq!(btb.lookup(0x100), Some(0x800));
    }

    #[test]
    fn update_replaces_target() {
        let mut btb = tiny();
        btb.insert(0x100, 0x800);
        btb.insert(0x100, 0x900);
        assert_eq!(btb.lookup(0x100), Some(0x900));
    }

    #[test]
    fn lru_eviction_within_set() {
        let mut btb = tiny();
        // All these PCs map to set 0 of a 2-set BTB (pc>>2 even).
        btb.insert(0x0, 0xa);
        btb.insert(0x10, 0xb);
        // Touch 0x0 so 0x10 becomes LRU.
        assert_eq!(btb.lookup(0x0), Some(0xa));
        btb.insert(0x20, 0xc); // evicts 0x10
        assert_eq!(btb.lookup(0x0), Some(0xa));
        assert_eq!(btb.lookup(0x10), None);
        assert_eq!(btb.lookup(0x20), Some(0xc));
    }

    #[test]
    fn different_sets_do_not_conflict() {
        let mut btb = tiny();
        btb.insert(0x0, 0x1); // set 0
        btb.insert(0x4, 0x2); // set 1
        btb.insert(0x8, 0x3); // set 0
        btb.insert(0xc, 0x4); // set 1
        assert_eq!(btb.lookup(0x0), Some(0x1));
        assert_eq!(btb.lookup(0x4), Some(0x2));
    }

    #[test]
    fn partly_filled_table_restores_exactly() {
        use mlpwin_isa::snap::{SnapReader, SnapWriter};
        let image = |b: &Btb| {
            let mut w = SnapWriter::new();
            b.save_state(&mut w);
            w.into_bytes()
        };
        let mut btb = tiny();
        let empty = image(&btb);
        btb.insert(0x0, 0xa);
        btb.insert(0x4, 0xb);
        btb.insert(0x10, 0xc);
        let bytes = image(&btb);
        assert_eq!(
            bytes.len(),
            empty.len() + 3 * 24,
            "24 bytes per valid entry"
        );
        let mut back = tiny();
        let mut r = SnapReader::new(&bytes);
        back.load_state(&mut r).expect("restores");
        r.finish().expect("consumed exactly");
        assert_eq!(image(&back), bytes);
        // The last invalid way fills, then LRU evicts, identically.
        for (pc, target) in [(0x14, 0xd), (0x20, 0xe), (0x4, 0xf)] {
            btb.insert(pc, target);
            back.insert(pc, target);
        }
        for pc in [0x0, 0x4, 0x10, 0x14, 0x20] {
            assert_eq!(btb.lookup(pc), back.lookup(pc), "pc {pc:#x}");
        }
        assert_eq!(image(&btb), image(&back));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_bad_geometry() {
        let _ = Btb::new(BtbConfig { sets: 3, ways: 2 });
    }
}
