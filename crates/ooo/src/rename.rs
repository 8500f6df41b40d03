//! Register renaming — the P6 map table.
//!
//! Each architectural register maps to the in-flight instruction (by
//! `DynSeq`) that will produce its newest value, or to nothing when the
//! committed value in the architectural file is current (always ready).
//! Squash recovery walks the ROB from youngest to the squash point,
//! undoing each instruction's mapping with the previous producer it
//! recorded at rename.

use crate::types::DynSeq;
use mlpwin_isa::snap::{SnapError, SnapReader, SnapWriter};
use mlpwin_isa::ArchReg;

/// The rename map table.
#[derive(Debug, Clone)]
pub struct RenameMap {
    map: [Option<DynSeq>; 64],
}

impl Default for RenameMap {
    fn default() -> RenameMap {
        RenameMap::new()
    }
}

impl RenameMap {
    /// Creates a map where every register reads the architectural file.
    pub fn new() -> RenameMap {
        RenameMap { map: [None; 64] }
    }

    /// The current producer of `reg`, or `None` when the architectural
    /// value is current.
    #[inline]
    pub fn producer(&self, reg: ArchReg) -> Option<DynSeq> {
        self.map[reg.index()]
    }

    /// Installs `dyn_seq` as the producer of `reg`, returning the
    /// previous mapping for rollback.
    #[inline]
    pub fn define(&mut self, reg: ArchReg, dyn_seq: DynSeq) -> Option<DynSeq> {
        self.map[reg.index()].replace(dyn_seq)
    }

    /// At commit: if `reg` still maps to `dyn_seq`, the committed value
    /// becomes architectural and the mapping clears.
    #[inline]
    pub fn commit(&mut self, reg: ArchReg, dyn_seq: DynSeq) {
        if self.map[reg.index()] == Some(dyn_seq) {
            self.map[reg.index()] = None;
        }
    }

    /// Squash rollback: restores the mapping of register index `reg_idx`
    /// to `prev` (recorded at rename time).
    #[inline]
    pub fn rollback(&mut self, reg_idx: usize, prev: Option<DynSeq>) {
        self.map[reg_idx] = prev;
    }

    /// Number of registers currently mapped to in-flight producers.
    pub fn live_mappings(&self) -> usize {
        self.map.iter().filter(|m| m.is_some()).count()
    }

    /// Serializes all 64 map-table entries.
    pub fn save_state(&self, w: &mut SnapWriter) {
        for m in &self.map {
            w.put_opt_u64(*m);
        }
    }

    /// Restores the map written by [`RenameMap::save_state`].
    pub fn load_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        for m in &mut self.map {
            *m = r.get_opt_u64()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn define_and_lookup() {
        let mut m = RenameMap::new();
        let r = ArchReg::int(5);
        assert_eq!(m.producer(r), None);
        assert_eq!(m.define(r, 10), None);
        assert_eq!(m.producer(r), Some(10));
        assert_eq!(m.define(r, 11), Some(10));
        assert_eq!(m.producer(r), Some(11));
    }

    #[test]
    fn commit_clears_only_the_latest() {
        let mut m = RenameMap::new();
        let r = ArchReg::int(5);
        m.define(r, 10);
        m.define(r, 11);
        // Committing the older writer must not clear the newer mapping.
        m.commit(r, 10);
        assert_eq!(m.producer(r), Some(11));
        m.commit(r, 11);
        assert_eq!(m.producer(r), None);
    }

    #[test]
    fn rollback_restores_previous_producer() {
        let mut m = RenameMap::new();
        let r = ArchReg::fp(3);
        let prev0 = m.define(r, 20);
        let prev1 = m.define(r, 21);
        assert_eq!(prev1, Some(20));
        // Squash 21, then 20 (youngest first, as the ROB walk does).
        m.rollback(r.index(), prev1);
        assert_eq!(m.producer(r), Some(20));
        m.rollback(r.index(), prev0);
        assert_eq!(m.producer(r), None);
    }

    #[test]
    fn live_mapping_count() {
        let mut m = RenameMap::new();
        assert_eq!(m.live_mappings(), 0);
        m.define(ArchReg::int(1), 1);
        m.define(ArchReg::fp(1), 2);
        assert_eq!(m.live_mappings(), 2);
        m.commit(ArchReg::int(1), 1);
        assert_eq!(m.live_mappings(), 1);
    }
}
