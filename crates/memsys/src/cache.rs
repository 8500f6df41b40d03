//! Set-associative cache with true-LRU replacement and per-line metadata.
//!
//! The cache is a timing structure only: it tracks which lines are
//! present, not their data. Per-line metadata carries the provenance
//! information used by the Fig. 11 pollution analysis.

use crate::provenance::Provenance;
use mlpwin_isa::Addr;

/// Geometry and latency of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: usize,
    /// Associativity (ways per set).
    pub assoc: usize,
    /// Line size in bytes; must be a power of two.
    pub line_bytes: usize,
    /// Hit latency in cycles.
    pub hit_latency: u32,
}

impl CacheConfig {
    /// L1 instruction cache per Table 1 (64 KB, 2-way, 32 B, 1-cycle).
    pub fn l1i_default() -> CacheConfig {
        CacheConfig {
            size_bytes: 64 * 1024,
            assoc: 2,
            line_bytes: 32,
            hit_latency: 1,
        }
    }

    /// L1 data cache per Table 1 (64 KB, 2-way, 32 B, 2-cycle).
    pub fn l1d_default() -> CacheConfig {
        CacheConfig {
            size_bytes: 64 * 1024,
            assoc: 2,
            line_bytes: 32,
            hit_latency: 2,
        }
    }

    /// L2 cache per Table 1 (2 MB, 4-way, 64 B, 12-cycle).
    pub fn l2_default() -> CacheConfig {
        CacheConfig {
            size_bytes: 2 * 1024 * 1024,
            assoc: 4,
            line_bytes: 64,
            hit_latency: 12,
        }
    }

    /// The enlarged L2 used by the Fig. 10 comparison (2.5 MB, 5-way).
    pub fn l2_enlarged() -> CacheConfig {
        CacheConfig {
            size_bytes: 2 * 1024 * 1024 + 512 * 1024,
            assoc: 5,
            line_bytes: 64,
            hit_latency: 12,
        }
    }

    /// Number of sets implied by the geometry.
    pub fn num_sets(&self) -> usize {
        self.size_bytes / (self.assoc * self.line_bytes)
    }
}

/// Result of a cache probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessOutcome {
    /// Line present.
    Hit,
    /// Line absent; caller must fetch it from the next level.
    Miss,
}

/// Per-line bookkeeping carried through fills and evictions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LineMeta {
    /// Who brought the line in.
    pub provenance: Provenance,
    /// Whether a correct-path demand access has touched the line since the
    /// fill that installed it.
    pub touched_by_correct_path: bool,
}

#[derive(Debug, Clone, Copy)]
struct Line {
    tag: Addr,
    valid: bool,
    dirty: bool,
    lru: u64,
    meta: LineMeta,
}

/// A line no fill has reached: every line starts so, and stays so until
/// its first fill.
const INVALID_LINE: Line = Line {
    tag: 0,
    valid: false,
    dirty: false,
    lru: 0,
    meta: LineMeta {
        provenance: Provenance::DemandCorrect,
        touched_by_correct_path: false,
    },
};

/// Counters for one cache level.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Probes that hit.
    pub hits: u64,
    /// Probes that missed.
    pub misses: u64,
    /// Lines filled.
    pub fills: u64,
    /// Valid lines evicted to make room.
    pub evictions: u64,
    /// Dirty lines evicted (writebacks).
    pub writebacks: u64,
}

impl CacheStats {
    /// Miss ratio over all probes; 0.0 when no probe has been made.
    pub fn miss_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.misses as f64 / total as f64
        }
    }
}

/// A single cache level.
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    lines: Vec<Line>,
    set_mask: Addr,
    line_shift: u32,
    tick: u64,
    stats: CacheStats,
}

impl Cache {
    /// Creates an empty cache.
    ///
    /// # Panics
    ///
    /// Panics if the line size or set count is not a power of two, or if
    /// the geometry does not divide evenly.
    pub fn new(config: CacheConfig) -> Cache {
        assert!(
            config.line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        assert!(config.assoc > 0, "associativity must be positive");
        assert_eq!(
            config.size_bytes % (config.assoc * config.line_bytes),
            0,
            "capacity must divide evenly into sets"
        );
        let sets = config.num_sets();
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        Cache {
            config,
            lines: vec![INVALID_LINE; sets * config.assoc],
            set_mask: (sets - 1) as Addr,
            line_shift: config.line_bytes.trailing_zeros(),
            tick: 0,
            stats: CacheStats::default(),
        }
    }

    /// The configuration this cache was built with.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// The line-aligned address containing `addr`.
    #[inline]
    pub fn line_addr(&self, addr: Addr) -> Addr {
        addr >> self.line_shift << self.line_shift
    }

    #[inline]
    fn set_range(&self, addr: Addr) -> std::ops::Range<usize> {
        let set = ((addr >> self.line_shift) & self.set_mask) as usize;
        let base = set * self.config.assoc;
        base..base + self.config.assoc
    }

    /// Probes the cache. On a hit the line's LRU position refreshes, the
    /// dirty bit is set for writes, and `mark_correct_touch` (if set)
    /// records that a correct-path access used the line.
    #[inline]
    pub fn access(
        &mut self,
        addr: Addr,
        is_write: bool,
        mark_correct_touch: bool,
    ) -> AccessOutcome {
        self.tick += 1;
        let tag = self.line_addr(addr);
        let tick = self.tick;
        let range = self.set_range(addr);
        for line in &mut self.lines[range] {
            if line.valid && line.tag == tag {
                line.lru = tick;
                line.dirty |= is_write;
                line.meta.touched_by_correct_path |= mark_correct_touch;
                self.stats.hits += 1;
                return AccessOutcome::Hit;
            }
        }
        self.stats.misses += 1;
        AccessOutcome::Miss
    }

    /// Marks the line containing `addr` (if resident) as touched by a
    /// correct-path access. Used to propagate usefulness information from
    /// L1 hits down to the L2 copy for the Fig. 11 accounting.
    #[inline]
    pub fn mark_touched(&mut self, addr: Addr) {
        let tag = self.line_addr(addr);
        let range = self.set_range(addr);
        for line in &mut self.lines[range] {
            if line.valid && line.tag == tag {
                line.meta.touched_by_correct_path = true;
                return;
            }
        }
    }

    /// Probes without updating any state (used by prefetch filters).
    #[inline]
    pub fn contains(&self, addr: Addr) -> bool {
        let tag = self.line_addr(addr);
        let range = self.set_range(addr);
        self.lines[range].iter().any(|l| l.valid && l.tag == tag)
    }

    /// Installs the line containing `addr`, evicting the LRU way if the
    /// set is full. Returns the evicted line's metadata if a valid line
    /// was displaced.
    pub fn fill(&mut self, addr: Addr, meta: LineMeta) -> Option<LineMeta> {
        self.tick += 1;
        let tag = self.line_addr(addr);
        let tick = self.tick;
        let range = self.set_range(addr);
        let set = &mut self.lines[range];
        // Refill of an already-present line (e.g. racing prefetch): keep
        // the existing metadata, just refresh recency.
        if let Some(line) = set.iter_mut().find(|l| l.valid && l.tag == tag) {
            line.lru = tick;
            return None;
        }
        self.stats.fills += 1;
        // Victim choice is explicit about cold sets: any invalid way is
        // taken before a valid line is evicted (first such way by index,
        // so the choice is pinned and layout-independent), and only a
        // full set falls back to true LRU over the valid lines.
        let victim = match set.iter_mut().find(|l| !l.valid) {
            Some(invalid) => invalid,
            None => set
                .iter_mut()
                .min_by_key(|l| l.lru)
                .expect("set has at least one way"),
        };
        let evicted = if victim.valid {
            self.stats.evictions += 1;
            if victim.dirty {
                self.stats.writebacks += 1;
            }
            Some(victim.meta)
        } else {
            None
        };
        *victim = Line {
            tag,
            valid: true,
            dirty: false,
            lru: tick,
            meta,
        };
        evicted
    }

    /// Iterates over the metadata of every valid line (used to account for
    /// still-resident lines at the end of a simulation).
    pub fn resident_lines(&self) -> impl Iterator<Item = &LineMeta> {
        self.lines.iter().filter(|l| l.valid).map(|l| &l.meta)
    }

    /// Number of valid lines currently resident.
    pub fn resident_count(&self) -> usize {
        self.lines.iter().filter(|l| l.valid).count()
    }

    /// Serializes the array contents, LRU clock and counters; geometry is
    /// rebuilt from the configuration at restore time.
    ///
    /// Each line is its valid flag, followed by its fields only when
    /// valid. That is exact because nothing clears `valid` once a fill
    /// sets it, so an invalid line still holds the fields `Cache::new`
    /// gave it — and no probe reads an invalid line's fields anyway. A
    /// full cache encodes to the same size as writing every field of
    /// every line.
    pub fn save_state(&self, w: &mut mlpwin_isa::snap::SnapWriter) {
        w.put_u64(self.tick);
        w.put_seq(self.lines.iter(), |w, l| {
            w.put_bool(l.valid);
            if l.valid {
                w.put_u64(l.tag);
                w.put_bool(l.dirty);
                w.put_u64(l.lru);
                w.put_u8(l.meta.provenance.tag());
                w.put_bool(l.meta.touched_by_correct_path);
            }
        });
        w.put_u64(self.stats.hits);
        w.put_u64(self.stats.misses);
        w.put_u64(self.stats.fills);
        w.put_u64(self.stats.evictions);
        w.put_u64(self.stats.writebacks);
    }

    /// Restores the state written by [`Cache::save_state`].
    pub fn load_state(
        &mut self,
        r: &mut mlpwin_isa::snap::SnapReader<'_>,
    ) -> Result<(), mlpwin_isa::snap::SnapError> {
        self.tick = r.get_u64()?;
        let lines = r.get_seq(|r| {
            if !r.get_bool()? {
                return Ok(INVALID_LINE);
            }
            Ok(Line {
                tag: r.get_u64()?,
                valid: true,
                dirty: r.get_bool()?,
                lru: r.get_u64()?,
                meta: LineMeta {
                    provenance: Provenance::from_tag(r)?,
                    touched_by_correct_path: r.get_bool()?,
                },
            })
        })?;
        if lines.len() != self.lines.len() {
            return Err(mlpwin_isa::snap::SnapError::Mismatch {
                what: "cache geometry",
            });
        }
        self.lines = lines;
        self.stats.hits = r.get_u64()?;
        self.stats.misses = r.get_u64()?;
        self.stats.fills = r.get_u64()?;
        self.stats.evictions = r.get_u64()?;
        self.stats.writebacks = r.get_u64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlpwin_isa::snap::{SnapError, SnapReader, SnapWriter};

    fn tiny() -> Cache {
        // 4 sets x 2 ways x 16B lines = 128 B.
        Cache::new(CacheConfig {
            size_bytes: 128,
            assoc: 2,
            line_bytes: 16,
            hit_latency: 1,
        })
    }

    fn meta(p: Provenance) -> LineMeta {
        LineMeta {
            provenance: p,
            touched_by_correct_path: false,
        }
    }

    #[test]
    fn default_geometries_match_table1() {
        assert_eq!(CacheConfig::l1d_default().num_sets(), 1024);
        assert_eq!(CacheConfig::l1i_default().num_sets(), 1024);
        assert_eq!(CacheConfig::l2_default().num_sets(), 8192);
        // Enlarged L2: 2.5MB / (5 * 64B) = 8192 sets, same as base.
        assert_eq!(CacheConfig::l2_enlarged().num_sets(), 8192);
    }

    #[test]
    fn miss_then_fill_then_hit() {
        let mut c = tiny();
        assert_eq!(c.access(0x100, false, true), AccessOutcome::Miss);
        c.fill(0x100, meta(Provenance::DemandCorrect));
        assert_eq!(c.access(0x104, false, true), AccessOutcome::Hit);
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = tiny();
        // Three lines mapping to the same set (stride = sets*line = 64B).
        c.fill(0x000, meta(Provenance::DemandCorrect));
        c.fill(0x040, meta(Provenance::DemandCorrect));
        // Touch 0x000 so 0x040 is LRU.
        assert_eq!(c.access(0x000, false, false), AccessOutcome::Hit);
        c.fill(0x080, meta(Provenance::DemandCorrect));
        assert!(c.contains(0x000));
        assert!(!c.contains(0x040));
        assert!(c.contains(0x080));
    }

    #[test]
    fn dirty_eviction_counts_writeback() {
        let mut c = tiny();
        c.fill(0x000, meta(Provenance::DemandCorrect));
        assert_eq!(c.access(0x000, true, true), AccessOutcome::Hit);
        c.fill(0x040, meta(Provenance::DemandCorrect));
        c.fill(0x080, meta(Provenance::DemandCorrect)); // evicts 0x000 (dirty)
        assert_eq!(c.stats().writebacks, 1);
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn refill_of_present_line_keeps_metadata() {
        let mut c = tiny();
        c.fill(0x000, meta(Provenance::Prefetch));
        assert_eq!(c.access(0x000, false, true), AccessOutcome::Hit);
        // A racing duplicate fill must not reset touched_by_correct_path.
        c.fill(0x000, meta(Provenance::Prefetch));
        let m = c.resident_lines().next().unwrap();
        assert!(m.touched_by_correct_path);
        assert_eq!(c.stats().fills, 1, "duplicate fill not counted");
    }

    #[test]
    fn touch_marking_only_for_correct_path() {
        let mut c = tiny();
        c.fill(0x000, meta(Provenance::Prefetch));
        assert_eq!(c.access(0x000, false, false), AccessOutcome::Hit);
        assert!(!c.resident_lines().next().unwrap().touched_by_correct_path);
        assert_eq!(c.access(0x000, false, true), AccessOutcome::Hit);
        assert!(c.resident_lines().next().unwrap().touched_by_correct_path);
    }

    #[test]
    fn line_addr_masks_offset_bits() {
        let c = tiny();
        assert_eq!(c.line_addr(0x123), 0x120);
        assert_eq!(c.line_addr(0x120), 0x120);
    }

    #[test]
    fn resident_count_tracks_fills() {
        let mut c = tiny();
        assert_eq!(c.resident_count(), 0);
        c.fill(0x000, meta(Provenance::DemandCorrect));
        c.fill(0x010, meta(Provenance::DemandCorrect));
        assert_eq!(c.resident_count(), 2);
    }

    #[test]
    fn cold_set_fills_invalid_ways_before_evicting() {
        let mut c = tiny();
        // One valid line, recently touched; the other way is still cold.
        c.fill(0x000, meta(Provenance::DemandCorrect));
        assert_eq!(c.access(0x000, false, false), AccessOutcome::Hit);
        // The next fill to the set must take the invalid way, not evict
        // the valid line — even though the valid line's high LRU tick
        // would never have won an "invalid beats valid" tie by accident.
        c.fill(0x040, meta(Provenance::DemandCorrect));
        assert!(c.contains(0x000), "valid line survives a cold-way fill");
        assert!(c.contains(0x040));
        assert_eq!(c.stats().evictions, 0);
    }

    #[test]
    fn full_set_evicts_strictly_by_lru() {
        let mut c = tiny();
        c.fill(0x040, meta(Provenance::DemandCorrect));
        c.fill(0x000, meta(Provenance::DemandCorrect));
        // 0x040 was filled first and never re-touched: it is the LRU way
        // even though it sits at a later way index than fill order alone
        // would suggest.
        c.fill(0x080, meta(Provenance::DemandCorrect));
        assert!(!c.contains(0x040));
        assert!(c.contains(0x000));
        assert!(c.contains(0x080));
        assert_eq!(c.stats().evictions, 1);
    }

    /// A 64-bit LCG (Knuth's MMIX constants), high bits out.
    struct Lcg(u64);

    impl Lcg {
        fn next(&mut self) -> u64 {
            self.0 = self
                .0
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            self.0 >> 33
        }

        fn meta(&mut self) -> LineMeta {
            LineMeta {
                provenance: match self.next() % 3 {
                    0 => Provenance::DemandCorrect,
                    1 => Provenance::DemandWrong,
                    _ => Provenance::Prefetch,
                },
                touched_by_correct_path: self.next().is_multiple_of(2),
            }
        }
    }

    fn image(c: &Cache) -> Vec<u8> {
        let mut w = SnapWriter::new();
        c.save_state(&mut w);
        w.into_bytes()
    }

    /// The size of a layout that writes every field of every line: tick,
    /// line count, 20 bytes per line, five counters.
    fn dense_size(c: &Cache) -> usize {
        8 + 8 + c.lines.len() * 20 + 5 * 8
    }

    #[test]
    fn snapshot_round_trips_exactly_at_every_fill_level() {
        // 16 sets x 4 ways x 16 B lines.
        let config = CacheConfig {
            size_bytes: 1024,
            assoc: 4,
            line_bytes: 16,
            hit_latency: 1,
        };
        let mut rng = Lcg(7);
        let empty = Cache::new(config);
        let mut one = Cache::new(config);
        one.fill(0x230, meta(Provenance::Prefetch));
        assert_eq!(one.access(0x230, true, true), AccessOutcome::Hit);
        let mut partial = Cache::new(config);
        for _ in 0..40 {
            let addr = rng.next() % 4096;
            let (write, touch) = (rng.next().is_multiple_of(2), rng.next().is_multiple_of(2));
            if partial.access(addr, write, touch) == AccessOutcome::Miss {
                let m = rng.meta();
                partial.fill(addr, m);
            }
        }
        let mut full = Cache::new(config);
        // Twice the capacity, so every way of every set is valid and
        // half the fills evict.
        for line in 0..128u64 {
            let m = rng.meta();
            full.fill(line * 16, m);
            full.access(line * 16 + 4, line % 3 == 0, false);
        }
        assert_eq!(full.resident_count(), 64);
        assert!((2..64).contains(&partial.resident_count()));

        for (name, cache) in [
            ("empty", empty),
            ("one line", one),
            ("partial", partial),
            ("full", full),
        ] {
            let bytes = image(&cache);
            assert!(
                bytes.len() <= dense_size(&cache),
                "{name}: larger than dense"
            );
            let mut back = Cache::new(config);
            let mut r = SnapReader::new(&bytes);
            back.load_state(&mut r).expect("restores");
            r.finish().expect("consumed exactly");
            assert_eq!(image(&back), bytes, "{name}: save -> load -> save");

            // The restored cache answers every probe as the original does.
            let mut orig = cache;
            let mut probe = Lcg(99);
            for step in 0..4000 {
                let addr = probe.next() % 8192;
                match probe.next() % 4 {
                    0 => {
                        let (write, touch) = (
                            probe.next().is_multiple_of(2),
                            probe.next().is_multiple_of(2),
                        );
                        assert_eq!(
                            orig.access(addr, write, touch),
                            back.access(addr, write, touch),
                            "{name}: access at step {step}"
                        );
                    }
                    1 => assert_eq!(orig.contains(addr), back.contains(addr), "{name}"),
                    2 => {
                        let m = probe.meta();
                        assert_eq!(orig.fill(addr, m), back.fill(addr, m), "{name}: fill");
                    }
                    _ => assert_eq!(orig.resident_count(), back.resident_count(), "{name}"),
                }
            }
            assert_eq!(orig.stats(), back.stats(), "{name}");
            assert_eq!(image(&orig), image(&back), "{name}: diverged");
        }
    }

    #[test]
    fn snapshot_size_tracks_valid_lines_and_caps_at_dense() {
        let mut c = tiny();
        assert_eq!(
            image(&c).len(),
            8 + 8 + 8 + 5 * 8,
            "one flag byte per empty line"
        );
        for line in 0..8u64 {
            c.fill(line * 16, meta(Provenance::DemandCorrect));
        }
        assert_eq!(c.resident_count(), 8);
        assert_eq!(
            image(&c).len(),
            dense_size(&c),
            "a full cache costs the dense size"
        );
    }

    #[test]
    fn corrupt_snapshots_are_typed_errors() {
        let mut c = tiny();
        c.fill(0x000, meta(Provenance::DemandCorrect));
        c.fill(0x050, meta(Provenance::Prefetch));
        let bytes = image(&c);

        // A stream written for another geometry.
        let mut bigger = Cache::new(CacheConfig {
            size_bytes: 256,
            ..*c.config()
        });
        assert_eq!(
            bigger.load_state(&mut SnapReader::new(&bytes)),
            Err(SnapError::Mismatch {
                what: "cache geometry"
            })
        );
        // Every truncation.
        for cut in 0..bytes.len() {
            let err = tiny()
                .load_state(&mut SnapReader::new(&bytes[..cut]))
                .expect_err("truncated stream");
            assert!(
                matches!(
                    err,
                    SnapError::ShortRead { .. } | SnapError::BadLength { .. }
                ),
                "cut at {cut}: {err:?}"
            );
        }
        // A presence flag that is neither 0 nor 1 (the first line's flag
        // follows the tick and the line count).
        let mut bad = bytes.clone();
        bad[16] = 7;
        assert!(matches!(
            tiny().load_state(&mut SnapReader::new(&bad)),
            Err(SnapError::BadTag { tag: 7, .. })
        ));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_bad_line_size() {
        let _ = Cache::new(CacheConfig {
            size_bytes: 96,
            assoc: 2,
            line_bytes: 24,
            hit_latency: 1,
        });
    }
}
