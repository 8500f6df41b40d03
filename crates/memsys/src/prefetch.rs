//! Stride-based hardware data prefetcher (Baer & Chen style).
//!
//! Table 1 of the paper: a stride prefetcher with a 4K-entry, 4-way
//! reference-prediction table, issuing prefetches for 16 lines into the
//! L2 cache on a miss. Each table entry tracks, per load PC, the last
//! address and the detected stride with a 2-bit confidence state machine
//! (initial → transient → steady); prefetches are issued only in the
//! steady state.

use mlpwin_isa::Addr;

/// Prefetcher configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StrideConfig {
    /// Reference-prediction-table entries; must be a power of two when
    /// divided by `ways`.
    pub entries: usize,
    /// Table associativity.
    pub ways: usize,
    /// Number of strided lines to prefetch on a triggering miss.
    pub degree: usize,
    /// Whether the prefetcher is enabled at all (ablation hook).
    pub enabled: bool,
}

impl Default for StrideConfig {
    fn default() -> StrideConfig {
        StrideConfig {
            entries: 4096,
            ways: 4,
            degree: 16,
            enabled: true,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum StrideState {
    Initial,
    Transient,
    Steady,
}

#[derive(Debug, Clone, Copy)]
struct RptEntry {
    tag: Addr,
    last_addr: Addr,
    stride: i64,
    state: StrideState,
    lru: u64,
    valid: bool,
}

/// An entry no training has reached: every entry starts so, and stays so
/// until it is first allocated.
const INVALID_ENTRY: RptEntry = RptEntry {
    tag: 0,
    last_addr: 0,
    stride: 0,
    state: StrideState::Initial,
    lru: 0,
    valid: false,
};

/// Counters for the prefetcher.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PrefetchStats {
    /// Demand accesses observed for training.
    pub trains: u64,
    /// Prefetch addresses proposed (before dedup against cache/MSHR).
    pub proposed: u64,
    /// Triggering misses that found a steady stride.
    pub triggers: u64,
}

/// The stride prefetcher.
#[derive(Debug, Clone)]
pub struct StridePrefetcher {
    config: StrideConfig,
    table: Vec<RptEntry>,
    sets: usize,
    tick: u64,
    stats: PrefetchStats,
}

impl StridePrefetcher {
    /// Creates an empty prefetcher.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is degenerate (zero ways, entries not
    /// divisible into power-of-two sets).
    pub fn new(config: StrideConfig) -> StridePrefetcher {
        assert!(config.ways > 0, "prefetch table needs at least one way");
        assert_eq!(
            config.entries % config.ways,
            0,
            "entries must divide into ways"
        );
        let sets = config.entries / config.ways;
        assert!(
            sets.is_power_of_two(),
            "prefetch sets must be a power of two"
        );
        StridePrefetcher {
            config,
            table: vec![INVALID_ENTRY; config.entries],
            sets,
            tick: 0,
            stats: PrefetchStats::default(),
        }
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &PrefetchStats {
        &self.stats
    }

    /// Serializes the reference-prediction table, LRU clock and counters.
    ///
    /// Each entry is its valid flag, followed by its fields only when
    /// valid: nothing clears `valid`, so an invalid entry still holds
    /// `INVALID_ENTRY`'s fields, and victim choice reads an invalid
    /// entry's LRU as 0 whatever it holds.
    pub fn save_state(&self, w: &mut mlpwin_isa::snap::SnapWriter) {
        w.put_u64(self.tick);
        w.put_seq(self.table.iter(), |w, e| {
            w.put_bool(e.valid);
            if e.valid {
                w.put_u64(e.tag);
                w.put_u64(e.last_addr);
                w.put_i64(e.stride);
                w.put_u8(match e.state {
                    StrideState::Initial => 0,
                    StrideState::Transient => 1,
                    StrideState::Steady => 2,
                });
                w.put_u64(e.lru);
            }
        });
        w.put_u64(self.stats.trains);
        w.put_u64(self.stats.proposed);
        w.put_u64(self.stats.triggers);
    }

    /// Restores the state written by [`StridePrefetcher::save_state`].
    pub fn load_state(
        &mut self,
        r: &mut mlpwin_isa::snap::SnapReader<'_>,
    ) -> Result<(), mlpwin_isa::snap::SnapError> {
        self.tick = r.get_u64()?;
        let table = r.get_seq(|r| {
            if !r.get_bool()? {
                return Ok(INVALID_ENTRY);
            }
            Ok(RptEntry {
                tag: r.get_u64()?,
                last_addr: r.get_u64()?,
                stride: r.get_i64()?,
                state: {
                    let offset = r.offset();
                    match r.get_u8()? {
                        0 => StrideState::Initial,
                        1 => StrideState::Transient,
                        2 => StrideState::Steady,
                        tag => {
                            return Err(mlpwin_isa::snap::SnapError::BadTag {
                                offset,
                                tag,
                                what: "stride state",
                            })
                        }
                    }
                },
                lru: r.get_u64()?,
                valid: true,
            })
        })?;
        if table.len() != self.table.len() {
            return Err(mlpwin_isa::snap::SnapError::Mismatch {
                what: "prefetch geometry",
            });
        }
        self.table = table;
        self.stats.trains = r.get_u64()?;
        self.stats.proposed = r.get_u64()?;
        self.stats.triggers = r.get_u64()?;
        Ok(())
    }

    fn set_range(&self, pc: Addr) -> std::ops::Range<usize> {
        let set = ((pc >> 2) as usize) & (self.sets - 1);
        let base = set * self.config.ways;
        base..base + self.config.ways
    }

    /// Trains the table with a demand access by the load/store at `pc`
    /// touching `addr`; if `was_miss` and the entry is in the steady
    /// state, returns up to `degree` strided prefetch addresses.
    ///
    /// Returned addresses are raw (not line-aligned); the memory system
    /// deduplicates them against the L2 contents and in-flight fills.
    pub fn train(&mut self, pc: Addr, addr: Addr, was_miss: bool) -> Vec<Addr> {
        if !self.config.enabled {
            return Vec::new();
        }
        self.stats.trains += 1;
        self.tick += 1;
        let tick = self.tick;
        let degree = self.config.degree;
        let range = self.set_range(pc);
        let set = &mut self.table[range];

        let entry = if let Some(e) = set.iter_mut().find(|e| e.valid && e.tag == pc) {
            e
        } else {
            let victim = set
                .iter_mut()
                .min_by_key(|e| if e.valid { e.lru } else { 0 })
                .expect("set has at least one way");
            *victim = RptEntry {
                tag: pc,
                last_addr: addr,
                stride: 0,
                state: StrideState::Initial,
                lru: tick,
                valid: true,
            };
            return Vec::new();
        };

        let new_stride = addr as i64 - entry.last_addr as i64;
        let stride_matches = new_stride == entry.stride && new_stride != 0;
        entry.state = match (entry.state, stride_matches) {
            (StrideState::Initial, true) => StrideState::Transient,
            (StrideState::Initial, false) => StrideState::Initial,
            (StrideState::Transient, true) => StrideState::Steady,
            (StrideState::Transient, false) => StrideState::Initial,
            (StrideState::Steady, true) => StrideState::Steady,
            (StrideState::Steady, false) => StrideState::Transient,
        };
        if !stride_matches {
            entry.stride = new_stride;
        }
        entry.last_addr = addr;
        entry.lru = tick;

        if was_miss && entry.state == StrideState::Steady && entry.stride != 0 {
            self.stats.triggers += 1;
            let stride = entry.stride;
            let mut out = Vec::with_capacity(degree);
            for i in 1..=degree as i64 {
                let target = addr as i64 + stride * i;
                if target >= 0 {
                    out.push(target as Addr);
                }
            }
            self.stats.proposed += out.len() as u64;
            out
        } else {
            Vec::new()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pf() -> StridePrefetcher {
        StridePrefetcher::new(StrideConfig {
            entries: 16,
            ways: 4,
            degree: 4,
            enabled: true,
        })
    }

    #[test]
    fn steady_stride_triggers_prefetch_on_miss() {
        let mut p = pf();
        // Three accesses establish the stride (initial -> transient -> steady).
        assert!(p.train(0x100, 0x1000, true).is_empty()); // allocate
        assert!(p.train(0x100, 0x1040, true).is_empty()); // stride learned, transient
        assert!(p.train(0x100, 0x1080, true).is_empty()); // steady after two matches? -> transient->steady
        let out = p.train(0x100, 0x10c0, true);
        assert_eq!(out, vec![0x1100, 0x1140, 0x1180, 0x11c0]);
    }

    #[test]
    fn hits_train_but_do_not_prefetch() {
        let mut p = pf();
        for i in 0..5 {
            let _ = p.train(0x100, 0x1000 + i * 0x40, true);
        }
        let out = p.train(0x100, 0x1000 + 5 * 0x40, false);
        assert!(out.is_empty(), "steady but not a miss => no prefetch");
    }

    #[test]
    fn irregular_pattern_never_reaches_steady() {
        let mut p = pf();
        let addrs = [0x1000u64, 0x5000, 0x2000, 0x9000, 0x1234, 0x8888];
        for a in addrs {
            assert!(p.train(0x200, a, true).is_empty());
        }
        assert_eq!(p.stats().triggers, 0);
    }

    #[test]
    fn disabled_prefetcher_is_inert() {
        let mut p = StridePrefetcher::new(StrideConfig {
            enabled: false,
            ..StrideConfig::default()
        });
        for i in 0..10 {
            assert!(p.train(0x100, 0x1000 + i * 0x40, true).is_empty());
        }
        assert_eq!(p.stats().trains, 0);
    }

    #[test]
    fn negative_strides_prefetch_downward() {
        let mut p = pf();
        let _ = p.train(0x300, 0x10000, true);
        let _ = p.train(0x300, 0xFFC0, true);
        let _ = p.train(0x300, 0xFF80, true);
        let out = p.train(0x300, 0xFF40, true);
        assert_eq!(out[0], 0xFF00);
        assert!(out.windows(2).all(|w| w[1] < w[0]));
    }

    #[test]
    fn distinct_pcs_use_distinct_entries() {
        let mut p = pf();
        let _ = p.train(0x100, 0x1000, true);
        let _ = p.train(0x104, 0x9000, true);
        let _ = p.train(0x100, 0x1040, true);
        let _ = p.train(0x104, 0x9100, true);
        let _ = p.train(0x100, 0x1080, true);
        let _ = p.train(0x104, 0x9200, true);
        let a = p.train(0x100, 0x10c0, true);
        let b = p.train(0x104, 0x9300, true);
        assert_eq!(a[0], 0x1100);
        assert_eq!(b[0], 0x9400);
    }

    #[test]
    fn partly_trained_table_restores_exactly() {
        use mlpwin_isa::snap::{SnapReader, SnapWriter};
        let image = |p: &StridePrefetcher| {
            let mut w = SnapWriter::new();
            p.save_state(&mut w);
            w.into_bytes()
        };
        let mut p = pf();
        let empty = image(&p);
        // Two PCs trained to steady strides: 14 of 16 entries invalid.
        for i in 0..4 {
            let _ = p.train(0x100, 0x1000 + i * 0x40, true);
            let _ = p.train(0x104, 0x9000 - i * 0x80, true);
        }
        let bytes = image(&p);
        assert_eq!(
            bytes.len(),
            empty.len() + 2 * 33,
            "33 bytes per valid entry"
        );
        let mut back = pf();
        let mut r = SnapReader::new(&bytes);
        back.load_state(&mut r).expect("restores");
        r.finish().expect("consumed exactly");
        assert_eq!(image(&back), bytes);
        // New PCs take the invalid ways; old ones keep their strides.
        for (pc, addr) in [
            (0x100, 0x1100),
            (0x108, 0x40),
            (0x104, 0x8e00),
            (0x10c, 0x80),
        ] {
            assert_eq!(p.train(pc, addr, true), back.train(pc, addr, true));
        }
        assert_eq!(image(&p), image(&back));
    }
}
