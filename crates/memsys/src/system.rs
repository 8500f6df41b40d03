//! The full memory hierarchy: L1I + L1D + L2 + DRAM + stride prefetcher,
//! with MSHRs making the data side non-blocking.
//!
//! # Timing model
//!
//! The hierarchy is a *latency oracle with state*: each access updates
//! cache/MSHR/bus state immediately, in access order, and returns the
//! cycle its data becomes available. Line state is installed at miss time
//! while the *data-availability* time is carried by the MSHR entry, so a
//! later access to an in-flight line correctly waits for the fill without
//! issuing a duplicate memory request. This is the standard approximation
//! for trace-driven simulators (the alternative — fill-at-completion —
//! changes hit/miss classification only for accesses racing a fill, which
//! the MSHR pending check already times correctly).

use crate::cache::{AccessOutcome, Cache, CacheConfig, LineMeta};
use crate::dram::{Dram, DramConfig};
use crate::mshr::{MshrFile, MshrOutcome};
use crate::prefetch::{StrideConfig, StridePrefetcher};
use crate::provenance::{LineClass, PathKind, Provenance, ProvenanceStats};
use mlpwin_isa::{Addr, Cycle};

/// What kind of access the core is making.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// Instruction fetch (L1I side).
    InstFetch,
    /// Data read.
    Load,
    /// Data write (write-allocate, write-back).
    Store,
}

/// Timing outcome of one access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessResult {
    /// Cycle at which the data is available to the requester.
    pub ready_at: Cycle,
    /// `ready_at - now`, for convenience.
    pub latency: u32,
    /// The access hit in its L1.
    pub l1_hit: bool,
    /// The access was satisfied at or above the L2 (i.e. did not go to
    /// memory). True for L1 hits as well.
    pub l2_or_better: bool,
    /// The access caused a *demand* L2 miss (a fresh one, not a merge into
    /// an in-flight fill). This is the event that drives the paper's
    /// window-resizing controller.
    pub l2_demand_miss: bool,
}

/// Configuration of the whole hierarchy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemSystemConfig {
    /// L1 instruction cache geometry.
    pub l1i: CacheConfig,
    /// L1 data cache geometry.
    pub l1d: CacheConfig,
    /// Unified L2 (the last-level cache) geometry.
    pub l2: CacheConfig,
    /// Main-memory channel.
    pub dram: DramConfig,
    /// Stride prefetcher (16-line prefetch into L2 on miss).
    pub prefetch: StrideConfig,
    /// L1D MSHR entries (outstanding line fills).
    pub l1d_mshrs: usize,
    /// L2 MSHR entries.
    pub l2_mshrs: usize,
    /// Whether to keep the cycle of every L2 demand miss for the Fig. 4
    /// miss-interval histogram (costs memory on long runs).
    pub record_miss_cycles: bool,
}

impl Default for MemSystemConfig {
    fn default() -> MemSystemConfig {
        MemSystemConfig {
            l1i: CacheConfig::l1i_default(),
            l1d: CacheConfig::l1d_default(),
            l2: CacheConfig::l2_default(),
            dram: DramConfig::default(),
            prefetch: StrideConfig::default(),
            // Generous MSHR files: the paper's SimpleScalar-derived model
            // does not bound outstanding misses, so the *window size* must
            // be the binding MLP resource. 256 covers a full level-3 LSQ.
            l1d_mshrs: 256,
            l2_mshrs: 256,
            record_miss_cycles: true,
        }
    }
}

/// Aggregate counters for the hierarchy.
#[derive(Debug, Clone, Default)]
pub struct MemStats {
    /// Demand loads observed.
    pub loads: u64,
    /// Demand stores observed.
    pub stores: u64,
    /// Instruction fetch accesses observed.
    pub ifetches: u64,
    /// Summed end-to-end load latency (for the Table 3 average).
    pub total_load_latency: u64,
    /// Fresh demand misses at the L2 (the controller's trigger events).
    pub l2_demand_misses: u64,
    /// Cycle of each recorded demand L2 miss (Fig. 4 histogram input).
    pub l2_demand_miss_cycles: Vec<Cycle>,
    /// Prefetch line fills actually issued to memory.
    pub prefetch_fills: u64,
}

impl MemStats {
    /// Average load latency in cycles (Table 3). Zero loads → 0.0.
    pub fn avg_load_latency(&self) -> f64 {
        if self.loads == 0 {
            0.0
        } else {
            self.total_load_latency as f64 / self.loads as f64
        }
    }
}

/// The complete memory system.
#[derive(Debug, Clone)]
pub struct MemSystem {
    config: MemSystemConfig,
    l1i: Cache,
    l1d: Cache,
    l2: Cache,
    dram: Dram,
    prefetcher: StridePrefetcher,
    l1d_mshr: MshrFile,
    l2_mshr: MshrFile,
    provenance: ProvenanceStats,
    stats: MemStats,
    finalized: bool,
}

impl MemSystem {
    /// Builds the hierarchy from its configuration.
    pub fn new(config: MemSystemConfig) -> MemSystem {
        MemSystem {
            l1i: Cache::new(config.l1i),
            l1d: Cache::new(config.l1d),
            l2: Cache::new(config.l2),
            dram: Dram::new(config.dram),
            prefetcher: StridePrefetcher::new(config.prefetch),
            l1d_mshr: MshrFile::new(config.l1d_mshrs),
            l2_mshr: MshrFile::new(config.l2_mshrs),
            provenance: ProvenanceStats::default(),
            stats: MemStats::default(),
            finalized: false,
            config,
        }
    }

    /// The configuration this hierarchy was built with.
    pub fn config(&self) -> &MemSystemConfig {
        &self.config
    }

    /// Main-memory minimum latency — the controller's shrink timeout.
    pub fn memory_latency(&self) -> u32 {
        self.config.dram.min_latency
    }

    /// Aggregate counters.
    pub fn stats(&self) -> &MemStats {
        &self.stats
    }

    /// L1 data cache (stats inspection).
    pub fn l1d(&self) -> &Cache {
        &self.l1d
    }

    /// L1 instruction cache (stats inspection).
    pub fn l1i(&self) -> &Cache {
        &self.l1i
    }

    /// L2 cache (stats inspection).
    pub fn l2(&self) -> &Cache {
        &self.l2
    }

    /// Main-memory channel (stats inspection).
    pub fn dram(&self) -> &Dram {
        &self.dram
    }

    /// Prefetcher (stats inspection).
    pub fn prefetcher(&self) -> &StridePrefetcher {
        &self.prefetcher
    }

    /// Fig. 11 line-provenance counters. Call [`MemSystem::finalize`]
    /// first so still-resident lines are included.
    pub fn provenance(&self) -> &ProvenanceStats {
        &self.provenance
    }

    /// In-flight line fills across both MSHR files — the "how many
    /// misses is the hierarchy still chasing" number a stall snapshot
    /// reports.
    pub fn outstanding_misses(&self) -> usize {
        self.l1d_mshr.occupancy() + self.l2_mshr.occupancy()
    }

    /// Clears all counters (including provenance) while keeping cache,
    /// MSHR, predictor-table and bus state warm — the measurement reset
    /// after a warm-up phase. Lines resident at reset time count toward
    /// the next measurement window's provenance when evicted or
    /// finalized, a small and documented skew.
    pub fn reset_stats(&mut self) {
        self.stats = MemStats::default();
        self.provenance = ProvenanceStats::default();
        self.finalized = false;
    }

    /// Folds the lines still resident in the L2 into the provenance
    /// counters. Idempotent; call once at the end of a run.
    pub fn finalize(&mut self) {
        if self.finalized {
            return;
        }
        self.finalized = true;
        let classes: Vec<LineClass> = self
            .l2
            .resident_lines()
            .map(|m| LineClass {
                provenance: m.provenance,
                useful: m.touched_by_correct_path || m.provenance == Provenance::DemandCorrect,
            })
            .collect();
        for c in classes {
            self.provenance.record(c);
        }
    }

    /// Serializes the complete hierarchy state: all cache arrays, MSHR
    /// files, the DRAM bus, the prefetcher table, provenance counters,
    /// aggregate stats and the finalize latch.
    pub fn save_state(&self, w: &mut mlpwin_isa::snap::SnapWriter) {
        self.l1i.save_state(w);
        self.l1d.save_state(w);
        self.l2.save_state(w);
        self.dram.save_state(w);
        self.prefetcher.save_state(w);
        self.l1d_mshr.save_state(w);
        self.l2_mshr.save_state(w);
        self.provenance.save_state(w);
        w.put_u64(self.stats.loads);
        w.put_u64(self.stats.stores);
        w.put_u64(self.stats.ifetches);
        w.put_u64(self.stats.total_load_latency);
        w.put_u64(self.stats.l2_demand_misses);
        w.put_u64_slice(&self.stats.l2_demand_miss_cycles);
        w.put_u64(self.stats.prefetch_fills);
        w.put_bool(self.finalized);
    }

    /// Restores the state written by [`MemSystem::save_state`] into a
    /// hierarchy built from the same configuration.
    pub fn load_state(
        &mut self,
        r: &mut mlpwin_isa::snap::SnapReader<'_>,
    ) -> Result<(), mlpwin_isa::snap::SnapError> {
        self.l1i.load_state(r)?;
        self.l1d.load_state(r)?;
        self.l2.load_state(r)?;
        self.dram.load_state(r)?;
        self.prefetcher.load_state(r)?;
        self.l1d_mshr.load_state(r)?;
        self.l2_mshr.load_state(r)?;
        self.provenance.load_state(r)?;
        self.stats.loads = r.get_u64()?;
        self.stats.stores = r.get_u64()?;
        self.stats.ifetches = r.get_u64()?;
        self.stats.total_load_latency = r.get_u64()?;
        self.stats.l2_demand_misses = r.get_u64()?;
        self.stats.l2_demand_miss_cycles = r.get_u64_vec()?;
        self.stats.prefetch_fills = r.get_u64()?;
        self.finalized = r.get_bool()?;
        Ok(())
    }

    /// Performs an access and returns its timing.
    ///
    /// `pc` is the program counter of the accessing instruction (used to
    /// train the stride prefetcher); `path` tags wrong-path accesses for
    /// the pollution analysis.
    #[inline]
    pub fn access(
        &mut self,
        kind: AccessKind,
        pc: Addr,
        addr: Addr,
        now: Cycle,
        path: PathKind,
    ) -> AccessResult {
        match kind {
            AccessKind::InstFetch => self.ifetch(addr, now),
            AccessKind::Load => {
                self.stats.loads += 1;
                let r = self.data_access(pc, addr, now, false, path);
                self.stats.total_load_latency += r.latency as u64;
                r
            }
            AccessKind::Store => {
                self.stats.stores += 1;
                self.data_access(pc, addr, now, true, path)
            }
        }
    }

    /// Instruction-side access: L1I, then L2, then memory. The I-side
    /// shares the L2 and the DRAM channel but has no MSHR file of its own
    /// (fetch stalls on an I-miss anyway).
    fn ifetch(&mut self, addr: Addr, now: Cycle) -> AccessResult {
        self.stats.ifetches += 1;
        let l1_lat = self.l1i.config().hit_latency;
        if self.l1i.access(addr, false, false) == AccessOutcome::Hit {
            return AccessResult {
                ready_at: now + l1_lat as Cycle,
                latency: l1_lat,
                l1_hit: true,
                l2_or_better: true,
                l2_demand_miss: false,
            };
        }
        // L1I miss: probe L2. I-side fills are demand-correct; synthetic
        // code footprints are small so this path is rare after warm-up.
        let (ready_at, l2_demand_miss, l2_or_better) =
            self.l2_level_access(addr, now + l1_lat as Cycle, Provenance::DemandCorrect, true);
        self.l1i.fill(
            addr,
            LineMeta {
                provenance: Provenance::DemandCorrect,
                touched_by_correct_path: true,
            },
        );
        AccessResult {
            ready_at,
            latency: (ready_at - now) as u32,
            l1_hit: false,
            l2_or_better,
            l2_demand_miss,
        }
    }

    /// Data-side access: L1D with MSHRs, then L2, then memory, training
    /// the prefetcher on every L2 probe.
    #[inline]
    fn data_access(
        &mut self,
        pc: Addr,
        addr: Addr,
        now: Cycle,
        is_write: bool,
        path: PathKind,
    ) -> AccessResult {
        let l1_lat = self.l1d.config().hit_latency as Cycle;
        let line = self.l1d.line_addr(addr);
        let correct = path == PathKind::Correct;

        // Waits longer than a comfortable L2 round trip behave like L2
        // misses for the requester (runahead INV-retires such loads even
        // though they issued no fresh memory request).
        let long_wait =
            now + (self.l2.config().hit_latency + 2 * self.l1d.config().hit_latency) as Cycle;
        if self.l1d.access(addr, is_write, correct) == AccessOutcome::Hit {
            // A correct-path hit makes the L2 copy of the line useful even
            // though the L2 is not probed (Fig. 11 accounting).
            if correct {
                self.l2.mark_touched(addr);
            }
            // Hit on line state — but the line may still be in flight.
            let ready_at = match self.l1d_mshr.pending(line) {
                Some(t) if t > now => t.max(now + l1_lat),
                _ => now + l1_lat,
            };
            return AccessResult {
                ready_at,
                latency: (ready_at - now) as u32,
                l1_hit: true,
                l2_or_better: ready_at <= long_wait,
                l2_demand_miss: false,
            };
        }

        // L1D miss.
        match self.l1d_mshr.begin_miss(line, now) {
            MshrOutcome::Merged(t) => {
                let ready_at = t.max(now + l1_lat);
                return AccessResult {
                    ready_at,
                    latency: (ready_at - now) as u32,
                    l1_hit: false,
                    // No new memory traffic, but a long wait is an L2 miss
                    // from the pipeline's point of view.
                    l2_or_better: ready_at <= long_wait,
                    l2_demand_miss: false,
                };
            }
            MshrOutcome::Full => {
                // All MSHRs busy: the access must retry once one frees.
                // Approximate the retry by waiting for the earliest
                // in-flight completion, then paying an L2-probe re-access.
                let earliest = self.l1d_mshr.earliest_completion().unwrap_or(now).max(now);
                let ready_at = earliest + self.l2.config().hit_latency as Cycle;
                return AccessResult {
                    ready_at,
                    latency: (ready_at - now) as u32,
                    l1_hit: false,
                    l2_or_better: ready_at <= long_wait,
                    l2_demand_miss: false,
                };
            }
            MshrOutcome::Allocated => {}
        }

        // Probe the L2 (after the L1 lookup latency). Train the stride
        // prefetcher on every L2 probe made by a demand access.
        let probe_time = now + l1_lat;
        let provenance = Provenance::demand(path);
        let (ready_at, l2_demand_miss, l2_or_better) =
            self.l2_level_access(addr, probe_time, provenance, correct);

        // Prefetcher: train with this access; a steady stride plus an L2
        // miss triggers a 16-line prefetch burst into the L2.
        let proposals = self.prefetcher.train(pc, addr, !l2_or_better);
        for p in proposals {
            self.issue_prefetch(p, probe_time);
        }

        // Fill L1D (write-allocate) and set the fill completion.
        self.l1d.fill(
            line,
            LineMeta {
                provenance,
                touched_by_correct_path: correct,
            },
        );
        self.l1d_mshr.set_completion(line, ready_at);

        AccessResult {
            ready_at,
            latency: (ready_at - now) as u32,
            l1_hit: false,
            l2_or_better,
            l2_demand_miss,
        }
    }

    /// Access at the L2 level: returns (data-ready cycle, fresh demand L2
    /// miss?, satisfied at L2 or better?). `probe_time` is when the L2
    /// lookup starts.
    fn l2_level_access(
        &mut self,
        addr: Addr,
        probe_time: Cycle,
        provenance: Provenance,
        correct: bool,
    ) -> (Cycle, bool, bool) {
        let l2_lat = self.l2.config().hit_latency as Cycle;
        let line = self.l2.line_addr(addr);
        if self.l2.access(addr, false, correct) == AccessOutcome::Hit {
            // In-flight fill check: a "hit" on a line whose data has not
            // arrived yet waits for the fill — and a long wait is an L2
            // miss from the requester's point of view.
            let ready = match self.l2_mshr.pending(line) {
                Some(t) if t > probe_time => t,
                _ => probe_time + l2_lat,
            };
            return (ready, false, ready <= probe_time + 2 * l2_lat);
        }
        // L2 miss.
        let is_demand = provenance != Provenance::Prefetch;
        match self.l2_mshr.begin_miss(line, probe_time) {
            MshrOutcome::Merged(t) => (t, false, false),
            MshrOutcome::Full => {
                // Retry once an entry frees, then the request proceeds to
                // memory: earliest completion + a fresh memory latency.
                let earliest = self
                    .l2_mshr
                    .earliest_completion()
                    .unwrap_or(probe_time)
                    .max(probe_time);
                (
                    earliest + self.config.dram.min_latency as Cycle,
                    false,
                    false,
                )
            }
            MshrOutcome::Allocated => {
                if is_demand {
                    self.stats.l2_demand_misses += 1;
                    if self.config.record_miss_cycles {
                        self.stats.l2_demand_miss_cycles.push(probe_time);
                    }
                }
                let complete = self
                    .dram
                    .request_line(probe_time + l2_lat, self.l2.config().line_bytes);
                self.l2_mshr.set_completion(line, complete);
                if let Some(evicted) = self.l2.fill(
                    line,
                    LineMeta {
                        provenance,
                        touched_by_correct_path: correct && is_demand,
                    },
                ) {
                    self.provenance.record(LineClass {
                        provenance: evicted.provenance,
                        useful: evicted.touched_by_correct_path
                            || evicted.provenance == Provenance::DemandCorrect,
                    });
                }
                (complete, is_demand, false)
            }
        }
    }

    /// Issues one prefetch toward the L2, deduplicating against resident
    /// and in-flight lines.
    fn issue_prefetch(&mut self, addr: Addr, now: Cycle) {
        let line = self.l2.line_addr(addr);
        if self.l2.contains(line) || self.l2_mshr.pending(line).is_some() {
            return;
        }
        if self.l2_mshr.begin_miss(line, now) != MshrOutcome::Allocated {
            return; // MSHRs saturated; drop the prefetch.
        }
        let complete = self.dram.request_line(now, self.l2.config().line_bytes);
        self.l2_mshr.set_completion(line, complete);
        self.stats.prefetch_fills += 1;
        if let Some(evicted) = self.l2.fill(
            line,
            LineMeta {
                provenance: Provenance::Prefetch,
                touched_by_correct_path: false,
            },
        ) {
            self.provenance.record(LineClass {
                provenance: evicted.provenance,
                useful: evicted.touched_by_correct_path
                    || evicted.provenance == Provenance::DemandCorrect,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mem() -> MemSystem {
        MemSystem::new(MemSystemConfig::default())
    }

    #[test]
    fn cold_load_pays_full_hierarchy_latency() {
        let mut m = mem();
        let r = m.access(AccessKind::Load, 0x100, 0x8000_0000, 0, PathKind::Correct);
        assert!(!r.l1_hit);
        assert!(r.l2_demand_miss);
        // 2 (L1) + 12 (L2 probe before DRAM request) + 300 (memory).
        assert!(r.ready_at >= 300, "got {}", r.ready_at);
        assert_eq!(m.stats().l2_demand_misses, 1);
    }

    #[test]
    fn warm_load_hits_l1() {
        let mut m = mem();
        let _ = m.access(AccessKind::Load, 0x100, 0x8000_0000, 0, PathKind::Correct);
        let r = m.access(
            AccessKind::Load,
            0x100,
            0x8000_0000,
            1000,
            PathKind::Correct,
        );
        assert!(r.l1_hit);
        assert_eq!(r.latency, 2);
    }

    #[test]
    fn racing_access_waits_for_inflight_fill() {
        let mut m = mem();
        let first = m.access(AccessKind::Load, 0x100, 0x8000_0000, 0, PathKind::Correct);
        // Same line, 5 cycles later: L1 state says hit but data is still
        // in flight; must wait for the fill, not 2 cycles.
        let second = m.access(AccessKind::Load, 0x104, 0x8000_0008, 5, PathKind::Correct);
        assert!(second.l1_hit);
        assert_eq!(second.ready_at, first.ready_at);
    }

    #[test]
    fn mshr_merge_prevents_duplicate_memory_requests() {
        let mut m = mem();
        // Two loads to the same 64B L2 line but different 32B L1 lines.
        let a = m.access(AccessKind::Load, 0x100, 0x8000_0000, 0, PathKind::Correct);
        let b = m.access(AccessKind::Load, 0x108, 0x8000_0020, 0, PathKind::Correct);
        assert_eq!(m.dram().stats().requests, 1, "second miss merged at L2");
        assert_eq!(b.ready_at, a.ready_at);
        assert_eq!(m.stats().l2_demand_misses, 1, "merge is not a fresh miss");
    }

    #[test]
    fn parallel_misses_overlap_in_memory() {
        let mut m = mem();
        let a = m.access(AccessKind::Load, 0x100, 0x8000_0000, 0, PathKind::Correct);
        let b = m.access(AccessKind::Load, 0x108, 0x9000_0000, 0, PathKind::Correct);
        // MLP: both complete within a transfer slot of each other.
        assert!(b.ready_at - a.ready_at < 20);
        assert_eq!(m.stats().l2_demand_misses, 2);
    }

    #[test]
    fn stride_stream_triggers_prefetch_fills() {
        let mut m = mem();
        // March a steady 64B stride through memory from one load PC.
        for i in 0..20u64 {
            let _ = m.access(
                AccessKind::Load,
                0x500,
                0x4000_0000 + i * 64,
                i * 400,
                PathKind::Correct,
            );
        }
        assert!(
            m.stats().prefetch_fills > 0,
            "steady stride must trigger prefetches"
        );
        // Once steady (after the third access), the 16-line prefetch
        // covers the stream: far fewer demand misses than the 20 lines.
        assert!(
            m.stats().l2_demand_misses <= 5,
            "prefetched stream should mostly hit, got {} demand misses",
            m.stats().l2_demand_misses
        );
    }

    #[test]
    fn wrongpath_fills_are_tracked_for_pollution() {
        let mut m = mem();
        let _ = m.access(AccessKind::Load, 0x100, 0xA000_0000, 0, PathKind::Wrong);
        let _ = m.access(AccessKind::Load, 0x104, 0xB000_0000, 10, PathKind::Wrong);
        // One of the wrong-path lines gets used by the correct path.
        let _ = m.access(
            AccessKind::Load,
            0x108,
            0xA000_0000,
            2000,
            PathKind::Correct,
        );
        m.finalize();
        let p = m.provenance();
        assert_eq!(p.wrongpath_useful, 1);
        assert_eq!(p.wrongpath_useless, 1);
    }

    #[test]
    fn finalize_is_idempotent() {
        let mut m = mem();
        let _ = m.access(AccessKind::Load, 0x100, 0x8000_0000, 0, PathKind::Correct);
        m.finalize();
        let total = m.provenance().total();
        m.finalize();
        assert_eq!(m.provenance().total(), total);
    }

    #[test]
    fn ifetch_hits_after_warmup() {
        let mut m = mem();
        let cold = m.access(AccessKind::InstFetch, 0x100, 0x100, 0, PathKind::Correct);
        assert!(!cold.l1_hit);
        let warm = m.access(AccessKind::InstFetch, 0x100, 0x100, 1000, PathKind::Correct);
        assert!(warm.l1_hit);
        assert_eq!(warm.latency, 1);
    }

    #[test]
    fn load_latency_accumulates_into_stats() {
        let mut m = mem();
        let _ = m.access(AccessKind::Load, 0x100, 0x8000_0000, 0, PathKind::Correct);
        assert!(m.stats().avg_load_latency() >= 300.0);
        let _ = m.access(
            AccessKind::Load,
            0x100,
            0x8000_0000,
            1000,
            PathKind::Correct,
        );
        // One ~314-cycle miss and one 2-cycle hit.
        assert!(m.stats().avg_load_latency() < 300.0);
        assert_eq!(m.stats().loads, 2);
    }

    #[test]
    fn miss_cycles_recorded_for_histogram() {
        let mut m = mem();
        let _ = m.access(AccessKind::Load, 0x100, 0x8000_0000, 100, PathKind::Correct);
        let _ = m.access(AccessKind::Load, 0x100, 0x9000_0000, 200, PathKind::Correct);
        assert_eq!(m.stats().l2_demand_miss_cycles.len(), 2);
        assert!(m.stats().l2_demand_miss_cycles[0] >= 100);
    }
}
