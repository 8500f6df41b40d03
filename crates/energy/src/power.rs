//! Energy model and the Fig. 9 1/EDP metric.
//!
//! Energy is accumulated from per-event dynamic costs plus per-cycle
//! static power. The window resources' contributions scale with their
//! *active* size (the paper gates signals and precharge in the unused
//! region, so a shrunk window burns little); the provisioned-but-gated
//! region still leaks a small fraction. Coefficients are in picojoules
//! and picojoules-per-cycle — arbitrary absolute units, physically
//! plausible relative magnitudes, which is all the normalized Fig. 9
//! comparison consumes.

use mlpwin_ooo::LevelSpec;

/// Per-run activity counters the energy model consumes. Populated by
/// `mlpwin-sim` from the core and memory statistics.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunCounters {
    /// Simulated cycles.
    pub cycles: u64,
    /// Instructions dispatched into the window (wrong path included —
    /// they burn energy too).
    pub dispatched: u64,
    /// Instructions issued to function units.
    pub issued: u64,
    /// L1 (I+D) accesses.
    pub l1_accesses: u64,
    /// L2 accesses.
    pub l2_accesses: u64,
    /// Main-memory line transfers.
    pub dram_lines: u64,
    /// Cycles spent at each window level, palred with that level's spec.
    pub level_cycles: Vec<(LevelSpec, u64)>,
    /// The largest provisioned level (leaks even when gated).
    pub provisioned: LevelSpec,
}

/// Energy totals in picojoules, by component.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EnergyBreakdown {
    /// Front-end + rename + ROB write dynamic energy.
    pub pipeline_dynamic_pj: f64,
    /// Issue-queue wakeup/select dynamic energy (size-dependent).
    pub window_dynamic_pj: f64,
    /// Active-region static energy of the window resources.
    pub window_static_pj: f64,
    /// Gated-region leakage of the provisioned-but-unused window area.
    pub window_gated_pj: f64,
    /// Cache access energy.
    pub cache_pj: f64,
    /// DRAM transfer energy.
    pub dram_pj: f64,
    /// Everything-else core static energy.
    pub base_static_pj: f64,
}

impl EnergyBreakdown {
    /// Total energy in picojoules.
    pub fn total_pj(&self) -> f64 {
        self.pipeline_dynamic_pj
            + self.window_dynamic_pj
            + self.window_static_pj
            + self.window_gated_pj
            + self.cache_pj
            + self.dram_pj
            + self.base_static_pj
    }
}

/// The energy model.
#[derive(Debug, Clone, Copy)]
pub struct EnergyModel {
    /// Dispatch (fetch/decode/rename/ROB-write) energy per instruction.
    pub e_dispatch_pj: f64,
    /// Issue energy base cost per issued instruction.
    pub e_issue_base_pj: f64,
    /// Issue energy per IQ entry broadcast across (wakeup CAM scaling).
    pub e_issue_per_entry_pj: f64,
    /// L1 access energy.
    pub e_l1_pj: f64,
    /// L2 access energy.
    pub e_l2_pj: f64,
    /// DRAM line-transfer energy.
    pub e_dram_line_pj: f64,
    /// Static power of active window storage, per entry-equivalent per
    /// cycle (ROB entries count 1, IQ/LSQ weighted by storage width).
    pub p_window_per_entry_pj: f64,
    /// Fraction of active-equivalent leakage burned by the gated region.
    pub gated_leak_fraction: f64,
    /// Static power of the rest of the core, per cycle.
    pub p_base_pj: f64,
}

impl Default for EnergyModel {
    fn default() -> EnergyModel {
        EnergyModel {
            e_dispatch_pj: 12.0,
            e_issue_base_pj: 4.0,
            e_issue_per_entry_pj: 0.06,
            e_l1_pj: 25.0,
            e_l2_pj: 120.0,
            e_dram_line_pj: 4000.0,
            p_window_per_entry_pj: 0.35,
            gated_leak_fraction: 0.12,
            p_base_pj: 280.0,
        }
    }
}

/// Weighted entry count of a level (IQ and LSQ entries are wider and
/// CAM-matched, so they weigh more than ROB slots).
fn weighted_entries(spec: &LevelSpec) -> f64 {
    spec.iq as f64 * 2.0 + spec.rob as f64 + spec.lsq as f64 * 1.5
}

impl EnergyModel {
    /// Computes the energy breakdown of a run.
    pub fn energy(&self, run: &RunCounters) -> EnergyBreakdown {
        let mut window_dynamic = 0.0;
        let mut window_static = 0.0;
        let mut level_cycles_total = 0u64;
        for (spec, cycles) in &run.level_cycles {
            level_cycles_total += cycles;
            window_static += weighted_entries(spec) * self.p_window_per_entry_pj * *cycles as f64;
        }
        debug_assert!(level_cycles_total <= run.cycles + 1);
        // Issue energy uses the *time-weighted* IQ size.
        let avg_iq = if level_cycles_total > 0 {
            run.level_cycles
                .iter()
                .map(|(s, c)| s.iq as f64 * *c as f64)
                .sum::<f64>()
                / level_cycles_total as f64
        } else {
            64.0
        };
        window_dynamic +=
            run.issued as f64 * (self.e_issue_base_pj + self.e_issue_per_entry_pj * avg_iq);

        let active_equiv: f64 = if level_cycles_total > 0 {
            run.level_cycles
                .iter()
                .map(|(s, c)| weighted_entries(s) * *c as f64)
                .sum::<f64>()
                / level_cycles_total as f64
        } else {
            weighted_entries(&LevelSpec::level1())
        };
        let gated_equiv = (weighted_entries(&run.provisioned) - active_equiv).max(0.0);
        let window_gated =
            gated_equiv * self.p_window_per_entry_pj * self.gated_leak_fraction * run.cycles as f64;

        EnergyBreakdown {
            pipeline_dynamic_pj: run.dispatched as f64 * self.e_dispatch_pj,
            window_dynamic_pj: window_dynamic,
            window_static_pj: window_static,
            window_gated_pj: window_gated,
            cache_pj: run.l1_accesses as f64 * self.e_l1_pj + run.l2_accesses as f64 * self.e_l2_pj,
            dram_pj: run.dram_lines as f64 * self.e_dram_line_pj,
            base_static_pj: run.cycles as f64 * self.p_base_pj,
        }
    }

    /// The Fig. 9 metric: performance per energy of `run` relative to
    /// `base`, for the *same committed work* — equal to
    /// `(cycles_base / cycles) × (E_base / E)`, i.e. normalized 1/EDP.
    pub fn relative_inverse_edp(&self, base: &RunCounters, run: &RunCounters) -> f64 {
        let e_base = self.energy(base).total_pj();
        let e_run = self.energy(run).total_pj();
        (base.cycles as f64 / run.cycles as f64) * (e_base / e_run)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counters(cycles: u64, level: LevelSpec, provisioned: LevelSpec) -> RunCounters {
        RunCounters {
            cycles,
            dispatched: cycles * 2,
            issued: cycles * 2,
            l1_accesses: cycles / 2,
            l2_accesses: cycles / 20,
            dram_lines: cycles / 100,
            level_cycles: vec![(level, cycles)],
            provisioned,
        }
    }

    #[test]
    fn totals_sum_components() {
        let m = EnergyModel::default();
        let b = m.energy(&counters(1000, LevelSpec::level1(), LevelSpec::level1()));
        let sum = b.pipeline_dynamic_pj
            + b.window_dynamic_pj
            + b.window_static_pj
            + b.window_gated_pj
            + b.cache_pj
            + b.dram_pj
            + b.base_static_pj;
        assert!((b.total_pj() - sum).abs() < 1e-6);
        assert!(b.total_pj() > 0.0);
    }

    #[test]
    fn bigger_active_window_burns_more() {
        let m = EnergyModel::default();
        let small = m.energy(&counters(1000, LevelSpec::level1(), LevelSpec::level3()));
        let big = m.energy(&counters(1000, LevelSpec::level3(), LevelSpec::level3()));
        assert!(big.window_static_pj > small.window_static_pj * 3.0);
        assert!(big.window_dynamic_pj > small.window_dynamic_pj);
        // Fully active window leaks nothing extra in the gated region.
        assert_eq!(big.window_gated_pj, 0.0);
        assert!(small.window_gated_pj > 0.0);
    }

    #[test]
    fn provisioned_but_gated_window_costs_little() {
        let m = EnergyModel::default();
        let base_only = m.energy(&counters(1000, LevelSpec::level1(), LevelSpec::level1()));
        let provisioned = m.energy(&counters(1000, LevelSpec::level1(), LevelSpec::level3()));
        let overhead = provisioned.total_pj() / base_only.total_pj();
        assert!(
            (1.0..1.1).contains(&overhead),
            "gated leakage should cost only a few percent: {overhead}"
        );
    }

    #[test]
    fn faster_run_wins_inverse_edp_at_equal_power() {
        let m = EnergyModel::default();
        let base = counters(2000, LevelSpec::level1(), LevelSpec::level1());
        let mut fast = counters(1000, LevelSpec::level1(), LevelSpec::level1());
        // Same total work (dispatch/issue/memory counts), half the time.
        fast.dispatched = base.dispatched;
        fast.issued = base.issued;
        fast.l1_accesses = base.l1_accesses;
        fast.l2_accesses = base.l2_accesses;
        fast.dram_lines = base.dram_lines;
        let rel = m.relative_inverse_edp(&base, &fast);
        assert!(rel > 2.0, "halving time more than doubles 1/EDP: {rel}");
    }

    #[test]
    fn relative_inverse_edp_is_one_against_itself() {
        let m = EnergyModel::default();
        let c = counters(1500, LevelSpec::level2(), LevelSpec::level3());
        assert!((m.relative_inverse_edp(&c, &c) - 1.0).abs() < 1e-12);
    }
}
