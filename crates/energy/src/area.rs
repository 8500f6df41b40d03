//! Area model and the Table 4 cost accounting.

use mlpwin_ooo::LevelSpec;

/// Published 32 nm anchors from the paper (§5.5).
pub mod anchors {
    /// Area of the paper's base core, including its 2 MB L2 (mm²).
    pub const BASE_CORE_MM2: f64 = 25.0;
    /// Area of one Sandy Bridge core (256 KB L2 only) (mm²).
    pub const SB_CORE_MM2: f64 = 19.0;
    /// Area of the whole 4-core Sandy Bridge chip (mm²).
    pub const SB_CHIP_MM2: f64 = 216.0;
    /// Number of cores on the Sandy Bridge chip.
    pub const SB_CORES: f64 = 4.0;
    /// Additional area of quadrupling the window resources (mm²),
    /// McPAT-derived in the paper; our calibration target.
    pub const WINDOW_DELTA_MM2: f64 = 1.6;
    /// McPAT area of the 2 MB 4-way L2 (mm²).
    pub const L2_2MB_MM2: f64 = 8.6;
}

/// Relative storage complexity of one window level, in `entry × bit`
/// units with a ×2 multiplier for CAM-matched structures (IQ wakeup tags,
/// LSQ address match).
fn storage_units(spec: &LevelSpec) -> f64 {
    const IQ_BITS: f64 = 160.0; // two captured operands + tags + control
    const ROB_BITS: f64 = 80.0; // result value + architectural bookkeeping
    const LSQ_BITS: f64 = 120.0; // address + data + state
    const CAM: f64 = 2.0;
    spec.iq as f64 * IQ_BITS * CAM + spec.rob as f64 * ROB_BITS + spec.lsq as f64 * LSQ_BITS * CAM
}

/// The area model: storage-proportional, calibrated to the paper's
/// published +1.6 mm² for the level-1 → level-3 window growth.
#[derive(Debug, Clone, Copy)]
pub struct AreaModel {
    mm2_per_unit: f64,
}

impl Default for AreaModel {
    fn default() -> AreaModel {
        AreaModel::new()
    }
}

impl AreaModel {
    /// Builds the calibrated model.
    pub fn new() -> AreaModel {
        let delta_units = storage_units(&LevelSpec::level3()) - storage_units(&LevelSpec::level1());
        AreaModel {
            mm2_per_unit: anchors::WINDOW_DELTA_MM2 / delta_units,
        }
    }

    /// Area of the window resources at `spec`, in mm².
    pub fn window_area_mm2(&self, spec: &LevelSpec) -> f64 {
        storage_units(spec) * self.mm2_per_unit
    }

    /// Additional area of provisioning `max` instead of `base`, in mm².
    pub fn window_delta_mm2(&self, base: &LevelSpec, max: &LevelSpec) -> f64 {
        self.window_area_mm2(max) - self.window_area_mm2(base)
    }

    /// Area of an L2 cache of `bytes` capacity, in mm² (linear in
    /// capacity, anchored at the paper's 8.6 mm² for 2 MB).
    pub fn l2_area_mm2(&self, bytes: usize) -> f64 {
        anchors::L2_2MB_MM2 * bytes as f64 / (2.0 * 1024.0 * 1024.0)
    }

    /// Pollack's-law expected speedup for growing a core of `base_mm2`
    /// by `delta_mm2`: performance scales with the square root of area.
    pub fn pollack_speedup(&self, base_mm2: f64, delta_mm2: f64) -> f64 {
        ((base_mm2 + delta_mm2) / base_mm2).sqrt() - 1.0
    }

    /// The complete Table 4 accounting for a measured speedup.
    pub fn cost_report(&self, measured_speedup: f64) -> CostReport {
        let delta = self.window_delta_mm2(&LevelSpec::level1(), &LevelSpec::level3());
        CostReport {
            added_mm2: delta,
            vs_base_core: delta / anchors::BASE_CORE_MM2,
            vs_sb_core: delta / anchors::SB_CORE_MM2,
            vs_sb_chip: delta * anchors::SB_CORES / anchors::SB_CHIP_MM2,
            measured_speedup,
            pollack_speedup: self.pollack_speedup(anchors::BASE_CORE_MM2, delta),
        }
    }
}

/// The rows of the paper's Table 4.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostReport {
    /// Absolute additional area (mm²).
    pub added_mm2: f64,
    /// Additional area over the base core.
    pub vs_base_core: f64,
    /// Additional area over one Sandy Bridge core.
    pub vs_sb_core: f64,
    /// Additional area (×4 cores) over the whole Sandy Bridge chip.
    pub vs_sb_chip: f64,
    /// The speedup actually achieved (GM over all programs).
    pub measured_speedup: f64,
    /// The speedup Pollack's law would predict for the same area.
    pub pollack_speedup: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibration_reproduces_the_published_delta() {
        let m = AreaModel::new();
        let d = m.window_delta_mm2(&LevelSpec::level1(), &LevelSpec::level3());
        assert!((d - 1.6).abs() < 1e-9);
    }

    #[test]
    fn table4_ratios_match_the_paper() {
        let m = AreaModel::new();
        let r = m.cost_report(0.21);
        // Paper: 6% of base core, 8% of SB core, 3% of SB chip.
        assert!((r.vs_base_core - 0.064).abs() < 0.01, "{}", r.vs_base_core);
        assert!((r.vs_sb_core - 0.084).abs() < 0.01, "{}", r.vs_sb_core);
        assert!((r.vs_sb_chip - 0.0296).abs() < 0.005, "{}", r.vs_sb_chip);
        // Pollack: ~3% expected speedup for +6% core area.
        assert!(
            (r.pollack_speedup - 0.03).abs() < 0.01,
            "{}",
            r.pollack_speedup
        );
        assert!(r.measured_speedup > r.pollack_speedup * 3.0);
    }

    #[test]
    fn window_area_grows_monotonically_across_levels() {
        let m = AreaModel::new();
        let a1 = m.window_area_mm2(&LevelSpec::level1());
        let a2 = m.window_area_mm2(&LevelSpec::level2());
        let a3 = m.window_area_mm2(&LevelSpec::level3());
        assert!(a1 < a2 && a2 < a3);
        // x4 entries => x4 storage area.
        assert!((a3 / a1 - 4.0).abs() < 1e-9);
    }

    #[test]
    fn l2_area_is_linear_and_anchored() {
        let m = AreaModel::new();
        assert!((m.l2_area_mm2(2 * 1024 * 1024) - 8.6).abs() < 1e-9);
        // The Fig. 10 comparison: 2.5 MB L2 adds ~2.15 mm², about 1.3x
        // the window delta (the paper says ~1.3x).
        let extra = m.l2_area_mm2(2 * 1024 * 1024 + 512 * 1024) - m.l2_area_mm2(2 * 1024 * 1024);
        let ratio = extra / 1.6;
        assert!((1.2..1.5).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn pollack_is_sublinear() {
        let m = AreaModel::new();
        assert!(m.pollack_speedup(25.0, 25.0) < 1.0);
        assert!((m.pollack_speedup(25.0, 75.0) - 1.0).abs() < 1e-9);
        assert_eq!(m.pollack_speedup(25.0, 0.0), 0.0);
    }
}
