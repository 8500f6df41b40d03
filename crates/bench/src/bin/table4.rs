//! **Table 4** — additional cost vs speedup of the dynamic-resizing
//! hardware: area deltas against the base core, one Sandy Bridge core
//! and the whole Sandy Bridge chip, the measured GM-all speedup, and the
//! Pollack's-law expectation for the same area.
//!
//! ```text
//! cargo run --release -p mlpwin-bench --bin table4
//! ```

use mlpwin_bench::{grid, ExpArgs};
use mlpwin_energy::AreaModel;
use mlpwin_sim::report::{geomean, pct, TextTable};
use mlpwin_sim::SimModel;
use mlpwin_workloads::profiles;

fn main() {
    let args = ExpArgs::parse(250_000, 60_000);
    // Measure the GM-all speedup of the dynamic model over the base.
    let names = profiles::names();
    let results = args.run_all(grid(&names, &[SimModel::Base, SimModel::Dynamic]));
    let ratios: Vec<f64> = names
        .iter()
        .map(|p| results.ipc(p, SimModel::Dynamic) / results.ipc(p, SimModel::Base))
        .collect();
    let speedup = geomean(&ratios) - 1.0;

    let area = AreaModel::new();
    let report = area.cost_report(speedup);
    println!("Table 4: additional cost vs speedup\n");
    let mut t = TextTable::new(vec!["quantity", "measured", "paper"]);
    t.row(vec![
        "additional area".to_string(),
        format!("{:.2} mm2", report.added_mm2),
        "1.6 mm2".to_string(),
    ]);
    t.row(vec![
        "vs base core".to_string(),
        pct(report.vs_base_core),
        "+6%".to_string(),
    ]);
    t.row(vec![
        "vs Sandy Bridge core".to_string(),
        pct(report.vs_sb_core),
        "+8%".to_string(),
    ]);
    t.row(vec![
        "vs Sandy Bridge chip (x4 cores)".to_string(),
        pct(report.vs_sb_chip),
        "+3%".to_string(),
    ]);
    t.row(vec![
        "achieved speedup (GM all)".to_string(),
        pct(report.measured_speedup),
        "+21%".to_string(),
    ]);
    t.row(vec![
        "Pollack's-law expectation".to_string(),
        pct(report.pollack_speedup),
        "+3%".to_string(),
    ]);
    let l2_extra =
        area.l2_area_mm2(2 * 1024 * 1024 + 512 * 1024) - area.l2_area_mm2(2 * 1024 * 1024);
    t.row(vec![
        "augmented-L2 alternative area".to_string(),
        format!(
            "{:.2} mm2 (~{:.1}x window delta)",
            l2_extra,
            l2_extra / report.added_mm2
        ),
        "~1.3x, +1% IPC".to_string(),
    ]);
    println!("{}", t.render());
    println!(
        "cost/performance: {:.1}x beyond the Pollack's-law return for the same area",
        report.measured_speedup / report.pollack_speedup
    );
}
