//! **Figure 9** — energy efficiency (performance per energy, i.e.
//! normalized 1/EDP) of dynamic resizing relative to the base processor.
//!
//! The paper: large gains on memory-intensive programs (time saved
//! dwarfs the window's extra power; libquantum is the extreme), roughly
//! break-even to slightly negative on compute-intensive programs (the
//! provisioned-but-gated window leaks a little with no speedup);
//! averages +36% (mem), −8% (comp), +8% (all).
//!
//! ```text
//! cargo run --release -p mlpwin-bench --bin fig9
//! ```

use mlpwin_bench::{grid, print_geomean_summary, selected_profiles, ExpArgs};
use mlpwin_energy::EnergyModel;
use mlpwin_sim::report::TextTable;
use mlpwin_sim::SimModel;
use mlpwin_workloads::{profiles, Category};

fn main() {
    let args = ExpArgs::parse(250_000, 60_000);
    let names = profiles::names();
    let results = args.run_all(grid(&names, &[SimModel::Base, SimModel::Dynamic]));
    let energy = EnergyModel::default();

    println!("Figure 9: energy efficiency (1/EDP) of dynamic resizing vs base\n");
    let mut t = TextTable::new(vec![
        "program",
        "cat",
        "IPC ratio",
        "energy ratio",
        "1/EDP rel",
    ]);
    let mut per_cat: Vec<(Category, f64)> = Vec::new();
    let selected = selected_profiles();
    for p in &names {
        let base = results.get(p, SimModel::Base);
        let dynr = results.get(p, SimModel::Dynamic);
        let bc = base.run_counters().expect("non-empty ladder");
        let dc = dynr.run_counters().expect("non-empty ladder");
        let rel = energy.relative_inverse_edp(&bc, &dc);
        per_cat.push((base.category, rel));
        if selected.contains(p) {
            t.row(vec![
                p.to_string(),
                base.category.label().to_string(),
                format!("{:.2}", dynr.ipc() / base.ipc()),
                format!(
                    "{:.2}",
                    energy.energy(&dc).total_pj() / energy.energy(&bc).total_pj()
                ),
                format!("{rel:.2}"),
            ]);
        }
    }
    println!("{}", t.render());

    print_geomean_summary(&per_cat);
    println!("\npaper: GM mem +36%, GM comp -8%, GM all +8% (libquantum extreme ~+423%)");

    // The energy story's denominator: where the dynamic model's cycles
    // went on the extremes of each category.
    println!("\nCPI-stack attribution, dynamic resizing (% of each level's cycles):\n");
    mlpwin_bench::print_cpi_stacks(
        [profiles::SELECTED_MEM[0], profiles::SELECTED_COMP[0]]
            .into_iter()
            .map(|p| (p, &results.get(p, SimModel::Dynamic).stats)),
    );
}
