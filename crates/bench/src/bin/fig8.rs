//! **Figure 8** — percentage of cycles the dynamic-resizing window spent
//! at each resource level, per program.
//!
//! The paper's shape: compute-intensive programs live at level 1;
//! memory-intensive programs live mostly at level 3; omnetpp and other
//! phase-mixed programs split their time.
//!
//! ```text
//! cargo run --release -p mlpwin-bench --bin fig8
//! ```

use mlpwin_bench::{grid, selected_profiles, ExpArgs};
use mlpwin_sim::report::TextTable;
use mlpwin_sim::SimModel;

fn main() {
    let args = ExpArgs::parse(250_000, 60_000);
    let results = args
        .run_all(grid(&selected_profiles(), &[SimModel::Dynamic]))
        .runs;

    println!("Figure 8: % of cycles at each window level (dynamic resizing)\n");
    let mut t = TextTable::new(vec![
        "program",
        "cat",
        "level 1",
        "level 2",
        "level 3",
        "transitions",
    ]);
    for r in &results {
        let row = t.try_row(vec![
            r.spec.profile.clone(),
            r.category.label().to_string(),
            format!("{:.1}%", r.stats.level_residency(0) * 100.0),
            format!("{:.1}%", r.stats.level_residency(1) * 100.0),
            format!("{:.1}%", r.stats.level_residency(2) * 100.0),
            format!("{}", r.stats.transitions_up + r.stats.transitions_down),
        ]);
        if let Err(e) = row {
            eprintln!("{}: skipped ({e})", r.spec.profile);
        }
    }
    println!("{}", t.render());
    println!("paper shape: compute programs sit at level 1, memory programs at level 3,");
    println!("phase-mixed programs (omnetpp) split their residency");

    // Why each program sits where it does: the per-level CPI stacks.
    println!("\nCPI-stack attribution per level (% of each level's cycles):\n");
    mlpwin_bench::print_cpi_stacks(results.iter().map(|r| (r.spec.profile.as_str(), &r.stats)));
}
