//! **Ablation: maximum resource level.**
//!
//! How much of the dynamic model's gain comes from each rung of the
//! Table 2 ladder? Caps the ladder at levels 1, 2 and 3 and reports the
//! GM speedups per category — quantifying that most of the
//! memory-intensive gain needs the full ×4 window.
//!
//! ```text
//! cargo run --release -p mlpwin-bench --bin ablate_maxlevel
//! ```

use mlpwin_bench::{grid, try_category_geomean, ExpArgs, GM_GROUPS};
use mlpwin_sim::report::{pct, TextTable};
use mlpwin_sim::SimModel;
use mlpwin_workloads::{profiles, Category};

fn main() {
    let args = ExpArgs::parse(150_000, 40_000);
    let names = profiles::names();
    println!("Ablation: dynamic resizing with the ladder capped at each level\n");
    let caps = [1, 2, 3].map(SimModel::TopLevel);
    let results = args.run_all(grid(&names, &caps));
    // Each cap's IPC relative to the level-1 cap (the base window).
    let ratios = |top: usize| -> Vec<(Category, f64)> {
        names
            .iter()
            .map(|p| {
                let r = results.get(p, SimModel::TopLevel(top));
                (r.category, r.ipc() / results.ipc(p, SimModel::TopLevel(1)))
            })
            .collect()
    };

    let mut t = TextTable::new(vec!["group", "max L1 (=base)", "max L2", "max L3 (paper)"]);
    for (label, cat) in GM_GROUPS {
        let gm = |top| try_category_geomean(&ratios(top), cat).expect("positive IPCs");
        t.row(vec![
            label.to_string(),
            "1.000".to_string(),
            format!("{:.3} ({})", gm(2), pct(gm(2) - 1.0)),
            format!("{:.3} ({})", gm(3), pct(gm(3) - 1.0)),
        ]);
    }
    println!("{}", t.render());
    println!("expected shape: the level-2 rung captures part of the gain; the full");
    println!("x4 window (level 3) is needed for the rest; compute GMs stay ~1.0");
}
