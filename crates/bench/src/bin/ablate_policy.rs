//! **Ablation: shrink-timing policy.**
//!
//! The paper shrinks one memory latency after the last L2 miss. How
//! sensitive is that choice? This sweep scales the shrink timeout
//! (0.25x, 0.5x, 1x, 2x, 4x of the memory latency) and reports GM IPC
//! per category — showing the design point is flat near 1x (the paper's
//! "simple and cheap" argument) while aggressive shrinking thrashes.
//!
//! ```text
//! cargo run --release -p mlpwin-bench --bin ablate_policy
//! ```

use mlpwin_bench::{grid, try_category_geomean, ExpArgs, GM_GROUPS};
use mlpwin_ooo::CoreConfig;
use mlpwin_sim::report::{pct, TextTable};
use mlpwin_sim::SimModel;
use mlpwin_workloads::{profiles, Category};

fn main() {
    let args = ExpArgs::parse(150_000, 40_000);
    let names = profiles::names();
    let latency = CoreConfig::default().memory.dram.min_latency as f64;
    let factors = [0.25f64, 0.5, 1.0, 2.0, 4.0];
    let models: Vec<SimModel> = factors
        .iter()
        .map(|f| SimModel::ShrinkTimeout((latency * f) as u32))
        .collect();

    println!("Ablation: shrink timeout as a multiple of the memory latency\n");
    let results = args.run_all(grid(&names, &models));
    // Each timeout's IPC relative to the paper's 1x timeout.
    let ratios = |m: SimModel| -> Vec<(Category, f64)> {
        names
            .iter()
            .map(|p| {
                let r = results.get(p, m);
                (r.category, r.ipc() / results.ipc(p, models[2]))
            })
            .collect()
    };

    let mut t = TextTable::new(vec!["group", "0.25x", "0.5x", "1x (paper)", "2x", "4x"]);
    for (label, cat) in GM_GROUPS {
        let mut cells = vec![label.to_string()];
        for &m in &models {
            let gm = try_category_geomean(&ratios(m), cat).expect("positive IPCs");
            cells.push(pct(gm - 1.0).to_string());
        }
        t.row(cells);
    }
    println!("{}", t.render());
    println!("expected shape: flat near 1x; early shrinking (0.25x) loses MLP on");
    println!("memory workloads; late shrinking (4x) costs compute workloads ILP");
}
