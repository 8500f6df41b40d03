//! **Ablation: level-transition penalty** (paper §4/§5.1 claim).
//!
//! The paper asserts the 10-cycle transition penalty barely matters:
//! raising it to 30 cycles costs only ~1.3% performance. This sweep
//! measures GM-all IPC of the dynamic model at penalties 0–50.
//!
//! ```text
//! cargo run --release -p mlpwin-bench --bin ablate_penalty
//! ```

use mlpwin_bench::{grid, ExpArgs};
use mlpwin_sim::report::{geomean, pct, TextTable};
use mlpwin_sim::SimModel;
use mlpwin_workloads::profiles;

fn main() {
    let args = ExpArgs::parse(150_000, 40_000);
    println!("Ablation: dynamic-resizing GM-all IPC vs level-transition penalty\n");
    let names = profiles::names();
    let penalties = [0u32, 10, 20, 30, 50];
    let results = args.run_all(grid(&names, &penalties.map(SimModel::Penalty)));
    let gms = penalties.map(|p| {
        let ipcs: Vec<f64> = names
            .iter()
            .map(|n| results.ipc(n, SimModel::Penalty(p)))
            .collect();
        geomean(&ipcs)
    });
    let reference = gms[1]; // 10 cycles = the paper's configuration
    let mut t = TextTable::new(vec!["penalty (cycles)", "GM-all IPC", "vs 10-cycle config"]);
    for (&p, &g) in penalties.iter().zip(&gms) {
        t.row(vec![
            format!("{p}"),
            format!("{g:.4}"),
            pct(g / reference - 1.0),
        ]);
    }
    println!("{}", t.render());
    println!(
        "paper claim: even a 30-cycle penalty costs only ~1.3% (measured here: {})",
        pct(1.0 - gms[3] / reference)
    );
}
