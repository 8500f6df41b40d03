//! **Figure 2** — IPC for varying instruction window resource levels on
//! libquantum (memory-intensive) and gcc (compute-intensive), for the
//! fixed (pipelined) and ideal (un-pipelined) models, normalized to
//! level 1.
//!
//! The paper's shape: libquantum's bars rise steeply with level and the
//! ideal line sits barely above them (pipelining costs nothing when
//! memory dominates); gcc's bars stay flat or dip below 1.0 while the
//! ideal line stays at ~1.0 (enlarging buys nothing, pipelining hurts).
//!
//! ```text
//! cargo run --release -p mlpwin-bench --bin fig2
//! ```

use mlpwin_bench::{grid, ExpArgs};
use mlpwin_sim::report::TextTable;
use mlpwin_sim::SimModel;

fn main() {
    let args = ExpArgs::parse(250_000, 60_000);
    let models: Vec<SimModel> = (1..=3)
        .flat_map(|l| [SimModel::Fixed(l), SimModel::Ideal(l)])
        .collect();
    let results = args.run_all(grid(&["libquantum", "gcc"], &models));

    for p in ["libquantum", "gcc"] {
        let base = results.ipc(p, SimModel::Fixed(1));
        println!(
            "Figure 2({}): {p} — relative IPC vs window resource level",
            if p == "libquantum" { "a" } else { "b" }
        );
        let mut t = TextTable::new(vec!["level", "fixed (bars)", "ideal (line)"]);
        for l in 1..=3 {
            t.row(vec![
                format!("{l}"),
                format!("{:.2}", results.ipc(p, SimModel::Fixed(l)) / base),
                format!("{:.2}", results.ipc(p, SimModel::Ideal(l)) / base),
            ]);
        }
        println!("{}", t.render());
    }
    println!("paper shape: libquantum bars rise steeply, ideal ~= fixed;");
    println!("             gcc bars flat/below 1.0, ideal stays ~1.0");
}
