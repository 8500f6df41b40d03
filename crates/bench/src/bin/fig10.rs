//! **Figure 10** — dynamic resizing vs spending a comparable area on a
//! larger L2 (2.5 MB, 5-way instead of 2 MB, 4-way).
//!
//! The paper: the enlarged L2 buys ~0.6% average IPC while dynamic
//! resizing buys ~21% for ~1.3× *less* area — window resources are a far
//! better use of transistors than more last-level cache.
//!
//! ```text
//! cargo run --release -p mlpwin-bench --bin fig10
//! ```

use mlpwin_bench::{grid, selected_profiles, ExpArgs};
use mlpwin_energy::AreaModel;
use mlpwin_sim::report::{geomean, pct, TextTable};
use mlpwin_sim::SimModel;
use mlpwin_workloads::profiles;

fn main() {
    let args = ExpArgs::parse(250_000, 60_000);
    let names = profiles::names();
    let results = args.run_all(grid(
        &names,
        &[SimModel::Base, SimModel::BigL2, SimModel::Dynamic],
    ));

    println!("Figure 10: enlarged-L2 model vs dynamic resizing (IPC vs base)\n");
    let selected = selected_profiles();
    let mut t = TextTable::new(vec!["program", "2.5MB L2", "Res"]);
    for p in &selected {
        let base = results.ipc(p, SimModel::Base);
        t.row(vec![
            p.to_string(),
            format!("{:.3}", results.ipc(p, SimModel::BigL2) / base),
            format!("{:.3}", results.ipc(p, SimModel::Dynamic) / base),
        ]);
    }
    println!("{}", t.render());

    let gm = |m: SimModel| {
        geomean(
            &names
                .iter()
                .map(|p| results.ipc(p, m) / results.ipc(p, SimModel::Base))
                .collect::<Vec<_>>(),
        )
    };
    let l2_gain = gm(SimModel::BigL2);
    let res_gain = gm(SimModel::Dynamic);
    println!(
        "GM all: enlarged L2 {} | dynamic resizing {}",
        pct(l2_gain - 1.0),
        pct(res_gain - 1.0)
    );

    let area = AreaModel::new();
    let l2_extra =
        area.l2_area_mm2(2 * 1024 * 1024 + 512 * 1024) - area.l2_area_mm2(2 * 1024 * 1024);
    println!(
        "\narea: +{:.2} mm2 for the L2 vs +1.60 mm2 for the window (ratio {:.2}x)",
        l2_extra,
        l2_extra / 1.6
    );
    println!("paper: enlarged L2 +0.6% vs resizing +21% at ~1.3x the area");
}
