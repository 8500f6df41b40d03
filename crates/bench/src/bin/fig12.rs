//! **Figure 12** — dynamic window resizing vs runahead execution, IPC
//! normalized to the base processor.
//!
//! The paper: runahead helps memory-intensive programs but trails
//! resizing by ~8% on their geometric mean (and ~1% on compute), because
//! runahead abandons computation while it prefetches; on milc (sparse,
//! unclustered misses) runahead drops *below* base — useless-runahead
//! episodes — while resizing merely gains little.
//!
//! ```text
//! cargo run --release -p mlpwin-bench --bin fig12
//! ```

use mlpwin_bench::{grid, selected_profiles, ExpArgs, GM_GROUPS};
use mlpwin_sim::report::{geomean, pct, TextTable};
use mlpwin_sim::SimModel;
use mlpwin_workloads::profiles;

fn main() {
    let args = ExpArgs::parse(250_000, 60_000);
    let names = profiles::names();
    let results = args.run_all(grid(
        &names,
        &[SimModel::Base, SimModel::Runahead, SimModel::Dynamic],
    ));

    println!("Figure 12: runahead execution vs dynamic resizing (IPC vs base)\n");
    let selected = selected_profiles();
    let mut t = TextTable::new(vec![
        "program",
        "cat",
        "Runahead",
        "Res",
        "RA episodes",
        "RA cycles %",
    ]);
    for p in &selected {
        let base = results.ipc(p, SimModel::Base);
        let ra = results.get(p, SimModel::Runahead);
        let res = results.get(p, SimModel::Dynamic);
        t.row(vec![
            p.to_string(),
            ra.category.label().to_string(),
            format!("{:.3}", ra.ipc() / base),
            format!("{:.3}", res.ipc() / base),
            format!("{}", ra.stats.runahead_episodes),
            format!(
                "{:.1}%",
                ra.stats.runahead_cycles as f64 / ra.stats.cycles as f64 * 100.0
            ),
        ]);
    }
    println!("{}", t.render());

    for (label, cat) in GM_GROUPS {
        let sel: Vec<_> = names
            .iter()
            .filter(|n| {
                cat.is_none_or(|c| profiles::params_by_name(n).expect("known").category == c)
            })
            .collect();
        let gm = |m: SimModel| {
            geomean(
                &sel.iter()
                    .map(|p| results.ipc(p, m) / results.ipc(p, SimModel::Base))
                    .collect::<Vec<_>>(),
            )
        };
        let ra = gm(SimModel::Runahead);
        let res = gm(SimModel::Dynamic);
        println!(
            "{label}: Runahead {:.3} ({}) vs Res {:.3} ({}) — Res ahead by {}",
            ra,
            pct(ra - 1.0),
            res,
            pct(res - 1.0),
            pct(res / ra - 1.0)
        );
    }
    println!("\npaper: Res beats runahead by ~8% on GM mem and ~1% on GM comp;");
    println!("       milc: runahead < base (useless runahead), Res >= base");
}
