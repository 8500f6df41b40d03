//! **Figure 7** — IPC normalized to the base processor: fixed-size
//! windows at levels 1–3, dynamic resizing ("Res"), and the un-pipelined
//! ideal models, for the selected programs and the geometric means over
//! all memory-intensive, all compute-intensive and all programs.
//!
//! The headline numbers to compare with the paper: GM mem ≈ +48%,
//! GM comp ≈ +4%, GM all ≈ +21% for the dynamic model, with Res matching
//! the best fixed level per program and trailing Ideal by only a few
//! percent.
//!
//! ```text
//! cargo run --release -p mlpwin-bench --bin fig7
//! ```

use mlpwin_bench::{grid, selected_profiles, try_category_geomean, ExpArgs, GM_GROUPS};
use mlpwin_sim::report::{pct, TextTable};
use mlpwin_sim::SimModel;
use mlpwin_workloads::{profiles, Category};

/// The Fig. 7 model set, in presentation order.
fn models() -> Vec<SimModel> {
    vec![
        SimModel::Fixed(1),
        SimModel::Fixed(2),
        SimModel::Fixed(3),
        SimModel::Dynamic,
        SimModel::Ideal(1),
        SimModel::Ideal(2),
        SimModel::Ideal(3),
    ]
}

fn main() {
    let args = ExpArgs::parse(250_000, 60_000);
    let names = profiles::names();
    let results = args.run_all(grid(&names, &models()));

    // Per-program normalized series (base = Fix L1).
    println!("Figure 7: IPC normalized to the base (Fix L1) processor\n");
    let mut t = TextTable::new(vec![
        "program",
        "cat",
        "Fix L1",
        "Fix L2",
        "Fix L3",
        "Res",
        "Ideal L1",
        "Ideal L2",
        "Ideal L3",
        "Res vs best-Fix",
    ]);
    let selected = selected_profiles();
    for p in &names {
        if !selected.contains(p) {
            continue;
        }
        let base = results.ipc(p, SimModel::Fixed(1));
        let series: Vec<f64> = models().iter().map(|m| results.ipc(p, *m) / base).collect();
        let best_fix = series[0].max(series[1]).max(series[2]);
        let cat = profiles::params_by_name(p).expect("known").category;
        let mut cells = vec![p.to_string(), cat.label().to_string()];
        cells.extend(series.iter().map(|v| format!("{v:.2}")));
        cells.push(format!("{:.2}", series[3] / best_fix));
        t.row(cells);
    }
    println!("{}", t.render());

    // Geometric means over the full program set.
    let mut gm = TextTable::new(vec![
        "group",
        "Fix L2",
        "Fix L3",
        "Res",
        "Ideal L3",
        "Res speedup vs base",
    ]);
    // Per-model `(category, ratio-to-base)` pairs feed the shared
    // category-filtered geomean helper.
    let ratios = |m: SimModel| -> Vec<(Category, f64)> {
        names
            .iter()
            .map(|p| {
                let cat = profiles::params_by_name(p).expect("known").category;
                (cat, results.ipc(p, m) / results.ipc(p, SimModel::Fixed(1)))
            })
            .collect()
    };
    for (label, filter) in GM_GROUPS {
        let rel = |m: SimModel| try_category_geomean(&ratios(m), filter);
        let row = rel(SimModel::Dynamic).and_then(|res| {
            gm.try_row(vec![
                label.to_string(),
                format!("{:.3}", rel(SimModel::Fixed(2))?),
                format!("{:.3}", rel(SimModel::Fixed(3))?),
                format!("{res:.3}"),
                format!("{:.3}", rel(SimModel::Ideal(3))?),
                pct(res - 1.0),
            ])
            .map(|_| ())
        });
        if let Err(e) = row {
            eprintln!("{label}: skipped ({e})");
        }
    }
    println!("{}", gm.render());
    println!("paper: GM mem +48%, GM comp +4%, GM all +21%");

    // Where the dynamic model's cycles went, per selected program.
    println!("\nCPI-stack attribution, dynamic resizing (% of each level's cycles):\n");
    mlpwin_bench::print_cpi_stacks(
        selected
            .iter()
            .map(|&p| (p, &results.get(p, SimModel::Dynamic).stats)),
    );
}
