//! **Figure 11** — breakdown of L2 cache lines brought in, by who
//! requested them (correct-path demand / wrong-path demand / prefetch)
//! and whether a correct-path access ever used them, for the base and
//! dynamic-resizing models. Bars are normalized to the number of lines
//! the *base* model brought in.
//!
//! The paper: wrong-path lines are few, useless lines are a small share,
//! and the resizing model's total barely exceeds the base's — deep
//! speculation does not meaningfully pollute the cache.
//!
//! ```text
//! cargo run --release -p mlpwin-bench --bin fig11
//! ```

use mlpwin_bench::{grid, selected_profiles, ExpArgs};
use mlpwin_sim::report::TextTable;
use mlpwin_sim::SimModel;

fn main() {
    let args = ExpArgs::parse(250_000, 60_000);
    let selected = selected_profiles();
    let results = args.run_all(grid(&selected, &[SimModel::Base, SimModel::Dynamic]));

    println!("Figure 11: L2 lines brought in, by provenance x usefulness");
    println!("(each pair normalized to the base model's total)\n");
    let mut t = TextTable::new(vec![
        "program",
        "model",
        "corr useful",
        "corr useless",
        "wrong useful",
        "wrong useless",
        "pf useful",
        "pf useless",
        "total",
    ]);
    for p in &selected {
        let base = results.get(p, SimModel::Base);
        let norm = base.provenance.total().max(1) as f64;
        for (label, r) in [("Base", base), ("Res", results.get(p, SimModel::Dynamic))] {
            let pv = &r.provenance;
            let f = |v: u64| format!("{:.3}", v as f64 / norm);
            t.row(vec![
                p.to_string(),
                label.to_string(),
                f(pv.corrpath_useful),
                f(pv.corrpath_useless),
                f(pv.wrongpath_useful),
                f(pv.wrongpath_useless),
                f(pv.prefetch_useful),
                f(pv.prefetch_useless),
                f(pv.total()),
            ]);
        }
    }
    println!("{}", t.render());

    // Aggregate checks of the paper's three observations.
    let agg = |model: SimModel| {
        let mut wrong = 0u64;
        let mut useless = 0u64;
        let mut total = 0u64;
        for r in results.runs.iter().filter(|r| r.spec.model == model) {
            wrong += r.provenance.wrongpath_total();
            useless += r.provenance.useless_total();
            total += r.provenance.total();
        }
        (wrong, useless, total)
    };
    let (bw, bu, bt) = agg(SimModel::Base);
    let (rw, ru, rt) = agg(SimModel::Dynamic);
    println!(
        "aggregate base: wrong-path {:.1}%, useless {:.1}%  |  Res: wrong-path {:.1}%, useless {:.1}%",
        bw as f64 / bt as f64 * 100.0,
        bu as f64 / bt as f64 * 100.0,
        rw as f64 / rt as f64 * 100.0,
        ru as f64 / rt as f64 * 100.0,
    );
    println!("total lines, Res vs base: {:.2}x", rt as f64 / bt as f64);
    println!("\npaper: wrong-path lines few, useless share small, Res total ~= base total");
}
