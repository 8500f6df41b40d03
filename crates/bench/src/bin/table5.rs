//! **Table 5** — average number of committed instructions between
//! adjacent mispredicted branches, on the base processor.
//!
//! The paper's point: the distance is large relative to the window size
//! (especially for memory-intensive programs), so wrong-path loads bring
//! few lines into the L2 (Fig. 11). Absolute distances depend on the
//! synthetic branch populations; the ordering (libquantum/milc/lbm
//! enormous, gobmk/sjeng/soplex/omnetpp small) is the reproduced shape.
//!
//! ```text
//! cargo run --release -p mlpwin-bench --bin table5
//! ```

use mlpwin_bench::ExpArgs;
use mlpwin_sim::report::TextTable;
use mlpwin_sim::SimModel;

/// The paper's Table 5 values for side-by-side display.
const PAPER: &[(&str, f64)] = &[
    ("libquantum", 3_703_704.0),
    ("omnetpp", 178.0),
    ("GemsFDTD", 10_064.0),
    ("lbm", 32_830.0),
    ("leslie3d", 1_608.0),
    ("milc", 3_448_276.0),
    ("soplex", 154.0),
    ("sphinx3", 327.0),
    ("gcc", 5_323.0),
    ("gobmk", 71.0),
    ("sjeng", 116.0),
    ("bwaves", 169.0),
    ("dealII", 1_294.0),
    ("tonto", 423.0),
];

fn main() {
    let args = ExpArgs::parse(250_000, 100_000);
    let results = args.run_all(PAPER.iter().map(|&(p, _)| (p, SimModel::Base)));

    println!("Table 5: committed instructions between adjacent mispredicted branches\n");
    let mut t = TextTable::new(vec!["program", "cat", "measured", "paper", "mispredicts"]);
    for ((p, paper), r) in PAPER.iter().zip(&results.runs) {
        let d = r.stats.mispredict_distance();
        let measured = if r.stats.committed_mispredicts == 0 {
            format!(">{:.0}", d)
        } else {
            format!("{d:.0}")
        };
        t.row(vec![
            p.to_string(),
            r.category.label().to_string(),
            measured,
            format!("{paper:.0}"),
            format!("{}", r.stats.committed_mispredicts),
        ]);
    }
    println!("{}", t.render());

    // Ordering check: the three near-perfectly-predicted programs must
    // dwarf the branchy ones.
    let dist = |name: &str| {
        results
            .get(name, SimModel::Base)
            .stats
            .mispredict_distance()
    };
    let huge = ["libquantum", "milc", "lbm"].map(dist);
    let small = ["gobmk", "sjeng", "soplex", "omnetpp"].map(dist);
    let sep =
        huge.iter().copied().fold(f64::MAX, f64::min) / small.iter().copied().fold(0.0, f64::max);
    println!(
        "ordering check: min(libquantum, milc, lbm) / max(gobmk, sjeng, soplex, omnetpp) = {sep:.0}x"
    );
}
