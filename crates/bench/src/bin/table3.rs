//! **Table 3** — benchmark programs and their average load latency.
//!
//! Runs every profile on the base processor and reports the measured
//! average committed-load latency and the derived memory-/compute-
//! intensive category (threshold: 10 cycles, as in the paper), next to
//! the paper's published value.
//!
//! ```text
//! cargo run --release -p mlpwin-bench --bin table3
//! ```

use mlpwin_bench::{grid, ExpArgs};
use mlpwin_sim::report::TextTable;
use mlpwin_sim::SimModel;
use mlpwin_workloads::{profiles, Category};

/// The paper's Table 3 average load latencies, for side-by-side display.
const PAPER_LATENCY: &[(&str, f64)] = &[
    ("hmmer", 15.0),
    ("libquantum", 247.0),
    ("mcf", 52.0),
    ("omnetpp", 42.0),
    ("xalancbmk", 74.0),
    ("GemsFDTD", 32.0),
    ("lbm", 14.0),
    ("leslie3d", 72.0),
    ("milc", 12.0),
    ("soplex", 36.0),
    ("sphinx3", 51.0),
    ("astar", 7.0),
    ("bzip2", 3.0),
    ("gcc", 6.0),
    ("gobmk", 3.0),
    ("h264ref", 3.0),
    ("perlbench", 4.0),
    ("sjeng", 2.0),
    ("bwaves", 2.0),
    ("cactusADM", 5.0),
    ("calculix", 6.0),
    ("dealII", 2.0),
    ("gamess", 2.0),
    ("gromacs", 5.0),
    ("namd", 3.0),
    ("povray", 2.0),
    ("tonto", 2.0),
    ("zeusmp", 6.0),
];

fn main() {
    let args = ExpArgs::parse(250_000, 60_000);
    let results = args
        .run_all(grid(&profiles::names(), &[SimModel::Base]))
        .runs;

    println!("Table 3: benchmark programs and their average load latency");
    println!("(measured on the base processor; category threshold 10 cycles)\n");
    let mut t = TextTable::new(vec![
        "program",
        "type",
        "paper lat",
        "measured lat",
        "measured category",
        "paper category",
        "match",
    ]);
    let mut matches = 0;
    for r in &results {
        let params = profiles::params_by_name(&r.spec.profile).expect("known profile");
        let paper_lat = PAPER_LATENCY
            .iter()
            .find(|(n, _)| *n == r.spec.profile)
            .map(|(_, l)| *l)
            .expect("paper latency table covers all profiles");
        let measured_cat = if r.avg_load_latency > 10.0 {
            Category::MemoryIntensive
        } else {
            Category::ComputeIntensive
        };
        let ok = measured_cat == r.category;
        matches += ok as u32;
        t.row(vec![
            r.spec.profile.clone(),
            if params.is_fp { "fp" } else { "int" }.to_string(),
            format!("{paper_lat:.0}"),
            format!("{:.1}", r.avg_load_latency),
            measured_cat.label().to_string(),
            r.category.label().to_string(),
            if ok { "yes" } else { "NO" }.to_string(),
        ]);
    }
    println!("{}", t.render());
    println!("category agreement: {matches}/{} programs", results.len());
}
