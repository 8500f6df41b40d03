//! **Figure 4** — histogram of L2 cache-miss occurrences over miss
//! intervals (soplex, 8-cycle bins) on the base processor.
//!
//! The paper's shape: the vast majority of misses arrive within a short
//! interval of the previous one (clustering), with a secondary peak near
//! the 300-cycle memory latency — the window fills after a miss, stalls
//! for the round trip, and the next miss cluster begins when it resolves.
//!
//! ```text
//! cargo run --release -p mlpwin-bench --bin fig4
//! ```

use mlpwin_bench::ExpArgs;
use mlpwin_sim::report::{histogram, intervals, TextTable};
use mlpwin_sim::SimModel;

fn main() {
    let args = ExpArgs::parse(250_000, 120_000);
    let results = args.run_all([("soplex", SimModel::Base)]);
    let r = results.get("soplex", SimModel::Base);
    let ivals = intervals(&r.l2_miss_cycles);
    println!(
        "Figure 4: histogram of L2 miss intervals, soplex (bin = 8 cycles)\n\
         misses: {}   mean interval: {:.0} cycles\n",
        r.l2_miss_cycles.len(),
        ivals.iter().sum::<u64>() as f64 / ivals.len().max(1) as f64
    );
    let hist = histogram(&ivals, 8);
    let total: u64 = hist.iter().map(|(_, c)| c).sum();
    let mut t = TextTable::new(vec!["interval (cycles)", "misses", "share", "bar"]);
    let mut shown: u64 = 0;
    for (start, count) in hist.iter().take(50) {
        if *count == 0 && *start > 400 {
            continue;
        }
        shown += count;
        let share = *count as f64 / total as f64;
        t.row(vec![
            format!("{start}..{}", start + 8),
            format!("{count}"),
            format!("{:.1}%", share * 100.0),
            "#".repeat((share * 200.0).round() as usize),
        ]);
    }
    println!("{}", t.render());
    let tail = total - shown;
    println!("(+ {tail} misses at intervals beyond the shown range)");

    // The two paper-shape checkpoints.
    let short: u64 = hist.iter().filter(|(s, _)| *s < 64).map(|(_, c)| c).sum();
    let near_latency: u64 = hist
        .iter()
        .filter(|(s, _)| (248..=400).contains(s))
        .map(|(_, c)| c)
        .sum();
    println!(
        "\nshort intervals (<64 cycles): {:.0}% of misses — the clustering the\n\
         controller's enlarge-on-miss prediction exploits",
        short as f64 / total as f64 * 100.0
    );
    println!(
        "intervals near the 300-cycle memory latency: {:.1}% — the paper's\n\
         secondary peak (window fills, stalls one round trip, next cluster)",
        near_latency as f64 / total as f64 * 100.0
    );
}
