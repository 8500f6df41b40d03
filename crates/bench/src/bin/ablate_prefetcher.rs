//! **Ablation: stride prefetcher × window resizing.**
//!
//! Both mechanisms attack memory latency; how much do they overlap?
//! Runs base and dynamic models with the prefetcher on and off and
//! reports GM-mem IPC for the four combinations — showing resizing's
//! gain survives (and grows) without the prefetcher, i.e. the mechanisms
//! are complementary, not redundant.
//!
//! ```text
//! cargo run --release -p mlpwin-bench --bin ablate_prefetcher
//! ```

use mlpwin_bench::{grid, ExpArgs};
use mlpwin_sim::report::{geomean, pct, TextTable};
use mlpwin_sim::SimModel;
use mlpwin_workloads::profiles;

fn main() {
    let args = ExpArgs::parse(150_000, 40_000);
    let names = profiles::memory_intensive();
    let combos = [
        ("Base + prefetch", SimModel::Base),
        ("Base, no prefetch", SimModel::BaseNoPrefetch),
        ("Res + prefetch", SimModel::Dynamic),
        ("Res, no prefetch", SimModel::DynamicNoPrefetch),
    ];
    let results = args.run_all(grid(&names, &combos.map(|(_, m)| m)));

    println!("Ablation: prefetcher x window resizing (memory-intensive GM IPC,\nnormalized to base-with-prefetch)\n");
    let mut t = TextTable::new(vec!["configuration", "GM-mem IPC rel", "delta"]);
    for (label, m) in combos {
        let gm = geomean(
            &names
                .iter()
                .map(|p| results.ipc(p, m) / results.ipc(p, SimModel::Base))
                .collect::<Vec<_>>(),
        );
        t.row(vec![label.to_string(), format!("{gm:.3}"), pct(gm - 1.0)]);
    }
    println!("{}", t.render());
    println!("expected shape: resizing gains with or without the prefetcher — the");
    println!("window exploits the irregular misses the stride table cannot cover");
}
