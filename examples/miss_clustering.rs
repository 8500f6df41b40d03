//! Miss clustering — the phenomenon the whole mechanism rests on.
//!
//! The controller predicts "one L2 miss means more are coming" (§4.1).
//! This example measures it directly: it runs soplex (clustered, like
//! the paper's Fig. 4) and milc (deliberately unclustered) on the base
//! processor, prints their miss-interval histograms side by side, and
//! shows how the clustering difference translates into resizing benefit.
//!
//! ```text
//! cargo run --release --example miss_clustering
//! ```

use mlpwin::ooo::Core;
use mlpwin::sim::report::{histogram, intervals};
use mlpwin::sim::SimModel;
use mlpwin::workloads::profiles;

fn miss_cycles(profile: &str) -> Vec<u64> {
    let (config, policy) = SimModel::Base.build();
    let w = profiles::by_name(profile, 1).expect("profile");
    let mut cpu = Core::new(config, w, policy);
    cpu.run_warmup(150_000).expect("warm-up must not stall");
    let _ = cpu.run(60_000).expect("healthy run");
    cpu.mem().stats().l2_demand_miss_cycles.clone()
}

fn speedup(profile: &str) -> f64 {
    let mut ipcs = Vec::new();
    for model in [SimModel::Base, SimModel::Dynamic] {
        let (config, policy) = model.build();
        let w = profiles::by_name(profile, 1).expect("profile");
        let mut cpu = Core::new(config, w, policy);
        cpu.run_warmup(150_000).expect("warm-up must not stall");
        ipcs.push(cpu.run(40_000).expect("healthy run").ipc());
    }
    ipcs[1] / ipcs[0]
}

fn main() {
    println!("L2-miss clustering: soplex (clustered) vs milc (sparse)\n");
    for profile in ["soplex", "milc"] {
        let cycles = miss_cycles(profile);
        let iv = intervals(&cycles);
        let hist = histogram(&iv, 8);
        let total: u64 = hist.iter().map(|(_, c)| c).sum();
        let short: u64 = hist.iter().filter(|(s, _)| *s < 64).map(|(_, c)| c).sum();
        println!("--- {profile}: {} misses ---", cycles.len());
        for (start, count) in hist.iter().take(8) {
            println!(
                "  {:>3}..{:<3} {:>5}  {}",
                start,
                start + 8,
                count,
                "#".repeat((*count as f64 / total.max(1) as f64 * 120.0) as usize)
            );
        }
        println!(
            "  short-interval share (<64 cycles): {:.0}%",
            short as f64 / total.max(1) as f64 * 100.0
        );
        println!(
            "  dynamic-resizing speedup over base: {:+.1}%\n",
            (speedup(profile) - 1.0) * 100.0
        );
    }
    println!("Clustered misses reward the enlarge-on-miss prediction; sparse ones");
    println!("leave little MLP for any window size to harvest.");
}
