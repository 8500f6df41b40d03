//! Quick start: run the paper's three headline configurations — the base
//! processor, a fixed level-3 window, and MLP-aware dynamic resizing —
//! over one memory-intensive and one compute-intensive workload, and
//! print the adaptivity result the paper is about.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use mlpwin::ooo::{Core, CoreStats};
use mlpwin::sim::SimModel;
use mlpwin::workloads::profiles;

fn simulate(profile: &str, model: SimModel) -> CoreStats {
    let (config, policy) = model.build();
    let workload = profiles::by_name(profile, 1).expect("known profile");
    let mut cpu = Core::new(config, workload, policy);
    cpu.run_warmup(100_000).expect("warm-up must not stall"); // fast-forward: warm caches and predictors
    cpu.run(30_000).expect("healthy run")
}

fn main() {
    println!("mlpwin quickstart: one memory-bound and one compute-bound workload\n");
    for profile in ["sphinx3", "sjeng"] {
        println!("--- {profile} ---");
        let base = simulate(profile, SimModel::Base);
        let fixed3 = simulate(profile, SimModel::Fixed(3));
        let dynamic = simulate(profile, SimModel::Dynamic);
        println!(
            "  base (64-entry IQ, back-to-back issue): IPC {:.3}",
            base.ipc()
        );
        println!(
            "  fixed level 3 (256-entry IQ, pipelined):  IPC {:.3}  ({:+.1}%)",
            fixed3.ipc(),
            (fixed3.ipc() / base.ipc() - 1.0) * 100.0
        );
        println!(
            "  dynamic resizing (the paper's proposal):  IPC {:.3}  ({:+.1}%)",
            dynamic.ipc(),
            (dynamic.ipc() / base.ipc() - 1.0) * 100.0
        );
        println!(
            "  dynamic residency: L1 {:.0}%  L2 {:.0}%  L3 {:.0}%\n",
            dynamic.level_residency(0) * 100.0,
            dynamic.level_residency(1) * 100.0,
            dynamic.level_residency(2) * 100.0,
        );
    }
    println!("The point: the dynamic window matches whichever fixed size suits the");
    println!("workload — big when L2 misses cluster (MLP), small when they don't (ILP).");
}
