//! Runahead vs dynamic resizing — the paper's §5.7 comparison as a
//! runnable head-to-head on three characteristic workloads:
//!
//! - **sphinx3**: plentiful independent misses — both schemes help;
//! - **mcf**: pointer chasing — neither can parallelize a dependence
//!   chain; runahead burns episodes for nothing until its cause status
//!   table learns to stay out;
//! - **milc**: sparse, unclustered misses — the useless-runahead case the
//!   paper highlights.
//!
//! ```text
//! cargo run --release --example runahead_duel
//! ```

use mlpwin::ooo::{Core, CoreStats};
use mlpwin::sim::SimModel;
use mlpwin::workloads::profiles;

fn simulate(profile: &str, model: SimModel) -> CoreStats {
    let (config, policy) = model.build();
    let w = profiles::by_name(profile, 1).expect("profile");
    let mut cpu = Core::new(config, w, policy);
    cpu.run_warmup(150_000).expect("warm-up must not stall");
    cpu.run(40_000).expect("healthy run")
}

fn main() {
    println!("runahead execution vs MLP-aware window resizing\n");
    for profile in ["sphinx3", "mcf", "milc"] {
        let base = simulate(profile, SimModel::Base);
        let ra = simulate(profile, SimModel::Runahead);
        let res = simulate(profile, SimModel::Dynamic);
        println!("--- {profile} ---");
        println!(
            "  base IPC {:.3} | runahead {:.3} ({:+.1}%) | resizing {:.3} ({:+.1}%)",
            base.ipc(),
            ra.ipc(),
            (ra.ipc() / base.ipc() - 1.0) * 100.0,
            res.ipc(),
            (res.ipc() / base.ipc() - 1.0) * 100.0,
        );
        println!(
            "  runahead: {} episodes ({} useful, {} suppressed by the CST), {:.1}% of cycles",
            ra.runahead_episodes,
            ra.runahead_useful_episodes,
            ra.runahead_suppressed,
            ra.runahead_cycles as f64 / ra.cycles as f64 * 100.0
        );
        println!(
            "  resizing: {:.0}% of cycles at the enlarged levels\n",
            (res.level_residency(1) + res.level_residency(2)) * 100.0
        );
    }
    println!("The paper's conclusion, reproduced: runahead pre-executes *instead of*");
    println!("computing, so the large window wins wherever computation and misses");
    println!("can overlap — and never loses where runahead is useless.");
}
