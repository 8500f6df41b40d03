//! **Figure 6** — resource-level transitions driven by L2 cache-miss
//! occurrences.
//!
//! Two views:
//!
//! 1. the controller in isolation, replaying the figure's exact scenario
//!    (three misses, the second enlarging to the maximum, then two
//!    shrinks spaced by the memory latency);
//! 2. a live excerpt from a dynamic-resizing run of soplex, logging every
//!    completed transition with its cycle and direction.
//!
//! ```text
//! cargo run --release -p mlpwin-bench --bin fig6
//! ```

use mlpwin_bench::ExpArgs;
use mlpwin_ooo::{Core, DynamicResizingPolicy, WindowPolicy};
use mlpwin_sim::report::TextTable;
use mlpwin_sim::SimModel;
use mlpwin_workloads::profiles;

fn main() {
    let args = ExpArgs::parse(100_000, 20_000);

    // Part 1: the paper's exact scenario on the bare controller.
    println!("Figure 6 (controller replay): misses at t=10, 60, 110; memory latency 300\n");
    let mut policy = DynamicResizingPolicy::new(300);
    let mut level = 0usize;
    let mut t1 = TextTable::new(vec!["cycle", "event", "level (1-based)"]);
    t1.row(vec!["0".into(), "start".into(), "1".to_string()]);
    for t in 0..1500u64 {
        let miss = matches!(t, 10 | 60 | 110);
        let target = policy.target_level(t, miss as u32, level, 2);
        if target != level {
            policy.on_transition(t, level, target);
            let ev = if target > level {
                "L2 miss -> enlarge"
            } else {
                "latency elapsed -> shrink"
            };
            level = target;
            t1.row(vec![
                format!("{t}"),
                ev.to_string(),
                format!("{}", level + 1),
            ]);
        } else if miss {
            t1.row(vec![
                format!("{t}"),
                "L2 miss (already at max)".into(),
                format!("{}", level + 1),
            ]);
        }
    }
    println!("{}", t1.render());

    // Part 2: live transitions from a real soplex run. This is the one
    // paper binary that steps a core by hand instead of going through
    // `ExpArgs::run_all`: it reads the window level after every cycle.
    println!("Figure 6 (live excerpt): dynamic resizing on soplex\n");
    let (config, policy) = SimModel::Dynamic.build();
    let workload = profiles::by_name("soplex", args.seed).expect("profile");
    let mut core = Core::new(config, workload, policy);
    core.run_warmup(args.warmup)
        .expect("warm-up must not stall");

    let mut t2 = TextTable::new(vec!["cycle", "transition", "level (1-based)"]);
    let mut last_level = core.current_level();
    let start_cycle = core.cycle();
    let mut logged = 0;
    while core.stats().committed_insts < args.insts && logged < 24 {
        core.step();
        let l = core.current_level();
        if l != last_level {
            t2.row(vec![
                format!("{}", core.cycle() - start_cycle),
                if l > last_level { "enlarge" } else { "shrink" }.to_string(),
                format!("{}", l + 1),
            ]);
            last_level = l;
            logged += 1;
        }
    }
    println!("{}", t2.render());
    let s = core.stats();
    println!(
        "transitions over the excerpt: {} up, {} down; residency L1/L2/L3 = {:.0}%/{:.0}%/{:.0}%",
        s.transitions_up,
        s.transitions_down,
        s.level_residency(0) * 100.0,
        s.level_residency(1) * 100.0,
        s.level_residency(2) * 100.0,
    );
}
