//! **Software-MLP kernels** — the Cimple-style batched pointer-chase
//! and hash-probe profiles, against `mcf` as the unbatched baseline.
//!
//! Cimple (PAPERS.md) shows software restructuring — interleaving B
//! independent pointer chases, batching hash-table probes — turns
//! serial miss chains into overlapped ones. These profiles model the
//! *result* of that transform, and the three programs land in three
//! distinct regimes: `mcf`'s serial chase has no MLP for any window to
//! find; `chase-batch`'s software pipelining already extracted it all
//! (the memory system saturates at the base window, so the enlarged
//! window the miss-driven policy picks buys nothing — misses are not
//! marginal MLP); `hash-probe`'s narrower batches leave headroom the
//! dynamic window harvests. All three spend most host cycles in the
//! sparse-event regime the stall fast-forward bulk-advances (the `skip`
//! column).
//!
//! ```text
//! cargo run --release -p mlpwin-bench --bin swmlp
//! ```

use mlpwin_bench::{grid, ExpArgs};
use mlpwin_sim::report::TextTable;
use mlpwin_sim::SimModel;

fn main() {
    let args = ExpArgs::parse(100_000, 40_000);
    let programs = ["mcf", "chase-batch", "hash-probe"];
    let models = [SimModel::Base, SimModel::Dynamic, SimModel::Runahead];
    let results = args.run_all(grid(&programs, &models));

    let mut t = TextTable::new(vec![
        "program", "model", "IPC", "vs base", "load lat", "avg lvl", "skip", "ev/kcyc",
    ]);
    for p in programs {
        let base_ipc = results.ipc(p, SimModel::Base);
        for m in models {
            let r = results.get(p, m);
            let kcycles = (r.stats.cycles as f64 / 1e3).max(1e-9);
            // Residency-weighted mean window level, 1-based like Fig. 2.
            let avg_level = r
                .stats
                .level_cycles
                .iter()
                .enumerate()
                .map(|(l, &c)| (l + 1) as f64 * c as f64)
                .sum::<f64>()
                / r.stats.cycles.max(1) as f64;
            t.row(vec![
                p.to_string(),
                r.spec.model.tag(),
                format!("{:.3}", r.ipc()),
                format!("{:.2}x", r.ipc() / base_ipc),
                format!("{:.1}", r.avg_load_latency),
                format!("{:.2}", avg_level),
                format!("{:.0}%", r.engine.skip_fraction() * 100.0),
                format!("{:.1}", r.engine.events_posted as f64 / kcycles),
            ]);
        }
    }
    println!("Software-MLP kernels (Cimple-style batching) vs serial chase:");
    println!("{}", t.render());
    println!("expected shape: serial mcf has no MLP to harvest; chase-batch's");
    println!("batching already extracted it in software (the grown window");
    println!("buys ~0); hash-probe's residual MLP rewards the dynamic window.");
}
