//! Journal-level fast-forward equivalence.
//!
//! The core's stall fast-forward must be invisible at every layer an
//! experiment can observe, all the way up to the journal: the same
//! `RunSpec` run with the fast-forward on and off must produce the same
//! `RunResult`, encode to the same journal line, and key to the same
//! spec hash. The whole A/B lives in a single test because the off
//! switch is the process-wide `MLPWIN_NO_FAST_FORWARD` variable.

use mlpwin_sim::journal::encode_line;
use mlpwin_sim::runner::run;
use mlpwin_sim::{spec_hash, RunSpec, SimModel};

#[test]
fn journal_lines_are_bit_identical_with_fast_forward_off() {
    let specs = [
        RunSpec::new("libquantum", SimModel::Dynamic)
            .with_budget(20_000, 10_000)
            .with_intervals(1_000),
        RunSpec::new("mcf", SimModel::Runahead).with_budget(20_000, 10_000),
        RunSpec::new("GemsFDTD", SimModel::Fixed(2))
            .with_budget(15_000, 8_000)
            .with_intervals(773),
        RunSpec::new("gcc", SimModel::Base).with_budget(15_000, 8_000),
        // The software-MLP extensions: long coasts between fill bursts.
        RunSpec::new("chase-batch", SimModel::Runahead).with_budget(15_000, 8_000),
        RunSpec::new("hash-probe", SimModel::Fixed(2))
            .with_budget(10_000, 6_000)
            .with_intervals(777),
    ];

    let on: Vec<_> = specs
        .iter()
        .map(|s| run(s).expect("fast-forward run succeeds"))
        .collect();

    // Process-global switch: flip it once, run the whole batch, flip it
    // back (this file is its own test binary, so nothing else races it).
    std::env::set_var("MLPWIN_NO_FAST_FORWARD", "1");
    let off: Vec<_> = specs
        .iter()
        .map(|s| run(s).expect("single-stepped run succeeds"))
        .collect();
    std::env::remove_var("MLPWIN_NO_FAST_FORWARD");

    for ((spec, a), b) in specs.iter().zip(&on).zip(&off) {
        let name = &spec.profile;
        assert_eq!(a.stats, b.stats, "{name}: CoreStats must be bit-identical");
        assert_eq!(a, b, "{name}: full RunResult must be bit-identical");
        let line_a = encode_line(spec, a);
        let line_b = encode_line(spec, b);
        assert_eq!(line_a, line_b, "{name}: journal lines must match");
        assert_eq!(
            spec_hash(&a.spec),
            spec_hash(&b.spec),
            "{name}: journal keys must match"
        );
        // The conservation invariant holds on the journaled stats too.
        assert_eq!(a.stats.cpi_stack_cycles(), a.stats.cycles, "{name}");
    }
}
