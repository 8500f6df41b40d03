//! # mlpwin-bench
//!
//! The benchmark harness: one binary per table and figure of the paper
//! (run with `cargo run --release -p mlpwin-bench --bin fig7`), plus
//! micro-benchmarks of the hot simulator structures on a std-only
//! harness (`cargo bench -p mlpwin-bench`), the repository benchmark
//! (`mlpwin-benchmark`) and its paired same-host gate (`mlpwin-gate`).
//!
//! Every binary accepts the same flags:
//!
//! ```text
//! --insts N     measured instructions per run   (default per binary)
//! --warmup N    warm-up instructions per run    (default per binary)
//! --threads N   parallel runs                   (default: MLPWIN_THREADS
//!               when set, otherwise available cores)
//! --seed N      workload seed                   (default 1)
//! ```
//!
//! Budgets are scaled-down stand-ins for the paper's 16G-skip +
//! 100M-measure sampling; raising `--insts` tightens every number at
//! linear cost.

use mlpwin_ooo::CoreStats;
use mlpwin_sim::report::{cpi_stack_table, pct, try_geomean, ReportError};
use mlpwin_sim::runner::{RunResult, RunSpec};
use mlpwin_workloads::{profiles, Category};
use std::env;

/// Command-line arguments shared by every experiment binary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExpArgs {
    /// Measured instructions per run.
    pub insts: u64,
    /// Warm-up instructions per run.
    pub warmup: u64,
    /// Worker threads for run matrices.
    pub threads: usize,
    /// Workload seed.
    pub seed: u64,
}

impl ExpArgs {
    /// Parses `std::env::args`, with the given per-binary defaults.
    ///
    /// # Panics
    ///
    /// Panics (with a usage message) on malformed flags.
    pub fn parse(default_warmup: u64, default_insts: u64) -> ExpArgs {
        Self::parse_from(env::args().skip(1), default_warmup, default_insts)
    }

    /// Testable parser core.
    pub fn parse_from<I: IntoIterator<Item = String>>(
        args: I,
        default_warmup: u64,
        default_insts: u64,
    ) -> ExpArgs {
        let mut out = ExpArgs {
            insts: default_insts,
            warmup: default_warmup,
            threads: RunSpec::threads_from_env(),
            seed: 1,
        };
        let mut it = args.into_iter();
        while let Some(flag) = it.next() {
            let mut take = |name: &str| -> u64 {
                it.next()
                    .unwrap_or_else(|| panic!("{name} requires a value"))
                    .parse()
                    .unwrap_or_else(|e| panic!("{name}: {e}"))
            };
            match flag.as_str() {
                "--insts" => out.insts = take("--insts"),
                "--warmup" => out.warmup = take("--warmup"),
                "--threads" => out.threads = take("--threads") as usize,
                "--seed" => out.seed = take("--seed"),
                other => panic!("unknown flag {other}; expected --insts/--warmup/--threads/--seed"),
            }
        }
        assert!(out.insts > 0, "--insts must be positive");
        assert!(out.threads > 0, "--threads must be positive");
        out
    }
}

/// The paper's selected programs, memory-intensive first — the row set
/// every figure binary prints.
pub fn selected_profiles() -> Vec<&'static str> {
    profiles::SELECTED_MEM
        .iter()
        .chain(profiles::SELECTED_COMP.iter())
        .copied()
        .collect()
}

/// The three geometric-mean groups every figure summarizes: memory-
/// intensive, compute-intensive, and everything.
pub const GM_GROUPS: [(&str, Option<Category>); 3] = [
    ("GM mem", Some(Category::MemoryIntensive)),
    ("GM comp", Some(Category::ComputeIntensive)),
    ("GM all", None),
];

/// Geometric mean of the values whose category matches `cat` (all of
/// them for `None`), over `(category, value)` pairs.
///
/// # Errors
///
/// [`ReportError`] when the filtered set is empty or contains a
/// non-positive value.
pub fn try_category_geomean(
    per_cat: &[(Category, f64)],
    cat: Option<Category>,
) -> Result<f64, ReportError> {
    let values: Vec<f64> = per_cat
        .iter()
        .filter(|(c, _)| cat.is_none_or(|want| *c == want))
        .map(|(_, v)| *v)
        .collect();
    try_geomean(&values)
}

/// Prints one `GM mem / GM comp / GM all` summary line per group from
/// `(category, ratio)` pairs, skipping (with a stderr note) any group
/// whose inputs are degenerate.
pub fn print_geomean_summary(per_cat: &[(Category, f64)]) {
    for (label, cat) in GM_GROUPS {
        match try_category_geomean(per_cat, cat) {
            Ok(gm) => println!("{label}: {gm:.3} ({})", pct(gm - 1.0)),
            Err(e) => eprintln!("{label}: skipped ({e})"),
        }
    }
}

/// Prints each named run's per-level CPI-stack attribution table — the
/// "where did the cycles go" footer the figure binaries share.
pub fn print_cpi_stacks<'a, I>(entries: I)
where
    I: IntoIterator<Item = (&'a str, &'a CoreStats)>,
{
    for (name, stats) in entries {
        println!("{name}:");
        println!("{}", cpi_stack_table(stats));
    }
}

/// Unwraps a single run for a report binary: prints the typed error to
/// stderr and exits non-zero on failure.
pub fn expect_run(outcome: Result<RunResult, mlpwin_sim::SimError>) -> RunResult {
    outcome.unwrap_or_else(|error| {
        eprintln!("run failed: {error}");
        std::process::exit(1);
    })
}

/// Unwraps a matrix's outcomes for a report binary: prints every typed
/// failure to stderr and exits non-zero, so a partially failed campaign
/// never renders a table from incomplete data.
pub fn expect_results(outcomes: Vec<Result<RunResult, mlpwin_sim::SimError>>) -> Vec<RunResult> {
    let mut results = Vec::with_capacity(outcomes.len());
    let mut failures = 0usize;
    for outcome in outcomes {
        match outcome {
            Ok(r) => results.push(r),
            Err(error) => {
                failures += 1;
                eprintln!("run failed: {error}");
            }
        }
    }
    if failures > 0 {
        eprintln!("{failures} run(s) failed; aborting report");
        std::process::exit(1);
    }
    results
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn defaults_apply() {
        let a = ExpArgs::parse_from(argv(""), 10, 20);
        assert_eq!(a.warmup, 10);
        assert_eq!(a.insts, 20);
        assert_eq!(a.seed, 1);
        assert!(a.threads >= 1);
    }

    #[test]
    fn flags_override() {
        let a = ExpArgs::parse_from(argv("--insts 5 --warmup 7 --threads 2 --seed 9"), 1, 1);
        assert_eq!(
            a,
            ExpArgs {
                insts: 5,
                warmup: 7,
                threads: 2,
                seed: 9
            }
        );
    }

    #[test]
    #[should_panic(expected = "unknown flag")]
    fn rejects_unknown_flags() {
        let _ = ExpArgs::parse_from(argv("--bogus 1"), 1, 1);
    }

    #[test]
    #[should_panic(expected = "requires a value")]
    fn rejects_missing_value() {
        let _ = ExpArgs::parse_from(argv("--insts"), 1, 1);
    }

    #[test]
    fn selected_profiles_cover_both_categories() {
        let sel = selected_profiles();
        assert!(!sel.is_empty());
        assert!(sel.starts_with(&profiles::SELECTED_MEM));
        assert!(sel.ends_with(&profiles::SELECTED_COMP));
    }

    #[test]
    fn category_geomean_filters_before_aggregating() {
        let per_cat = [
            (Category::MemoryIntensive, 2.0),
            (Category::MemoryIntensive, 8.0),
            (Category::ComputeIntensive, 1.0),
        ];
        let mem =
            try_category_geomean(&per_cat, Some(Category::MemoryIntensive)).expect("mem group");
        assert!((mem - 4.0).abs() < 1e-12);
        let comp =
            try_category_geomean(&per_cat, Some(Category::ComputeIntensive)).expect("comp group");
        assert!((comp - 1.0).abs() < 1e-12);
        let all = try_category_geomean(&per_cat, None).expect("all");
        assert!((all - (2.0f64 * 8.0 * 1.0).powf(1.0 / 3.0)).abs() < 1e-9);
        // An empty group is a typed error, not a NaN.
        let only_comp = [(Category::ComputeIntensive, 1.0)];
        assert_eq!(
            try_category_geomean(&only_comp, Some(Category::MemoryIntensive)),
            Err(ReportError::EmptyInput)
        );
    }
}
