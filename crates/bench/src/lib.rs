//! # mlpwin-bench
//!
//! The benchmark harness: one binary per table and figure of the paper
//! (run with `cargo run --release -p mlpwin-bench --bin fig7`), plus
//! micro-benchmarks of the hot simulator structures on a std-only
//! harness (`cargo bench -p mlpwin-bench`), the repository benchmark
//! (`mlpwin-benchmark`) and its paired same-host gate (`mlpwin-gate`).
//!
//! Every binary that simulates accepts the same flags:
//!
//! ```text
//! --insts N     measured instructions per run   (default per binary)
//! --warmup N    warm-up instructions per run    (default per binary)
//! --threads N   parallel runs                   (default: MLPWIN_THREADS
//!               when set, otherwise available cores)
//! --seed N      workload seed                   (default 1)
//! ```
//!
//! and runs its experiments one way: [`ExpArgs::spec`] turns each
//! `(profile, model)` pair into a [`RunSpec`] carrying those budgets and
//! that seed, and [`ExpArgs::run_all`] runs the list through
//! [`run_matrix`] and hands back [`Results`] looked up by pair. The
//! ablations are [`SimModel`] variants, so they run the same way. Only
//! `fig6`'s live excerpt steps a core by hand, to watch every cycle.
//!
//! Budgets are scaled-down stand-ins for the paper's 16G-skip +
//! 100M-measure sampling; raising `--insts` tightens every number at
//! linear cost.

use mlpwin_ooo::CoreStats;
use mlpwin_sim::report::{cpi_stack_table, pct, try_geomean, ReportError};
use mlpwin_sim::runner::{run_matrix, RunResult, RunSpec};
use mlpwin_sim::SimModel;
use mlpwin_workloads::{profiles, Category};
use std::env;

/// The usage line a malformed command line prints.
const USAGE: &str = "usage: [--insts N] [--warmup N] [--threads N] [--seed N]";

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
    /// Parses `std::env::args`, with the given per-binary defaults. On a
    /// malformed command line (an unknown flag, `--help` included) it
    /// prints the error and the usage line to stderr and exits with
    /// status 2.
    pub fn parse(default_warmup: u64, default_insts: u64) -> ExpArgs {
        Self::parse_from(env::args().skip(1), default_warmup, default_insts).unwrap_or_else(
            |error| {
                eprintln!("{error}\n{USAGE}");
                std::process::exit(2);
            },
        )
    }

    /// Testable parser core.
    ///
    /// # Errors
    ///
    /// A message naming the flag on an unknown flag, a missing or
    /// non-numeric value, or a zero `--insts` or `--threads`.
    pub fn parse_from<I: IntoIterator<Item = String>>(
        args: I,
        default_warmup: u64,
        default_insts: u64,
    ) -> Result<ExpArgs, String> {
        let mut out = ExpArgs {
            insts: default_insts,
            warmup: default_warmup,
            threads: RunSpec::threads_from_env(),
            seed: 1,
        };
        let mut it = args.into_iter();
        while let Some(flag) = it.next() {
            let value = |v: Option<String>| -> Result<u64, String> {
                let v = v.ok_or_else(|| format!("{flag} requires a value"))?;
                v.parse().map_err(|e| format!("{flag} {v}: {e}"))
            };
            match flag.as_str() {
                "--insts" => out.insts = value(it.next())?,
                "--warmup" => out.warmup = value(it.next())?,
                "--threads" => out.threads = value(it.next())? as usize,
                "--seed" => out.seed = value(it.next())?,
                other => return Err(format!("unknown flag {other}")),
            }
        }
        if out.insts == 0 {
            return Err("--insts must be positive".into());
        }
        if out.threads == 0 {
            return Err("--threads must be positive".into());
        }
        Ok(out)
    }

    /// The experiment spec for one `(profile, model)` pair: these
    /// arguments' warm-up, measured instructions and seed.
    pub fn spec(&self, profile: &str, model: SimModel) -> RunSpec {
        let mut spec = RunSpec::new(profile, model).with_budget(self.warmup, self.insts);
        spec.seed = self.seed;
        spec
    }

    /// Runs every `(profile, model)` pair as [`ExpArgs::spec`] through
    /// [`run_matrix`] on `threads` workers. A failed run is printed to
    /// stderr with its typed error, and any failure exits the process
    /// non-zero, so a report never renders from incomplete data.
    pub fn run_all<'a, I>(&self, runs: I) -> Results
    where
        I: IntoIterator<Item = (&'a str, SimModel)>,
    {
        let specs: Vec<RunSpec> = runs.into_iter().map(|(p, m)| self.spec(p, m)).collect();
        let mut results = Results { runs: Vec::new() };
        let mut failures = 0usize;
        for outcome in run_matrix(&specs, self.threads) {
            match outcome {
                Ok(r) => results.runs.push(r),
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
}

/// Every `(profile, model)` pair of `profiles × models`, profile-major:
/// the run list of an experiment that runs each model on each program.
pub fn grid<'a>(profiles: &[&'a str], models: &[SimModel]) -> Vec<(&'a str, SimModel)> {
    profiles
        .iter()
        .flat_map(|&p| models.iter().map(move |&m| (p, m)))
        .collect()
}

/// One experiment matrix's results.
#[derive(Debug, Clone)]
pub struct Results {
    /// Every run, in the order its pair was given.
    pub runs: Vec<RunResult>,
}

impl Results {
    /// The result of `(profile, model)`.
    ///
    /// # Panics
    ///
    /// Panics if that pair was not part of the matrix.
    pub fn get(&self, profile: &str, model: SimModel) -> &RunResult {
        self.runs
            .iter()
            .find(|r| r.spec.profile == profile && r.spec.model == model)
            .unwrap_or_else(|| panic!("{profile} {} was not run", model.tag()))
    }

    /// The measured IPC of `(profile, model)`.
    pub fn ipc(&self, profile: &str, model: SimModel) -> f64 {
        self.get(profile, model).ipc()
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

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn defaults_apply() {
        let a = ExpArgs::parse_from(argv(""), 10, 20).expect("no flags");
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
            Ok(ExpArgs {
                insts: 5,
                warmup: 7,
                threads: 2,
                seed: 9
            })
        );
    }

    #[test]
    fn rejects_unknown_flags() {
        for line in ["--bogus 1", "--help"] {
            let e = ExpArgs::parse_from(argv(line), 1, 1).expect_err(line);
            assert!(e.contains("unknown flag"), "{line}: {e}");
        }
    }

    #[test]
    fn rejects_missing_value() {
        let e = ExpArgs::parse_from(argv("--insts"), 1, 1).expect_err("no value");
        assert!(e.contains("requires a value"), "{e}");
        let e = ExpArgs::parse_from(argv("--seed x"), 1, 1).expect_err("not a number");
        assert!(e.contains("--seed x"), "{e}");
    }

    #[test]
    fn rejects_zero_insts_and_threads() {
        let e = ExpArgs::parse_from(argv("--insts 0"), 1, 1).expect_err("zero insts");
        assert!(e.contains("--insts must be positive"), "{e}");
        let e = ExpArgs::parse_from(argv("--threads 0"), 1, 1).expect_err("zero threads");
        assert!(e.contains("--threads must be positive"), "{e}");
    }

    #[test]
    fn spec_carries_the_parsed_budget_and_seed() {
        let a = ExpArgs::parse_from(argv("--warmup 123 --insts 456 --seed 7"), 1, 1)
            .expect("valid flags");
        let spec = a.spec("mcf", SimModel::Penalty(30));
        assert_eq!(
            (spec.profile.as_str(), spec.model),
            ("mcf", SimModel::Penalty(30))
        );
        assert_eq!((spec.warmup, spec.insts, spec.seed), (123, 456, 7));
        // Everything else stays the runner's default.
        assert_eq!(
            spec,
            RunSpec {
                warmup: 123,
                insts: 456,
                seed: 7,
                ..RunSpec::new("mcf", SimModel::Penalty(30))
            }
        );
    }

    #[test]
    fn grid_is_profile_major() {
        let (a, b) = (SimModel::Base, SimModel::Dynamic);
        assert_eq!(
            grid(&["mcf", "gcc"], &[a, b]),
            [("mcf", a), ("mcf", b), ("gcc", a), ("gcc", b)]
        );
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
