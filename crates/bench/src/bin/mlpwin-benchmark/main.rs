//! **mlpwin-benchmark** — the repository benchmark.
//!
//! One command runs four workloads (`sim-mem`, `sim-comp`, `campaign`,
//! `split`), prints every metric by name with its unit as median,
//! quartiles and sample count, checks that every simulated result is
//! correct, and exits nonzero if any check fails. The last line of
//! standard output is one JSON object: `correct`, `attempted`, `failed`
//! and `metrics` (each metric's reported value and unit; the end-to-end
//! metrics, or with `--trace` the per-layer ones). See `README.md`
//! beside this file for the metrics, workloads and how to compare two
//! commits.
//!
//! ```text
//! cargo build --release -p mlpwin-sim --bins
//! cargo run --release -p mlpwin-bench --bin mlpwin-benchmark -- [options]
//!     --seed N          workload seed                    (default 1)
//!     --workload NAME   run only this workload           (default: all four)
//!     --seconds S       time repeats for S seconds each  (default: 5 repeats)
//!     --trace [0|1]     per-layer traced run; writes <out>/spans.json
//!     --smoke           tiny budgets, one repeat, every check on
//!     --out DIR         metrics.json, spans.json, scratch (default target/benchmark)
//! ```
//!
//! `run.sh` in this directory builds both and runs the benchmark in one
//! step.

mod host;
mod layers;
mod legs;
mod sim;
mod spans;
mod stats;
mod timed;
mod workload;

use mlpwin_sim::json::{num, obj, s, Json};
use mlpwin_sim::report::TextTable;
use spans::Spans;
use stats::{quartiles, relative_iqr, Report, Scope};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

/// Timed repeats per workload when `--seconds` is not given.
const REPEATS: usize = 5;

const USAGE: &str = "usage: mlpwin-benchmark [--seed N] [--workload NAME] [--seconds S] \
                     [--trace [0|1]] [--smoke] [--out DIR]";

/// What every workload needs to know about this invocation.
pub struct Ctx {
    pub trace: bool,
    pub smoke: bool,
    pub seconds: Option<f64>,
    /// Scratch space for campaign and split directories.
    pub work: PathBuf,
    /// The `mlpwin-sim` child-process worker.
    pub sim_exe: PathBuf,
    /// The `mlpwin-worker` fleet worker.
    pub worker_exe: PathBuf,
    /// Parallel workers of campaigns and splits: `min(2, nproc)`.
    pub workers: usize,
}

impl Ctx {
    /// Whether another timed repeat (or trace pass) starts after `done`
    /// of them, the first at `started`, the latest taking `last`
    /// seconds. Under `--seconds` a repeat starts only if one as long as
    /// the latest still fits.
    pub fn more(&self, done: usize, started: Instant, last: f64) -> bool {
        match self.seconds {
            _ if self.smoke => done < 1,
            Some(secs) => done == 0 || started.elapsed().as_secs_f64() + last <= secs,
            None if self.trace => done < 1,
            None => done < REPEATS,
        }
    }
}

struct Args {
    seed: u64,
    workload: Option<String>,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    out: PathBuf,
}

fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut out = Args {
        seed: 1,
        workload: None,
        seconds: None,
        trace: false,
        smoke: false,
        out: PathBuf::from("target/benchmark"),
    };
    let mut it = args.into_iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or_else(|| format!("{flag} needs {what}"));
        match flag.as_str() {
            "--seed" => {
                let v = value("a number")?;
                out.seed = v
                    .parse()
                    .map_err(|_| format!("--seed: `{v}` is not a number"))?;
            }
            "--workload" => {
                let v = value("a workload name")?;
                if !workload::NAMES.contains(&v.as_str()) {
                    return Err(format!(
                        "unknown workload `{v}`; one of {}",
                        workload::NAMES.join(", ")
                    ));
                }
                out.workload = Some(v);
            }
            "--seconds" => {
                let v = value("a duration")?;
                let secs: f64 = v
                    .parse()
                    .map_err(|_| format!("--seconds: `{v}` is not a number"))?;
                if !(secs > 0.0 && secs.is_finite()) {
                    return Err(format!("--seconds must be positive, got {v}"));
                }
                out.seconds = Some(secs);
            }
            "--trace" => {
                out.trace = it
                    .next_if(|v| v == "0" || v == "1")
                    .is_none_or(|v| v == "1");
            }
            "--smoke" => out.smoke = true,
            "--out" => out.out = PathBuf::from(value("a directory")?),
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(out)
}

/// Refuses to measure a configuration other than the default one.
fn preflight() -> Result<(PathBuf, PathBuf), String> {
    // `runner.rs` reads MLPWIN_NO_FAST_FORWARD and MLPWIN_EVENT_DRIVEN,
    // which change the program being measured; other MLPWIN_ variables
    // change threads and telemetry.
    let set: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("MLPWIN_"))
        .collect();
    if !set.is_empty() {
        return Err(format!(
            "refusing to run with {} set: it changes the program being measured",
            set.join(", ")
        ));
    }
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let beside = |name: &str| exe.with_file_name(name);
    let (sim, worker) = (beside("mlpwin-sim"), beside("mlpwin-worker"));
    for path in [&sim, &worker] {
        if !path.is_file() {
            return Err(format!(
                "{} not found; build the worker binaries first: \
                 cargo build --release -p mlpwin-sim --bins",
                path.display()
            ));
        }
    }
    Ok((sim, worker))
}

/// The first line `command` prints, or `unknown`.
fn first_line(command: &mut Command) -> String {
    command
        .stdin(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| {
            String::from_utf8_lossy(&o.stdout)
                .lines()
                .next()
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Removes the scratch directory however the benchmark ends.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

fn show(v: f64) -> String {
    match v.abs() {
        a if a == 0.0 || a >= 1e5 => format!("{v:.0}"),
        a if a >= 100.0 => format!("{v:.1}"),
        a if a >= 1.0 => format!("{v:.3}"),
        _ => format!("{v:.5}"),
    }
}

fn print_report(r: &Report) {
    println!(
        "== {}: {} repeats, {} of {} attempts failed (failed_frac {})",
        r.workload,
        r.repeats,
        r.checks.failed,
        r.checks.attempted,
        r.checks.failed_frac()
    );
    let mut t = TextTable::new(vec![
        "metric", "scope", "unit", "median", "q1", "q3", "n", "iqr/med",
    ]);
    for scope in [Scope::EndToEnd, Scope::Info, Scope::Layer] {
        for m in r.metrics.iter().filter(|m| m.scope == scope) {
            let (q1, q3) = quartiles(&m.samples);
            t.row(vec![
                m.name.clone(),
                format!("{scope:?}"),
                m.unit.to_string(),
                show(m.median()),
                show(q1),
                show(q3),
                m.samples.len().to_string(),
                format!("{:.4}", relative_iqr(&m.samples)),
            ]);
        }
    }
    println!("{}", t.render());
    println!("digest.{} = {:016x}", r.workload, r.digest);
}

fn write(path: &Path, text: String) -> Result<(), String> {
    std::fs::write(path, text + "\n").map_err(|e| format!("write {}: {e}", path.display()))
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            if !e.is_empty() {
                eprintln!("mlpwin-benchmark: {e}");
            }
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    let (sim_exe, worker_exe) = match preflight() {
        Ok(exes) => exes,
        Err(e) => {
            eprintln!("mlpwin-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let rustc = first_line(
        Command::new(std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string()))
            .arg("--version"),
    );
    // Only a repository rooted here names this tree's revision; one
    // found further up would name some other tree.
    let here = std::env::current_dir().unwrap_or_default();
    let git = first_line(
        Command::new("git")
            .args(["rev-parse", "--short=12", "HEAD"])
            .env("GIT_CEILING_DIRECTORIES", here.parent().unwrap_or(&here)),
    );
    println!(
        "host: nproc={nproc} rustc=\"{rustc}\" git={git} seed={}",
        args.seed
    );

    let scratch = Scratch(args.out.join(format!("work-{}", std::process::id())));
    if let Err(e) = std::fs::create_dir_all(&scratch.0) {
        eprintln!("mlpwin-benchmark: create {}: {e}", scratch.0.display());
        return ExitCode::from(2);
    }
    let ctx = Ctx {
        trace: args.trace,
        smoke: args.smoke,
        seconds: args.seconds,
        work: scratch.0.clone(),
        sim_exe,
        worker_exe,
        workers: nproc.min(2),
    };
    let names: Vec<&str> = match &args.workload {
        Some(name) => vec![name.as_str()],
        None => workload::NAMES.to_vec(),
    };
    let mut spans = Spans::new();
    let reports: Vec<Report> = names
        .iter()
        .map(|name| {
            let plan = workload::plan(name, args.seed, args.smoke).expect("validated name");
            let report = workload::run(&plan, &ctx, &mut spans);
            print_report(&report);
            report
        })
        .collect();

    let doc = obj(vec![
        ("schema", num(1)),
        (
            "host",
            obj(vec![
                ("nproc", num(nproc as u64)),
                ("rustc", s(rustc)),
                ("git", s(git)),
            ]),
        ),
        ("seed", num(args.seed)),
        ("smoke", Json::Bool(args.smoke)),
        ("trace", Json::Bool(args.trace)),
        (
            "workloads",
            Json::Obj(
                reports
                    .iter()
                    .map(|r| (r.workload.to_string(), r.to_json()))
                    .collect(),
            ),
        ),
    ]);
    let mut written = write(&args.out.join("metrics.json"), doc.encode());
    if args.trace && written.is_ok() {
        written = write(&args.out.join("spans.json"), spans.chrome().encode());
    }
    if let Err(e) = &written {
        eprintln!("mlpwin-benchmark: {e}");
    }

    let scope = if args.trace {
        Scope::Layer
    } else {
        Scope::EndToEnd
    };
    let single = reports.len() == 1;
    let metrics = reports
        .iter()
        .flat_map(|r| {
            r.metrics.iter().filter(|m| m.scope == scope).map(move |m| {
                let key = if single {
                    m.name.clone()
                } else {
                    format!("{}.{}", r.workload, m.name)
                };
                let value = obj(vec![("value", Json::Num(m.median())), ("unit", s(m.unit))]);
                (key, value)
            })
        })
        .collect();
    let attempted: u64 = reports.iter().map(|r| r.checks.attempted).sum();
    let failed: u64 = reports.iter().map(|r| r.checks.failed).sum();
    let correct = failed == 0 && written.is_ok();
    println!(
        "{}",
        obj(vec![
            ("correct", Json::Bool(correct)),
            ("attempted", num(attempted)),
            ("failed", num(failed)),
            ("metrics", Json::Obj(metrics)),
        ])
        .encode()
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
