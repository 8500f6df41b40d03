//! **mlpwin-gate** — the same-host performance gate. Run it with
//! `cargo run --release -p mlpwin-bench --bin mlpwin-gate`.
//!
//! It runs the repository benchmark (`BENCHMARK.json`'s `command`, which
//! builds a tree through its own `run.sh`) alternately on the working
//! tree and on a base revision taken with `git archive` into
//! `target/gate/base`: `HEAD` when the working tree differs from it,
//! `HEAD~1` otherwise. [`PAIRS`] pairs at `--seconds` [`SECONDS`], pair
//! `i` at `--seed i+1`. It fails (exit 1) when a workload's end-to-end
//! metric has a median pair ratio, change over base, above `1 + bound`,
//! when the change fails more checks than the base, or when a workload
//! or metric is missing from a run. A metric whose base runs spread (IQR
//! over median) wider than its bound is unresolved: it fails only if
//! every change run is worse than every base run. Exit 2: cannot run.

use mlpwin_sim::json::Json;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

/// Alternating base/change pairs per gate run (quartiles need two).
const PAIRS: usize = 7;
const _: () = assert!(PAIRS >= 2);
/// `--seconds` of timed repeats per workload in every benchmark run.
const SECONDS: &str = "8";

/// One bounded end-to-end metric of `BENCHMARK.json`.
struct Bound {
    name: String,
    bound: f64,
    lower_is_better: bool,
}

/// What one benchmark run reported: its failed checks and the median of
/// every `(workload, metric)`.
#[derive(Default)]
struct Run {
    failed: u64,
    medians: BTreeMap<(String, String), f64>,
}

/// Quartile `i` of `x` (2 is the median) by the benchmark's rule:
/// Python's `statistics.quantiles(n=4)`, exclusive method.
fn quartile(x: &[f64], i: usize) -> f64 {
    let mut s = x.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    let j = (i * (n + 1) / 4).clamp(1, n - 1);
    let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
    (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
}

/// The decision rule over paired runs (`base[i]` with `change[i]`):
/// prints one line per `(workload, metric)` and returns every failure.
fn judge(workloads: &[String], bounds: &[Bound], base: &[Run], change: &[Run]) -> Vec<String> {
    let mut failures = Vec::new();
    for w in workloads {
        for b in bounds {
            let key = (w.clone(), b.name.clone());
            let side = |runs: &[Run]| -> Option<Vec<f64>> {
                let v = runs.iter().map(|r| r.medians.get(&key).copied());
                v.collect::<Option<Vec<f64>>>().filter(|v| !v.is_empty())
            };
            let (Some(bv), Some(cv)) = (side(base), side(change)) else {
                failures.push(format!("{w} {}: missing from a run", b.name));
                continue;
            };
            // Oriented so that a ratio above 1 is worse.
            let worse = |c: f64, b0: f64| if b.lower_is_better { c / b0 } else { b0 / c };
            let ratios: Vec<f64> = cv.iter().zip(&bv).map(|(&c, &b0)| worse(c, b0)).collect();
            let ratio = quartile(&ratios, 2);
            let base_spread = (quartile(&bv, 3) - quartile(&bv, 1)) / quartile(&bv, 2);
            let unresolved = base_spread > b.bound;
            let fails = match unresolved {
                true => cv.iter().all(|&c| bv.iter().all(|&b0| worse(c, b0) > 1.0)),
                false => ratio > 1.0 + b.bound,
            };
            let verdict = match (unresolved, fails) {
                (false, false) => "ok",
                (false, true) => "FAIL",
                (true, false) => "unresolved",
                (true, true) => "FAIL, every run worse",
            };
            let (bm, cm) = (quartile(&bv, 2), quartile(&cv, 2));
            println!(
                "{w:<9} {:<16} {bm:>10.4} -> {cm:>10.4}  ratio {ratio:.3}  base iqr/med \
                 {base_spread:.3}  {verdict}",
                b.name
            );
            if fails {
                failures.push(format!("{w} {}: {verdict}", b.name));
            }
        }
    }
    let failed = |runs: &[Run]| runs.iter().map(|r| r.failed).sum::<u64>();
    let (bf, cf) = (failed(base), failed(change));
    if cf > bf {
        failures.push(format!("the change failed {cf} checks, the base {bf}"));
    }
    failures
}

/// Reads a run's `metrics.json`; `None` when it is missing or malformed.
fn read_run(path: &Path) -> Option<Run> {
    let doc = Json::parse(&std::fs::read_to_string(path).ok()?).ok()?;
    let mut run = Run::default();
    for (w, report) in doc.get("workloads")?.as_obj()? {
        run.failed += report.get("failed")?.as_u64()?;
        for (m, v) in report.get("metrics")?.as_obj()? {
            run.medians
                .insert((w.clone(), m.clone()), v.get("median")?.as_f64()?);
        }
    }
    Some(run)
}

/// The benchmark command, its workloads and its end-to-end bounds.
fn read_benchmark(path: &Path) -> Option<(Vec<String>, Vec<String>, Vec<Bound>)> {
    let doc = Json::parse(&std::fs::read_to_string(path).ok()?).ok()?;
    let list = |key: &str| doc.get(key)?.as_arr();
    let text = |v: &Json| v.as_str().map(str::to_string);
    let name = |v: &Json| text(v.get("name")?);
    let command: Option<Vec<String>> = list("command")?.iter().map(text).collect();
    let workloads: Option<Vec<String>> = list("workloads")?.iter().map(name).collect();
    let bounds = list("end_to_end")?.iter().map(|m| {
        Some(Bound {
            name: name(m)?,
            bound: m.get("bound")?.as_f64()?,
            lower_is_better: m.get("better")?.as_str()? == "lower",
        })
    });
    Some((command?, workloads?, bounds.collect::<Option<_>>()?))
}

/// Runs `program` in `dir`: its trimmed stdout, or why it failed.
fn output(dir: &Path, program: &str, args: &[&str]) -> Result<String, String> {
    let out = Command::new(program).args(args).current_dir(dir).output();
    let out = out.map_err(|e| format!("{program}: {e}"))?;
    if !out.status.success() {
        let stderr = String::from_utf8_lossy(&out.stderr);
        return Err(format!("{program} {}: {}", args.join(" "), stderr.trim()));
    }
    Ok(String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// Extracts the base revision's tree into `dir`, unless it already
/// holds that revision (so its build directory stays warm).
fn extract_base(root: &Path, dir: &Path) -> Result<String, String> {
    let dirty = !output(root, "git", &["status", "--porcelain"])?.is_empty();
    let head = if dirty { "HEAD" } else { "HEAD~1" };
    let rev = output(root, "git", &["rev-parse", head])?;
    let stamp = dir.join(".gate-rev");
    if std::fs::read_to_string(&stamp).is_ok_and(|s| s == rev) {
        return Ok(rev);
    }
    std::fs::remove_dir_all(dir).ok();
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let tar = dir.with_extension("tar").to_string_lossy().into_owned();
    output(root, "git", &["archive", "-o", &tar, &rev])?;
    output(dir, "tar", &["-xf", &tar])?;
    std::fs::write(&stamp, &rev).map_err(|e| format!("{}: {e}", stamp.display()))?;
    Ok(rev)
}

fn main() -> ExitCode {
    if std::env::args().len() > 1 {
        eprintln!("usage: mlpwin-gate (no options)");
        return ExitCode::from(2);
    }
    gate().unwrap_or_else(|e| {
        eprintln!("mlpwin-gate: {e}");
        ExitCode::from(2)
    })
}

fn gate() -> Result<ExitCode, String> {
    let started = Instant::now();
    let root: PathBuf = output(".".as_ref(), "git", &["rev-parse", "--show-toplevel"])?.into();
    let (command, workloads, bounds) = read_benchmark(&root.join("BENCHMARK.json"))
        .ok_or("BENCHMARK.json: no command, workloads or end_to_end bounds")?;
    let gate_dir = root.join("target/gate");
    let base_dir = gate_dir.join("base");
    let rev = extract_base(&root, &base_dir)?;
    println!("mlpwin-gate: base {rev} vs the working tree, {PAIRS} pairs at --seconds {SECONDS}");
    let (mut base, mut change) = (Vec::new(), Vec::new());
    for pair in 0..PAIRS {
        let seed = (pair + 1).to_string();
        for is_base in [pair % 2 == 0, pair % 2 == 1] {
            let side = if is_base { "base" } else { "change" };
            let out = gate_dir.join(format!("runs/{side}-{pair}"));
            std::fs::remove_dir_all(&out).ok();
            let mut cmd = Command::new(&command[0]);
            cmd.args(&command[1..])
                .args(["--seconds", SECONDS, "--seed", &seed, "--out"])
                .arg(&out)
                .stdout(Stdio::null());
            match is_base {
                // The base builds into its own tree's target/.
                true => cmd.current_dir(&base_dir).env_remove("CARGO_TARGET_DIR"),
                false => cmd.current_dir(&root),
            };
            let t = Instant::now();
            cmd.status().map_err(|e| format!("{}: {e}", command[0]))?;
            let run = read_run(&out.join("metrics.json")).ok_or_else(|| {
                format!(
                    "the {side} run wrote no readable metrics.json: {}",
                    out.display()
                )
            })?;
            let secs = t.elapsed().as_secs_f64();
            println!("  pair {pair} {side:<6} seed {seed}: {secs:.0} s");
            if is_base { &mut base } else { &mut change }.push(run);
        }
    }
    let failures = judge(&workloads, &bounds, &base, &change);
    for f in &failures {
        eprintln!("FAIL: {f}");
    }
    let (verdict, code) = match failures.is_empty() {
        true => ("pass", ExitCode::SUCCESS),
        false => ("FAIL", ExitCode::FAILURE),
    };
    let secs = started.elapsed().as_secs_f64();
    println!("mlpwin-gate: {verdict} in {secs:.0} s");
    Ok(code)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `sim-comp` runs, one per `sim_ns_per_inst` value, `setup_s` 1.
    fn runs(failed: u64, values: &[f64]) -> Vec<Run> {
        let key = |m: &str| ("sim-comp".to_string(), m.to_string());
        let medians = |v| [(key("sim_ns_per_inst"), v), (key("setup_s"), 1.0)].into();
        let run = |&v: &f64| Run {
            failed,
            medians: medians(v),
        };
        values.iter().map(run).collect()
    }

    fn judged(workload: &str, base: &[Run], change: &[Run]) -> Vec<String> {
        let bound = |name: &str| Bound {
            name: name.into(),
            bound: 0.25,
            lower_is_better: true,
        };
        let bounds = [bound("sim_ns_per_inst"), bound("setup_s")];
        judge(&[workload.into()], &bounds, base, change)
    }

    fn check(base: &[f64], change: &[f64]) -> Vec<String> {
        judged("sim-comp", &runs(0, base), &runs(0, change))
    }

    const STEADY: &[f64] = &[100.0, 102.0, 98.0, 101.0, 99.0];

    #[test]
    fn a_metric_fails_by_name_only_over_its_bound() {
        assert!(check(STEADY, &[110.0, 115.0, 105.0, 120.0, 100.0]).is_empty());
        let failures = check(STEADY, &[150.0, 160.0, 100.0, 155.0, 150.0]);
        assert_eq!(failures, ["sim-comp sim_ns_per_inst: FAIL"]);
    }

    #[test]
    fn an_unresolved_metric_fails_only_when_every_change_run_is_worse() {
        let wide = &[70.0, 80.0, 100.0, 120.0, 130.0];
        // The base spread is 0.5; a median pair ratio of 1.29 would fail a resolved metric.
        assert!(check(wide, &[90.0, 110.0, 129.0, 80.0, 140.0]).is_empty());
        let failures = check(wide, &[131.0, 140.0, 135.0, 132.0, 150.0]);
        assert_eq!(
            failures,
            ["sim-comp sim_ns_per_inst: FAIL, every run worse"]
        );
    }

    #[test]
    fn more_failed_checks_on_the_change_side_fail() {
        assert!(judged("sim-comp", &runs(1, STEADY), &runs(1, STEADY)).is_empty());
        let failures = judged("sim-comp", &runs(0, STEADY), &runs(1, STEADY));
        assert_eq!(failures, ["the change failed 5 checks, the base 0"]);
    }

    #[test]
    fn a_missing_workload_or_metric_fails() {
        let (base, mut change) = (runs(0, STEADY), runs(0, STEADY));
        change[3].medians.retain(|(_, m), _| m != "setup_s");
        let failures = judged("sim-comp", &base, &change);
        assert_eq!(failures, ["sim-comp setup_s: missing from a run"]);
        assert_eq!(
            judged("sim-comp", &change, &base),
            failures,
            "on the base side"
        );
        assert_eq!(judged("split", &base, &base).len(), 2, "an absent workload");
        assert_eq!(check(&[], &[]).len(), 2, "no runs at all");
    }
}
