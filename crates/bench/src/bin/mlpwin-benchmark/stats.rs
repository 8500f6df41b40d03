//! Sample statistics, the per-workload report, and the correctness
//! tally.
//!
//! Quartiles use the same rule as Python's
//! `statistics.quantiles(values, n=4)` (the default "exclusive" method),
//! so the spread this program prints is the spread a script computing
//! it from the raw samples gets.

use mlpwin_sim::json::{num, obj, s, Json};

/// The median of `samples` (NaN when empty).
pub fn median(samples: &[f64]) -> f64 {
    let x = sorted(samples);
    match x.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => x[n / 2],
        n => (x[n / 2 - 1] + x[n / 2]) / 2.0,
    }
}

/// First and third quartiles of `samples`, by Python's exclusive method:
/// positions `i·(n+1)/4`, clamped to the sample, linearly interpolated.
/// One sample is its own quartiles; none gives NaN.
pub fn quartiles(samples: &[f64]) -> (f64, f64) {
    let x = sorted(samples);
    let n = x.len();
    if n < 2 {
        let only = x.first().copied().unwrap_or(f64::NAN);
        return (only, only);
    }
    let quantile = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (x[j - 1] * (4.0 - delta) + x[j] * delta) / 4.0
    };
    (quantile(1), quantile(3))
}

/// Interquartile range as a share of the median — the spread two sets of
/// runs are compared by.
pub fn relative_iqr(samples: &[f64]) -> f64 {
    let (q1, q3) = quartiles(samples);
    (q3 - q1) / median(samples)
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut x = samples.to_vec();
    x.sort_by(f64::total_cmp);
    x
}

/// Which list of the benchmark a metric belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scope {
    /// Reported by every workload with tracing off; bounded in
    /// `BENCHMARK.json`.
    EndToEnd,
    /// Printed and written to `metrics.json`, outside the list every
    /// workload reports: the campaign legs and split phases exist on one
    /// workload only.
    Info,
    /// From the traced run: one layer seen from outside.
    Layer,
}

impl Scope {
    fn tag(self) -> &'static str {
        match self {
            Scope::EndToEnd => "end_to_end",
            Scope::Info => "info",
            Scope::Layer => "per_layer",
        }
    }
}

/// One named metric and every sample taken of it.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub scope: Scope,
    pub samples: Vec<f64>,
}

impl Metric {
    /// The value the benchmark reports.
    pub fn median(&self) -> f64 {
        median(&self.samples)
    }

    fn to_json(&self) -> Json {
        let (q1, q3) = quartiles(&self.samples);
        obj(vec![
            ("unit", s(self.unit)),
            ("scope", s(self.scope.tag())),
            ("median", Json::Num(self.median())),
            ("q1", Json::Num(q1)),
            ("q3", Json::Num(q3)),
            ("n", num(self.samples.len() as u64)),
            (
                "samples",
                Json::Arr(self.samples.iter().map(|&v| Json::Num(v)).collect()),
            ),
        ])
    }
}

/// Correctness bookkeeping: every run, job, split call and check is an
/// attempt; anything that went wrong is a failure.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
}

impl Checks {
    /// Counts one attempt; reports it on stderr when it failed.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("CHECK FAILED: {}", what());
        }
    }

    /// Counts one attempt that could not complete at all.
    pub fn fail(&mut self, what: &str) {
        self.check(false, || what.to_string());
    }

    pub fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// Everything one workload measured.
#[derive(Debug)]
pub struct Report {
    pub workload: &'static str,
    pub metrics: Vec<Metric>,
    /// FNV-1a over the journal lines of every result, in spec order.
    pub digest: u64,
    pub checks: Checks,
    pub repeats: usize,
}

impl Report {
    pub fn new(workload: &'static str) -> Report {
        Report {
            workload,
            metrics: Vec::new(),
            digest: 0,
            checks: Checks::default(),
            repeats: 0,
        }
    }

    /// Appends one sample of `name`, creating the metric on first use.
    pub fn add(&mut self, scope: Scope, name: &str, unit: &'static str, value: f64) {
        match self.metrics.iter_mut().find(|m| m.name == name) {
            Some(m) => m.samples.push(value),
            None => self.metrics.push(Metric {
                name: name.to_string(),
                unit,
                scope,
                samples: vec![value],
            }),
        }
    }

    pub fn to_json(&self) -> Json {
        let metrics = self
            .metrics
            .iter()
            .map(|m| (m.name.clone(), m.to_json()))
            .collect();
        obj(vec![
            ("digest", s(format!("{:016x}", self.digest))),
            ("attempted", num(self.checks.attempted)),
            ("failed", num(self.checks.failed)),
            ("failed_frac", Json::Num(self.checks.failed_frac())),
            ("repeats", num(self.repeats as u64)),
            ("metrics", Json::Obj(metrics)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let x: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&x), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), (1.5, 4.5));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]:
        // clamped positions extrapolate.
        assert_eq!(quartiles(&[20.0, 10.0]), (7.5, 22.5));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0));
    }

    #[test]
    fn relative_iqr_is_the_quartile_distance_over_the_median() {
        let x: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((relative_iqr(&x) - 5.5 / 5.5).abs() < 1e-12);
        assert_eq!(relative_iqr(&[2.0, 2.0, 2.0, 2.0]), 0.0);
    }

    #[test]
    fn metrics_json_round_trips_through_the_journal_codec() {
        let mut report = Report::new("sim-mem");
        report.digest = 0xdead_beef;
        report.repeats = 3;
        for v in [712.25, 705.5, 720.125] {
            report.add(Scope::EndToEnd, "sim_ns_per_inst", "ns/inst", v);
        }
        report.add(Scope::Layer, "ooo.wake.completion", "count", 42.0);
        report.checks.check(true, String::new);
        let text = report.to_json().encode();
        let back = Json::parse(&text).expect("metrics.json parses");
        assert_eq!(back, report.to_json());
        let m = back
            .get("metrics")
            .and_then(|m| m.get("sim_ns_per_inst"))
            .expect("metric present");
        assert_eq!(m.get("median").and_then(Json::as_f64), Some(712.25));
        assert_eq!(m.get("q1").and_then(Json::as_f64), Some(705.5));
        assert_eq!(m.get("q3").and_then(Json::as_f64), Some(720.125));
        assert_eq!(m.get("n").and_then(Json::as_u64), Some(3));
        assert_eq!(m.get("unit").and_then(Json::as_str), Some("ns/inst"));
        assert_eq!(
            m.get("samples").and_then(Json::as_arr).map(<[Json]>::len),
            Some(3)
        );
        assert_eq!(back.get("failed").and_then(Json::as_u64), Some(0));
    }
}
