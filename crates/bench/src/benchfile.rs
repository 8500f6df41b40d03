//! The `BENCH.json` schema: the machine-readable host-performance
//! baseline the `mlpwin-bench` binary writes and regresses against.
//!
//! A report records one pinned suite run: per-entry wall-clock and
//! simulated work (from which throughput derives), plus process-level
//! peak RSS. The file is schema-versioned like the results journal —
//! a reader rejects unknown schemas instead of misreading them — and
//! uses the workspace's std-only [`Json`] module, so it round-trips
//! byte-for-byte through [`BenchReport::encode`]/[`BenchReport::parse`].

use mlpwin_sim::json::{num, s, Json};
use std::collections::BTreeMap;

/// The `BENCH.json` schema this build writes and reads.
pub const BENCH_SCHEMA: u64 = 1;

/// Fractional throughput drop that fails the regression gate: a current
/// run below `1 - 0.15` of the baseline's aggregate throughput exits
/// nonzero.
pub const REGRESSION_THRESHOLD: f64 = 0.15;

/// Share of wall time a `--snapshot-cycles` suite run may spend inside
/// the snapshot path (image encode plus atomic save) before the
/// snapshot-overhead gate exits nonzero.
pub const SNAPSHOT_OVERHEAD_BOUND: f64 = 0.05;

/// One suite entry: a `(profile, model)` run at a pinned budget.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchEntry {
    /// Workload profile name.
    pub profile: String,
    /// Model tag (`SimModel::tag`).
    pub model: String,
    /// Warm-up instructions.
    pub warmup: u64,
    /// Measured instructions.
    pub insts: u64,
    /// Wall-clock seconds for the whole run (build + warm-up + measure).
    pub wall_secs: f64,
    /// Simulated cycles in the measured phase.
    pub sim_cycles: u64,
    /// Committed instructions in the measured phase.
    pub sim_insts: u64,
    /// The interval-parallel leg (`mlpwin-bench --split N`), when run.
    pub split: Option<BenchSplit>,
}

/// The `--split N` rider on a suite entry: the same spec re-analyzed
/// through the sampled interval-parallel runner against a fresh sweep.
/// `speedup` compares the serial row's full wall clock to phase 2 alone
/// — the cost of *re-analyzing* a run whose snapshot sweep is already
/// on disk, which is the workflow the split runner exists for (the
/// one-time sweep cost is `sweep_secs`, amortized across analyses).
#[derive(Debug, Clone, PartialEq)]
pub struct BenchSplit {
    /// Sampling stride / phase-2 worker count (the `--split` value).
    pub stride: u64,
    /// Interval length in measured cycles.
    pub interval_cycles: u64,
    /// Total intervals the run split into.
    pub intervals: u64,
    /// Intervals phase 2 actually simulated.
    pub simulated: u64,
    /// Wall seconds of the one-time serial snapshot sweep.
    pub sweep_secs: f64,
    /// Wall seconds of phase 2 (restore + simulate sampled intervals).
    pub phase2_secs: f64,
    /// Serial `wall_secs` over `phase2_secs`.
    pub speedup: f64,
}

impl BenchEntry {
    /// Simulated kilocycles per wall-clock second.
    pub fn kcps(&self) -> f64 {
        if self.wall_secs <= 0.0 {
            return 0.0;
        }
        self.sim_cycles as f64 / 1e3 / self.wall_secs
    }

    /// Million simulated instructions per wall-clock second.
    pub fn mips(&self) -> f64 {
        if self.wall_secs <= 0.0 {
            return 0.0;
        }
        self.sim_insts as f64 / 1e6 / self.wall_secs
    }
}

/// A complete `BENCH.json` document.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchReport {
    /// Schema version ([`BENCH_SCHEMA`]).
    pub schema: u64,
    /// Peak resident set size in kB, when the platform exposes it.
    pub peak_rss_kb: Option<u64>,
    /// One entry per suite run, in suite order.
    pub entries: Vec<BenchEntry>,
}

impl BenchReport {
    /// Total wall-clock seconds across the suite.
    pub fn total_wall_secs(&self) -> f64 {
        self.entries.iter().map(|e| e.wall_secs).sum()
    }

    /// Aggregate simulated kilocycles per wall-clock second: total
    /// cycles over total wall time, the regression gate's headline
    /// number.
    pub fn total_kcps(&self) -> f64 {
        let wall = self.total_wall_secs();
        if wall <= 0.0 {
            return 0.0;
        }
        self.entries.iter().map(|e| e.sim_cycles).sum::<u64>() as f64 / 1e3 / wall
    }

    /// Aggregate million simulated instructions per wall-clock second.
    pub fn total_mips(&self) -> f64 {
        let wall = self.total_wall_secs();
        if wall <= 0.0 {
            return 0.0;
        }
        self.entries.iter().map(|e| e.sim_insts).sum::<u64>() as f64 / 1e6 / wall
    }

    /// Serializes to the `BENCH.json` document (pretty enough to diff:
    /// canonical key order, one line).
    pub fn encode(&self) -> String {
        let entries: Vec<Json> = self
            .entries
            .iter()
            .map(|e| {
                let mut m = BTreeMap::new();
                m.insert("profile".to_string(), s(&e.profile));
                m.insert("model".to_string(), s(&e.model));
                m.insert("warmup".to_string(), num(e.warmup));
                m.insert("insts".to_string(), num(e.insts));
                m.insert("wall_secs".to_string(), Json::Num(e.wall_secs));
                m.insert("sim_cycles".to_string(), num(e.sim_cycles));
                m.insert("sim_insts".to_string(), num(e.sim_insts));
                m.insert("kcps".to_string(), Json::Num(e.kcps()));
                m.insert("mips".to_string(), Json::Num(e.mips()));
                if let Some(sp) = &e.split {
                    let mut sm = BTreeMap::new();
                    sm.insert("stride".to_string(), num(sp.stride));
                    sm.insert("interval_cycles".to_string(), num(sp.interval_cycles));
                    sm.insert("intervals".to_string(), num(sp.intervals));
                    sm.insert("simulated".to_string(), num(sp.simulated));
                    sm.insert("sweep_secs".to_string(), Json::Num(sp.sweep_secs));
                    sm.insert("phase2_secs".to_string(), Json::Num(sp.phase2_secs));
                    sm.insert("speedup".to_string(), Json::Num(sp.speedup));
                    m.insert("split".to_string(), Json::Obj(sm));
                }
                Json::Obj(m)
            })
            .collect();
        let mut root = BTreeMap::new();
        root.insert("schema".to_string(), num(self.schema));
        root.insert(
            "peak_rss_kb".to_string(),
            self.peak_rss_kb.map_or(Json::Null, num),
        );
        root.insert("entries".to_string(), Json::Arr(entries));
        root.insert(
            "total_wall_secs".to_string(),
            Json::Num(self.total_wall_secs()),
        );
        root.insert("total_kcps".to_string(), Json::Num(self.total_kcps()));
        root.insert("total_mips".to_string(), Json::Num(self.total_mips()));
        Json::Obj(root).encode()
    }

    /// Parses and validates a `BENCH.json` document.
    ///
    /// # Errors
    ///
    /// A human-readable description of the first structural problem:
    /// invalid JSON, unknown schema, or a malformed entry. The derived
    /// `total_*`/`kcps`/`mips` fields are recomputed, not trusted, and
    /// unknown entry keys are ignored — older reports carry an `event`
    /// rider from the since-removed event-driven scheduling mode.
    pub fn parse(text: &str) -> Result<BenchReport, String> {
        let doc = Json::parse(text).map_err(|e| format!("invalid JSON: {e}"))?;
        let schema = doc
            .get("schema")
            .and_then(Json::as_u64)
            .ok_or("missing schema field")?;
        if schema != BENCH_SCHEMA {
            return Err(format!(
                "unknown BENCH.json schema {schema} (this build reads {BENCH_SCHEMA})"
            ));
        }
        let peak_rss_kb = match doc.get("peak_rss_kb") {
            None | Some(Json::Null) => None,
            Some(v) => Some(v.as_u64().ok_or("peak_rss_kb is not an integer")?),
        };
        let raw = doc
            .get("entries")
            .and_then(Json::as_arr)
            .ok_or("missing entries array")?;
        let mut entries = Vec::with_capacity(raw.len());
        for (i, e) in raw.iter().enumerate() {
            let field_u64 = |k: &str| {
                e.get(k)
                    .and_then(Json::as_u64)
                    .ok_or_else(|| format!("entry {i}: bad field `{k}`"))
            };
            let wall_secs = e
                .get("wall_secs")
                .and_then(Json::as_f64)
                .filter(|w| w.is_finite() && *w >= 0.0)
                .ok_or_else(|| format!("entry {i}: bad field `wall_secs`"))?;
            let split = match e.get("split") {
                None | Some(Json::Null) => None,
                Some(sp) => {
                    let sp_u64 = |k: &str| {
                        sp.get(k)
                            .and_then(Json::as_u64)
                            .ok_or_else(|| format!("entry {i}: bad split field `{k}`"))
                    };
                    let sp_f64 = |k: &str| {
                        sp.get(k)
                            .and_then(Json::as_f64)
                            .filter(|v| v.is_finite() && *v >= 0.0)
                            .ok_or_else(|| format!("entry {i}: bad split field `{k}`"))
                    };
                    Some(BenchSplit {
                        stride: sp_u64("stride")?,
                        interval_cycles: sp_u64("interval_cycles")?,
                        intervals: sp_u64("intervals")?,
                        simulated: sp_u64("simulated")?,
                        sweep_secs: sp_f64("sweep_secs")?,
                        phase2_secs: sp_f64("phase2_secs")?,
                        speedup: sp_f64("speedup")?,
                    })
                }
            };
            entries.push(BenchEntry {
                profile: e
                    .get("profile")
                    .and_then(Json::as_str)
                    .ok_or_else(|| format!("entry {i}: bad field `profile`"))?
                    .to_string(),
                model: e
                    .get("model")
                    .and_then(Json::as_str)
                    .ok_or_else(|| format!("entry {i}: bad field `model`"))?
                    .to_string(),
                warmup: field_u64("warmup")?,
                insts: field_u64("insts")?,
                wall_secs,
                sim_cycles: field_u64("sim_cycles")?,
                sim_insts: field_u64("sim_insts")?,
                split,
            });
        }
        if entries.is_empty() {
            return Err("entries array is empty".to_string());
        }
        Ok(BenchReport {
            schema,
            peak_rss_kb,
            entries,
        })
    }
}

/// The fractional aggregate-throughput drop of `current` against
/// `baseline` (positive = slower, negative = faster); `None` when the
/// baseline's throughput is degenerate (zero wall time or zero cycles).
pub fn throughput_drop(baseline: &BenchReport, current: &BenchReport) -> Option<f64> {
    let base = baseline.total_kcps();
    if base <= 0.0 {
        return None;
    }
    Some(1.0 - current.total_kcps() / base)
}

/// Aggregate kcycles/s over the entries `select` accepts.
fn selected_kcps(report: &BenchReport, select: impl Fn(&BenchEntry) -> bool) -> f64 {
    let picked: Vec<&BenchEntry> = report.entries.iter().filter(|e| select(e)).collect();
    let wall: f64 = picked.iter().map(|e| e.wall_secs).sum();
    if wall <= 0.0 {
        return 0.0;
    }
    picked.iter().map(|e| e.sim_cycles).sum::<u64>() as f64 / 1e3 / wall
}

/// Like [`throughput_drop`], restricted to the entries `select` accepts
/// *and* whose `(profile, model)` row exists in both reports — so a
/// suite that grows (or shrinks) rows still gates like-for-like, with
/// fresh rows neither inflating nor masking the comparison. `None` when
/// the matched baseline rows are degenerate or there is no overlap.
pub fn matched_drop(
    baseline: &BenchReport,
    current: &BenchReport,
    select: impl Fn(&BenchEntry) -> bool,
) -> Option<f64> {
    let keys = |r: &BenchReport| -> Vec<(String, String)> {
        r.entries
            .iter()
            .map(|e| (e.profile.clone(), e.model.clone()))
            .collect()
    };
    let (bk, ck) = (keys(baseline), keys(current));
    let in_both = |e: &BenchEntry| {
        let key = (e.profile.clone(), e.model.clone());
        bk.contains(&key) && ck.contains(&key)
    };
    let base = selected_kcps(baseline, |e| select(e) && in_both(e));
    if base <= 0.0 {
        return None;
    }
    Some(1.0 - selected_kcps(current, |e| select(e) && in_both(e)) / base)
}

/// Peak resident set size of this process in kB, from
/// `/proc/self/status` `VmHWM` — `None` on platforms without procfs.
pub fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> BenchReport {
        BenchReport {
            schema: BENCH_SCHEMA,
            peak_rss_kb: Some(20_480),
            entries: vec![
                BenchEntry {
                    profile: "libquantum".to_string(),
                    model: "resizing".to_string(),
                    warmup: 2_000,
                    insts: 2_000,
                    wall_secs: 0.5,
                    sim_cycles: 10_000,
                    sim_insts: 2_100,
                    split: Some(BenchSplit {
                        stride: 4,
                        interval_cycles: 4_096,
                        intervals: 12,
                        simulated: 4,
                        sweep_secs: 0.6,
                        phase2_secs: 0.1,
                        speedup: 5.0,
                    }),
                },
                BenchEntry {
                    profile: "gcc".to_string(),
                    model: "base".to_string(),
                    warmup: 2_000,
                    insts: 2_000,
                    wall_secs: 1.5,
                    sim_cycles: 6_000,
                    sim_insts: 2_100,
                    split: None,
                },
            ],
        }
    }

    #[test]
    fn report_round_trips_through_its_schema() {
        let report = sample();
        let text = report.encode();
        let parsed = BenchReport::parse(&text).expect("round trip");
        assert_eq!(parsed, report);
    }

    #[test]
    fn throughput_math() {
        let r = sample();
        // 16k cycles over 2s = 8 kcyc/s; 4200 insts over 2s = 0.0021 M/s.
        assert!((r.total_wall_secs() - 2.0).abs() < 1e-12);
        assert!((r.total_kcps() - 8.0).abs() < 1e-9);
        assert!((r.total_mips() - 0.0021).abs() < 1e-12);
        assert!((r.entries[0].kcps() - 20.0).abs() < 1e-9);
        let degenerate = BenchEntry {
            wall_secs: 0.0,
            ..r.entries[0].clone()
        };
        assert_eq!(degenerate.kcps(), 0.0);
        assert_eq!(degenerate.mips(), 0.0);
    }

    #[test]
    fn regression_gate_math() {
        let baseline = sample();
        let mut slower = sample();
        for e in &mut slower.entries {
            e.wall_secs *= 2.0; // half the throughput
        }
        let drop = throughput_drop(&baseline, &slower).expect("baseline is healthy");
        assert!((drop - 0.5).abs() < 1e-9, "drop = {drop}");
        assert!(drop > REGRESSION_THRESHOLD);
        let same = throughput_drop(&baseline, &baseline).expect("healthy");
        assert!(same.abs() < 1e-12);
        let mut faster = sample();
        for e in &mut faster.entries {
            e.wall_secs /= 2.0;
        }
        assert!(throughput_drop(&baseline, &faster).expect("healthy") < 0.0);
        // A degenerate baseline cannot gate anything.
        let mut dead = sample();
        for e in &mut dead.entries {
            e.wall_secs = 0.0;
        }
        assert!(throughput_drop(&dead, &baseline).is_none());
    }

    #[test]
    fn parse_rejects_malformed_documents() {
        assert!(BenchReport::parse("not json").is_err());
        assert!(BenchReport::parse("{}")
            .expect_err("no schema")
            .contains("schema"));
        let future = sample().encode().replace("\"schema\":1", "\"schema\":9");
        assert!(BenchReport::parse(&future)
            .expect_err("unknown schema")
            .contains("unknown"));
        let empty = r#"{"schema":1,"peak_rss_kb":null,"entries":[]}"#;
        assert!(BenchReport::parse(empty)
            .expect_err("no entries")
            .contains("empty"));
        let bad_entry = r#"{"schema":1,"entries":[{"profile":"x"}]}"#;
        assert!(BenchReport::parse(bad_entry).is_err());
        // A split rider missing a field is rejected, not silently None.
        let bad_split = sample().encode().replace("\"stride\":4,", "\"stride\":-4,");
        assert!(BenchReport::parse(&bad_split)
            .expect_err("bad split stride")
            .contains("split"));
    }

    #[test]
    fn matched_drop_gates_like_for_like_when_the_suite_grows() {
        let baseline = sample();
        let mut grown = sample();
        // A fresh, very fast row joins the suite: it must not inflate
        // (or be gated by) the matched comparison.
        grown.entries.push(BenchEntry {
            profile: "chase-batch".to_string(),
            model: "base".to_string(),
            warmup: 2_000,
            insts: 2_000,
            wall_secs: 0.01,
            sim_cycles: 1_000_000,
            sim_insts: 2_000,
            split: None,
        });
        let all = |_: &BenchEntry| true;
        let drop = matched_drop(&baseline, &grown, all).expect("healthy overlap");
        assert!(drop.abs() < 1e-12, "unchanged matched rows: drop = {drop}");
        // The unmatched total, by contrast, explodes upward.
        assert!(throughput_drop(&baseline, &grown).expect("healthy") < -1.0);
        // A real regression on a matched row is still caught.
        let mut slower = grown.clone();
        slower.entries[1].wall_secs *= 10.0;
        let gcc_only = |e: &BenchEntry| e.profile == "gcc";
        let drop = matched_drop(&baseline, &slower, gcc_only).expect("healthy");
        assert!((drop - 0.9).abs() < 1e-9, "drop = {drop}");
        // No overlap (or a dead baseline) cannot gate.
        assert!(matched_drop(&baseline, &grown, |e| e.profile == "chase-batch").is_none());
    }

    #[test]
    fn entries_without_split_riders_still_parse() {
        // The committed baselines written before the --split leg carry
        // no `split` key at all.
        let legacy = r#"{"schema":1,"peak_rss_kb":null,"entries":[{"profile":"mcf",
            "model":"base","warmup":1,"insts":2,"wall_secs":0.5,
            "sim_cycles":100,"sim_insts":2}]}"#;
        let report = BenchReport::parse(legacy).expect("legacy entries parse");
        assert_eq!(report.entries[0].split, None);
    }

    #[test]
    fn entries_with_legacy_event_riders_still_parse() {
        // The committed gate baseline was written while the event-driven
        // scheduling mode existed, so every row carries an `event` rider;
        // the parser ignores it.
        let committed = include_str!("../../../results/BENCH.json");
        assert!(committed.contains("\"event\""));
        let baseline = BenchReport::parse(committed).expect("committed baseline parses");
        assert!(!baseline.entries.is_empty());
    }

    #[test]
    fn peak_rss_is_present_on_linux() {
        if cfg!(target_os = "linux") {
            let rss = peak_rss_kb().expect("procfs available");
            assert!(rss > 0);
        }
    }
}
