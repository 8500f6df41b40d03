//! Host-side performance telemetry: counters, gauges, log2 histograms.
//!
//! The *simulated* machine is observable through `CoreStats`, CPI stacks
//! and the event tracer; this module makes the simulator *host*
//! observable — how much wall-clock each run phase costs, how many
//! simulated kilocycles/sec the hot loop sustains, how a matrix campaign
//! spends its time. Design rules:
//!
//! - **One registry, written directly.** [`counter_add`], [`gauge_set`],
//!   [`observe`] and [`ScopedTimer`] write the process-wide
//!   [`MetricsRegistry`] behind one mutex. Every write is per run, job,
//!   frame or queue transition — never per simulated cycle — so the lock
//!   costs nothing measurable, and a scrape sees every write that
//!   returned before it.
//! - **Gauges derived from state are computed at read time.** A value
//!   another structure already holds (the job queue's depth, say) is not
//!   copied in on every change: the reader adds it to its
//!   [`MetricsSnapshot`] before rendering.
//! - **Off by default, bit-identical when off.** Every recording helper
//!   is a no-op unless the telemetry knob is on (`MLPWIN_TELEMETRY=1`
//!   or [`set_telemetry`]); simulated statistics never depend on the
//!   knob either way — telemetry only *reads* the simulation.
//!
//! Render a snapshot with [`MetricsSnapshot::render_prometheus`]
//! (Prometheus text exposition format) or [`MetricsSnapshot::to_json`].

use crate::json::{num, Json};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Instant;

// ------------------------------------------------------------- the knob

/// 0 = unread, 1 = off, 2 = on. A plain atomic (not `OnceLock`) so tests
/// can flip it at runtime.
static TELEMETRY: AtomicU8 = AtomicU8::new(0);

/// Whether host telemetry is enabled. The first call reads the
/// `MLPWIN_TELEMETRY` environment variable (`1`/`true`/`on` enable);
/// [`set_telemetry`] overrides it at any time.
pub fn telemetry_enabled() -> bool {
    match TELEMETRY.load(Ordering::Relaxed) {
        0 => {
            let on = std::env::var("MLPWIN_TELEMETRY")
                .map(|v| matches!(v.trim(), "1" | "true" | "on"))
                .unwrap_or(false);
            TELEMETRY.store(if on { 2 } else { 1 }, Ordering::Relaxed);
            on
        }
        state => state == 2,
    }
}

/// Serializes unit tests that flip the process-global telemetry knob.
#[cfg(test)]
pub(crate) static KNOB_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// Turns host telemetry on or off for the whole process, overriding the
/// environment. Flipping the knob never changes simulated statistics —
/// only whether wall-clock instrumentation records anything.
pub fn set_telemetry(on: bool) {
    TELEMETRY.store(if on { 2 } else { 1 }, Ordering::Relaxed);
}

// --------------------------------------------------------- the histogram

/// Bucket count of the fixed log2 histogram: one bucket per bit-length
/// (0, 1, 2..3, 4..7, ...) plus the zero bucket.
pub const HIST_BUCKETS: usize = 65;

/// A fixed-bucket log2 histogram of `u64` observations. Bucket `i`
/// holds values of bit-length `i` (bucket 0 holds only zero), so the
/// bucket layout never depends on the data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    /// Per-bucket observation counts, indexed by bit-length.
    pub buckets: [u64; HIST_BUCKETS],
    /// Total observations.
    pub count: u64,
    /// Sum of all observed values (saturating).
    pub sum: u64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            buckets: [0; HIST_BUCKETS],
            count: 0,
            sum: 0,
        }
    }
}

impl Histogram {
    /// The bucket a value falls in: its bit-length.
    pub fn bucket_index(value: u64) -> usize {
        (64 - value.leading_zeros()) as usize
    }

    /// The largest value bucket `index` holds (`2^index - 1`).
    pub fn bucket_upper_bound(index: usize) -> u64 {
        if index >= 64 {
            u64::MAX
        } else {
            (1u64 << index) - 1
        }
    }

    /// Records one observation.
    pub fn observe(&mut self, value: u64) {
        self.buckets[Self::bucket_index(value)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
    }
}

// --------------------------------------------------------- the snapshot

/// Every recorded metric at one moment: what [`MetricsRegistry::snapshot`]
/// copies out, what readers add derived gauges to, and what renders.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Monotonic counters, by metric name.
    pub counters: BTreeMap<String, u64>,
    /// Point-in-time samples, by metric name (last write wins).
    pub gauges: BTreeMap<String, f64>,
    /// Log2 histograms, by metric name.
    pub histograms: BTreeMap<String, Histogram>,
}

impl MetricsSnapshot {
    /// Adds `delta` to a counter (created at zero).
    pub fn counter_add(&mut self, name: impl Into<String>, delta: u64) {
        *self.counters.entry(name.into()).or_insert(0) += delta;
    }

    /// Sets a gauge to its latest sample.
    pub fn gauge_set(&mut self, name: impl Into<String>, value: f64) {
        self.gauges.insert(name.into(), value);
    }

    /// Records one histogram observation.
    pub fn observe(&mut self, name: impl Into<String>, value: u64) {
        self.histograms
            .entry(name.into())
            .or_default()
            .observe(value);
    }

    /// Renders the Prometheus text exposition format: a `# TYPE` line
    /// per metric family, one sample line per counter/gauge, and
    /// cumulative `_bucket{le="..."}`/`_sum`/`_count` lines per
    /// histogram — conformant series a real Prometheus scraper ingests
    /// directly. Counter, gauge and histogram names may carry a
    /// `{label="..."}` suffix (build one with [`labeled`]); invalid
    /// metric-name characters are sanitized to `_` and label values are
    /// escaped per the text-format spec, so no recorded name — however
    /// adversarial — can corrupt the exposition.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        let mut last_family = String::new();
        let mut type_line = |out: &mut String, family: &str, kind: &str| {
            if family != last_family {
                out.push_str(&format!("# TYPE {family} {kind}\n"));
                last_family = family.to_string();
            }
        };
        let render_labels = |labels: &[(String, String)]| -> String {
            if labels.is_empty() {
                return String::new();
            }
            let inner: Vec<String> = labels
                .iter()
                .map(|(k, v)| format!("{}=\"{}\"", sanitize_label_key(k), escape_label_value(v)))
                .collect();
            format!("{{{}}}", inner.join(","))
        };
        for (name, value) in &self.counters {
            let (family, labels) = split_labels(name);
            type_line(&mut out, &family, "counter");
            out.push_str(&format!("{family}{} {value}\n", render_labels(&labels)));
        }
        for (name, value) in &self.gauges {
            let (family, labels) = split_labels(name);
            type_line(&mut out, &family, "gauge");
            out.push_str(&format!("{family}{} {value}\n", render_labels(&labels)));
        }
        for (name, hist) in &self.histograms {
            let (family, labels) = split_labels(name);
            type_line(&mut out, &family, "histogram");
            // Cumulative buckets, as the spec demands: every emitted
            // `le` bound carries the count of observations <= it, and
            // the `+Inf` bucket equals `_count`.
            let mut with_le = labels.clone();
            with_le.push((String::new(), String::new())); // placeholder slot
            let mut cumulative = 0u64;
            for (i, &count) in hist.buckets.iter().enumerate() {
                if count == 0 {
                    continue;
                }
                cumulative += count;
                let le = Histogram::bucket_upper_bound(i);
                *with_le.last_mut().expect("slot") = ("le".to_string(), le.to_string());
                out.push_str(&format!(
                    "{family}_bucket{} {cumulative}\n",
                    render_labels(&with_le)
                ));
            }
            *with_le.last_mut().expect("slot") = ("le".to_string(), "+Inf".to_string());
            out.push_str(&format!(
                "{family}_bucket{} {}\n",
                render_labels(&with_le),
                hist.count
            ));
            out.push_str(&format!(
                "{family}_sum{} {}\n",
                render_labels(&labels),
                hist.sum
            ));
            out.push_str(&format!(
                "{family}_count{} {}\n",
                render_labels(&labels),
                hist.count
            ));
        }
        out
    }

    /// The snapshot as a JSON document: `counters` and `gauges` as
    /// flat objects, each histogram as `{count, sum, buckets}` where
    /// `buckets` lists `[upper_bound, count]` pairs for non-empty
    /// buckets only.
    pub fn to_json(&self) -> Json {
        let counters: BTreeMap<String, Json> = self
            .counters
            .iter()
            .map(|(k, &v)| (k.clone(), num(v)))
            .collect();
        let gauges: BTreeMap<String, Json> = self
            .gauges
            .iter()
            .map(|(k, &v)| (k.clone(), Json::Num(v)))
            .collect();
        let histograms: BTreeMap<String, Json> = self
            .histograms
            .iter()
            .map(|(k, h)| {
                let buckets: Vec<Json> = h
                    .buckets
                    .iter()
                    .enumerate()
                    .filter(|&(_, &c)| c > 0)
                    .map(|(i, &c)| Json::Arr(vec![num(Histogram::bucket_upper_bound(i)), num(c)]))
                    .collect();
                let mut obj = BTreeMap::new();
                obj.insert("count".to_string(), num(h.count));
                obj.insert("sum".to_string(), num(h.sum));
                obj.insert("buckets".to_string(), Json::Arr(buckets));
                (k.clone(), Json::Obj(obj))
            })
            .collect();
        let mut root = BTreeMap::new();
        root.insert("counters".to_string(), Json::Obj(counters));
        root.insert("gauges".to_string(), Json::Obj(gauges));
        root.insert("histograms".to_string(), Json::Obj(histograms));
        Json::Obj(root)
    }
}

// --------------------------------------------------------- the registry

/// The process-wide store every recording helper writes, and the source
/// of every scrape.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    metrics: Mutex<MetricsSnapshot>,
}

impl MetricsRegistry {
    /// The recorded state, for one write. A write that panicked (a
    /// debug-build counter overflow) left the maps consistent, so a
    /// poisoned lock is used as is.
    fn lock(&self) -> MutexGuard<'_, MetricsSnapshot> {
        self.metrics.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// A copy of everything recorded so far.
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.lock().clone()
    }

    /// Drops everything recorded so far.
    pub fn clear(&self) {
        *self.lock() = MetricsSnapshot::default();
    }
}

// ------------------------------------------------- exposition hygiene

/// Builds a labeled metric name — `family{key="value",...}` — with the
/// label values escaped per the Prometheus text-format spec (backslash,
/// double-quote and newline). Use this instead of `format!` so an
/// adversarial value (a worker name, a profile string) cannot break the
/// exposition; [`MetricsSnapshot::render_prometheus`] re-parses and
/// re-escapes the suffix on output either way.
pub fn labeled(family: &str, labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return family.to_string();
    }
    let inner: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label_value(v)))
        .collect();
    format!("{family}{{{}}}", inner.join(","))
}

/// Escapes a label value per the text-format spec: `\` → `\\`,
/// `"` → `\"`, newline → `\n` (other control characters are dropped —
/// they have no legal rendering inside a label value).
pub fn escape_label_value(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c if c.is_control() => {}
            c => out.push(c),
        }
    }
    out
}

/// Maps a metric family name onto the legal charset
/// `[a-zA-Z_:][a-zA-Z0-9_:]*`: illegal characters become `_`, and a
/// leading digit gains a `_` prefix. Distinct illegal names may
/// collapse to one sanitized family — acceptable for an exposition
/// whose names are all chosen in this codebase.
pub fn sanitize_metric_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 1);
    for (i, c) in name.chars().enumerate() {
        if c.is_ascii_digit() {
            if i == 0 {
                out.push('_');
            }
            out.push(c);
        } else if c.is_ascii_alphabetic() || c == '_' || c == ':' {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    if out.is_empty() {
        out.push('_');
    }
    out
}

/// Label keys allow `[a-zA-Z_][a-zA-Z0-9_]*` (no colon).
fn sanitize_label_key(key: &str) -> String {
    let sanitized: String = sanitize_metric_name(key)
        .chars()
        .map(|c| if c == ':' { '_' } else { c })
        .collect();
    sanitized
}

/// Splits a recorded metric name into its family and parsed label
/// pairs. A name with no suffix, or with a suffix that does not parse
/// as `{key="value",...}`, sanitizes wholesale into a bare family.
fn split_labels(name: &str) -> (String, Vec<(String, String)>) {
    if let Some(at) = name.find('{') {
        if let Some(pairs) = parse_label_suffix(&name[at..]) {
            return (sanitize_metric_name(&name[..at]), pairs);
        }
    }
    (sanitize_metric_name(name), Vec::new())
}

/// Parses `{key="value",...}` (values may contain `\\`, `\"`, `\n`
/// escapes); `None` unless the whole string is exactly one such block.
fn parse_label_suffix(text: &str) -> Option<Vec<(String, String)>> {
    let bytes = text.as_bytes();
    if bytes.first() != Some(&b'{') || bytes.last() != Some(&b'}') {
        return None;
    }
    let inner = &text[1..text.len() - 1];
    let mut pairs = Vec::new();
    let mut rest = inner;
    while !rest.is_empty() {
        let eq = rest.find("=\"")?;
        let key = rest[..eq].to_string();
        let mut value = String::new();
        let mut chars = rest[eq + 2..].char_indices();
        let mut consumed = None;
        while let Some((i, c)) = chars.next() {
            match c {
                '\\' => match chars.next()?.1 {
                    '\\' => value.push('\\'),
                    '"' => value.push('"'),
                    'n' => value.push('\n'),
                    _ => return None,
                },
                '"' => {
                    consumed = Some(eq + 2 + i + 1);
                    break;
                }
                c => value.push(c),
            }
        }
        let end = consumed?;
        pairs.push((key, value));
        rest = &rest[end..];
        if let Some(tail) = rest.strip_prefix(',') {
            rest = tail;
            if rest.is_empty() {
                return None; // trailing comma
            }
        } else if !rest.is_empty() {
            return None;
        }
    }
    if pairs.is_empty() {
        return None;
    }
    Some(pairs)
}

/// Structurally validates a Prometheus text exposition: every line is a
/// comment or `name[{labels}] value`, names are legal, label blocks
/// parse, values are floats, and cumulative histogram buckets are
/// monotone with `le="+Inf"` matching `_count`. Used by the
/// `mlpwin-serve --probe` scrape check and the test suite.
///
/// # Errors
///
/// A rendering of the first violation found.
pub fn validate_prometheus(text: &str) -> Result<(), String> {
    let legal_name = |name: &str| -> bool {
        !name.is_empty()
            && name.chars().enumerate().all(|(i, c)| {
                c.is_ascii_alphabetic() || c == '_' || c == ':' || (i > 0 && c.is_ascii_digit())
            })
    };
    // Per-series cumulative bucket state: series key (family + non-le
    // labels) -> last cumulative count seen.
    let mut last_bucket: std::collections::HashMap<String, u64> = std::collections::HashMap::new();
    let mut inf_bucket: std::collections::HashMap<String, u64> = std::collections::HashMap::new();
    let mut counts: std::collections::HashMap<String, u64> = std::collections::HashMap::new();
    for (n, line) in text.lines().enumerate() {
        let at = |msg: &str| format!("line {}: {msg}: {line}", n + 1);
        if line.is_empty() {
            continue;
        }
        if let Some(comment) = line.strip_prefix('#') {
            let mut words = comment.split_whitespace();
            match words.next() {
                Some("TYPE") => {
                    let name = words.next().ok_or_else(|| at("TYPE without a name"))?;
                    if !legal_name(name) {
                        return Err(at("illegal family name in TYPE"));
                    }
                    match words.next() {
                        Some("counter" | "gauge" | "histogram" | "summary" | "untyped") => {}
                        _ => return Err(at("unknown kind in TYPE")),
                    }
                }
                Some("HELP" | "EOF") => {}
                _ => return Err(at("unknown comment form")),
            }
            continue;
        }
        let (series, value) = line
            .rsplit_once(' ')
            .ok_or_else(|| at("no value on sample line"))?;
        if !(value.parse::<f64>().is_ok() || matches!(value, "+Inf" | "-Inf" | "NaN")) {
            return Err(at("unparsable sample value"));
        }
        let (name, labels) = match series.find('{') {
            None => (series, Vec::new()),
            Some(i) => {
                let labels =
                    parse_label_suffix(&series[i..]).ok_or_else(|| at("malformed label block"))?;
                (&series[..i], labels)
            }
        };
        if !legal_name(name) {
            return Err(at("illegal metric name"));
        }
        if let Some(family) = name.strip_suffix("_bucket") {
            let le = labels
                .iter()
                .find(|(k, _)| k == "le")
                .map(|(_, v)| v.clone())
                .ok_or_else(|| at("_bucket without an le label"))?;
            let others: Vec<String> = labels
                .iter()
                .filter(|(k, _)| k != "le")
                .map(|(k, v)| format!("{k}={v}"))
                .collect();
            let key = format!("{family}|{}", others.join(","));
            let cumulative: u64 = value.parse().map_err(|_| at("non-integer bucket count"))?;
            if le != "+Inf" && le.parse::<f64>().is_err() {
                return Err(at("unparsable le bound"));
            }
            let prior = last_bucket.entry(key.clone()).or_insert(0);
            if cumulative < *prior {
                return Err(at("non-monotone cumulative bucket"));
            }
            *prior = cumulative;
            if le == "+Inf" {
                inf_bucket.insert(key, cumulative);
            }
        } else if let Some(family) = name.strip_suffix("_count") {
            if let Ok(total) = value.parse::<u64>() {
                let others: Vec<String> = labels.iter().map(|(k, v)| format!("{k}={v}")).collect();
                counts.insert(format!("{family}|{}", others.join(",")), total);
            }
        }
    }
    for (key, total) in &counts {
        if let Some(inf) = inf_bucket.get(key) {
            if inf != total {
                return Err(format!(
                    "histogram {key}: le=\"+Inf\" bucket {inf} != _count {total}"
                ));
            }
        }
    }
    Ok(())
}

/// The process-wide registry every recording helper writes.
pub fn global() -> &'static MetricsRegistry {
    static GLOBAL: OnceLock<MetricsRegistry> = OnceLock::new();
    GLOBAL.get_or_init(MetricsRegistry::default)
}

/// Adds to a counter in the [`global`] registry. No-op with telemetry
/// off.
pub fn counter_add(name: impl Into<String>, delta: u64) {
    if telemetry_enabled() {
        global().lock().counter_add(name, delta);
    }
}

/// Sets a gauge in the [`global`] registry. No-op with telemetry off.
pub fn gauge_set(name: impl Into<String>, value: f64) {
    if telemetry_enabled() {
        global().lock().gauge_set(name, value);
    }
}

/// Records a histogram observation in the [`global`] registry. No-op
/// with telemetry off.
pub fn observe(name: impl Into<String>, value: u64) {
    if telemetry_enabled() {
        global().lock().observe(name, value);
    }
}

// ------------------------------------------------------------ the timer

/// A scoped wall-clock timer. [`start`](ScopedTimer::start) samples the
/// clock only when telemetry is on; the elapsed time lands in the named
/// histogram (in microseconds) on [`stop`](ScopedTimer::stop) or on
/// drop — so an early `?` return still records the phase it abandoned.
#[derive(Debug)]
pub struct ScopedTimer {
    name: &'static str,
    start: Option<Instant>,
}

impl ScopedTimer {
    /// Starts timing `name`. A no-op handle when telemetry is off.
    pub fn start(name: &'static str) -> ScopedTimer {
        ScopedTimer {
            name,
            start: telemetry_enabled().then(Instant::now),
        }
    }

    /// Stops explicitly, returning the elapsed seconds (for derived
    /// gauges); `None` when telemetry was off at start.
    pub fn stop(mut self) -> Option<f64> {
        self.record()
    }

    fn record(&mut self) -> Option<f64> {
        let started = self.start.take()?;
        let secs = started.elapsed().as_secs_f64();
        global().lock().observe(self.name, (secs * 1e6) as u64);
        Some(secs)
    }
}

impl Drop for ScopedTimer {
    fn drop(&mut self) {
        let _ = self.record();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_by_bit_length() {
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(1), 1);
        assert_eq!(Histogram::bucket_index(2), 2);
        assert_eq!(Histogram::bucket_index(3), 2);
        assert_eq!(Histogram::bucket_index(4), 3);
        assert_eq!(Histogram::bucket_index(u64::MAX), 64);
        assert_eq!(Histogram::bucket_upper_bound(0), 0);
        assert_eq!(Histogram::bucket_upper_bound(3), 7);
        assert_eq!(Histogram::bucket_upper_bound(64), u64::MAX);
        // Every value's bucket bound is >= the value.
        for v in [0u64, 1, 2, 7, 8, 1023, 1024, u64::MAX] {
            assert!(Histogram::bucket_upper_bound(Histogram::bucket_index(v)) >= v);
        }
    }

    #[test]
    fn histogram_observe_counts_and_sums() {
        let mut h = Histogram::default();
        for v in [0, 5, 5, 1000] {
            h.observe(v);
        }
        assert_eq!(h.count, 4);
        assert_eq!(h.sum, 1010);
        assert_eq!(h.buckets[Histogram::bucket_index(5)], 2);
    }

    /// Writers on any number of threads land in the one registry: the
    /// totals cannot depend on which thread recorded what.
    #[test]
    fn registry_records_and_snapshots() {
        let reg = MetricsRegistry::default();
        std::thread::scope(|scope| {
            for t in 0..4 {
                let reg = &reg;
                scope.spawn(move || {
                    for _ in 0..100 {
                        reg.lock().counter_add("runs", 1);
                        reg.lock().observe("lat_us", t);
                    }
                });
            }
        });
        reg.lock().gauge_set("mips", 1.5);
        reg.lock().gauge_set("mips", 2.5);
        let snap = reg.snapshot();
        assert_eq!(snap.counters["runs"], 400);
        assert_eq!(snap.histograms["lat_us"].count, 400);
        assert_eq!(snap.histograms["lat_us"].sum, 100 * (1 + 2 + 3));
        assert_eq!(snap.gauges["mips"], 2.5, "gauges are last-write-wins");
        reg.clear();
        assert_eq!(reg.snapshot(), MetricsSnapshot::default());
    }

    #[test]
    fn prometheus_rendering_is_structurally_valid() {
        let mut m = MetricsSnapshot::default();
        m.counter_add("mlpwin_specs_completed_total", 7);
        m.counter_add("mlpwin_worker_mips{worker=\"0\"}", 1);
        m.gauge_set("mlpwin_run_kcps", 1234.5);
        m.observe("mlpwin_phase_measure_us", 900);
        m.observe("mlpwin_phase_measure_us", 40_000);
        let text = m.render_prometheus();
        assert!(text.contains("# TYPE mlpwin_specs_completed_total counter"));
        assert!(text.contains("# TYPE mlpwin_worker_mips counter"));
        assert!(text.contains("# TYPE mlpwin_run_kcps gauge"));
        assert!(text.contains("# TYPE mlpwin_phase_measure_us histogram"));
        assert!(text.contains("mlpwin_phase_measure_us_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("mlpwin_phase_measure_us_sum 40900"));
        assert!(text.contains("mlpwin_phase_measure_us_count 2"));
        // Cumulative bucket counts must be monotone.
        let mut last = 0u64;
        for line in text.lines().filter(|l| l.contains("_bucket{le=")) {
            let count: u64 = line
                .rsplit(' ')
                .next()
                .and_then(|v| v.parse().ok())
                .expect("bucket count");
            assert!(count >= last, "non-monotone cumulative bucket: {line}");
            last = count;
        }
    }

    #[test]
    fn prometheus_rendering_passes_its_own_validator() {
        let mut m = MetricsSnapshot::default();
        m.counter_add("mlpwin_specs_completed_total", 7);
        m.counter_add(labeled("mlpwin_worker_mips", &[("worker", "0")]), 1);
        m.gauge_set("mlpwin_run_kcps", 1234.5);
        m.observe("mlpwin_phase_measure_us", 900);
        m.observe("mlpwin_phase_measure_us", 40_000);
        m.observe(labeled("mlpwin_wait_ms", &[("lane", "high")]), 3);
        let text = m.render_prometheus();
        validate_prometheus(&text).expect("conformant exposition");
        assert!(text.contains("mlpwin_wait_ms_bucket{lane=\"high\",le=\"+Inf\"} 1"));
        assert!(text.contains("mlpwin_wait_ms_sum{lane=\"high\"} 3"));
        assert!(text.contains("mlpwin_wait_ms_count{lane=\"high\"} 1"));
    }

    #[test]
    fn adversarial_names_and_label_values_render_safely() {
        let mut m = MetricsSnapshot::default();
        // Illegal metric-name characters, an embedded newline, a label
        // value with every escape-worthy character, and a suffix that
        // is not a parsable label block.
        m.counter_add("bad name\nwith{newline", 1);
        m.counter_add("9starts_with_digit", 2);
        m.counter_add(labeled("mlpwin_evil", &[("who", "a\\b\"c\nd")]), 3);
        m.gauge_set("mlpwin_ok{not a label block", 4.0);
        let text = m.render_prometheus();
        validate_prometheus(&text).expect("sanitized exposition must validate");
        // No raw newline survives inside any sample line, and the
        // escaped label value round-trips the spec's escapes.
        assert!(text.contains("who=\"a\\\\b\\\"c\\nd\""), "{text}");
        assert!(text.contains("_9starts_with_digit 2"), "{text}");
        for line in text.lines() {
            assert!(
                validate_prometheus(line).is_ok() || line.is_empty(),
                "invalid line survived: {line}"
            );
        }
    }

    #[test]
    fn validator_rejects_malformed_expositions() {
        assert!(validate_prometheus("no_value_here\n").is_err());
        assert!(validate_prometheus("bad name 1\n").is_err());
        assert!(validate_prometheus("m{unterminated=\"x 1\n").is_err());
        assert!(validate_prometheus("# TYPE m wibble\n").is_err());
        // Non-monotone cumulative buckets.
        let text = "m_bucket{le=\"1\"} 5\nm_bucket{le=\"2\"} 3\n";
        assert!(validate_prometheus(text).is_err());
        // +Inf bucket disagreeing with _count.
        let text = "m_bucket{le=\"+Inf\"} 4\nm_count 5\n";
        assert!(validate_prometheus(text).is_err());
        assert!(validate_prometheus("m_bucket{le=\"+Inf\"} 5\nm_count 5\n").is_ok());
    }

    #[test]
    fn labeled_names_split_and_rejoin() {
        let name = labeled("fam", &[("a", "x"), ("b", "y\"z")]);
        let (family, labels) = split_labels(&name);
        assert_eq!(family, "fam");
        assert_eq!(
            labels,
            vec![
                ("a".to_string(), "x".to_string()),
                ("b".to_string(), "y\"z".to_string())
            ]
        );
        // Unparsable suffixes sanitize wholesale.
        let (family, labels) = split_labels("fam{oops");
        assert_eq!(family, "fam_oops");
        assert!(labels.is_empty());
    }

    #[test]
    fn json_export_parses_and_carries_values() {
        let mut m = MetricsSnapshot::default();
        m.counter_add("a_total", 3);
        m.observe("lat_us", 12);
        let text = m.to_json().encode();
        let doc = Json::parse(&text).expect("valid JSON");
        assert_eq!(
            doc.get("counters")
                .and_then(|c| c.get("a_total"))
                .and_then(Json::as_u64),
            Some(3)
        );
        let hist = doc
            .get("histograms")
            .and_then(|h| h.get("lat_us"))
            .expect("histogram present");
        assert_eq!(hist.get("count").and_then(Json::as_u64), Some(1));
        assert_eq!(hist.get("sum").and_then(Json::as_u64), Some(12));
    }

    #[test]
    fn timer_records_nothing_when_disabled() {
        let _knob = KNOB_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_telemetry(false);
        let t = ScopedTimer::start("test_disabled_timer_us");
        assert!(t.stop().is_none());
        counter_add("test_disabled_counter", 1);
        assert!(!global()
            .snapshot()
            .counters
            .contains_key("test_disabled_counter"));
    }
}
