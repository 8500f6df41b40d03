//! Host-telemetry integration suite.
//!
//! The contract under test: the telemetry knob is *observation only*.
//! With it off, nothing is recorded and simulated output is bit-
//! identical to a build that never heard of telemetry; with it on, the
//! registry fills with structurally valid Prometheus/JSON expositions
//! whose counter totals do not depend on how many worker threads the
//! matrix used (the shard-merge associativity guarantee, end to end).
//!
//! Every test here flips the process-global knob, so they serialize on
//! one lock and restore "off" even on panic.

use mlpwin_sim::journal::encode_line;
use mlpwin_sim::json::Json;
use mlpwin_sim::metrics::{self, global};
use mlpwin_sim::runner::{
    run, run_matrix, FaultSpec, RunSpec, METRIC_PHASE_BUILD, METRIC_PHASE_MEASURE,
    METRIC_SIM_CYCLES, METRIC_SIM_INSTS, METRIC_SPECS_COMPLETED, METRIC_SPECS_FAILED,
};
use mlpwin_sim::{SimError, SimModel};
use std::sync::Mutex;

static TELEMETRY_LOCK: Mutex<()> = Mutex::new(());

/// Restores "telemetry off" when dropped, so a failing assertion in one
/// test cannot leak an enabled knob into the next.
struct KnobGuard;

impl Drop for KnobGuard {
    fn drop(&mut self) {
        metrics::set_telemetry(false);
    }
}

fn quick(profile: &str, model: SimModel) -> RunSpec {
    RunSpec::new(profile, model).with_budget(2_000, 2_000)
}

/// The current global total of a counter (zero when absent).
fn counter_total(name: &str) -> u64 {
    global().snapshot().counters.get(name).copied().unwrap_or(0)
}

/// The current global sample count of a histogram (zero when absent).
fn histogram_count(name: &str) -> u64 {
    global()
        .snapshot()
        .histograms
        .get(name)
        .map_or(0, |h| h.count)
}

#[test]
fn stats_and_journal_are_bit_identical_with_telemetry_on() {
    let _serial = TELEMETRY_LOCK.lock().expect("telemetry lock");
    let _restore = KnobGuard;
    let spec = quick("libquantum", SimModel::Dynamic).with_intervals(500);

    metrics::set_telemetry(false);
    let off = run(&spec).expect("healthy run, telemetry off");
    metrics::set_telemetry(true);
    let on = run(&spec).expect("healthy run, telemetry on");

    // Full structural equality: stats, intervals, CPI stack, predictor,
    // provenance — the knob must not perturb a single bit of it.
    assert_eq!(off, on, "telemetry changed a simulated result");
    assert_eq!(
        encode_line(&spec, &off),
        encode_line(&spec, &on),
        "telemetry changed the journal encoding"
    );
    // And the instrumented run actually recorded host-side work.
    assert!(
        counter_total(METRIC_SIM_CYCLES) >= on.stats.cycles,
        "instrumented run did not land in the registry"
    );
}

#[test]
fn scrape_totals_are_independent_of_thread_count() {
    let _serial = TELEMETRY_LOCK.lock().expect("telemetry lock");
    let _restore = KnobGuard;
    metrics::set_telemetry(true);

    // The same matrix `MLPWIN_THREADS`-style at 1, 2 and 4 workers;
    // deterministic counters (simulated work, completions) must total
    // identically because shards merge associatively. Wall-clock
    // histograms and gauges are timing-dependent and exempt.
    let specs: Vec<RunSpec> = ["libquantum", "gcc", "milc"]
        .iter()
        .flat_map(|p| {
            [SimModel::Base, SimModel::Dynamic]
                .into_iter()
                .map(|m| quick(p, m))
        })
        .collect();
    let totals_at = |threads: usize| -> (u64, u64, u64) {
        let before = (
            counter_total(METRIC_SIM_CYCLES),
            counter_total(METRIC_SIM_INSTS),
            counter_total(METRIC_SPECS_COMPLETED),
        );
        let outcomes = run_matrix(&specs, threads);
        assert!(outcomes.iter().all(|o| o.is_ok()));
        (
            counter_total(METRIC_SIM_CYCLES) - before.0,
            counter_total(METRIC_SIM_INSTS) - before.1,
            counter_total(METRIC_SPECS_COMPLETED) - before.2,
        )
    };

    let serial = totals_at(1);
    assert_eq!(serial.2, specs.len() as u64);
    assert!(serial.0 > 0 && serial.1 > 0);
    assert_eq!(totals_at(2), serial, "2 workers changed scrape totals");
    assert_eq!(totals_at(4), serial, "4 workers changed scrape totals");
}

#[test]
fn prometheus_exposition_is_structurally_valid() {
    let _serial = TELEMETRY_LOCK.lock().expect("telemetry lock");
    let _restore = KnobGuard;
    metrics::set_telemetry(true);

    let specs = vec![
        quick("libquantum", SimModel::Base),
        quick("gcc", SimModel::Dynamic),
    ];
    let outcomes = run_matrix(&specs, 2);
    assert!(outcomes.iter().all(|o| o.is_ok()));

    let text = global().snapshot().render_prometheus();
    assert!(
        text.contains(&format!("# TYPE {METRIC_PHASE_MEASURE} histogram")),
        "missing measure-phase histogram:\n{text}"
    );
    assert!(text.contains(&format!("# TYPE {METRIC_SIM_CYCLES} counter")));

    let mut families: Vec<&str> = Vec::new();
    for line in text.lines() {
        assert!(!line.trim().is_empty(), "blank line in exposition");
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split(' ');
            let family = parts.next().expect("family name");
            let kind = parts.next().expect("family kind");
            assert!(parts.next().is_none(), "trailing junk: {line}");
            assert!(
                matches!(kind, "counter" | "gauge" | "histogram"),
                "unknown family kind: {line}"
            );
            assert!(
                !families.contains(&family),
                "family declared twice: {family}"
            );
            families.push(family);
            continue;
        }
        // Sample line: `name[{labels}] value` — the name must belong to
        // a declared family and the value must parse as a number.
        let (name, value) = line.rsplit_once(' ').expect("sample line shape");
        assert!(
            value.parse::<f64>().is_ok(),
            "unparseable sample value: {line}"
        );
        let family = name.split('{').next().expect("name");
        let owner = families.iter().any(|f| {
            family == *f
                || family == format!("{f}_bucket")
                || family == format!("{f}_sum")
                || family == format!("{f}_count")
        });
        assert!(owner, "sample without a # TYPE family: {line}");
    }

    // Histogram buckets: cumulative counts are monotone and end at the
    // family's _count total.
    let measure_buckets: Vec<u64> = text
        .lines()
        .filter(|l| l.starts_with(&format!("{METRIC_PHASE_MEASURE}_bucket")))
        .map(|l| l.rsplit(' ').next().expect("count").parse().expect("u64"))
        .collect();
    assert!(!measure_buckets.is_empty());
    assert!(measure_buckets.windows(2).all(|w| w[0] <= w[1]));
    let count: u64 = text
        .lines()
        .find(|l| l.starts_with(&format!("{METRIC_PHASE_MEASURE}_count")))
        .and_then(|l| l.rsplit(' ').next())
        .and_then(|v| v.parse().ok())
        .expect("_count line");
    assert_eq!(*measure_buckets.last().expect("+Inf bucket"), count);

    // The JSON exposition of the same registry parses and agrees on the
    // simulated-cycles total.
    let doc = Json::parse(&global().snapshot().to_json().encode()).expect("valid JSON exposition");
    assert_eq!(
        doc.get("counters")
            .and_then(|c| c.get(METRIC_SIM_CYCLES))
            .and_then(Json::as_u64),
        Some(counter_total(METRIC_SIM_CYCLES))
    );
}

#[test]
fn disabled_telemetry_records_nothing() {
    let _serial = TELEMETRY_LOCK.lock().expect("telemetry lock");
    let _restore = KnobGuard;
    metrics::set_telemetry(false);

    let before = counter_total(METRIC_SPECS_COMPLETED);
    let outcomes = run_matrix(&[quick("gcc", SimModel::Base)], 2);
    assert!(outcomes[0].is_ok());
    assert_eq!(
        counter_total(METRIC_SPECS_COMPLETED),
        before,
        "a disabled knob must leave the registry untouched"
    );
}

/// The matrix runs every spec exactly once: a panicking spec is built
/// once and fails typed (a deterministic simulator would repeat the
/// panic on any retry), and its healthy sibling's result is exactly
/// `runner::run`'s.
#[test]
fn a_panicking_spec_is_built_once() {
    let _serial = TELEMETRY_LOCK.lock().expect("telemetry lock");
    let _restore = KnobGuard;
    metrics::set_telemetry(true);

    let specs = [
        quick("mcf", SimModel::Base).with_fault(FaultSpec::PanicAt(500)),
        quick("gcc", SimModel::Dynamic),
    ];
    let builds = histogram_count(METRIC_PHASE_BUILD);
    let failed = counter_total(METRIC_SPECS_FAILED);
    let outcomes = run_matrix(&specs, 2);
    assert_eq!(
        histogram_count(METRIC_PHASE_BUILD) - builds,
        specs.len() as u64,
        "one core build per spec: the panicking spec must not be rerun"
    );
    assert_eq!(counter_total(METRIC_SPECS_FAILED) - failed, 1);
    match &outcomes[0] {
        Err(SimError::Panic { message }) => {
            assert!(message.contains("injected workload fault"), "{message}")
        }
        other => panic!("the injected panic must fail typed, got {other:?}"),
    }
    let sibling = outcomes[1].as_ref().expect("healthy sibling completes");
    assert_eq!(sibling, &run(&specs[1]).expect("reference run"));
}
