//! Every counter record round-trips with each field holding a different
//! non-zero value.
//!
//! Real runs leave many counters at 0 (the runahead counters under the
//! base model, for example), so a codec that swapped two counters would
//! still round-trip a real result. Here every counter gets a value of
//! its own, through the snapshot codec of every record, the journal
//! codec of the journaled ones, and `StatsDelta::between` then
//! `apply_to` for `CoreStats`.

use mlpwin_branch::PredictorStats;
use mlpwin_isa::{Counters, Snap, SnapReader, SnapWriter};
use mlpwin_memsys::cache::CacheStats;
use mlpwin_memsys::dram::DramStats;
use mlpwin_memsys::prefetch::PrefetchStats;
use mlpwin_memsys::{MemStats, ProvenanceStats};
use mlpwin_ooo::frontend::FrontEndStats;
use mlpwin_ooo::{CoreStats, DeltaError, IntervalSample, StatsDelta, CPI_BUCKETS};
use mlpwin_sim::journal::{decode_line, encode_line};
use mlpwin_sim::runner::{run, RunSpec};
use mlpwin_sim::SimModel;
use std::collections::HashMap;
use std::fmt::Debug;

/// `record` with its scalar counters set to `base + 1`, `base + 2`, …
/// in declaration order.
fn distinct<R: Counters>(mut record: R, base: u64) -> R {
    let mut next = base;
    record
        .read_counters(|_| {
            next += 1;
            Some(next)
        })
        .expect("every value fits");
    record
}

/// The record's counters by name.
fn values(record: &impl Counters) -> HashMap<&'static str, u64> {
    let mut values = HashMap::new();
    record.for_each_counter(|name, v| {
        values.insert(name, v);
    });
    values
}

/// Saves `record`, loads it back, and checks every byte was read.
fn snap_round_trip<R: Snap>(record: &R) -> R {
    let mut w = SnapWriter::new();
    record.save(&mut w);
    let bytes = w.into_bytes();
    let mut r = SnapReader::new(&bytes);
    let back = R::load(&mut r).expect("decodes");
    r.finish().expect("no trailing bytes");
    back
}

fn assert_snap_round_trip<R: Snap + Counters + Debug>(record: R) {
    let before = format!("{record:?}");
    assert_eq!(format!("{:?}", snap_round_trip(&record)), before);
    assert_eq!(values(&record).len(), R::COUNTERS.len(), "names are unique");
}

/// Core stats for a two-level ladder whose every number is distinct.
fn core_stats(base: u64) -> CoreStats {
    let sample = |i: u64| distinct(IntervalSample::default(), base + 100 * i);
    let row = |i: u64| -> [u64; CPI_BUCKETS] {
        std::array::from_fn(|bucket| base + 200 + 50 * i + bucket as u64)
    };
    distinct(
        CoreStats {
            level_cycles: vec![base + 30, base + 31],
            cpi_stack: vec![row(1), row(2)],
            intervals: vec![sample(1), sample(2)],
            ..CoreStats::default()
        },
        base,
    )
}

#[test]
fn every_record_round_trips_its_snapshot_codec() {
    assert_snap_round_trip(distinct(PredictorStats::default(), 10));
    assert_snap_round_trip(distinct(ProvenanceStats::default(), 20));
    assert_snap_round_trip(distinct(CacheStats::default(), 30));
    assert_snap_round_trip(distinct(DramStats::default(), 40));
    assert_snap_round_trip(distinct(PrefetchStats::default(), 50));
    assert_snap_round_trip(distinct(FrontEndStats::default(), 60));
    assert_snap_round_trip(distinct(IntervalSample::default(), 70));
    assert_snap_round_trip(distinct(
        MemStats {
            l2_demand_miss_cycles: vec![3, 5, 8],
            ..MemStats::default()
        },
        80,
    ));
    assert_snap_round_trip(core_stats(1_000));
}

#[test]
fn journaled_records_round_trip_the_journal_codec() {
    let spec = RunSpec::new("mcf", SimModel::Runahead).with_budget(2_000, 2_000);
    let mut result = run(&spec).expect("healthy run");
    result.stats = core_stats(1_000);
    result.predictor = distinct(PredictorStats::default(), 2_000);
    result.provenance = distinct(ProvenanceStats::default(), 3_000);
    let (_, back) = decode_line(&encode_line(&spec, &result)).expect("decodes");
    assert_eq!(back, result);
}

#[test]
fn stats_delta_subtracts_and_adds_every_counter() {
    let start = core_stats(1_000);
    // Each counter grows by its own amount: 1000 × its position.
    let start_values = values(&start);
    let mut end = start.clone();
    let mut position = 0;
    end.read_counters(|name| {
        position += 1;
        Some(start_values[name] + 1_000 * position)
    })
    .expect("fits");
    end.level_cycles = vec![start.level_cycles[0] + 1, start.level_cycles[1] + 2];
    end.cpi_stack = vec![start.cpi_stack[0].map(|c| c + 3), start.cpi_stack[1]];
    end.intervals
        .push(distinct(IntervalSample::default(), 9_000));

    let delta = StatsDelta::between(&start, &end).expect("monotone boundaries");
    let mut expected = 0;
    delta.as_stats().for_each_counter(|name, v| {
        expected += 1_000;
        assert_eq!(v, expected, "{name}");
    });
    assert_eq!(delta.as_stats().level_cycles, [1, 2]);
    assert_eq!(delta.as_stats().intervals, end.intervals[2..]);
    let mut total = start.clone();
    delta.apply_to(&mut total).expect("same ladder");
    assert_eq!(total, end);

    // A counter that went backwards is named in the error.
    let end_values = values(&end);
    for &counter in CoreStats::COUNTERS {
        let mut bad = end.clone();
        bad.read_counters(|name| Some(if name == counter { 0 } else { end_values[name] }))
            .expect("fits");
        assert_eq!(
            StatsDelta::between(&start, &bad),
            Err(DeltaError::Underflow { counter })
        );
    }
}
