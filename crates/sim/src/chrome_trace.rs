//! Chrome `trace_event` export.
//!
//! Converts a run's observability data — the interval time series in
//! [`CoreStats::intervals`] and, when `CoreConfig::trace` captured them,
//! the core's structured [`TraceEvent`]s — into the Chrome trace-event
//! JSON format (the `{"traceEvents": [...]}` object form), loadable in
//! `chrome://tracing` or Perfetto. Counter samples become `ph: "C"`
//! events on per-metric tracks; discrete events become `ph: "i"` instant
//! events. Timestamps are measured cycles (the warm-up excluded; the
//! interval samples and the trace events share this clock) reported as
//! microseconds — the viewer's time axis then reads directly in cycles.
//!
//! The writer reuses the journal's std-only [`json`](crate::json)
//! module, so the export stays dependency-free and structurally
//! verifiable by [`Json::parse`].

use crate::campaign_events::JobSpan;
use crate::json::{num, obj, s, Json};
use crate::runner::RunResult;
use mlpwin_ooo::{CoreStats, TraceEvent, TraceEventKind};
use std::collections::BTreeMap;

/// One counter event (`ph: "C"`): the value of named series at a cycle.
fn counter(name: &str, cycle: u64, series: Vec<(&str, Json)>) -> Json {
    obj(vec![
        ("name", s(name)),
        ("ph", s("C")),
        ("ts", num(cycle)),
        ("pid", num(1)),
        ("tid", num(1)),
        ("args", obj(series)),
    ])
}

/// Counter tracks from the interval time series: one IPC track, one
/// window-level track, one occupancy track (ROB/IQ/LSQ together), one
/// outstanding-miss track per sample.
fn interval_events(stats: &CoreStats, epoch: u64, out: &mut Vec<Json>) {
    for i in &stats.intervals {
        let ipc = if epoch == 0 {
            0.0
        } else {
            i.committed_insts as f64 / epoch as f64
        };
        out.push(counter("ipc", i.end_cycle, vec![("ipc", Json::Num(ipc))]));
        out.push(counter(
            "window level",
            i.end_cycle,
            vec![("level", num(i.level as u64 + 1))],
        ));
        out.push(counter(
            "occupancy",
            i.end_cycle,
            vec![
                ("rob", num(i.rob_occ as u64)),
                ("iq", num(i.iq_occ as u64)),
                ("lsq", num(i.lsq_occ as u64)),
            ],
        ));
        out.push(counter(
            "outstanding misses",
            i.end_cycle,
            vec![("mshr", num(i.outstanding_misses as u64))],
        ));
    }
}

/// One instant event (`ph: "i"`) from a structured trace event.
fn instant(event: &TraceEvent) -> Json {
    let args = match event.kind {
        TraceEventKind::LevelUp { from, to, penalty }
        | TraceEventKind::LevelDown { from, to, penalty } => obj(vec![
            ("from", num(from as u64 + 1)),
            ("to", num(to as u64 + 1)),
            ("penalty", num(penalty as u64)),
        ]),
        TraceEventKind::RunaheadEnter { trigger_pc } => {
            obj(vec![("trigger_pc", s(format!("{trigger_pc:#x}")))])
        }
        TraceEventKind::RunaheadExit { l2_misses, useful } => obj(vec![
            ("l2_misses", num(l2_misses as u64)),
            ("useful", Json::Bool(useful)),
        ]),
        TraceEventKind::Squash { at_seq } => obj(vec![("at_seq", num(at_seq))]),
        TraceEventKind::LlcMiss {
            pc,
            addr,
            mshr_occupancy,
        } => obj(vec![
            ("pc", s(format!("{pc:#x}"))),
            ("addr", s(format!("{addr:#x}"))),
            ("mshr", num(mshr_occupancy as u64)),
        ]),
    };
    obj(vec![
        ("name", s(event.kind.name())),
        ("ph", s("i")),
        ("s", s("t")), // thread-scoped instant
        ("ts", num(event.cycle)),
        ("pid", num(1)),
        ("tid", num(1)),
        ("args", args),
    ])
}

/// Builds the trace document for a run: counter tracks from its interval
/// series plus instant events from `events` (pass `&[]` when the run
/// carried no tracer). The result encodes to a complete Chrome
/// `trace_event` JSON object.
pub fn trace_document(result: &RunResult, events: &[TraceEvent]) -> Json {
    let mut trace_events = Vec::new();
    let epoch = result.spec.interval_cycles.unwrap_or(0);
    interval_events(&result.stats, epoch, &mut trace_events);
    trace_events.extend(events.iter().map(instant));
    obj(vec![
        ("traceEvents", Json::Arr(trace_events)),
        ("displayTimeUnit", s("ms")),
        (
            "otherData",
            obj(vec![
                ("profile", s(&result.spec.profile)),
                ("model", s(result.spec.model.tag())),
                ("cycles", num(result.stats.cycles)),
            ]),
        ),
    ])
}

/// [`trace_document`] rendered to its JSON text.
pub fn write_trace(result: &RunResult, events: &[TraceEvent]) -> String {
    trace_document(result, events).encode()
}

/// Builds a Chrome trace for a whole campaign from the derived job
/// spans: one `tid` track per span track (the `"queue"` track plus one
/// per worker), a `ph: "M"` `thread_name` metadata event naming each,
/// and one `ph: "X"` complete event per span. Campaign-clock
/// milliseconds map to trace microseconds, so the viewer's axis reads
/// in wall-clock ms.
pub fn campaign_trace_document(spans: &[JobSpan], jobs: usize) -> Json {
    // Stable track order: "queue" first, then workers sorted by name.
    let mut tracks: Vec<&str> = Vec::new();
    for sp in spans {
        if !tracks.contains(&sp.track.as_str()) {
            tracks.push(&sp.track);
        }
    }
    tracks.sort_by_key(|t| (*t != "queue", t.to_string()));
    let tid_of = |track: &str| -> u64 {
        tracks
            .iter()
            .position(|t| *t == track)
            .expect("span track registered") as u64
    };
    let mut events = Vec::new();
    for (tid, track) in tracks.iter().enumerate() {
        events.push(obj(vec![
            ("name", s("thread_name")),
            ("ph", s("M")),
            ("pid", num(1)),
            ("tid", num(tid as u64)),
            ("args", obj(vec![("name", s(*track))])),
        ]));
    }
    for sp in spans {
        let args = Json::Obj(
            sp.args
                .iter()
                .map(|(k, v)| (k.clone(), v.clone()))
                .chain(std::iter::once(("job".to_string(), num(sp.job))))
                .collect::<BTreeMap<_, _>>(),
        );
        events.push(obj(vec![
            ("name", s(&sp.name)),
            ("ph", s("X")),
            ("ts", num(sp.start_ms * 1000)),
            ("dur", num((sp.end_ms - sp.start_ms) * 1000)),
            ("pid", num(1)),
            ("tid", num(tid_of(&sp.track))),
            ("args", args),
        ]));
    }
    obj(vec![
        ("traceEvents", Json::Arr(events)),
        ("displayTimeUnit", s("ms")),
        (
            "otherData",
            obj(vec![("mode", s("campaign")), ("jobs", num(jobs as u64))]),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::SimModel;
    use crate::runner::{run, RunSpec};

    fn sample() -> RunResult {
        let spec = RunSpec::new("libquantum", SimModel::Dynamic)
            .with_budget(2_000, 4_000)
            .with_intervals(500);
        run(&spec).expect("healthy run")
    }

    #[test]
    fn document_has_counter_events_for_every_sample() {
        let result = sample();
        assert!(!result.stats.intervals.is_empty(), "intervals collected");
        let doc = trace_document(&result, &[]);
        let events = doc
            .get("traceEvents")
            .and_then(Json::as_arr)
            .expect("traceEvents array");
        assert_eq!(events.len(), 4 * result.stats.intervals.len());
        for e in events {
            assert_eq!(e.get("ph").and_then(Json::as_str), Some("C"));
            assert!(e.get("ts").and_then(Json::as_u64).is_some());
        }
    }

    #[test]
    fn instant_events_carry_their_payloads() {
        let result = sample();
        let events = vec![
            TraceEvent {
                cycle: 10,
                kind: TraceEventKind::LevelUp {
                    from: 0,
                    to: 1,
                    penalty: 10,
                },
            },
            TraceEvent {
                cycle: 25,
                kind: TraceEventKind::LlcMiss {
                    pc: 0x400,
                    addr: 0x8000,
                    mshr_occupancy: 3,
                },
            },
        ];
        let doc = trace_document(&result, &events);
        let arr = doc.get("traceEvents").and_then(Json::as_arr).expect("arr");
        let instants: Vec<&Json> = arr
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("i"))
            .collect();
        assert_eq!(instants.len(), 2);
        assert_eq!(
            instants[0].get("name").and_then(Json::as_str),
            Some("level_up")
        );
        let args = instants[1].get("args").expect("args");
        assert_eq!(args.get("mshr").and_then(Json::as_u64), Some(3));
        assert_eq!(args.get("addr").and_then(Json::as_str), Some("0x8000"));
    }

    #[test]
    fn adversarial_names_survive_encoding() {
        // Control characters, quotes, backslashes and non-ASCII in a
        // name must neither corrupt the document nor change on a round
        // trip. (Profiles are registry-validated today, but the export
        // format must not rely on that.)
        let mut result = sample();
        let adversarial = "naïve\u{7}\t\"trace\\\" 😀";
        result.spec.profile = adversarial.to_string();
        let text = write_trace(&result, &[]);
        assert!(text.is_ascii(), "exported JSON must be pure ASCII");
        assert!(!text.contains('\u{7}'), "raw control char leaked");
        let doc = Json::parse(&text).expect("valid JSON despite the name");
        assert_eq!(
            doc.get("otherData")
                .and_then(|o| o.get("profile"))
                .and_then(Json::as_str),
            Some(adversarial)
        );
    }

    #[test]
    fn campaign_trace_has_one_track_per_worker_and_span_per_phase() {
        let spans = vec![
            JobSpan {
                track: "queue".to_string(),
                name: "job 0 queued".to_string(),
                job: 0,
                start_ms: 0,
                end_ms: 5,
                args: Vec::new(),
            },
            JobSpan {
                track: "w1".to_string(),
                name: "job 0 attempt 1".to_string(),
                job: 0,
                start_ms: 5,
                end_ms: 40,
                args: vec![("outcome".to_string(), s("done"))],
            },
            JobSpan {
                track: "w0".to_string(),
                name: "job 1 attempt 1".to_string(),
                job: 1,
                start_ms: 7,
                end_ms: 30,
                args: Vec::new(),
            },
        ];
        let doc = campaign_trace_document(&spans, 2);
        let text = doc.encode();
        let parsed = Json::parse(&text).expect("valid JSON");
        let events = parsed
            .get("traceEvents")
            .and_then(Json::as_arr)
            .expect("traceEvents");
        let meta: Vec<&Json> = events
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("M"))
            .collect();
        let complete: Vec<&Json> = events
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
            .collect();
        assert_eq!(meta.len(), 3, "queue + two workers named");
        assert_eq!(complete.len(), spans.len(), "one X event per span");
        // "queue" is tid 0; the two worker spans land on distinct tids.
        assert_eq!(
            meta[0]
                .get("args")
                .and_then(|a| a.get("name"))
                .and_then(Json::as_str),
            Some("queue")
        );
        let tids: Vec<u64> = complete
            .iter()
            .filter_map(|e| e.get("tid").and_then(Json::as_u64))
            .collect();
        assert_eq!(tids.len(), 3);
        assert_ne!(tids[1], tids[2], "workers get their own tracks");
        // ms -> µs mapping.
        assert_eq!(complete[1].get("ts").and_then(Json::as_u64), Some(5000));
        assert_eq!(complete[1].get("dur").and_then(Json::as_u64), Some(35000));
    }

    #[test]
    fn rendered_text_parses_back() {
        let result = sample();
        let text = write_trace(&result, &[]);
        let doc = Json::parse(&text).expect("valid JSON");
        assert!(doc.get("traceEvents").is_some());
        assert_eq!(
            doc.get("otherData")
                .and_then(|o| o.get("profile"))
                .and_then(Json::as_str),
            Some("libquantum")
        );
    }
}
