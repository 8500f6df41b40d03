//! In-memory spans for the traced run, written out as a Chrome
//! `trace_event` document when the benchmark ends.
//!
//! Every span is recorded by this program around a call into one layer's
//! public API; nothing inside the simulator is instrumented. Per-call
//! timers (the workload generator and the window policy are called once
//! per instruction or cycle) are folded into their enclosing span as
//! aggregates — a call count and total nanoseconds — instead of one span
//! per call.

use mlpwin_sim::json::{num, obj, s, Json};
use std::collections::BTreeMap;
use std::time::Instant;

/// One timed interval. Times are nanoseconds since the benchmark's
/// epoch.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub workload: &'static str,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Per-call timers inside this span: `(layer, calls, total ns)`.
    pub aggregates: Vec<(&'static str, u64, u64)>,
}

#[derive(Debug)]
pub struct Spans {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Spans {
    pub fn new() -> Spans {
        Spans {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a finished span and returns its id (ids start at 1).
    pub fn record(
        &mut self,
        workload: &'static str,
        name: impl Into<String>,
        parent: Option<u64>,
        start: Instant,
        end: Instant,
    ) -> u64 {
        let id = self.spans.len() as u64 + 1;
        let (start_ns, end_ns) = (self.at(start), self.at(end));
        self.spans.push(Span {
            id,
            parent,
            workload,
            name: name.into(),
            start_ns,
            end_ns,
            aggregates: Vec::new(),
        });
        id
    }

    /// Opens a span whose end is not known yet; [`close`](Spans::close)
    /// sets it. Children recorded in between can name it as parent.
    pub fn open(
        &mut self,
        workload: &'static str,
        name: impl Into<String>,
        parent: Option<u64>,
    ) -> u64 {
        let now = Instant::now();
        self.record(workload, name, parent, now, now)
    }

    pub fn close(&mut self, id: u64) {
        let end = self.at(Instant::now());
        self.span_mut(id).end_ns = end;
    }

    /// Folds a per-call timer into span `id`.
    pub fn aggregate(&mut self, id: u64, layer: &'static str, calls: u64, ns: u64) {
        self.span_mut(id).aggregates.push((layer, calls, ns));
    }

    fn span_mut(&mut self, id: u64) -> &mut Span {
        &mut self.spans[id as usize - 1]
    }

    /// The Chrome `trace_event` document: one complete (`X`) event per
    /// span, with its id, parent, self time and aggregates as args.
    pub fn chrome(&self) -> Json {
        let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
        for span in &self.spans {
            if let Some(parent) = span.parent {
                children
                    .entry(parent)
                    .or_default()
                    .push((span.start_ns, span.end_ns));
            }
        }
        let events = self
            .spans
            .iter()
            .map(|span| {
                let kids = children.get(&span.id).map_or(&[][..], Vec::as_slice);
                let mut args = vec![
                    ("id".to_string(), num(span.id)),
                    ("parent".to_string(), span.parent.map_or(Json::Null, num)),
                    (
                        "self_us".to_string(),
                        Json::Num(self_time((span.start_ns, span.end_ns), kids) as f64 / 1e3),
                    ),
                ];
                for &(layer, calls, ns) in &span.aggregates {
                    args.push((format!("{layer}.calls"), num(calls)));
                    args.push((format!("{layer}.us"), Json::Num(ns as f64 / 1e3)));
                }
                obj(vec![
                    ("name", s(span.name.clone())),
                    ("cat", s(span.workload)),
                    ("ph", s("X")),
                    ("ts", Json::Num(span.start_ns as f64 / 1e3)),
                    (
                        "dur",
                        Json::Num(span.end_ns.saturating_sub(span.start_ns) as f64 / 1e3),
                    ),
                    ("pid", num(1)),
                    ("tid", num(1)),
                    ("args", Json::Obj(args.into_iter().collect())),
                ])
            })
            .collect();
        obj(vec![
            ("traceEvents", Json::Arr(events)),
            ("displayTimeUnit", s("ms")),
        ])
    }
}

/// A span's self time: its duration minus the part of it that its
/// children cover. Children may overlap each other (threads) or stick
/// out of the parent; only the union inside the parent counts.
pub fn self_time(span: (u64, u64), children: &[(u64, u64)]) -> u64 {
    let (start, end) = span;
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(a, b)| (a.max(start), b.min(end)))
        .filter(|&(a, b)| a < b)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0;
    let mut reach = start;
    for (a, b) in clipped {
        if b > reach {
            covered += b - a.max(reach);
            reach = b;
        }
    }
    end.saturating_sub(start) - covered
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        assert_eq!(self_time((0, 100), &[]), 100);
        // [10,40) and [30,60) overlap: together they cover 50.
        assert_eq!(self_time((0, 100), &[(10, 40), (30, 60)]), 50);
        // A child nested inside another adds nothing.
        assert_eq!(self_time((0, 100), &[(10, 60), (20, 30)]), 50);
        // Children are clipped to the parent.
        assert_eq!(self_time((50, 100), &[(0, 60), (90, 200)]), 30);
        // Disjoint children, unsorted.
        assert_eq!(self_time((0, 100), &[(70, 80), (0, 10)]), 80);
        // Fully covered.
        assert_eq!(self_time((0, 100), &[(0, 100), (40, 50)]), 0);
    }

    #[test]
    fn chrome_document_carries_parent_links_and_self_time() {
        let mut spans = Spans::new();
        let t0 = spans.epoch;
        let ms = |n| t0 + Duration::from_millis(n);
        let run = spans.record("sim-comp", "run", None, ms(0), ms(10));
        spans.record("sim-comp", "warmup", Some(run), ms(1), ms(4));
        let measure = spans.record("sim-comp", "measure", Some(run), ms(4), ms(10));
        spans.aggregate(measure, "workloads", 7, 1_000);
        let doc = spans.chrome();
        let events = doc
            .get("traceEvents")
            .and_then(Json::as_arr)
            .expect("events");
        assert_eq!(events.len(), 3);
        let args = events[0].get("args").expect("args");
        assert_eq!(args.get("self_us").and_then(Json::as_f64), Some(1_000.0));
        assert_eq!(args.get("parent"), Some(&Json::Null));
        let measure_args = events[2].get("args").expect("args");
        assert_eq!(measure_args.get("parent").and_then(Json::as_u64), Some(run));
        assert_eq!(
            measure_args.get("workloads.calls").and_then(Json::as_u64),
            Some(7)
        );
        assert_eq!(events[2].get("dur").and_then(Json::as_f64), Some(6_000.0));
    }
}
