//! The campaign's content-addressed result cache.
//!
//! A resubmitted campaign should re-simulate nothing: every spec whose
//! result already sits in a journal is served from here instead. Entries
//! are keyed by the 64-bit FNV-1a [`spec_hash`], but the hash is an
//! *index*, never a proof — each entry carries its full spec, and every
//! lookup verifies spec equality before serving. Two different specs on
//! one hash (a genuine 64-bit collision, or a corrupted/hand-edited
//! journal) surface as the typed [`SimError::HashCollision`] rather than
//! a silently wrong result; the control plane logs it and simulates
//! fresh.

use crate::error::SimError;
use crate::journal::{canonical_spec, spec_hash, Journal};
use crate::metrics;
use crate::runner::{RunResult, RunSpec};
use std::collections::HashMap;
use std::path::Path;

/// Counter of cache hits (verified; no simulation needed).
pub const METRIC_CACHE_HITS: &str = "mlpwin_cache_hits_total";
/// Counter of cache misses (spec not present; simulate).
pub const METRIC_CACHE_MISSES: &str = "mlpwin_cache_misses_total";
/// Counter of spec-hash collisions detected on lookup.
pub const METRIC_CACHE_COLLISIONS: &str = "mlpwin_cache_collisions_total";
/// Gauge: entries currently held by the cache.
pub const METRIC_CACHE_ENTRIES: &str = "mlpwin_cache_entries";

/// An in-memory view over one or more results journals, keyed by spec
/// hash with full-spec verification on every hit.
#[derive(Debug, Default)]
pub struct CacheStore {
    by_hash: HashMap<u64, (RunSpec, RunResult)>,
}

impl CacheStore {
    /// An empty cache.
    pub fn new() -> CacheStore {
        CacheStore::default()
    }

    /// Merges a journal file into this cache (a missing file adds
    /// nothing, matching [`Journal::load`]). First-wins on
    /// conflict: results are deterministic per spec, so an existing
    /// entry is as good as any newcomer.
    ///
    /// # Errors
    ///
    /// Journal I/O failures.
    pub fn absorb_file(&mut self, path: &Path) -> Result<(), SimError> {
        for (spec, result) in Journal::new(path).load()? {
            self.insert(&spec, &result);
        }
        Ok(())
    }

    /// Inserts one entry (first-wins).
    pub fn insert(&mut self, spec: &RunSpec, result: &RunResult) {
        self.by_hash
            .entry(spec_hash(spec))
            .or_insert_with(|| (spec.clone(), result.clone()));
    }

    /// Looks up `spec`'s result, verifying the stored spec matches.
    ///
    /// `Ok(Some(_))` — verified hit. `Ok(None)` — miss; simulate.
    ///
    /// # Errors
    ///
    /// [`SimError::HashCollision`] when the hash bucket holds a
    /// *different* spec — the caller must treat this as a miss plus a
    /// loud warning, never as a hit.
    pub fn lookup(&self, spec: &RunSpec) -> Result<Option<&RunResult>, SimError> {
        let hash = spec_hash(spec);
        match self.by_hash.get(&hash) {
            None => {
                metrics::counter_add(METRIC_CACHE_MISSES, 1);
                Ok(None)
            }
            Some((stored, result)) if stored == spec => {
                metrics::counter_add(METRIC_CACHE_HITS, 1);
                Ok(Some(result))
            }
            Some((stored, _)) => {
                metrics::counter_add(METRIC_CACHE_COLLISIONS, 1);
                Err(SimError::HashCollision {
                    hash,
                    detail: format!(
                        "cached `{}` vs requested `{}`",
                        canonical_spec(stored),
                        canonical_spec(spec)
                    ),
                })
            }
        }
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.by_hash.len()
    }

    /// Whether the cache holds nothing.
    pub fn is_empty(&self) -> bool {
        self.by_hash.is_empty()
    }

    /// Publishes the entry-count gauge into the metrics registry (no-op
    /// with telemetry off).
    pub fn publish_metrics(&self) {
        metrics::gauge_set(METRIC_CACHE_ENTRIES, self.by_hash.len() as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::run;
    use crate::SimModel;

    fn spec(seed: u64) -> RunSpec {
        let mut s = RunSpec::new("gcc", SimModel::Base).with_budget(500, 2_000);
        s.seed = seed;
        s
    }

    #[test]
    fn verified_hit_serves_the_stored_result() {
        let a = spec(1);
        let result = run(&a).expect("run");
        let mut cache = CacheStore::new();
        cache.insert(&a, &result);
        let hit = cache.lookup(&a).expect("no collision").expect("hit");
        assert_eq!(hit, &result);
        assert_eq!(cache.lookup(&spec(2)).expect("no collision"), None);
    }

    #[test]
    fn journal_round_trip_through_the_cache() {
        let dir = std::env::temp_dir().join(format!("mlpwin-cache-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).expect("scratch dir");
        let path = dir.join("journal.jsonl");
        let a = spec(7);
        let result = run(&a).expect("run");
        Journal::new(&path).append(&a, &result).expect("append");
        let mut cache = CacheStore::new();
        cache.absorb_file(&path).expect("absorb");
        assert_eq!(cache.len(), 1);
        assert_eq!(
            cache.lookup(&a).expect("no collision").expect("hit"),
            &result
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_colliding_hash_is_a_typed_error_not_a_wrong_answer() {
        let a = spec(1);
        let b = spec(2);
        let result = run(&a).expect("run");
        let mut cache = CacheStore::new();
        // Force the collision: file `a`'s entry under `b`'s hash, the
        // situation a real 64-bit collision (or a tampered journal
        // hash) would produce.
        cache.by_hash.insert(spec_hash(&b), (a.clone(), result));
        match cache.lookup(&b) {
            Err(SimError::HashCollision { hash, detail }) => {
                assert_eq!(hash, spec_hash(&b));
                assert!(detail.contains("cached"), "{detail}");
            }
            other => panic!("expected HashCollision, got {other:?}"),
        }
    }
}
