//! # mlpwin-sim
//!
//! The experiment layer: one place that knows how to build every
//! processor model the paper evaluates, run it over any workload profile,
//! and collect everything the tables and figures need.
//!
//! - [`SimModel`] is the full model registry: the base processor, the
//!   fixed/ideal window ladder, dynamic resizing, runahead execution,
//!   the enlarged-L2 alternative (Fig. 10) and the ablation sweeps'
//!   variants (shrink timeout, top level, transition penalty,
//!   prefetcher off), each with its own journal tag.
//! - [`runner`] executes `(profile, model)` pairs — optionally a whole
//!   matrix in parallel — and returns [`RunResult`]s combining pipeline,
//!   memory, predictor and provenance statistics.
//! - [`report`] holds the shared presentation helpers: geometric means,
//!   aligned text tables, histograms, CPI-stack attribution and the
//!   normalized-series helpers every `fig*`/`table*` binary uses.
//! - [`chrome_trace`] exports a run's interval time series and
//!   structured trace events as Chrome `trace_event` JSON for
//!   `chrome://tracing` / Perfetto.
//! - [`metrics`] is the *host-side* telemetry layer: one process-wide
//!   registry of counters, gauges and log2 histograms that every
//!   recording helper writes directly, with Prometheus text and JSON
//!   exposition, plus scoped wall-clock timers around each run phase.
//!   Gauges another structure already holds (the job queue's depth) are
//!   computed when a scrape reads them. Off by default; the
//!   `MLPWIN_TELEMETRY=1` knob (or [`metrics::set_telemetry`]) turns it
//!   on without perturbing any simulated statistic.
//! - [`progress`] renders live status lines (completed/failed/retried,
//!   aggregate MIPS, rolling-window ETA) that [`runner::run_matrix`]
//!   writes to stderr with telemetry on, and campaign controllers with
//!   `--progress`; the caller supplies the job counts (a campaign reads
//!   them from its queue), and [`Progress`] keeps only the simulated
//!   work and the ETA window.
//!
//! ## Resilience
//!
//! Every failure is a typed [`SimError`]; nothing in the experiment
//! layer panics on bad input. [`runner::run_matrix`] isolates each run
//! behind `catch_unwind`: one crashing spec yields an `Err` in its own
//! slot, not a dead matrix. It runs each spec once and keeps nothing on
//! disk — the simulator is deterministic, so a retry in the same process
//! would repeat the same failure. Surviving process deaths is the
//! campaign control plane's job (below).
//!
//! ## Crash recovery
//!
//! A campaign's [`journal`] bounds lost work to whole specs; [`snapshot`]
//! bounds it to a *fraction of one run*. With a [`SnapshotPolicy`] (via
//! [`runner::run_recoverable`], which every worker process uses) the core
//! serializes its complete state every `cadence_cycles` into
//! CRC-guarded, atomically-rotated files keyed by [`spec_hash`]; a
//! killed process resumes from the latest valid image with bit-identical
//! results. Corrupt snapshots are quarantined and older generations (or
//! a fresh start) take over. [`signals`] gives the binaries graceful
//! SIGINT/SIGTERM: stop at the next snapshot point, flush everything,
//! exit [`signals::EXIT_INTERRUPTED`]. [`supervisor`] runs one spec in
//! a child process, kills it when its heartbeat goes stale or its
//! wall-clock budget runs out, and reports how it ended; it never
//! restarts a worker itself. Retries, with their backoff, are the
//! campaign queue's decision, and a retried worker resumes from its
//! latest snapshot.
//!
//! ## Campaign control plane
//!
//! [`serve`] scales that resilience from one spec to a whole matrix
//! run as a service: a durable [`queue`] records every job transition
//! in a CRC-guarded WAL (replayed after a controller SIGKILL with zero
//! lost or double-counted jobs), workers own jobs through
//! heartbeat-renewed leases, poison jobs are quarantined after a
//! bounded number of worker kills, and the content-addressed
//! [`cachestore`] serves already-computed results — keyed by
//! [`spec_hash`] but verified against the full spec on every hit, so a
//! hash collision is a typed error, never a wrong answer. Campaign
//! artifacts are guarded by [`lock`]'s advisory `flock(2)` wrappers:
//! two controllers (or appending workers) on one `results/` directory
//! fail fast with [`SimError::Locked`]. The `mlpwin-serve` binary is
//! the CLI; the chaos suite in `tests/campaign.rs` proves the final
//! journal is bit-identical to a serial run under random worker and
//! controller kills. A running campaign is observable end to end: the
//! controller can embed [`httpserve`]'s read-only HTTP plane
//! (`/metrics`, `/status`, `/jobs`, `/healthz`), every job transition
//! lands in [`campaign_events`]' bounded lifecycle ring (which also
//! renders Chrome-trace spans per job phase), and a crash flight
//! recorder dumps events, metrics, and queue state on worker deaths,
//! quarantines, and fatal errors — all off the simulation hot path.
//!
//! ## Multi-machine fleets
//!
//! [`wire`] extends the control plane across machines: `mlpwin-serve
//! --fleet-listen` accepts `mlpwin-worker` processes over a std-only,
//! length-prefixed, CRC-guarded TCP protocol with a schema-versioned
//! handshake. Remote workers lease jobs, stream heartbeats at snapshot
//! cadence, and return hash-guarded journal lines that settle
//! idempotently through the same WAL queue and cache — so a hostile
//! network (drops, duplicates, truncations, partitions, worker
//! SIGKILLs) can slow a campaign but never corrupt it, and the
//! controller degrades to local threads when the fleet vanishes. The
//! deterministic [`wire::NetFault`] injector lets the chaos suites
//! replay exact fault schedules and assert byte-identical journals.
//!
//! ## Example
//!
//! ```
//! use mlpwin_sim::{runner::RunSpec, SimModel};
//!
//! let spec = RunSpec::new("gcc", SimModel::Base).with_budget(2_000, 2_000);
//! let r = mlpwin_sim::runner::run(&spec).expect("healthy run");
//! assert!(r.stats.ipc() > 0.0);
//!
//! // A typo'd profile is a typed error with a suggestion, not a panic.
//! let err = mlpwin_sim::runner::run(&RunSpec::new("libqantum", SimModel::Base));
//! assert!(err.unwrap_err().to_string().contains("did you mean `libquantum`?"));
//! ```

pub mod cachestore;
pub mod campaign_events;
pub mod chrome_trace;
pub mod error;
pub mod httpserve;
pub mod journal;
pub mod json;
pub mod lock;
pub mod metrics;
pub mod model;
pub mod progress;
pub mod queue;
pub mod report;
pub mod runner;
pub mod serve;
pub mod signals;
pub mod snapshot;
pub mod split;
pub mod supervisor;
pub mod wire;

pub use cachestore::CacheStore;
pub use campaign_events::{CampaignEvent, CampaignLog, EventKind, JobSpan};
pub use error::SimError;
pub use httpserve::{HttpServer, ObsProvider};
pub use journal::{spec_hash, Journal};
pub use lock::LockedFile;
pub use metrics::{MetricsRegistry, MetricsSnapshot, ScopedTimer};
pub use model::SimModel;
pub use progress::Progress;
pub use queue::{JobQueue, JobState, Lane, QueuePolicy};
pub use runner::{FaultSpec, RunResult, RunSpec};
pub use serve::{run_campaign, CampaignConfig, CampaignOutcome, CampaignReport};
pub use snapshot::{SnapshotPolicy, SnapshotStore, SNAPSHOT_SCHEMA};
pub use split::{run_split, SamplingEstimate, SplitConfig, SplitOutcome};
pub use supervisor::{Supervisor, WorkerEnd};
pub use wire::{Conn, Msg, NetFault, WireError, WIRE_SCHEMA};
