//! # mlpwin-ooo
//!
//! A cycle-level out-of-order superscalar core with an Intel P6-type
//! backend and *resizable, pipelineable* instruction-window resources —
//! the substrate the paper's mechanism lives in.
//!
//! ## Microarchitecture (Table 1 of the paper)
//!
//! - 4-wide fetch / decode / rename / issue / commit;
//! - gshare + BTB front end (from `mlpwin-branch`) with genuine
//!   wrong-path fetch after a misprediction;
//! - P6 organization: the reorder buffer holds results, a map table
//!   renames architectural registers to ROB slots, the data-capture issue
//!   queue holds operands and performs wakeup/select;
//! - load/store queue with store-to-load forwarding and perfect memory
//!   disambiguation (addresses come from the trace — see `DESIGN.md`);
//! - function units: 4 iALU, 2 iMUL/DIV, 2 load/store ports, 4 fpALU,
//!   2 fpMUL/DIV/SQRT; divides are unpipelined;
//! - non-blocking memory hierarchy from `mlpwin-memsys`.
//!
//! ## The resizable window
//!
//! ROB, IQ and LSQ capacities are set per *resource level* (Table 2).
//! The issue queue at depth *d* cannot issue dependent single-cycle
//! operations back-to-back: a consumer of an operation with latency *L*
//! issues no earlier than `issue + max(L, d)`. Levels ≥ 2 also lengthen
//! the branch-misprediction penalty (pipelined IQ and pipelined ROB
//! register read). A [`WindowPolicy`] decides each cycle which level the
//! window should be at: [`FixedLevelPolicy`] pins it, and
//! [`DynamicResizingPolicy`] is the paper's contribution — the Fig. 5
//! MLP-aware controller, which enlarges on an L2 miss and shrinks once a
//! full memory latency passes without one (see [`policy`]).
//!
//! Shrinking obeys the paper's protocol: the level drops only when the
//! doomed tail regions of ROB, IQ and LSQ are simultaneously vacant; until
//! then front-end allocation stalls. Every transition costs a fixed
//! allocation-stall penalty (10 cycles by default).
//!
//! ## Runahead mode
//!
//! The runahead-execution comparison (paper §5.7) shares this pipeline:
//! commit-stage checkpointing, INV propagation, the runahead cache and the
//! cause-status table are implemented in [`runahead`] and enabled through
//! [`CoreConfig::runahead`], whose one option switches the cause-status
//! table; the structure sizes are the paper's, fixed as constants in
//! [`runahead`]. The mechanics live here because they are interleaved
//! with the commit stage.
//!
//! ## Example
//!
//! ```
//! use mlpwin_ooo::{Core, CoreConfig, FixedLevelPolicy};
//! use mlpwin_workloads::profiles;
//!
//! let config = CoreConfig::default(); // level-1-only window
//! let workload = profiles::by_name("gcc", 1).expect("profile exists");
//! let mut core = Core::new(config, workload, Box::new(FixedLevelPolicy::new(0)));
//! let stats = core.run(5_000).expect("healthy run");
//! assert!(stats.committed_insts >= 5_000);
//! assert!(stats.ipc() > 0.1);
//! ```
//!
//! ## Failure contract
//!
//! [`Core::run`] returns a typed [`PipelineError`] instead of panicking:
//! a watchdog converts a commit-less stretch of `watchdog_cycles` into
//! [`PipelineError::Stall`] with a [`StallSnapshot`] of the machine
//! state, and an optional `deadline_cycles` budget bounds each call's
//! wall cycles. [`CoreConfig::freeze_commit_after`] injects a commit-stage
//! freeze so harnesses can test their livelock recovery path.
//!
//! ## Observability
//!
//! Every cycle is charged to exactly one [`CpiBucket`] of a per-level
//! CPI stack ([`CoreStats::cpi_stack`]), and
//! [`CoreConfig::interval_cycles`] turns on a fixed-epoch time series of
//! IPC, window level, occupancies and outstanding misses
//! ([`CoreStats::intervals`]). [`CoreConfig::trace`] switches on a
//! ring-buffered structured-event [`Tracer`] (level transitions,
//! runahead boundaries, squashes, LLC misses), stamped on the same
//! measured-cycle clock as the interval series. The hooks are compiled
//! into every build; with the switch off each is one `Option` test on
//! a rare path, and with it on simulated results are unchanged.

pub mod config;
#[allow(clippy::module_inception)]
pub mod core;
pub mod error;
pub mod events;
pub mod frontend;
pub mod fu;
pub mod lsq;
pub mod policy;
pub mod ready;
pub mod rename;
mod rob;
pub mod runahead;
pub mod stats;
pub mod trace;
pub mod types;

pub use config::{ConfigError, CoreConfig, LevelSpec, RunaheadOpts, DEFAULT_WATCHDOG_CYCLES};
pub use core::Core;
pub use error::{PipelineError, StallSnapshot};
pub use events::{EngineCounters, EventQueue, WakeRing, WakeSource};
pub use policy::{DynamicResizingPolicy, FixedLevelPolicy, WindowPolicy};
pub use ready::ReadyRing;
pub use stats::{CoreStats, CpiBucket, DeltaError, IntervalSample, StatsDelta, CPI_BUCKETS};
pub use trace::{TraceEvent, TraceEventKind, Tracer};
pub use types::{DynInst, DynSeq, MemState, SeqList};
