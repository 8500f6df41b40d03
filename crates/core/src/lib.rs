//! # mlpwin-core
//!
//! The paper's contribution: **MLP-aware dynamic instruction window
//! resizing** (Kora, Yamaguchi & Ando, MICRO-46 2013).
//!
//! The mechanism predicts when memory-level parallelism is exploitable
//! from the occurrence of last-level-cache misses — misses cluster in
//! time, so one miss predicts more — and resizes the window resources
//! accordingly:
//!
//! - **on an L2 miss**: raise the resource level by one (bigger, deeper
//!   ROB/IQ/LSQ; Table 2), and re-arm the shrink timer to now + memory
//!   latency;
//! - **when a full memory latency passes without a miss**: lower the
//!   level by one, as soon as the doomed tail regions of all three
//!   resources are simultaneously vacant (allocation stalls until then).
//!
//! [`DynamicResizingPolicy`] implements exactly the Fig. 5 pseudo-code on
//! top of the [`mlpwin_ooo::WindowPolicy`] interface; the vacancy check,
//! allocation stall and transition penalty are mechanics of the resizable
//! window itself and live in `mlpwin-ooo`.
//!
//! The paper's evaluated configurations — the base processor, the
//! fixed-size and un-pipelined *ideal* windows, the dynamic-resizing
//! proposal and its ablations — are `mlpwin_sim::SimModel`, which builds
//! each as a ready-to-run `(CoreConfig, policy)` pair.
//!
//! ## Example
//!
//! ```
//! use mlpwin_core::DynamicResizingPolicy;
//! use mlpwin_ooo::{Core, CoreConfig};
//! use mlpwin_workloads::profiles;
//!
//! // The Table 2 ladder under the Fig. 5 controller, shrinking one
//! // memory latency after the last L2 miss.
//! let config = CoreConfig::with_table2_levels();
//! let policy = DynamicResizingPolicy::new(config.memory.dram.min_latency);
//! let workload = profiles::by_name("omnetpp", 1).expect("profile");
//! let mut core = Core::new(config, workload, Box::new(policy));
//! let stats = core.run(2_000).expect("healthy run");
//! assert!(stats.committed_insts >= 2_000);
//! ```

pub mod policy;

pub use policy::DynamicResizingPolicy;

// Table 2 lives next to the resizable-window mechanics; re-export it here
// so downstream users find the paper's configuration at the paper's crate.
pub use mlpwin_ooo::{CoreConfig, LevelSpec};
