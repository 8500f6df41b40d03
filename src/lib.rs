//! # mlpwin
//!
//! **MLP-aware dynamic instruction window resizing** — a from-scratch
//! Rust reproduction of Kora, Yamaguchi & Ando, *"MLP-Aware Dynamic
//! Instruction Window Resizing for Adaptively Exploiting Both ILP and
//! MLP"*, MICRO-46 (2013), including the cycle-level out-of-order
//! superscalar simulator it is evaluated on.
//!
//! This facade crate re-exports the whole workspace:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`isa`] | `mlpwin-isa` | micro-ops, registers, trace records, PRNG |
//! | [`workloads`] | `mlpwin-workloads` | 28 SPEC2006-like deterministic workload profiles |
//! | [`branch`] | `mlpwin-branch` | gshare + BTB + RAS front end |
//! | [`memsys`] | `mlpwin-memsys` | caches, MSHRs, DRAM, stride prefetcher, provenance |
//! | [`ooo`] | `mlpwin-ooo` | the P6-style out-of-order core with a resizable window, **the paper's contribution** (the Fig. 5 resizing policy, [`ooo::DynamicResizingPolicy`]) and the runahead-execution comparison baseline ([`ooo::runahead`]) |
//! | [`energy`] | `mlpwin-energy` | McPAT-substitute energy/area model |
//! | [`sim`] | `mlpwin-sim` | model registry, experiment runner, report helpers |
//!
//! ## Quick start
//!
//! ```
//! use mlpwin::ooo::Core;
//! use mlpwin::sim::SimModel;
//! use mlpwin::workloads::profiles;
//!
//! // Build the paper's dynamic-resizing processor over the omnetpp-like
//! // workload and run a few thousand instructions.
//! let (config, policy) = SimModel::Dynamic.build();
//! let workload = profiles::by_name("omnetpp", 1).expect("profile");
//! let mut cpu = Core::new(config, workload, policy);
//! let stats = cpu.run(5_000).expect("healthy run");
//! println!("IPC {:.2} at level {:?}", stats.ipc(), stats.level_cycles);
//! # assert!(stats.ipc() > 0.0);
//! ```
//!
//! See `README.md` for the experiment harness that regenerates every
//! table and figure of the paper, and `DESIGN.md` for the system
//! inventory and substitution rationale.

pub use mlpwin_branch as branch;
pub use mlpwin_energy as energy;
pub use mlpwin_isa as isa;
pub use mlpwin_memsys as memsys;
pub use mlpwin_ooo as ooo;
pub use mlpwin_sim as sim;
pub use mlpwin_workloads as workloads;
