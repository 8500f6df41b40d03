//! Randomized (property-style) tests of cross-crate invariants.
//!
//! Implemented over the workspace's own deterministic
//! [`Xoshiro256StarStar`] generator instead of an external
//! property-testing crate, so the suite builds offline. Each test sweeps
//! a fixed number of seeded random cases; failures print the case seed
//! so a reproduction is one constant away.

use mlpwin::branch::{BranchPredictor, PredictorConfig};
use mlpwin::isa::{Instruction, Xoshiro256StarStar};
use mlpwin::memsys::{AccessKind, Cache, CacheConfig, MemSystem, MemSystemConfig, PathKind};
use mlpwin::ooo::{DynamicResizingPolicy, WindowPolicy};
use mlpwin::workloads::{
    MemPattern, PhaseParams, ProfileParams, ProfileWorkload, TraceWindow, Workload,
};

/// Arbitrary-but-valid phase parameters drawn from `rng`.
fn random_phase(rng: &mut Xoshiro256StarStar) -> PhaseParams {
    let unit = |rng: &mut Xoshiro256StarStar, lo: f64, hi: f64| lo + rng.unit_f64() * (hi - lo);
    PhaseParams {
        len: 10_000,
        body_len: rng.range_between(16, 256) as usize,
        load_frac: unit(rng, 0.05, 0.35),
        store_frac: unit(rng, 0.0, 0.15),
        branch_frac: unit(rng, 0.0, 0.20),
        branch_bias: unit(rng, 0.5, 1.0),
        fp_frac: unit(rng, 0.0, 0.8),
        longlat_frac: 0.1,
        dep_depth: rng.range_between(1, 16) as usize,
        chase_frac: unit(rng, 0.0, 0.6),
        working_set: 1 << 20,
        pattern: match rng.range(4) {
            0 => MemPattern::Stream { stride: 8 },
            1 => MemPattern::Random,
            2 => MemPattern::BurstyRandom {
                burst: 16,
                region: 4096,
            },
            _ => MemPattern::RandomChunk { run: 6, reuse: 0.5 },
        },
    }
}

/// Every generated stream is PC-consistent and structurally valid, for
/// arbitrary valid phase parameters.
#[test]
fn generated_streams_are_always_pc_consistent() {
    for case in 0..24u64 {
        let mut rng = Xoshiro256StarStar::seed_from(0xA11CE + case);
        let phase = random_phase(&mut rng);
        let seed = rng.range(1000);
        let params = ProfileParams {
            name: "prop",
            category: mlpwin::workloads::Category::ComputeIntensive,
            is_fp: false,
            phases: vec![phase],
        };
        let mut w = ProfileWorkload::new(params, seed).expect("valid params");
        let mut prev: Option<Instruction> = None;
        for _ in 0..3_000 {
            let inst = w.next_inst();
            inst.validate().expect("structurally valid");
            if let Some(p) = prev {
                assert_eq!(p.successor_pc(), inst.pc, "case {case}: pc chain broken");
            }
            prev = Some(inst);
        }
    }
}

/// Rewinding a trace window replays the identical instructions.
#[test]
fn trace_window_rewind_is_exact() {
    for case in 0..24u64 {
        let mut rng = Xoshiro256StarStar::seed_from(0xB0B + case);
        let seed = rng.range(500);
        let ahead = rng.range_between(1, 3000);
        let w = mlpwin::workloads::profiles::by_name("gcc", seed).expect("profile");
        let mut win = TraceWindow::new(w);
        let first: Vec<Instruction> = (0..100).map(|s| win.get(s).clone()).collect();
        let _ = win.get(100 + ahead); // run ahead
        for (s, expect) in first.iter().enumerate() {
            assert_eq!(win.get(s as u64), expect, "case {case}: rewind diverged");
        }
    }
}

/// Cache fills never exceed capacity and LRU keeps the most recent line
/// of any filled set resident.
#[test]
fn cache_capacity_and_recency() {
    for case in 0..24u64 {
        let mut rng = Xoshiro256StarStar::seed_from(0xCAFE + case);
        let mut c = Cache::new(CacheConfig {
            size_bytes: 4096,
            assoc: 2,
            line_bytes: 64,
            hit_latency: 1,
        });
        let meta = mlpwin::memsys::cache::LineMeta {
            provenance: mlpwin::memsys::Provenance::DemandCorrect,
            touched_by_correct_path: false,
        };
        let n = rng.range_between(1, 300);
        for _ in 0..n {
            let a = rng.range(1 << 16);
            c.fill(a, meta);
            assert!(c.resident_count() <= 64, "case {case}: capacity exceeded");
            assert!(
                c.contains(a),
                "case {case}: just-filled line must be resident"
            );
        }
    }
}

/// The memory system never returns a completion earlier than its own hit
/// latency, and monotone `now` keeps results causal.
#[test]
fn memsys_results_are_causal() {
    for case in 0..24u64 {
        let mut rng = Xoshiro256StarStar::seed_from(0xD00D + case);
        let mut m = MemSystem::new(MemSystemConfig::default());
        let stride = rng.range_between(1, 64);
        let n = rng.range_between(1, 200);
        let mut now = 0;
        for i in 0..n {
            now += stride;
            let a = rng.range(1 << 30);
            let r = m.access(
                AccessKind::Load,
                0x1000 + (i % 16) * 4,
                a * 8,
                now,
                PathKind::Correct,
            );
            assert!(r.ready_at >= now + 2, "case {case}: faster than the L1 hit");
            assert!(r.ready_at <= now + 100_000, "case {case}: implausibly slow");
        }
    }
}

/// The Fig. 5 controller's level stays within bounds and shrinks are
/// armed only after a full memory latency without misses.
#[test]
fn controller_level_always_in_range() {
    for case in 0..24u64 {
        let mut rng = Xoshiro256StarStar::seed_from(0xE66 + case);
        let mut p = DynamicResizingPolicy::new(300);
        let mut level = 0usize;
        let mut last_miss: Option<u64> = None;
        let n = rng.range_between(1, 2000);
        for t in 0..n {
            let miss = rng.chance(0.5);
            let target = p.target_level(t, miss as u32, level, 2);
            assert!(target <= 2, "case {case}");
            if target != level {
                if target < level {
                    // A shrink request requires >= one memory latency of
                    // miss-free cycles since the last miss (or start).
                    if let Some(lm) = last_miss {
                        assert!(
                            t >= lm + 300,
                            "case {case}: shrink at {t} after miss at {lm}"
                        );
                    }
                }
                p.on_transition(t, level, target);
                level = target;
            }
            if miss {
                last_miss = Some(t);
                assert!(
                    level > 0 || target > 0,
                    "case {case}: miss must enlarge below max"
                );
            }
        }
    }
}

/// The tracer ring buffer honours its bounds for arbitrary event
/// streams: length never exceeds capacity, buffered events stay in
/// cycle order, and the drop counter accounts for every overflow
/// (`recorded = len + dropped`).
#[test]
fn tracer_ring_buffer_bounds_and_accounting() {
    use mlpwin::ooo::{TraceEventKind, Tracer};
    for case in 0..24u64 {
        let mut rng = Xoshiro256StarStar::seed_from(0x7ACE + case);
        let capacity = rng.range_between(1, 64) as usize;
        let mut t = Tracer::new(capacity);
        let n = rng.range_between(0, 300);
        let mut cycle = 0u64;
        for i in 0..n {
            cycle += rng.range(5); // non-decreasing, repeats allowed
            t.record(cycle, TraceEventKind::Squash { at_seq: i });
            assert!(t.len() <= capacity, "case {case}: ring overflowed");
            assert_eq!(
                t.recorded(),
                t.len() as u64 + t.dropped(),
                "case {case}: drop accounting broken"
            );
        }
        assert_eq!(t.recorded(), n, "case {case}: every record counted");
        assert_eq!(t.dropped(), n.saturating_sub(capacity as u64));
        let cycles: Vec<u64> = t.events().map(|e| e.cycle).collect();
        assert!(
            cycles.windows(2).all(|w| w[0] <= w[1]),
            "case {case}: buffered events out of order"
        );
    }
}

/// With tracing on, the trace tells the same story as the counters:
/// one `LevelUp`/`LevelDown` per counted transition, one `Squash` per
/// squash, one `RunaheadEnter` per episode, and one `LlcMiss` per fresh
/// data-side L2 demand miss (loads on any path, stores at commit).
///
/// The memory system's `l2_demand_misses` also counts instruction-fetch
/// L2 misses, which have no trace hook (the front end stalls on them;
/// they never reach the window policy). So it bounds the `LlcMiss`
/// count from above. Under resizing the two are equal in these runs:
/// fetch stays within one window of commit, in code the warm-up already
/// brought into the L2. Runahead fetches far past the stalled head into
/// code no one has fetched yet, so there the I-side misses show.
///
/// Counts use `recorded()`-complete rings (nothing dropped), so ring
/// overflow cannot hide a miscount.
#[test]
fn trace_event_counts_match_the_counters() {
    use mlpwin::ooo::{Core, TraceEventKind};
    use mlpwin::sim::SimModel;
    use mlpwin::workloads::profiles;
    for profile in ["mcf", "lbm", "gcc", "milc"] {
        for model in [SimModel::Dynamic, SimModel::Runahead] {
            for seed in 1..=2u64 {
                let case = format!("{profile}/{}/seed {seed}", model.tag());
                let (mut config, policy) = model.build();
                config.trace = true;
                let workload = profiles::by_name(profile, seed).expect("known profile");
                let mut core = Core::try_new(config, workload, policy).expect("valid config");
                core.run_warmup(3_000).expect("healthy warm-up");
                let stats = core.run(4_000).expect("healthy run");
                let tracer = core.tracer().expect("tracing is on");
                assert_eq!(tracer.dropped(), 0, "{case}: ring overflowed");
                let count = |want: fn(&TraceEventKind) -> bool| {
                    tracer.events().filter(|e| want(&e.kind)).count() as u64
                };
                let ups = count(|k| matches!(k, TraceEventKind::LevelUp { .. }));
                let downs = count(|k| matches!(k, TraceEventKind::LevelDown { .. }));
                let squashes = count(|k| matches!(k, TraceEventKind::Squash { .. }));
                let enters = count(|k| matches!(k, TraceEventKind::RunaheadEnter { .. }));
                let exits = count(|k| matches!(k, TraceEventKind::RunaheadExit { .. }));
                let misses = count(|k| matches!(k, TraceEventKind::LlcMiss { .. }));
                assert_eq!(
                    tracer.recorded(),
                    ups + downs + squashes + enters + exits + misses,
                    "{case}: every recorded event is one of the six kinds"
                );
                assert_eq!(ups, stats.transitions_up, "{case}: level-ups");
                assert_eq!(downs, stats.transitions_down, "{case}: level-downs");
                assert_eq!(squashes, stats.squashes, "{case}: squashes");
                assert_eq!(enters, stats.runahead_episodes, "{case}: runahead entries");
                assert!(
                    exits == enters || exits + 1 == enters,
                    "{case}: {exits} exits for {enters} entries"
                );
                let l2 = core.mem().stats().l2_demand_misses;
                assert!(
                    misses <= l2,
                    "{case}: {misses} traced LLC misses, {l2} counted"
                );
                if model == SimModel::Runahead {
                    assert_eq!(ups + downs, 0, "{case}: runahead never resizes");
                } else {
                    assert_eq!(enters, 0, "{case}: resizing never runs ahead");
                    assert_eq!(misses, l2, "{case}: an I-side L2 miss under resizing");
                }
            }
        }
    }
}

/// Interval samples land exactly on epoch boundaries of the measured
/// clock, with occupancies bounded by the provisioned window and
/// per-epoch commits bounded by the machine's commit bandwidth.
#[test]
fn interval_samples_respect_epoch_boundaries_and_bounds() {
    use mlpwin::sim::runner::{run, RunSpec};
    use mlpwin::sim::SimModel;
    let profiles = ["libquantum", "gcc", "omnetpp"];
    for case in 0..6u64 {
        let mut rng = Xoshiro256StarStar::seed_from(0xE90C + case);
        let epoch = rng.range_between(100, 2_000);
        let profile = profiles[rng.range(profiles.len() as u64) as usize];
        let spec = RunSpec::new(profile, SimModel::Dynamic)
            .with_budget(3_000, 3_000)
            .with_intervals(epoch);
        let r = run(&spec).expect("healthy run");
        let max_rob = 512; // the dynamic ladder's largest level
        let commit_width = 4;
        for (i, sample) in r.stats.intervals.iter().enumerate() {
            assert_eq!(
                sample.end_cycle,
                (i as u64 + 1) * epoch,
                "case {case}: sample off the epoch grid (epoch {epoch})"
            );
            assert!(sample.rob_occ <= max_rob, "case {case}");
            assert!(sample.level < 3, "case {case}: level out of ladder");
            assert!(
                sample.committed_insts <= epoch * commit_width,
                "case {case}: more commits than bandwidth allows"
            );
        }
    }
}

/// The branch predictor is self-consistent on arbitrary outcome
/// sequences: speculative history repair never panics and stats add up.
#[test]
fn predictor_handles_arbitrary_outcomes() {
    for case in 0..24u64 {
        let mut rng = Xoshiro256StarStar::seed_from(0xF00 + case);
        let mut bp = BranchPredictor::new(PredictorConfig::default());
        let n = rng.range_between(1, 500);
        for _ in 0..n {
            let taken = rng.chance(0.5);
            let pc = 0x400 + rng.range(64) * 4;
            let br = Instruction::cond_branch(pc, mlpwin::isa::ArchReg::int(1), taken, 0x9000);
            let o = bp.predict(&br);
            bp.resolve(&br, &o);
        }
        let s = bp.stats();
        assert_eq!(s.conditional_branches, n, "case {case}");
        assert!(
            s.direction_mispredicts <= s.conditional_branches,
            "case {case}"
        );
    }
}
