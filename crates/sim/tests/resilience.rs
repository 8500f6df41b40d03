//! The experiment harness's in-process failure paths, end to end:
//! panic isolation, livelock detection and the per-spec deadline.

use mlpwin_sim::runner::{run_matrix, FaultSpec, RunSpec};
use mlpwin_sim::{SimError, SimModel};

fn healthy(profile: &str) -> RunSpec {
    RunSpec::new(profile, SimModel::Base).with_budget(2_000, 2_000)
}

/// The headline acceptance scenario: a matrix containing one
/// panicking spec, one livelocking spec and N healthy specs completes
/// with exactly N `Ok` outcomes and typed errors for the two faults.
#[test]
fn faulty_specs_fail_typed_while_siblings_complete() {
    let healthy_specs = [healthy("gcc"), healthy("milc"), healthy("sjeng")];
    let mut specs = vec![
        healthy("mcf").with_fault(FaultSpec::PanicAt(500)),
        // A tight watchdog keeps the livelock detection fast in tests.
        healthy("soplex")
            .with_fault(FaultSpec::LivelockAt(300))
            .with_watchdog(3_000),
    ];
    specs.extend(healthy_specs.iter().cloned());

    let outcomes = run_matrix(&specs, 4);
    assert_eq!(outcomes.len(), specs.len());

    match &outcomes[0] {
        Err(error) => {
            assert!(matches!(error, SimError::Panic { .. }), "{error:?}");
            assert!(
                error.to_string().contains("injected workload fault"),
                "{error}"
            );
        }
        other => panic!("panic spec must fail, got {other:?}"),
    }
    match &outcomes[1] {
        Err(error) => {
            let SimError::Pipeline(pipeline) = error else {
                panic!("livelock must surface as a pipeline error: {error:?}");
            };
            let snapshot = pipeline.snapshot();
            assert!(snapshot.stalled_for >= 3_000);
            assert!(snapshot.rob_len > 0, "frozen commit backs the window up");
        }
        other => panic!("livelock spec must fail, got {other:?}"),
    }
    for (spec, outcome) in specs[2..].iter().zip(&outcomes[2..]) {
        let result = outcome.as_ref().unwrap_or_else(|error| {
            panic!("healthy sibling {} must complete: {error:?}", spec.profile)
        });
        assert!(result.stats.committed_insts >= 2_000);
    }
    assert_eq!(
        outcomes.iter().filter(|o| o.is_ok()).count(),
        healthy_specs.len(),
        "exactly the healthy specs succeed"
    );
}

/// The deadline is a per-spec wall-cycle budget: an over-ambitious spec
/// fails typed while making progress, and nothing panics.
#[test]
fn deadline_bounds_a_runaway_spec() {
    let spec = RunSpec::new("mcf", SimModel::Base)
        .with_budget(0, u64::MAX / 2)
        .with_deadline(20_000);
    let outcomes = run_matrix(&[spec], 1);
    match &outcomes[0] {
        Err(error) => {
            assert_eq!(error.kind(), "deadline");
            let SimError::Pipeline(p) = error else {
                panic!("wrong error: {error:?}")
            };
            assert!(p.snapshot().committed_insts > 0, "was making progress");
        }
        other => panic!("deadline must fire, got {other:?}"),
    }
}

/// An injected panic counts instructions across warm-up and measurement
/// alike: the warm-up's counter reset does not restart the countdown.
#[test]
fn panic_countdown_crossing_the_warmup_reset_still_fires() {
    let spec = |insts| {
        RunSpec::new("gcc", SimModel::Base)
            .with_budget(1_000, insts)
            .with_fault(FaultSpec::PanicAt(2_000))
    };
    // The front end fetches at most a window ahead of commit, so 500
    // measured instructions stay short of the trigger: it does not fire
    // inside warm-up.
    let outcomes = run_matrix(&[spec(500), spec(1_500)], 2);
    assert!(outcomes[0].is_ok(), "{:?}", outcomes[0]);
    // 1,500 measured instructions reach it only if warm-up counts too.
    match &outcomes[1] {
        Err(error) => assert!(
            error.to_string().contains("injected workload fault"),
            "{error}"
        ),
        other => panic!("the countdown must fire after warm-up, got {other:?}"),
    }
}
