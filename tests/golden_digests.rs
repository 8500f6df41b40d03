//! Golden result digests: an FNV-1a hash of every profile's journal
//! line under the base, dynamic and runahead models at a small budget,
//! pinned to values captured from a known-good build.
//!
//! The other equivalence suites compare two execution modes of the same
//! scheduler (fast-forward on against off, split against serial), so a
//! change both modes share moves both sides together and still passes.
//! This suite compares against fixed numbers instead: any change to a
//! simulated result fails it. The runner reads `MLPWIN_NO_FAST_FORWARD`,
//! so running this test under that variable pins the plain stepped loop
//! to the same values (`ci.sh` runs the default engine, the stepped
//! loop, and the release build).
//!
//! A second table pins the bytes of `Core::snapshot()` images taken at
//! a fixed measured cycle. The journal line covers only what a run
//! reports; the image also covers the byte order of every counter
//! record's snapshot codec, so two swapped counters fail here even when
//! both hold the same value at the end of the run.
//!
//! A deliberate model change must regenerate the tables: the failure
//! message prints the complete replacement.

use mlpwin::ooo::Core;
use mlpwin::sim::journal::encode_line;
use mlpwin::sim::runner::{run_matrix, RunSpec};
use mlpwin::sim::SimModel;
use mlpwin::workloads::profiles;

const WARMUP: u64 = 2_000;
const INSTS: u64 = 2_000;
const SEED: u64 = 1;
const MODELS: [SimModel; 3] = [SimModel::Base, SimModel::Dynamic, SimModel::Runahead];

/// `(profile, model tag, FNV-1a of the journal line)`, in
/// [`all_profiles`] × [`MODELS`] order.
const EXPECTED: &[(&str, &str, u64)] = &[
    ("hmmer", "base", 0x75f74be2486fbb0a),
    ("hmmer", "dynamic", 0x86298f1dd6d7555d),
    ("hmmer", "runahead", 0xb41282b1cb2c236f),
    ("libquantum", "base", 0xc0d18428bbf4782e),
    ("libquantum", "dynamic", 0x3fbffe1545995f25),
    ("libquantum", "runahead", 0x8469fe269dcf16bc),
    ("mcf", "base", 0x887db73b383688f2),
    ("mcf", "dynamic", 0x329052091b61590c),
    ("mcf", "runahead", 0x6b7e732c85412382),
    ("omnetpp", "base", 0x4dbba29f9775e935),
    ("omnetpp", "dynamic", 0x3d0057d9819c1e5e),
    ("omnetpp", "runahead", 0x88bcc5d50e1f3b78),
    ("xalancbmk", "base", 0x5833c71648403a0b),
    ("xalancbmk", "dynamic", 0xd315a46ef701a26f),
    ("xalancbmk", "runahead", 0x6d78d2ed7f601372),
    ("GemsFDTD", "base", 0x57660caf60cd9ad6),
    ("GemsFDTD", "dynamic", 0x594a61a60bf88c94),
    ("GemsFDTD", "runahead", 0x4a8a6412cfcee155),
    ("lbm", "base", 0x0aa9abc25cc648e9),
    ("lbm", "dynamic", 0x7a49a2f9a144d7df),
    ("lbm", "runahead", 0x48626b7a39516dab),
    ("leslie3d", "base", 0x42d2c05668d9e9bf),
    ("leslie3d", "dynamic", 0x4268e395084c8883),
    ("leslie3d", "runahead", 0x17aec0882e34a593),
    ("milc", "base", 0xbb86a39177c14e6c),
    ("milc", "dynamic", 0x549377a5a0bfdac3),
    ("milc", "runahead", 0x88ad90d9d66a1a9a),
    ("soplex", "base", 0x219121a040a8a792),
    ("soplex", "dynamic", 0x1b001fadf2c433aa),
    ("soplex", "runahead", 0x094969d60a8eadd5),
    ("sphinx3", "base", 0x9dcbe1ef5d99433a),
    ("sphinx3", "dynamic", 0x83f786915a65513d),
    ("sphinx3", "runahead", 0x843c1655d15109ed),
    ("astar", "base", 0xe7466b88dd72689a),
    ("astar", "dynamic", 0xe1b8ea2f36f827cb),
    ("astar", "runahead", 0x3d8da5bd100b2b0a),
    ("bzip2", "base", 0xf157c5a21fd10c2c),
    ("bzip2", "dynamic", 0x17d4887c4304f260),
    ("bzip2", "runahead", 0x9e998d698f7136b3),
    ("gcc", "base", 0x439de3ad9b5b5d8d),
    ("gcc", "dynamic", 0x4f0259a74b0f5967),
    ("gcc", "runahead", 0x172b2016d2a803b7),
    ("gobmk", "base", 0x1ba37d0b41864fec),
    ("gobmk", "dynamic", 0x9ef81096bb8fb6b1),
    ("gobmk", "runahead", 0x117ea86f295002bd),
    ("h264ref", "base", 0x95f6172f09d8f2d8),
    ("h264ref", "dynamic", 0x0447b5cbf934f176),
    ("h264ref", "runahead", 0xa913dd74ac2cd21b),
    ("perlbench", "base", 0x0ece82f341fbdd27),
    ("perlbench", "dynamic", 0x94b557730557b711),
    ("perlbench", "runahead", 0x644a439a5abab4f6),
    ("sjeng", "base", 0xb33c17ba0caf0445),
    ("sjeng", "dynamic", 0x38304ccf67015c60),
    ("sjeng", "runahead", 0xe7b043477523ee38),
    ("bwaves", "base", 0xd595f4a2b030e0a6),
    ("bwaves", "dynamic", 0xb09da1f7cc550597),
    ("bwaves", "runahead", 0x097f320e1f77477d),
    ("cactusADM", "base", 0xd5a57263b549e0e2),
    ("cactusADM", "dynamic", 0x9d2550c55b7d6c6b),
    ("cactusADM", "runahead", 0x5d1bd5e90871ff7e),
    ("calculix", "base", 0x506c2fe7a8ccd0bc),
    ("calculix", "dynamic", 0x809dfbc3822b956e),
    ("calculix", "runahead", 0xfa3c0954dc34cae7),
    ("dealII", "base", 0x3f6c5f6b525705a0),
    ("dealII", "dynamic", 0x966ef9c9092b7501),
    ("dealII", "runahead", 0xec383f801ac30d57),
    ("gamess", "base", 0x566cc1976ec87f0d),
    ("gamess", "dynamic", 0xf4bd90c86d3d918c),
    ("gamess", "runahead", 0x1859808629382391),
    ("gromacs", "base", 0xab134207d3fe5ed6),
    ("gromacs", "dynamic", 0x535087bbe7b1d163),
    ("gromacs", "runahead", 0x866baf13df2d7c07),
    ("namd", "base", 0x341a1b0ee25be7a9),
    ("namd", "dynamic", 0x8fb9c8c752758e9d),
    ("namd", "runahead", 0xb58b1c711979baf5),
    ("povray", "base", 0x11ec7a3075023ef4),
    ("povray", "dynamic", 0x9865bca0dc2b9a28),
    ("povray", "runahead", 0x5d43a7fe0794370e),
    ("tonto", "base", 0xaaf2d54d614422d6),
    ("tonto", "dynamic", 0xd08d0c83629ed56d),
    ("tonto", "runahead", 0x09f1e561f5f2406a),
    ("zeusmp", "base", 0x2dcc2294d751115d),
    ("zeusmp", "dynamic", 0x6f5d6dc203f6476b),
    ("zeusmp", "runahead", 0x4400a5a9199e7690),
    ("chase-batch", "base", 0x9812fc7cf8ad4c09),
    ("chase-batch", "dynamic", 0xe39558a297843b0f),
    ("chase-batch", "runahead", 0xc994f208c0f3bdc1),
    ("hash-probe", "base", 0x4fc259cffb0b38fe),
    ("hash-probe", "dynamic", 0x24d1f76acc940a94),
    ("hash-probe", "runahead", 0x2c8d22fb19c05c31),
];

/// The 28 Table 3 profiles, then the software-MLP extensions.
fn all_profiles() -> Vec<&'static str> {
    let mut names = profiles::names();
    names.extend(profiles::software_mlp_names());
    names
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn journal_lines_match_the_golden_digests() {
    let specs: Vec<RunSpec> = all_profiles()
        .into_iter()
        .flat_map(|p| MODELS.map(|m| RunSpec::new(p, m).with_budget(WARMUP, INSTS)))
        .map(|mut s| {
            s.seed = SEED;
            s
        })
        .collect();
    let actual: Vec<(String, String, u64)> = run_matrix(&specs, 2)
        .iter()
        .zip(&specs)
        .map(|(outcome, spec)| {
            let result = outcome.as_ref().expect("healthy spec");
            let digest = fnv1a(encode_line(spec, result).as_bytes());
            (spec.profile.clone(), spec.model.tag(), digest)
        })
        .collect();
    check_table("journal lines", &actual, EXPECTED);
}

/// Fails with the complete replacement table when `actual` differs
/// from `expected`.
fn check_table(what: &str, actual: &[(String, String, u64)], expected: &[(&str, &str, u64)]) {
    let expected: Vec<(String, String, u64)> = expected
        .iter()
        .map(|&(p, m, d)| (p.to_string(), m.to_string(), d))
        .collect();
    if actual != expected {
        let table: String = actual
            .iter()
            .map(|(p, m, d)| format!("    ({p:?}, {m:?}, 0x{d:016x}),\n"))
            .collect();
        let moved: Vec<String> = actual
            .iter()
            .filter(|row| !expected.contains(row))
            .map(|(p, m, _)| format!("{p}/{m}"))
            .collect();
        panic!(
            "{what} moved for {} of {} runs ({}); \
             if the change is deliberate, replace the table with:\n{table}",
            moved.len(),
            actual.len(),
            moved.join(", ")
        );
    }
}

/// Measured cycle the snapshot images are taken at. It is the snapshot
/// cadence too, so the fast-forward stops exactly on it.
const SNAPSHOT_CYCLE: u64 = 1_500;
/// Interval epoch of the imaged runs, so the interval series is in the
/// image.
const SNAPSHOT_EPOCH: u64 = 250;
/// Commit target armed for the imaged runs: far past what
/// [`SNAPSHOT_CYCLE`] cycles commit, so every run is paused mid-way.
const SNAPSHOT_INSTS: u64 = 100_000;

/// `(profile, model tag, FNV-1a of the snapshot image)`.
const EXPECTED_SNAPSHOTS: &[(&str, &str, u64)] = &[
    ("mcf", "base", 0xbf381b3183dd9b79),
    ("mcf", "dynamic", 0x168db367a1740309),
    ("mcf", "runahead", 0x7cac2caa359f139a),
    ("gcc", "base", 0xc47b47a9da02bb30),
    ("gcc", "dynamic", 0xe95c03386be03fc5),
    ("gcc", "runahead", 0x6cd8d348758e7bfc),
    ("lbm", "base", 0xb3cd570f3a4a9442),
    ("lbm", "dynamic", 0x63263889eefbcdfd),
    ("lbm", "runahead", 0x828df82daeb6ddef),
];

/// The core of `profile` under `model` after warm-up, paused at
/// [`SNAPSHOT_CYCLE`] measured cycles into its measurement run, with
/// the event trace on or off, and the number of events it recorded.
fn snapshot_image(profile: &str, model: SimModel, trace: bool) -> (Vec<u8>, u64) {
    let (mut config, policy) = model.build();
    config.trace = trace;
    config.fast_forward = std::env::var_os("MLPWIN_NO_FAST_FORWARD").is_none();
    config.snapshot_cycles = Some(SNAPSHOT_CYCLE);
    config.interval_cycles = Some(SNAPSHOT_EPOCH);
    let workload = profiles::by_name(profile, SEED).expect("known profile");
    let mut core = Core::try_new(config, workload, policy).expect("valid config");
    core.run_warmup(WARMUP).expect("healthy warm-up");
    core.arm_run(SNAPSHOT_INSTS);
    let finished = core.run_to_cycle(SNAPSHOT_CYCLE).expect("healthy run");
    assert!(
        !finished,
        "{profile}/{}: finished before the snapshot",
        model.tag()
    );
    assert_eq!(core.stats().cycles, SNAPSHOT_CYCLE);
    assert_eq!(core.tracer().is_some(), trace);
    let events = core.tracer().map_or(0, |t| t.recorded());
    (core.snapshot(), events)
}

/// Each image hashes to its pinned value with the event trace off and
/// on: running the trace hooks moves no byte of simulated state.
#[test]
fn snapshot_images_match_the_golden_digests() {
    for trace in [false, true] {
        let mut events = 0;
        let actual: Vec<(String, String, u64)> = ["mcf", "gcc", "lbm"]
            .into_iter()
            .flat_map(|p| MODELS.map(|m| (p, m)))
            .map(|(p, m)| {
                let (image, recorded) = snapshot_image(p, m, trace);
                events += recorded;
                (p.to_string(), m.tag(), fnv1a(&image))
            })
            .collect();
        assert_eq!(events > 0, trace, "traced runs must record events");
        check_table(
            &format!("snapshot images (trace {trace})"),
            &actual,
            EXPECTED_SNAPSHOTS,
        );
    }
}
