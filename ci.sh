#!/usr/bin/env bash
# The full local CI gate: everything must pass before a merge.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo build --release (with --timings report)"
cargo build --release --workspace --timings
# Retain the compile-time report next to the run's other artifacts so a
# build-speed regression is as visible as a runtime one.
mkdir -p target/ci-artifacts
cp target/cargo-timings/cargo-timing.html target/ci-artifacts/cargo-timing.html

echo "==> cargo test -q"
cargo test -q --workspace

echo "==> golden digests under the single-stepped engine"
# tests/golden_digests.rs pins every profile's journal line to fixed
# hashes; the workspace run above checked the default engine, and this
# leg pins the plain stepped loop to the very same values.
MLPWIN_NO_FAST_FORWARD=1 cargo test -q -p mlpwin --test golden_digests

echo "==> golden digests in the release profile"
# The legs above build the test profile; the benchmark and users run
# release code, whose inlining decisions differ, so pin it too.
cargo test --release -q -p mlpwin --test golden_digests

echo "==> matrix input order through a figure binary (1 vs 4 threads)"
# run_matrix hands results back in input order whatever the thread
# count, so a figure binary's stdout (fig9 prints no timings) must not
# depend on --threads.
rm -rf target/ci-artifacts/matrix
mkdir -p target/ci-artifacts/matrix
for t in 1 4; do
    target/release/fig9 --warmup 2000 --insts 4000 --threads "$t" \
        > "target/ci-artifacts/matrix/fig9-t$t.out"
done
diff target/ci-artifacts/matrix/fig9-t1.out target/ci-artifacts/matrix/fig9-t4.out
echo "    fig9 stdout is byte-identical at 1 and 4 threads"
# Every run's spec comes from ExpArgs::spec, so --seed must reach the
# workloads: seed 2 has to print something other than seed 1 (the
# default, which the two runs above used).
target/release/fig9 --warmup 2000 --insts 4000 --seed 2 \
    > target/ci-artifacts/matrix/fig9-seed2.out
if cmp -s target/ci-artifacts/matrix/fig9-t1.out target/ci-artifacts/matrix/fig9-seed2.out; then
    echo "FAIL: fig9 prints the same bytes at --seed 1 and --seed 2"; exit 1
fi
echo "    fig9 stdout differs between --seed 1 and --seed 2"

echo "==> every paper binary and root example exits zero"
# All 19 figure, table and ablation binaries at tiny budgets, plus the
# four root examples: a panic or a nonzero exit fails the leg. Each
# stdout and an md5sum list land in target/ci-artifacts/outputs/, so two
# revisions' outputs diff directly.
cargo build --release --examples -p mlpwin
rm -rf target/ci-artifacts/outputs
mkdir -p target/ci-artifacts/outputs
for bin in ablate_maxlevel ablate_penalty ablate_policy ablate_prefetcher \
    fig2 fig4 fig6 fig7 fig8 fig9 fig10 fig11 fig12 swmlp table3 table4 table5; do
    target/release/"$bin" --warmup 2000 --insts 4000 --threads 2 \
        > "target/ci-artifacts/outputs/$bin.out"
done
for bin in table1 table2; do # no flags: these two simulate nothing
    target/release/"$bin" > "target/ci-artifacts/outputs/$bin.out"
done
for example in miss_clustering phase_adaptive quickstart runahead_duel; do
    target/release/examples/"$example" > "target/ci-artifacts/outputs/example-$example.out"
done
(cd target/ci-artifacts/outputs && md5sum -- *.out > md5sums.txt)
echo "    19 paper binaries and 4 examples ran; outputs in target/ci-artifacts/outputs"

echo "==> mlpwin-benchmark --smoke (result checks only, no timing gate)"
# Every workload once at tiny budgets: the campaign legs' journals must
# be byte-identical to in-process runs and the exact split must stitch
# to the serial result, through the same snapshot, supervisor and
# settlement code the campaigns use. A failed check exits nonzero.
target/release/mlpwin-benchmark --smoke --out target/ci-artifacts/benchmark

echo "==> crash-recovery smoke (kill a worker mid-run, resume, diff journals)"
# Start a worker that aborts itself at its first snapshot past cycle
# 1500, re-run the identical command to resume from the snapshot, run an
# uninterrupted control, and demand byte-identical journals.
rm -rf target/ci-artifacts/recovery
mkdir -p target/ci-artifacts/recovery/{crashed,clean}
worker="target/release/mlpwin-sim"
run_worker() { # <dir> [extra args...]
    d="$1"; shift
    "$worker" --profile mcf --model dynamic --warmup 2000 --insts 4000 \
        --snapshot-dir "target/ci-artifacts/recovery/$d/snaps" --snapshot-cycles 400 \
        --journal "target/ci-artifacts/recovery/$d/journal.jsonl" "$@"
}
if run_worker crashed --chaos-kill-at 1500; then
    echo "FAIL: the chaos-killed worker exited cleanly"; exit 1
fi
run_worker crashed --chaos-kill-at 1500   # same command: resumes, completes
run_worker clean                          # uninterrupted control
diff target/ci-artifacts/recovery/crashed/journal.jsonl \
     target/ci-artifacts/recovery/clean/journal.jsonl
echo "    resumed journal is bit-identical to the clean run"

echo "==> split-equivalence smoke (4-interval split of a memory-bound run vs serial)"
# Exact-mode interval-parallel run of one memory-bound profile: the
# stitched journal must be byte-identical to the serial worker's.
rm -rf target/ci-artifacts/split
mkdir -p target/ci-artifacts/split
splitter="target/release/mlpwin-split"
"$worker" --profile mcf --model dynamic --warmup 2000 --insts 6000 \
    --snapshot-dir target/ci-artifacts/split/snaps --snapshot-cycles 1000000000 \
    --journal target/ci-artifacts/split/serial.jsonl
# mcf at this budget runs ~174k measured cycles: 44000-cycle intervals
# make a 4-interval split (three full intervals plus the tail).
"$splitter" --profile mcf --model dynamic --warmup 2000 --insts 6000 \
    --interval-cycles 44000 --workers 4 \
    --dir target/ci-artifacts/split/store \
    --journal target/ci-artifacts/split/split.jsonl \
    | tee target/ci-artifacts/split/split.out
grep -q 'intervals=4 ' target/ci-artifacts/split/split.out
diff target/ci-artifacts/split/serial.jsonl target/ci-artifacts/split/split.jsonl
echo "    4-interval stitched journal is bit-identical to the serial run"

echo "==> campaign smoke (worker kills + live observability scrape + cached rerun)"
# A three-spec campaign whose workers all chaos-abort once mid-run: the
# control plane must charge the deaths, resume from snapshots, and
# complete — while serving its observability plane. The controller runs
# in the background with --listen on an ephemeral port; once it
# publishes obs.addr, `mlpwin-serve --probe` (a self-contained client,
# no curl needed) fetches every endpoint mid-campaign and validates the
# Prometheus exposition and JSON payloads. Afterwards: the Chrome trace
# and flight-recorder dumps must exist, the progress line must count
# the three specs as settled and retried (every first attempt was
# killed; the counts come from the job queue), an identical campaign
# run with the listener off must finalize a bit-identical journal (the
# zero-cost contract), and a cached rerun must simulate nothing.
rm -rf target/ci-artifacts/campaign
mkdir -p target/ci-artifacts/campaign
controller="target/release/mlpwin-serve"
jobs=(--job gcc,base,2000,4000,1 --job mcf,dynamic,2000,4000,1 --job milc,base,2000,4000,1)
"$controller" --campaign target/ci-artifacts/campaign/first "${jobs[@]}" \
    --workers 2 --backoff-ms 30 --snapshot-cycles 400 --chaos-kill-at 1200 \
    --listen 127.0.0.1:0 --trace-out target/ci-artifacts/campaign/trace.json \
    --worker-exe "$worker" --progress \
    > target/ci-artifacts/campaign/first.out \
    2> target/ci-artifacts/campaign/first.err &
ctl_pid=$!
for _ in $(seq 1 400); do
    [ -s target/ci-artifacts/campaign/first/obs.addr ] && break
    if ! kill -0 "$ctl_pid" 2>/dev/null; then
        echo "FAIL: controller exited before publishing obs.addr"
        cat target/ci-artifacts/campaign/first.err
        exit 1
    fi
    sleep 0.05
done
obs_addr=$(cat target/ci-artifacts/campaign/first/obs.addr)
probe_ok=0
for _ in $(seq 1 20); do
    if "$controller" --probe "$obs_addr" | tee -a target/ci-artifacts/campaign/probe.out; then
        probe_ok=1
        break
    fi
    kill -0 "$ctl_pid" 2>/dev/null || break
    sleep 0.1
done
if [ "$probe_ok" != 1 ]; then
    echo "FAIL: observability probe never validated a live campaign"
    exit 1
fi
wait "$ctl_pid"
grep -q 'done=3' target/ci-artifacts/campaign/first.out
grep -q '"ph":"X"' target/ci-artifacts/campaign/trace.json
ls target/ci-artifacts/campaign/first/flightrec/*.json > /dev/null
# The trace is rendered from the WAL: one attempt span per lease record.
leases=$(grep -c '"op":"lease"' target/ci-artifacts/campaign/first/campaign.wal)
attempts=$(grep -oE '"job [0-9]+ attempt [0-9]+"' target/ci-artifacts/campaign/trace.json | wc -l)
if [ "$leases" -ne "$attempts" ]; then
    echo "FAIL: $leases lease records in the WAL but $attempts attempt spans in the trace"
    exit 1
fi
grep -qF '3/3 specs (0 failed, 3 retried)' target/ci-artifacts/campaign/first.err
echo "    live probe passed; trace, flight records and progress line written"
"$controller" --campaign target/ci-artifacts/campaign/silent "${jobs[@]}" \
    --workers 2 --backoff-ms 30 --snapshot-cycles 400 --chaos-kill-at 1200 \
    --worker-exe "$worker" > target/ci-artifacts/campaign/silent.out
diff target/ci-artifacts/campaign/first/journal.jsonl \
     target/ci-artifacts/campaign/silent/journal.jsonl
echo "    journal is bit-identical with the listener on and off"
# The same jobs at the default snapshot cadence, never killed: engine
# telemetry is not journaled, so the journal must match the 400-cycle,
# kill-and-resume run byte for byte.
"$controller" --campaign target/ci-artifacts/campaign/default "${jobs[@]}" \
    --workers 2 --worker-exe "$worker" > target/ci-artifacts/campaign/default.out
grep -q 'done=3' target/ci-artifacts/campaign/default.out
diff target/ci-artifacts/campaign/first/journal.jsonl \
     target/ci-artifacts/campaign/default/journal.jsonl
echo "    journal is bit-identical at the default snapshot cadence"
# The controller alone writes done.jsonl and banks each spec once: its
# lines are exactly the finalized journal's three, in completion order.
for run in first silent; do
    diff <(sort "target/ci-artifacts/campaign/$run/done.jsonl") \
         <(sort "target/ci-artifacts/campaign/$run/journal.jsonl")
done
echo "    done.jsonl holds one line per spec, written by the controller alone"
"$controller" --campaign target/ci-artifacts/campaign/rerun "${jobs[@]}" \
    --workers 2 --cache target/ci-artifacts/campaign/first/journal.jsonl \
    --worker-exe "$worker" | tee target/ci-artifacts/campaign/rerun.out
grep -q 'simulated=0' target/ci-artifacts/campaign/rerun.out
diff target/ci-artifacts/campaign/first/journal.jsonl \
     target/ci-artifacts/campaign/rerun/journal.jsonl
echo "    campaign survived worker kills; cached rerun simulated nothing"

echo "==> fleet netchaos (faulted TCP workers + SIGKILL vs serial reference)"
# The same three specs, sharded over loopback TCP across two
# mlpwin-worker processes whose send paths run seeded
# drop/duplicate/delay/partition schedules, with one worker SIGKILLed
# the moment the WAL shows it owning a job. The finalized journal must
# still byte-match a serial reference, and a fleet listener nobody
# connects to must degrade to the local threads and complete.
rm -rf target/ci-artifacts/fleet
mkdir -p target/ci-artifacts/fleet
fleetworker="target/release/mlpwin-worker"
for j in gcc,base mcf,dynamic milc,base; do
    "$worker" --profile "${j%%,*}" --model "${j##*,}" \
        --warmup 2000 --insts 4000 --seed 1 \
        --journal target/ci-artifacts/fleet/reference.jsonl > /dev/null
done
"$controller" --campaign target/ci-artifacts/fleet/run "${jobs[@]}" \
    --workers 1 --backoff-ms 30 --snapshot-cycles 400 --lease-ms 2000 \
    --fleet-listen 127.0.0.1:0 --worker-exe "$worker" \
    > target/ci-artifacts/fleet/run.out \
    2> target/ci-artifacts/fleet/run.err &
fleet_ctl=$!
for _ in $(seq 1 400); do
    [ -s target/ci-artifacts/fleet/run/fleet.addr ] && break
    if ! kill -0 "$fleet_ctl" 2>/dev/null; then
        echo "FAIL: controller exited before publishing fleet.addr"
        cat target/ci-artifacts/fleet/run.err
        exit 1
    fi
    sleep 0.05
done
fleet_addr=$(cat target/ci-artifacts/fleet/run/fleet.addr)
"$fleetworker" --connect "$fleet_addr" --name beta \
    --snapshot-dir target/ci-artifacts/fleet/snap-beta --snapshot-cycles 400 \
    --backoff-ms 50 --netfault seed=9,drop=25,dup=15,delay=1,partition=60 \
    > /dev/null 2>&1 &
beta_pid=$!
beta_killed=0
for _ in $(seq 1 400); do
    if grep -q 'beta#' target/ci-artifacts/fleet/run/campaign.wal 2>/dev/null; then
        kill -9 "$beta_pid" 2>/dev/null && beta_killed=1
        break
    fi
    kill -0 "$fleet_ctl" 2>/dev/null || break
    sleep 0.05
done
[ "$beta_killed" = 1 ] || echo "    (campaign outran beta; SIGKILL skipped)"
"$fleetworker" --connect "$fleet_addr" --name alpha \
    --snapshot-dir target/ci-artifacts/fleet/snap-alpha --snapshot-cycles 400 \
    --backoff-ms 50 --netfault seed=3,drop=30,dup=20,delay=1 \
    > /dev/null 2>&1 &
alpha_pid=$!
wait "$fleet_ctl"
kill -9 "$beta_pid" "$alpha_pid" 2>/dev/null || true
wait "$beta_pid" "$alpha_pid" 2>/dev/null || true
grep -q 'done=3' target/ci-artifacts/fleet/run.out
diff target/ci-artifacts/fleet/reference.jsonl \
     target/ci-artifacts/fleet/run/journal.jsonl
if [ -e target/ci-artifacts/fleet/run/fleet.addr ]; then
    echo "FAIL: fleet.addr not removed at campaign end"
    exit 1
fi
echo "    faulted fleet + SIGKILL finalized the bit-identical journal"
"$controller" --campaign target/ci-artifacts/fleet/degraded "${jobs[@]}" \
    --workers 2 --backoff-ms 30 --snapshot-cycles 400 \
    --fleet-listen 127.0.0.1:0 --progress --worker-exe "$worker" \
    > target/ci-artifacts/fleet/degraded.out \
    2> target/ci-artifacts/fleet/degraded.err
grep -q 'done=3' target/ci-artifacts/fleet/degraded.out
grep -q 'fleet=0 (degraded)' target/ci-artifacts/fleet/degraded.err
diff target/ci-artifacts/fleet/reference.jsonl \
     target/ci-artifacts/fleet/degraded/journal.jsonl
echo "    workerless fleet degraded to local threads and completed"

echo "==> snapshot-overhead test (default cadence, >5% fails)"
# crates/sim/tests/snapshot_overhead.rs, ignored in the debug test run
# above: a pinned suite through the recoverable runner at the default
# snapshot cadence (snapshot::DEFAULT_SNAPSHOT_CADENCE), failing when
# the simulating thread's time in snapshot encode + handoff exceeds 5%
# of a category's wall time. Both are measured inside each run, so
# host-speed drift between runs cannot move the share. Best of five
# attempts (with a settle pause between) smooths transient contention.
for attempt in 1 2 3 4 5; do
    if cargo test --release -q -p mlpwin-sim --test snapshot_overhead -- --ignored; then
        break
    fi
    if [ "$attempt" -eq 5 ]; then
        echo "FAIL: snapshot-overhead test failed on all 5 attempts"
        exit 1
    fi
    echo "    attempt $attempt over threshold; settling, then retrying"
    sleep 15
done

echo "==> mlpwin-gate (paired same-host benchmark against the base revision)"
# Extracts the base revision (HEAD~1 on a clean tree, HEAD when the
# working tree differs) into target/gate/base and runs the unchanged
# repository benchmark on base and working tree alternately, 7 pairs.
# Fails when a workload's end-to-end metric is worse than the base by
# more than its BENCHMARK.json bound in the median pair, when the change
# fails more benchmark checks, or when a workload or metric is missing.
cargo run --release -q -p mlpwin-bench --bin mlpwin-gate

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc -D warnings (intra-doc links)"
# A broken or private intra-doc link is a rustdoc warning, which no
# other leg sees.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

echo "==> CI green"
