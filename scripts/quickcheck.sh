#!/usr/bin/env bash
# Quick development loop: configure + build + fast test subset + the
# run-diff regression-gate self-consistency smoke.
#
# Runs everything EXCEPT the slow end-to-end flow suites (`ctest -LE slow`;
# the two `flowbench_smoke_*` tests are the exception, run explicitly after),
# which covers all unit/property tests including the design-database suites
# (`ctest -L db` selects just those; four of them run one tiny flow each to
# pin every checkpoint section's bytes, cut every section short, feed ids
# past the netlist and break each decode rule), the telemetry suites
# (`ctest -L obs`), the flow-service protocol/queue suites
# (`ctest -L serve`), and the perf smokes (`ctest -L perf`: bench_route
# --smoke asserts the windowed search pops fewer nodes than full-grid at
# equal-or-better QoR; bench_serve --smoke asserts the serving cache-reuse
# contract; bench_hpwl_ablation and bench_sta --smoke check the placer and
# timing engines).
# Use `ctest --test-dir build` with no label filter for the full tier-1 run.
#
# Usage: scripts/quickcheck.sh [build-dir]   (default: build)
#        scripts/quickcheck.sh --sanitize address,undefined|thread [build-dir]
#
# --sanitize configures a separate build tree (default build-asan or
# build-tsan) with -DM3D_SANITIZE=<list>, builds it and runs the tests only:
# address,undefined runs `ctest -LE slow`, the DbCheckpoint tests and so
# every decoder's rejection paths included; thread runs the suites that
# exercise the thread pool and the daemon's threads (every *Determinism
# suite, PlacerGolden, VerifyGolden, Parallel, StaIncr, DbStageCache,
# ObsPoolTrace and Serve*). Any sanitizer finding aborts its test, so a
# green run is clean.
set -euo pipefail

cd "$(dirname "$0")/.."

if [ "${1:-}" = "--sanitize" ]; then
  SANITIZE="${2:?--sanitize needs address,undefined or thread}"
  case "$SANITIZE" in
    thread) BUILD_DIR="${3:-build-tsan}" ;;
    *) BUILD_DIR="${3:-build-asan}" ;;
  esac
  cmake -B "$BUILD_DIR" -DCMAKE_BUILD_TYPE=RelWithDebInfo -DM3D_SANITIZE="$SANITIZE"
  if [ "$SANITIZE" = thread ]; then
    cmake --build "$BUILD_DIR" -j "$(nproc)" --target m3d_tests
    TSAN_OPTIONS="halt_on_error=1 second_deadlock_stack=1" \
      ctest --test-dir "$BUILD_DIR" --output-on-failure --parallel "$(nproc)" \
      -R 'Determinism|PlacerGolden|VerifyGolden|^Parallel\.|StaIncr|DbStageCache|ObsPoolTrace|^Serve'
  else
    cmake --build "$BUILD_DIR" -j "$(nproc)"
    ASAN_OPTIONS="detect_leaks=1" UBSAN_OPTIONS="print_stacktrace=1" \
      ctest --test-dir "$BUILD_DIR" -LE slow --output-on-failure --parallel "$(nproc)"
  fi
  echo "quickcheck: $SANITIZE sanitizer run clean"
  exit 0
fi

BUILD_DIR="${1:-build}"

if [ ! -f "$BUILD_DIR/CMakeCache.txt" ]; then
  cmake -B "$BUILD_DIR" -DCMAKE_BUILD_TYPE=Release
fi
cmake --build "$BUILD_DIR" -j "$(nproc)"
ctest --test-dir "$BUILD_DIR" -LE slow --output-on-failure "${CTEST_ARGS:---parallel $(nproc)}"

# The flowbench smokes carry the slow label, but they are the only tests
# that check that the stage keys name the checkpoint files and that a
# re-saved checkpoint is byte-identical (about 7 s), so run them too.
ctest --test-dir "$BUILD_DIR" -R '^flowbench_smoke_' --output-on-failure

# Regression-gate self-consistency smoke: run bench_route --smoke twice and
# diff the two BENCH_route_smoke.json dumps with m3d_report. Routing is
# deterministic, so every metric except wall clock must match exactly; the
# loose wall threshold only guards against a rerun being wildly slower.
BUILD_ABS="$(cd "$BUILD_DIR" && pwd)"
SMOKE_DIR="$BUILD_ABS/quickcheck_smoke"
mkdir -p "$SMOKE_DIR"
(cd "$SMOKE_DIR" && "$BUILD_ABS/bench/bench_route" --smoke > /dev/null \
  && mv BENCH_route_smoke.json base.json)
(cd "$SMOKE_DIR" && "$BUILD_ABS/bench/bench_route" --smoke > /dev/null \
  && mv BENCH_route_smoke.json cur.json)
"$BUILD_ABS/src/report/m3d_report" diff "$SMOKE_DIR/base.json" "$SMOKE_DIR/cur.json" \
  --wall-threshold 75
echo "quickcheck: regression gate self-consistency OK"

# Checked-in baseline gate: the smoke scalars (kernel pops, batch-router
# 1v2-thread bit-identity, ECO reuse counts) are pure functions of the
# algorithm, so they must match bench/baselines/ exactly on any machine.
# Only wall clock varies across hosts; the huge threshold effectively
# exempts it while still catching a hung run.
"$BUILD_ABS/src/report/m3d_report" diff bench/baselines/BENCH_route_smoke.json \
  "$SMOKE_DIR/cur.json" --wall-threshold 10000
echo "quickcheck: route smoke matches checked-in baseline"

# Flow-service daemon smoke: boot a real m3d_serve, run a cold then a warm
# job and an ECO of it twice through m3d_client, and shut the daemon down
# with SIGTERM -- the graceful path must drain, exit 0, and flush the
# aggregate run report.
SERVE_DIR="$BUILD_ABS/quickcheck_serve"
rm -rf "$SERVE_DIR"
mkdir -p "$SERVE_DIR"
SOCK="$SERVE_DIR/serve.sock"
# The daemon's stdio goes to a log file: if it inherited this script's
# stdout and an assertion below bailed out before the kill, the leaked
# daemon would hold any pipe we are writing into open forever.
"$BUILD_ABS/src/serve/m3d_serve" --socket "$SOCK" --cache "$SERVE_DIR/cache" \
  --executors 2 --report "$SERVE_DIR/report.json" \
  > "$SERVE_DIR/serve.log" 2>&1 &
SERVE_PID=$!
trap 'kill "$SERVE_PID" 2>/dev/null || true' EXIT
for _ in $(seq 1 100); do
  "$BUILD_ABS/src/serve/m3d_client" --socket "$SOCK" ping >/dev/null 2>&1 && break
  sleep 0.1
done
JOB="--tile tiny --rounds 2 --passes 6 --threads 1"
# shellcheck disable=SC2086  # JOB is a flag list, word splitting is wanted
COLD_JSON="$("$BUILD_ABS/src/serve/m3d_client" --socket "$SOCK" run $JOB --label cold)"
# shellcheck disable=SC2086
WARM_JSON="$("$BUILD_ABS/src/serve/m3d_client" --socket "$SOCK" run $JOB --label warm)"
echo "$WARM_JSON" | grep -q '"cache_prefix_stages":7' \
  || { echo "quickcheck: warm serve job did not replay the full prefix"; exit 1; }
COLD_HASH="$(echo "$COLD_JSON" | sed -n 's/.*"artifact_hash":"\([0-9a-f]*\)".*/\1/p')"
test -n "$COLD_HASH" \
  || { echo "quickcheck: could not extract cold artifact hash"; exit 1; }
echo "$WARM_JSON" | grep -q "\"artifact_hash\":\"$COLD_HASH\"" \
  || { echo "quickcheck: warm serve artifact differs from cold"; exit 1; }
# A bump-pitch ECO of the same job: it replays the place/pre_route_opt/cts
# prefix and reroutes from the base job's signoff checkpoint (its seed
# enters the route key); the repeat replays all seven stages and must
# reproduce the ECO's artifact.
ECO="$JOB --kind eco --pitch-scale 2"
# shellcheck disable=SC2086
ECO_JSON="$("$BUILD_ABS/src/serve/m3d_client" --socket "$SOCK" run $ECO --label eco)"
echo "$ECO_JSON" | grep -q '"cache_prefix_stages":3' \
  || { echo "quickcheck: serve ECO job did not replay the 3-stage prefix"; exit 1; }
ECO_HASH="$(echo "$ECO_JSON" | sed -n 's/.*"artifact_hash":"\([0-9a-f]*\)".*/\1/p')"
test -n "$ECO_HASH" \
  || { echo "quickcheck: could not extract ECO artifact hash"; exit 1; }
# shellcheck disable=SC2086
ECO_REPEAT_JSON="$("$BUILD_ABS/src/serve/m3d_client" --socket "$SOCK" run $ECO --label eco-repeat)"
echo "$ECO_REPEAT_JSON" | grep -q '"cache_prefix_stages":7' \
  || { echo "quickcheck: repeated serve ECO job did not replay the full prefix"; exit 1; }
echo "$ECO_REPEAT_JSON" | grep -q "\"artifact_hash\":\"$ECO_HASH\"" \
  || { echo "quickcheck: repeated serve ECO artifact differs from the first"; exit 1; }
kill -TERM "$SERVE_PID"
wait "$SERVE_PID"
trap - EXIT
test -s "$SERVE_DIR/report.json" \
  || { echo "quickcheck: m3d_serve did not flush its run report on SIGTERM"; exit 1; }
# The cache directory is its own index: it holds the entries and the
# publish lock file, nothing else.
STRAY="$(ls "$SERVE_DIR/cache" | grep -v -e '\.m3ddb$' -e '^cache_index\.lock$' || true)"
test -z "$STRAY" \
  || { echo "quickcheck: unexpected files in the serve cache: $STRAY"; exit 1; }
echo "quickcheck: serve daemon smoke OK (cold+warm and ECO+repeat bit-identical, report flushed)"

# Serve bench baseline gate: every scalar except wall clock and the
# wall-derived jobs/s rate is a pure function of the deterministic flows.
(cd "$SERVE_DIR" && "$BUILD_ABS/bench/bench_serve" --smoke > /dev/null)
"$BUILD_ABS/src/report/m3d_report" diff bench/baselines/BENCH_serve_smoke.json \
  "$SERVE_DIR/BENCH_serve_smoke.json" --wall-threshold 10000 \
  --metric scalars.jobs_per_s=100000
echo "quickcheck: serve smoke matches checked-in baseline"

# Placement-engine ablation gate: bench_hpwl_ablation --smoke runs the tiny
# tile through the full flow with both engines and asserts the analytic
# placer wins HPWL and post-route overflow within the wall budget. Both
# engines are deterministic, so every QoR scalar must match the checked-in
# baseline exactly; only wall clock is host-dependent.
(cd "$SMOKE_DIR" && "$BUILD_ABS/bench/bench_hpwl_ablation" --smoke > /dev/null)
"$BUILD_ABS/src/report/m3d_report" diff bench/baselines/BENCH_hpwl_ablation_smoke.json \
  "$SMOKE_DIR/BENCH_hpwl_ablation_smoke.json" --wall-threshold 10000
echo "quickcheck: hpwl-ablation smoke matches checked-in baseline"

# Incremental-STA gate: bench_sta --smoke checks the persistent engine
# against a fresh Sta after every edit and records the exact min period and
# the opt-stage QoR. All scalars except wall clock and the wall-derived
# edit speedup are pure functions of the deterministic engine, so they must
# match the checked-in baseline exactly.
(cd "$SMOKE_DIR" && "$BUILD_ABS/bench/bench_sta" --smoke > /dev/null)
"$BUILD_ABS/src/report/m3d_report" diff bench/baselines/BENCH_sta_smoke.json \
  "$SMOKE_DIR/BENCH_sta_smoke.json" --wall-threshold 10000 \
  --metric scalars.edit_speedup=100000
echo "quickcheck: sta smoke matches checked-in baseline"
