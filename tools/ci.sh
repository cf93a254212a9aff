#!/usr/bin/env bash
# Full verification pipeline, in increasing order of cost:
#
#   * plain build + tier-1 test suite
#   * the same suite with the runtime invariant auditors on (HYPERION_AUDIT=1)
#   * chaos: the seeded fault-injection sweeps (fixed seed ranges baked into
#     tests/chaos_test.cc) rerun with the auditors on — migration must either
#     converge with zero divergence or roll back to a source that still
#     passes every invariant audit; the cluster sweep must conserve every
#     guest across an injected host crash
#   * SMP suites under audit with a real 4-thread worker pool
#   * AddressSanitizer build + suite (includes the chaos sweeps)
#   * UndefinedBehaviorSanitizer build + suite (includes the chaos sweeps)
#   * ThreadSanitizer build + the concurrency-relevant suites with
#     HYPERION_WORKERS=4, so the staged execution core's worker pool and
#     every per-slice staging buffer actually run multi-threaded under TSan
#   * static staging discipline: the negative-compile suite (phase-token
#     violations must fail to build; see tests/negcompile/) plus, where
#     clang is available, a -DHYPERION_THREAD_SAFETY=ON build that enforces
#     clang -Wthread-safety over the annotated core
#   * clang-tidy lint (skipped gracefully where clang-tidy is absent)
#   * perf smoke: Release bench_net, then bench_exec. The net data plane
#     gate runs first and is exact: batched virtio must clear 3x the
#     per-frame path's frames/sec and stay under 50 interrupts per 1k
#     frames, measured in deterministic simulated time (immune to runner
#     noise). Then the DBT engine must clear 2x the interpreter's guest-MIPS
#     on the hot compute kernel — a coarse anti-regression tripwire, not a
#     microbench gate. On a shared 4-core Xeon runner the measured ratio is
#     1.21-1.86 in 9 of 11 runs (2.01 and 2.05 in the other two), so this
#     bound currently fails there; see ROADMAP.md
#
# Every perf and net bound is in one table in tools/bench_gate.py.
#
# The cluster fleet's bounds are assertions of
# ClusterStagedTest.FleetUnderChurnIsIdenticalAcrossWorkerCounts
# (tests/parallel_test.cc), which runs in the first stage, again under
# HYPERION_AUDIT=1, and under TSan with HYPERION_WORKERS=4:
#
#     no guest lost          evacuations_lost == 0 and 64 guests observed
#     migrations happened    drain_migrations > 0
#     every move reconciled  each ok MigrationRecord has pages_sent > 0,
#                            total_time > 0 and downtime < 10 ms, and
#                            ok moves == drain + rebalance migrations
#     bit-identical          the whole observation at 1 and 4 workers
#                            equals the serial one
#
# Stage numbers are printed by the stage() helper, so inserting a stage never
# desynchronizes the [N/TOTAL] banners again.
#
# Stages that cannot run here (sanitizers under --fast, thread-safety without
# clang++, lint without clang-tidy) pass with a notice; the last line of a
# successful run lists them: "ci: skipped: <list>" or "ci: skipped: none".
#
# Usage: tools/ci.sh [--fast]     --fast skips the sanitizer builds.

set -eu

cd "$(dirname "$0")/.."
FAST=0
[ "${1:-}" = "--fast" ] && FAST=1
JOBS=$(nproc 2>/dev/null || echo 4)

TOTAL=10
STAGE=0
stage() {  # stage <banner text>
  STAGE=$((STAGE + 1))
  echo "=== [$STAGE/$TOTAL] $1 ==="
}

SKIPPED=""
skipped() {  # skipped <what>: records a stage that did not run here
  SKIPPED="${SKIPPED:+$SKIPPED, }$1"
}

run_suite() {  # run_suite <build-dir> [extra cmake flags...]
  local dir="$1"; shift
  cmake -B "$dir" -S . "$@" >/dev/null
  cmake --build "$dir" -j "$JOBS"
  (cd "$dir" && ctest --output-on-failure -j "$JOBS")
}

CHAOS_FILTER='ChaosTest|ChaosSmpTest|ClusterChaosTest|FaultPlanTest|InjectorTest|FaultyStoreTest|SwitchFaultTest|DeviceFaultTest|HvdCrashTest|SnapshotTornWriteTest'
# Everything that drives a multi-vCPU guest: the IPI/TLB-shootdown gauntlet,
# the cross-engine SMP differential matrix, SMP migration/snapshot/chaos, and
# the gang-scheduling unit tests.
SMP_FILTER='SmpTest|FuzzDiffSmpTest|MigrateSmpTest|ChaosSmpTest|GangSchedulerTest|StagedExecutionTest'

stage "plain build + tests"
run_suite build

stage "tests under HYPERION_AUDIT=1"
(cd build && HYPERION_AUDIT=1 ctest --output-on-failure -j "$JOBS")

stage "chaos: seeded fault-injection sweeps under audit"
(cd build && HYPERION_AUDIT=1 ctest -R "$CHAOS_FILTER" --output-on-failure -j "$JOBS")

stage "SMP suites under audit with a 4-thread worker pool"
# The audit stage already ran these serially; this rerun pins that per-vCPU
# TLB audits, IPI accounting, and the shootdown protocol stay green when
# same-VM lanes execute on a real worker pool.
(cd build && HYPERION_AUDIT=1 HYPERION_WORKERS=4 ctest -R "$SMP_FILTER" --output-on-failure -j "$JOBS")

if [ "$FAST" = "0" ]; then
  stage "AddressSanitizer (suite + chaos sweeps)"
  run_suite build-asan -DHYPERION_SANITIZE=address

  stage "UndefinedBehaviorSanitizer (suite + chaos sweeps)"
  run_suite build-ubsan -DHYPERION_SANITIZE=undefined

  stage "ThreadSanitizer (HYPERION_WORKERS=4, staged-core suites)"
  # The filter covers everything that exercises the worker pool end to end:
  # the host run loop and its staging buffers (Host/Smp/Staged/WorkerPool),
  # VM teardown concurrent with in-flight events (DestroyVm), the migration +
  # fault-injection paths whose shared state is queried from worker threads,
  # and the cluster suites that run a whole fleet on one shared pool.
  # HYPERION_WORKERS=4 overrides the serial default so the pool genuinely
  # runs multi-threaded even for configs that leave worker_threads unset.
  TSAN_FILTER='HostVmTest|SmpTest|FuzzDiffSmpTest|SchedulingTest|StagedExecutionTest|DestroyVmTest|WorkerPoolTest|MigrationTest|MigrateIoTest|MigrateStateTest|MigrateSmpTest|ChaosTest|ChaosSmpTest|FaultPlanTest|InjectorTest|HvdCrashTest|ClusterTest|ClusterStagedTest|ClusterChaosTest'
  cmake -B build-tsan -S . -DHYPERION_SANITIZE=thread >/dev/null
  cmake --build build-tsan -j "$JOBS"
  (cd build-tsan && HYPERION_WORKERS=4 ctest -R "$TSAN_FILTER" --output-on-failure -j "$JOBS")
else
  STAGE=$((STAGE + 3))
  echo "=== sanitizers skipped (--fast) ==="
  skipped "asan (--fast)"
  skipped "ubsan (--fast)"
  skipped "tsan (--fast)"
fi

stage "static staging discipline: negative-compile + thread-safety"
# The negative-compile tests already ran inside the first stage's ctest;
# rerunning them by name here keeps the discipline visible as its own gate
# and fails fast when someone weakens a token signature.
(cd build && ctest -R '^negcompile\.' --output-on-failure)
if command -v clang++ >/dev/null 2>&1; then
  cmake -B build-tsa -S . -DCMAKE_CXX_COMPILER=clang++ \
    -DHYPERION_THREAD_SAFETY=ON >/dev/null
  cmake --build build-tsa -j "$JOBS"
else
  echo "thread-safety: clang++ not found; -Wthread-safety analysis skipped"
  skipped "thread-safety (no clang++)"
fi

stage "lint"
command -v clang-tidy >/dev/null 2>&1 || skipped "lint (no clang-tidy)"
tools/run_lint.sh build

stage "perf smoke: net data plane; hot DBT vs interpreter; tier-2 vs tier-1"
cmake -B build-perf -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build build-perf -j "$JOBS" --target bench_exec bench_net
# Net data-plane gate first: bench_net measures simulated time, so the
# numbers are bit-identical run to run — one run, no retry — and a failing
# (noisy) perf smoke below must not keep this exact gate from running.
# Enforces the batched path's reason to exist at the 256-byte payload point
# (bounds in tools/bench_gate.py).
build-perf/bench/bench_net --gate | tee build-perf/bench_net_gate.txt
python3 tools/bench_gate.py net build-perf/bench_net_gate.txt

# --benchmark_min_time takes a bare seconds value (no "s" suffix). Ratios are
# computed from per-benchmark medians of 3 repetitions, and the stage retries
# once on failure, so a single noisy sample on an oversubscribed shared
# runner cannot fail the build on its own. Two gates on the hot compute
# kernel: the full DBT must clear 2x the interpreter (measured 1.21-2.05 on
# a shared 4-core Xeon runner), and the tier-2 optimizer must clear 1.10x
# the tier-1-only DBT (measured 1.30-1.55 there) — the optimizer has to pay
# for itself.
perf_smoke() {
  build-perf/bench/bench_exec \
    --benchmark_filter='BM_InterpreterHot|BM_DbtHot|BM_DbtTier1Hot' \
    --benchmark_min_time=0.2 --benchmark_repetitions=3 \
    --benchmark_format=json >build-perf/perf_smoke.json
  python3 tools/bench_gate.py perf build-perf/perf_smoke.json
}
if ! perf_smoke; then
  echo "perf smoke: ratio below threshold once; retrying to absorb runner noise"
  perf_smoke
fi

echo "ci: all stages passed"
echo "ci: skipped: ${SKIPPED:-none}"
