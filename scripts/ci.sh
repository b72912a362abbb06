#!/usr/bin/env bash
# Tier-1 verify: configure, build, and run the full test suite.
# The build-and-test job of .github/workflows/ci.yml runs this script, so a
# local run checks exactly what CI checks on each push.
set -euo pipefail
cd "$(dirname "$0")/.."

cmake -B build -S .
cmake --build build -j
cd build
ctest --output-on-failure -j "$(nproc)"

# Surface the perf-gate summaries in the CI log (all already ran — and
# gated — under ctest; this re-run just makes the numbers easy to find).
echo "== bench summaries =="
./bench_micro_plan_cache | grep -E "micro_plan_cache_json:|^OK:|^FAIL:"
./bench_micro_arena | grep -E "micro_arena_json:|^OK:|^FAIL:"
./bench_micro_codegen | grep -E "micro_codegen_json:|^OK:|^FAIL:"
./bench_micro_plan_disk | grep -E "micro_plan_disk_json:|^OK:|^FAIL:"
./bench_micro_fusion | grep -E "micro_fusion_json:|^OK:|^FAIL:"
./bench_micro_async | grep -E "micro_async_json:|^OK:|^FAIL:"

# Cross-process plan reuse: two sweeps of the same database in SEPARATE
# processes sharing one MYST_PLAN_CACHE_DIR.  The first builds and persists
# every group's plan; the second must do zero plan builds (all disk hits)
# and report bit-identical results — also under poisoned arena recycling.
echo "== cross-process plan-store reuse =="
plan_store_dir=$(mktemp -d)
package_dir=$(mktemp -d)
trap 'rm -rf "$plan_store_dir" "$package_dir"' EXIT
./example_cross_process_sweep "$plan_store_dir" cold | tee /tmp/myst_sweep_cold.txt
./example_cross_process_sweep "$plan_store_dir" warm | tee /tmp/myst_sweep_warm.txt
MYST_ARENA_POISON=1 ./example_cross_process_sweep "$plan_store_dir" warm \
    | tee /tmp/myst_sweep_warm_poison.txt
for f in /tmp/myst_sweep_warm.txt /tmp/myst_sweep_warm_poison.txt; do
    if ! diff <(grep '^result:' /tmp/myst_sweep_cold.txt) <(grep '^result:' "$f"); then
        echo "FAIL: cross-process sweep results diverged ($f)"
        exit 1
    fi
done
echo "cross-process reuse OK: second process did zero plan builds, results bit-identical"

# The checked-in example package must be what the generator writes today:
# regenerate it and compare its program and README byte for byte (ctest
# already built and ran the checked-in program against its data files).
echo "== shared_benchmark drift check =="
./example_generate_and_share rm "$package_dir" > /dev/null
for f in benchmark_main.cpp README.md; do
    if ! diff "$package_dir/$f" "../shared_benchmark/$f"; then
        echo "FAIL: shared_benchmark/$f differs from what generate_benchmark writes;" \
             "regenerate it with ./build/example_generate_and_share rm shared_benchmark"
        exit 1
    fi
done
echo "shared_benchmark OK: its program and README match the generator"

# Read-before-write sentinel: recycled arena buffers are not zeroed, so run
# the suite once with poisoned recycling (0xFF fill) to flush any kernel that
# reads an output buffer before writing it.
echo "== poisoned-arena test pass =="
MYST_ARENA_POISON=1 ctest --output-on-failure -j "$(nproc)"

# Optimizer opt-out pass: the whole suite must also hold with verbatim
# plans (MYST_OPT_LEVEL=0) — fusion is a pure perf layer, never a
# correctness dependency.  micro_fusion itself sets opt_level explicitly
# per plan, so its gates still exercise fused replay under this pass.
echo "== verbatim-plan (MYST_OPT_LEVEL=0) test pass =="
MYST_OPT_LEVEL=0 ctest --output-on-failure -j "$(nproc)"

# Serial-executor opt-out pass: the whole suite must also hold with the
# multi-stream async executor disabled (MYST_ASYNC=0) — async execution is
# a pure perf layer, never a correctness dependency.  micro_async itself
# sets async_level explicitly per config, so its gates still exercise the
# async executor under this pass.
echo "== serial-executor (MYST_ASYNC=0) test pass =="
MYST_ASYNC=0 ctest --output-on-failure -j "$(nproc)"

# Fuzz smoke corpus: fixed-seed randomized traces through the differential
# oracle (replay-vs-direct, opt-level invariance, plan round-trip, key
# stability, K=1-vs-K=4 sweep bit-identity).  Fixed seed => deterministic
# corpus; failures print `--case <seed>` repro lines.  The scheduled
# fuzz-long CI job runs larger corpora with --iters (see docs/fuzzing.md).
echo "== fuzz smoke corpus =="
./mystique-fuzz --seed 7 --iters 25

# Fault-injection churn: every registered fault site fires under 8-thread
# plan-cache churn, with poisoned arena recycling for good measure — never
# a crash, never a torn file, never a wrong plan, and the store heals.
echo "== fault-injection churn =="
MYST_ARENA_POISON=1 ./mystique-fuzz --seed 7 --churn

# Docs must not drift from the code: every env var, symbol, and file path
# referenced from README.md / docs/ has to exist in the tree.
echo "== doc-link check =="
cd ..
./scripts/check_docs.sh
