#!/usr/bin/env sh
# AddressSanitizer variant of the test suite: builds the memory-heavy
# targets with -fsanitize=address and runs them under ctest. The fault
# layer moves packets through retry/dedup/limbo paths that reuse and free
# payload buffers aggressively; this catches lifetime bugs the regular
# suite cannot. test_cli drives cgraph_tool's flag parsing and rejection
# paths, which handle outside input.
#
# Usage: ci/asan.sh [build-dir]   (default: build-asan)
set -eu

BUILD_DIR="${1:-build-asan}"
SRC_DIR="$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)"

cmake -B "$BUILD_DIR" -S "$SRC_DIR" -DCGRAPH_SANITIZE=address \
  -DCGRAPH_WERROR=ON
cmake --build "$BUILD_DIR" --target test_obs test_scheduler test_chaos \
  test_hybrid test_index test_replica test_mutation baseline_runner \
  cgraph_tool -j "$(nproc)"
ctest --test-dir "$BUILD_DIR" --output-on-failure \
  -R '^(test_obs|test_scheduler|test_chaos|test_hybrid|test_index|test_replica|test_mutation|bench_baseline_smoke|test_cli)$'
