#!/usr/bin/env sh
# UndefinedBehaviorSanitizer variant of the test suite: builds with
# -fsanitize=undefined -fno-sanitize-recover so any UB aborts the test.
# The recovery paths are the motivating load: checkpoint blobs are raw
# byte serializations read back through PacketReader casts, the crash
# schedule mixes 64-bit keys with shifts, and the ingestion hardening
# rejects inputs whose arithmetic would otherwise overflow — UBSan proves
# the "rejected loudly, not wrapped silently" claim.
#
# Usage: ci/ubsan.sh [build-dir]   (default: build-ubsan)
set -eu

BUILD_DIR="${1:-build-ubsan}"
SRC_DIR="$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)"

cmake -B "$BUILD_DIR" -S "$SRC_DIR" -DCGRAPH_SANITIZE=undefined \
  -DCGRAPH_WERROR=ON
cmake --build "$BUILD_DIR" --target test_io test_net test_cluster \
  test_recovery test_chaos -j "$(nproc)"
ctest --test-dir "$BUILD_DIR" --output-on-failure \
  -R '^(test_io|test_net|test_cluster|test_recovery|test_chaos)$'
