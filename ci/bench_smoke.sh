#!/usr/bin/env sh
# Perf-baseline gate: proves the committed BENCH_*.json artifacts are
# honest, then smoke-tests the wall-clock suite. Four steps:
#
#   1. Schema-validate the committed artifacts (ci/validate_bench.py,
#      stdlib-only), including the <=2% tracer-off overhead gate on the
#      committed BENCH_trace_overhead.json.
#   2. Rebuild bench/baseline_runner and regenerate the fig12 sweep with
#      the identical (full) configuration.
#   3. Diff the fresh sweep against the committed one exactly (0%
#      tolerance). Every compared metric is simulated-clock, so the diff is
#      exactly zero on an unchanged tree — any drift means engine behavior
#      changed and the baseline must be regenerated deliberately.
#
#   4. Run the wall-clock suite's smoke mode (bench/suite/run.py --smoke):
#      its own Release build, every workload at tiny sizes with tracing on,
#      the output checks, and a corrupted reference that must fail them.
#
# The fresh trace-overhead artifact is schema-validated but not gated:
# wall-clock spreads on a loaded CI host are not evidence about the code.
#
# Usage: ci/bench_smoke.sh [build-dir]   (default: build-bench)
set -eu

BUILD_DIR="${1:-build-bench}"
SRC_DIR="$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)"
SCHEMA="$SRC_DIR/bench/bench_schema.json"

python3 "$SRC_DIR/ci/validate_bench.py" --schema "$SCHEMA" \
  "$SRC_DIR/BENCH_fig12.json"
python3 "$SRC_DIR/ci/validate_bench.py" --schema "$SCHEMA" \
  --strict-overhead "$SRC_DIR/BENCH_trace_overhead.json"

# Unit check: a committed baseline that lacks an arm the candidate has
# (the normal state right after baseline_runner grows a new sweep) must be
# a reported skip with exit 0, never a KeyError traceback. Exercise it by
# diffing the committed artifact against a copy with one micro arm and one
# rate row removed.
TMP_DIR="$(mktemp -d)"
trap 'rm -rf "$TMP_DIR"' EXIT INT TERM
python3 - "$SRC_DIR/BENCH_fig12.json" "$TMP_DIR/baseline_missing_arm.json" <<'EOF'
import json, sys
with open(sys.argv[1], encoding="utf-8") as f:
    data = json.load(f)
data["micro"] = [m for m in data.get("micro", [])
                 if m.get("name") != "index_hit"]
data["rows"] = data.get("rows", [])[1:]
with open(sys.argv[2], "w", encoding="utf-8") as f:
    json.dump(data, f)
EOF
MISSING_OUT="$TMP_DIR/missing_arm.out"
python3 "$SRC_DIR/ci/validate_bench.py" --schema "$SCHEMA" \
  --baseline "$TMP_DIR/baseline_missing_arm.json" \
  "$SRC_DIR/BENCH_fig12.json" >"$MISSING_OUT" 2>&1 || {
    echo "bench smoke: FAIL missing-arm baseline must not fail the gate" >&2
    cat "$MISSING_OUT" >&2
    exit 1
  }
grep -q "validate_bench: SKIP" "$MISSING_OUT" || {
    echo "bench smoke: FAIL missing-arm baseline must report a skip" >&2
    cat "$MISSING_OUT" >&2
    exit 1
  }
echo "bench smoke: missing-arm skip check OK"

# Release with -Werror: the optimizer-only warnings (-O3 flow analysis)
# fail here rather than in a downstream Release build.
cmake -B "$BUILD_DIR" -S "$SRC_DIR" -DCMAKE_BUILD_TYPE=Release \
  -DCGRAPH_WERROR=ON
cmake --build "$BUILD_DIR" --target baseline_runner -j "$(nproc)"

OUT_DIR="$BUILD_DIR/bench-baseline"
"$BUILD_DIR/bench/baseline_runner" --out-dir "$OUT_DIR"

python3 "$SRC_DIR/ci/validate_bench.py" --schema "$SCHEMA" \
  --baseline "$SRC_DIR/BENCH_fig12.json" --tolerance-pct 0 \
  "$OUT_DIR/BENCH_fig12.json"
python3 "$SRC_DIR/ci/validate_bench.py" --schema "$SCHEMA" \
  "$OUT_DIR/BENCH_trace_overhead.json"

python3 "$SRC_DIR/bench/suite/run.py" --smoke

echo "bench smoke: OK"
