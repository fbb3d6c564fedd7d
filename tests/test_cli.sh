#!/usr/bin/env sh
# End-to-end test of the cgraph_tool command line: every subcommand runs
# to exit 0 on a tiny graph, and every bad flag exits 2 with a one-line
# reason that names the flag — never an abort (134), an OOM kill (137) or
# a hang. A figure harness rejects a bad flag the same way.
#
# Usage: tests/test_cli.sh path/to/cgraph_tool path/to/fig12_querycount
set -u

abspath() { echo "$(cd "$(dirname -- "$1")" && pwd)/$(basename -- "$1")"; }
TOOL="$(abspath "$1")"
HARNESS="$(abspath "$2")"
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT
cd "$WORK" || exit 1

failures=0
fail() {
  echo "FAIL: $*"
  failures=$((failures + 1))
}

# ok ARGS...: the command exits 0.
ok() {
  timeout 60 "$TOOL" "$@" > out.txt 2> err.txt
  rc=$?
  if [ "$rc" -ne 0 ]; then
    fail "cgraph_tool $* exited $rc"
    cat err.txt
  fi
}

# rejected FLAG ARGS...: the command ($BIN, cgraph_tool by default) exits
# 2 before doing any work, with exactly one stderr line that mentions FLAG.
BIN="$TOOL"
rejected() {
  flag="$1"
  shift
  name="$(basename -- "$BIN")"
  timeout 60 "$BIN" "$@" > out.txt 2> err.txt
  rc=$?
  lines=$(wc -l < err.txt)
  if [ "$rc" -ne 2 ]; then
    fail "$name $* exited $rc, want 2"
  elif [ "$lines" -ne 1 ] || ! grep -q -e "$flag" err.txt; then
    fail "$name $*: want one stderr line naming $flag"
  elif [ -s out.txt ]; then
    fail "$name $*: printed results before rejecting the flag"
  fi
  cat err.txt
}

# Every subcommand, including telemetry sinks.
ok gen --out g.bin --model rmat --scale 9 --edge-factor 8 --seed 31
ok gen --out u.bin --model uniform --n 300 --m 2000 --seed 2
ok gen --out w.bin --model ws --n 200 --k-ring 4 --beta 0.2
printf '1 2\n2 3\n3 1\n10 11\n' > edges.txt
ok convert --in edges.txt --out e.bin
ok stats --in g.bin --machines 3 --hop-samples 4
ok stats --in edges.txt
ok query --in g.bin --source 1 --k 3 --paths --target 7
ok query --in g.bin --source 1 --k 255 --target 7 --index full
ok query --in g.bin --source 1 --k 2 --direction pull --threads 2
ok query --in g.bin --source 1 --machines 2 --crash 1@2
ok batch --in g.bin --queries 20 --k 3 --metrics-out batch.prom
[ -s batch.prom ] || fail "batch --metrics-out wrote nothing"
ok batch --in u.bin --queries 20 --crash-prob 0.05 --trace-out batch.json
[ -s batch.json ] || fail "batch --trace-out wrote nothing"
ok serve --in g.bin --queries 100 --index full --point-fraction 0.5
grep -q "index: answered" out.txt || fail "serve --index printed no index line"
ok serve --in g.bin --queries 100 --replicas 2 --replica-kill 0@2 \
  --metrics-out serve.prom --trace-out serve.json
grep -q "1/2 replicas healthy" out.txt || fail "serve --replica-kill: no failover"
[ -s serve.prom ] && [ -s serve.json ] || fail "serve telemetry missing"
ok pagerank --in g.bin --iterations 3 --machines 2
ok pagerank --in g.bin --metrics-out pr.json

# Bad flags: one line naming the flag, exit 2, nothing run.
rejected --queries batch --in g.bin --queries 0
rejected --queries batch --in g.bin --queries ten
rejected --machines query --in g.bin --machines 0
rejected --batch-width serve --in g.bin --batch-width 0
rejected --batch-width serve --in g.bin --batch-width 600
rejected --arrival-rate serve --in g.bin --arrival-rate 0
rejected --replica-kill serve --in g.bin --replicas 2 --replica-kill 0@1,1@1
rejected --replica-kill serve --in g.bin --replicas 2 --replica-kill 2@1
rejected --scale gen --out big.bin --scale 40
rejected --replicas batch --in g.bin --replicas -1
rejected --replicas serve --in g.bin --replicas -1
rejected --k query --in g.bin --k 256
rejected --crash batch --in g.bin --machines 2 --crash 7@1
rejected --querys batch --in g.bin --querys 10
rejected --threads batch --in g.bin --threads -1
rejected --direction serve --in g.bin --direction sideways
rejected --k batch --in g.bin --k 3x
rejected --index query --in g.bin --index sometimes
rejected --in pagerank --iterations 3
rejected --model gen --out x.bin --model lattice
rejected --weights gen --out wt.bin --model ws --n 200 --k-ring 4 --weights
[ ! -e big.bin ] && [ ! -e x.bin ] && [ ! -e wt.bin ] ||
  fail "a rejected gen wrote a file"

# A figure harness given a flag it does not read, or a value that is not a
# number or out of range, exits 2 before it builds a graph instead of
# running the whole figure with defaults or aborting.
BIN="$HARNESS"
rejected --bogus --dataset nope --bogus 1
rejected --queries --open-loop --queries ten
rejected --queries --queries ten
rejected --linger --linger -1

if [ "$failures" -ne 0 ]; then
  echo "$failures command-line check(s) failed"
  exit 1
fi
echo "all command-line checks passed"
