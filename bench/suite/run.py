#!/usr/bin/env python3
"""Wall-clock benchmark suite: build, run, summarise and compare (stdlib only).

Run from the repository root:

  python3 bench/suite/run.py --workload W --seed S --seconds T --trace 0|1
      Build, then run one workload: one process that sets up, warms up and
      measures blocks of fixed work until they add up to T seconds, plus
      SETUP_SAMPLES - 1 set-up-only processes. The last stdout line is the
      result object {"correct", "attempted", "failed", "metrics"}: the
      end-to-end metrics (medians over blocks; setup_s the median cold
      set-up) with --trace 0, the per-layer metrics with --trace 1, where
      every second block is traced.

  python3 bench/suite/run.py [--seed S] [--seconds T] [--trace 0|1] [--out DIR]
      Every workload once, in an order rotated by the seed. Prints every
      metric as `workload metric value unit` and writes DIR/summary.json.
      T defaults to BENCHMARK.json's run_seconds.

  python3 bench/suite/run.py --smoke
      Tiny sizes, every workload traced, plus a corrupted reference that
      must make the checks fail. Under 30 s once built.

  python3 bench/suite/run.py agree A/summary.json B/summary.json
      Do two run sets of the same code agree within BENCHMARK.json bounds?

  python3 bench/suite/run.py compare PARENT_TREE CHANGE_TREE [--pairs 10]
      Alternating parent/change runs; per-workload verdicts (gain,
      within bound, regression, unresolved) by the bounds in BENCHMARK.json.

Exit status is nonzero when a build, a run or an output check fails.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import tempfile
import time

SUITE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(SUITE))
BUILD = os.path.join(ROOT, "build-suite")
BINARY = os.path.join(BUILD, "cgraph_bench")
WORKLOADS = ["khop_serve", "engine_deep", "khop_writes", "mixed_replicated"]
SETUP_SAMPLES = 3  # setup_s is the median of this many cold set-ups
STEAL_LIMIT = 0.02  # rerun a measurement whose steal exceeds 2% of CPU time
MAX_RETRIES = 2
PROC_TIMEOUT_S = 150
BUILD_TIMEOUT_S = 880
# A single-workload run must end within 180 s: start no retry that could
# end after this many seconds.
SINGLE_RUN_BUDGET_S = 150
COMPARE_SEED = 1000  # pair i of `compare` runs seed COMPARE_SEED + i


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def run_proc(cmd, timeout, cwd=ROOT):
    """Run cmd in its own process group; kill the whole group on timeout or
    interruption so no compiler or runner outlives this script."""
    proc = subprocess.Popen(cmd, cwd=cwd, stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except BaseException:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        raise
    return proc.returncode, out


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    with open(path) as f:
        spec = json.load(f)
    spec["e2e"] = {m["name"]: m for m in spec["end_to_end"]}
    spec["layer"] = {m["name"]: m for m in spec["per_layer"]}
    return spec


def build():
    rc, out = run_proc(["cmake", "-S", SUITE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S)
    if rc != 0:
        log(out)
        raise BenchError("cmake configure failed")
    rc, out = run_proc(["cmake", "--build", BUILD, "--target", "cgraph_bench",
                        "-j", "4"], BUILD_TIMEOUT_S)
    if rc != 0:
        log(out[-4000:])
        raise BenchError("build failed")


def read_cpu():
    """(busy, steal) jiffies summed over CPUs, or None without /proc/stat."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
    except OSError:
        return None
    v = [int(x) for x in fields[1:9]]
    user, nice, system, _idle, _iowait, irq, softirq, steal = v
    return user + nice + system + irq + softirq + steal, steal


def run_bench(workload, seed, seconds, out_dir, tag, traced=False,
              smoke=False, corrupt=False, setup_only=False):
    """One cgraph_bench process. Returns its record (None if it wrote none),
    exit code and the host's steal share while it ran."""
    out = os.path.join(out_dir, f"{workload}.{tag}.json")
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", repr(float(seconds)), "--out", out]
    if traced:
        cmd += ["--trace-out", os.path.join(out_dir, f"{workload}.trace.json")]
    for flag, on in (("--smoke", smoke), ("--corrupt", corrupt),
                     ("--setup-only", setup_only)):
        if on:
            cmd.append(flag)
    if os.path.exists(out):
        os.remove(out)
    cpu0 = read_cpu()
    rc, text = run_proc(cmd, PROC_TIMEOUT_S)
    cpu1 = read_cpu()
    steal = 0.0
    if cpu0 and cpu1 and cpu1[0] > cpu0[0]:
        steal = (cpu1[1] - cpu0[1]) / (cpu1[0] - cpu0[0])
    rec = None
    if os.path.exists(out):
        with open(out) as f:
            rec = json.load(f)
    if text.strip():
        log(text.rstrip())
    return rec, rc, steal


class WorkloadRun:
    """One workload's measurement, set-up samples and verdicts."""

    def __init__(self, name):
        self.name = name
        self.rec = None
        self.setups = []
        self.steal = 0.0
        self.retries = 0
        self.ok = True
        self.notes = []

    def fail(self, note):
        self.ok = False
        self.notes.append(note)

    def take(self, rec, rc):
        if rec is None:
            self.fail(f"cgraph_bench exited {rc} without a result")
            return
        if rc != 0 or rec["problems"]:
            self.ok = False
            self.notes += rec["problems"] or [f"cgraph_bench exited {rc}"]
        if rec["compared"] < 64:
            self.fail(f"only {rec['compared']} answers checked")
        self.rec = rec
        self.setups.append(rec["setup_s"])

    def attempted(self):
        return self.rec["attempted"] if self.rec else 0

    def failed(self):
        return self.rec["failed"] if self.rec else 0

    def e2e(self, spec):
        if self.rec is None:
            return {name: None for name in spec["e2e"]}
        out = dict(self.rec["e2e"])
        out["setup_s"] = statistics.median(self.setups)
        return {name: out.get(name) for name in spec["e2e"]}

    def layer(self, spec):
        if self.rec is None or not self.rec["traced"]:
            return {}
        out = dict(self.rec["layer"])
        out["host.steal_frac"] = self.steal
        out["host.retries"] = float(self.retries)
        missing = [m for m in spec["layer"] if m not in out]
        if missing:
            raise BenchError(f"{self.name}: runner did not report {missing}")
        return {m: out[m] for m in spec["layer"]}


def run_workload(name, seed, seconds, out_dir, traced, deadline):
    """Measure one workload: the main process (rerun, at most MAX_RETRIES
    times, when the host stole more than STEAL_LIMIT of the CPU time while
    it ran), then the extra cold set-ups."""
    w = WorkloadRun(name)
    while True:
        t0 = time.monotonic()
        rec, rc, steal = run_bench(name, seed, seconds, out_dir, "run",
                                   traced=traced)
        spent = time.monotonic() - t0
        if (steal > STEAL_LIMIT and w.retries < MAX_RETRIES and rec
                and time.monotonic() + spent < deadline):
            w.retries += 1
            log(f"{name}: host steal {steal:.1%} > {STEAL_LIMIT:.0%}, "
                f"rerunning")
            continue
        w.steal = steal
        w.take(rec, rc)
        break
    for i in range(1, SETUP_SAMPLES):
        rec, rc, _ = run_bench(name, seed, seconds, out_dir, f"setup{i}",
                               setup_only=True)
        if rec is None or rc != 0:
            w.fail(f"set-up-only process exited {rc}")
            break
        w.setups.append(rec["setup_s"])
    return w


def unit_of(spec, name):
    m = spec["e2e"].get(name) or spec["layer"].get(name)
    return m["unit"]


def print_table(spec, runs, with_layers):
    for w in runs:
        for name, v in w.e2e(spec).items():
            print(f"{w.name} {name} {v!r} {unit_of(spec, name)}")
        if with_layers:
            for name, v in w.layer(spec).items():
                print(f"{w.name} {name} {v!r} {unit_of(spec, name)}")


def print_self_times(runs):
    for w in runs:
        if w.rec is None or "trace" not in w.rec:
            continue
        tr = w.rec["trace"]
        print(f"# {w.name}: span coverage {tr['coverage']:.4f}, "
              f"{tr['engine_events']} engine spans "
              f"({tr['dropped_events']} dropped)")
        print(f"#   {'span':<22}{'count':>8}{'total_ms':>12}{'self_ms':>12}")
        for name, s in sorted(tr["spans"].items(),
                              key=lambda kv: -kv[1]["self_ms"]):
            print(f"#   {name:<22}{s['count']:>8}{s['total_ms']:>12.1f}"
                  f"{s['self_ms']:>12.1f}")


def print_calibration(runs):
    print("# cost-model calibration (traced blocks; report only)")
    for w in runs:
        if w.rec is None or not w.rec["traced"]:
            continue
        L = w.rec["layer"]
        wall, over = L["msbfs.wall_ns_per_edge"], L["calib.edge_wall_over_model"]
        print(f"#   {w.name}: {wall:.2f} wall ns/edge vs "
              f"{wall / over if over else 0:.2f} modeled ({over:.2f}x); "
              f"batch wall/sim {L['calib.batch_wall_over_sim']:.2f}; "
              f"index probe {L['index.probe_ns']:.1f} ns "
              f"({L['calib.probe_wall_over_model']:.2f}x modeled)")


def result_line(spec, w, trace):
    metrics = w.layer(spec) if trace else w.e2e(spec)
    units = spec["layer"] if trace else spec["e2e"]
    if set(metrics) != set(units) or None in metrics.values():
        raise BenchError(f"{w.name}: the run did not produce every metric")
    return json.dumps({
        "correct": w.ok,
        "attempted": w.attempted(),
        "failed": w.failed(),
        "metrics": {k: {"value": v, "unit": units[k]["unit"]}
                    for k, v in metrics.items()},
    })


def cmd_run(args, spec):
    seconds = args.seconds if args.seconds else spec["run_seconds"]
    if seconds <= 0:
        raise BenchError("--seconds must be positive")
    trace = args.trace == 1
    if args.workload:
        if args.workload not in WORKLOADS:
            raise BenchError(f"unknown workload {args.workload}")
        workloads = [args.workload]
    else:
        k = args.seed % len(WORKLOADS)
        workloads = WORKLOADS[k:] + WORKLOADS[:k]
    start = time.monotonic()
    build()
    out_dir = args.out or os.path.join(
        BUILD, "runs", f"seed{args.seed}-{time.strftime('%Y%m%d-%H%M%S')}")
    os.makedirs(out_dir, exist_ok=True)
    # A suite run only bounds how late a steal retry may start.
    deadline = start + (SINGLE_RUN_BUDGET_S if args.workload else 3600)
    runs = [run_workload(w, args.seed, seconds, out_dir, trace, deadline)
            for w in workloads]
    runs.sort(key=lambda w: WORKLOADS.index(w.name))
    print_table(spec, runs, trace)
    if trace:
        print_self_times(runs)
        print_calibration(runs)
    summary = {
        "seed": args.seed, "seconds": seconds,
        "workloads": {
            w.name: {"correct": w.ok, "notes": w.notes,
                     "blocks": len(w.rec["blocks"]) if w.rec else 0,
                     "attempted": w.attempted(), "failed": w.failed(),
                     "e2e": w.e2e(spec),
                     "layer": w.layer(spec) if trace else {}}
            for w in runs},
    }
    with open(os.path.join(out_dir, "summary.json"), "w") as f:
        json.dump(summary, f, indent=1)
    log(f"wrote {os.path.join(out_dir, 'summary.json')}")
    for w in runs:
        for note in w.notes:
            log(f"{w.name}: {note}")
    if args.workload:
        print(result_line(spec, runs[0], trace))
    return 0 if all(w.ok for w in runs) else 1


def cmd_smoke(spec):
    t0 = time.monotonic()
    build()
    failures = []
    with tempfile.TemporaryDirectory(dir=BUILD) as out_dir:
        for name in WORKLOADS:
            w = WorkloadRun(name)
            rec, rc, _ = run_bench(name, 1, 0.2, out_dir, "run", traced=True,
                                   smoke=True)
            w.take(rec, rc)
            try:
                metrics = {**w.e2e(spec), **w.layer(spec)}
            except BenchError as e:
                failures.append(str(e))
                metrics = {}
            if not w.ok:
                failures.append(f"{name}: {w.notes}")
            print(f"smoke {name}: {'ok' if w.ok else 'FAILED'}, "
                  f"{len(metrics)} metrics, qps {metrics.get('qps') or 0:.0f}")
            rec, rc, _ = run_bench(name, 1, 0.2, out_dir, "corrupt",
                                   smoke=True, corrupt=True)
            caught = rc != 0 and rec is not None and rec["mismatches"] == 1
            print(f"smoke {name} corrupted reference: "
                  f"{'caught' if caught else 'NOT CAUGHT'} (exit {rc})")
            if not caught:
                failures.append(f"{name}: corrupted reference passed the checks")
    print(f"smoke {'passed' if not failures else 'FAILED'} in "
          f"{time.monotonic() - t0:.1f} s")
    for f in failures:
        log(f)
    return 0 if not failures else 1


def quartiles(vals):
    if len(vals) < 2:
        return vals[0], vals[0], vals[0]
    q1, q2, q3 = statistics.quantiles(vals, n=4)
    return q1, q2, q3


def worse_by(spec_m, base, value):
    """Relative amount by which `value` is worse than `base` (negative when
    better)."""
    if not base:
        return 0.0
    rel = (value - base) / abs(base)
    return rel if spec_m["better"] == "lower" else -rel


def cmd_agree(args, spec):
    with open(args.a) as f:
        a = json.load(f)
    with open(args.b) as f:
        b = json.load(f)
    ok = True
    print(f"{'workload':<18}{'metric':<14}{'A':>14}{'B':>14}{'diff':>9}"
          f"{'bound':>8}  verdict")
    for w in WORKLOADS:
        if w not in a["workloads"] or w not in b["workloads"]:
            continue
        for name, m in spec["e2e"].items():
            va = a["workloads"][w]["e2e"][name]
            vb = b["workloads"][w]["e2e"][name]
            diff = abs(vb - va) / abs(va) if va else 0.0
            good = diff <= m["bound"]
            ok = ok and good
            print(f"{w:<18}{name:<14}{va:>14.6g}{vb:>14.6g}{diff:>9.2%}"
                  f"{m['bound']:>8.0%}  {'agree' if good else 'DISAGREE'}")
    return 0 if ok else 1


def cmd_compare(args, spec):
    if args.pairs < 10:
        raise BenchError("compare needs at least 10 pairs")
    trees = {"parent": os.path.abspath(args.parent),
             "change": os.path.abspath(args.change)}
    seconds = spec["run_seconds"]
    vals = {side: {w: {m: [] for m in spec["e2e"]} for w in WORKLOADS}
            for side in trees}
    failed = {side: {w: 0 for w in WORKLOADS} for side in trees}
    for i in range(args.pairs):
        seed = COMPARE_SEED + i
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        for w in WORKLOADS:
            for side in order:
                script = os.path.join(trees[side], "bench", "suite", "run.py")
                rc, out = run_proc([sys.executable, script, "--workload", w,
                                    "--seed", str(seed), "--seconds",
                                    str(seconds), "--trace", "0"],
                                   BUILD_TIMEOUT_S + 180, cwd=trees[side])
                last = out.strip().splitlines()[-1] if out.strip() else ""
                try:
                    res = json.loads(last)
                except ValueError:
                    raise BenchError(f"{side} {w} seed {seed}: no result "
                                     f"(exit {rc})")
                failed[side][w] += res["failed"]
                for m in spec["e2e"]:
                    vals[side][w][m].append(res["metrics"][m]["value"])
                log(f"pair {i} seed {seed} {w} {side} done")
    regress = False
    for w in WORKLOADS:
        cells = []
        for m, sm in spec["e2e"].items():
            p, c = vals["parent"][w][m], vals["change"][w][m]
            p1, pm, p3 = quartiles(p)
            c1, cm, c3 = quartiles(c)
            better = [worse_by(sm, pv, cv) < 0 for pv, cv in zip(p, c)]
            ties = sum(1 for pv, cv in zip(p, c) if pv == cv)
            wins = sum(better)
            spread = max((p3 - p1) / abs(pm) if pm else 0,
                         (c3 - c1) / abs(cm) if cm else 0)
            all_better = all(worse_by(sm, pv, cv) < 0 for pv in p for cv in c)
            worse = worse_by(sm, pm, cm)
            if (wins >= 0.9 * len(p) and worse < 0 and abs(cm - pm) > p3 - p1
                    and failed["change"][w] <= failed["parent"][w]):
                verdict = "gain"
            elif spread > sm["bound"] and not all_better:
                verdict = "unresolved"
            elif worse > sm["bound"]:
                verdict = "regression"
                regress = True
            else:
                verdict = "within bound"
            cells.append(f"{m}: parent {pm:.4g} [{p1:.4g}, {p3:.4g}] change "
                         f"{cm:.4g} [{c1:.4g}, {c3:.4g}] wins {wins}/{len(p)}"
                         f" ties {ties} -> {verdict}")
        print(f"{w}: " + "; ".join(cells))
    return 1 if regress else 0


def main():
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    argv = sys.argv[1:]
    try:
        spec = load_spec()
        if argv and argv[0] == "agree":
            p = argparse.ArgumentParser(prog="run.py agree")
            p.add_argument("a")
            p.add_argument("b")
            return cmd_agree(p.parse_args(argv[1:]), spec)
        if argv and argv[0] == "compare":
            p = argparse.ArgumentParser(prog="run.py compare")
            p.add_argument("parent")
            p.add_argument("change")
            p.add_argument("--pairs", type=int, default=10)
            return cmd_compare(p.parse_args(argv[1:]), spec)
        p = argparse.ArgumentParser(prog="run.py")
        p.add_argument("--workload")
        p.add_argument("--seed", type=int, default=1)
        p.add_argument("--seconds", type=float, default=0)
        p.add_argument("--trace", type=int, choices=[0, 1], default=0)
        p.add_argument("--out")
        p.add_argument("--smoke", action="store_true")
        args = p.parse_args(argv)
        if args.smoke:
            return cmd_smoke(spec)
        return cmd_run(args, spec)
    except (BenchError, OSError, subprocess.TimeoutExpired) as e:
        log(f"run.py: {e}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
