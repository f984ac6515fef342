"""hkrlab benchmark: cold time to verdict, one fresh interpreter per repetition.

    python3 bench/run.py --workload {verify-all,wedge-sphere2,hkr-desk,all}
                         --seed N --seconds S --trace {0,1}

Run from the root of a checkout; hkrlab is imported from its ``src``.  A
closed loop with one client: the runner starts one child interpreter
(bench/child.py) at a time and waits for it, so one child runs at a time,
beside the speed probe described below.  Every timed repetition pays for
imports and lazy construction, as a ``verify`` invocation does, so no
cache can carry over between them.

With ``--trace 0`` the runner repeats the workload until ``--seconds`` is
spent and reports the end-to-end metrics as medians over repetitions:

  verify_s      wall time from the first check starting to the verdict
  setup_s       wall time from launching the interpreter to the first check
                (imports, config, nerve, seeded inputs); also sampled by
                extra children that stop after set-up
  cpu_s         user plus system CPU time of the child
  peak_rss_mib  peak resident memory of the child

The three times are given at a fixed machine speed.  The runner pins the
children to one CPU, and beside them a speed probe (bench/pace.py) that
repeats a fixed unit of work for a tenth of that CPU's time.  Each time is
scaled by REFERENCE_UNIT_S over the probe's mean CPU time per unit in the
same interval, and the wall times exclude the probe's own CPU time.  A CPU
of a shared host drifts by tens of percent within seconds, so the raw
times spread too widely to compare two commits; the scaled ones do not.
The raw times are printed too.  Since the children have one CPU, a
process pool inside hkrlab would not lower verify_s here.

With ``--trace 1`` it runs the workload once untraced and once traced (the
layer tracer of bench/layertrace.py), reports the per-layer metrics and
``trace.overhead_share``, and runs the layer-coverage self-test against
bench/predictions.json.

Every pass-required claim is checked.  A crash, a failed claim, or a
report that is not byte-identical across repetitions of one seed counts as
a failed claim; any failure makes the runner exit with status 1.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from child import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = ROOT / "src" / "hkrlab"
OUT = ROOT / ".bench_out"
SETUP_ONLY_CHILDREN = 6  # per full repetition; set-up is short, so it needs many samples
MIN_REPETITIONS = 2
RUN_LIMIT_S = 150  # a run ends well inside the 180 s a run may take
REFERENCE_UNIT_S = 0.002  # about the CPU time of one probe unit on a 2.1 GHz Xeon
PACE_MIN_UNITS = 10  # a speed is the mean over at least this many probe units


class ChildFailed(Exception):
    pass


def run_child(workload, seed, deadline, setup_only=False, trace_file=None):
    """Launch one child and wait for it; returns its result and resource use."""
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload, "--seed", str(seed)]
    if setup_only:
        cmd.append("--setup-only")
    if trace_file:
        cmd += ["--trace", str(trace_file)]
    launched = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
    timer = threading.Timer(max(1.0, deadline - launched), proc.kill)
    timer.start()
    try:
        out = proc.stdout.read().decode(errors="replace")
        _, status, usage = os.wait4(proc.pid, 0)
        ended = time.monotonic()
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        timer.cancel()
        proc.stdout.close()
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"{workload} seed {seed}: exit {proc.returncode}\n{out[-2000:]}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        raise ChildFailed(f"{workload} seed {seed}: no result line\n{out[-2000:]}")
    result["launched"] = launched
    result["ended"] = ended
    result["setup_s"] = result["first_check"] - launched
    if not setup_only:
        result["verify_s"] = result["verdict"] - result["first_check"]
        result["cpu_s"] = usage.ru_utime + usage.ru_stime
        result["peak_rss_mib"] = usage.ru_maxrss / 1024  # ru_maxrss is in KiB on Linux
    return result


class Pace:
    """The machine-speed probe, on the children's CPU for the life of a ``with`` block."""

    def __init__(self):
        self.proc = None
        self.rows = []
        self.affinity = os.sched_getaffinity(0)

    def __enter__(self):
        os.sched_setaffinity(0, {min(self.affinity)})  # the probe and every child inherit it
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "pace.py")], cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE
        )
        if self.proc.stdout.readline().strip() != b"ready":
            self.__exit__(None, None, None)
            raise ChildFailed("speed probe did not start")
        return self

    def __exit__(self, *exc):
        os.sched_setaffinity(0, self.affinity)
        if self.proc is None:
            return
        try:
            out, _ = self.proc.communicate(timeout=10)  # closes the probe's input, which stops it
            self.rows = json.loads(out)
            if not self.rows:
                raise ChildFailed("speed probe ran no unit")
        except (subprocess.TimeoutExpired, json.JSONDecodeError):
            self.proc.kill()
            self.proc.wait()
            raise ChildFailed("speed probe gave no result")
        finally:
            self.proc = None

    def scale(self, t0, t1):
        """Factor that brings a time measured in [t0, t1] to the reference speed."""
        inside = [cpu for start, end, cpu in self.rows if t0 <= start and end <= t1]
        if len(inside) < PACE_MIN_UNITS:
            mid = (t0 + t1) / 2
            nearest = sorted(self.rows, key=lambda row: abs(row[0] + row[1] - 2 * mid))
            inside = [cpu for _, _, cpu in nearest[:PACE_MIN_UNITS]]
        return REFERENCE_UNIT_S / statistics.fmean(inside)

    def wall(self, t0, t1):
        """Wall time of [t0, t1] less the probe's CPU time in it, at the reference speed."""
        probe = sum(cpu for start, end, cpu in self.rows if t0 <= (start + end) / 2 < t1)
        return (t1 - t0 - probe) * self.scale(t0, t1)


class Tally:
    """Claims attempted and failed, with the reason for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def claim(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    def child(self, result):
        self.attempted += result["attempted"]
        self.failures += result["failed"]


def tail_percentile(n):
    """Highest whole percentile with at least ten of n samples beyond it, or None."""
    p = int(100 * (n - 10) / n) if n > 10 else 0
    return p if p > 0 else None


def summarize(name, values, unit):
    p = tail_percentile(len(values))
    if p is None:
        tail = "no tail percentile below 11 samples"
    else:
        tail = f"p{p} {statistics.quantiles(values, n=100)[p - 1]:.4f}"
    print(f"{name:<14} median {statistics.median(values):.4f} {unit:<4} n={len(values)}  {tail}")


def run_timed(workload, seed, seconds, units, tally):
    start = time.monotonic()
    hard_end = start + RUN_LIMIT_S
    setups = []
    reps = []
    with Pace() as pace:
        while True:
            try:
                # interleaved with the repetitions, so that set-up is sampled across the run
                setups += [run_child(workload, seed, hard_end, setup_only=True) for _ in range(SETUP_ONLY_CHILDREN)]
                result = run_child(workload, seed, hard_end)
            except ChildFailed as err:
                print(err, file=sys.stderr)
                tally.claim(False, f"crash: {str(err).splitlines()[0]}")
                break
            tally.child(result)
            print(f"repetition {len(reps) + 1} raw: " + "  ".join(f"{n} {result[n]:.4f}" for n in units))
            if reps:
                tally.claim(result["digest"] == reps[0]["digest"], f"report differs in repetition {len(reps) + 1}")
            reps.append(result)
            elapsed = time.monotonic() - start
            cycle = elapsed / len(reps)
            if len(reps) >= MIN_REPETITIONS and elapsed + cycle > seconds:
                break
            if elapsed + 1.5 * cycle > RUN_LIMIT_S:
                break
    if not reps:
        return {}
    unit_ms = 1000 * statistics.median(cpu for _, _, cpu in pace.rows)
    print(f"speed probe: median unit {unit_ms:.3f} ms of CPU over {len(pace.rows)} units, "
          f"reference {1000 * REFERENCE_UNIT_S:.3f} ms; times below are scaled to the reference")
    for r in reps + setups:
        r["setup_s"] = pace.wall(r["launched"], r["first_check"])
    for r in reps:
        r["verify_s"] = pace.wall(r["first_check"], r["verdict"])
        r["cpu_s"] *= pace.scale(r["launched"], r["ended"])
    for i, r in enumerate(reps, 1):
        print(f"repetition {i} scaled: " + "  ".join(f"{n} {r[n]:.4f}" for n in units))
    samples = {name: [r[name] for r in reps] for name in units}
    samples["setup_s"] += [r["setup_s"] for r in setups]
    for name, unit in units.items():
        summarize(name, samples[name], unit)
    return {name: {"value": statistics.median(samples[name]), "unit": unit} for name, unit in units.items()}


def coverage_checks(workload, layers):
    """Layer-coverage self-test: (ok, claim) for each row of the prediction table."""
    table = json.loads((HERE / "predictions.json").read_text())
    for row in table["rows"]:
        if workload in row["on"]:
            for metric in row["metrics"]:
                yield layers.get(metric, 0) > 0, f"{metric} is nonzero on {workload}, where its row works"
        for metric in row["zero_on"].get(workload, ()):
            yield layers.get(metric, 0) == 0, f"{metric} is zero on {workload}, which its row bypasses"


def run_traced(workload, seed, units, tally):
    OUT.mkdir(exist_ok=True)
    hard_end = time.monotonic() + RUN_LIMIT_S
    plain = run_child(workload, seed, hard_end)
    tally.child(plain)
    spans = OUT / f"spans-{workload}-{seed}.jsonl.gz"
    traced = run_child(workload, seed, hard_end, trace_file=spans)
    tally.child(traced)
    tally.claim(traced["digest"] == plain["digest"], "traced report differs from the untraced one")
    tally.claim(not traced["leaks"], f"calls bypass the tracer: {traced['leaks']}")
    for ok, claim in coverage_checks(workload, traced["layers"]):
        tally.claim(ok, claim)
    layers = dict(traced["layers"])
    layers["trace.overhead_share"] = traced["verify_s"] / plain["verify_s"] - 1
    metrics = {}
    for name, unit in units.items():
        metrics[name] = {"value": layers.get(name, 0), "unit": unit}
        print(f"{name:<40} {metrics[name]['value']:.6g} {unit}")
    print(f"spans recorded: {traced['spans']} (written to {spans.relative_to(ROOT)})")
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description="hkrlab cold time-to-verdict benchmark")
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (PACKAGE / "__init__.py").is_file():
        print(f"no hkrlab package at {PACKAGE}: run from the root of a checkout", file=sys.stderr)
        return 2
    # users run an installed package, whose bytecode is compiled once
    if not compileall.compile_dir(str(PACKAGE), quiet=1):
        print("hkrlab does not compile", file=sys.stderr)
        return 2

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    tally = Tally()
    metrics = {}
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    for workload in workloads:
        print(f"== {workload} (seed {args.seed}, {'traced' if args.trace else f'{args.seconds} s'})")
        try:
            if args.trace:
                got = run_traced(workload, args.seed, units, tally)
            else:
                got = run_timed(workload, args.seed, args.seconds, units, tally)
        except ChildFailed as err:
            print(err, file=sys.stderr)
            tally.claim(False, f"crash: {str(err).splitlines()[0]}")
            got = {}
        prefix = f"{workload}." if args.workload == "all" else ""
        metrics.update({prefix + name: m for name, m in got.items()})
    for failure in tally.failures:
        print(f"FAILED: {failure}")
    print(f"fail_share {len(tally.failures) / max(tally.attempted, 1):.4f} "
          f"({len(tally.failures)} of {tally.attempted} claims)")
    correct = not tally.failures
    print(json.dumps({"correct": correct, "attempted": max(tally.attempted, 1),
                      "failed": len(tally.failures), "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
