"""The gkmcalc benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload ring-cold --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run from the root of a checkout; the library is imported from `src/`. The
last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. `--trace 0` reports the end-to-end
metrics, `--trace 1` the per-layer ones (see README.md). `--walls 1` adds
the ops that run past today's walls and reports `failed_ops_ratio`.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("ring-cold", "queries-warm", "diffeo", "cli")
# Set-up runs at least three and at most five times, while under 3 s.
SETUP_REPEATS = 5
SETUP_BUDGET_S = 3.0
# Seconds `speed_probe` takes on a quiet 2-vCPU x86 container (Python 3.11),
# and how much op time may pass between two probes.
PROBE_REF_S = 0.0177
PROBE_EVERY_S = 0.25


class DeadlineExceeded(Exception):
    pass


def _alarm(signum, frame):
    raise DeadlineExceeded()


def import_library():
    """Import gkmcalc from this checkout's src/, and the workloads."""
    sys.path.insert(0, str(ROOT / "src"))
    import gkmcalc

    if Path(gkmcalc.__file__).resolve().parent != (ROOT / "src" / "gkmcalc").resolve():
        raise SystemExit("gkmcalc was imported from %s, not from this checkout" % gkmcalc.__file__)
    import workloads  # noqa: F401


def attempt(op, deadline, outcomes):
    """Run one op under the deadline and check its answer. Appends
    (label, seconds, outcome), outcome one of ok, wrong, raised, deadline."""
    signal.setitimer(signal.ITIMER_REAL, deadline)
    start = time.perf_counter()
    try:
        result = op.run()
        signal.setitimer(signal.ITIMER_REAL, 0)
        seconds = time.perf_counter() - start
    except (DeadlineExceeded, subprocess.TimeoutExpired):
        outcomes.append((op.label, time.perf_counter() - start, "deadline"))
        return
    except Exception as exc:  # a failed op is counted, and the run goes on
        outcomes.append((op.label, time.perf_counter() - start, "raised"))
        print("%s raised %s: %s" % (op.label, type(exc).__name__, exc), file=sys.stderr)
        return
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    try:
        op.checked(result)
    except Exception as exc:  # a wrong answer, or output the check cannot read
        outcomes.append((op.label, seconds, "wrong"))
        print("wrong answer from %s: %s: %s" % (op.label, type(exc).__name__, exc), file=sys.stderr)
        return
    outcomes.append((op.label, seconds, "ok"))


def speed_probe():
    """Seconds taken by a fixed pure-Python computation (dict updates and
    integer row elimination), a gauge of how fast the CPU runs right now."""
    start = time.perf_counter()
    for _ in range(12):
        counts = {}
        for i in range(120):
            for j in range(40):
                key = (i * 31 + j) % 97
                counts[key] = counts.get(key, 0) + i * j
        rows = [[(i * j + i) % 13 - 6 for j in range(24)] for i in range(24)]
        for t in range(23):
            pivot = rows[t][t] or 1
            for i in range(t + 1, 24):
                f = rows[i][t]
                rows[i] = [(a * pivot - f * b) % 1000003 for a, b in zip(rows[i], rows[t])]
    return time.perf_counter() - start


class Gauge:
    """Scales measured seconds to the reference CPU speed.

    Shared x86 containers change speed by up to 2x for seconds at a time,
    so plain op times measure the neighbours as much as the code. The
    runner times `speed_probe` at least every `PROBE_EVERY_S` seconds of op
    time and multiplies each op's time by PROBE_REF_S over the mean of the
    probes on either side of it. At the reference speed the scaled time is
    the measured time."""

    def __init__(self):
        self.last = speed_probe()

    def factor(self):
        probe = speed_probe()
        factor = PROBE_REF_S / ((self.last + probe) / 2)
        self.last = probe
        return factor


def play_round(order, gauge, run_one, outcomes):
    """Run each op once, in order, through `run_one(op, pending)`; append
    (label, scaled seconds, outcome) per attempt and return the measured
    seconds."""
    pending, since, measured = [], 0.0, 0.0
    for op in order:
        run_one(op, pending)
        since += pending[-1][1]
        if since >= PROBE_EVERY_S or op is order[-1]:
            factor = gauge.factor()
            outcomes += [(label, t * factor, outcome) for label, t, outcome in pending]
            measured += since
            pending, since = [], 0.0
    return measured


def play(ops, order_rng, seconds, deadline):
    """Whole rounds of all ops, each round freshly shuffled, until
    `seconds` of op time have passed."""
    gauge = Gauge()
    outcomes, elapsed = [], 0.0
    while elapsed < seconds:
        order = list(ops)
        order_rng.shuffle(order)
        elapsed += play_round(order, gauge, lambda op, out: attempt(op, deadline, out), outcomes)
    return outcomes


def mean_times(outcomes):
    """Each attempt charged at its op's mean time over the run's rounds."""
    runs = {}
    for label, seconds, _ in outcomes:
        runs.setdefault(label, []).append(seconds)
    return [statistics.fmean(runs[label]) for label, _, _ in outcomes]


def ops_per_s(outcomes, times):
    return sum(1 for _, _, o in outcomes if o == "ok") / sum(times)


def result_line(outcomes, metrics):
    wrong = sum(1 for _, _, o in outcomes if o in ("wrong", "raised"))
    return {
        "correct": wrong == 0,
        "attempted": len(outcomes),
        "failed": sum(1 for _, _, o in outcomes if o != "ok"),
        "metrics": metrics,
    }


def scaled(gauge, work):
    """Run `work()` and return its result and its time at reference speed."""
    start = time.perf_counter()
    result = work()
    return result, (time.perf_counter() - start) * gauge.factor()


def import_seconds(gauge):
    """Median over fresh interpreters of the time `import gkmcalc` takes."""
    code = ("import sys, time; sys.path.insert(0, 'src'); t = time.perf_counter(); import gkmcalc; "
            "print(time.perf_counter() - t)")
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True, check=True)
        times.append(float(proc.stdout) * gauge.factor())
    return statistics.median(times)


def run_untraced(args, workdir):
    import workloads

    gauge = Gauge()
    setups = []
    while len(setups) < SETUP_REPEATS and (len(setups) < 3 or sum(setups) < SETUP_BUDGET_S):
        ops = None  # let the previous set-up be freed first
        ops, seconds = scaled(gauge, lambda: workloads.WORKLOADS[args.workload](
            random.Random(args.seed), args.walls, None, workdir))
        setups.append(seconds)
    setup_s = import_seconds(gauge) + statistics.median(setups)
    outcomes = play(ops, random.Random("order-%d" % args.seed), args.seconds, workloads.DEADLINE_S)
    times = mean_times(outcomes)
    who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
    metrics = {
        "ops_per_s": (ops_per_s(outcomes, times), "1/s"),
        "op_p50_s": (statistics.median(times), "s"),
        "op_p90_s": (statistics.quantiles(times, n=10)[8], "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(who).ru_maxrss / 1024, "MB"),
    }
    if args.walls:
        metrics["failed_ops_ratio"] = (sum(1 for _, _, o in outcomes if o != "ok") / len(outcomes), "ratio")
    return outcomes, metrics


def run_traced(args, workdir):
    """One round untraced, then the same round with every layer wrapped.
    Per-layer times are plain seconds; the overhead ratio compares scaled
    op times."""
    import spans
    import workloads

    tracer = spans.Tracer()
    ops = workloads.WORKLOADS[args.workload](random.Random(args.seed), args.walls, tracer, workdir)
    order = list(ops)
    random.Random("order-%d" % args.seed).shuffle(order)
    deadline = workloads.DEADLINE_S

    def traced_one(op, out):
        tracer.op = op.label
        with tracer.span("op"):
            attempt(op, deadline, out)

    gauge = Gauge()
    plain, traced = [], []
    play_round(order, gauge, lambda op, out: attempt(op, deadline, out), plain)
    tracer.install()
    try:
        play_round(order, gauge, traced_one, traced)
    finally:
        tracer.uninstall()
    tracer.dump(HERE / "_work" / ("spans-%s-seed%d.json" % (args.workload, args.seed)))
    metrics = {}
    for name, value in spans.layer_metrics(tracer.spans).items():
        unit = "s" if name.endswith("_s") else "bits" if name.endswith("bits") else "count"
        metrics[name] = (value, unit)
    rates = [ops_per_s(run, [t for _, t, _ in run]) for run in (traced, plain)]
    metrics["trace.overhead_ratio"] = (rates[0] / rates[1], "ratio")
    return plain + traced, metrics


def run_all(args):
    """Each workload in its own process, one after another."""
    lines = []
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace), "--walls", str(args.walls)]
        proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            raise SystemExit("workload %s exited with %d" % (name, proc.returncode))
        line = json.loads(proc.stdout.strip().splitlines()[-1])
        print(json.dumps({"workload": name, **line}))
        lines.append((name, line))
    print(json.dumps({
        "correct": all(line["correct"] for _, line in lines),
        "attempted": sum(line["attempted"] for _, line in lines),
        "failed": sum(line["failed"] for _, line in lines),
        "metrics": {"%s.%s" % (name, k): v for name, line in lines for k, v in line["metrics"].items()},
    }))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--walls", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    # One CPU for this process and every child, so that the speed probe
    # gauges the CPU the ops run on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    import_library()
    signal.signal(signal.SIGALRM, _alarm)
    (HERE / "_work").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=HERE / "_work") as tmp:
        if args.trace:
            outcomes, metrics = run_traced(args, Path(tmp))
        else:
            outcomes, metrics = run_untraced(args, Path(tmp))
    print(json.dumps(result_line(outcomes, {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()})))


if __name__ == "__main__":
    main()
