"""exactgf benchmark: one closed-loop process runs a workload's cases one
at a time, each certified by the library and then checked against
independent references, and prints the metrics.

    python3 perfbench/run.py --workload grid-cofactor --seed 1 --seconds 30 --trace 0

--trace 0 prints the end-to-end metrics (wall_s, setup_s, peak_rss_mb),
whose times are in reference seconds (see calibration.py);
--trace 1 runs untraced and traced passes in turn and prints the
per-layer metrics.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.  Run metadata, the
per-case times and, for traced runs, the spans go to perfbench/out/.
"""
from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import asdict

import calibration
import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

#: Timed set-ups before the first pass; the end-to-end run adds one about
#: every SETUP_INTERVAL_S seconds after it, so the samples span the run
#: and their median is steady.
SETUP_REPEATS = 5
SETUP_INTERVAL_S = 1.0

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
_UNIT_BY_SUFFIX = {"s": "s", "self_s": "s", "overhead_s": "s", "max_dim": "rows",
                   "stdout_bytes": "bytes", "terms_per_s": "1/s"}


def layer_unit(name):
    return _UNIT_BY_SUFFIX.get(name.rsplit(".", 1)[-1], "count")


def import_exactgf():
    """A fresh import of the package, and its CLI, from this checkout."""
    for name in [m for m in sys.modules if m == "exactgf" or m.startswith("exactgf.")]:
        del sys.modules[name]
    if not os.path.isfile(os.path.join(SRC, "exactgf", "__init__.py")):
        raise ImportError(f"no exactgf package under {SRC}")
    if sys.path[0] != SRC:
        sys.path.insert(0, SRC)
    gf = importlib.import_module("exactgf")
    importlib.import_module("exactgf.cli")
    return gf


def time_setup(workload, seed, clock):
    """One timed fresh import plus case construction: (wall seconds,
    reference seconds, exactgf, cases)."""
    gc.collect()
    clock.start()
    gf = import_exactgf()
    cases = workloads.WORKLOADS[workload](gf, seed)
    return (*clock.stop(), gf, cases)


def median_ref_s(samples):
    """Median reference seconds of (wall, reference) samples."""
    return statistics.median(ref for _, ref in samples)


class Runner:
    """Runs cases, timing the library call alone against the calibration
    clock; each run records (wall seconds, reference seconds).  The first
    output of a
    case is checked against its references, and every later output of the
    same case must equal the first; both happen outside the timed region.
    A case run that raises or mismatches is counted as failed and the run
    goes on."""

    def __init__(self, cases, clock=None):
        self.cases = cases
        self.clock = clock or calibration.Clock()
        self.durations = {c.name: [] for c in cases}
        self.first = {}
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def execute(self, case, durations=None):
        """One timed call; records its times in durations (by default
        self.durations) and returns its plain output, or None if it failed."""
        times = (self.durations if durations is None else durations)[case.name]
        self.attempted += 1
        gc.collect()
        self.clock.start()
        try:
            raw, error = case.call(), None
        except Exception as exc:  # a failing case is recorded, not fatal
            raw, error = None, exc
        times.append(self.clock.stop())
        if error is not None:
            return self._fail(case, [f"raised {type(error).__name__}: {error}"])
        try:
            data = case.plain(raw)
            if case.name in self.first:
                problems = ([] if data == self.first[case.name]
                            else ["output differs from the case's first run"])
            else:
                problems = case.check(data)
                self.first[case.name] = data
        except Exception as exc:
            problems = [f"check raised {type(exc).__name__}: {exc}"]
        return self._fail(case, problems) if problems else data

    def _fail(self, case, problems):
        self.failed += 1
        self.failures += [{"case": case.name, "problem": p} for p in problems]
        return None

    def run_pass(self):
        return {case.name: self.execute(case) for case in self.cases}

    def fill(self, deadline, tick):
        """Until the deadline, repeat the case with the fewest runs (the
        longest first among equals) that still fits, judged by its fastest
        wall time; tick() is called before each choice."""
        while True:
            tick()
            now = time.perf_counter()
            fastest = {name: min(wall for wall, _ in d) for name, d in self.durations.items()}
            fitting = [c for c in self.cases if now + fastest[c.name] <= deadline]
            if not fitting:
                return
            self.execute(min(fitting, key=lambda c: (len(self.durations[c.name]),
                                                      -fastest[c.name])))

    def wall_s(self, durations=None):
        """Reference seconds to certify every case once: the sum of
        per-case medians."""
        return sum(map(median_ref_s, (durations or self.durations).values()))

    def wall_clock_s(self):
        """The same in wall seconds, for the log only: it moves with the
        host's speed."""
        return sum(statistics.median(wall for wall, _ in d) for d in self.durations.values())


def end_to_end(runner, seconds, setup_times, workload, seed):
    """One pass, then repeats until `seconds` have passed, with a set-up
    sample about every SETUP_INTERVAL_S seconds."""
    start = time.perf_counter()
    runner.run_pass()
    last = [0.0]

    def tick():
        if time.perf_counter() - last[0] >= SETUP_INTERVAL_S:
            setup_times.append(time_setup(workload, seed, runner.clock)[:2])
            last[0] = time.perf_counter()

    runner.fill(start + seconds, tick)
    return {
        "wall_s": runner.wall_s(),
        "setup_s": median_ref_s(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }, {"wall_clock_s": runner.wall_clock_s()}


def per_layer(runner, gf, seconds):
    """Untraced and traced passes in turn, at least one of each, while
    another pair fits in `seconds`.  Every traced output must equal the
    untraced one.  The layer metrics come from the first traced pass;
    trace.overhead_s compares the per-case medians of the two kinds."""
    start = time.perf_counter()
    traced = {c.name: [] for c in runner.cases}
    first = None
    pairs = 0
    while True:
        runner.run_pass()
        tracer = tracing.Tracer()
        tracer.install(gf)
        try:
            outputs = {}
            for case in runner.cases:
                tracer.case = case.name
                outputs[case.name] = runner.execute(case, traced)
        finally:
            tracer.remove()
        first = first or (tracer, outputs)
        pairs += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / pairs > seconds:
            break
    tracer, outputs = first
    stdout_bytes = sum(d.get("stdout_bytes", 0) for d in outputs.values() if isinstance(d, dict))
    metrics = tracing.layer_metrics(tracer.spans, stdout_bytes)
    metrics["trace.overhead_s"] = runner.wall_s(traced) - runner.wall_s()
    extra = {
        "traced_durations_s": traced,
        "dominant_shares": tracing.dominant_shares(tracer.spans),
        "untraced_points": tracer.missing,
        "spans": [asdict(s) for s in tracer.spans],
    }
    return metrics, extra


def git_commit(root):
    """The checked-out commit read from .git, or None outside a repository."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.isfile(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    try:
        import_exactgf()  # untimed warm-up: byte-compiles on a fresh checkout
        clock = calibration.Clock()
        setup_times = []
        for _ in range(SETUP_REPEATS):
            *times, gf, cases = time_setup(args.workload, args.seed, clock)
            setup_times.append(times)
    except ImportError as exc:
        print(f"error: cannot import exactgf from this checkout: {exc}", file=sys.stderr)
        return 2
    runner = Runner(cases, clock)
    if args.trace:
        metrics, extra = per_layer(runner, gf, args.seconds)
        units = {name: layer_unit(name) for name in metrics}
    else:
        metrics, extra = end_to_end(runner, args.seconds, setup_times, args.workload, args.seed)
        units = END_TO_END_UNITS

    spans = extra.pop("spans", None)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    _write(f"{tag}.json", {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": git_commit(ROOT),
        "cases": [c.name for c in cases],
        "reference_s": calibration.REFERENCE_S,
        "setup_s": setup_times,
        "durations_s": runner.durations,
        "failed_ratio": {"failed": runner.failed, "attempted": runner.attempted},
        "failures": runner.failures,
        "metrics": metrics,
        **extra,
    })
    if spans is not None:
        _write(f"{tag}-spans.json", spans, indent=None)

    for f in runner.failures:
        print(f"FAILED {f['case']}: {f['problem']}")
    for name, share in extra.get("dominant_shares", {}).items():
        print(f"share of traced time in {name}: {share:.3f}")
    print(f"failed_ratio {runner.failed}/{runner.attempted} "
          "(failed case runs / case runs attempted)")
    if "wall_clock_s" in extra:
        print(f"wall_clock_s {extra['wall_clock_s']:.6g} s (not a metric: moves with the host's speed)")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }))
    return 0


def _write(name, obj, indent=1):
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, name), "w") as fh:
        json.dump(obj, fh, indent=indent, default=str)


if __name__ == "__main__":
    sys.exit(main())
