"""Benchmark of the ``toricmaxent`` command line, run in process.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload toric-ideal --seed 1 --seconds 25 --trace 0

One closed-loop client in one process sends a seeded request corpus
through ``toricmaxent.cli.main(argv, out, err)`` pass after pass until
``--seconds`` have gone by (whole passes only, at least two), checks every
output, and prints one JSON line of metrics last.  ``--trace 1`` runs
untraced passes, then traced passes with spans at every module boundary,
and reports per-layer figures per pass and the tracing overhead.  Timings
are scaled to a reference host speed measured by a calibration loop.  See
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import bisect
import io
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

# One client and no threads: numpy's BLAS would otherwise start a thread
# per vCPU for the m x d products of the numeric fits.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import corpus  # noqa: E402
import spans  # noqa: E402
from oracle import Oracle  # noqa: E402

# No run may outlive this many seconds of measuring, whatever --seconds says.
RUN_DEADLINE_S = 150.0
SETUP_REPEATS = 5
MIN_PASSES = 2
# Timings are scaled to a host on which ``calibration_s`` takes CAL_REF_S,
# using calibrations taken at least every CAL_EVERY_S between calls.
CAL_REF_S = 0.005
CAL_EVERY_S = 0.25

END_TO_END = [
    ("throughput_rps", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
]


class RequestTimeout(BaseException):
    """Raised by the interval timer; a BaseException so no handler in the program swallows it."""


def _on_alarm(signum, frame):
    raise RequestTimeout()


def _on_term(signum, frame):
    raise SystemExit(128 + signum)


def calibration_s() -> float:
    """Seconds for a fixed pure-Python loop of rational and dict arithmetic.

    It does not touch the package, so its time measures only the host's
    current speed.
    """
    start = time.perf_counter()
    acc, table = Fraction(0), {}
    for i in range(1, 1500):
        key = (i % 97, i % 13)
        table[key] = table.get(key, 0) + i
        acc += Fraction(i, i + 1)
    return time.perf_counter() - start


def materialize(requests, workdir: Path) -> None:
    """Write each request's input files and point its argv at them."""
    unique = {id(req): req for req in requests}.values()
    for index, req in enumerate(unique):
        folder = workdir / f"r{index:04d}"
        folder.mkdir(parents=True)
        for name, text in req.files.items():
            (folder / name).write_text(text)
        req.argv = [str(folder / a[1:]) if a.startswith("@") else a for a in req.argv]
        req.files = {}


class Runner:
    def __init__(self, requests, main, deadline: float):
        from toricmaxent.ratpoly import parse_poly

        self.requests = requests
        self.main = main
        self.deadline = deadline
        self.tracer = None
        self.oracle = Oracle(parse_poly)
        # one record per measured call: (request id, pass number, start, end,
        # seconds in the call less the calibrations run inside it)
        self.calls: list[tuple[str, int, float, float, float]] = []
        self.cal_times: list[float] = []
        self.cal_values: list[float] = []
        self.in_call_s = 0.0
        self.cap_end = 0.0
        self.passes = 0
        self.attempted = self.failed = self.correct_count = self.timeouts = 0
        self.wrong: list[str] = []
        self.defect_failures: dict[str, int] = {}

    def call(self, req):
        out, err = io.StringIO(), io.StringIO()
        cap = min(req.cap_s, self.deadline - time.perf_counter())
        if cap <= 0:
            return None
        if self.tracer is not None:
            self.tracer.request = req.rid
        signal.signal(signal.SIGALRM, self._tick)
        self.in_call_s = 0.0
        start = time.perf_counter()
        self.cap_end = start + cap
        signal.setitimer(signal.ITIMER_REAL, CAL_EVERY_S, CAL_EVERY_S)
        try:
            rc = self.main(list(req.argv), out, err)
        except RequestTimeout:
            rc = None
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        end = time.perf_counter()
        return rc, (start, end, end - start - self.in_call_s), out.getvalue(), err.getvalue()

    def _tick(self, signum, frame):
        """Timer tick during a call: enforce the cap, else calibrate.

        Calibrating inside long calls keeps the scale of a call that spans
        seconds true to the speed while it ran; the calibration's own time
        is taken off the call's.
        """
        if time.perf_counter() >= self.cap_end:
            raise RequestTimeout()
        started = time.perf_counter()
        self.calibrate()
        self.in_call_s += time.perf_counter() - started

    def calibrate(self) -> None:
        self.cal_times.append(time.perf_counter())
        self.cal_values.append(calibration_s())

    def run_pass(self, record: bool = True) -> bool:
        """One pass over the corpus; False when a cap or the deadline cut it short."""
        number = self.passes
        for req in self.requests:
            if record and (not self.cal_times or time.perf_counter() - self.cal_times[-1] >= CAL_EVERY_S):
                self.calibrate()
            result = self.call(req)
            if result is None:
                return False
            rc, timing, out, err = result
            if not record:
                continue
            self.attempted += 1
            self.calls.append((req.rid, number, *timing))
            why = "timed out" if rc is None else self.oracle.verdict(req, rc, out)
            if why is None:
                self.correct_count += 1
                continue
            self.failed += 1
            if rc is None:
                self.timeouts += 1
                return False
            if req.defect is not None:
                self.defect_failures[req.defect] = self.defect_failures.get(req.defect, 0) + 1
            else:
                self.wrong.append(f"{req.rid}: {why} | stderr: {err.strip()[:200]}")
        if record:
            self.calibrate()  # closes the bracket around the last call
            self.passes += 1
        return True

    def scaled_calls(self) -> list[tuple[str, int, float]]:
        """Each call's seconds scaled to the reference host speed.

        The scale comes from the calibrations during the call and just before
        and after it, so a call timed while the host ran slow is scaled down.
        """
        scaled = []
        for rid, number, start, end, elapsed in self.calls:
            first = bisect.bisect_left(self.cal_times, start)
            last = bisect.bisect_right(self.cal_times, end)
            around = self.cal_values[max(first - 1, 0):last + 1]
            scaled.append((rid, number, elapsed * CAL_REF_S / statistics.fmean(around)))
        return scaled


def measure_setup(root: Path, problem: Path) -> tuple[float, float]:
    """Median cold start, scaled and as timed.

    A cold start is a fresh interpreter that imports the CLI and answers one
    tiny fit; calibrations on either side of each one give its scale.
    """
    code = (
        "import io, sys; sys.path.insert(0, 'src'); from toricmaxent.cli import main; "
        f"sys.exit(main(['fit', {str(problem)!r}], io.StringIO(), io.StringIO()))"
    )
    scaled, raw = [], []
    for _ in range(SETUP_REPEATS):
        before = calibration_s()
        start = time.perf_counter()
        child = subprocess.Popen([sys.executable, "-c", code], cwd=root)
        # a blocking wait under the interval timer: Popen.wait(timeout) polls
        # in steps of up to 50 ms, which would round the figure to them
        signal.setitimer(signal.ITIMER_REAL, 60)
        try:
            returncode = child.wait()
        except RequestTimeout:
            child.kill()
            child.wait()
            raise
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        elapsed = time.perf_counter() - start
        if returncode != 0:
            raise RuntimeError(f"cold start exited with {returncode}")
        raw.append(elapsed)
        scaled.append(elapsed * CAL_REF_S / statistics.fmean([before, calibration_s()]))
    return statistics.median(scaled), statistics.median(raw)


def provenance(root: Path, args, requests, passes: int) -> dict:
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
        ).stdout.strip() or "unknown"
    except OSError:
        sha = "unknown"
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    import numpy

    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "requests": len({req.rid for req in requests}),
        "calls_per_pass": len(requests),
        "passes": passes,
    }


def percentile(values, q: float) -> float:
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def per_request(calls) -> dict[str, float]:
    """Each request's mean seconds over its calls."""
    samples: dict[str, list[float]] = {}
    for rid, _, seconds in calls:
        samples.setdefault(rid, []).append(seconds)
    return {rid: statistics.fmean(v) for rid, v in samples.items()}


def timing_figures(runner, calls) -> dict:
    """Throughput and latency percentiles over the distinct requests."""
    latency = list(per_request(calls).values())
    latency_ms = [x * 1e3 for x in latency]
    return {
        "throughput_rps": runner.correct_count / runner.attempted * len(latency) / sum(latency),
        "latency_p50_ms": percentile(latency_ms, 0.5),
        "latency_p90_ms": percentile(latency_ms, 0.9),
    }


def pass_seconds(calls, passes: int) -> list[float]:
    totals = [0.0] * passes
    for _, number, seconds in calls:
        if number < passes:
            totals[number] += seconds
    return totals


def class_summary(calls, requests) -> dict:
    """Median request latency per class, and the classes within 3% of rank around p50 and p90."""
    cls = {req.rid: req.cls for req in requests}
    latency = per_request(calls)
    by_class: dict[str, list[float]] = {}
    for rid, seconds in latency.items():
        by_class.setdefault(cls[rid], []).append(seconds * 1e3)
    order = sorted(latency, key=latency.__getitem__)
    n = len(order)
    around = {}
    for q in (0.5, 0.9):
        lo, hi = int((q - 0.03) * (n - 1)), int(round((q + 0.03) * (n - 1)))
        around[f"p{int(q * 100)}"] = sorted({cls[rid] for rid in order[lo:hi + 1]})
    return {
        "median_ms": {c: round(statistics.median(v), 3) for c, v in sorted(by_class.items())},
        "requests": {c: len(v) for c, v in sorted(by_class.items())},
        "around": around,
    }


def run(args, root: Path, requests, workdir: Path) -> dict:
    from toricmaxent import cli

    started = time.perf_counter()
    signal.signal(signal.SIGALRM, _on_alarm)
    materialize(requests, workdir)
    setup = None
    if not args.trace:
        tiny = workdir / "tiny.json"
        tiny.write_text(json.dumps({"m": 3, "constraints": [{"name": "t", "values": [0, 1, 2], "target": "1"}]}))
        setup = measure_setup(root, tiny)

    deadline = started + RUN_DEADLINE_S
    runner = Runner(requests, cli.main, deadline)
    # warm-up: each command once on its smallest input, untimed and unchecked
    warm: dict[str, corpus.Request] = {}
    for req in sorted(requests, key=lambda r: os.path.getsize(r.argv[1])):
        warm.setdefault(req.argv[0], req)
    Runner(list(warm.values()), cli.main, deadline).run_pass(record=False)

    layer_passes: list[dict] = []
    t0 = time.perf_counter()
    budget = args.seconds / 2 if args.trace else args.seconds
    while runner.run_pass():
        if time.perf_counter() - t0 >= budget and runner.passes >= (1 if args.trace else MIN_PASSES):
            break
    untraced_passes = runner.passes
    if args.trace and runner.timeouts == 0:
        tracer = runner.tracer = spans.Tracer()
        runner.main = spans.install(tracer)
        kept: list[list[spans.Span]] = []
        try:
            t1 = time.perf_counter()
            while True:
                tracer.reset()
                if not runner.run_pass():
                    break
                layer_passes.append(spans.pass_metrics(tracer))
                kept.append(tracer.spans)
                if time.perf_counter() - t1 >= args.seconds / 2:
                    break
        finally:
            tracer.uninstall()
            runner.main, runner.tracer = cli.main, None
        spans.write(kept, HERE / ".spans" / f"{args.workload}-seed{args.seed}.jsonl")
    signal.setitimer(signal.ITIMER_REAL, 0)
    return {"runner": runner, "setup": setup, "untraced_passes": untraced_passes, "layer_passes": layer_passes}


def layer_metrics(res) -> tuple[dict, list[str]]:
    """Median over traced passes; counts must repeat exactly from pass to pass."""
    passes = res["layer_passes"]
    values, unstable = {}, []
    for name, unit, span in spans.LAYER_METRICS:
        series = [p[name] for p in passes]
        if name in spans.COUNT_NAMES and len(set(series)) > 1:
            unstable.append(name)
        values[name] = (statistics.median(series) if series else 0.0, unit)
    runner, split = res["runner"], res["untraced_passes"]
    times = pass_seconds(runner.scaled_calls(), runner.passes)
    untraced, traced = times[:split], times[split:]
    overhead = (statistics.median(traced) / statistics.median(untraced) - 1.0) * 100.0 if untraced and traced else 0.0
    values["trace.overhead_pct"] = (overhead, "%")
    return values, unstable


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(corpus.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "toricmaxent" / "cli.py").is_file():
        print("error: run from the root of a toricmaxent checkout (src/toricmaxent not found)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))

    signal.signal(signal.SIGTERM, _on_term)  # so the work directory is removed
    requests = corpus.WORKLOADS[args.workload](args.seed)
    workdir = HERE / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        res = run(args, root, requests, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    runner = res["runner"]
    scaled = runner.scaled_calls()
    raw = [(rid, number, seconds) for rid, number, _, _, seconds in runner.calls]
    report = {
        "provenance": provenance(root, args, requests, runner.passes),
        "error_rate": runner.failed / runner.attempted if runner.attempted else 1.0,
        "known_defect_failures": runner.defect_failures,
        "timeouts": runner.timeouts,
        "calibration_ms_median": statistics.median(runner.cal_values) * 1e3 if runner.cal_values else None,
        "pass_seconds": [round(x, 3) for x in pass_seconds(raw, runner.passes)],
        "classes": class_summary(scaled, requests) if scaled else {},
        "wrong": runner.wrong[:20],
    }
    if args.trace:
        values, unstable = layer_metrics(res)
        report["unstable_counts"] = unstable
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in values.items()}
    else:
        scaled_setup, raw_setup = res["setup"]
        report["as_timed"] = {**timing_figures(runner, raw), "setup_s": raw_setup}
        e2e = {
            **timing_figures(runner, scaled),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "setup_s": scaled_setup,
        }
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END}
    print(json.dumps({"report": report}))
    for name, m in metrics.items():
        print(f"{name:28s} {m['value']:14.6g} {m['unit']}")
    correct = not runner.wrong and runner.attempted > 0
    print(json.dumps({"correct": correct, "attempted": runner.attempted, "failed": runner.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
