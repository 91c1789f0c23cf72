"""Self-test of the benchmark on a tiny corpus of each workload.

Run from the root of a source checkout:

    python3 perfbench/selftest.py

It checks that every tiny request passes its oracle, that the oracle
rejects deliberately corrupted outputs (a fit's ``p`` perturbed by 1e-6, an
ideal with a generator dropped, a wrong exit code, a changed repeat), and
that a traced pass yields every per-layer metric with counts that repeat
exactly.  Exits 0 when all of that holds.
"""

from __future__ import annotations

import io
import json
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import corpus  # noqa: E402
import spans  # noqa: E402
from oracle import Oracle  # noqa: E402
from run import Runner, materialize  # noqa: E402

TINY = {
    "toric-ideal": {"shapes": ["2x2", "2x3", "rnc4"], "checks": {"2x2": (1, 0, 1), "rnc4": (1, 1, 0)}},
    "exact-fit": {"d1": 1, "d2": 1, "d3": 1, "fallback": 1, "samples": 1, "heavy": 0, "system": 1, "dual": 1},
    "numeric-fit": {
        "plan": [(1000, 1, "newton", "targets", 1), (1000, 3, "gis", "samples", 1), (1000, 3, "newton", "prior", 1)],
        "stall_probes": corpus.STALL_PROBES[:1],
    },
}

# Layers each workload must exercise: these per-layer metrics may not read 0 on it.
EXERCISED = {
    "toric-ideal": ["toric.ideal_ms", "toric.kernel_ms", "toric.generators", "toric.membership_ms",
                    "ratpoly.buchberger_ms", "ratpoly.spairs_reduced", "ratpoly.basis_size", "cli.parse_ms"],
    "exact-fit": ["maxent.sturm_ms", "maxent.system_ms", "maxent.fallbacks", "cli.render_ms",
                  "ratpoly.buchberger_ms", "maxent.package_ms", "maxent.newton_iterations"],
    "numeric-fit": ["maxent.solve_numeric_ms", "maxent.newton_iterations", "maxent.gis_iterations",
                    "maxent.iteration_us", "maxent.package_ms", "cli.build_ms", "cli.emit_ms", "cli.output_bytes"],
}

failures: list[str] = []


def expect(condition: bool, message: str) -> None:
    if not condition:
        failures.append(message)
        print(f"FAIL {message}")


def corrupted_outputs(requests) -> None:
    """The oracle must reject each deliberately broken output."""
    from toricmaxent.cli import main
    from toricmaxent.ratpoly import parse_poly

    fit = next(r for r in requests["numeric-fit"] if r.oracle == "fit" and r.defect is None)
    ideal = next(r for r in requests["toric-ideal"] if r.rid == "ideal/rnc4")
    for req in (fit, ideal):
        oracle = Oracle(parse_poly)
        out = io.StringIO()
        rc = main(list(req.argv), out, io.StringIO())
        out = out.getvalue()
        expect(oracle.verdict(req, rc, out) is None, f"{req.rid}: clean output rejected")
        payload = json.loads(out)
        if req is fit:
            payload["p"][0] += 1e-6
        else:
            payload["generators"] = payload["generators"][:-1]
        expect(Oracle(parse_poly).verdict(req, rc, json.dumps(payload)) is not None, f"{req.rid}: corrupted output accepted")
        expect(Oracle(parse_poly).verdict(req, rc + 1, out) is not None, f"{req.rid}: wrong exit code accepted")
        expect(oracle.verdict(req, rc, out + " ") is not None, f"{req.rid}: changed repeat accepted")


def main() -> int:
    root = Path.cwd()
    if not (root / "src" / "toricmaxent" / "cli.py").is_file():
        print("error: run from the root of a toricmaxent checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    from toricmaxent import cli

    workdir = HERE / ".work" / "selftest"
    shutil.rmtree(workdir, ignore_errors=True)
    requests = {}
    try:
        for name, scale in TINY.items():
            requests[name] = corpus.WORKLOADS[name](7, scale)
            materialize(requests[name], workdir / name)
            runner = Runner(requests[name], cli.main, time.perf_counter() + 120)
            tracer = spans.Tracer()
            runner.main = spans.install(tracer)
            passes = []
            try:
                for _ in range(2):
                    tracer.reset()
                    expect(runner.run_pass(), f"{name}: pass did not complete")
                    passes.append(spans.pass_metrics(tracer))
            finally:
                tracer.uninstall()
            expect(not runner.wrong, f"{name}: wrong outputs {runner.wrong}")
            expect(runner.failed == sum(runner.defect_failures.values()), f"{name}: untagged failures")
            names = [n for n, _, _ in spans.LAYER_METRICS]
            expect(all(sorted(p) == sorted(names) for p in passes), f"{name}: per-layer metric set incomplete")
            for metric in EXERCISED[name]:
                expect(passes[0][metric] > 0, f"{name}: {metric} reads 0")
            for metric in spans.COUNT_NAMES:
                expect(passes[0][metric] == passes[1][metric], f"{name}: count {metric} differs between passes")
            expect(not hasattr(cli.fit_numeric, "__wrapped__"), f"{name}: wrappers left installed")
        corrupted_outputs(requests)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("selftest:", "FAILED" if failures else "ok")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
