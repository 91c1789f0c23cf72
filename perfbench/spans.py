"""Spans and counters at the package's module boundaries, for traced runs.

The wrappers replace module attributes (``toricmaxent.toric.buchberger``,
``toricmaxent.ratpoly.s_polynomial``, ``toricmaxent.cli.fit_numeric`` and
so on), so callers inside the package reach them through their usual name
lookup.  Nothing is installed outside a traced run, and ``uninstall``
restores every original.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from dataclasses import asdict, dataclass
from pathlib import Path


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    request: str | None


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.request: str | None = None
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, on_return=None, on_raise=None):
        def traced(*args, **kwargs):
            index = len(self.spans)
            span = Span(name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else None, self.request)
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if on_raise is not None:
                    on_raise(self, exc)
                raise
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if on_return is not None:
                on_return(self, result, args, kwargs)
            return result

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner, attr: str, name: str, on_return=None, on_raise=None) -> None:
        original = getattr(owner, attr)
        self._installed.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, on_return, on_raise))

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, each span less the spans directly inside it."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child[span.parent] += span.end - span.start
        totals: dict[str, float] = defaultdict(float)
        for span, inner in zip(self.spans, child):
            totals[span.name] += span.end - span.start - inner
        return totals

    def reset(self) -> None:
        self.spans = []
        self.counts.clear()


def write(passes: list[list[Span]], path: Path) -> None:
    """One JSON object per span; ``parent`` indexes the spans of the same pass."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as fh:
        for number, spans in enumerate(passes):
            for span in spans:
                fh.write(json.dumps({"pass": number, **asdict(span)}) + "\n")


def _count_fit(tracer: Tracer, result, args, kwargs) -> None:
    solver = kwargs.get("solver", args[1] if len(args) > 1 else "newton")
    tracer.counts[f"maxent.{solver}_iterations"] += result.iterations


def _count_fallback(tracer: Tracer, exc) -> None:
    from toricmaxent.errors import UnsupportedStructureError

    if isinstance(exc, UnsupportedStructureError):
        tracer.counts["maxent.fallbacks"] += 1


def _count_output(tracer: Tracer, result, args, kwargs) -> None:
    out = args[1] if len(args) > 1 else kwargs["out"]
    tracer.counts["cli.output_bytes"] += len(out.getvalue().encode())


def _count_generators(tracer: Tracer, result, args, kwargs) -> None:
    tracer.counts["toric.generators"] += len(result)


def _count_spair(tracer: Tracer, result, args, kwargs) -> None:
    tracer.counts["ratpoly.spairs_reduced"] += 1


def _count_basis(tracer: Tracer, result, args, kwargs) -> None:
    tracer.counts["ratpoly.basis_size"] += len(result.basis)
    bits = max(
        (max(abs(c.numerator).bit_length(), c.denominator.bit_length()) for g in result.basis for c in g.terms.values()),
        default=0,
    )
    tracer.counts["ratpoly.coeff_bits_max"] = max(tracer.counts["ratpoly.coeff_bits_max"], bits)


def install(tracer: Tracer):
    """Wrap every layer boundary; returns the traced ``cli.main``."""
    from toricmaxent import cli, maxent, ratpoly, toric

    tracer.patch(cli, "parse_problem", "cli.parse")
    tracer.patch(cli.ProblemDef, "to_problem", "cli.build")
    tracer.patch(cli, "poly_to_text", "cli.render")
    tracer.patch(cli, "fit_numeric", "maxent.solve_numeric", on_return=_count_fit)
    tracer.patch(cli, "fit_algebraic", "maxent.fit_algebraic", on_raise=_count_fallback)
    tracer.patch(cli, "direct_system", "maxent.system")
    tracer.patch(cli, "dual_system", "maxent.system")
    tracer.patch(maxent, "direct_system", "maxent.system")
    tracer.patch(maxent, "model_distribution", "maxent.package")
    tracer.patch(maxent, "solve_algebraic", "maxent.sturm")
    tracer.patch(maxent, "buchberger", "ratpoly.buchberger", on_return=_count_basis)
    tracer.patch(cli, "toric_ideal_generators", "toric.ideal", on_return=_count_generators)
    tracer.patch(toric, "toric_ideal_generators", "toric.ideal", on_return=_count_generators)
    tracer.patch(toric, "integer_kernel_basis", "toric.kernel")
    tracer.patch(cli, "verify_model_membership", "toric.membership")
    tracer.patch(toric, "buchberger", "ratpoly.buchberger", on_return=_count_basis)
    tracer.patch(ratpoly, "s_polynomial", "ratpoly.spair", on_return=_count_spair)
    return tracer.wrap("cli.emit", cli.main, on_return=_count_output)


# Per-layer metrics: (name, unit, span whose self time it is, or None for a count).
LAYER_METRICS = [
    ("cli.parse_ms", "ms", "cli.parse"),
    ("cli.build_ms", "ms", "cli.build"),
    ("cli.emit_ms", "ms", "cli.emit"),
    ("cli.render_ms", "ms", "cli.render"),
    ("cli.output_bytes", "count", None),
    ("maxent.solve_numeric_ms", "ms", "maxent.solve_numeric"),
    ("maxent.newton_iterations", "count", None),
    ("maxent.gis_iterations", "count", None),
    ("maxent.iteration_us", "us", None),
    ("maxent.package_ms", "ms", "maxent.package"),
    ("maxent.sturm_ms", "ms", "maxent.sturm"),
    ("maxent.system_ms", "ms", "maxent.system"),
    ("maxent.fallbacks", "count", None),
    ("toric.ideal_ms", "ms", "toric.ideal"),
    ("toric.kernel_ms", "ms", "toric.kernel"),
    ("toric.generators", "count", None),
    ("toric.membership_ms", "ms", "toric.membership"),
    ("ratpoly.buchberger_ms", "ms", "ratpoly.buchberger"),
    ("ratpoly.spair_ms", "ms", "ratpoly.spair"),
    ("ratpoly.spairs_reduced", "count", None),
    ("ratpoly.basis_size", "count", None),
    ("ratpoly.coeff_bits_max", "bits", None),
]

COUNT_NAMES = [name for name, unit, span in LAYER_METRICS if span is None and name != "maxent.iteration_us"]


def pass_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer figures of one traced pass: self times in ms, counts as counted."""
    self_s = tracer.self_times()
    values = {}
    for name, unit, span in LAYER_METRICS:
        if span is not None:
            values[name] = self_s.get(span, 0.0) * 1e3
        elif name != "maxent.iteration_us":
            values[name] = tracer.counts.get(name, 0.0)
    iterations = values["maxent.newton_iterations"] + values["maxent.gis_iterations"]
    values["maxent.iteration_us"] = values["maxent.solve_numeric_ms"] * 1e3 / iterations if iterations else 0.0
    return values
