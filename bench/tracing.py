"""Spans around the calls into each qreglp module, and the per-layer split.

The tracer replaces public functions at every module attribute that holds
them, because each caller looks its callee up there (``homotopy`` imports
``project`` by name, ``oracle`` imports ``solve_qlp``, ...).  Each call
records a span: name, layer, start, end and the span open when it began.
A span's self time is its duration minus that of its direct children.

``project`` and ``min_distance_active_set`` get a second pair of wrappers
in ``qreglp.homotopy``: the tracer's own calls there are the landing
solves (``homotopy.landing``) and the critical-cone solves
(``homotopy.cone``).  Both still belong to the ``projection`` layer.
"""

from __future__ import annotations

import importlib
import math
import sys
import time
from dataclasses import dataclass

import numpy as np

# Tightness tolerance ``project`` applies to a warm start before falling back
# to a cold start (``PolytopeSpec.contains(start, 1e-7)``).
WARM_START_TOL = 1e-7

KERNEL = ("projection.min_distance_active_set", "homotopy.cone")
PROJECT = ("projection.project", "homotopy.landing")


@dataclass
class Span:
    name: str
    layer: str
    parent: int
    start: float = 0.0
    end: float = 0.0
    info: dict | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


def _kernel_info(args, kwargs, out):
    return {"iterations": int(out[4])}


def _project_info(args, kwargs, out):
    spec = args[0] if args else kwargs["spec"]
    start = args[2] if len(args) > 2 else kwargs.get("start")
    cold = start is None or not spec.contains(np.ravel(start), WARM_START_TOL)
    return {"cold": cold}


def _trace_info(args, kwargs, out):
    return {"segments": int(out.n_segments)}


def _enumerate_info(args, kwargs, out):
    spec = args[0] if args else kwargs["spec"]
    if spec.vertices is not None:
        bases = 0
    else:
        rank = int(np.linalg.matrix_rank(spec.A)) if spec.n_eq else 0
        bases = math.comb(spec.n_ineq, spec.dim - rank)
    return {"candidate_bases": bases, "vertices": len(out)}


# (defining module, function, span name, layer, info extractor)
TARGETS = (
    ("projection", "min_distance_active_set", "projection.min_distance_active_set",
     "projection", _kernel_info),
    ("projection", "project", "projection.project", "projection", _project_info),
    ("projection", "solve_qlp", "projection.solve_qlp", "projection", None),
    ("homotopy", "trace_path", "homotopy.trace_path", "homotopy", _trace_info),
    ("homotopy", "next_breakpoint", "homotopy.next_breakpoint", "homotopy", None),
    ("polytope", "validate", "polytope.validate", "polytope", None),
    ("polytope", "enumerate_vertices", "polytope.enumerate_vertices", "polytope",
     _enumerate_info),
    ("analysis", "analyze", "analysis.analyze", "analysis", None),
    ("analysis", "eta_star_formula", "analysis.eta_star_formula", "analysis", None),
    ("analysis", "e_curve", "analysis.e_curve", "analysis", None),
    ("analysis", "small_eta_report", "analysis.small_eta_report", "analysis", None),
    ("oracle", "cross_check_instance", "oracle.cross_check_instance", "oracle", None),
    ("oracle", "path_verify", "oracle.path_verify", "oracle", None),
    ("oracle", "min_norm_over_M", "oracle.min_norm_over_M", "oracle", None),
    ("oracle", "min_norm_point", "oracle.min_norm_point", "oracle", None),
    ("oracle", "eta_star_bruteforce", "oracle.eta_star_bruteforce", "oracle", None),
    ("oracle", "lp_solve_bruteforce", "oracle.lp_solve_bruteforce", "oracle", None),
    ("ot", "figure3_experiment", "ot.figure3_experiment", "ot", None),
    ("cli", "main", "cli.main", "cli", None),
)

# Wrappers placed only in ``qreglp.homotopy``, over the original functions.
HOMOTOPY_TARGETS = (
    ("projection", "project", "homotopy.landing", "projection", _project_info),
    ("projection", "min_distance_active_set", "homotopy.cone", "projection", _kernel_info),
)


class Tracer:
    """Install with ``with Tracer() as tr:``; spans collect in ``tr.spans``."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name, layer, info):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            span = Span(name, layer, stack[-1] if stack else -1)
            stack.append(len(spans))
            spans.append(span)
            span.start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if info is not None:
                span.info = info(args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def _set(self, module, attr, value):
        self._undo.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def __enter__(self):
        defining = {m: importlib.import_module(f"qreglp.{m}") for m, *_ in TARGETS}
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "qreglp" or n.startswith("qreglp.")) and m is not None]
        for mod_name, attr, name, layer, info in TARGETS:
            original = getattr(defining[mod_name], attr)
            wrapper = self._wrap(original, name, layer, info)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, key, wrapper)
        for mod_name, attr, name, layer, info in HOMOTOPY_TARGETS:
            original = getattr(defining[mod_name], attr).__wrapped__
            self._set(defining["homotopy"], attr, self._wrap(original, name, layer, info))
        return self

    def __exit__(self, *exc):
        while self._undo:
            module, attr, value = self._undo.pop()
            setattr(module, attr, value)
        return False

    def clear(self):
        self.spans.clear()


def _outer(spans, names) -> list[Span]:
    """Spans named in ``names`` with no ancestor also named in ``names``."""
    out = []
    for s in spans:
        if s.name not in names:
            continue
        p = s.parent
        while p >= 0 and spans[p].name not in names:
            p = spans[p].parent
        if p < 0:
            out.append(s)
    return out


def _has_ancestor(spans, span, name) -> bool:
    p = span.parent
    while p >= 0:
        if spans[p].name == name:
            return True
        p = spans[p].parent
    return False


def _dur(spans) -> float:
    return float(sum(s.duration for s in spans))


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer counts and seconds for the spans of one round."""
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.duration
    self_s: dict[str, float] = {}
    for s, c in zip(spans, child):
        self_s[s.layer] = self_s.get(s.layer, 0.0) + s.duration - c

    def named(*names):
        return [s for s in spans if s.name in names]

    kernel = named(*KERNEL)
    calls = len(kernel)
    iterations = sum(s.info["iterations"] for s in kernel if s.info)
    cold = [s for s in named(*PROJECT) if s.info and s.info["cold"]]
    traces = _outer(spans, ("homotopy.trace_path",))
    segments = sum(s.info["segments"] for s in traces if s.info)
    in_trace = sum(1 for s in kernel if _has_ancestor(spans, s, "homotopy.trace_path"))
    enums = [s for s in _outer(spans, ("polytope.enumerate_vertices",)) if s.info]
    bases = sum(s.info["candidate_bases"] for s in enums)
    found = sum(s.info["vertices"] for s in enums if s.info["candidate_bases"])
    grid = [s for s in named("projection.solve_qlp")
            if s.parent >= 0 and spans[s.parent].name == "ot.figure3_experiment"]

    return {
        "projection.calls": calls,
        "projection.iterations": iterations,
        "projection.iterations_per_call": iterations / calls if calls else 0.0,
        "projection.self_s": self_s.get("projection", 0.0),
        "projection.cold_calls": len(cold),
        "projection.cold_s": _dur(cold),
        "homotopy.segments": segments,
        "homotopy.projections_per_segment": in_trace / segments if segments else 0.0,
        "homotopy.cone_s": _dur(named("homotopy.cone")),
        "homotopy.landing_s": _dur(named("homotopy.landing")),
        "homotopy.event_s": _dur(named("homotopy.next_breakpoint")),
        "homotopy.self_s": self_s.get("homotopy", 0.0),
        "polytope.validate_s": _dur(_outer(spans, ("polytope.validate",))),
        "polytope.enumerate_s": _dur(enums),
        "polytope.candidate_bases": bases,
        "polytope.vertex_yield": found / bases if bases else 0.0,
        "polytope.self_s": self_s.get("polytope", 0.0),
        "oracle.wolfe_s": _dur(_outer(spans, ("oracle.min_norm_over_M", "oracle.min_norm_point"))),
        "oracle.bruteforce_s": _dur(
            _outer(spans, ("oracle.eta_star_bruteforce", "oracle.lp_solve_bruteforce"))
        ),
        "oracle.path_verify_s": _dur(_outer(spans, ("oracle.path_verify",))),
        "oracle.self_s": self_s.get("oracle", 0.0),
        "analysis.formula_s": _dur(_outer(spans, ("analysis.eta_star_formula",))),
        "analysis.e_curve_s": _dur(_outer(spans, ("analysis.e_curve",))),
        "analysis.small_eta_s": _dur(_outer(spans, ("analysis.small_eta_report",))),
        "analysis.self_s": self_s.get("analysis", 0.0),
        "ot.grid_solve_s": _dur(grid),
        "ot.self_s": self_s.get("ot", 0.0),
        "cli.self_s": self_s.get("cli", 0.0),
    }


COUNTS = (
    "projection.calls",
    "projection.iterations",
    "projection.cold_calls",
    "homotopy.segments",
    "polytope.candidate_bases",
)


def span_records(spans: list[Span]) -> list[list]:
    """Spans as ``[name, start, end, parent]`` rows for the trace file."""
    return [[s.name, s.start, s.end, s.parent] for s in spans]
