"""Spans recorded around calls into masterop's public functions.

A traced run replaces every module-level binding of each function named in
TARGETS, across all loaded ``masterop.*`` modules, with a wrapper that
records a span (name, parent span, start, end) and calls the original.
Handle evaluators are wrapped the same way through ``dataclasses.replace``.
``traced`` puts every original binding back when it exits.

Spans are kept in memory; ``aggregate`` turns them into call counts, points,
summed ``nodes_used`` and self times (span time minus the part of it that
child spans cover).  Everything here is single-threaded: the workloads run
with ``jobs=1``.
"""
from __future__ import annotations

import contextlib
import dataclasses
import functools
import sys
import time

#: module -> public functions whose calls are recorded
TARGETS = {
    "quadrature": ("integrate_difference", "window_uM_integral", "gl_panel",
                   "gauss_hermite_nodes", "adaptive_gl", "exterior_spatial_mass"),
    "operators": ("master_op", "fractional_laplacian", "marchaud",
                  "difference_decomposition"),
    "defect": ("tail_functional", "defect_estimate"),
    "kernel": ("kernel_constants",),
    "families": ("C0_constant", "C1_constant"),
    "funcdsl": ("parse", "to_handle"),
    "regions": ("verify_ratio_c1", "verify_ratio_c2_c3", "verify_ratio_step2"),
}

EVALUATOR = "handles.evaluator"

# span record fields
NAME, PARENT, START, END, POINTS, NODES = range(6)


class Tracer:
    """Collects spans; one tracer per traced pass."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def call(self, name, fn, args, kwargs, points=0):
        rec = [name, self._stack[-1] if self._stack else -1, 0.0, 0.0, points, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[START] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            rec[END] = time.perf_counter()
            self._stack.pop()
        nodes = getattr(result, "nodes_used", None)
        if isinstance(nodes, int):
            rec[NODES] = nodes
        return result

    def wrap_handle(self, h):
        """The same handle with its evaluator calls recorded as spans."""
        ev = h.evaluator
        if getattr(ev, "_bench_traced", False):
            return h

        def evaluator(pts, tt):
            return self.call(EVALUATOR, ev, (pts, tt), {}, points=len(pts))

        evaluator._bench_traced = True
        return dataclasses.replace(h, evaluator=evaluator)


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "masterop" or name.startswith("masterop."))]


def _wrapper(tracer, name, fn, hook=None):
    @functools.wraps(fn)
    def wrapped(*args, **kwargs):
        result = tracer.call(name, fn, args, kwargs)
        return result if hook is None else hook(result)
    return wrapped


@contextlib.contextmanager
def traced(tracer, targets=TARGETS, result_hooks=None):
    """Record calls to ``targets`` for the duration of the block.

    ``result_hooks`` maps a qualified name to a function applied to that
    function's return value (used to wrap handles the program builds).
    """
    modules = _package_modules()
    restore = []
    try:
        for modname, names in targets.items():
            mod = sys.modules[f"masterop.{modname}"]
            for fname in names:
                orig = getattr(mod, fname)
                qual = f"{modname}.{fname}"
                wrapper = _wrapper(tracer, qual, orig, (result_hooks or {}).get(qual))
                for m in modules:
                    for attr, val in list(vars(m).items()):
                        if val is orig:
                            restore.append((m, attr, orig))
                            setattr(m, attr, wrapper)
        yield tracer
    finally:
        for m, attr, orig in reversed(restore):
            setattr(m, attr, orig)


def _covered(intervals, lo, hi):
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans):
    """Per span: its duration minus the part of it its child spans cover."""
    children: list[list] = [[] for _ in spans]
    for rec in spans:
        if rec[PARENT] >= 0:
            children[rec[PARENT]].append((rec[START], rec[END]))
    return [rec[END] - rec[START] - _covered(children[i], rec[START], rec[END])
            for i, rec in enumerate(spans)]


def aggregate(spans):
    """Counts and times per span name.

    Keys: ``<name>.calls``, ``<name>.self_s``, ``handles.evaluator.points``
    and ``quadrature.nodes_used``, the sum of ``nodes_used`` over the
    outermost results that carry one (nested results are part of their
    caller's count).
    """
    out: dict[str, float] = {}
    selfs = self_times(spans)
    counted_above = [False] * len(spans)
    nodes = 0
    points = 0
    for i, rec in enumerate(spans):
        name = rec[NAME]
        out[f"{name}.calls"] = out.get(f"{name}.calls", 0) + 1
        out[f"{name}.self_s"] = out.get(f"{name}.self_s", 0.0) + selfs[i]
        if name == EVALUATOR:
            points += rec[POINTS]
        parent = rec[PARENT]
        above = parent >= 0 and (counted_above[parent]
                                 or spans[parent][NODES] is not None)
        counted_above[i] = above
        if rec[NODES] is not None and not above:
            nodes += rec[NODES]
    out[f"{EVALUATOR}.points"] = points
    out["quadrature.nodes_used"] = nodes
    return out
