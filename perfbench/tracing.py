"""Spans around the public functions of each spectral_mask layer.

The program is not edited: :func:`install` replaces each wrapped function in
its defining module and in every ``spectral_mask`` module that imported it by
name.  A span records its name, layer, start, end, parent span and thread.
Spans stay in memory until the pass ends.

A span's parent is the innermost open span on its thread; a span opened on a
thread with no open span (a CLI worker thread) takes the current op's
``cli.main`` span as parent.  A layer's busy time is the summed duration of
its outermost spans across threads, so it can exceed wall time by at most the
number of threads running the layer at once.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import math
import sys
import threading
import time
from dataclasses import dataclass

LAYERS = ("cli", "verify", "oracle", "montecarlo", "bounds")

#: Short span names of the oracle functions with a busy-time metric of their own.
ORACLE_FUNCTIONS = {
    "exact_tail_curve": "tail_curve",
    "exact_psi2_norm": "psi2_norm",
    "exact_psi2_moment_norm": "psi2_moment_norm",
    "exact_moment": "moment",
    "enumerate_distribution": "enumerate",
}


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    layer: str
    start: float
    end: float
    parent: int | None
    thread: int
    outer: bool  # no span of the same layer is open below it on its thread
    meta: tuple = ()


class Tracer:
    """Collects spans from any number of threads."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._root: int | None = None

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def start(self, layer: str, name: str) -> tuple:
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1][0] if stack else self._root
        outer = all(entry[1] != layer for entry in stack)
        if not stack and name == "cli.main":
            self._root = span_id
        token = (span_id, layer, name, parent, outer, time.perf_counter())
        stack.append(token)
        return token

    def end(self, token: tuple, meta: tuple = ()) -> None:
        end = time.perf_counter()
        span_id, layer, name, parent, outer, start = token
        stack = self._stack()
        stack.pop()
        if self._root == span_id:
            self._root = None
        self.spans.append(
            Span(span_id, name, layer, start, end, parent, threading.get_ident(), outer, meta)
        )

    def wrap(self, layer: str, name: str, fn, meta=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            token = self.start(layer, name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                self.end(token, meta(args, kwargs, result) if meta else ())

        return traced


def _law_meta(args, kwargs, result):
    params = args[0] if args else kwargs.get("params")
    part = args[1] if len(args) > 1 else kwargs.get("part")
    if not hasattr(params, "N"):
        return ()
    return (params.N, params.l, getattr(part, "value", str(part)))


def _mc_meta(args, kwargs, result):
    params = args[0]
    cfg = args[2] if len(args) > 2 else kwargs.get("cfg")
    queries = args[1] if len(args) > 1 else kwargs.get("queries")
    parts = getattr(queries, "parts", ())
    thresholds = len(parts) * len(getattr(queries, "tail_thresholds", ()))
    center_pass = tuple(getattr(p, "value", p) for p in parts) == ("modulus",)
    return (params.N, cfg.samples, thresholds, center_pass)


def _psi2_meta(args, kwargs, result):
    cfg = args[2] if len(args) > 2 else kwargs.get("cfg")
    return (args[0].N, cfg.samples)


def _suite_meta(args, kwargs, result):
    if result is None:
        return (0,)
    return (result.passed + result.failed,)


def _public_functions(module):
    for name, obj in list(vars(module).items()):
        if not name.startswith("_") and inspect.isfunction(obj) and obj.__module__ == module.__name__:
            yield name, obj


def install(tracer: Tracer):
    """Wrap every layer's public functions; returns a callable that undoes it."""
    from spectral_mask import bounds, cli, montecarlo, oracle, verify

    package = [m for n, m in sys.modules.items() if n == "spectral_mask" or n.startswith("spectral_mask.")]
    undo = []

    def patch(module, name, original, wrapped):
        for mod in package:
            if vars(mod).get(name) is original:
                setattr(mod, name, wrapped)
                undo.append((mod, name, original))

    for name, fn in _public_functions(oracle):
        short = ORACLE_FUNCTIONS.get(name, name)
        patch(oracle, name, fn, tracer.wrap("oracle", f"oracle.{short}", fn, _law_meta))
    # The private function that builds the law every exact query reads; wrapped while it exists.
    if inspect.isfunction(getattr(oracle, "_dist_arrays", None)):
        fn = oracle._dist_arrays
        patch(oracle, "_dist_arrays", fn, tracer.wrap("oracle", "oracle.enumerate", fn))
    for name, fn in _public_functions(montecarlo):
        meta = {"mc_run": _mc_meta, "mc_psi2": _psi2_meta}.get(name)
        patch(montecarlo, name, fn, tracer.wrap("montecarlo", f"montecarlo.{name}", fn, meta))
    for name, fn in _public_functions(bounds):
        patch(bounds, name, fn, tracer.wrap("bounds", f"bounds.{name}", fn))
    for name, fn in list(verify.SUITES.items()):
        wrapped = tracer.wrap("verify", f"verify.{name}", fn, _suite_meta)
        verify.SUITES[name] = wrapped
        undo.append((verify.SUITES, name, fn))
        patch(verify, fn.__name__, fn, wrapped)
    patch(cli, "main", cli.main, tracer.wrap("cli", "cli.main", cli.main))

    def restore():
        for target, name, original in reversed(undo):
            if isinstance(target, dict):
                target[name] = original
            else:
                setattr(target, name, original)

    return restore


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def _busy(spans) -> float:
    return sum(s.end - s.start for s in spans if s.outer)


def layer_metrics(spans: list[Span], suites) -> dict[str, float]:
    """Per-layer numbers of one traced pass (all values plain floats/ints)."""
    by_layer = {layer: [s for s in spans if s.layer == layer] for layer in LAYERS}
    out: dict[str, float] = {}

    oracle_outer = [s for s in by_layer["oracle"] if s.outer]
    out["oracle.busy_s"] = _busy(oracle_outer)
    out["oracle.calls"] = len(oracle_outer)
    for short in ("tail_curve", "psi2_norm", "psi2_moment_norm", "moment", "enumerate"):
        name = f"oracle.{short}"
        out[f"{name}.busy_s"] = _outer_named(by_layer["oracle"], name)
    keys = {s.meta for s in oracle_outer if s.meta}
    out["oracle.law_keys"] = len(keys)
    out["oracle.repeat_law_calls"] = len(oracle_outer) - len(keys)
    out["oracle.freq_classes"] = len({(N, math.gcd(l, N), part) for N, l, part in keys})

    mc = by_layer["montecarlo"]
    runs = [s for s in mc if s.name == "montecarlo.mc_run" and s.outer]
    psi2 = [s for s in mc if s.name == "montecarlo.mc_psi2" and s.outer]
    samples = sum(s.meta[1] for s in runs + psi2)
    elements = sum(s.meta[0] * s.meta[1] for s in runs + psi2)
    sampling_s = _busy(runs) + _busy(psi2)
    out["montecarlo.busy_s"] = _busy(mc)
    out["montecarlo.mc_run.busy_s"] = _busy(runs)
    out["montecarlo.mc_psi2.busy_s"] = _busy(psi2)
    out["montecarlo.samples"] = samples
    out["montecarlo.elements"] = elements
    out["montecarlo.ns_per_element"] = 1e9 * sampling_s / elements if elements else 0.0
    out["montecarlo.thresholds"] = sum(s.meta[2] for s in runs) / len(runs) if runs else 0.0
    out["montecarlo.center_passes"] = sum(1 for s in runs if s.meta[3])

    bound_outer = [s for s in by_layer["bounds"] if s.outer]
    out["bounds.busy_s"] = _busy(bound_outer)
    out["bounds.calls"] = len(bound_outer)
    out["bounds.ns_per_call"] = 1e9 * out["bounds.busy_s"] / len(bound_outer) if bound_outer else 0.0

    checks = 0
    for suite in suites:
        mine = [s for s in by_layer["verify"] if s.name == f"verify.{suite}" and s.outer]
        out[f"verify.{suite}.wall_s"] = _busy(mine)
        checks += sum(s.meta[0] for s in mine if s.meta)
    out["verify.checks"] = checks

    out["cli.self_s"] = cli_self_time(spans)
    return out


def _outer_named(spans, name: str) -> float:
    """Busy time of the outermost spans called ``name`` on their thread."""
    by_id = {s.id: s for s in spans}
    total = 0.0
    for s in spans:
        if s.name != name:
            continue
        parent = by_id.get(s.parent)
        nested = False
        while parent is not None:
            if parent.name == name and parent.thread == s.thread:
                nested = True
                break
            parent = by_id.get(parent.parent)
        if not nested:
            total += s.end - s.start
    return total


def cli_self_time(spans: list[Span]) -> float:
    """Sum over ops of the ``cli.main`` duration not covered by any span of
    another layer (on any thread) inside it."""
    ops = sorted((s for s in spans if s.name == "cli.main" and s.outer), key=lambda s: s.start)
    others = sorted(
        ((s.start, s.end) for s in spans if s.layer != "cli" and s.outer), key=lambda iv: iv[0]
    )
    total = 0.0
    j = 0
    for op in ops:
        inside = []
        while j < len(others) and others[j][0] < op.start:
            j += 1
        k = j
        while k < len(others) and others[k][0] < op.end:
            inside.append((others[k][0], min(others[k][1], op.end)))
            k += 1
        total += (op.end - op.start) - _union_length(inside)
    return total
