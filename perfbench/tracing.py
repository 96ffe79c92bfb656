"""Span tracing around xvakit's layer boundaries, from outside the package.

``Tracer.installed()`` swaps module and class attributes (for example
``xvakit.runner.exposure_profile``) for wrappers that record a span per call,
and puts the originals back on exit; nothing under ``src/`` is edited.  A
span records its name, start, end, parent span, op id and thread id.  Spans
stay in memory until the run ends.

Worker threads of the exposure engine start with an empty span stack; their
spans are parented to the innermost span open on the main thread, which is
the ``exposure.profile`` call that started the pool.  Their intervals overlap,
so a parent's self time subtracts the union of its children's intervals.
"""

from __future__ import annotations

import importlib
import itertools
import statistics
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

# (module[:class], attribute, span name)
SPANS = (
    ("xvakit.cli", "load_config", "config.load"),
    ("xvakit.cli", "run_config", "runner.run_config"),
    ("xvakit.runner", "exposure_profile", "exposure.profile"),
    ("xvakit.exposure", "portfolio_value", "exposure.revalue"),
    ("xvakit.ratemodel:ShortRateModel", "bond_price", "ratemodel.bond_price"),
    ("xvakit.exposure", "_simulate_block", "ratemodel.simulate"),
    ("xvakit.exposure", "_block_stats", "exposure.reduce"),
    ("xvakit.runner", "capital_profile", "regcap.capital"),
    ("xvakit.runner", "breakdown", "xva.breakdown"),
    ("xvakit.pde", "solve_vhat", "pde.solve"),
    ("xvakit.pde", "quadrature_oracle", "pde.oracle"),
    ("xvakit.pde", "replication_state", "pde.replication"),
)
# Boundaries crossed too often for a span each: counted only.
COUNTERS = (
    ("xvakit.curves:DiscountCurve", "log_df", "curves.log_df"),
    ("xvakit.xva:_Quadrature", "__init__", "xva.quadrature"),
)
RENDERERS = ("xvakit.cli", "RENDERERS", "report.render")


def _attrs(name, args, kwargs, result) -> dict | None:
    """Sizes worth keeping with a span."""
    if name == "exposure.profile":
        return {"workers": kwargs.get("n_workers", 1)}
    if name == "runner.run_config":
        return {"rows": len(result.rows)}
    if name == "report.render":
        return {"bytes": len(result.encode())}
    return None


def _resolve(target: str):
    module, _, cls = target.partition(":")
    owner = importlib.import_module(module)
    return getattr(owner, cls) if cls else owner


class Tracer:
    def __init__(self):
        # (id, name, start, end, parent id, op id, thread id, attrs)
        self.spans: list[tuple] = []
        self.counts: dict[tuple[int, str], int] = defaultdict(int)
        self.missing: list[str] = []  # boundaries the program no longer has
        self.op = 0
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._main_thread = threading.get_ident()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = (
                self._main_stack if threading.get_ident() == self._main_thread else [])
        return stack

    def call(self, name, fn, *args, **kwargs):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._main_stack[-1] if self._main_stack else None
        span_id = next(self._ids)
        stack.append(span_id)
        start = time.perf_counter()
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((span_id, name, start, end, parent, self.op,
                               threading.get_ident(), _attrs(name, args, kwargs, result)))

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return traced

    def count(self, name, fn):
        def counted(*args, **kwargs):
            with self._lock:
                self.counts[(self.op, name)] += 1
            return fn(*args, **kwargs)
        return counted

    @contextmanager
    def installed(self):
        """Swap the wrappers in; restore every original on exit."""
        undo = []
        renderers = getattr(_resolve(RENDERERS[0]), RENDERERS[1], None)
        saved = dict(renderers or {})
        if renderers is None:
            self.missing.append(f"{RENDERERS[0]}.{RENDERERS[1]}")
        try:
            for target, attr, name in SPANS + COUNTERS:
                owner = _resolve(target)
                original = owner.__dict__.get(attr)
                if original is None:
                    self.missing.append(f"{target}.{attr}")
                    continue
                wrapper = self.wrap if (target, attr, name) in SPANS else self.count
                setattr(owner, attr, wrapper(name, original))
                undo.append((owner, attr, original))
            for fmt, fn in saved.items():
                renderers[fmt] = self.wrap(RENDERERS[2], fn)
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)
            if renderers is not None:
                renderers.update(saved)


def _union_length(intervals) -> float:
    total, cur_start, cur_end = 0.0, None, None
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


def op_layers(spans: list[tuple], counts: dict[str, int]) -> dict[str, float]:
    """Per-layer totals for the spans and counts of one op."""
    children = defaultdict(list)
    for s in spans:
        children[s[4]].append(s)
    by_name = defaultdict(list)
    for s in spans:
        by_name[s[1]].append(s)

    def total(name):
        return sum(s[3] - s[2] for s in by_name[name])

    def self_time(name):
        out = 0.0
        for s in by_name[name]:
            covered = [(max(c[2], s[2]), min(c[3], s[3])) for c in children[s[0]]]
            out += (s[3] - s[2]) - _union_length([iv for iv in covered if iv[1] > iv[0]])
        return out

    # A block runs on one thread from its simulation to its reduction.
    # The pool has min(workers, blocks) threads.
    busy = capacity = 0.0
    for prof in by_name["exposure.profile"]:
        per_thread = defaultdict(list)
        for c in children[prof[0]]:
            per_thread[c[6]].append(c)
        n_blocks = sum(c[1] == "ratemodel.simulate" for c in children[prof[0]])
        workers = max(1, min((prof[7] or {}).get("workers", 1), n_blocks))
        for items in per_thread.values():
            block_start = None
            for c in sorted(items, key=lambda c: c[2]):
                if c[1] == "ratemodel.simulate":
                    block_start = c[2]
                elif c[1] == "exposure.reduce" and block_start is not None:
                    busy += c[3] - block_start
                    block_start = None
        capacity += workers * (prof[3] - prof[2])

    return {
        "config.load_s": total("config.load"),
        "runner.self_s": self_time("runner.run_config"),
        "runner.rows": sum((s[7] or {}).get("rows", 0) for s in by_name["runner.run_config"]),
        "exposure.profile_s": total("exposure.profile"),
        "exposure.profile_calls": len(by_name["exposure.profile"]),
        "exposure.revalue_s": total("exposure.revalue"),
        "exposure.revalue_calls": len(by_name["exposure.revalue"]),
        "ratemodel.bond_price_calls": len(by_name["ratemodel.bond_price"]),
        "ratemodel.bond_price_s": total("ratemodel.bond_price"),
        "curves.log_df_calls": counts.get("curves.log_df", 0),
        "ratemodel.simulate_s": total("ratemodel.simulate"),
        "ratemodel.blocks": len(by_name["ratemodel.simulate"]),
        "exposure.reduce_s": total("exposure.reduce"),
        "exposure.worker_util": busy / capacity if capacity > 0 else 0.0,
        "regcap.capital_s": total("regcap.capital"),
        "regcap.capital_calls": len(by_name["regcap.capital"]),
        "xva.breakdown_s": total("xva.breakdown"),
        "xva.quadratures": counts.get("xva.quadrature", 0),
        "report.render_s": total("report.render"),
        "report.bytes": sum((s[7] or {}).get("bytes", 0) for s in by_name["report.render"]),
        "pde.solve_s": total("pde.solve"),
        "pde.solve_calls": len(by_name["pde.solve"]),
        "pde.oracle_s": total("pde.oracle"),
        "pde.replication_s": total("pde.replication"),
        "cli.self_s": self_time("cli.main"),
    }


def layer_medians(tracer: Tracer) -> dict[str, float]:
    """Median over traced ops of each per-op layer figure."""
    spans_by_op = defaultdict(list)
    for s in tracer.spans:
        spans_by_op[s[5]].append(s)
    counts_by_op = defaultdict(dict)
    for (op, name), n in tracer.counts.items():
        counts_by_op[op][name] = n
    per_op = [op_layers(spans_by_op[op], counts_by_op[op]) for op in sorted(spans_by_op)]
    return {k: statistics.median(d[k] for d in per_op) for k in per_op[0]}
