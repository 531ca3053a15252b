"""Span recorder for the traced run, and the per-layer metrics it yields.

Standard library only: `time.perf_counter` for clocks and a `contextvars`
variable for the open span.  A span is recorded around each public nullag
function in TRACED by swapping the function, in every nullag module that
binds it, for a wrapper; `restore` puts the originals back.  Spans are kept
in memory as [name, start, end, parent, op, info] and written out at the end.
A call made while no operation is open, or a direct recursion (to_string
calls itself), runs unwrapped.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import gzip
import importlib
import json
import statistics
import sys
import time

# "<module>.<function>" or "<module>.<Class>.<method>" under nullag; each is
# traced, and its calls, median time and self-time share are reported
TRACED = (
    "parser.parse",
    "construct.build_null", "construct.solve_C", "construct.build_nonstandard_null",
    "construct.harmonic", "construct.reconstruct_gauge",
    "variational.NullPair.certified", "variational.euler_lagrange_residual",
    "composer.conservation_eom", "systems.build_timedep", "systems.build_displacement",
    "expr.to_string",
    "variational.is_null", "equivalence.equivalent", "composer.composed_eom",
    "composer.permissibility_check", "systems.classify_constant", "audit.run_audits",
    "systems.comparison_catalog", "composer.eom_from_lagrangian", "composer.solve_leading",
    "expr.bind_constants", "expr.compile_expr", "numint.compare",
    "numint.integrate",
    "numint.invariant_values", "numint.drift", "numint.write_csv",
    "variational.path_independence_check",
)


def _verdict(args, kwargs, result):
    return result.verdict.value


# what to keep from a call besides its times
OBSERVE = {
    "variational.is_null": _verdict,
    "equivalence.equivalent": _verdict,
    "composer.permissibility_check": lambda args, kwargs, result: result,
    "numint.integrate": lambda args, kwargs, result: len(result) - 1,
    "numint.write_csv": lambda args, kwargs, result: len(args[1]),
    "variational.path_independence_check": lambda args, kwargs, result: result.panels,
}
CANONICAL_VERDICTS = ("ProvenNull", "ProvenEqual")


class Recorder:
    def __init__(self):
        self.spans: list[list] = []
        self._open = contextvars.ContextVar("open_span", default=None)
        self._patches: list[tuple[object, str, object]] = []

    @contextlib.contextmanager
    def op(self, op_id: int, kind: str):
        """Root span of one operation; spans inside it carry its id."""
        idx = len(self.spans)
        record = [f"op.{kind}", 0.0, 0.0, None, op_id, None]
        self.spans.append(record)
        token = self._open.set(idx)
        record[1] = time.perf_counter()
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._open.reset(token)

    def wrap(self, name: str, fn):
        spans, open_span, observe = self.spans, self._open, OBSERVE.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = open_span.get()
            if parent is None or spans[parent][0] == name:
                return fn(*args, **kwargs)
            idx = len(spans)
            record = [name, 0.0, 0.0, parent, spans[parent][4], None]
            spans.append(record)
            token = open_span.set(idx)
            record[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                open_span.reset(token)
            if observe is not None:
                record[5] = observe(args, kwargs, result)
            return result

        return traced

    def instrument(self) -> None:
        loaded = [m for n, m in list(sys.modules.items()) if n == "nullag" or n.startswith("nullag.")]
        for dotted in TRACED:
            module_name, _, attr = dotted.partition(".")
            module = importlib.import_module(f"nullag.{module_name}")
            if "." in attr:  # a classmethod
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[method]
                self._patch(cls, method, classmethod(self.wrap(dotted, raw.__func__)))
                continue
            original = getattr(module, attr)
            wrapped = self.wrap(dotted, original)
            for m in loaded:
                for key in [k for k, v in vars(m).items() if v is original]:
                    self._patch(m, key, wrapped)

    def _patch(self, owner, key: str, value) -> None:
        self._patches.append((owner, key, owner.__dict__[key]))
        setattr(owner, key, value)

    def restore(self) -> None:
        for owner, key, value in reversed(self._patches):
            setattr(owner, key, value)
        self._patches.clear()

    def write(self, path) -> None:
        with gzip.open(path, "wt", compresslevel=1) as fh:
            for name, start, end, parent, op, info in self.spans:
                fh.write(json.dumps([name, start, end, parent, op, info], default=str) + "\n")


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def inclusive_shares(spans: list[list]) -> dict[str, dict[str, float]]:
    """For all ops ("op.*") and per op label, the share of op time spent
    inside each traced function, children included."""
    op_time: dict[str, float] = {}
    for name, start, end, parent, op, info in spans:
        if parent is None:
            for label in ("op.*", name):
                op_time[label] = op_time.get(label, 0.0) + end - start
    inside: dict[str, dict[str, float]] = {}
    for name, start, end, parent, op, info in spans:
        if parent is not None:
            root = spans[parent]
            while root[3] is not None:
                root = spans[root[3]]
            for label in ("op.*", root[0]):
                shares = inside.setdefault(label, {})
                shares[name] = shares.get(name, 0.0) + (end - start) / op_time[label]
    return inside


def layer_metrics(spans: list[list]) -> dict[str, tuple[float, str]]:
    """calls per op, median microseconds per call and self-time share of op
    time for each TRACED function, plus the work ratios of the spans."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, op, info in spans:
        if parent is not None:
            child_time[parent] += end - start
    ops = [s for s in spans if s[3] is None]
    op_time = sum(end - start for _, start, end, *_ in ops) or 1.0
    by_name: dict[str, list] = {}
    for i, span in enumerate(spans):
        by_name.setdefault(span[0], []).append((span, span[2] - span[1] - child_time[i]))

    out: dict[str, tuple[float, str]] = {}
    for name in TRACED:
        rows = by_name.get(name, [])
        out[f"{name}.calls"] = (len(rows) / max(len(ops), 1), "1/op")
        out[f"{name}.us"] = (_median([(s[2] - s[1]) * 1e6 for s, _ in rows]), "us")
        out[f"{name}.share"] = (sum(self_t for _, self_t in rows) / op_time, "ratio")

    def work(name):  # self time and observed amounts of the calls that returned
        rows = [(s, self_t) for s, self_t in by_name.get(name, []) if s[5] is not None]
        return sum(self_t for _, self_t in rows), [s[5] for s, _ in rows]

    self_t, steps = work("numint.integrate")
    out["numint.integrate.steps"] = (_median(steps), "count")
    out["numint.integrate.us_per_step"] = (self_t * 1e6 / sum(steps) if sum(steps) else 0.0, "us")
    self_t, rows = work("numint.write_csv")
    out["numint.write_csv.us_per_row"] = (self_t * 1e6 / sum(rows) if sum(rows) else 0.0, "us")
    _, panels = work("variational.path_independence_check")
    out["variational.path_independence_check.panels"] = (_median(panels), "count")

    # verdicts of is_null, and of equivalent calls not made inside is_null
    _, verdicts = work("variational.is_null")
    verdicts += [s[5] for s, _ in by_name.get("equivalence.equivalent", [])
                 if s[5] is not None and spans[s[3]][0] != "variational.is_null"]
    numeric = sum(v not in CANONICAL_VERDICTS for v in verdicts)
    out["equivalence.numeric_share"] = (numeric / len(verdicts) if verdicts else 0.0, "ratio")
    _, perm = work("composer.permissibility_check")
    out["composer.permissibility_check.conditional_share"] = (
        sum(v == "conditional" for v in perm) / len(perm) if perm else 0.0, "ratio")
    return out
