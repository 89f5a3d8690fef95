"""Layer tracing from outside the program.

`Tracer.installed()` wraps the public functions of each `srsurf` module and
the `Jet` operators, and restores the originals on exit.  A function wrapper
is installed in every `srsurf` module namespace that binds the same object,
so calls through `from .x import f` are seen too.  A name that a later
refactor removed is reported as absent instead of failing.

Function layers are recorded as spans (name, start, end, parent span, call)
kept in memory; jet primitives are only counted and timed in aggregate.
Every time is self time: a wrapper's duration minus the time of the wrapped
calls it made.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import sys
import time
from math import comb

# (layer, module, attribute) traced as spans: calls and self time.
SPANS = (
    ("cli.main", "srsurf.cli", "main"),
    ("report.emit", "srsurf.cli", "_emit"),
    ("fields.parse", "srsurf.fields", "OneForm.parse"),
    ("fields.parse", "srsurf.fields", "MetricField.from_text"),
    ("fields.evaluate", "srsurf.fields", "OneForm.evaluate"),
    ("fields.evaluate", "srsurf.fields", "MetricField.evaluate"),
    ("frame.delta_basis", "srsurf.frame", "delta_basis"),
    ("frame.nonholonomity", "srsurf.frame", "nonholonomity"),
    ("frame.contact_frame", "srsurf.frame", "build_contact_frame"),
    ("frame.structure_functions", "srsurf.frame", "structure_functions"),
    ("invariants.invariants_at", "srsurf.invariants", "invariants_at"),
    ("symmetry.build_system", "srsurf.symmetry", "build_system"),
    ("symmetry.residuals", "srsurf.symmetry", "integrability_residuals"),
    ("symmetry.reconstruct", "srsurf.symmetry", "reconstruct_lnf"),
    ("singular.locate_sigma", "srsurf.singular", "locate_sigma"),
    ("singular.brent", "srsurf.singular", "brentq"),
    ("singular.singular_frame", "srsurf.singular", "build_singular_frame"),
    ("singular.characteristic_field", "srsurf.singular", "characteristic_field"),
)
# Called too often for a span each, and cheap themselves: counted only, so
# their time stays in the caller's self time.
COUNTED = (
    ("frame.lie_bracket", "srsurf.frame", "lie_bracket"),
    ("invariants.directional_derivative", "srsurf.invariants", "directional_derivative"),
    ("jets.alloc", "srsurf.jets", "Jet.__init__"),
)
# Jet primitives: counted and timed in aggregate.
JET_OPS = (
    ("jets.mul", "srsurf.jets", "Jet.__mul__"),
    ("jets.partial", "srsurf.jets", "Jet.partial"),
    ("jets.compose", "srsurf.jets", "Jet.compose_series"),
)
# (counter, inner layer, outer layer): inner calls made while outer is open.
NESTED = (
    ("symmetry.integrand_evals", "symmetry.build_system", "symmetry.reconstruct"),
    ("singular.lambda_evals", "frame.nonholonomity", "singular.locate_sigma"),
)


def mul_terms(order: int) -> int:
    """Coefficient products in one jet-by-jet product at `order`: pairs of
    3-variable multi-indices with total degree <= order, C(order + 6, 6)."""
    return comb(order + 6, 6)


def _resolve(module: str, attr: str):
    """(owner, original) or None when the name no longer exists."""
    mod = sys.modules.get(module)
    owner, *rest = attr.split(".")
    obj = getattr(mod, owner, None)
    if rest:
        if not inspect.isclass(obj) or rest[0] not in vars(obj):
            return None
        return obj, vars(obj)[rest[0]]
    return (mod, obj) if callable(obj) else None


class Tracer:
    """Counters, self times and spans of the traced calls."""

    def __init__(self):
        self.calls: dict = {}
        self.self_s: dict = {}
        self.spans: list = []
        self.absent: set = set()
        self.call_id = 0
        self._times = [0.0]      # child time of each open wrapper
        self._open: list = [None]  # span id of each open span
        self._depth: dict = {}   # open spans per layer
        self._patches: list = []

    # -- wrappers ----------------------------------------------------------

    def _span(self, layer, fn):
        times, opens, spans, clock = self._times, self._open, self.spans, time.perf_counter
        nested = [(counter, outer) for counter, inner, outer in NESTED if inner == layer]
        depth, calls, self_s = self._depth, self.calls, self.self_s
        for key in [layer] + [c for c, _ in nested]:
            calls.setdefault(key, 0)
        self_s.setdefault(layer, 0.0)
        depth.setdefault(layer, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            for counter, outer in nested:
                if depth.get(outer):
                    calls[counter] += 1
            span_id, parent = len(spans), opens[-1]
            spans.append(None)
            opens.append(span_id)
            depth[layer] += 1
            times.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                dur = t1 - t0
                child = times.pop()
                times[-1] += dur
                depth[layer] -= 1
                opens.pop()
                calls[layer] += 1
                self_s[layer] += dur - child
                spans[span_id] = (span_id, parent, self.call_id, layer, t0, t1)
        return wrapper

    def _counted(self, key, fn):
        calls = self.calls
        calls.setdefault(key, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _jet_op(self, key, fn):
        times, clock, calls, self_s = self._times, time.perf_counter, self.calls, self.self_s
        calls.setdefault(key, 0)
        self_s.setdefault(key, 0.0)
        is_mul = key == "jets.mul"
        if is_mul:
            calls.setdefault("jets.mul_terms", 0)
        jet_cls = sys.modules["srsurf.jets"].Jet

        @functools.wraps(fn)
        def wrapper(self_jet, *args, **kwargs):
            if is_mul and isinstance(args[0], jet_cls):
                calls["jets.mul_terms"] += mul_terms(self_jet.order)
            times.append(0.0)
            t0 = clock()
            try:
                return fn(self_jet, *args, **kwargs)
            finally:
                dur = clock() - t0
                child = times.pop()
                times[-1] += dur
                calls[key] += 1
                self_s[key] += dur - child
        return wrapper

    # -- install / restore -------------------------------------------------

    def _install(self, key, module, attr, make):
        found = _resolve(module, attr)
        if found is None:
            self.absent.add(f"{module}.{attr}")
            return
        owner, original = found
        if inspect.isclass(owner):
            static = isinstance(original, staticmethod)
            wrapped = make(key, original.__func__ if static else original)
            wrapped = staticmethod(wrapped) if static else wrapped
            targets = [owner]
        else:
            wrapped = make(key, original)
            targets = [m for n, m in list(sys.modules.items())
                       if n == "srsurf" or n.startswith("srsurf.")]
        for target in targets:
            for bound, value in list(vars(target).items()):
                if value is original:
                    self._patches.append((target, bound, value))
                    setattr(target, bound, wrapped)

    @contextlib.contextmanager
    def installed(self):
        """Trace calls made inside the block, then restore every original."""
        import srsurf.cli  # noqa: F401  (loads every layer module)
        for key, module, attr in SPANS:
            self._install(key, module, attr, self._span)
        for key, module, attr in COUNTED:
            self._install(key, module, attr, self._counted)
        for key, module, attr in JET_OPS:
            self._install(key, module, attr, self._jet_op)
        try:
            yield self
        finally:
            for target, bound, value in reversed(self._patches):
                setattr(target, bound, value)
            self._patches.clear()

    # -- results -----------------------------------------------------------

    def covered_s(self) -> float:
        """Self time of every layer below the CLI's own code."""
        return sum(v for k, v in self.self_s.items() if k != "cli.main")

    def write_spans(self, path) -> None:
        """One JSON line per span; start and end are perf_counter seconds."""
        with open(path, "w") as fh:
            for span in self.spans:
                if span is not None:
                    sid, parent, call, name, t0, t1 = span
                    fh.write(json.dumps({"id": sid, "parent": parent, "call": call,
                                         "name": name, "start": t0, "end": t1}) + "\n")


def summarize(path) -> None:
    """Print calls, mean inclusive time and total self time per span layer."""
    spans = [json.loads(line) for line in open(path)]
    child = {}
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] = child.get(s["parent"], 0.0) + s["end"] - s["start"]
    rows = {}
    for s in spans:
        dur = s["end"] - s["start"]
        n, incl, own = rows.get(s["name"], (0, 0.0, 0.0))
        rows[s["name"]] = (n + 1, incl + dur, own + dur - child.get(s["id"], 0.0))
    print(f"{'layer':32s} {'calls':>8s} {'mean incl ms':>13s} {'self s':>9s}  (self: minus child spans, jet ops included)")
    for name, (n, incl, own) in sorted(rows.items(), key=lambda r: -r[1][1]):
        print(f"{name:32s} {n:8d} {1e3 * incl / n:13.3f} {own:9.3f}")


if __name__ == "__main__":
    summarize(sys.argv[1])
