"""Outside-in span tracer for the traced benchmark run.

``install`` wraps the public functions in ``TARGETS`` in every ``gdruin.*``
namespace that binds them, so calls between modules are caught as well as
calls from the benchmark (``psi_recursion``, for one, is bound in
``recursion``, ``mixed_poisson``, ``simulate`` and ``cli``).  Nothing under
``src/`` changes and untraced runs never import this module.

Spans are kept in memory as ``[name, start, end, parent, op, attrs]`` and
written out when the process ends; ``summarize`` turns them into per-layer
statistics, with a layer's self time taken as its span minus its child spans.
A target that no longer exists in the package is reported as absent rather
than failing the run.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
import weakref

# (module, public function) pairs timed at their boundary.
TARGETS = (
    ("distributions", "mp_claims_pmf"),
    ("distributions", "equilibrium"),
    ("mixed_poisson", "mp_coefficients"),
    ("mixed_poisson", "psi_mp_method1"),
    ("mixed_poisson", "psi_mp_method2"),
    ("recursion", "psi_recursion"),
    ("nbm", "psi_nbm"),
    ("nbm", "cbar_sequence"),
    ("pollaczek", "psi_pk"),
    ("simulate", "simulate_paths"),
    ("tables", "reproduce_tables"),
    ("cli", "run"),
    ("cli", "main"),
)

# A coefficient request for k_max = 0 only materializes the mixing grid; it
# is reported as its own layer.
GRID_SPAN = "mixed_poisson.grid"


class Tracer:
    """Span recorder shared by all installed wrappers."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.active = True
        self.op = -1
        self.absent: list[str] = []
        self._seen_seqs: weakref.WeakSet = weakref.WeakSet()

    def install(self) -> None:
        """Wrap every target in every loaded ``gdruin`` namespace."""
        homes = {}
        for module in {module for module, _ in TARGETS}:
            try:
                homes[module] = importlib.import_module(f"gdruin.{module}")
            except ImportError:
                homes[module] = None
        loaded = [
            mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == "gdruin" or name.startswith("gdruin."))
        ]
        for module, func in TARGETS:
            label = f"{module}.{func}"
            original = getattr(homes[module], func, None)
            if not callable(original):
                self.absent.append(label)
                continue
            wrapper = self._wrap(label, original)
            for mod in loaded:
                if getattr(mod, func, None) is original:
                    setattr(mod, func, wrapper)

    def _wrap(self, label, fn):
        attrs_of = _ATTRS.get(label)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            name = label
            if label == "mixed_poisson.mp_coefficients" and _arg(args, kwargs, 2, "k_max") == 0:
                name = GRID_SPAN
            parent = self.stack[-1] if self.stack else -1
            span = [name, time.perf_counter(), None, parent, self.op, {}]
            self.stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[2] = time.perf_counter()
                span[5]["raised"] = 1
                raise
            finally:
                self.stack.pop()
            span[2] = time.perf_counter()
            if attrs_of is not None:
                attrs_of(self, span[5], args, kwargs, result)
            return result

        return wrapper

    def dump(self) -> dict:
        return {"spans": self.spans, "absent": self.absent}


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs.get(name)


def _coeff_attrs(tracer, attrs, args, kwargs, seq):
    if seq not in tracer._seen_seqs:
        tracer._seen_seqs.add(seq)
        attrs["builds"] = 1
    attrs["k"] = int(seq.cbar_n.size)
    attrs["points"] = int(seq.grid_points)


def _recursion_attrs(tracer, attrs, args, kwargs, psi):
    attrs["values"] = int(len(psi))


def _simulate_attrs(tracer, attrs, args, kwargs, res):
    attrs["paths"] = int(res.config.replications)
    attrs["censored"] = int(res.censored)


_ATTRS = {
    "mixed_poisson.mp_coefficients": _coeff_attrs,
    "recursion.psi_recursion": _recursion_attrs,
    "simulate.simulate_paths": _simulate_attrs,
}


def summarize(dumps: list[dict]) -> tuple[dict[str, dict[str, float]], set[str]]:
    """Per-layer totals over several span dumps.

    Returns ``{span name: {"self_s", "calls", <summed attrs>...}}`` plus the
    set of target labels that were absent from the package.
    """
    layers: dict[str, dict[str, float]] = {}
    absent: set[str] = set()
    for dump in dumps:
        absent.update(dump["absent"])
        spans = dump["spans"]
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _op, _attrs in spans:
            if parent >= 0:
                child_time[parent] += end - start
        for i, (name, start, end, _parent, _op, attrs) in enumerate(spans):
            row = layers.setdefault(name, {"self_s": 0.0, "calls": 0})
            row["self_s"] += (end - start) - child_time[i]
            row["calls"] += 1
            for key, value in attrs.items():
                if key == "k":
                    row["max_k"] = max(row.get("max_k", 0), value)
                else:
                    row[key] = row.get(key, 0) + value
    return layers, absent
