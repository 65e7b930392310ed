"""Per-layer timing from outside the program.

``Tracer.install`` rebinds, in the running process only, the names through
which one hosvd3 module calls a function of another (``hermitian_eig`` as
seen from ``hosvd3.hosvd`` and ``hosvd3.qubit3``, ``hosvd`` and
``polytope_point`` as seen from ``hosvd3.cli``, ...).  Each wrapper records
a span: its duration, and the duration of the spans it encloses, so that a
function's self time is its own time minus that of the library calls it
makes.  Spans stay in memory; ``metrics`` turns them into per-op figures.
"""

from __future__ import annotations

import inspect
import time
from collections import Counter, defaultdict

import numpy as np

TRACED_MODULES = ("hosvd3.cli", "hosvd3.qubit3", "hosvd3.hosvd")
# Functions also timed where their own module calls them, each mapped to
# whether its span is transparent.  Parsing the state file is the CLI's own
# work, so it stays in the caller's self time; the all-orthogonality check
# that hosvd() runs is a layer metric of its own.
OWN_SPANS = {"read_state_file": True, "verify_all_orthogonality": False}
EIG_SIZES = (2, 3, 4, 5, 6, 8, 12, 16, 20, 24, 28, 32)
PER_LAYER = (
    "cli.run.ms_per_op",
    "cli.self_ms_per_op",
    "cli.read_state_file.ms_per_op",
    "cli.sample.alloc_peak_kib_per_state",
    "qubit3.classify.self_us_per_op",
    "qubit3.polytope_point.us_per_op",
    "qubit3.normalize.us_per_op",
    "qubit3.polytope_membership.us_per_op",
    "hosvd.hosvd.self_us_per_op",
    "hosvd.verify_all_orthogonality.calls_per_op",
    "hosvd.verify_all_orthogonality.us_per_op",
    "smalllinalg.hermitian_eig.calls_per_op",
    *(f"smalllinalg.hermitian_eig.us_per_call.n{n}" for n in EIG_SIZES),
    "smalllinalg.gram.us_per_op",
    "tensor.multilinear_transform.us_per_op",
    "tensor.unfold.us_per_op",
    "tensor.subtensor.calls_per_op",
)
UNITS = {"ms_per_op": "ms", "us_per_op": "us", "calls_per_op": "count",
         "kib_per_state": "KiB"}


def _unit(metric):
    if ".us_per_call." in metric:
        return "us"
    return next(u for suffix, u in UNITS.items() if metric.endswith(suffix))


class Tracer:
    """Totals, self times and call counts of the spans recorded so far."""

    def __init__(self):
        self.total = defaultdict(float)
        self.own = defaultdict(float)
        self.calls = Counter()
        self._children = []  # time in enclosed spans, one slot per open span

    def call(self, name, fn, *args, transparent=False, **kwargs):
        """Run fn as a span called name; a transparent span counts towards
        its caller's self time."""
        self._children.append(0.0)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - start
            children = self._children.pop()
            self.total[name] += elapsed
            self.own[name] += elapsed - children
            self.calls[name] += 1
            if self._children and not transparent:
                self._children[-1] += elapsed

    def _wrap(self, fn, transparent):
        layer = fn.__module__.rsplit(".", 1)[-1]
        name = f"{layer}.{fn.__name__}"
        sized = name == "smalllinalg.hermitian_eig"

        def wrapper(*args, **kwargs):
            key = f"{name}.n{np.shape(args[0])[0]}" if sized else name
            return self.call(key, fn, *args, transparent=transparent, **kwargs)

        return wrapper

    def install(self, modules):
        """Rebind, in each module, the names of functions from other hosvd3
        modules and those in OWN_SPANS."""
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if not inspect.isfunction(obj) or not obj.__module__.startswith("hosvd3."):
                    continue
                if obj.__module__ != mod.__name__:
                    setattr(mod, attr, self._wrap(obj, transparent=False))
                elif attr in OWN_SPANS:
                    setattr(mod, attr, self._wrap(obj, transparent=OWN_SPANS[attr]))

    def metrics(self, ops, alloc_kib_per_state=0.0):
        """Every PER_LAYER metric, per op of the workload."""
        eig = "smalllinalg.hermitian_eig"
        values = {
            "cli.run.ms_per_op": 1e3 * self.total["cli.run"] / ops,
            "cli.self_ms_per_op": 1e3 * self.own["cli.run"] / ops,
            "cli.read_state_file.ms_per_op": 1e3 * self.total["cli.read_state_file"] / ops,
            "cli.sample.alloc_peak_kib_per_state": alloc_kib_per_state,
            "qubit3.classify.self_us_per_op": 1e6 * self.own["qubit3.classify"] / ops,
            "hosvd.hosvd.self_us_per_op": 1e6 * self.own["hosvd.hosvd"] / ops,
            "hosvd.verify_all_orthogonality.calls_per_op":
                self.calls["hosvd.verify_all_orthogonality"] / ops,
            f"{eig}.calls_per_op": sum(self.calls[f"{eig}.n{n}"] for n in EIG_SIZES) / ops,
            "tensor.subtensor.calls_per_op": self.calls["tensor.subtensor"] / ops,
        }
        for name in ("qubit3.polytope_point", "qubit3.normalize",
                     "qubit3.polytope_membership", "hosvd.verify_all_orthogonality",
                     "smalllinalg.gram", "tensor.multilinear_transform", "tensor.unfold"):
            values[f"{name}.us_per_op"] = 1e6 * self.total[name] / ops
        for n in EIG_SIZES:
            calls = self.calls[f"{eig}.n{n}"]
            values[f"{eig}.us_per_call.n{n}"] = (
                1e6 * self.total[f"{eig}.n{n}"] / calls if calls else 0.0)
        return {k: {"value": values[k], "unit": _unit(k)} for k in PER_LAYER}
