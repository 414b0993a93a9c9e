"""In-memory span recorder for the traced benchmark run.

Spans are recorded from outside the program: the recorder swaps wrappers in
for the public functions of each solvforge layer, in every module namespace
that holds them (``cli``, ``solver`` and ``multichannel`` import names with
``from .x import f``, so patching only the defining module would lose those
calls).  Each span is (name, start_ns, end_ns, parent, job, count); a
layer's self time is its span's duration minus the time its child spans
cover.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

# (span name, defining module, attribute).  A function is patched wherever
# it is bound; a "Class.method" attribute is patched in the class, under
# every alias of the same function object (__radd__ = __add__).
TARGETS = [
    ("expr.parse", "solvforge.expr", "parse"),
    ("expr.evaluate_on_grid", "solvforge.expr", "evaluate_on_grid"),
    ("expr.call", "solvforge.expr", "call"),
    ("expr.evaluate", "solvforge.expr", "AnalyticExpr.evaluate"),
    ("expr.derivative", "solvforge.expr", "AnalyticExpr.derivative"),
    ("grid.SampledField", "solvforge.grid", "SampledField.__post_init__"),
    ("grid.add", "solvforge.grid", "SampledField.__add__"),
    ("grid.sub", "solvforge.grid", "SampledField.__sub__"),
    ("grid.rsub", "solvforge.grid", "SampledField.__rsub__"),
    ("grid.mul", "solvforge.grid", "SampledField.__mul__"),
    ("grid.div", "solvforge.grid", "SampledField.__truediv__"),
    ("grid.rdiv", "solvforge.grid", "SampledField.__rtruediv__"),
    ("grid.neg", "solvforge.grid", "SampledField.__neg__"),
    ("grid.constant_field", "solvforge.grid", "constant_field"),
    ("grid.field_from_arrays", "solvforge.grid", "field_from_arrays"),
    ("grid.wronskian", "solvforge.grid", "wronskian"),
    ("grid.integrate_prefix", "solvforge.grid", "integrate_prefix"),
    ("grid.signed_prefix", "solvforge.grid", "signed_prefix"),
    ("solver.solve", "solvforge.solver", "solve"),
    ("solver.seed_from_expression", "solvforge.solver", "seed_from_expression"),
    # the kernel is taken at its selection point, whatever backend it holds
    ("kernel.rk4_propagate", "solvforge._kernels", "rk4_propagate"),
    ("darboux.potential", "solvforge.darboux", "darboux_potential"),
    ("darboux.solution", "solvforge.darboux", "darboux_solution"),
    ("darboux.transform", "solvforge.darboux", "darboux_transform"),
    ("darboux.chain_second_step", "solvforge.darboux", "chain_second_step"),
    ("bargmann.seed_set", "solvforge.bargmann", "make_seed_set"),
    ("bargmann.p_matrix", "solvforge.bargmann", "p_matrix"),
    ("bargmann.potential", "solvforge.bargmann", "bargmann_potential"),
    ("bargmann.maps", "solvforge.bargmann", "bargmann_solution"),
    ("bargmann.maps", "solvforge.bargmann", "transformed_seed_solutions"),
    ("multichannel.base_system", "solvforge.multichannel", "diagonal_base_system"),
    ("multichannel.seed_vectors", "solvforge.multichannel", "seed_vectors"),
    ("multichannel.transform_denominator", "solvforge.multichannel", "transform_denominator"),
    ("multichannel.transformed_seed_vectors", "solvforge.multichannel", "transformed_seed_vectors"),
    ("multichannel.potential", "solvforge.multichannel", "multichannel_potential"),
    ("multichannel.solution", "solvforge.multichannel", "multichannel_solution"),
    ("verify.residual", "solvforge.verify", "residual"),
    ("verify.matrix_residual", "solvforge.verify", "matrix_residual"),
    ("verify.wronskian_integral", "solvforge.verify", "check_wronskian_integral"),
]


def _kernel_steps(args, kwargs, out) -> int:
    q = args[0] if args else kwargs["q"]
    return int(q.shape[0]) - 1


def _check_failed(args, kwargs, out) -> int:
    return 0 if out.passed else 1


# per-span integer recorded beside the timing: RK4 steps, failed checks
COUNTERS = {
    "kernel.rk4_propagate": _kernel_steps,
    "verify.residual": _check_failed,
    "verify.matrix_residual": _check_failed,
    "verify.wronskian_integral": _check_failed,
}


class Recorder:
    """Collects spans in memory; install() swaps the wrappers in for every
    target, uninstall() restores the originals."""

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.spans: list = []
        self.stack: list[int] = []
        self.job = -1
        self._patches: list = []

    def call(self, name, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span called `name`."""
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append(None)
        self.stack.append(idx)
        count = 0
        t0 = self.clock()
        try:
            out = fn(*args, **kwargs)
            counter = COUNTERS.get(name)
            if counter is not None:
                count = counter(args, kwargs, out)
            # the chain's solution map is a closure, invisible to patching;
            # wrap it so that its time is not charged to the caller
            if name == "darboux.chain_second_step":
                potential, solution_map = out
                out = potential, self.wrap("darboux.chain_map", solution_map)
            return out
        finally:
            t1 = self.clock()
            self.stack.pop()
            self.spans[idx] = (name, t0, t1, parent, self.job, count)

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return traced

    # -- patching ---------------------------------------------------------

    def install(self) -> None:
        """Swap wrappers in for every target, in every namespace holding it."""
        if self._patches:
            raise RuntimeError("recorder already installed")
        modules = [
            m
            for name, m in sorted(sys.modules.items())
            if m is not None and (name == "solvforge" or name.startswith("solvforge."))
        ]
        for span_name, module_name, attr in TARGETS:
            module = sys.modules[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                owners = [getattr(module, cls_name)]
                orig = owners[0].__dict__[meth]
            else:
                owners = modules
                orig = getattr(module, attr)
            wrapper = self.wrap(span_name, orig)
            hits = 0
            for owner in owners:
                for key, value in list(vars(owner).items()):
                    if value is orig:
                        self._patches.append((owner, key, orig))
                        setattr(owner, key, wrapper)
                        hits += 1
            if hits == 0:
                raise RuntimeError(f"no namespace holds {module_name}.{attr}")

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._patches):
            setattr(owner, key, orig)
        self._patches.clear()

    def dump(self, path: str) -> None:
        """Write every recorded span as one JSON document."""
        with open(path, "w") as fh:
            json.dump(
                {"fields": ["name", "start_ns", "end_ns", "parent", "job", "count"],
                 "spans": self.spans},
                fh,
            )


def self_times(spans) -> list[int]:
    """Self time of each span: its duration minus the union of its children.

    `spans` holds (name, start, end, parent, ...) tuples; parent is the index
    of the enclosing span or -1.
    """
    children = defaultdict(list)
    for idx, sp in enumerate(spans):
        if sp[3] >= 0:
            children[sp[3]].append((sp[1], sp[2]))
    out = []
    for idx, sp in enumerate(spans):
        covered = 0
        reach = sp[1]
        for start, end in sorted(children.get(idx, ())):
            start = max(start, reach, sp[1])
            end = min(end, sp[2])
            if end > start:
                covered += end - start
                reach = end
        out.append(sp[2] - sp[1] - covered)
    return out


def layer_of(span_name: str) -> str:
    """Layer of a span: its name up to the first dot."""
    return span_name.split(".", 1)[0]
