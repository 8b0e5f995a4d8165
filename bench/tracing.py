"""Layer spans recorded from outside the program.

The tracer replaces each listed projnorm function by a wrapper at every
binding it has: the module attribute, the copies that `from .x import y`
made in other modules, and the package namespace.  Calls made inside a
module look the name up in that module's globals, so they are caught too.
A function that no longer exists is skipped and listed.  Spans stay in
memory as (name, start, end, parent) until the run writes them out.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

LAYERS = {
    "mesh": ("load_mesh", "mesh_to_dict", "validate_conformity", "symmetry_orbits",
             "build_counterexample_2d", "build_pyramid_partition"),
    "projection": ("assemble_mass", "assemble_load", "solve_with_load", "dual_basis",
                   "spline_abs_integral", "exact_operator_norm", "normalized_system",
                   "inverse_infinity_norm_bound", "proposition1_check"),
    "counterexample": ("oscillating_data", "reduced_ring_system", "growth_sweep",
                       "convergence_study"),
    # self time of a command is argument handling plus report writing
    "cli": ("cmd_project", "cmd_norm", "cmd_reproduce"),
}
FUNCTIONS = [f"{module}.{name}" for module, names in LAYERS.items() for name in names]


class Tracer:
    def __init__(self, package):
        self.package = package.__name__
        self.spans = []  # [name, start, end, parent index or -1]
        self._stack = []
        self.targets = {}
        self.skipped = []
        for qualname in FUNCTIONS:
            module_name, name = qualname.split(".")
            fn = getattr(getattr(package, module_name, None), name, None)
            if callable(fn):
                self.targets[qualname] = fn
            else:
                self.skipped.append(qualname)
        self.bindings = Counter()

    @contextmanager
    def span(self, name):
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def _open(self, name):
        index = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(index)
        self.spans[index][1] = perf_counter()
        return index

    def _close(self, index):
        self.spans[index][2] = perf_counter()
        self._stack.pop()

    def _wrap(self, qualname, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._open(qualname)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(index)

        return traced

    @contextmanager
    def installed(self):
        """Wrap every binding of every target while the block runs."""
        wrappers = {id(fn): (fn, self._wrap(q, fn), q) for q, fn in self.targets.items()}
        modules = [m for n, m in list(sys.modules.items())
                   if n == self.package or n.startswith(self.package + ".")]
        patched = []
        self.bindings = Counter()
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    patched.append((module, attr, value))
                    self.bindings[hit[2]] += 1
        try:
            yield
        finally:
            for module, attr, value in patched:
                setattr(module, attr, value)


def summarize(spans, first=0):
    """Calls and self time per span name, over spans[first:].

    Self time is a span's duration minus the durations of its children; one
    thread runs everything, so children never overlap.
    """
    covered = defaultdict(float)
    for name, start, end, parent in spans[first:]:
        if parent >= first:
            covered[parent] += end - start
    calls, self_s = Counter(), defaultdict(float)
    for i, (name, start, end, parent) in enumerate(spans[first:], first):
        calls[name] += 1
        self_s[name] += end - start - covered[i]
    return calls, self_s


def calls_by_root(spans, first=0):
    """Calls of each span name below each root span of spans[first:]."""
    root_of = {}
    counts = defaultdict(Counter)
    for i, (name, _, _, parent) in enumerate(spans[first:], first):
        root_of[i] = root_of[parent] if parent >= first else i
        if root_of[i] != i:
            counts[root_of[i]][name] += 1
    return counts
