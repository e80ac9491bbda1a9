"""Spans around pincover's layer functions, installed from outside the program.

``install`` wraps each public function or method named in ``TRACED`` and
rebinds the wrapper in every pincover module that imported the name, so
``cli.induced_maps`` and ``structures.obstructions`` are traced like
``homology.induced_maps``.  The inner hot functions (``SurfaceModel.reduce``,
``clifford._reorder_sign``), called about a million times a pass, stay
untraced.  Spans stay in memory until the pass ends.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter, defaultdict
from time import perf_counter


def _points(args, kwargs):  # CoverDiagram.check_relations(self, n=64)
    n = args[1] if len(args) > 1 else kwargs.get("n", 64)
    return {"points": n * n}


def _entries(args, kwargs):  # smith_normal_form(a)
    a = args[0]
    return {"entries": len(a) * (len(a[0]) if a else 0)}


def _term_pairs(args, kwargs):  # geometric_product(a, b)
    return {"term_pairs": len(args[0].coefficients) * len(args[1].coefficients)}


def _grid_nodes(args, kwargs):  # (s: PinorField, xi, tau, sign)
    return {"grid_nodes": args[0].size ** 2}


def _genus(args, kwargs):
    """induced_maps(cover): g of n(g, k), whose base word has 2g + k letters."""
    return f"g{(len(args[0].base.edges) - 1) // 2:02d}"


# (module, attribute, counter, tag); the metric name is "<module>.<attribute>"
TRACED = [
    ("surface", "build", None, None),
    ("surface", "cover_diagram", None, None),
    ("surface", "CoverDiagram.check_relations", _points, None),
    ("homology", "induced_maps", None, _genus),
    ("homology", "H1Basis.__init__", None, None),
    ("homology", "H1Basis.representative", None, None),
    ("homology", "H1Basis.coordinates", None, None),
    ("homology", "smith_normal_form", _entries, None),
    ("homology", "solve_integer", None, None),
    ("homology", "homology_groups", None, None),
    ("homology", "h1_z2_basis", None, None),
    ("homology", "gf2_row_reduce", None, None),
    ("homology", "orientation_double_cover_complex", None, None),
    ("characteristic", "obstructions", None, None),
    ("characteristic", "w1", None, None),
    ("characteristic", "w1_cup_w1", None, None),
    ("characteristic", "chord_gram_matrix", None, None),
    ("pin2", "mul", None, None),
    ("pin2", "evaluate", None, None),
    ("pin2", "lift_o2", None, None),
    ("pin2", "compose", None, None),
    ("structures", "lift_involution", None, None),
    ("structures", "descend", None, None),
    ("structures", "double_structure", None, None),
    ("structures", "boundary_lift_table", None, None),
    ("structures", "moebius_descent", None, None),
    ("clifford", "geometric_product", _term_pairs, None),
    ("clifford", "twisted_adjoint", None, None),
    ("clifford", "orthogonal_matrix", None, None),
    ("clifford", "lift_orthogonal", None, None),
    ("clifford", "fiber_group_tag", None, None),
    ("pinors", "project_invariant", _grid_nodes, None),
    ("pinors", "couple_split", _grid_nodes, None),
    ("pinors", "invariance_residual", _grid_nodes, None),
    ("reporting", "Report.render", None, None),
    ("cli", "main", None, None),
]


def metric_name(module: str, attribute: str) -> str:
    """"homology.H1Basis.init", "reporting.Report.render"; the cover diagram's
    relation check is named after its layer alone, "surface.check_relations"."""
    if attribute == "CoverDiagram.check_relations":
        attribute = "check_relations"
    return f"{module}.{attribute.replace('__init__', 'init')}"


class Tracer:
    """Spans (name, start, end, parent) of one pass, with counts per name."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.stack: list[int] = []
        self.counts: dict[str, Counter] = defaultdict(Counter)
        self.tagged: dict[str, list[float]] = defaultdict(list)

    def wrap(self, fn, name: str, count=None, tag=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.starts)
            self.names.append(name)
            self.parents.append(self.stack[-1] if self.stack else -1)
            self.ends.append(0.0)
            counts = self.counts[name]
            counts["calls"] += 1
            if count is not None:
                counts.update(count(args, kwargs))
            self.stack.append(idx)
            t0 = perf_counter()
            self.starts.append(t0)
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                self.ends[idx] = t1
                self.stack.pop()
                if tag is not None:
                    self.tagged[f"{name}.{tag(args, kwargs)}"].append(t1 - t0)

        return traced

    def summary(self) -> dict:
        """Self time per name: span duration minus that of its direct children."""
        child = [0.0] * len(self.starts)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                child[parent] += self.ends[i] - self.starts[i]
        self_s: dict[str, float] = defaultdict(float)
        for i, name in enumerate(self.names):
            self_s[name] += self.ends[i] - self.starts[i] - child[i]
        return {
            "self_s": dict(self_s),
            "counts": {name: dict(c) for name, c in self.counts.items()},
            "tagged": dict(self.tagged),
        }

    def spans(self, origin: float) -> list:
        """[name, start, end, parent] per span, times relative to origin."""
        return [[n, s - origin, e - origin, p]
                for n, s, e, p in zip(self.names, self.starts, self.ends, self.parents)]


def install(tracer: Tracer) -> None:
    """Wrap every TRACED callable and rebind it wherever pincover imported it."""
    modules = [m for name, m in sys.modules.items()
               if name == "pincover" or name.startswith("pincover.")]
    for module, attribute, count, tag in TRACED:
        owner = sys.modules[f"pincover.{module}"]
        *path, leaf = attribute.split(".")
        for part in path:
            owner = getattr(owner, part)
        original = getattr(owner, leaf)
        wrapped = tracer.wrap(original, metric_name(module, attribute), count, tag)
        setattr(owner, leaf, wrapped)
        if not path:
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapped)
