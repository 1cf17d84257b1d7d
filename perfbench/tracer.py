"""Per-layer call counts and self time, recorded from outside the library.

A layer is a module of ``instanton_zeta``.  Each traced function is
replaced, in every namespace of the package that holds it (so copies made
by ``from .x import y`` are covered too), by a wrapper that records one
span per call.  A span's self time is its duration minus the time covered
by its child spans; untraced code is charged to the nearest traced caller.
Spans are folded into per-name totals in memory as they close, and the
totals are written out once, when the traced job ends.
"""

from __future__ import annotations

import importlib
import sys
import time

PACKAGE = "instanton_zeta"


def _ring_split(args):
    return "qseries.mul.q" if args[0].ring.name == "Q" else "qseries.mul.qt"


def _count_nontrivial_gcd(tracer, out):
    # a gcd of degree >= 1 is a reduction that cancelled something
    if len(out) > 1:
        tracer.bump("laurent.gcd.nontrivial")


def _count_points(tracer, out):
    tracer.bump("lattice.enum.points", sum(out.values()))


# (span name, module, attribute path, classify(args) -> span name or None,
#  observe(tracer, return value) or None)
LAYERS = (
    ("laurent.mul", "laurent", "LPoly.__mul__", None, None),
    ("laurent.add", "laurent", "LPoly.__add__", None, None),
    ("laurent.gcd", "laurent", "poly_gcd_z", None, _count_nontrivial_gcd),
    ("tratfunc.new", "tratfunc", "TRatFunc.__init__", None, None),
    ("tratfunc.eval_one", "tratfunc", "TRatFunc.eval_one", None, None),
    ("qseries.mul", "qseries", "QSeries.__mul__", _ring_split, None),
    ("qseries.inverse", "qseries", "QSeries.inverse", None, None),
    ("qseries.pow", "qseries", "QSeries.__pow__", None, None),
    ("forms.series", "forms", "FormProvider.series", None, None),
    ("formexpr.as_qseries", "formexpr", "as_qseries", None, None),
    ("lattice.enum", "lattice", "zn_shell_counts", None, _count_points),
    ("lattice.dp", "lattice", "zn_shell_counts_dp", None, None),
    ("surface.pair", "surface", "pair", None, None),
    ("surface.vec", "surface", "vec_add", None, None),
    ("surface.vec", "surface", "vec_scale", None, None),
    ("assembly.oracle", "assembly", "wall_sum_oracle", None, None),
    ("assembly.proposition", "assembly", "proposition_series", None, None),
    ("assembly.mg", "assembly", "mg_series", None, None),
    ("results.ztilde", "results", "ztilde", None, None),
    ("results.table", "results", "euler_table", None, None),
    ("results.theorem", "results", "assemble_theorem", None, None),
    ("numeric.eval_form", "numeric", "eval_form", None, None),
    ("numeric.sduality", "numeric", "sduality_check", None, None),
    ("numeric.eval_leaf", "numeric", "eval_leaf", None, None),
    ("cli.main", "cli", "main", None, None),
)

# per-layer metrics of the benchmark, with their units
CALLS_AND_SELF = ("laurent.mul", "laurent.add", "laurent.gcd",
                  "tratfunc.new", "tratfunc.eval_one",
                  "qseries.mul.q", "qseries.mul.qt", "qseries.inverse",
                  "qseries.pow", "forms.series", "formexpr.as_qseries",
                  "lattice.enum", "lattice.dp", "surface.pair", "surface.vec",
                  "numeric.eval_form", "numeric.sduality",
                  "numeric.eval_leaf")
SELF_ONLY = ("assembly.oracle", "assembly.proposition", "assembly.mg",
             "results.ztilde", "results.table", "results.theorem",
             "cli.main")


def metric_units():
    units = {}
    for name in CALLS_AND_SELF:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units["laurent.gcd.nontrivial_frac"] = "ratio"
    units["lattice.enum.points"] = "count"
    for name in SELF_ONLY:
        units[f"{name}.self_s"] = "s"
    units["assembly.proposition.cache_hit_frac"] = "ratio"
    return units


# metrics that must repeat exactly between two traced runs of the same code
EXACT = tuple(n for n, u in metric_units().items()
              if u == "count" or n.endswith("cache_hit_frac"))


class Tracer:
    """Wraps the functions in LAYERS and accumulates their spans."""

    def __init__(self):
        self.calls = {}
        self.self_s = {}
        self.counters = {}
        self.missing = []
        self._stack = []

    def bump(self, name, n=1):
        self.counters[name] = self.counters.get(name, 0) + n

    def install(self):
        for name, module, path, classify, observe in LAYERS:
            owner = importlib.import_module(f"{PACKAGE}.{module}")
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None) if owner else None
            if original is None:
                # a later refactor removed the function: its metrics read 0
                self.missing.append(f"{module}.{path}")
                continue
            wrapper = self._wrap(name, original, classify, observe)
            holders = ([vars(owner)] if cls_path else
                       [vars(m) for n, m in list(sys.modules.items())
                        if n == PACKAGE or n.startswith(PACKAGE + ".")])
            for namespace in holders:
                for key, value in list(namespace.items()):
                    if value is original:
                        if cls_path:
                            setattr(owner, key, wrapper)
                        else:
                            namespace[key] = wrapper

    def _wrap(self, name, fn, classify, observe):
        stack = self._stack
        calls = self.calls
        self_s = self.self_s
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            child = [0.0]
            stack.append(child)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                key = name if classify is None else classify(args)
                calls[key] = calls.get(key, 0) + 1
                self_s[key] = self_s.get(key, 0.0) + dt - child[0]
                if stack:
                    stack[-1][0] += dt
            if observe is not None:
                observe(self, out)
            return out

        return wrapper

    def metrics(self, proposition_cache):
        """The per-layer metrics; ``proposition_cache`` is the
        ``cache_info()`` of ``assembly.proposition_series``."""
        out = {}
        for name in CALLS_AND_SELF:
            out[f"{name}.calls"] = self.calls.get(name, 0)
            out[f"{name}.self_s"] = self.self_s.get(name, 0.0)
        gcds = self.calls.get("laurent.gcd", 0)
        out["laurent.gcd.nontrivial_frac"] = (
            self.counters.get("laurent.gcd.nontrivial", 0) / gcds
            if gcds else 0.0)
        out["lattice.enum.points"] = self.counters.get(
            "lattice.enum.points", 0)
        for name in SELF_ONLY:
            out[f"{name}.self_s"] = self.self_s.get(name, 0.0)
        lookups = proposition_cache.hits + proposition_cache.misses
        out["assembly.proposition.cache_hit_frac"] = (
            proposition_cache.hits / lookups if lookups else 0.0)
        return out
