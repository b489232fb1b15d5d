"""Per-layer tracing for the traced benchmark run.

`Tracer.install()` wraps every public function of the `drinfeld` package at
every module binding, so a name imported with `from .ore import ...` is
wrapped in the importing module too, plus a few methods named below.  Each
wrapped call records a span (name, parent span, start, end, whether it
raised) in flat in-memory arrays; a span's self time is its duration minus
the time its child spans cover.  The hottest methods only count calls: a
span per field multiplication would cost more than the multiplication.

Tracing changes timings, so end-to-end metrics come from untraced runs and
the traced run reports only the per-layer metrics below.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import sys
import time
from array import array
from collections import Counter

# (module, class, method) -> metric name; calls are counted, no spans
COUNTED_METHODS = {
    ("finitefield", "FFElem", "__mul__"): "finitefield.mul",
    ("finitefield", "FFElem", "__rmul__"): "finitefield.mul",
    ("finitefield", "FFElem", "p_power"): "finitefield.p_power",
    ("finitefield", "FFElem", "inverse"): "finitefield.inverse",
    ("upoly", "UPoly", "__mul__"): "upoly.mul",
    ("upoly", "UPoly", "__rmul__"): "upoly.mul",
    ("ore", "OrePoly", "__mul__"): "ore.mul",
}
COUNTED_FUNCTIONS = {"ore.ore_eval"}
# (module, class, method) -> span name
SPANNED_METHODS = {
    ("dmodule", "DrinfeldModule", "phi"): "dmodule.phi",
    ("family", "DrinfeldFamily", "specialize"): "family.specialize",
}

# Span names reported as <name>.calls and <name>.self_s, grouped by layer.
SPAN_METRICS = (
    "finitefield.ff_make", "finitefield.ff_embed", "finitefield.ff_generator",
    "upoly.monic_irreducibles", "upoly.upoly_irreducible", "upoly.upoly_crt",
    "upoly.upoly_roots", "upoly.lagrange_interpolate",
    "upoly.upoly_resultant",
    "ore.ore_splitting_degree", "ore.ore_kernel", "ore.ore_kernel_dim",
    "dmodule.phi",
    "torsion.dm_torsion", "torsion.dm_frobenius_norm",
    "family.specialize",
    "reports.choose_prime_sets",
    "motive.verify_tate_det", "motive.det_drinfeld",
    "bivar.annihilator_resultant", "bivar.bivar_radical",
    "frobrec.theorem_frob_res", "frobrec.classify_frobenius_bivariate",
    "frobrec.recover_monomial_exponent",
    "intutil.factorize",
    "cli.main",
)
# Names reported as <name>.calls only.
COUNT_METRICS = ("finitefield.mul", "finitefield.p_power",
                 "finitefield.inverse", "upoly.mul", "ore.mul",
                 "ore.ore_eval")


def metric_units():
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for name in SPAN_METRICS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    for name in COUNT_METRICS:
        units[f"{name}.calls"] = "count"
    units.update({"torsion.points": "count", "reports.candidates": "count",
                  "reports.candidates_rejected": "count",
                  "reports.prime_yield": "ratio"})
    return units


def _short(obj):
    return f"{obj.__module__.rsplit('.', 1)[-1]}.{obj.__name__}"


class Tracer:
    """Spans with parent links in flat arrays, plus plain call counters."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_raised = array("b")
        self._stack = [-1]
        self.counts: Counter = Counter()
        self.points = 0
        self._torsion_seen: dict[int, object] = {}

    # -- wrappers ---------------------------------------------------------------

    def _span(self, fn, name):
        nid = self._ids.setdefault(name, len(self._ids))
        if nid == len(self.names):
            self.names.append(name)
        names, parents = self.span_name, self.span_parent
        starts, ends, raised = self.span_start, self.span_end, self.span_raised
        stack, clock = self._stack, time.perf_counter
        on_return = self._count_points if name == "torsion.dm_torsion" else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            raised.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                raised[idx] = 1
                raise
            finally:
                ends[idx] = clock()
                stack.pop()
            if on_return is not None:
                on_return(result)
            return result

        return wrapper

    def _counter(self, fn, name):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _count_points(self, torsion_module):
        # a cached module is returned again; count its points once
        if id(torsion_module) not in self._torsion_seen:
            self._torsion_seen[id(torsion_module)] = torsion_module
            self.points += len(torsion_module.points)

    def forget_objects(self):
        """Drop references kept for point counting (call between items)."""
        self._torsion_seen.clear()

    # -- installation -----------------------------------------------------------

    def install(self, package: str = "drinfeld"):
        modules = {name.rsplit(".", 1)[-1]: mod
                   for name, mod in list(sys.modules.items())
                   if name == package or name.startswith(package + ".")}
        wrapped = {}
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or not obj.__module__.startswith(package + ".")
                        or inspect.isgeneratorfunction(obj)):
                    continue
                if obj not in wrapped:
                    name = _short(obj)
                    wrapped[obj] = (self._counter(obj, name)
                                    if name in COUNTED_FUNCTIONS
                                    else self._span(obj, name))
                setattr(mod, attr, wrapped[obj])
        for table, make in ((COUNTED_METHODS, self._counter),
                            (SPANNED_METHODS, self._span)):
            for (modname, clsname, meth), name in table.items():
                cls = getattr(modules[modname], clsname)
                fn = cls.__dict__[meth]
                if fn not in wrapped:  # __rmul__ = __mul__ shares a counter
                    wrapped[fn] = make(fn, name)
                setattr(cls, meth, wrapped[fn])

    # -- results ----------------------------------------------------------------

    def per_name(self):
        """{name: (calls, self seconds)} from the spans."""
        n = len(self.span_start)
        dur = [self.span_end[i] - self.span_start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            parent = self.span_parent[i]
            if parent >= 0:
                child[parent] += dur[i]
        calls, self_s = Counter(), Counter()
        for i in range(n):
            name = self.names[self.span_name[i]]
            calls[name] += 1
            self_s[name] += dur[i] - child[i]
        return calls, self_s

    def metrics(self, rounds: int):
        """Per-layer metrics per round of the workload."""
        calls, self_s = self.per_name()
        out = {}
        for name in SPAN_METRICS:
            out[f"{name}.calls"] = calls[name] / rounds
            out[f"{name}.self_s"] = self_s[name] / rounds
        for name in COUNT_METRICS:
            out[f"{name}.calls"] = self.counts[name] / rounds
        chooser = self._ids.get("reports.choose_prime_sets", -2)
        torsion = self._ids.get("torsion.dm_torsion", -2)
        tried = rejected = 0
        for i in range(len(self.span_start)):
            if (self.span_name[i] == torsion
                    and self.span_parent[i] >= 0
                    and self.span_name[self.span_parent[i]] == chooser):
                tried += 1
                rejected += self.span_raised[i]
        out["torsion.points"] = self.points / rounds
        out["reports.candidates"] = tried / rounds
        out["reports.candidates_rejected"] = rejected / rounds
        out["reports.prime_yield"] = (tried - rejected) / tried if tried else 0.0
        units = metric_units()
        return {name: {"value": value, "unit": units[name]}
                for name, value in out.items()}

    def dump(self, path: str):
        """Write the spans as gzipped JSON: names, then one row per span."""
        rows = [[self.span_name[i], self.span_parent[i],
                 round(self.span_start[i], 7), round(self.span_end[i], 7),
                 self.span_raised[i]] for i in range(len(self.span_start))]
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump({"names": self.names,
                       "columns": ["name", "parent", "start", "end",
                                   "raised"],
                       "spans": rows, "counts": dict(self.counts)}, fh)
