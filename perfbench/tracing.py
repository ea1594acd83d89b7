"""Per-layer spans and counters, recorded from outside the package.

``install`` wraps the public functions of each layer and rebinds every copy
of them that another ``adelic`` module imported by name (``from .places
import factor_prime``), so calls between layers go through the wrappers
too.  A span records name, start, end, parent span and operation id; spans
stay in memory and are written out once, at the end.  Self time is a span's
duration minus the time its child spans cover.  Cache hit ratios come from
the ``cache_info()`` of the package's own ``lru_cache`` functions.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from array import array

# (layer name, module, attribute, how): "span" times the call, "ultra" also
# marks the ultrafilter layer for the sampled-prime count, "cells" also reads
# the cell count of the returned set, "count" only counts calls.
WRAPPED = (
    ("polynomials.factor_mod_p", "adelic.polynomials", "factor_mod_p", "span"),
    ("places.factor_prime", "adelic.places", "factor_prime", "span"),
    ("places.splitting_class", "adelic.places", "splitting_class", "count"),
    ("localfields.embed", "adelic.localfields", "embed", "span"),
    ("localfields.valuation_of_element", "adelic.localfields", "valuation_of_element", "span"),
    ("localfields.LocalContext", "adelic.localfields", "LocalContext.__init__", "span"),
    ("placesets.union", "adelic.placesets", "QPlaceSet.union", "cells"),
    ("placesets.union", "adelic.placesets", "KPlaceSet.union", "cells"),
    ("placesets.intersect", "adelic.placesets", "QPlaceSet.intersect", "cells"),
    ("placesets.intersect", "adelic.placesets", "KPlaceSet.intersect", "cells"),
    ("placesets.complement", "adelic.placesets", "QPlaceSet.complement", "cells"),
    ("placesets.complement", "adelic.placesets", "KPlaceSet.complement", "cells"),
    ("placesets.contains_prime", "adelic.placesets", "QPlaceSet.contains_prime", "count"),
    ("ultrafilters.free_on_atom", "adelic.ultrafilters", "free_on_atom", "ultra"),
    ("ultrafilters.contains", "adelic.ultrafilters", "PrincipalUltrafilter.contains", "ultra"),
    ("ultrafilters.contains", "adelic.ultrafilters", "FreeQUltrafilter.contains", "ultra"),
    ("ultrafilters.contains", "adelic.ultrafilters", "FreeKUltrafilter.contains", "ultra"),
    ("ultrafilters.select", "adelic.ultrafilters", "FreeQUltrafilter._extend_chain", "ultra"),
    ("adeles.membership_set", "adelic.adeles", "membership_set", "span"),
    ("adeles.valuation_at", "adelic.adeles", "Adele.valuation_at", "span"),
    ("adeles.arith", "adelic.adeles", "Adele.add", "span"),
    ("adeles.arith", "adelic.adeles", "Adele.mul", "span"),
    ("spectrum.member", "adelic.spectrum", "member", "span"),
    ("extensions.fiber_of_spec", "adelic.extensions", "fiber_of_spec", "span"),
    ("extensions.to_extension", "adelic.extensions", "to_extension", "span"),
    ("cli.main", "adelic.cli", "main", "span"),
)

# cache name -> (module, attribute) of an lru_cache function
CACHES = {
    "places.factor_cache": ("adelic.places", "_factor_cached"),
    "localfields.context": ("adelic.localfields", "_context"),
    "adeles.membership_set": ("adelic.adeles", "membership_set"),
    "spectrum.selected_profile": ("adelic.spectrum", "selected_profile"),
}

# The per-layer metrics, in report order: (name, unit).
PER_LAYER = (
    [(f"{n}.{s}", u) for n in ("polynomials.factor_mod_p", "places.factor_prime")
     for s, u in (("calls", "count"), ("self_s", "s"))]
    + [("places.factor_cache.hit_ratio", "ratio"), ("places.splitting_class.calls", "count")]
    + [(f"localfields.{n}.{s}", u) for n in ("embed", "valuation_of_element")
       for s, u in (("calls", "count"), ("self_s", "s"))]
    + [("localfields.LocalContext.self_s", "s"), ("localfields.context.misses", "count"),
       ("localfields.context.hit_ratio", "ratio")]
    + [(f"placesets.{n}.{s}", u) for n in ("union", "intersect", "complement")
       for s, u in (("calls", "count"), ("self_s", "s"))]
    + [("placesets.contains_prime.calls", "count"), ("placesets.cells_mean", "cells"),
       ("placesets.cells_max", "cells")]
    + [(f"ultrafilters.{n}.{s}", u) for n in ("free_on_atom", "contains")
       for s, u in (("calls", "count"), ("self_s", "s"))]
    + [("ultrafilters.sampled_primes", "count")]
    + [("adeles.membership_set.calls", "count"), ("adeles.membership_set.self_s", "s"),
       ("adeles.membership_set.hit_ratio", "ratio"), ("adeles.valuation_at.calls", "count"),
       ("adeles.valuation_at.self_s", "s"), ("adeles.arith.self_s", "s")]
    + [("spectrum.member.calls", "count"), ("spectrum.member.self_s", "s"),
       ("spectrum.selected_profile.hit_ratio", "ratio")]
    + [(f"extensions.{n}.{s}", u) for n in ("fiber_of_spec", "to_extension")
       for s, u in (("calls", "count"), ("self_s", "s"))]
    + [("import.adelic_s", "s"), ("import.sympy_s", "s"), ("cli.main.self_s", "s"),
       ("trace.overhead_ratio", "ratio"), ("trace.spans", "count")]
)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.ids: dict[str, int] = {}
        self.name = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.op = array("l")
        self.stack: list[int] = []
        self.op_id = -1
        self.enabled = True
        self.ultra_depth = 0
        self.counts: dict[str, int] = {}
        self.sampled = 0
        self.cells = [0, 0, 0]  # count, total, max
        self.cache_base: dict[str, tuple[int, int]] = {}
        self.cache_extra: dict[str, list[int]] = {}
        self.caches: dict[str, object] = {}

    def name_id(self, name: str) -> int:
        if name not in self.ids:
            self.ids[name] = len(self.names)
            self.names.append(name)
        return self.ids[name]

    def note_cells(self, result) -> None:
        coords = getattr(result, "coords", None)
        n = sum(len(c.cells) for c in coords) if coords is not None else len(result.cells)
        cells = self.cells
        cells[0] += 1
        cells[1] += n
        cells[2] = max(cells[2], n)

    # -- reading the package's caches --------------------------------------------

    def cache_deltas(self) -> dict[str, tuple[int, int]]:
        """(hits, misses) per cache since install, plus what children sent."""
        out = {}
        for name in CACHES:
            hits, misses = self.cache_extra.get(name, (0, 0))
            if name in self.caches:
                info = self.caches[name].cache_info()
                h0, m0 = self.cache_base[name]
                hits, misses = hits + info.hits - h0, misses + info.misses - m0
            out[name] = (hits, misses)
        return out

    # -- export and merge ----------------------------------------------------------

    def dump(self) -> dict:
        """Everything a child process sends back to the parent."""
        return {
            "names": self.names, "name": list(self.name), "start": list(self.start),
            "end": list(self.end), "parent": list(self.parent),
            "counts": self.counts, "sampled": self.sampled, "cells": self.cells,
            "caches": self.cache_deltas(),
        }

    def merge(self, child: dict, op_id: int) -> None:
        offset = len(self.start)
        remap = [self.name_id(n) for n in child["names"]]
        self.name.extend(remap[i] for i in child["name"])
        self.start.extend(child["start"])
        self.end.extend(child["end"])
        self.parent.extend(p + offset if p >= 0 else -1 for p in child["parent"])
        self.op.extend([op_id] * len(child["start"]))
        for key, n in child["counts"].items():
            self.counts[key] = self.counts.get(key, 0) + n
        self.sampled += child["sampled"]
        cells = child["cells"]
        self.cells = [self.cells[0] + cells[0], self.cells[1] + cells[1], max(self.cells[2], cells[2])]
        for key, (h, m) in child["caches"].items():
            extra = self.cache_extra.setdefault(key, [0, 0])
            extra[0] += h
            extra[1] += m

    def write(self, path) -> None:
        """Write the spans as a JSON header line followed by one
        tab-separated line per span: name, start, end, parent, op."""
        with open(path, "w") as out:
            out.write(json.dumps({"columns": ["name", "start", "end", "parent", "op"],
                                  "spans": len(self.start)}) + "\n")
            names = self.names
            for i in range(len(self.start)):
                out.write(f"{names[self.name[i]]}\t{self.start[i]:.9f}\t{self.end[i]:.9f}"
                          f"\t{self.parent[i]}\t{self.op[i]}\n")

    # -- per-layer figures ---------------------------------------------------------

    def layer_totals(self) -> dict[str, tuple[int, float]]:
        """(calls, self seconds) per span name."""
        n = len(self.start)
        covered = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                covered[p] += self.end[i] - self.start[i]
        totals: dict[str, list] = {}
        for i in range(n):
            entry = totals.setdefault(self.names[self.name[i]], [0, 0.0])
            entry[0] += 1
            entry[1] += self.end[i] - self.start[i] - covered[i]
        return {k: (c, s) for k, (c, s) in totals.items()}


def _resolve(module, attr):
    obj = sys.modules[module]
    owner = None
    for part in attr.split("."):
        owner, obj = obj, getattr(obj, part)
    return owner, attr.split(".")[-1], obj


def install(tracer: Tracer) -> None:
    """Import every layer, wrap its functions and snapshot the caches."""
    for module in {m for _, m, _, _ in WRAPPED}:
        importlib.import_module(module)
    for name, (module, attr) in CACHES.items():
        fn = _resolve(module, attr)[2]
        tracer.caches[name] = fn
        info = fn.cache_info()
        tracer.cache_base[name] = (info.hits, info.misses)
    for name, module, attr, how in WRAPPED:
        owner, key, original = _resolve(module, attr)
        wrapper = _wrap(tracer, name, original, how)
        setattr(owner, key, wrapper)
        if isinstance(owner, type):
            continue
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.startswith("adelic") and mod is not owner:
                for other, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, other, wrapper)


def _wrap(tracer: Tracer, name: str, fn, how: str):
    if how == "count":
        counts = tracer.counts
        counts.setdefault(name, 0)
        sampled = name == "places.splitting_class"

        def counter(*args, **kwargs):
            if tracer.enabled:
                counts[name] += 1
                if sampled and tracer.ultra_depth:
                    tracer.sampled += 1
            return fn(*args, **kwargs)

        return counter

    sid = tracer.name_id(name)
    perf = time.perf_counter
    names, starts, ends = tracer.name, tracer.start, tracer.end
    parents, ops, stack = tracer.parent, tracer.op, tracer.stack
    ultra = how == "ultra"
    cells = how == "cells"

    def span(*args, **kwargs):
        if not tracer.enabled:
            return fn(*args, **kwargs)
        idx = len(starts)
        names.append(sid)
        parents.append(stack[-1] if stack else -1)
        ops.append(tracer.op_id)
        ends.append(0.0)
        stack.append(idx)
        if ultra:
            tracer.ultra_depth += 1
        starts.append(perf())
        try:
            result = fn(*args, **kwargs)
        finally:
            ends[idx] = perf()
            stack.pop()
            if ultra:
                tracer.ultra_depth -= 1
        if cells:
            tracer.note_cells(result)
        return result

    span.__wrapped__ = fn
    return span


def per_layer_metrics(tracer: Tracer, extra: dict[str, float]) -> dict[str, dict]:
    """Every per-layer metric, zero where the workload never calls the layer."""
    totals = tracer.layer_totals()
    caches = tracer.cache_deltas()
    values: dict[str, float] = {}
    for name, (calls, self_s) in totals.items():
        values[f"{name}.calls"] = calls
        values[f"{name}.self_s"] = self_s
    for name, calls in tracer.counts.items():
        values[f"{name}.calls"] = calls
    for name, (hits, misses) in caches.items():
        values[f"{name}.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    values["localfields.context.misses"] = caches["localfields.context"][1]
    values["ultrafilters.sampled_primes"] = tracer.sampled
    count, total, biggest = tracer.cells
    values["placesets.cells_mean"] = total / count if count else 0.0
    values["placesets.cells_max"] = biggest
    values["trace.spans"] = len(tracer.start)
    values.update(extra)
    return {name: {"value": values.get(name, 0), "unit": unit} for name, unit in PER_LAYER}
