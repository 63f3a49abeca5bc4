"""Per-layer tracing of eulab from outside the package.

The layers are eulab's modules.  Each layer is entered through a few public
entry points; ``Tracer.install`` replaces every one of them, and every
module-level alias of it (``identities.egf_build`` is ``series.egf_build``),
with a wrapper that records a span ``(name, start, end, parent)`` in memory.
After a pass, ``Tracer.collect`` turns the spans into per-layer metrics: a
span's self time is its duration minus the durations of its direct children.

The wrappers also count, at the same boundaries, the work each call was asked
to do: cache hits of ``lru_cache`` entry points, and for each cache miss of an
enumeration oracle the number of objects it covers (n! permutations,
|Q_n(k)| Stirling words, or the trees summed in the result).

``uninstall`` puts every original object back, so untraced passes run the
package exactly as it ships.
"""

from __future__ import annotations

import functools
import importlib
import math
import pkgutil
import statistics
import sys
import time
from collections import defaultdict
from typing import Callable

#: layer -> entry points, each "module:attribute" or "module:Class.method".
LAYERS: dict[str, tuple[str, ...]] = {
    "cli": ("eulab.cli:main",),
    "identities": ("eulab.identities:verify",),
    "permstats": (
        "eulab.permstats:perm_poly",
        "eulab.permstats:diaconis_profile",
        "eulab.permstats:asc_suc_counts",
    ),
    "stirlingperm": ("eulab.stirlingperm:kth_order_poly",),
    "trees": ("eulab.trees:tree_weight_poly",),
    "grammar": ("eulab.grammar:Grammar.derive",),
    "series": (
        "eulab.series:egf_build",
        "eulab.series:Series.__mul__",
        "eulab.series:Series.div",
        "eulab.series:Series.exp",
        "eulab.series:Series.compose",
    ),
    "expand": (
        "eulab.expand:gamma_expand",
        "eulab.expand:frobenius_expand",
        "eulab.expand:partial_gamma_expand",
        "eulab.expand:esym_expand",
        "eulab.expand:gamma_tables",
    ),
    "exactalg": (
        "eulab.exactalg:Poly.__mul__",
        "eulab.exactalg:Poly.__add__",
        "eulab.exactalg:Poly.__sub__",
        "eulab.exactalg:Poly.__pow__",
        "eulab.exactalg:Poly.scale",
        "eulab.exactalg:Poly.diff",
        "eulab.exactalg:Poly.divexact",
        "eulab.exactalg:Poly.subst",
        "eulab.exactalg:Poly.to_json",
        "eulab.exactalg:Poly.from_json",
        "eulab.exactalg:poly_sum",
    ),
}

#: Exact counts: they must repeat exactly between passes and between runs.
COUNT_METRICS = (
    "cli.calls",
    "identities.calls",
    "identities.failed",
    "permstats.calls",
    "permstats.cache_hits",
    "permstats.perms_enumerated",
    "stirlingperm.calls",
    "stirlingperm.cache_hits",
    "stirlingperm.words_enumerated",
    "trees.calls",
    "trees.cache_hits",
    "trees.trees_enumerated",
    "grammar.derive_calls",
    "grammar.max_terms",
    "series.calls",
    "expand.calls",
    "exactalg.mul_calls",
)

#: Seconds of self time, reported as the median over traced passes.
TIME_METRICS = (
    "cli.self_s",
    "identities.self_s",
    "permstats.self_s",
    "stirlingperm.self_s",
    "trees.self_s",
    "grammar.self_s",
    "series.self_s",
    "expand.self_s",
    "exactalg.self_s",
    "exactalg.mul_self_s",
    "exactalg.divexact_self_s",
    "exactalg.json_self_s",
)

#: per-item cost: metric -> (self time metric, item count metric)
PER_ITEM_METRICS = {
    "permstats.us_per_perm": ("permstats.self_s", "permstats.perms_enumerated"),
    "stirlingperm.us_per_word": ("stirlingperm.self_s", "stirlingperm.words_enumerated"),
    "trees.us_per_tree": ("trees.self_s", "trees.trees_enumerated"),
}

#: Self time of these spans also feeds the named exactalg sub-metrics.
_EXACTALG_PARTS = {
    "Poly.__mul__": "exactalg.mul_self_s",
    "Poly.divexact": "exactalg.divexact_self_s",
    "Poly.to_json": "exactalg.json_self_s",
    "Poly.from_json": "exactalg.json_self_s",
}


def eulab_modules() -> list:
    """Import and return every module of the eulab package."""
    package = importlib.import_module("eulab")
    mods = [package]
    for info in pkgutil.walk_packages(package.__path__, "eulab."):
        mods.append(importlib.import_module(info.name))
    return mods


def package_caches() -> list:
    """Every ``functools.lru_cache`` object in the package, found by walking it.

    Call this before ``Tracer.install``: the references it returns are the
    cached functions themselves, so clearing them works whether or not the
    tracing wrappers are in place.
    """
    found: dict[int, object] = {}

    def visit(obj: object) -> None:
        if callable(getattr(obj, "cache_clear", None)) and callable(getattr(obj, "cache_info", None)):
            found[id(obj)] = obj

    for mod in eulab_modules():
        for value in list(vars(mod).values()):
            visit(value)
            if isinstance(value, type) and value.__module__ == mod.__name__:
                for member in vars(value).values():
                    visit(getattr(member, "__func__", member))
    return list(found.values())


def clear_caches(caches: list) -> None:
    for cached in caches:
        cached.cache_clear()


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


class Tracer:
    """Span recorder for one process; install it around the passes to trace."""

    def __init__(self) -> None:
        self.spans: list = []
        self._stack: list[int] = [-1]
        self.counts: dict[str, int] = defaultdict(int)
        self._slots: list[tuple[object, str, object, object]] = []
        self.missing: list[str] = []
        modules = eulab_modules()
        for layer, points in LAYERS.items():
            for point in points:
                if not self._plan(layer, point, modules):
                    self.missing.append(point)

    # -- wrapping ------------------------------------------------------------

    def _plan(self, layer: str, point: str, modules: list) -> bool:
        """Prepare the wrapper for one entry point and every slot holding it."""
        mod_name, _, qual = point.partition(":")
        mod = sys.modules.get(mod_name)
        owner_name, _, attr = qual.rpartition(".")
        owner = getattr(mod, owner_name, None) if owner_name else mod
        if owner is None or attr not in vars(owner):
            return False
        raw = vars(owner)[attr]
        name = f"{owner_name}.{attr}" if owner_name else attr
        if isinstance(raw, (classmethod, staticmethod)):
            wrapper = type(raw)(self._wrap(raw.__func__, layer, name))
        else:
            wrapper = self._wrap(raw, layer, name)
        holders = [owner] if owner_name else modules
        for holder in holders:
            for slot, value in list(vars(holder).items()):
                if value is raw:
                    self._slots.append((holder, slot, raw, wrapper))
        return True

    def _wrap(self, fn: Callable, layer: str, name: str) -> Callable:
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter
        counter = _counter(layer, name, counts)
        span_name = f"{layer}:{name}"
        cache_info = getattr(fn, "cache_info", None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            hits = cache_info().hits if cache_info is not None else 0
            index = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (span_name, start, end, parent)
            if counter is not None:
                counter(args, kwargs, result, cache_info is not None and cache_info().hits > hits)
            return result

        if cache_info is not None:
            wrapper.cache_info = cache_info
            wrapper.cache_clear = fn.cache_clear
        return wrapper

    def install(self) -> None:
        for holder, slot, _raw, wrapper in self._slots:
            setattr(holder, slot, wrapper)

    def uninstall(self) -> None:
        for holder, slot, raw, _wrapper in reversed(self._slots):
            setattr(holder, slot, raw)

    # -- results -------------------------------------------------------------

    def collect(self) -> tuple[dict[str, float], dict[str, dict]]:
        """Per-layer metrics and per-span summaries of the spans recorded so far.

        Clears the recorded spans and counts, ready for the next pass.
        """
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        by_span: dict[str, dict] = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        metrics: dict[str, float] = {m: 0.0 for m in TIME_METRICS}
        metrics.update({m: 0 for m in COUNT_METRICS})
        for i, (name, start, end, _parent) in enumerate(spans):
            own = end - start - child[i]
            entry = by_span[name]
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += own
            layer, _, short = name.partition(":")
            metrics[f"{layer}.self_s"] += own
            part = _EXACTALG_PARTS.get(short)
            if part is not None:
                metrics[part] += own
        metrics.update(self.counts)
        for metric, (time_metric, count_metric) in PER_ITEM_METRICS.items():
            items = metrics[count_metric]
            metrics[metric] = metrics[time_metric] / items * 1e6 if items else 0.0
        spans.clear()
        self.counts.clear()
        return metrics, dict(by_span)


#: oracle layer -> (item metric, objects one cache miss covers, from (args, kwargs, result))
_ENUMERATED = {
    "permstats": (
        "permstats.perms_enumerated",
        lambda args, kwargs, result: math.factorial(_arg(args, kwargs, 0, "n")),
    ),
    "stirlingperm": (
        "stirlingperm.words_enumerated",
        lambda args, kwargs, result: sys.modules["eulab.stirlingperm"].word_count(
            _arg(args, kwargs, 0, "n"), _arg(args, kwargs, 1, "k")
        ),
    ),
    "trees": (
        "trees.trees_enumerated",
        lambda args, kwargs, result: sum(c for _, c in result.items()),
    ),
}


def _counter(layer: str, name: str, counts: dict) -> Callable | None:
    """The count bookkeeping for one entry point, run after each call returns."""
    if layer == "grammar":

        def count(args, kwargs, result, hit):
            counts["grammar.derive_calls"] += 1
            counts["grammar.max_terms"] = max(counts["grammar.max_terms"], result.term_count)

    elif layer == "identities":

        def count(args, kwargs, result, hit):
            counts["identities.calls"] += 1
            counts["identities.failed"] += not result.passed

    elif layer in _ENUMERATED:
        items_metric, how_many = _ENUMERATED[layer]

        def count(args, kwargs, result, hit):
            counts[f"{layer}.calls"] += 1
            if hit:
                counts[f"{layer}.cache_hits"] += 1
            else:
                counts[items_metric] += how_many(args, kwargs, result)

    elif layer == "exactalg" and name != "Poly.__mul__":
        return None
    else:
        metric = "exactalg.mul_calls" if layer == "exactalg" else f"{layer}.calls"

        def count(args, kwargs, result, hit):
            counts[metric] += 1

    return count


def summarize(per_pass: list[dict[str, float]]) -> tuple[dict[str, float], list[str]]:
    """Combine the traced passes of one run: medians of times, counts as they are.

    Returns the metrics and the names of counts that did not repeat exactly
    from pass to pass (there should be none: caches are cleared per pass).
    """
    out: dict[str, float] = {}
    unstable = []
    for metric in COUNT_METRICS:
        values = {p[metric] for p in per_pass}
        if len(values) > 1:
            unstable.append(metric)
        out[metric] = per_pass[0][metric]
    for metric in TIME_METRICS + tuple(PER_ITEM_METRICS):
        out[metric] = statistics.median(p[metric] for p in per_pass)
    return out, unstable
