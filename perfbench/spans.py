"""Spans around the program's public functions, for the traced run.

``Tracer.install`` rebinds every public function of each ``treetoric``
module, in every module namespace that binds it (``treetoric.pipeline``
binds ``invert_exact`` as well as ``treetoric.matrices``), and the methods
in ``METHODS`` on their classes, to a wrapper that records one span per
call: name, parent span, tree index, start and end.  Spans stay in memory;
``Tracer.restore`` puts every original binding back.

A span is named ``<module>.<function>``; a method span drops the class, so
``Binomial.evaluate`` records ``binomials.evaluate``.  Calls are nested and
single-threaded, so a span's children never overlap and its self time is
its duration minus theirs.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import sys
from collections import defaultdict
from time import perf_counter

PACKAGE = "treetoric"

LAYERS = (
    "trees",
    "graphs",
    "classify",
    "ideals",
    "laplacians",
    "monomials",
    "matrices",
    "linalg",
    "binomials",
    "pipeline",
    "cli",
)

METHODS = (
    ("binomials", "Binomial", "evaluate"),
    ("laplacians", "CoordinateMap", "apply"),
    ("laplacians", "CoordinateMap", "unapply"),
    ("monomials", "MonomialMap", "evaluate"),
    ("monomials", "MonomialMap", "in_kernel"),
)

# Reported functions, each with the span names it sums.
FUNCTIONS = {
    # per-trial exact arithmetic, which dominates sweep
    "binomials.evaluate": ("binomials.evaluate",),
    "matrices.invert_exact": ("matrices.invert_exact",),
    "matrices.sample_point": ("matrices.sample_point",),
    "matrices.det_exact": ("matrices.det_exact",),
    "linalg.bareiss_echelon": ("linalg.bareiss_echelon",),
    "laplacians.apply": ("laplacians.apply",),
    "laplacians.unapply": ("laplacians.unapply",),
    "monomials.evaluate": ("monomials.evaluate",),
    # per-tree construction; a small share of sweep, growing with n
    "laplacians.map_build": (
        "laplacians.g_derived_laplacian_map",
        "laplacians.reduced_laplacian_map",
    ),
    "monomials.in_kernel": ("monomials.in_kernel",),
    "monomials.exponent_rank": ("monomials.exponent_rank",),
    "ideals.cherry_binomials": ("ideals.cherry_binomials",),
    # the symbolic layers, all of generate
    "classify.classify": ("classify.classify",),
    "graphs.derive_graph": ("graphs.derive_graph",),
    "trees.parse_tree": ("trees.parse_tree",),
    "cli.main": ("cli.main",),
}


def _max_bits(m) -> int:
    return max(
        (max(x.numerator.bit_length(), x.denominator.bit_length())
         for row in m.entries for x in row),
        default=0,
    )


# Small summaries taken from return values, after the span has closed.
SUMMARIES = {
    "ideals.combined_from_classification": lambda result: len(result[0]),
    "pipeline.roundtrip_parametrization": lambda r: (r["skipped_singular"], r["trials"]),
    "matrices.invert_exact": _max_bits,
}


class Tracer:
    """Records spans while installed; one instance per traced pass."""

    def __init__(self):
        self.spans: list[list] = []  # [name, parent index, tree, start, end]
        self.summaries: dict[str, list] = defaultdict(list)
        self.tree: int | None = None
        self._open: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name: str):
        spans, open_, summary = self.spans, self._open, SUMMARIES.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            span = [name, open_[-1] if open_ else -1, self.tree, perf_counter(), 0.0]
            spans.append(span)
            open_.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = perf_counter()
                open_.pop()
            if summary is not None:
                self.summaries[name].append(summary(result))
            return result

        return wrapper

    def _rebind(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = {
            layer: importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS
        }
        wrappers = {}
        for layer, mod in modules.items():
            for attr, value in vars(mod).items():
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(value)
                    and value.__module__ == mod.__name__
                ):
                    wrappers[id(value)] = self._wrap(value, f"{layer}.{attr}")
        for namespace in (sys.modules[PACKAGE], *modules.values()):
            for attr, value in list(vars(namespace).items()):
                if inspect.isfunction(value) and id(value) in wrappers:
                    self._rebind(namespace, attr, wrappers[id(value)])
        for layer, cls_name, method in METHODS:
            cls = getattr(modules[layer], cls_name)
            self._rebind(cls, method, self._wrap(vars(cls)[method], f"{layer}.{method}"))

    def restore(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    def write(self, path) -> None:
        """All spans as JSON lines, gzip-compressed, times in microseconds."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for index, (name, parent, tree, start, end) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": index, "parent": parent, "tree": tree, "name": name,
                    "start_us": round(start * 1e6, 3), "end_us": round(end * 1e6, 3),
                }) + "\n")


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    children = [0.0] * len(spans)
    for _, parent, _, start, end in spans:
        if parent >= 0:
            children[parent] += end - start
    return [end - start - children[i] for i, (_, _, _, start, end) in enumerate(spans)]


def _outermost(spans: list[list], index: int, names) -> bool:
    """True when no ancestor of the span carries one of ``names``."""
    parent = spans[index][1]
    while parent >= 0:
        if spans[parent][0] in names:
            return False
        parent = spans[parent][1]
    return True


def per_layer_metrics(
    tracer: Tracer,
    traced_s: list[float],
    untraced_s: list[float],
    applicable: set[int],
) -> dict[str, tuple[float, str]]:
    """Per-layer figures of one traced pass, as name -> (value, unit).

    ``traced_s`` and ``untraced_s`` are the per-tree wall times of the same
    trees with and without spans; ``applicable`` holds the indices of the
    trees that classified as a theorem regime.
    """
    spans = tracer.spans
    own = self_times(spans)
    tree_ms = 1000 * sum(traced_s)
    out: dict[str, tuple[float, str]] = {}

    layer_ms: dict[str, float] = defaultdict(float)
    name_ms: dict[str, float] = defaultdict(float)
    name_calls: dict[str, int] = defaultdict(int)
    for span, self_s in zip(spans, own):
        layer_ms[span[0].split(".")[0]] += 1000 * self_s
        name_ms[span[0]] += 1000 * self_s
        name_calls[span[0]] += 1
    for layer in LAYERS:
        out[f"{layer}.self_ms"] = (layer_ms[layer], "ms")
        out[f"{layer}.share"] = (layer_ms[layer] / tree_ms, "ratio")

    for metric, names in FUNCTIONS.items():
        total = sum(
            span[4] - span[3]
            for i, span in enumerate(spans)
            if span[0] in names and _outermost(spans, i, names)
        )
        out[f"{metric}.self_ms"] = (sum(name_ms[n] for n in names), "ms")
        out[f"{metric}.total_ms"] = (1000 * total, "ms")
        out[f"{metric}.calls"] = (sum(name_calls[n] for n in names), "count")

    derive_in_applicable = sum(
        1 for span in spans if span[0] == "graphs.derive_graph" and span[2] in applicable
    )
    out["graphs.derive_graph.calls_per_applicable"] = (
        derive_in_applicable / len(applicable) if applicable else 0.0, "count"
    )
    out["ideals.generators"] = (
        sum(tracer.summaries["ideals.combined_from_classification"]), "count"
    )
    det_children: dict[int, int] = defaultdict(int)
    for span in spans:
        if span[0] == "matrices.det_exact" and span[1] >= 0:
            if spans[span[1]][0] == "matrices.sample_point":
                det_children[span[1]] += 1
    out["matrices.sample_point.retries"] = (
        sum(max(0, det_children[i] - 1)
            for i, span in enumerate(spans) if span[0] == "matrices.sample_point"),
        "count",
    )
    roundtrips = tracer.summaries["pipeline.roundtrip_parametrization"]
    out["pipeline.roundtrip.skipped_singular"] = (sum(s for s, _ in roundtrips), "count")
    out["pipeline.roundtrip.trials"] = (sum(t for _, t in roundtrips), "count")
    out["matrices.invert_exact.max_bits"] = (
        max(tracer.summaries["matrices.invert_exact"], default=0), "bits"
    )

    top_level = sum(span[4] - span[3] for span in spans if span[1] < 0)
    out["trace.overhead"] = (sum(traced_s) / sum(untraced_s), "ratio")
    out["trace.coverage"] = (1000 * top_level / tree_ms, "ratio")
    return out

