"""Spans and counts at the public boundaries of each quatheta module, recorded
from outside the program by wrapping its functions.

A `Tracer` wraps every public function of each layer module (except the
per-element helpers in UNTRACED) and the methods in METHODS.  Each wrapper is
installed in every quatheta namespace that binds the function, so a call
reaches it whichever module it is made from: `short_vectors` is bound in
shortvec, theta and orders.  Spans stay in memory as
(name, start, end, parent index, op id) until `write_spans`.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

LAYERS = (
    "cli", "orders", "lattices", "quadmod", "shortvec", "theta",
    "fields", "brandt", "basis", "quaternions", "linalg",
)

# Per-element helpers, called up to 10^5 times in one op.  A span on each
# would mostly measure the wrapper; their time stays in the caller's self time.
UNTRACED = {
    "fields": {
        "canonical_positive_associate", "divides", "euclid_divmod", "exact_div",
        "field_gcd", "field_xgcd", "is_associate", "is_totally_positive",
    },
    "quaternions": {"conjugate", "reduced_norm", "reduced_trace"},
    "shortvec": {"partial_all_zero"},
}

# Layer boundaries that are methods; the span is named "<layer>.<method>".
METHODS = {
    "lattices": (("QuaternionLattice", "from_generators"), ("QuaternionLattice", "multiply")),
    "brandt": (("BrandtMatrix", "charpoly"),),
}


def _is_hit(result) -> int:
    return int(result[0] if isinstance(result, tuple) else bool(result))


# Counts read off a call's result, kept under "<span name>.<count name>".
RESULT_COUNTS = {
    "shortvec.short_vectors": ("vectors", len),
    "orders.is_isomorphic": ("hits", _is_hit),
    "orders.neighbors": ("candidates", len),
    "orders.ideal_classes": ("new_classes", lambda classes: classes.size - 1),
}


class Tracer:
    """Context manager: installs the wrappers on entry and restores the
    original functions on exit."""

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.op = None
        self.names: set[str] = set()
        self._stack: list[int] = []
        self._undo: list = []

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def clear(self) -> None:
        self.spans.clear()
        self.counts.clear()

    def install(self) -> None:
        mods = {}
        for layer in LAYERS:
            try:
                mods[layer] = importlib.import_module(f"quatheta.{layer}")
            except ImportError:
                continue
        namespaces = [
            m for n, m in list(sys.modules.items()) if n == "quatheta" or n.startswith("quatheta.")
        ]
        for layer, mod in mods.items():
            for attr, fn in list(vars(mod).items()):
                if (
                    attr.startswith("_")
                    or attr in UNTRACED.get(layer, ())
                    or isinstance(fn, type)
                    or not callable(fn)
                    or getattr(fn, "__module__", None) != mod.__name__
                ):
                    continue
                wrapper = self._wrap(f"{layer}.{attr}", fn)
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is fn:
                            self._set(ns, key, wrapper)
            for cls_name, method in METHODS.get(layer, ()):
                cls = getattr(mod, cls_name, None)
                raw = vars(cls).get(method) if isinstance(cls, type) else None
                if raw is None:
                    continue
                name = f"{layer}.{method}"
                if isinstance(raw, staticmethod):
                    self._set(cls, method, staticmethod(self._wrap(name, raw.__func__)))
                else:
                    self._set(cls, method, self._wrap(name, raw))

    def uninstall(self) -> None:
        while self._undo:
            obj, key, old = self._undo.pop()
            setattr(obj, key, old)
        self.names.clear()

    def _set(self, obj, key, new) -> None:
        self._undo.append((obj, key, vars(obj)[key]))
        setattr(obj, key, new)

    def _wrap(self, name: str, fn):
        self.names.add(name)
        spans, stack, counts = self.spans, self._stack, self.counts
        counter = RESULT_COUNTS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op)
            if counter is not None:
                counts[f"{name}.{counter[0]}"] += counter[1](result)
            return result

        return wrapper


def span_totals(spans: list) -> tuple[Counter, Counter, Counter]:
    """Per span name: calls, seconds and self seconds.

    Seconds count only the outermost of nested calls of one name, so a
    recursive function is not counted twice.  Self seconds are a span's
    duration minus the part of it that its child spans cover.
    """
    covered = [0.0] * len(spans)
    for name, start, end, parent, _op in spans:
        if parent >= 0:
            covered[parent] += end - start
    calls, seconds, self_seconds = Counter(), Counter(), Counter()
    for i, (name, start, end, parent, _op) in enumerate(spans):
        calls[name] += 1
        self_seconds[name] += end - start - covered[i]
        while parent >= 0 and spans[parent][0] != name:
            parent = spans[parent][3]
        if parent < 0:
            seconds[name] += end - start
    return calls, seconds, self_seconds


STAGES = ("algebra", "order", "classes", "hom_modules", "theta", "brandt", "span")

CALLS_AND_SECONDS = (
    "orders.is_isomorphic", "orders.neighbors", "orders.unit_weight", "orders.right_order",
    "lattices.from_generators", "lattices.hnf_ol", "lattices.multiply",
    "quadmod.hom_module", "shortvec.short_vectors", "theta.theta",
    "quaternions.verify_ramification", "linalg.hnf_int",
)
SECONDS_ONLY = (
    "orders.ideal_classes", "quadmod.gram_and_level", "theta.theta_matrix",
    "brandt.hecke_property_suite", "brandt.cuspidal_eigenvalues", "brandt.charpoly",
    "basis.span_rank", "basis.hilbert_consistency", "linalg.rank_and_pivots_int",
)
CALLS_ONLY = ("fields.enumerate_totally_positive",)


def layer_metrics(names: set[str], spans: list, counts: Counter, reports: list[dict]) -> dict:
    """Per-layer metrics of one traced pass, as name -> (value, unit).

    A metric whose function is not in `names` (a later change removed or
    renamed it) is left out rather than reported as zero.
    """
    calls, seconds, self_seconds = span_totals(spans)
    out = {}
    for stage in STAGES:
        if all(stage in r["timings"] for r in reports):
            out[f"cli.stage.{stage}_s"] = (sum(r["timings"][stage] for r in reports), "s")
    for name in CALLS_AND_SECONDS:
        if name in names:
            out[f"{name}.calls"] = (calls[name], "count")
            out[f"{name}.s"] = (seconds[name], "s")
    for name in SECONDS_ONLY:
        if name in names:
            out[f"{name}_s"] = (seconds[name], "s")
    for name in CALLS_ONLY:
        if name in names:
            out[f"{name}.calls"] = (calls[name], "count")
    iso, nb = "orders.is_isomorphic", "orders.neighbors"
    if iso in names:
        out[f"{iso}.hits"] = (counts[f"{iso}.hits"], "count")
        if calls[iso]:
            out["orders.iso_hit_ratio"] = (counts[f"{iso}.hits"] / calls[iso], "ratio")
    if nb in names:
        candidates = counts[f"{nb}.candidates"]
        out["orders.candidates"] = (candidates, "count")
        if candidates and "orders.ideal_classes" in names:
            new = counts["orders.ideal_classes.new_classes"]
            out["orders.new_class_ratio"] = (new / candidates, "ratio")
    sv = "shortvec.short_vectors"
    if sv in names:
        vectors = counts[f"{sv}.vectors"]
        out["shortvec.vectors"] = (vectors, "count")
        if seconds[sv]:
            out["shortvec.vectors_per_s"] = (vectors / seconds[sv], "1/s")
    if "theta.theta" in names:
        out["theta.theta.self_s"] = (self_seconds["theta.theta"], "s")
    for layer in LAYERS:
        prefix = layer + "."
        if any(n.startswith(prefix) for n in names):
            total = sum(s for n, s in self_seconds.items() if n.startswith(prefix))
            out[f"{layer}.self_s"] = (total, "s")
    return out


def median_metrics(per_pass: list[dict]) -> dict:
    """Median of each metric over passes; a metric missing from any pass is dropped."""
    common = set.intersection(*(set(m) for m in per_pass))
    return {
        name: (statistics.median(m[name][0] for m in per_pass), per_pass[0][name][1])
        for name in sorted(common)
    }


# Stages whose whole time is one call (or one of a few calls) made directly by
# cli.run, so the report's own stage timing and the wrapper spans must agree.
STAGE_SPANS = {
    "classes": ("orders.ideal_classes",),
    "theta": ("theta.theta_matrix",),
    "span": ("basis.span_rank", "basis.hilbert_consistency"),
}


def stage_disagreements(spans: list, reports: list[dict], allowance: float) -> list[str]:
    """Where the reports' stage timings and the wrapper spans disagree by more
    than `allowance` seconds, summed over the pass."""
    runs = {i for i, s in enumerate(spans) if s[0] == "cli.run"}
    problems = []
    for stage, names in STAGE_SPANS.items():
        traced = sum(e - s for n, s, e, parent, _op in spans if n in names and parent in runs)
        reported = sum(r["timings"][stage] for r in reports)
        if abs(traced - reported) > allowance:
            problems.append(f"stage {stage}: report {reported:.4f} s, spans {traced:.4f} s")
    run_s = sum(spans[i][2] - spans[i][1] for i in runs)
    staged = sum(r["timings"][stage] for r in reports for stage in STAGES)
    if not 0 <= run_s - staged <= allowance:
        problems.append(f"cli.run spans {run_s:.4f} s, stages sum to {staged:.4f} s")
    return problems


def write_spans(path: Path, spans: list, ops: dict) -> None:
    """One JSON line naming each op id, then one line per span."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as fh:
        fh.write(json.dumps({"ops": ops}) + "\n")
        for span in spans:
            fh.write(json.dumps(span) + "\n")
