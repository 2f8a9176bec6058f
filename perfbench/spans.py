"""Timing spans around loopcheck's public entry points, installed from outside.

`install` replaces each traced function with a wrapper in the module that
defines it and in every loopcheck module that bound it by name (``from .x
import y``), so calls are traced whichever way they are made.  Generator
functions get one span per ``next()`` call.  Spans (name, start, end,
parent) stay in memory until the sample ends; `layer_metrics` turns them
into self times and counts.
"""
from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter

# span name -> (defining module, function names, is a generator function).
# table's fine-grained lookups (ldiv, rdiv, inverse, power) are called
# millions of times and get no span; their cost shows in their callers.
LAYERS = {
    "table.make_loop": ("table", ("make_loop",), False),
    "table.predicates": (
        "table",
        (
            "commutativity_violation",
            "associativity_violation",
            "flexibility_violation",
            "aaip_violation",
            "power_associativity_violation",
            "is_uniquely_2_divisible",
        ),
        False,
    ),
    "perms.group_closure": ("perms", ("group_closure",), False),
    "perms.mlt_group": ("perms", ("mlt_group",), False),
    "perms.inn_group": ("perms", ("inn_group",), False),
    "perms.is_automorphic": ("perms", ("is_automorphic",), False),
    "perms.automorphism_group": ("perms", ("automorphism_group",), False),
    "perms.isomorphisms": ("perms", ("isomorphisms",), True),
    "structure.conditions": (
        "structure",
        ("co1_violation", "co2_violation", "theorem31_violation"),
        False,
    ),
    "identities.parse": (
        "identities",
        ("parse_identity", "parse_macro", "parse_identity_file"),
        False,
    ),
    "identities.evaluate": ("identities", ("evaluate",), False),
    "halfiso.enumerate": ("halfiso", ("enumerate_half_isos",), True),
    "halfiso.classify": ("halfiso", ("classify",), False),
    "halfiso.audit": ("halfiso", ("audit_theorem41",), False),
    "halfiso.scan": ("halfiso", ("scan_conjecture51",), False),
    "catalog.generate_loops": ("catalog", ("generate_loops",), False),
    "catalog.canonical_key": ("catalog", ("canonical_key",), False),
    "catalog.are_isomorphic": ("catalog", ("are_isomorphic",), False),
    "papercheck.build_context": ("papercheck", ("build_context",), False),
    "papercheck.criteria": (
        "papercheck",
        tuple(f"criterion_{k}" for k in range(1, 11)),
        False,
    ),
    "cli.analyze_loop": ("cli", ("analyze_loop",), False),
}

# Counts taken besides ``<layer>.calls``.
COUNTS = (
    "catalog.generate_loops.classes",
    "perms.group_closure.elements",
    "perms.isomorphisms.yields",
    "halfiso.enumerate.maps",
    "halfiso.pairs",
    "identities.assignments",
)


class Tracer:
    """Spans kept in memory: ``[name, start, end, parent index]``."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()

    def begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self.stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self.stack.pop()

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps([name, start, end, parent]) + "\n")


def wrap_function(tracer: Tracer, name: str, fn, tally=None):
    """A traced stand-in for `fn`; `tally(counts, args, result)` adds counts."""

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        index = tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(index)
        tracer.counts[name + ".calls"] += 1
        if tally is not None:
            tally(tracer.counts, args, result)
        return result

    return traced


def wrap_generator(tracer: Tracer, name: str, fn):
    """A traced stand-in for generator function `fn`: one span per item."""

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        tracer.counts[name + ".calls"] += 1
        gen = fn(*args, **kwargs)
        try:
            while True:
                index = tracer.begin(name)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    tracer.end(index)
                tracer.counts[name + ".yields"] += 1
                yield item
        finally:
            gen.close()

    return traced


def _tally_size(key):
    def tally(counts, args, result):
        counts[key] += len(result)

    return tally


def _tally_assignments(counts, args, result):
    # Holding statements try every assignment: order ** variables of them.
    if result is None:
        L, stmt = args[0], args[1]
        counts["identities.assignments"] += L.order ** len(stmt.variables)


def _tally_scan_pairs(counts, args, result):
    for rec in result.records:
        if rec.kind == "conjecture-scan-summary":
            counts["halfiso.pairs"] += rec.data["pairs"]


def _tally_audit_pair(counts, args, result):
    counts["halfiso.pairs"] += 1


TALLIES = {
    "catalog.generate_loops": _tally_size("catalog.generate_loops.classes"),
    "perms.group_closure": _tally_size("perms.group_closure.elements"),
    "identities.evaluate": _tally_assignments,
    "halfiso.scan": _tally_scan_pairs,
    "halfiso.audit": _tally_audit_pair,
}


def install(tracer: Tracer):
    """Wrap every function named in LAYERS wherever loopcheck binds it.

    Returns a callable that restores the original bindings.
    """
    modules = [
        module
        for name, module in list(sys.modules.items())
        if name == "loopcheck" or name.startswith("loopcheck.")
    ]
    restore = []
    for name, (home, functions, is_gen) in LAYERS.items():
        defining = sys.modules.get(f"loopcheck.{home}")
        if defining is None:
            continue
        for fname in functions:
            orig = getattr(defining, fname, None)
            if orig is None:
                continue
            if is_gen:
                traced = wrap_generator(tracer, name, orig)
            else:
                traced = wrap_function(tracer, name, orig, TALLIES.get(name))
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is orig:
                        restore.append((module, attr, orig))
                        setattr(module, attr, traced)
                    elif attr == "CRITERIA" and isinstance(value, tuple):
                        # papercheck.run_all reads its criteria from this table
                        patched = tuple(
                            (*row[:-1], traced) if row[-1] is orig else row for row in value
                        )
                        if patched != value:
                            restore.append((module, attr, value))
                            setattr(module, attr, patched)

    def uninstall():
        for module, attr, value in reversed(restore):
            setattr(module, attr, value)

    return uninstall


def self_times(spans) -> dict[str, float]:
    """Per span name: total duration minus the time covered by child spans."""
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    out: dict[str, float] = {}
    for (name, *_), t in zip(spans, own):
        out[name] = out.get(name, 0.0) + t
    return out


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Self time (``<layer>.s``) and calls of every layer plus the counts
    taken; 0 for a layer the sample did not use."""
    counts = Counter(tracer.counts)
    counts["halfiso.enumerate.maps"] = counts.pop("halfiso.enumerate.yields", 0)
    out: dict[str, float] = {f"{name}.s": 0.0 for name in LAYERS}
    for name, t in self_times(tracer.spans).items():
        out[f"{name}.s"] = t
    for key in [f"{name}.calls" for name in LAYERS] + list(COUNTS):
        out[key] = counts[key]
    evaluate_s = out["identities.evaluate.s"]
    out["identities.assignments_per_s"] = (
        out["identities.assignments"] / evaluate_s if evaluate_s > 0 else 0.0
    )
    return out
