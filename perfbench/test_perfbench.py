"""Self-checks of the benchmark harness (span arithmetic, answer key, inputs,
generator wrapping).  Run with ``python -m pytest perfbench``."""
from __future__ import annotations

import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
for path in (HERE, HERE.parent / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import loopcheck  # noqa: E402
from loopcheck import perms  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402


def test_self_time_of_synthetic_span_tree():
    tree = [
        ["root", 0.0, 10.0, -1],
        ["a", 1.0, 4.0, 0],
        ["b", 2.0, 3.0, 1],
        ["a", 5.0, 6.5, 0],
        ["b", 7.0, 9.0, 0],
    ]
    assert spans.self_times(tree) == {"root": 3.5, "a": 3.5, "b": 3.0}


def test_wrong_reference_counts_as_failed():
    expected = workloads.EXPECTED["groups"]
    observed = dict(expected)
    assert workloads.check(observed, expected) == 0
    wrong = dict(expected, **{"c8xc8:|aut|": 1535})
    assert workloads.check(observed, wrong) == 1
    del observed["c64:isomorphic"]
    assert workloads.check(observed, expected) == 1


def test_same_seed_gives_identical_inputs():
    def inputs(seed):
        out = workloads.build_groups(loopcheck, seed)
        return repr([(L.table, M.table) for L, M in out["pairs"]]).encode()

    assert inputs(7) == inputs(7)
    assert inputs(7) != inputs(8)


def test_relabeling_is_an_isomorphism():
    table = workloads.abelian_table((2, 4))
    L = loopcheck.make_loop(table)
    M = loopcheck.make_loop(workloads.relabel(table, random.Random(3)))
    assert loopcheck.are_isomorphic(L, M)


def test_wrapped_generator_yields_the_same_sequence():
    L = loopcheck.builtin_loop("c2xc4")
    tracer = spans.Tracer()
    traced = spans.wrap_generator(tracer, "perms.isomorphisms", perms.isomorphisms)
    assert list(traced(L, L)) == list(perms.isomorphisms(L, L))
    assert tracer.counts["perms.isomorphisms.yields"] == 8
    assert len(tracer.spans) == 9  # one per item, plus the exhausting call
    assert not tracer.stack


def test_install_wraps_by_name_bindings_and_restores_them():
    from loopcheck import cli, halfiso, papercheck

    orig = halfiso.classify
    tracer = spans.Tracer()
    uninstall = spans.install(tracer)
    try:
        assert papercheck.classify is halfiso.classify is cli.classify is loopcheck.classify
        assert halfiso.classify is not orig
        assert all(row[2].__wrapped__ for row in papercheck.CRITERIA)
    finally:
        uninstall()
    assert papercheck.classify is orig and loopcheck.classify is orig
    assert not hasattr(papercheck.CRITERIA[0][2], "__wrapped__")


def test_every_per_layer_metric_is_measured():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    measured = set(spans.layer_metrics(spans.Tracer())) | {"trace.overhead_s"}
    assert {m["name"] for m in spec["per_layer"]} <= measured
