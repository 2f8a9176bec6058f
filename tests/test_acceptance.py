"""Acceptance suite: one test per criterion, exact tolerances, one printed
pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; the same checks back the ``loopcheck papercheck`` subcommand.
"""
import pytest

from loopcheck.papercheck import CRITERIA, build_context, run_criterion


@pytest.fixture(scope="module")
def ctx():
    return build_context(max_order=6, seed=0)


def _run(number, ctx):
    result = run_criterion(number, ctx)
    status = "PASS" if result.passed else "FAIL"
    print(f"criterion {result.number:2d} [{status}] ({result.seconds:.2f}s) "
          f"{result.title}")
    for record in result.report.findings:
        print(f"    {record.to_text()}")
    assert result.passed, (
        f"criterion {result.number} failed with "
        f"{len(result.report.findings)} findings"
    )
    return result


def test_criterion_01_example_pair_reproduction(ctx):
    _run(1, ctx)


def test_criterion_02_squared_commuting_equivalence(ctx):
    result = _run(2, ctx)
    checked = result.report.records[-1].data["loops_checked"]
    assert checked == 9  # automorphic classes of orders 1..6


def test_criterion_03_u2d_odd_order_co1(ctx):
    result = _run(3, ctx)
    assert result.report.records[-1].data["loops_checked"] == 9


def test_criterion_04_identity_corpus(ctx):
    result = _run(4, ctx)
    data = result.report.records[-1].data
    assert data["statements"] == 97  # the corpus minus the co1/cor32 quartet
    assert data["loops_checked"] == 9


def test_criterion_05_odd_order_triviality_audit(ctx):
    result = _run(5, ctx)
    assert result.report.records[-1].data["pairs"] == 16


def test_criterion_06_speciality_criteria_agreement(ctx):
    result = _run(6, ctx)
    assert result.report.records[-1].data["maps"] > 100


def test_criterion_07_power_compatibility(ctx):
    result = _run(7, ctx)
    assert result.report.records[-1].data["maps"] > 100


def test_criterion_08_enumeration_oracle_equality(ctx):
    result = _run(8, ctx)
    assert result.report.records[-1].data["pairs"] == 71


def test_criterion_09_generator_oracle_and_canonical_sanity(ctx):
    result = _run(9, ctx)
    # frozen class counts per order, cross-checked against the orbit oracle
    assert [len(ctx.generated[n]) for n in range(1, 6)] == [1, 1, 1, 2, 6]
    assert len(ctx.generated[6]) == 109


def test_criterion_10_speciality_conjecture_scan(ctx):
    result = _run(10, ctx)
    summary = result.report.records[-1]
    assert summary.data["nonspecial"] == 0
    assert summary.data["half_isomorphisms"] >= 66


def test_all_criteria_registered():
    assert [number for number, _, _ in CRITERIA] == list(range(1, 11))
