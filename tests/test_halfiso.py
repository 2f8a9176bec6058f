import warnings
from itertools import permutations

import pytest

from loopcheck.halfiso import (
    HalfIso,
    NotFlexible,
    NotHalfIsomorphism,
    ab_partition_violation,
    audit_theorem41,
    classify,
    conjugation_map,
    conjugation_transport_violations,
    enumerate_half_isos,
    half_iso_violation,
    identity_half_iso,
    is_half_isomorphism,
    is_semi_homomorphism,
    make_half_iso,
    naive_half_isos,
    power_map_violation,
    scan_conjecture51,
    speciality_criteria,
)
from loopcheck.catalog import builtin_loops, generate_loops
from loopcheck.perms import invert, isomorphisms
from loopcheck.table import (
    NoTwoSidedInverse,
    cyclic_group,
    is_commutative,
    is_power_associative,
    opposite,
)


def all_half_isos(Q, R):
    return list(enumerate_half_isos(Q, R))


def test_identity_map_is_half_iso(star, dot):
    assert is_half_isomorphism(star, dot, range(7))
    assert is_half_isomorphism(dot, dot, range(7))


def test_inverse_of_example_map_fails(star, dot):
    # 1-based: f^-1(2.3) = 7 lands outside {2*3, 3*2} = {4}
    assert half_iso_violation(dot, star, range(7)) == (1, 2)
    assert dot.mul(1, 2) == 6
    assert star.mul(1, 2) == 3 and star.mul(2, 1) == 3
    with pytest.raises(NotHalfIsomorphism):
        make_half_iso(dot, star, range(7))


def test_example_classification(star, dot):
    cls = classify(identity_half_iso(star, dot))
    assert not cls.is_isomorphism and not cls.is_anti_isomorphism
    assert not cls.trivial and not cls.is_special
    assert cls.gg_triples[0] == (2, 1, 5)  # 1-based (3,2,6)
    assert (2, 1, 5) in cls.gg_triples
    # nontriviality witnesses straight off the printed tables
    assert star.mul(2, 1) == 3 and dot.mul(2, 1) == 3 and dot.mul(1, 2) == 6
    assert star.mul(2, 5) == 0 and dot.mul(5, 2) == 0 and dot.mul(2, 5) == 1


def test_classification_of_identity_on_commutative(c5):
    cls = classify(identity_half_iso(c5, c5))
    assert cls.is_isomorphism and cls.is_anti_isomorphism
    assert cls.trivial and cls.is_special
    assert cls.gg_triples == ()


def test_classification_of_automorphism(c7):
    cubing = tuple((3 * i) % 7 for i in range(7))
    cls = classify(make_half_iso(c7, c7, cubing))
    assert cls.is_isomorphism and cls.trivial and cls.is_special
    assert cls.gg_triples == ()


def test_classification_invariants(star, dot, c5):
    for f in (
        *all_half_isos(star, dot),
        *all_half_isos(c5, c5),
        *naive_half_isos(dot, dot),
    ):
        cls = classify(f)
        assert cls.trivial == (cls.is_isomorphism or cls.is_anti_isomorphism)
        if cls.trivial:
            assert cls.is_special
        if cls.gg_triples:
            assert not cls.trivial


def test_speciality_criteria_agree(star, dot, c5, s3):
    pairs = [(star, dot), (c5, c5), (s3, s3)]
    for Q, R in pairs:
        for f in naive_half_isos(Q, R):
            a, b, c = speciality_criteria(f)
            assert a == b == c


def test_special_maps_have_branch_symmetry(c5, c7, s3, dot):
    # swapping the arguments of a special map swaps the branch taken
    from loopcheck.halfiso import special_symmetry_violation

    for Q in (c5, c7, s3):
        for f in all_half_isos(Q, Q):
            if classify(f).is_special:
                assert special_symmetry_violation(f) is None
    for f in naive_half_isos(dot, dot):
        if classify(f).is_special:
            assert special_symmetry_violation(f) is None


def test_lemma41_empty_under_hypotheses(c5, c7):
    from loopcheck.halfiso import lemma41_violations

    for Q in (c5, c7):
        for f in all_half_isos(Q, Q):
            assert lemma41_violations(f) == []


def test_enumerate_counts(star, dot, c7):
    assert len(all_half_isos(c7, c7)) == 6  # the six automorphisms
    maps = all_half_isos(star, dot)
    assert len(maps) == 6  # frozen; confirmed against the bijection filter
    assert tuple(range(7)) in [f.mapping for f in maps]
    assert [f.mapping for f in maps] == sorted(f.mapping for f in maps)


def test_enumerate_includes_automorphisms(c7):
    autos = set(isomorphisms(c7, c7))
    found = {f.mapping for f in all_half_isos(c7, c7)}
    assert autos <= found


def test_enumerate_s3_has_isos_and_antis(s3):
    maps = all_half_isos(s3, s3)
    # six automorphisms and six anti-automorphisms, no overlap (s3 is
    # non-commutative), nothing else: between groups all maps are trivial
    assert len(maps) == 12
    classes = [classify(f) for f in maps]
    assert sum(c.is_isomorphism for c in classes) == 6
    assert sum(c.is_anti_isomorphism for c in classes) == 6
    assert all(c.trivial and c.is_special for c in classes)


def test_pruned_needs_no_power_associativity(star, dot):
    # dot is not power-associative, so only the pruning sound in every loop runs
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pruned = [f.mapping for f in all_half_isos(star, dot)]
    assert pruned == [f.mapping for f in naive_half_isos(star, dot)]
    assert len(pruned) == 6


def test_enumerate_rejects_bad_input(star, c5):
    with pytest.raises(ValueError):
        list(enumerate_half_isos(star, c5))
    with pytest.raises(ValueError):
        list(naive_half_isos(star, c5))


def test_naive_equals_pruned_small():
    for n in (3, 4, 5):
        for e1 in generate_loops(n):
            for e2 in generate_loops(n):
                naive = [f.mapping for f in naive_half_isos(e1.loop, e2.loop)]
                pruned = [f.mapping for f in all_half_isos(e1.loop, e2.loop)]
                assert naive == pruned, (e1.name, e2.name)


def test_engine_matches_oracle_where_rows_mix_both_orders(catalog6):
    # Non-commutative loops that are not power-associative: no element
    # orders prune the search, and a half-isomorphism can send the products
    # of one row to both f(x)f(y) and f(y)f(x).
    loops = [
        e.loop for e in catalog6
        if not is_commutative(e.loop) and not is_power_associative(e.loop)
    ]
    mixed = 0
    for Q in loops:
        for R in loops:
            want = list(naive_half_isos(Q, R))
            assert [f.mapping for f in all_half_isos(Q, R)] == [f.mapping for f in want], (
                Q.name, R.name)
            kinds = [classify(f) for f in want]
            mixed += sum(1 for k in kinds if not (k.is_isomorphism or k.is_anti_isomorphism))
    assert mixed


def test_power_map_on_power_associative(c7, s3):
    for Q in (c7, s3):
        for f in all_half_isos(Q, Q):
            assert power_map_violation(f) is None


def _scalar_power_map_violation(f):
    """The definition, one power at a time: the oracle for the table reads."""
    Q, R, m = f.source, f.target, f.mapping
    for x in Q.elements:
        for k in range(-Q.order, Q.order + 1):
            if m[Q.power(x, k)] != R.power(m[x], k):
                return (x, k)
    return None


def _power_map_outcome(violation, f):
    try:
        return violation(f)
    except NoTwoSidedInverse as err:
        return (type(err).__name__, err.element, err.left, err.right)


def test_power_map_violation_matches_scalar_definition(star, dot):
    loops = [e.loop for n in range(1, 6) for e in generate_loops(n)]
    maps = [
        f
        for Q in loops
        for R in loops
        if Q.order == R.order
        for f in all_half_isos(Q, R)
    ]
    maps += [f for Q in (star, dot) for R in (star, dot) for f in all_half_isos(Q, R)]
    # bijections that are not half-isomorphisms give violation witnesses
    maps += [
        HalfIso(Q, R, p)
        for Q in loops
        for R in loops
        if Q.order == R.order <= 4
        for p in permutations(Q.elements)
    ]
    raised = {}
    kinds = set()
    for f in maps:
        want = _power_map_outcome(_scalar_power_map_violation, f)
        assert _power_map_outcome(power_map_violation, f) == want, f
        if want is None:
            kinds.add("none")
        elif isinstance(want[0], str):
            kinds.add("raises")
            key = (f.source.name, f.target.name)
            raised[key] = raised.get(key, 0) + 1
        else:
            kinds.add("witness")
    assert kinds == {"none", "raises", "witness"}
    assert raised[("example21_star", "example21_dot")] == 6
    assert raised[("example21_dot", "example21_dot")] == 1


def test_semi_homomorphism_iso_and_anti(s3, c7):
    for f in all_half_isos(s3, s3):
        assert is_semi_homomorphism(f)
    inversion = tuple(s3.inverse(a) for a in s3.elements)
    f = make_half_iso(s3, s3, inversion)
    assert classify(f).is_anti_isomorphism
    assert is_semi_homomorphism(f)


def test_semi_homomorphism_requires_flexible(star, dot):
    f = identity_half_iso(star, dot)
    with pytest.raises(NotFlexible):
        is_semi_homomorphism(f)


def test_conjugation_map_on_groups(c7, s3):
    for x in c7.elements:
        assert conjugation_map(c7, x) == tuple(c7.elements)  # abelian
    for x in s3.elements:
        phi = conjugation_map(s3, x)
        xi = s3.inverse(x)
        for u in s3.elements:
            assert phi[u] == s3.mul(s3.mul(xi, u), x)


def test_conjugation_transport_on_audit_pairs(c5, c7):
    for Q in (c5, c7):
        for f in all_half_isos(Q, Q):
            assert conjugation_transport_violations(f) == []


def test_ab_partition(c7, star, dot):
    for f in all_half_isos(c7, c7):
        assert ab_partition_violation(f) is None
    # the example map has GG-triples, so A and B do not cover the loop
    f = identity_half_iso(star, dot)
    assert ab_partition_violation(f) is None


def test_audit_c7_pair(c7, star):
    report = audit_theorem41(c7, star, enumerate_half_isos(c7, star))
    assert not report.has_findings
    summary = [r for r in report.records if r.kind == "audit-summary"]
    assert summary and summary[0].data["half_isomorphisms"] == 6


def test_audit_reports_unmet_hypotheses(c7, dot, s3):
    report = audit_theorem41(c7, dot, enumerate_half_isos(c7, dot))
    notices = [r for r in report.records if r.kind == "hypotheses-not-met"]
    assert len(notices) == 1
    # the non-associative twin is not automorphic (it is not even
    # power-associative), which is what lets the one-way map exist
    assert notices[0].data["unmet"] == ["target-not-automorphic", "target-fails-co1"]
    report = audit_theorem41(c7, s3, enumerate_half_isos(c7, s3))
    notices = [r for r in report.records if r.kind == "hypotheses-not-met"]
    assert notices and notices[0].data["unmet"] == ["target-fails-co1"]


def test_audit_odd_order_automorphic(c5):
    report = audit_theorem41(c5, c5, enumerate_half_isos(c5, c5))
    assert not report.has_findings


def test_automorphic_loops_are_power_associative(catalog6):
    # the audit runs its power and conjugation checks unguarded: both need
    # power-associative loops, where every element has a two-sided inverse
    entries = [e for n in range(1, 6) for e in generate_loops(n)] + catalog6
    automorphic = [e for e in entries + list(builtin_loops()) if e.automorphic]
    assert len(automorphic) == 26
    for e in automorphic:
        assert e.power_associative
        assert all(e.loop.has_two_sided_inverse(a) for a in e.loop.elements)


def test_scan_groups_only(c5, c7):
    report = scan_conjecture51(
        [("c5", c5), ("c5b", cyclic_group(5)), ("c7", c7)], enumerate_half_isos
    )
    assert not report.has_findings
    summary = report.records[-1]
    assert summary.kind == "conjecture-scan-summary"
    assert summary.data["pairs"] == 5  # two order-5 entries, one order-7


def test_scan_empty_catalog():
    report = scan_conjecture51([], enumerate_half_isos)
    assert not report.has_findings
    assert report.records[-1].data["pairs"] == 0


def test_opposite_receives_anti_isomorphism(s3):
    op = opposite(s3)
    f = make_half_iso(s3, op, range(s3.order))
    cls = classify(f)
    assert cls.is_anti_isomorphism and not cls.is_isomorphism and cls.trivial
