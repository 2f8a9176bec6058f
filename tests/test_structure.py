import pytest
from hypothesis import given, strategies as st

from loopcheck.structure import (
    check_cor21,
    co1_violation,
    co2_violation,
    commutant,
    cor21_violations,
    satisfies_co1,
    satisfies_co2,
    subloop_generated,
    theorem31_violation,
)
from loopcheck.table import cyclic_group, is_commutative


def test_subloop_of_identity(star):
    assert subloop_generated(star, {star.identity}).members == {star.identity}


def test_subloop_of_generator(star, dot):
    assert subloop_generated(star, {1}).members == set(range(7))
    # closure over the printed non-associative table
    assert subloop_generated(dot, {1}).members == set(range(7))


def test_subloop_rejects_empty(star):
    with pytest.raises(ValueError):
        subloop_generated(star, set())
    with pytest.raises(ValueError):
        subloop_generated(star, {9})


@given(st.sets(st.integers(min_value=0, max_value=6), min_size=1),
       st.sets(st.integers(min_value=0, max_value=6), min_size=1))
def test_subloop_monotone_idempotent(dot, s, t):
    hs = subloop_generated(dot, s).members
    ht = subloop_generated(dot, s | t).members
    assert hs <= ht
    assert subloop_generated(dot, hs).members == hs


def test_subloop_in_s3(s3):
    sizes = sorted(len(subloop_generated(s3, {a}).members) for a in s3.elements)
    assert sizes == [1, 2, 2, 2, 3, 3]  # Lagrange-consistent singleton closures


def test_commutant(star, dot):
    assert commutant(star, set(star.elements)) == set(star.elements)
    assert commutant(dot, {dot.identity}) == set(dot.elements)
    # computed by pairwise scan of the printed table (1-based {1,2,4,5})
    assert commutant(dot, {1}) == {0, 1, 3, 4}
    with pytest.raises(ValueError):
        commutant(dot, set())


def test_commutant_is_subloop_on_automorphic(s3, catalog6):
    from loopcheck.structure import subloop_generated

    for entry in catalog6:
        if not entry.automorphic:
            continue
        L = entry.loop
        for a in L.elements:
            c = commutant(L, {a})
            assert subloop_generated(L, c).members == c


def test_co1_commutative_and_odd_groups(c5, c7):
    for L in (c5, c7, cyclic_group(9)):
        assert satisfies_co1(L)
        assert satisfies_co2(L)


def test_co1_fails_on_s3(s3):
    x, y, direction = co1_violation(s3)
    assert direction == "forward"  # x^2 = 1 for a transposition, yet xy != yx
    assert not satisfies_co1(s3)
    assert not satisfies_co2(s3)


def test_co1_co2_agree_on_automorphic(catalog6):
    for n in (1, 2, 3, 4, 5):
        from loopcheck.catalog import generate_loops

        for entry in generate_loops(n):
            if entry.automorphic:
                assert satisfies_co1(entry.loop) == satisfies_co2(entry.loop)
    for entry in catalog6:
        if entry.automorphic:
            assert satisfies_co1(entry.loop) == satisfies_co2(entry.loop)


def test_co1_co2_disagree_without_hypothesis(catalog5, catalog6):
    # The middle-translation reformulation relies on translation powers
    # commuting, which can fail off the automorphic class: exhaustive scan
    # of all 120 loops of order <= 6 finds exactly 7 disagreeing loops,
    # first at order 5.
    disagree = [
        e.name
        for e in (*catalog5, *catalog6)
        if satisfies_co1(e.loop) != satisfies_co2(e.loop)
    ]
    assert disagree == [
        "n5_004", "n6_029", "n6_036", "n6_038", "n6_067", "n6_069", "n6_070"
    ]
    from loopcheck.catalog import generate_loops

    assert all(not e.automorphic
               for n in (5, 6) for e in generate_loops(n) if e.name in disagree)


def test_co1_closed_under_direct_products(catalog6, c5):
    from loopcheck.perms import is_automorphic
    from loopcheck.table import direct_product

    co1_loops = [e.loop for e in catalog6 if e.automorphic and e.co1]
    assert co1_loops
    for L in co1_loops:
        prod = direct_product(L, c5)
        assert is_automorphic(prod)
        assert satisfies_co1(prod)
    both = direct_product(co1_loops[0], co1_loops[0])
    assert satisfies_co1(both)


def test_theorem31_on_groups(star, s3, c5):
    for L in (star, s3, c5):
        assert theorem31_violation(L) is None


def test_theorem31_fails_off_hypothesis(catalog5):
    # all five non-automorphic order-5 loops break the equivalence
    names = [e.name for e in catalog5
             if not e.automorphic and theorem31_violation(e.loop) is not None]
    assert names == ["n5_001", "n5_002", "n5_003", "n5_004", "n5_005"]


def test_cor21_on_groups(star, s3):
    assert check_cor21(star, trials=50)
    assert check_cor21(s3, trials=200)
    assert cor21_violations(s3, trials=50) == []


def test_cor21_singletons_power_associative(star):
    # every one-element subset of an automorphic loop generates an abelian
    # group, so the sampled checks cannot fail on the cyclic table
    assert not cor21_violations(star, trials=100, seed=3)


def test_cor21_on_nonassociative_automorphic(catalog6):
    nonassoc = [e for e in catalog6 if e.automorphic and not e.commutative]
    assert nonassoc, "expected a non-commutative automorphic loop of order 6"
    for e in nonassoc:
        assert check_cor21(e.loop, trials=200)


def test_t_squared_fixed_implies_commuting_pair(catalog6, c5, c7):
    # in an automorphic loop satisfying co1, T(x)^2 fixing y forces the
    # whole generated subloop of {x, y} to be commutative
    from loopcheck.perms import compose, invert

    loops = [c5, c7] + [e.loop for e in catalog6 if e.automorphic and e.co1]
    for L in loops:
        for x in L.elements:
            tx = compose(L.right_translation(x), invert(L.left_translation(x)))
            for y in L.elements:
                if tx[tx[y]] == y:
                    h = subloop_generated(L, {x, y}).members
                    assert all(L.mul(a, b) == L.mul(b, a) for a in h for b in h)


def test_twisted_conjugation_implies_commuting(catalog6, c7):
    # xyx^-1 = x^-1yx (either bracketing) forces <x,y> commutative on
    # automorphic loops satisfying co1
    loops = [c7] + [e.loop for e in catalog6 if e.automorphic and e.co1]
    for L in loops:
        for x in L.elements:
            xi = L.inverse(x)
            for y in L.elements:
                if L.mul(L.mul(x, y), xi) == L.mul(L.mul(xi, y), x):
                    h = subloop_generated(L, {x, y}).members
                    assert all(L.mul(a, b) == L.mul(b, a) for a in h for b in h)


def test_closure_checks_hold_on_small_catalog():
    from loopcheck.catalog import generate_loops
    from loopcheck.perms import inn_group

    for n in range(1, 6):
        for entry in generate_loops(n):
            L = entry.loop
            inn = inn_group(L)
            assert all(p[L.identity] == L.identity for p in inn.generators)
            assert not any(L.identity in orbit for orbit in inn.orbits)
            for a in L.elements:
                for b in L.elements:
                    assert L.identity in subloop_generated(L, {a, b}).members
