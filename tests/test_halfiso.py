import random
import warnings
from itertools import permutations

import pytest

from loopcheck.halfiso import (
    GG_CAP,
    Classification,
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
    lemma41_violations,
    make_half_iso,
    naive_half_isos,
    power_map_violation,
    scan_conjecture51,
    semi_homomorphism_violation,
    special_symmetry_violation,
    speciality_criteria,
)
from loopcheck.catalog import builtin_loops, generate_loops
from loopcheck.perms import invert, is_automorphic, isomorphisms
from loopcheck.table import (
    LoopError,
    LoopTable,
    cyclic_group,
    direct_product,
    is_commutative,
    is_flexible,
    is_power_associative,
    make_loop,
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
    for Q in (c5, c7, s3):
        for f in all_half_isos(Q, Q):
            if classify(f).is_special:
                assert special_symmetry_violation(f) is None
    for f in naive_half_isos(dot, dot):
        if classify(f).is_special:
            assert special_symmetry_violation(f) is None


def test_lemma41_empty_under_hypotheses(c5, c7):
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
        for L1 in generate_loops(n):
            for L2 in generate_loops(n):
                naive = [f.mapping for f in naive_half_isos(L1, L2)]
                pruned = [f.mapping for f in all_half_isos(L1, L2)]
                assert naive == pruned, (e1.name, e2.name)


def test_engine_matches_oracle_where_rows_mix_both_orders(catalog6):
    # Non-commutative loops that are not power-associative: no element
    # orders prune the search, and a half-isomorphism can send the products
    # of one row to both f(x)f(y) and f(y)f(x).
    loops = [
        L for L in catalog6
        if not is_commutative(L) and not is_power_associative(L)
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


# ---------------------------------------------------------------------------
# Scalar oracles: the definitions the survey-based checks replaced, one pair
# at a time.

def _scalar_half_iso_violation(Q: LoopTable, R: LoopTable, mapping) -> tuple[int, int] | None:
    """Least pair (a, b) with f(a*b) outside {f(a)f(b), f(b)f(a)}, or None."""
    m = tuple(mapping)
    if Q.order != R.order:
        raise ValueError("half-isomorphisms need equal orders")
    if sorted(m) != list(range(Q.order)):
        raise ValueError("mapping is not a bijection")
    tq, tr = Q.table, R.table
    for a in Q.elements:
        ma = m[a]
        for b in Q.elements:
            mb = m[b]
            v = m[tq[a][b]]
            if v != tr[ma][mb] and v != tr[mb][ma]:
                return (a, b)
    return None


def _scalar_classify(f: HalfIso) -> Classification:
    """Branch survey of a half-isomorphism.

    A pair takes the first branch when f(a*b) = f(a)f(b) and the second when
    f(a*b) = f(b)f(a); both at once iff the images commute.  The map is an
    isomorphism when every pair takes the first branch, an anti-isomorphism
    when every pair takes the second, and both flags may hold together (the
    two branches coincide on commuting images).  Speciality is decided by
    the commuting-pairs criterion; `speciality_criteria` exposes the other
    two equivalent formulations for cross-validation.  GG-triples are
    collected in lexicographic order, at most `GG_CAP` of them.
    """
    Q, R, m = f.source, f.target, f.mapping
    tq, tr = Q.table, R.table
    n = Q.order
    iso = anti = True
    special_w = None
    for a in range(n):
        ma = m[a]
        for b in range(n):
            mb = m[b]
            v = m[tq[a][b]]
            iso = iso and v == tr[ma][mb]
            anti = anti and v == tr[mb][ma]
            if special_w is None and tq[a][b] == tq[b][a] and tr[ma][mb] != tr[mb][ma]:
                special_w = (a, b)
    gg: list[tuple[int, int, int]] = []
    for x in range(n):
        mx = m[x]
        ys, zs = [], []
        for y in range(n):
            my = m[y]
            fw, sw = tr[mx][my], tr[my][mx]
            if fw == sw:
                continue
            v = m[tq[x][y]]
            if v == fw:
                ys.append(y)
            elif v == sw:
                zs.append(y)
        gg.extend((x, y, z) for y in ys for z in zs)
        if len(gg) >= GG_CAP:
            break
    return Classification(
        is_isomorphism=iso,
        is_anti_isomorphism=anti,
        is_special=special_w is None,
        gg_triples=tuple(gg[:GG_CAP]),
        trivial=iso or anti,
        special_witness=special_w,
    )


def _scalar_speciality_criteria(f: HalfIso) -> tuple[bool, bool, bool]:
    """The three equivalent speciality tests, evaluated independently:
    (a) the inverse mapping is a half-isomorphism,
    (b) {f(x*y), f(y*x)} = {f(x)f(y), f(y)f(x)} for all pairs,
    (c) commuting pairs have commuting images.
    """
    Q, R, m = f.source, f.target, f.mapping
    inv = invert(m)
    a_ok = _scalar_half_iso_violation(R, Q, inv) is None
    tq, tr = Q.table, R.table
    b_ok = c_ok = True
    for x in Q.elements:
        mx = m[x]
        for y in Q.elements:
            my = m[y]
            if b_ok and {m[tq[x][y]], m[tq[y][x]]} != {tr[mx][my], tr[my][mx]}:
                b_ok = False
            if c_ok and tq[x][y] == tq[y][x] and tr[mx][my] != tr[my][mx]:
                c_ok = False
    return (a_ok, b_ok, c_ok)


def _scalar_special_symmetry_violation(f: HalfIso) -> tuple[int, int, str] | None:
    """Branch symmetry under argument swap, valid for special maps:
    if f(x*y) = f(x)f(y) then f(y*x) = f(y)f(x), and if f(x*y) = f(y)f(x)
    then f(y*x) = f(x)f(y)."""
    Q, R, m = f.source, f.target, f.mapping
    tq, tr = Q.table, R.table
    for x in Q.elements:
        mx = m[x]
        for y in Q.elements:
            my = m[y]
            fw, sw = tr[mx][my], tr[my][mx]
            v, w = m[tq[x][y]], m[tq[y][x]]
            if v == fw and w != sw:
                return (x, y, "first-branch")
            if v == sw and w != fw:
                return (x, y, "second-branch")
    return None


def _scalar_lemma41_violations(f: HalfIso) -> list[tuple[int, int]]:
    """Pairs x, y with f(x*y) = f(x)f(y) and f(y*x^-1) = f(x^-1)f(y) whose
    images nevertheless fail to commute.

    Such pairs cannot exist when source and target are automorphic and the
    target satisfies the commuting condition; sound only under those audit
    hypotheses.
    """
    Q, R, m = f.source, f.target, f.mapping
    tq, tr = Q.table, R.table
    out = []
    for x in Q.elements:
        mx = m[x]
        xi = Q.inverse(x)
        mxi = m[xi]
        for y in Q.elements:
            my = m[y]
            if (
                m[tq[x][y]] == tr[mx][my]
                and m[tq[y][xi]] == tr[mxi][my]
                and tr[mx][my] != tr[my][mx]
            ):
                out.append((x, y))
    return out


def _scalar_semi_homomorphism_violation(f: HalfIso) -> tuple[int, int] | None:
    """Least (x, y) with f((x*y)*x) != (f(x)f(y))f(x).

    Requires flexible source and target so that both sides are unambiguous;
    raises `NotFlexible` otherwise.
    """
    for L in (f.source, f.target):
        if not is_flexible(L):
            raise NotFlexible(f"{L!r} is not flexible")
    Q, R, m = f.source, f.target, f.mapping
    tq, tr = Q.table, R.table
    for x in Q.elements:
        mx = m[x]
        for y in Q.elements:
            if m[tq[tq[x][y]][x]] != tr[tr[mx][m[y]]][mx]:
                return (x, y)
    return None


def _scalar_conjugation_transport_violations(f: HalfIso) -> list[tuple[int, int, str]]:
    """Case-split transport of conjugation through a half-isomorphism.

    For commuting x, y the image of y conjugated by x must equal the image
    conjugated either way; for strictly isomorphism-like pairs conjugation
    transports directly, for strictly anti-isomorphism-like pairs it
    transports through the inverse.  Sound under the audit hypotheses
    (automorphic loops, target satisfying the commuting condition).
    """
    Q, R, m = f.source, f.target, f.mapping
    tq, tr = Q.table, R.table
    out = []
    phi_q = [conjugation_map(Q, x) for x in Q.elements]
    phi_r = [conjugation_map(R, v) for v in R.elements]
    inv_q = [Q.inverse(x) for x in Q.elements]
    inv_r = [R.inverse(v) for v in R.elements]
    for x in Q.elements:
        mx = m[x]
        for y in Q.elements:
            my = m[y]
            fyx = m[phi_q[x][y]]          # f(y^x)
            fyxi = m[phi_q[inv_q[x]][y]]  # f(y^(x^-1))
            direct = phi_r[mx][my]        # f(y)^f(x)
            through_inv = phi_r[inv_r[mx]][my]
            if tq[x][y] == tq[y][x]:
                if not (fyx == direct == through_inv):
                    out.append((x, y, "commuting"))
            elif m[tq[x][y]] == tr[mx][my]:
                if fyx != direct or fyxi != through_inv:
                    out.append((x, y, "first-branch"))
            elif m[tq[x][y]] == tr[my][mx]:
                if fyx != through_inv or fyxi != direct:
                    out.append((x, y, "second-branch"))
    return out


def _scalar_ab_partition_violation(f: HalfIso) -> tuple[int, int] | None:
    """Re-verify the union argument behind non-triviality obstructions.

    A is the set of elements pairing isomorphism-like with everything, B the
    anti-isomorphism-like set.  When A and B cover the whole loop (no
    GG-triple exists), one of them must already be the whole loop; returns
    (|A|, |B|) when that fails.
    """
    Q, R, m = f.source, f.target, f.mapping
    tq, tr = Q.table, R.table
    n = Q.order
    a_set = [
        x
        for x in range(n)
        if all(m[tq[x][u]] == tr[m[x]][m[u]] for u in range(n))
    ]
    b_set = [
        x
        for x in range(n)
        if all(m[tq[x][u]] == tr[m[u]][m[x]] for u in range(n))
    ]
    if len(set(a_set) | set(b_set)) == n and len(a_set) != n and len(b_set) != n:
        return (len(a_set), len(b_set))
    return None


def dihedral_like(m, alpha):
    """Dih(m, alpha) on Z_2 x Z_m, (i, u) numbered i*m + u:
    (i, u)(j, v) = (i + j, ((-1)^j u + v) alpha^(ij))."""
    def mul(a, b):
        (i, u), (j, v) = divmod(a, m), divmod(b, m)
        return (i + j) % 2 * m + ((-1) ** j * u + v) * alpha ** (i * j) % m

    n = 2 * m
    return make_loop([[mul(a, b) for b in range(n)] for a in range(n)], name=f"Dih({m},{alpha})")


def relabeled_by(L, sigma):
    """L with each element x renamed sigma[x], so that sigma is an
    isomorphism onto it."""
    t = [[0] * L.order for _ in L.elements]
    for a, row in enumerate(L.table):
        for b, c in enumerate(row):
            t[sigma[a]][sigma[b]] = sigma[c]
    return make_loop(t, name=f"{L.name}'")


def test_half_iso_violation_rejects_bad_input(star, c5):
    for Q, R, mapping in ((star, c5, range(5)), (star, star, [0] * 7)):
        for check in (half_iso_violation, _scalar_half_iso_violation):
            with pytest.raises(ValueError):
                check(Q, R, mapping)


def test_dihedral_like_maps_are_nontrivial():
    maps = all_half_isos(dihedral_like(5, 2), dihedral_like(5, 3))
    assert len(maps) == 40
    assert not any(classify(f).trivial for f in maps)
    assert all(classify(f).is_special for f in maps)


class Raised(tuple):
    """The type name and message of a `LoopError` a check raised."""


def _outcome(check, f):
    try:
        return check(f)
    except LoopError as err:
        return Raised((type(err).__name__, str(err)))


def _kind(outcome):
    if isinstance(outcome, Raised):
        return "raises"
    if isinstance(outcome, Classification):
        return "trivial" if outcome.trivial else "non-trivial"
    return "witness" if outcome and outcome != (True, True, True) else "none"


SURVEY_CHECKS = {
    "half_iso_violation": (
        lambda f: half_iso_violation(f.source, f.target, f.mapping),
        lambda f: _scalar_half_iso_violation(f.source, f.target, f.mapping),
        {"none", "witness"},
    ),
    "classify": (classify, _scalar_classify, {"trivial", "non-trivial"}),
    "speciality_criteria": (speciality_criteria, _scalar_speciality_criteria, {"none", "witness"}),
    "special_symmetry_violation": (
        special_symmetry_violation, _scalar_special_symmetry_violation, {"none", "witness"}),
    "lemma41_violations": (
        lemma41_violations, _scalar_lemma41_violations, {"none", "witness", "raises"}),
    "power_map_violation": (
        power_map_violation, _scalar_power_map_violation, {"none", "witness", "raises"}),
    "semi_homomorphism_violation": (
        semi_homomorphism_violation, _scalar_semi_homomorphism_violation,
        {"none", "witness", "raises"}),
    "conjugation_transport_violations": (
        conjugation_transport_violations, _scalar_conjugation_transport_violations,
        {"none", "witness", "raises"}),
    "ab_partition_violation": (
        ab_partition_violation, _scalar_ab_partition_violation, {"none", "witness"}),
}


@pytest.fixture(scope="module")
def survey_maps(star, dot, catalog6, witness_loops):
    """Maps for the survey oracles: every bijection at order <= 4, every
    half-isomorphism between catalog loops of order <= 5, the example pair,
    the order-6 pairs whose rows mix both branches, dihedral-like pairs, and
    on each witness loop a seeded bijection, that bijection as an isomorphism
    onto the relabeled loop, and the identity onto the opposite loop."""
    loops = [L for n in range(1, 6) for L in generate_loops(n)]
    maps = [
        HalfIso(Q, R, p)
        for Q in loops
        for R in loops
        if Q.order == R.order <= 4
        for p in permutations(Q.elements)
    ]
    maps += [f for Q in loops for R in loops if Q.order == R.order for f in all_half_isos(Q, R)]
    maps += [f for Q in (star, dot) for R in (star, dot) for f in all_half_isos(Q, R)]
    mixing = [
        L for L in catalog6
        if not is_commutative(L) and not is_power_associative(L)
    ]
    maps += [f for Q in mixing for R in mixing for f in all_half_isos(Q, R)]
    for m, alpha, beta in ((3, 2, 2), (5, 2, 3), (8, 3, 5)):
        maps += all_half_isos(dihedral_like(m, alpha), dihedral_like(m, beta))
    rng = random.Random(2201)
    for L in witness_loops:
        sigma = list(L.elements)
        rng.shuffle(sigma)
        maps += [
            HalfIso(L, L, tuple(sigma)),
            HalfIso(L, relabeled_by(L, sigma), tuple(sigma)),
            HalfIso(L, opposite(L), tuple(L.elements)),
        ]
    return maps


@pytest.mark.parametrize("name", SURVEY_CHECKS)
def test_survey_checks_match_scalar_oracles(name, survey_maps):
    check, oracle, kinds = SURVEY_CHECKS[name]
    seen = set()
    for f in survey_maps:
        want = _outcome(oracle, f)
        assert _outcome(check, f) == want, (name, f)
        seen.add(_kind(want))
    assert seen == kinds


def test_survey_corpus_reaches_every_branch_case(survey_maps, star, dot):
    example = [f for Q in (star, dot) for R in (star, dot) for f in all_half_isos(Q, R)]
    raised = [
        (f.source.name, f.target.name)
        for f in example
        if isinstance(_outcome(_scalar_power_map_violation, f), Raised)
    ]
    assert raised.count(("example21_star", "example21_dot")) == 6
    assert raised.count(("example21_dot", "example21_dot")) == 1
    classes = [_scalar_classify(f) for f in survey_maps]
    assert any(c.gg_triples for c in classes)
    assert any(not c.is_special for c in classes)
    assert any(c.is_isomorphism and not c.is_anti_isomorphism for c in classes)
    assert any(c.is_anti_isomorphism and not c.is_isomorphism for c in classes)
    assert any(len(c.gg_triples) == GG_CAP for c in classes)


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


@pytest.mark.parametrize("p, k, gl_order", [(2, 4, 20160), (3, 3, 11232)])
def test_audit_counts_gl_on_elementary_abelian_groups(p, k, gl_order):
    # Between abelian groups every half-isomorphism is an automorphism, so
    # Z_p^k -> Z_p^k has |GL(k, p)| of them, all trivial and special.
    L = cyclic_group(p)
    for _ in range(k - 1):
        L = direct_product(L, cyclic_group(p))
    rng = random.Random(2202)
    Q, R = (relabeled_by(L, rng.sample(range(L.order), L.order)) for _ in range(2))
    report = audit_theorem41(Q, R, enumerate_half_isos(Q, R))
    assert [r.kind for r in report.records] == ["audit-summary"]
    assert report.records[0].data == {"half_isomorphisms": gl_order, "findings": 0}


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
    loops = [L for n in range(1, 6) for L in generate_loops(n)] + catalog6
    automorphic = [L for L in loops + list(builtin_loops()) if is_automorphic(L)]
    assert len(automorphic) == 26
    for L in automorphic:
        assert is_power_associative(L)
        assert all(L.has_two_sided_inverse(a) for a in L.elements)


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
