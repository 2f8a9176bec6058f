import inspect
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import loopcheck
from loopcheck.perms import (
    apply,
    automorphic_violation,
    automorphism_group,
    automorphism_violation,
    compose,
    identity_perm,
    inn_group,
    inner_generators,
    invert,
    is_automorphic,
    is_automorphism,
    isomorphisms,
    mlt_group,
    schreier_sims,
)
from loopcheck.catalog import builtin_loop, builtin_loops, generate_loops, write_loop_file
from loopcheck.halfiso import classify, enumerate_half_isos, naive_half_isos
from loopcheck.table import (
    associativity_violation,
    cyclic_group,
    make_loop,
    multiplication_closure,
)

perms7 = st.permutations(range(7))


def relabeled(L, seed):
    """L with its elements renamed by a seeded random permutation."""
    sigma = list(L.elements)
    random.Random(seed).shuffle(sigma)
    inv = invert(tuple(sigma))
    n = L.order
    return make_loop(
        [[sigma[L.table[inv[i]][inv[j]]] for j in range(n)] for i in range(n)],
        name=L.name,
    )


def small_loops(max_order):
    return [e.loop for n in range(1, max_order + 1) for e in generate_loops(n)]


@given(perms7, perms7, st.integers(min_value=0, max_value=6))
def test_compose_is_postfix(p, q, x):
    p, q = tuple(p), tuple(q)
    assert apply(compose(p, q), x) == apply(q, apply(p, x))


@given(perms7)
def test_invert(p):
    p = tuple(p)
    assert compose(p, invert(p)) == identity_perm(7)
    assert compose(invert(p), p) == identity_perm(7)
    assert invert(invert(p)) == p


def test_degree_mismatch():
    with pytest.raises(ValueError):
        compose((0, 1), (0, 1, 2))


def test_translation_composition(star):
    # shifting twice by one is shifting by two in the cyclic table
    r2 = star.right_translation(1)
    assert compose(r2, r2) == star.right_translation(2)


def test_inner_generators_fix_identity(star, dot):
    for L in (star, dot):
        e = L.identity
        gens = list(inner_generators(L))
        assert len(gens) == 2 * L.order**2 + L.order
        assert all(p[e] == e for _, p in gens)


def test_inner_generators_trivial_for_groups(star):
    # every R(x,y) and L(x,y) collapses in an associative loop; T is trivial
    # in a commutative one
    assert all(p == identity_perm(7) for _, p in inner_generators(star))


def reference_inner_generators(L):
    """R(x,y), L(x,y) and T(x) from their definitions, by division."""
    t, E = L.table, L.elements
    out = [
        (f"R({x + 1},{y + 1})", tuple(L.rdiv(t[x][y], t[t[z][x]][y]) for z in E))
        for x in E for y in E
    ]
    out += [
        (f"L({x + 1},{y + 1})", tuple(L.ldiv(t[y][x], t[y][t[x][z]]) for z in E))
        for x in E for y in E
    ]
    out += [(f"T({x + 1})", tuple(L.ldiv(x, t[z][x]) for z in E)) for x in E]
    return out


def test_inner_generators_match_definitions(oracle_loops):
    assert any(not is_automorphic(L) for L in oracle_loops)
    for L in oracle_loops:
        assert list(inner_generators(L)) == reference_inner_generators(L), L.name


def reference_closure(gens, degree):
    """Every product of generators, by a depth-first search."""
    seen = {identity_perm(degree)}
    todo = list(seen)
    while todo:
        p = todo.pop()
        for g in gens:
            q = tuple(map(g.__getitem__, p))
            if q not in seen:
                seen.add(q)
                todo.append(q)
    return seen


def random_perm(rng, degree):
    p = list(range(degree))
    rng.shuffle(p)
    return tuple(p)


def test_schreier_sims_matches_reference(dot):
    rng = random.Random(11)
    cases = [((), 1), (((0,),), 1), ((), 2), (((0, 1),), 2), (((1, 0),), 2)]
    for degree in (4, 5, 6, 7, 7):
        for size in (1, 2, 2, 3):
            cases.append((tuple(random_perm(rng, degree) for _ in range(size)), degree))
    cases.append((tuple(p for _, p in inner_generators(dot)), 7))
    for gens, degree in cases:
        chain = schreier_sims(gens, degree)
        want = reference_closure(gens, degree)
        assert chain.degree == degree
        assert chain.order == len(want), gens
        assert reference_closure(chain.generators, degree) == want, gens


@given(st.integers(min_value=1, max_value=7).flatmap(
    lambda d: st.tuples(st.just(d), st.lists(st.permutations(range(d)), max_size=3))))
def test_schreier_sims_order_is_closure_size(case):
    degree, gens = case
    gens = [tuple(p) for p in gens]
    assert schreier_sims(gens, degree).order == len(reference_closure(gens, degree))


def test_chains_match_reference_closure(oracle_loops):
    # |Mlt|, |Inn| and Inn's strong generators against closures of the
    # translations and of the labelled inner generators
    orders = set()
    for L in oracle_loops:
        n = L.order
        if n > 7:
            continue
        translations = [*map(L.left_translation, L.elements),
                        *map(L.right_translation, L.elements)]
        inner_gens = [p for _, p in inner_generators(L)]
        inner = reference_closure(set(inner_gens), n)
        mlt, inn = mlt_group(L), inn_group(L)
        assert schreier_sims(inner_gens, n).order == len(inner), L.name
        assert mlt.order == len(reference_closure(translations, n)), L.name
        assert inn.order == len(inner) == mlt.order // n, L.name
        assert reference_closure(inn.generators, n) == inner, L.name
        assert mlt.base[0] == L.identity
        assert all(p[L.identity] == L.identity for p in inn.generators)
        orders.add(mlt.order == math.factorial(n))
    assert orders == {True, False}


def reference_automorphism_violation(L, p):
    t = L.table
    return next(
        ((a, b) for a in L.elements for b in L.elements
         if p[t[a][b]] != t[p[a]][p[b]]),
        None,
    )


def test_automorphism_violation_matches_definition(oracle_loops):
    rng = random.Random(12)
    outcomes = set()
    for L in oracle_loops:
        candidates = {p for _, p in inner_generators(L)}
        for _ in range(4):
            p = list(L.elements)
            rng.shuffle(p)
            candidates.add(tuple(p))
        for p in sorted(candidates):
            want = reference_automorphism_violation(L, p)
            assert automorphism_violation(L, p) == want, (L.name, p)
            outcomes.add(want if want is None else want[0] > 0)
    assert outcomes == {None, False, True}


@pytest.mark.parametrize("n", [1, 2])
def test_degree_one_and_two(n):
    # a bare itemgetter over one index returns an int, not a tuple
    L = cyclic_group(n)
    ident = identity_perm(n)
    gens = list(inner_generators(L))
    assert gens == reference_inner_generators(L)
    assert [p for _, p in gens] == [ident] * (2 * n * n + n)
    assert compose(ident, ident) == ident
    translations = {L.left_translation(a) for a in L.elements}
    mlt = mlt_group(L)
    assert mlt.order == n
    assert reference_closure(mlt.generators, n) == translations
    assert inn_group(L).order == 1 and inn_group(L).generators == ()
    assert schreier_sims([ident], n).order == 1
    assert schreier_sims(translations, n).order == n
    assert associativity_violation(L) is None
    assert automorphism_violation(L, ident) is None
    if n == 2:
        assert automorphism_violation(L, (1, 0)) == (0, 0)


def test_group_closure_empty():
    chain = schreier_sims([], 5)
    assert chain.order == 1
    assert chain.base == chain.generators == ()
    assert schreier_sims([], 5, base=(2,)).orbits == (frozenset({2}),)


def test_group_closure_closed(dot):
    # the strong generators of Inn close to the group the inner mappings
    # generate; that closure is a group
    inn = inn_group(dot)
    elements = reference_closure(inn.generators, dot.order)
    assert elements == reference_closure([p for _, p in inner_generators(dot)], 7)
    assert len(elements) == inn.order
    some = sorted(elements)[:12]
    assert all(compose(p, q) in elements for p in some for q in some)
    assert all(invert(p) in elements for p in some)


def random_loop(n, seed):
    """A loop of order n filled by backtracking: row and column 0 are the
    identity, cells go row-major, candidates are shuffled by Random(seed)."""
    rng = random.Random(seed)
    t = [list(range(n))] + [[i] + [0] * (n - 1) for i in range(1, n)]
    cells = [(i, j) for i in range(1, n) for j in range(1, n)]

    def fill(k):
        if k == len(cells):
            return True
        i, j = cells[k]
        used = set(t[i][:j]) | {t[r][j] for r in range(i)}
        candidates = [v for v in range(n) if v not in used]
        rng.shuffle(candidates)
        for v in candidates:
            t[i][j] = v
            if fill(k + 1):
                return True
        return False

    assert fill(0)
    return make_loop(t)


def test_mlt_order_is_exact_past_the_old_cap():
    # the breadth-first closure stopped at 10**6 elements; the chain is exact
    L = random_loop(10, 1)
    assert mlt_group(L).order == math.factorial(10) == 3_628_800
    assert inn_group(L).order == math.factorial(9) == 362_880


def test_order_is_exact_past_maxsize():
    # |S_21| > sys.maxsize, so len() could not report it.  A chain built from
    # group elements can only undercount, so reaching 21! certifies itself.
    L = random_loop(21, 1)
    assert mlt_group(L).order == math.factorial(21)
    assert inn_group(L).order == math.factorial(20)


def switched_elementary_abelian(k, switches, seed):
    """Z_2^k with `switches` intercalates switched: each is a 2x2 subsquare at
    rows a, a^d and columns b, b^d, with a, b, d drawn from Random(seed)."""
    n = 1 << k
    rng = random.Random(seed)
    t = [[x ^ y for y in range(n)] for x in range(n)]
    done = 0
    while done < switches:
        a, b, d = (rng.randrange(1, n) for _ in range(3))
        if d in (a, b) or t[a][b] != t[a ^ d][b ^ d] or t[a][b ^ d] != t[a ^ d][b]:
            continue
        t[a][b], t[a][b ^ d] = t[a][b ^ d], t[a][b]
        t[a ^ d][b], t[a ^ d][b ^ d] = t[a ^ d][b ^ d], t[a ^ d][b]
        done += 1
    return make_loop(t)


def test_mlt_of_order_64_is_exact():
    # no element of S_64 is listed: the chain holds one transversal per level
    L = switched_elementary_abelian(6, 40, 7)
    assert mlt_group(L).order == math.factorial(64)
    assert inn_group(L).order == math.factorial(63)


def test_group_sizes(star, dot):
    assert mlt_group(star).order == 7
    assert inn_group(star).order == 1
    # frozen from a closure run over the printed non-associative table
    assert mlt_group(dot).order == 5040
    assert inn_group(dot).order == 720


def test_mlt_size_divisible_by_order(star, dot, s3):
    for L in (star, dot, s3):
        assert mlt_group(L).order % L.order == 0


def test_mlt_is_order_times_inn():
    # Mlt is transitive and Inn is the stabilizer of the identity
    for L in small_loops(6) + [e.loop for e in builtin_loops()]:
        assert mlt_group(L).order == L.order * inn_group(L).order, L.name


def test_is_automorphism(star, dot):
    assert is_automorphism(star, identity_perm(7))
    cubing = tuple((3 * i) % 7 for i in range(7))
    assert is_automorphism(star, cubing)
    swap = (1, 0, 2, 3, 4, 5, 6)
    assert automorphism_violation(dot, swap) is not None


def test_is_automorphic(star, dot, s3, c5):
    assert is_automorphic(star)
    assert is_automorphic(s3) and is_automorphic(c5)
    label, pair = automorphic_violation(dot)
    assert pair is not None


def test_automorphic_violation_is_first_failing_generator(s3, oracle_loops):
    # the check visits each distinct inner mapping once; scanning every
    # labelled generator must find the same first failure
    loops = [e.loop for n in range(1, 7) for e in generate_loops(n)]
    loops += [e.loop for e in builtin_loops()] + [s3] + oracle_loops
    outcomes = set()
    for L in loops:
        want = next(
            ((label, w) for label, p in inner_generators(L)
             if (w := automorphism_violation(L, p)) is not None),
            None,
        )
        assert automorphic_violation(L) == want, L.name
        outcomes.add(want is None)
    assert outcomes == {True, False}


def test_automorphism_group_sizes(star, dot, s3):
    assert automorphism_group(star).order == 6
    assert automorphism_group(cyclic_group(1)).order == 1
    assert automorphism_group(s3).order == 6
    # frozen: the dot table is rigid
    assert automorphism_group(dot).order == 1


def test_automorphism_group_matches_enumeration(s3):
    loops = small_loops(6) + [e.loop for e in builtin_loops()] + [s3]
    loops += [
        relabeled(builtin_loop(name), seed)
        for seed, name in enumerate(("c2xc2xc4", "c4xc4", "c2xc8", "c2xc2xc2xc2"))
    ]
    for L in loops:
        chain = automorphism_group(L)
        assert chain.order == sum(1 for _ in isomorphisms(L, L)), L.name
        assert all(is_automorphism(L, p) for p in chain.generators)
        assert multiplication_closure(L, chain.base) | {L.identity} == set(L.elements)
        for i, g in enumerate(chain.base):
            # the generators fixing base[:i] move base[i] within its orbit
            for p in chain.generators:
                if all(p[a] == a for a in chain.base[:i]):
                    assert p[g] in chain.orbits[i]


def test_automorphism_group_frozen_sizes():
    # |GL(5,2)|, |GL(6,2)|, and |Aut(Z4^3)| = |GL(3,2)| * 2^9
    assert automorphism_group(builtin_loop("c2xc2xc2xc2xc2")).order == 9_999_360
    assert automorphism_group(builtin_loop("c2xc2xc2xc2xc2xc2")).order == 20_158_709_760
    assert automorphism_group(builtin_loop("c4xc4xc4")).order == 86_016


def test_analyze_relabeled_c2_6_in_a_fresh_process(tmp_path):
    # Assigning each element whose domain shrinks to one image, as soon as it
    # does, keeps the pinned Aut searches small on this labeling; without
    # that step `analyze` does not finish within the timeout.
    path = tmp_path / "c2_6.loop"
    path.write_text(write_loop_file(relabeled(builtin_loop("c2xc2xc2xc2xc2xc2"), 1)))
    env = {**os.environ, "PYTHONPATH": str(Path(loopcheck.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-m", "loopcheck", "analyze", str(path)],
        capture_output=True, text=True, timeout=30, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert "anchor=aut  size=20158709760" in proc.stdout  # |GL(6, 2)|


def test_automorphism_group_matches_naive_filter(dot):
    from itertools import permutations

    naive = {
        (0, *rest)
        for rest in permutations(range(1, 7))
        if is_automorphism(dot, (0, *rest))
    }
    assert set(isomorphisms(dot, dot)) == naive
    assert automorphism_group(dot).order == len(naive)


def test_automorphism_group_invariants(s3):
    elements = set(isomorphisms(s3, s3))
    assert all(compose(p, q) in elements for p in elements for q in elements)


def test_isomorphisms_count(c7, star):
    assert sum(1 for _ in isomorphisms(c7, star)) == 6
    maps = list(isomorphisms(c7, star))
    assert maps == sorted(maps)  # lexicographic order


def test_isomorphisms_match_naive_half_isomorphisms(c7, star, dot):
    # the naive oracle uses only the definition of a half-isomorphism
    loops = small_loops(5) + [c7, star, dot]
    for L1 in loops:
        for L2 in loops:
            if L1.order != L2.order:
                continue
            want = [
                f.mapping
                for f in naive_half_isos(L1, L2)
                if classify(f).is_isomorphism
            ]
            assert list(isomorphisms(L1, L2)) == want, (L1, L2)


def test_isomorphism_entry_points_are_generators(c5, c7):
    assert list(isomorphisms(c5, c7)) == []
    assert inspect.isgeneratorfunction(isomorphisms)
    assert inspect.isgeneratorfunction(enumerate_half_isos)


def test_pinned_isomorphisms_match_filtered_enumeration(s3):
    loops = small_loops(5) + [s3, builtin_loop("c2xc2xc2")]
    rng = random.Random(6)
    for L1 in loops:
        for L2 in loops:
            if L1.order != L2.order:
                continue
            full = list(isomorphisms(L1, L2))
            n = L1.order
            pin_sets = [
                [(rng.randrange(n), rng.randrange(n)) for _ in range(k)]
                for k in (1, 1, 2, 3)
            ]
            if full:
                f = rng.choice(full)
                pin_sets.append([(a, f[a]) for a in rng.sample(range(n), min(n, 2))])
            for pins in pin_sets:
                want = [f for f in full if all(f[a] == v for a, v in pins)]
                assert list(isomorphisms(L1, L2, fixed=pins)) == want, (L1, L2, pins)


def test_inconsistent_pins_yield_nothing(s3):
    L = builtin_loop("c2xc4")
    assert sum(1 for _ in isomorphisms(L, L)) == 8
    for M in (L, s3):
        e = M.identity
        a, b = [x for x in M.elements if x != e][:2]
        assert list(isomorphisms(M, M, fixed=[(e, a)])) == []
        assert list(isomorphisms(M, M, fixed=[(a, a), (b, a)])) == []
        wrong = next(v for v in M.elements if M.element_order(v) != M.element_order(a))
        assert list(isomorphisms(M, M, fixed=[(a, wrong)])) == []


def test_translation_powers_commute_on_automorphic(star, s3):
    # left translation by x^m commutes with right translation by x^n
    for L in (star, s3):
        n = L.order
        for x in L.elements:
            for m in range(-2, 3):
                for k in range(-2, 3):
                    lp = L.left_translation(L.power(x, m))
                    rp = L.right_translation(L.power(x, k))
                    assert compose(lp, rp) == compose(rp, lp)


def test_translation_powers_commute_full_range(c5):
    for x in c5.elements:
        for m in range(-5, 6):
            for k in range(-5, 6):
                lp = c5.left_translation(c5.power(x, m))
                rp = c5.right_translation(c5.power(x, k))
                assert compose(lp, rp) == compose(rp, lp)


def test_middle_translation_inverse_on_automorphic(star, s3):
    for L in (star, s3):
        for x in L.elements:
            tx = compose(L.right_translation(x), invert(L.left_translation(x)))
            txi = compose(
                L.right_translation(L.inverse(x)),
                invert(L.left_translation(L.inverse(x))),
            )
            assert invert(tx) == txi


def test_automorphisms_commute_with_sqrt(star):
    for p in isomorphisms(star, star):
        for x in star.elements:
            assert p[star.sqrt(x)] == star.sqrt(p[x])


def test_inn_subset_aut_on_automorphic(s3):
    inn = reference_closure(inn_group(s3).generators, s3.order)
    assert len(inn) == inn_group(s3).order == 6
    assert all(is_automorphism(s3, p) for p in inn)


def test_inn_of_group_is_conjugation_closure(s3):
    from loopcheck.halfiso import conjugation_map

    conj = [conjugation_map(s3, x) for x in s3.elements]
    inn = inn_group(s3)
    assert reference_closure(conj, 6) == reference_closure(inn.generators, 6)


def test_invariants_on_nonassociative_automorphic(catalog6):
    # the smallest non-associative automorphic loop keeps the translation
    # laws that groups enjoy
    entry = next(e for e in catalog6
                 if e.automorphic and not is_associative_entry(e))
    L = entry.loop
    assert is_automorphic(L)
    span = range(-L.order, L.order + 1)
    for x in L.elements:
        for m in span:
            for k in span:
                lp = L.left_translation(L.power(x, m))
                rp = L.right_translation(L.power(x, k))
                assert compose(lp, rp) == compose(rp, lp)
        tx = compose(L.right_translation(x), invert(L.left_translation(x)))
        txi = compose(
            L.right_translation(L.inverse(x)),
            invert(L.left_translation(L.inverse(x))),
        )
        assert invert(tx) == txi
    # power additivity with negative exponents, |m|,|k| up to the order
    for a in L.elements:
        for m in range(-6, 7):
            for k in range(-6, 7):
                assert L.power(a, m + k) == L.mul(L.power(a, m), L.power(a, k))


def is_associative_entry(entry):
    from loopcheck.table import is_associative

    return is_associative(entry.loop)
