import random

import pytest
from hypothesis import given, strategies as st

from loopcheck.catalog import builtin_loops, generate_loops
from loopcheck.table import (
    MAX_ORDER,
    LoopError,
    LoopTable,
    NoIdentity,
    NoTwoSidedInverse,
    NotLatinSquare,
    NotUniquely2Divisible,
    OrderTooLarge,
    aaip_violation,
    associativity_violation,
    commutativity_violation,
    cyclic_group,
    direct_product,
    flexibility_violation,
    has_aaip,
    is_associative,
    is_commutative,
    is_flexible,
    is_power_associative,
    is_uniquely_2_divisible,
    make_loop,
    multiplication_closure,
    opposite,
    per_loop,
    power_associativity_violation,
    squaring_map,
    _MISSING,
    _translations,
)

from conftest import assert_matches_oracle


def test_make_loop_rejects_repeated_row():
    with pytest.raises(NotLatinSquare) as exc:
        make_loop([[0, 0], [1, 1]])
    assert exc.value.axis == "row"
    assert exc.value.index == 0


def test_make_loop_rejects_repeated_column():
    # rows are permutations but column 0 repeats
    with pytest.raises(NotLatinSquare) as exc:
        make_loop([[0, 1, 2], [0, 2, 1], [2, 1, 0]])
    assert exc.value.axis == "column"


def test_make_loop_rejects_no_identity():
    # Latin square where no row/column pair gives a two-sided identity
    with pytest.raises(NoIdentity):
        make_loop([[0, 1, 2], [2, 0, 1], [1, 2, 0]])


def test_make_loop_rejects_bad_entries():
    with pytest.raises(LoopError):
        make_loop([[0, 1], [1, 7]])
    with pytest.raises(LoopError):
        make_loop([[0, 1], [1]])
    with pytest.raises(LoopError):
        make_loop([])


def _make_loop_oracle(matrix):
    """`make_loop` as it was before its checks ran whole rows in C: every
    entry, row and column checked one at a time."""
    rows = tuple(tuple(int(v) for v in row) for row in matrix)
    n = len(rows)
    if n < 1:
        raise LoopError("a loop needs at least one element")
    if n > MAX_ORDER:
        raise OrderTooLarge(f"order {n} exceeds the cap of {MAX_ORDER}")
    full = frozenset(range(n))
    for i, row in enumerate(rows):
        if len(row) != n:
            raise LoopError(f"row {i} has {len(row)} entries, expected {n}")
        if not all(0 <= v < n for v in row):
            raise LoopError(f"row {i} contains entries outside 0..{n - 1}")
        if frozenset(row) != full:
            raise NotLatinSquare("row", i)
    for j in range(n):
        if frozenset(row[j] for row in rows) != full:
            raise NotLatinSquare("column", j)
    id_row = tuple(range(n))
    for e in range(n):
        if rows[e] == id_row and all(rows[a][e] == a for a in range(n)):
            return LoopTable(order=n, table=rows, identity=e)
    raise NoIdentity("no element acts as a two-sided identity")


C3_OFF_ZERO = [[1, 2, 0], [2, 0, 1], [0, 1, 2]]  # identity 2
MALFORMED = {
    "empty": [],
    "short row": [[0, 1, 2], [1, 2], [2, 0, 1]],
    "long row": [[0, 1], [1, 0, 1]],
    "empty row": [[0, 1], []],
    "entry too large": [[0, 1], [1, 7]],
    "negative entry": [[0, 1, 2], [1, 2, 0], [2, -1, 1]],
    "entry out of range in a later row only": [[0, 1, 2], [1, 2, 0], [2, 0, 3]],
    "repeated entry in a row": [[0, 0], [1, 1]],
    "repeated entry in a later row": [[0, 1, 2], [1, 2, 0], [2, 2, 1]],
    "repeated entry in a column": [[0, 1, 2], [0, 2, 1], [2, 1, 0]],
    "repeated entry in the last column": [[0, 1, 2], [1, 2, 0], [2, 0, 0]],
    "a row and a column at fault": [[0, 1, 1], [1, 0, 2], [1, 2, 0]],
    "identity row without its column": [[0, 1, 2], [2, 0, 1], [1, 2, 0]],
    "identity column without its row": [[0, 2, 1], [1, 0, 2], [2, 1, 0]],
    "identity not element 0": C3_OFF_ZERO,
    "identity last at order 8": [[(a + b + 1) % 8 for b in range(8)] for a in range(8)],
    "non-integer entries": [["0", 1.0], [True, 0]],
    "order 1": [[0]],
    "order 65": [[(a + b) % 65 for b in range(65)] for a in range(65)],
}


@pytest.mark.parametrize("matrix", MALFORMED.values(), ids=MALFORMED)
def test_make_loop_matches_the_cell_by_cell_oracle(matrix):
    def outcome(build):
        try:
            L = build(matrix)
        except LoopError as err:
            return type(err), str(err), getattr(err, "axis", None), getattr(err, "index", None)
        return L, L.identity, L.table

    assert outcome(make_loop) == outcome(_make_loop_oracle)


def test_order_cap():
    with pytest.raises(OrderTooLarge):
        make_loop([[(i + j) % 65 for j in range(65)] for i in range(65)])


def test_identity_autodetected_off_zero():
    # relabel c3 so the identity sits at index 2
    rows = [[1, 2, 0], [2, 0, 1], [0, 1, 2]]
    L = make_loop(rows)
    assert L.identity == 2


def test_example_tables_validate(star, dot):
    assert star.order == dot.order == 7
    assert star.identity == dot.identity == 0
    assert is_associative(star) and is_commutative(star)
    assert not is_associative(dot)


def test_mul_examples(star, dot):
    # 1-based facts read off the printed tables: 3*2 = 4 and 2.3 = 7
    assert star.mul(2, 1) == 3
    assert dot.mul(1, 2) == 6
    assert all(star.mul(0, b) == b for b in star.elements)


def test_divisions(star, dot):
    # 2 \ 1 = 7 in the cyclic table; 1 / 2 = 7 in the dot table (7.2 = 1)
    assert star.ldiv(1, 0) == 6
    assert dot.rdiv(1, 0) == 6
    for L in (star, dot):
        for a in L.elements:
            for b in L.elements:
                assert L.mul(a, L.ldiv(a, b)) == b
                assert L.mul(L.rdiv(a, b), a) == b


def test_translations(star, dot):
    assert star.left_translation(star.identity) == tuple(star.elements)
    # right translation by 2 in the cyclic table shifts every label by one
    assert star.right_translation(1) == tuple((i + 1) % 7 for i in range(7))
    for L in (star, dot):
        for a in L.elements:
            assert sorted(L.left_translation(a)) == list(L.elements)
            assert sorted(L.right_translation(a)) == list(L.elements)
            for b in L.elements:
                assert L.left_translation(a)[L.ldiv(a, b)] == b


def test_two_sided_inverse(star, dot):
    assert star.inverse(1) == 6  # 2 and 7 are mutually inverse in c7
    assert star.inverse(star.identity) == star.identity
    with pytest.raises(NoTwoSidedInverse) as exc:
        dot.inverse(1)  # element 2: left inverse 7, right inverse 6
    assert exc.value.left == 6
    assert exc.value.right == 5


def test_power(star, dot):
    for L in (star, dot):
        for a in L.elements:
            assert L.power(a, 0) == L.identity
            assert L.power(a, 1) == a
    assert star.power(1, 7) == 0
    assert dot.power(1, 2) == 2  # 2.2 = 3 in the printed table
    with pytest.raises(NoTwoSidedInverse):
        dot.power(1, -1)


def _power_or_missing(L, a, k):
    try:
        return L.power(a, k)
    except NoTwoSidedInverse:
        return -1


def test_power_tables_match_power(dot):
    # Fresh copies ask for the exponents in three orders, so each table is
    # built from whichever neighbours happen to be cached.
    for L in [e.loop for n in range(1, 6) for e in generate_loops(n)] + [dot]:
        n = L.order
        ks = list(range(-n, n + 1))
        for order in (ks, ks[::-1], ks[n::2] + ks[::-2]):
            M = make_loop(L.table)
            for k in order:
                assert M.power_table(k) == tuple(
                    _power_or_missing(L, a, k) for a in L.elements
                ), (L.name, k)
    assert -1 in dot.power_table(-1)


def test_element_order(star, dot):
    assert star.element_order(star.identity) == 1
    assert all(star.element_order(a) == 7 for a in range(1, 7))
    # computed by direct iteration over the printed table
    direct = {}
    for a in dot.elements:
        x, k = a, 1
        while x != dot.identity:
            x, k = dot.mul(x, a), k + 1
        direct[a] = k
    assert direct == {a: dot.element_order(a) for a in dot.elements}
    assert [dot.element_order(a) for a in dot.elements] == [1, 7, 5, 7, 7, 5, 5]


def test_predicates_on_examples(star, dot):
    assert is_commutative(star) and is_flexible(star) and has_aaip(star)
    assert is_power_associative(star)
    assert commutativity_violation(dot) == (1, 2)  # 2.3 = 7 but 3.2 = 4
    assert associativity_violation(dot) is not None
    assert not is_flexible(dot)
    # element 2 of the dot table has no two-sided inverse
    assert aaip_violation(dot) == (1,)
    # its generated closure is the whole (non-associative) loop
    assert power_associativity_violation(dot) == (1,)


def reference_power_associativity_violation(L):
    """The least element whose closure, grown by all products until it stops
    changing, is not commutative and associative; one closure per element."""
    t = L.table
    for a in L.elements:
        closed = {a}
        while (grown := closed | {t[x][y] for x in closed for y in closed}) != closed:
            closed = grown
        if any(t[x][y] != t[y][x] or any(t[t[x][y]][z] != t[x][t[y][z]] for z in closed)
               for x in closed for y in closed):
            return (a,)
    return None


def reference_multiplication_closure(L, seeds):
    """The least product-closed superset of `seeds`: add every product of
    two members until nothing changes."""
    closed = set(seeds)
    while True:
        grown = closed | {L.table[a][b] for a in closed for b in closed}
        if grown == closed:
            return closed
        closed = grown


def test_multiplication_closure_matches_fixpoint(witness_loops):
    rng = random.Random(11)
    proper = 0
    for L in witness_loops:
        n = L.order
        seed_sets = [(), (L.identity,), *((rng.randrange(n),) for _ in range(3))]
        seed_sets.append(tuple(rng.randrange(n) for _ in range(2)))
        for seeds in seed_sets:
            got = multiplication_closure(L, seeds)
            assert got == reference_multiplication_closure(L, seeds), (L.name, seeds)
            proper += len(seeds) > 0 and len(got) < n
    assert proper  # some closures are proper subloops


def test_translations_are_the_tables_padded_to_themselves(witness_loops):
    # Bytes from n up translate to themselves, so a missing element stays
    # missing through every product table, also at order 64.
    for L in [M for M in witness_loops if M.order in (1, 7, 56, 64)]:
        n = L.order
        pad = bytes(range(n, 256))
        for attr in ("table", "ldiv_table", "rdiv_table"):
            rows, cols = _translations(L, attr, "rows"), _translations(L, attr, "cols")
            entries = getattr(L, attr)
            assert rows == tuple(bytes(row) + pad for row in entries)
            assert all(cols[b][a] == entries[a][b] for a in L.elements for b in L.elements)
            assert all(col[n:] == pad for col in cols)
        for k in (-2, 3):
            power = _translations(L, "power_table", k)
            assert power[:n] == bytes(_MISSING if v < 0 else v for v in L.power_table(k))
            assert power[n:] == pad
        assert bytes((_MISSING,)).translate(_translations(L, "table", "rows")[-1]) == b"\xff"


def test_power_associativity_matches_reference(witness_loops):
    witnesses = assert_matches_oracle(
        power_associativity_violation, reference_power_associativity_violation, witness_loops
    )
    # the closure-restricted check, not only the whole-loop one, finds a witness
    assert any(
        w is not None and len(multiplication_closure(L, w)) < L.order
        for L, w in zip(witness_loops, witnesses)
    )


def reference_associativity_violation(L):
    t = L.table
    return next(
        ((a, b, c) for a in L.elements for b in L.elements for c in L.elements
         if t[t[a][b]][c] != t[a][t[b][c]]),
        None,
    )


def test_associativity_violation_matches_definition(witness_loops):
    assert_matches_oracle(
        associativity_violation, reference_associativity_violation, witness_loops
    )


def reference_commutativity_violation(L):
    t = L.table
    return next(
        ((a, b) for a in L.elements for b in L.elements if t[a][b] != t[b][a]), None
    )


def test_commutativity_violation_matches_definition(witness_loops):
    assert_matches_oracle(
        commutativity_violation, reference_commutativity_violation, witness_loops
    )


def reference_flexibility_violation(L):
    t = L.table
    return next(
        ((a, b) for a in L.elements for b in L.elements if t[a][t[b][a]] != t[t[a][b]][a]),
        None,
    )


def test_flexibility_violation_matches_definition(witness_loops):
    assert_matches_oracle(flexibility_violation, reference_flexibility_violation, witness_loops)


def reference_aaip_violation(L):
    """(a,) for the least a without a two-sided inverse, else the least pair
    (a, b) with (a*b)^-1 != b^-1 * a^-1, with inverses found by search."""
    t, e = L.table, L.identity
    inv = {}
    for a in L.elements:
        right = next(x for x in L.elements if t[a][x] == e)
        if t[right][a] != e:
            return (a,)
        inv[a] = right
    return next(
        ((a, b) for a in L.elements for b in L.elements
         if inv[t[a][b]] != t[inv[b]][inv[a]]),
        None,
    )


def test_aaip_violation_matches_definition(witness_loops):
    witnesses = assert_matches_oracle(aaip_violation, reference_aaip_violation, witness_loops)
    assert any(w is not None and len(w) == 1 and w[0] > 0 for w in witnesses)
    assert any(w is not None and len(w) == 2 and min(w) > 0 for w in witnesses)


def test_aaip_on_group(s3):
    assert has_aaip(s3)  # (xy)^-1 = y^-1 x^-1 holds in every group


def test_squaring(star):
    assert is_uniquely_2_divisible(star)
    assert star.sqrt(star.identity) == star.identity
    for a in star.elements:
        assert star.power(star.sqrt(a), 2) == a
        assert star.sqrt(star.power(a, 2)) == a
    c4 = cyclic_group(4)
    assert not is_uniquely_2_divisible(c4)
    assert len(set(squaring_map(c4))) < 4
    with pytest.raises(NotUniquely2Divisible):
        c4.sqrt(1)


def test_cyclic_group_matches_example(star):
    assert cyclic_group(7).table == star.table


def test_opposite(dot, star):
    assert opposite(opposite(dot)).table == dot.table
    assert is_commutative(opposite(star))
    op = opposite(dot)
    assert op.mul(2, 1) == dot.mul(1, 2)
    assert is_commutative(op) == is_commutative(dot)


def test_direct_product():
    c2, c3 = cyclic_group(2), cyclic_group(3)
    L = direct_product(c2, c3)
    assert L.order == 6
    assert is_commutative(L) and is_associative(L)
    assert L.identity == 0


@given(st.integers(min_value=-7, max_value=7), st.integers(min_value=-7, max_value=7),
       st.integers(min_value=0, max_value=6))
def test_power_additivity_on_cyclic(m, n, a):
    L = cyclic_group(7)
    assert L.power(a, m + n) == L.mul(L.power(a, m), L.power(a, n))


@given(st.integers(min_value=1, max_value=12))
def test_cyclic_group_is_addition(n):
    L = cyclic_group(n)
    assert L.identity == 0
    for a in range(n):
        for b in range(n):
            assert L.mul(a, b) == (a + b) % n


def test_no_global_cache_keeps_loops_alive():
    import gc
    import weakref

    from loopcheck.identities import builtin_library, evaluate
    from loopcheck.perms import is_automorphic
    from loopcheck.structure import co1_violation, co2_violation, theorem31_violation

    L = make_loop([[(i + j) % 5 for j in range(5)] for i in range(5)])
    L.ldiv(1, 2), L.rdiv(1, 2), L.inverse(3), L.element_order(2), L.sqrt(4)
    assert L.right_translation(2) is L.columns[2]
    for predicate in (
        commutativity_violation,
        associativity_violation,
        flexibility_violation,
        aaip_violation,
        power_associativity_violation,
        is_uniquely_2_divisible,
        is_automorphic,
        co1_violation,
        co2_violation,
        theorem31_violation,
    ):
        predicate(L)
    assert all(evaluate(L, stmt, automorphic=True) is None for stmt in builtin_library())
    ref = weakref.ref(L)
    del L
    gc.collect()
    assert ref() is None


def test_per_loop_memoizes_each_argument_tuple():
    calls = []

    @per_loop
    def shifted(L, k=0):
        calls.append(k)
        return tuple((a + k) % L.order for a in L.elements)

    L = cyclic_group(4)
    first, second = shifted(L), shifted(L, 1)
    assert shifted(L) is first and shifted(L, 1) is second
    assert calls == [0, 1]
    name = f"{shifted.__module__}.{shifted.__qualname__}"
    assert L.__dict__[name] is first and L.__dict__[(name, 1)] is second


def test_derived_tables_leave_equality_and_hash_alone():
    L = cyclic_group(6)
    M = make_loop(L.table)
    before = hash(M)
    M.ldiv_table, M.inverse_table, M.power_table(-2), is_commutative(M)
    assert "columns" in M.__dict__ and "columns" not in L.__dict__
    assert M == L and hash(M) == before == hash(L)
    assert M.columns == tuple(tuple(row[b] for row in L.table) for b in L.elements)
    assert L.power_table(-2) == tuple(L.power(a, -2) for a in L.elements)
