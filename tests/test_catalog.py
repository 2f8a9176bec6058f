import hashlib
from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from loopcheck import catalog
from loopcheck.catalog import (
    LoopFileError,
    _canonical_rows,
    _class_names,
    _completions,
    _left_invariant,
    _orderly_tables,
    _row1_orders,
    _standard_rows,
    are_isomorphic,
    builtin_loop,
    builtin_loops,
    canonical_form,
    canonical_key,
    entry_passes,
    example21_dot,
    example21_star,
    generate_loops,
    parse_loop_file,
    reduced_tables,
    write_loop_file,
)
from loopcheck.table import (
    LoopError,
    OrderTooLarge,
    cyclic_group,
    direct_product,
    is_associative,
    make_loop,
)
from loopcheck.perms import isomorphisms

STAR_TEXT = """loop 7 example21_star
1 2 3 4 5 6 7
2 3 4 5 6 7 1
3 4 5 6 7 1 2
4 5 6 7 1 2 3
5 6 7 1 2 3 4
6 7 1 2 3 4 5
7 1 2 3 4 5 6
"""


def test_parse_star_text(star):
    L = parse_loop_file(STAR_TEXT)
    assert L.table == star.table
    assert L.name == "example21_star"
    assert L.identity == 0


def test_write_is_normalized(star):
    assert write_loop_file(star) == STAR_TEXT


def test_round_trip_byte_identical(dot, s3):
    for L in (dot, s3, cyclic_group(4)):
        text = write_loop_file(L)
        assert write_loop_file(parse_loop_file(text)) == text


def test_parse_ignores_comments_and_blanks():
    text = "# header comment\n\nloop 1 tiny # trailing\n\n1 # row\n"
    L = parse_loop_file(text)
    assert L.order == 1 and L.name == "tiny"


def test_parse_errors_carry_line_numbers():
    with pytest.raises(LoopFileError) as exc:
        parse_loop_file("loop 2 x\n1 2\n2 1\n3 3\n")
    assert exc.value.line == 1  # row-count mismatch reported at the header
    with pytest.raises(LoopFileError) as exc:
        parse_loop_file("loop 2 x\n1 1\n2 2\n")
    assert exc.value.line == 2
    with pytest.raises(LoopFileError):
        parse_loop_file("loop 2 x\n1 2\n2 9\n")
    with pytest.raises(LoopFileError):
        parse_loop_file("size 2\n1 2\n2 1\n")
    with pytest.raises(LoopFileError):
        parse_loop_file("")


def test_builtin_tables(star, dot):
    assert example21_star().table == star.table
    assert is_associative(example21_star())
    assert not is_associative(example21_dot())
    entries = {e.name: e for e in builtin_loops()}
    assert entries["example21_star"].automorphic
    assert not entries["example21_dot"].automorphic
    assert entries["c12"].loop.order == 12


def test_builtin_loop_products():
    L = builtin_loop("c2xc3")
    assert L.order == 6
    assert are_isomorphic(L, cyclic_group(6))
    assert builtin_loop("c2xc2xc2").order == 8
    with pytest.raises(LoopError):
        builtin_loop("m12")
    with pytest.raises(LoopError):
        builtin_loop("c99")


def test_canonical_form_idempotent(dot, s3):
    for L in (dot, s3, cyclic_group(6)):
        c = canonical_form(L)
        assert canonical_form(c) == c
        assert c.identity == 0


def test_canonical_form_cap():
    with pytest.raises(OrderTooLarge):
        canonical_form(cyclic_group(9))
    assert are_isomorphic(cyclic_group(9), cyclic_group(9))  # search still works


def test_are_isomorphic_examples(star, dot, c7):
    assert are_isomorphic(c7, star)
    assert not are_isomorphic(star, dot)
    assert canonical_key(c7) == canonical_key(star)
    assert canonical_key(star) != canonical_key(dot)


def test_isomorphism_found_is_valid(c7, star):
    sigma = next(isomorphisms(c7, star))
    for a in c7.elements:
        for b in c7.elements:
            assert sigma[c7.mul(a, b)] == star.mul(sigma[a], sigma[b])


def test_direct_product_coprime_iso():
    assert are_isomorphic(
        direct_product(cyclic_group(2), cyclic_group(3)), cyclic_group(6)
    )
    assert not are_isomorphic(
        direct_product(cyclic_group(2), cyclic_group(2)), cyclic_group(4)
    )


def test_reduced_table_counts():
    # reduced Latin squares of orders 1..6 (OEIS A000315)
    assert [sum(1 for _ in reduced_tables(n)) for n in range(1, 7)] == [
        1, 1, 1, 4, 56, 9408,
    ]


def _cellwise_completions(n, row1=None, row_ok=None):
    """Loop tables of order n with identity 0 by cell-by-cell backtracking
    Latin-square completion, each row checked by `row_ok` once complete:
    the oracle for the whole-row `_completions`."""
    full = (1 << n) - 1
    rows = [list(range(n))] + [[i] + [-1] * (n - 1) for i in range(1, n)]
    row_used = [full] + [(1 << i) for i in range(1, n)]
    col_used = [(1 << j) for j in range(n)]
    first = 1
    if row1 is not None:
        rows[1] = list(row1)
        row_used[1] = full
        for j, v in enumerate(row1):
            col_used[j] |= 1 << v
        first = 2
    cells = [(i, j) for i in range(first, n) for j in range(1, n)]
    last = n - 1

    def fill(k):
        if k == len(cells):
            yield tuple(tuple(row) for row in rows)
            return
        i, j = cells[k]
        free = full & ~(row_used[i] | col_used[j])
        while free:
            bit = free & -free
            free ^= bit
            v = bit.bit_length() - 1
            rows[i][j] = v
            if j == last and row_ok is not None and not row_ok(rows[i]):
                continue
            row_used[i] |= bit
            col_used[j] |= bit
            yield from fill(k + 1)
            row_used[i] ^= bit
            col_used[j] ^= bit
        rows[i][j] = -1

    yield from fill(0)


def test_row_completion_matches_cellwise_oracle(monkeypatch):
    # The same tables in the same order, for both callers of `_completions`.
    reduced = [list(reduced_tables(n)) for n in range(1, 6)]
    orderly = [list(_orderly_tables(n)) for n in range(1, 7)]
    monkeypatch.setattr(catalog, "_completions", _cellwise_completions)
    assert reduced == [list(reduced_tables(n)) for n in range(1, 6)]
    assert orderly == [list(_orderly_tables(n)) for n in range(1, 7)]
    assert [len(tables) for tables in orderly] == [1, 1, 1, 2, 7, 470]


def test_generate_counts_small():
    assert [len(generate_loops(n)) for n in range(1, 6)] == [1, 1, 1, 2, 6]


def test_generate_order6_count(catalog6):
    assert len(catalog6) == 109
    assert [e.name for e in catalog6[:2]] == ["n6_001", "n6_002"]


def test_generated_entries_pairwise_non_isomorphic(catalog5):
    for i, e1 in enumerate(catalog5):
        for e2 in catalog5[i + 1 :]:
            assert not are_isomorphic(e1.loop, e2.loop)
            assert canonical_key(e1.loop) != canonical_key(e2.loop)


def test_generated_entries_are_canonical(catalog6):
    for e in catalog6:
        assert canonical_form(e.loop).table == e.loop.table
    keys = [canonical_key(e.loop) for e in catalog6]
    assert len(set(keys)) == len(keys)
    assert keys == sorted(keys)
    assert [e.name for e in catalog6] == [
        f"n6_{index:03d}" for index in range(1, len(keys) + 1)
    ]


def _full_scan_rows(table, identity):
    """The least relabeled table over all (n-1)! relabelings that send the
    identity to label 0: the oracle for `_canonical_rows`."""
    rest = [x for x in range(len(table)) if x != identity]
    best = None
    for tail in permutations(rest):
        order = [identity, *tail]
        sigma = [0] * len(table)
        for k, x in enumerate(order):
            sigma[x] = k
        rows = tuple(tuple(sigma[table[a][b]] for b in order) for a in order)
        if best is None or rows < best:
            best = rows
    return best


def _cellwise_row1_orders(table, identity):
    """The orders whose relabeled inner row 1 is least, with row 1 filled
    cell by cell: a free column label branches over the unlabeled elements,
    an unlabeled product takes the next free label, and after each cell only
    the orders whose value there is least stay.  The oracle for the
    cycle-wise `_row1_orders`."""
    n = len(table)
    orders = [[identity, x] for x in range(n) if x != identity] or [[identity]]
    for b in range(1, n):
        cells = []
        for order in orders:
            if len(order) == b:
                branches = [[*order, y] for y in range(n) if y not in order]
            else:
                branches = [order]
            for order in branches:
                product = table[order[1]][order[b]]
                if product in order:
                    cells.append((order.index(product), order))
                else:
                    cells.append((len(order), order))
                    order.append(product)
        least = min(value for value, _ in cells)
        orders = [order for value, order in cells if value == least]
    return orders


def test_row1_orders_match_cellwise_oracle(catalog6):
    tables = [(t, 0) for n in range(1, 6) for t in reduced_tables(n)]
    tables += [(t, 0) for t in _orderly_tables(6)]
    loops = [e.loop for e in catalog6] + [builtin_loop("c2xc2xc2"), example21_dot()]
    swap = (3, 1, 2, 0, 4, 5)  # an involution moving the identity to 3
    for L in (catalog6[50].loop, catalog6[-1].loop):
        loops.append(make_loop(
            [[swap[L.table[swap[a]][swap[b]]] for b in range(6)] for a in range(6)]
        ))
        assert loops[-1].identity == 3
    tables += [(L.table, L.identity) for L in loops]
    for table, identity in tables:
        got = sorted(map(tuple, _row1_orders(table, identity)))
        assert got == sorted(map(tuple, _cellwise_row1_orders(table, identity)))
        assert len(set(got)) == len(got)


def test_canonical_rows_match_full_scan(catalog6):
    for n in range(1, 6):
        for table in reduced_tables(n):
            assert _canonical_rows(table, 0) == _full_scan_rows(table, 0)
    loops = [e.loop for e in catalog6]
    loops += [builtin_loop(name) for name in ("c8", "c2xc4", "c2xc2xc2")]
    for L in loops:
        assert _canonical_rows(L.table, L.identity) == _full_scan_rows(
            L.table, L.identity
        )


def _class_forms(tables):
    return sorted({_canonical_rows(table, 0) for table in tables})


def test_orderly_tables_keep_every_class():
    for n in range(1, 7):
        assert _class_forms(_orderly_tables(n)) == _class_forms(reduced_tables(n))


def _relabeled_by(table, order):
    """The table relabeled cell by cell so that order[k] becomes label k."""
    sigma = [0] * len(table)
    for k, x in enumerate(order):
        sigma[x] = k
    return tuple(tuple(sigma[table[a][b]] for b in order) for a in order)


def _check_stream_classes(tables):
    """Group a stream by `_canonical_rows`, the oracle for the skip in
    `_generate`, and check each class against its first table."""
    classes = {}
    for table in tables:
        classes.setdefault(_canonical_rows(table, 0), []).append(table)
    for form, members in classes.items():
        first = members[0]
        assert first == form
        images = {_relabeled_by(first, order) for order in _row1_orders(first, 0)}
        assert len(members) == len(set(members)) == len(images)
        assert set(members) == images
    return len(classes)


# The classes of order 7 whose canonical row 1 has a cycle of length 5 or 7
# through the identity: the class tables of `generate_loops(7)` whose
# row 1 has such a cycle.
CLASSES7 = 950


def test_stream_holds_each_class_as_its_row1_relabelings():
    # The stream meets each class first at its canonical form, and then
    # only at that form's `_row1_orders` relabelings, which `_generate` skips.
    counts = [_check_stream_classes(list(_orderly_tables(n))) for n in range(1, 7)]
    assert counts == [1, 1, 1, 2, 6, 109]
    # Order 7, the standard rows whose cycle through 0 has length 5 or 7;
    # every table of a class has the same row 1.
    tables = []
    for row in _standard_rows(7):
        least = _left_invariant(row)
        if least[0] >= 5:
            tables += _completions(7, row, lambda r: _left_invariant(r) >= least)
    assert len(tables) == 4316
    assert tables == sorted(tables)
    assert _check_stream_classes(tables) == CLASSES7


def test_generate_relabels_each_class_once(monkeypatch):
    calls = []

    def counted(table, identity):
        calls.append(table)
        return _row1_orders(table, identity)

    def refused(table, identity):
        raise AssertionError("generation computed a canonical form")

    monkeypatch.setattr(catalog, "_row1_orders", counted)
    monkeypatch.setattr(catalog, "_canonical_rows", refused)
    for n in range(1, 7):
        calls.clear()
        loops = catalog._generate.__wrapped__(n)
        assert calls == [L.table for L in loops]


def test_standard_rows_cover_each_invariant_once():
    for n in range(2, 8):
        rows = _standard_rows(n)
        assert rows == sorted(rows)
        for row in rows:
            assert sorted(row) == list(range(n))
            assert row[0] == 1
            assert all(row[x] != x for x in range(n))
        invariants = [_left_invariant(row) for row in rows]
        assert invariants == sorted(set(invariants))
        derangements = {
            _left_invariant(p)
            for p in permutations(range(n))
            if p[0] == 1 and all(p[x] != x for x in range(n))
        }
        assert set(invariants) == derangements


def test_class_names_sort_as_indices():
    assert _class_names(6, 109)[::108] == ["n6_001", "n6_109"]
    assert _class_names(7, 999)[-1] == "n7_999"
    names = _class_names(7, 23746)
    assert names[::23745] == ["n7_00001", "n7_23746"]
    assert names == sorted(names)


# sha256 of repr() of the list of the 23,746 class tables of order 7
ORDER7_TABLES_SHA256 = "f157ec4159f675249cad3e7e2c4eb6aabb5279975f041bb6a8b54be7dc116302"


@pytest.mark.slow
def test_generate_order7():
    assert sum(1 for _ in _orderly_tables(7)) == 155205
    with pytest.warns(UserWarning, match="155,205 tables"):
        catalog7 = generate_loops(7)
    assert len(catalog7) == 23746
    # The only automorphic class of order 7 is the cyclic group.
    assert sum(e.automorphic for e in catalog7) == 1
    (auto,) = [e for e in catalog7 if e.automorphic]
    assert auto.loop.table == canonical_form(cyclic_group(7)).table
    tables = [e.loop.table for e in catalog7]
    assert tables == sorted(set(tables))
    assert hashlib.sha256(repr(tables).encode()).hexdigest() == ORDER7_TABLES_SHA256
    for e in catalog7[::1000]:
        assert canonical_form(e.loop).table == e.loop.table
        assert _full_scan_rows(e.loop.table, 0) == e.loop.table
    names = [e.name for e in catalog7]
    assert names == sorted(set(names))
    assert names[::23745] == ["n7_00001", "n7_23746"]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_canonical_rows_are_isomorphism_invariant(catalog6, data):
    loops = [e.loop for e in catalog6] + [example21_dot(), builtin_loop("c2xc2xc2")]
    L = data.draw(st.sampled_from(loops))
    sigma = [0, *data.draw(st.permutations(range(1, L.order)))]
    inv = [0] * L.order
    for i, v in enumerate(sigma):
        inv[v] = i
    relabeled = tuple(
        tuple(sigma[L.table[inv[i]][inv[j]]] for j in L.elements)
        for i in L.elements
    )
    assert _canonical_rows(relabeled, 0) == _canonical_rows(L.table, 0)


def test_filters_are_consistent(catalog6):
    auto = generate_loops(6, ("automorphic",))
    assert [e.name for e in auto] == [e.name for e in catalog6 if e.automorphic]
    assert len(auto) == 3
    odd = generate_loops(5, ("odd-order", "automorphic"))
    assert len(odd) == 1
    assert all(entry_passes(e, ("automorphic", "odd-order")) for e in odd)
    with pytest.raises(LoopError):
        generate_loops(4, ("shiny",))


def test_unknown_filter_is_refused_before_generation(monkeypatch):
    def refused(n):
        raise AssertionError("generated before checking the filters")

    monkeypatch.setattr(catalog, "_generate", refused)
    for n in (6, 7):
        with pytest.raises(LoopError, match="unknown filter 'shiny'"):
            generate_loops(n, ("automorphic", "shiny"))


def test_generation_caps():
    with pytest.raises(OrderTooLarge):
        generate_loops(8)
    for n in (0, -3):
        with pytest.raises(LoopError, match="from 1 to 7"):
            generate_loops(n)


@settings(max_examples=25, deadline=None)
@given(st.permutations(range(6)))
def test_canonical_key_is_isomorphism_invariant(sigma):
    base = builtin_loop("c2xc3")
    inv = [0] * 6
    for i, v in enumerate(sigma):
        inv[v] = i
    relabeled = make_loop(
        [[sigma[base.table[inv[i]][inv[j]]] for j in range(6)] for i in range(6)]
    )
    assert canonical_key(relabeled) == canonical_key(base)


def test_parse_rejects_order_zero():
    with pytest.raises(LoopFileError) as exc:
        parse_loop_file("loop 0\n")
    assert exc.value.line == 1
