import pytest
from hypothesis import given, settings, strategies as st

from loopcheck.catalog import (
    LoopFileError,
    _canonical_rows,
    _dedupe_key,
    _generate,
    are_isomorphic,
    builtin_loop,
    builtin_loops,
    canonical_form,
    canonical_key,
    entry_passes,
    example21_dot,
    example21_star,
    find_isomorphism,
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
    sigma = find_isomorphism(c7, star)
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
    # reduced Latin squares of orders 1..5
    assert [sum(1 for _ in reduced_tables(n)) for n in range(1, 6)] == [
        1, 1, 1, 4, 56,
    ]


def test_generate_counts_small():
    assert [len(generate_loops(n)) for n in range(1, 6)] == [1, 1, 1, 2, 6]


def test_generate_jobs_match_serial():
    serial = _generate(5, 1)
    sharded = _generate(5, 2)
    assert [(L.name, L.table) for L in sharded] == [(L.name, L.table) for L in serial]


def test_generation_cache_ignores_jobs():
    serial = generate_loops(5)
    sharded = generate_loops(5, jobs=2)
    assert [id(e.loop) for e in serial] == [id(e.loop) for e in sharded]


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


def test_dedupe_key_splits_like_canonical_key():
    for n in range(1, 6):
        pairs = {
            (_dedupe_key(table), _canonical_rows(table, 0))
            for table in reduced_tables(n)
        }
        dedupe_keys = {d for d, _ in pairs}
        canonical_keys = {c for _, c in pairs}
        assert len(pairs) == len(dedupe_keys) == len(canonical_keys)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_dedupe_key_is_isomorphism_invariant(catalog6, data):
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
    assert _dedupe_key(relabeled) == _dedupe_key(L.table)


def test_filters_are_consistent(catalog6):
    auto = generate_loops(6, ("automorphic",))
    assert [e.name for e in auto] == [e.name for e in catalog6 if e.automorphic]
    assert len(auto) == 3
    odd = generate_loops(5, ("odd-order", "automorphic"))
    assert len(odd) == 1
    assert all(entry_passes(e, ("automorphic", "odd-order")) for e in odd)
    with pytest.raises(LoopError):
        generate_loops(4, ("shiny",))


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
