"""Property tests: every input text either parses or is refused with a
`LoopError`, the CLI answers any file with exit code 0, 1 or 2, pruned
half-isomorphism enumeration agrees with the naive oracle on any labeling,
and compiled identity evaluation agrees with the tree walker."""
import contextlib
import functools
import io
import re

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from loopcheck.catalog import (
    builtin_loops,
    example21_dot,
    generate_loops,
    parse_loop_file,
    write_loop_file,
)
from loopcheck.cli import main
from loopcheck.halfiso import enumerate_half_isos, naive_half_isos
from loopcheck.identities import (
    LDiv,
    Mul,
    One,
    Pow,
    RDiv,
    Var,
    parse_identity,
    parse_identity_file,
    statement_to_text,
    term_to_text,
)
from loopcheck.table import LoopError, cyclic_group, is_associative, make_loop
from test_identities import _check_arranged_pass, _compiled, _tree_walk


def renamed(term, names):
    """`term` with each variable v replaced by the variable ``names[v]``."""
    if isinstance(term, Var):
        return Var(names[term.name])
    if isinstance(term, Pow):
        return Pow(renamed(term.arg, names), term.exponent)
    if isinstance(term, (Mul, LDiv, RDiv)):
        return type(term)(renamed(term.left, names), renamed(term.right, names))
    return term

# Arbitrary text, and text over each format's own alphabet, which reaches
# past the first token far more often.
IDS_ALPHABET = "xyzuv1209²^-*\\/()=>&|:,let f_ #\n"
LOOP_ALPHABET = "loop 123-x#\n"
ids_texts = st.one_of(st.text(), st.text(IDS_ALPHABET))
loop_texts = st.one_of(st.text(), st.text(LOOP_ALPHABET))


def parses_or_refuses(parse, text):
    try:
        parse(text)
    except LoopError:
        pass


@settings(max_examples=100, deadline=None)
@given(ids_texts)
@example("x = ²")
@example("x^" + "1" * 5000 + " = x")
def test_identity_parsers_are_total(text):
    parses_or_refuses(parse_identity, text)
    parses_or_refuses(parse_identity_file, text)


@settings(max_examples=100, deadline=None)
@given(loop_texts)
def test_loop_file_parser_is_total(text):
    parses_or_refuses(parse_loop_file, text)


PLAIN_NAME = r"[A-Za-z0-9_.-]{1,12}"
SMALL_LOOPS = [L for L in builtin_loops() if L.order <= 8]


def relabeled(draw, L, name=None):
    """L with its elements renamed by a drawn permutation."""
    sigma = draw(st.permutations(range(L.order)))
    rows = [[0] * L.order for _ in L.elements]
    for a, row in enumerate(L.table):
        for b, ab in enumerate(row):
            rows[sigma[a]][sigma[b]] = sigma[ab]
    return make_loop(rows, name=name)


@st.composite
def relabeled_loops(draw):
    L = draw(st.sampled_from(SMALL_LOOPS))
    name = draw(st.none() | st.from_regex(PLAIN_NAME, fullmatch=True) | st.text())
    return relabeled(draw, L, name)


@settings(max_examples=50, deadline=None)
@given(relabeled_loops())
@example(cyclic_group(3, name="a#b"))
@example(cyclic_group(3, name="a\nb"))
@example(cyclic_group(3, name=" a"))
def test_loop_file_round_trip(L):
    # a name either reads back or is refused; plain names always read back
    try:
        text = write_loop_file(L)
    except LoopError:
        assert not re.fullmatch(PLAIN_NAME, L.name)
        return
    parsed = parse_loop_file(text)
    assert parsed == L and parsed.name == L.name
    assert write_loop_file(parsed) == text


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def exit_code(*argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(list(argv))


@settings(max_examples=25, deadline=None)
@given(text=loop_texts)
def test_analyze_any_file(workdir, text):
    path = workdir / "any.loop"
    path.write_text(text, encoding="utf-8")
    assert exit_code("analyze", str(path)) in (0, 1, 2)


@settings(max_examples=25, deadline=None)
@given(text=ids_texts)
def test_identity_check_any_file(workdir, text):
    path = workdir / "any.ids"
    path.write_text(text, encoding="utf-8")
    assert exit_code("identity", "check", str(path), "c3") in (0, 1, 2)


@functools.cache
def halfiso_pool():
    """The order <= 6 catalog and the builtins up to order 7, by order; some
    of them are not power-associative."""
    loops = [L for n in range(1, 7) for L in generate_loops(n)]
    loops += [L for L in builtin_loops() if L.order <= 7]
    by_order = {}
    for L in loops:
        by_order.setdefault(L.order, []).append(L)
    return by_order


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_pruned_half_isos_equal_naive(data):
    # Relabeling changes the order in which propagation assigns elements;
    # the yield order must stay lexicographic all the same.
    pool = halfiso_pool()
    n = data.draw(st.sampled_from(sorted(pool)))
    Q = relabeled(data.draw, data.draw(st.sampled_from(pool[n])))
    R = relabeled(data.draw, data.draw(st.sampled_from(pool[n])))
    pruned = [f.mapping for f in enumerate_half_isos(Q, R)]
    assert pruned == [f.mapping for f in naive_half_isos(Q, R)]


@functools.cache
def non_associative_pool():
    """The non-associative loops of orders 5 and 6, and the order-7 dot
    table, which has elements without an inverse."""
    loops = [L for n in (5, 6) for L in generate_loops(n) if not is_associative(L)]
    return loops + [example21_dot()]


def terms(names):
    return st.recursive(
        st.sampled_from([Var(v) for v in names] + [One()]),
        lambda sub: st.one_of(
            st.builds(Mul, sub, sub),
            st.builds(LDiv, sub, sub),
            st.builds(RDiv, sub, sub),
            st.builds(Pow, sub, st.integers(-2, 2)),
        ),
        max_leaves=6,
    )


@st.composite
def statements(draw):
    """A statement over at most four variables with at most one
    hypothesis and at most two alternatives."""
    names = ("x", "y", "z", "w")[: draw(st.integers(1, 4))]
    equation = st.builds(
        lambda lhs, rhs: f"{term_to_text(lhs)} = {term_to_text(rhs)}", terms(names), terms(names)
    )
    hypotheses = draw(st.lists(equation, max_size=1))
    conclusion = draw(st.lists(equation, min_size=1, max_size=2))
    text = " | ".join(conclusion)
    stmt = parse_identity(f"{hypotheses[0]} => {text}" if hypotheses else text)
    assume(stmt.variables)
    return stmt


@settings(max_examples=100, deadline=None)
@given(st.data(), statements())
def test_random_statements_evaluate_as_the_tree_walker(data, stmt):
    # the dot table half the time: missing inverses poison blocks
    pool = non_associative_pool()
    L = data.draw(st.one_of(st.just(pool[-1]), st.sampled_from(pool[:-1])))
    L = relabeled(data.draw, L)
    want = _tree_walk(L, stmt)
    assert _compiled(L, stmt) == want
    _check_arranged_pass(L, stmt, want)


@st.composite
def sharing_statements(draw):
    """Statements of one to three variables built from a few shared
    subterms, each under its own renaming: the same subterm recurs with its
    variables swapped, merged or moved between the leading and the tail."""
    names = ("x", "y", "z")
    pool = draw(st.lists(terms(names), min_size=1, max_size=3))
    side = st.one_of(
        st.sampled_from(pool),
        st.builds(Mul, st.sampled_from(pool), st.sampled_from(pool)),
        st.builds(Pow, st.sampled_from(pool), st.sampled_from([-1, 2])),
    )
    out = []
    for _ in range(draw(st.integers(2, 6))):
        renaming = dict(zip(names, draw(st.lists(st.sampled_from(names), min_size=3, max_size=3))))
        lhs, rhs = (renamed(draw(side), renaming) for _ in "lr")
        text = f"{term_to_text(lhs)} = {term_to_text(rhs)}"
        if draw(st.booleans()):
            hyp = renamed(draw(side), renaming)
            text = f"{term_to_text(hyp)} = {term_to_text(lhs)} => {text}"
        out.append(parse_identity(text))
    return out


@st.composite
def pooled_loops(draw):
    """A relabeled loop of `non_associative_pool`, the dot table half the
    time."""
    pool = non_associative_pool()
    return relabeled(draw, draw(st.one_of(st.just(pool[-1]), st.sampled_from(pool[:-1]))))


@settings(max_examples=60, deadline=None)
@given(pooled_loops(), sharing_statements())
# one product under both orders of the tail on a non-commutative loop: a
# block named by variable instead of by tail position would be read back
# transposed, and commutativity would seem to hold
@example(
    generate_loops(5)[0],
    [parse_identity("x * y = x * y"), parse_identity("y * x = x * y")],
)
def test_blocks_kept_per_loop_answer_as_a_cold_loop(L, statements):
    # One loop's memo serves every statement in turn; each outcome must be
    # the one a fresh copy of the loop, with an empty memo, gives, and the
    # tree walker's.
    for stmt in statements:
        got = _compiled(L, stmt)
        want = _tree_walk(L, stmt)
        assert got == _compiled(make_loop(L.table), stmt) == want, statement_to_text(stmt)
