"""Property tests: every input text either parses or is refused with a
`LoopError`, the CLI answers any file with exit code 0, 1 or 2, and pruned
half-isomorphism enumeration agrees with the naive oracle on any labeling."""
import contextlib
import functools
import io
import re

import pytest
from hypothesis import example, given, settings, strategies as st

from loopcheck.catalog import (
    builtin_loops,
    generate_loops,
    parse_loop_file,
    write_loop_file,
)
from loopcheck.cli import main
from loopcheck.halfiso import enumerate_half_isos, naive_half_isos
from loopcheck.identities import parse_identity, parse_identity_file
from loopcheck.table import LoopError, cyclic_group, make_loop

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
SMALL_LOOPS = [e.loop for e in builtin_loops() if e.loop.order <= 8]


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
    loops = [e.loop for n in range(1, 7) for e in generate_loops(n)]
    loops += [e.loop for e in builtin_loops() if e.loop.order <= 7]
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
