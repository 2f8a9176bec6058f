import random

import pytest

from loopcheck.catalog import builtin_loops, example21_star, example21_dot, generate_loops
from loopcheck.table import cyclic_group, make_loop


@pytest.fixture(scope="session")
def star():
    return example21_star()


@pytest.fixture(scope="session")
def dot():
    return example21_dot()


@pytest.fixture(scope="session")
def c5():
    return cyclic_group(5)


@pytest.fixture(scope="session")
def c7():
    return cyclic_group(7)


@pytest.fixture(scope="session")
def s3():
    """The symmetric group on 3 points, built from permutation composition."""
    from itertools import permutations

    elems = sorted(permutations(range(3)))
    index = {p: i for i, p in enumerate(elems)}
    rows = [
        [index[tuple(q[p[x]] for x in range(3))] for q in elems] for p in elems
    ]
    return make_loop(rows, name="s3")


def catalog(n):
    return generate_loops(n)


@pytest.fixture(scope="session")
def catalog5():
    return catalog(5)


@pytest.fixture(scope="session")
def catalog6():
    return catalog(6)


def _relabeled(L, seed):
    """L with its elements renamed by a seeded random permutation."""
    sigma = list(L.elements)
    random.Random(seed).shuffle(sigma)
    inv = [0] * L.order
    for i, s in enumerate(sigma):
        inv[s] = i
    return make_loop(
        [[sigma[L.table[inv[i]][inv[j]]] for j in L.elements] for i in L.elements],
        name=f"{L.name}~{seed}",
    )


@pytest.fixture(scope="session")
def oracle_loops():
    """Inputs for the fast-path oracles: the order <= 6 catalog, the builtins,
    and seeded relabelings of the two example tables.  The relabelings move
    the identity off element 0, and the non-commutative dot table is the one
    that tells L(x,y) from R(x,y)."""
    loops = [e.loop for n in range(1, 7) for e in generate_loops(n)]
    loops += [e.loop for e in builtin_loops()]
    loops += [
        _relabeled(L, seed)
        for L in (example21_star(), example21_dot())
        for seed in range(3)
    ]
    return loops
