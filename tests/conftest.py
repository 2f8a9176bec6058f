import random

import pytest

from loopcheck.catalog import builtin_loops, example21_star, example21_dot, generate_loops
from loopcheck.table import cyclic_group, direct_product, make_loop


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
    return make_loop(t, name=f"z2^{k}/{switches}~{seed}")


@pytest.fixture(scope="session")
def witness_loops(oracle_loops):
    """Inputs for the whole-table predicates and conditions: the oracle
    loops, a seeded relabeling of each, and non-associative loops of order
    12, 56 and 64, whose rows are long enough for a least witness to sit deep
    inside a row or column compared in one C call."""
    return (
        oracle_loops
        + [_relabeled(L, 100 + i) for i, L in enumerate(oracle_loops)]
        + [switched_elementary_abelian(6, k, seed) for k, seed in ((1, 1), (8, 2), (40, 7))]
        + [direct_product(example21_dot(), cyclic_group(8))]
        # commutative, with a proper one-generated closure that is not associative
        + [direct_product(next(e.loop for e in generate_loops(6) if e.name == "n6_002"),
                          cyclic_group(2))]
    )


def assert_matches_oracle(kernel, reference, loops):
    """`kernel` returns what `reference` returns on every loop, and the
    loops reach both None and a witness whose elements are all nonzero.
    Returns the witnesses."""
    witnesses = []
    for L in loops:
        want = reference(L)
        assert kernel(L) == want, L.name
        witnesses.append(want)
    assert None in witnesses
    assert any(
        w is not None and all(v > 0 for v in w if isinstance(v, int)) for w in witnesses
    )
    return witnesses
