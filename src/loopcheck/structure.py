"""Generated subloops, commutants, and the commuting-condition predicates.

The central condition on a loop, called co1 here, says that for all x, y:
x*(x*y) = (y*x)*x holds exactly when x*y = y*x.  co2 is its reformulation
through the middle inner mapping T: T2 fixes y exactly when T does.  The two
agree on automorphic loops, where powers of translations by the same element
commute; they are checked independently.
"""
from __future__ import annotations

import random
from operator import eq

from ._record import record
from .table import (
    LoopError,
    LoopTable,
    _associativity_violation_of,
    _first_difference,
    _getter,
    _restricted,
    multiplication_closure,
    per_loop,
    squaring_map,
)


@record(frozen=True)
class SubloopClosure:
    members: frozenset[int]
    generated_from: frozenset[int]

    def __len__(self) -> int:
        return len(self.members)

    def __contains__(self, a: int) -> bool:
        return a in self.members


def subloop_generated(L: LoopTable, S) -> SubloopClosure:
    """Least multiplication-closed subset containing S.

    In a finite loop this is automatically a subloop: it contains the
    identity and is closed under both divisions (translations restricted to
    a finite closed set are bijections).  Both facts are checked here
    rather than engineered, so the construction doubles as a check.
    """
    seeds = frozenset(S)
    if not seeds:
        raise ValueError("subloop_generated needs a nonempty generating set")
    if any(not 0 <= a < L.order for a in seeds):
        raise ValueError("generating set contains invalid element ids")
    members = multiplication_closure(L, seeds)
    if L.identity not in members:
        raise LoopError("multiplication closure misses the identity")
    if not all(
        L.ldiv(a, b) in members and L.rdiv(a, b) in members
        for a in members
        for b in members
    ):
        raise LoopError("multiplication closure is not closed under division")
    return SubloopClosure(frozenset(members), seeds)


def commutant(L: LoopTable, S) -> frozenset[int]:
    """Elements commuting with every member of S."""
    seeds = frozenset(S)
    if not seeds:
        raise ValueError("commutant needs a nonempty subset")
    t = L.table
    return frozenset(
        x for x in L.elements if all(t[x][y] == t[y][x] for y in seeds)
    )


def _squared_condition_disagreement(L: LoopTable, partners) -> tuple[int, int, str] | None:
    """Least (x, y, direction) where x*(x*y) = (y*x)*x and p*y = y*p
    disagree, with p = ``partners[x]``.

    For each x, two C compositions give x*(x*-) and (-*x)*x; when they agree
    everywhere and row p equals column p, x has no witness.  Otherwise the
    two conditions are compared as lists of booleans.
    """
    rows, cols = L.table, L.columns
    for x, p in enumerate(partners):
        row, col = rows[x], cols[x]
        twice_left, twice_right = _getter(row)(row), _getter(col)(col)
        if twice_left == twice_right and rows[p] == cols[p]:
            continue
        lhs = list(map(eq, twice_left, twice_right))
        rhs = list(map(eq, rows[p], cols[p]))
        if lhs != rhs:
            y = _first_difference(lhs, rhs)
            return (x, y, "forward" if lhs[y] else "backward")
    return None


@per_loop
def co1_violation(L: LoopTable) -> tuple[int, int, str] | None:
    """Least (x, y, direction) where x*(x*y) = (y*x)*x and x*y = y*x disagree.

    direction 'forward' means the squared condition held but the pair does
    not commute; 'backward' is the converse (impossible in flexible loops).
    """
    return _squared_condition_disagreement(L, L.elements)


def satisfies_co1(L: LoopTable) -> bool:
    return co1_violation(L) is None


def co2_violation(L: LoopTable) -> tuple[int, int, str] | None:
    """Least (x, y, direction) where T(x)^2 fixing y and T(x) fixing y disagree.

    T(x) = Rx Lx^-1 sends y to x\\(y*x): the row of ``ldiv_table`` at x read
    at column x.
    """
    ident = tuple(L.elements)
    for x, col in enumerate(L.columns):
        tx = _getter(col)(L.ldiv_table[x])
        if tx == ident:
            continue
        fixed1 = list(map(eq, tx, ident))
        fixed2 = list(map(eq, _getter(tx)(tx), ident))
        if fixed2 != fixed1:
            y = _first_difference(fixed2, fixed1)
            return (x, y, "forward" if fixed2[y] else "backward")
    return None


def satisfies_co2(L: LoopTable) -> bool:
    return co2_violation(L) is None


def theorem31_violation(L: LoopTable) -> tuple[int, int, str] | None:
    """Least (x, y, direction) where x*(x*y) = (y*x)*x and x^2*y = y*x^2 disagree."""
    return _squared_condition_disagreement(L, squaring_map(L))


def cor21_violations(
    L: LoopTable, trials: int = 200, seed: int = 0
) -> list[tuple[str, tuple[int, ...], tuple]]:
    """Closure of a commutative (associative) subset must stay commutative
    (associative); sound for automorphic loops.

    All 2-element commuting subsets are checked exhaustively; `trials`
    larger subsets are sampled with the given seed.  Returns a list of
    (kind, subset, witness) violations, empty when the property holds.
    """
    t = L.table
    n = L.order
    out = []

    def check(subset: tuple[int, ...]) -> None:
        comm = all(t[a][b] == t[b][a] for a in subset for b in subset)
        assoc = all(
            t[t[a][b]][c] == t[a][t[b][c]] for a in subset for b in subset for c in subset
        )
        if not (comm or assoc):
            return
        # h is sorted, so the least witness among the indices of the
        # restricted table maps through h to the least among the elements
        h = sorted(subloop_generated(L, subset).members)
        rows = _restricted(t, h)
        if comm:
            for a, (row, col) in enumerate(zip(rows, zip(*rows))):
                if row != col:
                    b = _first_difference(row, col)
                    out.append(("commutative", subset, (h[a], h[b])))
                    return
        if assoc:
            witness = _associativity_violation_of(rows)
            if witness is not None:
                out.append(("associative", subset, tuple(h[i] for i in witness)))

    for a in range(n):
        for b in range(a, n):
            if t[a][b] == t[b][a]:
                check((a, b))
    if n >= 2:
        rng = random.Random(seed)
        for _ in range(trials):
            k = rng.randint(2, n)
            check(tuple(sorted(rng.sample(range(n), k))))
    return out


def check_cor21(L: LoopTable, trials: int = 200, seed: int = 0) -> bool:
    return not cor21_violations(L, trials=trials, seed=seed)
