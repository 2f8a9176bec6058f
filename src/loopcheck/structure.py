"""Generated subloops, commutants, and the commuting-condition predicates.

The central condition on a loop, called co1 here, says that for all x, y:
x*(x*y) = (y*x)*x holds exactly when x*y = y*x.  co2 is its reformulation
through the middle inner mapping T: T2 fixes y exactly when T does.  The two
agree on automorphic loops, where powers of translations by the same element
commute; they are checked independently.
"""
from __future__ import annotations

import random
from dataclasses import dataclass

from .table import LoopError, LoopTable, multiplication_closure
from .perms import compose, invert


@dataclass(frozen=True)
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


def co1_violation(L: LoopTable) -> tuple[int, int, str] | None:
    """Least (x, y, direction) where x*(x*y) = (y*x)*x and x*y = y*x disagree.

    direction 'forward' means the squared condition held but the pair does
    not commute; 'backward' is the converse (impossible in flexible loops).
    """
    t = L.table
    for x in L.elements:
        for y in L.elements:
            lhs = t[x][t[x][y]] == t[t[y][x]][x]
            rhs = t[x][y] == t[y][x]
            if lhs != rhs:
                return (x, y, "forward" if lhs else "backward")
    return None


def satisfies_co1(L: LoopTable) -> bool:
    return co1_violation(L) is None


def co2_violation(L: LoopTable) -> tuple[int, int, str] | None:
    """Least (x, y, direction) where T(x)^2 fixing y and T(x) fixing y disagree."""
    for x in L.elements:
        tx = compose(L.right_translation(x), invert(L.left_translation(x)))
        for y in L.elements:
            fixed2 = tx[tx[y]] == y
            fixed1 = tx[y] == y
            if fixed2 != fixed1:
                return (x, y, "forward" if fixed2 else "backward")
    return None


def satisfies_co2(L: LoopTable) -> bool:
    return co2_violation(L) is None


def theorem31_violation(L: LoopTable) -> tuple[int, int, str] | None:
    """Least (x, y, direction) where x*(x*y) = (y*x)*x and x^2*y = y*x^2 disagree."""
    t = L.table
    for x in L.elements:
        x2 = t[x][x]
        for y in L.elements:
            lhs = t[x][t[x][y]] == t[t[y][x]][x]
            rhs = t[x2][y] == t[y][x2]
            if lhs != rhs:
                return (x, y, "forward" if lhs else "backward")
    return None


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
        h = sorted(subloop_generated(L, subset).members)
        if comm:
            for a in h:
                for b in h:
                    if t[a][b] != t[b][a]:
                        out.append(("commutative", subset, (a, b)))
                        return
        if assoc:
            for a in h:
                for b in h:
                    ab = t[a][b]
                    for c in h:
                        if t[ab][c] != t[a][t[b][c]]:
                            out.append(("associative", subset, (a, b, c)))
                            return

    for a in range(n):
        for b in range(a, n):
            if t[a][b] == t[b][a]:
                check((a, b))
    rng = random.Random(seed)
    for _ in range(trials):
        k = rng.randint(2, n)
        check(tuple(sorted(rng.sample(range(n), k))))
    return out


def check_cor21(L: LoopTable, trials: int = 200, seed: int = 0) -> bool:
    return not cor21_violations(L, trials=trials, seed=seed)
