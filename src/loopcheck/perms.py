"""Permutations on loop elements and finitely generated permutation groups.

Composition is postfix throughout: ``apply(compose(p, q), x)`` equals
``apply(q, apply(p, x))``, i.e. p acts first.  This makes products of
translations read in the same order as they are written.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator

from .table import (
    LoopError,
    LoopTable,
    _getter,
    is_power_associative,
    multiplication_closure,
    per_loop,
)

Perm = tuple[int, ...]

CLOSURE_CAP = 1_000_000


def identity_perm(n: int) -> Perm:
    return tuple(range(n))


def apply(p: Perm, x: int) -> int:
    return p[x]


def compose(p: Perm, q: Perm) -> Perm:
    """p then q: the tuple of q read at each entry of p, built in C."""
    if len(p) != len(q):
        raise ValueError(f"degree mismatch: {len(p)} vs {len(q)}")
    return _getter(p)(q)


def invert(p: Perm) -> Perm:
    out = [0] * len(p)
    for i, v in enumerate(p):
        out[v] = i
    return tuple(out)


@dataclass(frozen=True)
class PermGroup:
    degree: int
    elements: frozenset[Perm]
    truncated: bool = False

    def __len__(self) -> int:
        return len(self.elements)

    def __contains__(self, p: Perm) -> bool:
        return p in self.elements

    def __repr__(self) -> str:
        flag = ", truncated" if self.truncated else ""
        return f"PermGroup(degree={self.degree}, size={len(self.elements)}{flag})"


def group_closure(perms, degree: int | None = None) -> PermGroup:
    """Breadth-first closure of permutations under composition.

    Each frontier element p is extended to ``compose(g, p)`` (g acts first)
    for every generator g, through one `_getter` per generator.  Level k
    holds the products of k generators not reached at a lower level: the
    same sets as extending to ``compose(p, g)`` would give.  Closure under
    inversion is automatic for finite permutation sets.  If the element
    count would exceed `CLOSURE_CAP` the search stops with ``truncated=True``
    (the returned set is then not necessarily closed).
    """
    gens = tuple(dict.fromkeys(perms))
    if not gens:
        if degree is None:
            raise ValueError("degree is required when there are no generators")
        return PermGroup(degree, frozenset({identity_perm(degree)}))
    deg = len(gens[0])
    if degree is not None and degree != deg:
        raise ValueError(f"degree mismatch: {degree} vs {deg}")
    if any(len(p) != deg for p in gens):
        raise ValueError("generators have mixed degrees")

    gets = [_getter(g) for g in gens]
    elements = {identity_perm(deg)}
    frontier = list(elements)
    truncated = False
    while frontier and not truncated:
        new = []
        for p in frontier:
            for get in gets:
                q = get(p)
                if q not in elements:
                    elements.add(q)
                    new.append(q)
                    if len(elements) > CLOSURE_CAP:
                        truncated = True
                        break
            if truncated:
                break
        frontier = new
    return PermGroup(deg, frozenset(elements), truncated)


def inner_generators(L: LoopTable) -> list[tuple[str, Perm]]:
    """The standard inner mapping generators, each labeled with its arguments.

    For every pair x, y this yields the right and left inner mappings
    R(x,y) = Rx Ry R(x*y)^-1 and L(x,y) = Lx Ly L(y*x)^-1, and for every x
    the middle mapping T(x) = Rx Lx^-1.  All of them fix the identity.
    Labels use 1-based element names.  Each mapping is two C compositions
    through translation getters built once per call: R(x,y) is
    ``rget[x](rget[y](R(x*y)^-1))``, and L(x,y) and T(x) likewise.
    """
    n = L.order
    t = L.table
    rights = [L.right_translation(a) for a in range(n)]
    lefts = [L.left_translation(a) for a in range(n)]
    rights_inv = [invert(p) for p in rights]
    lefts_inv = [invert(p) for p in lefts]
    rget = [_getter(p) for p in rights]
    lget = [_getter(p) for p in lefts]
    out = []
    for x in range(n):
        for y in range(n):
            p = rget[x](rget[y](rights_inv[t[x][y]]))
            out.append((f"R({x + 1},{y + 1})", p))
    for x in range(n):
        for y in range(n):
            p = lget[x](lget[y](lefts_inv[t[y][x]]))
            out.append((f"L({x + 1},{y + 1})", p))
    for x in range(n):
        out.append((f"T({x + 1})", rget[x](lefts_inv[x])))
    return out


def mlt_group(L: LoopTable) -> PermGroup:
    return group_closure([*map(L.left_translation, L.elements),
                          *map(L.right_translation, L.elements)])


def inn_group(L: LoopTable) -> PermGroup:
    grp = group_closure(_distinct_inner_mappings(L))
    e = L.identity
    if any(p[e] != e for p in grp.elements):
        raise LoopError("inner closure moved the identity")
    return grp


def automorphism_violation(L: LoopTable, p: Perm) -> tuple[int, int] | None:
    """Least pair (a, b) with p(a*b) != p(a)*p(b), or None.

    Compares whole rows p(a*-) and p(a)*p(-) in C; only a row that differs
    is scanned for its least b.
    """
    if len(p) != L.order:
        raise ValueError(f"degree mismatch: {len(p)} vs {L.order}")
    t = L.table
    pget = _getter(p)
    for a, row in enumerate(t):
        lhs, rhs = _getter(row)(p), pget(t[p[a]])
        if lhs != rhs:
            return (a, next(b for b in L.elements if lhs[b] != rhs[b]))
    return None


def is_automorphism(L: LoopTable, p: Perm) -> bool:
    return automorphism_violation(L, p) is None


@per_loop
def _distinct_inner_mappings(L: LoopTable) -> dict[Perm, str]:
    """Each distinct inner generator, in generator order, with its first label."""
    first: dict[Perm, str] = {}
    for label, p in inner_generators(L):
        first.setdefault(p, label)
    return first


@per_loop
def automorphic_violation(L: LoopTable) -> tuple[str, tuple[int, int]] | None:
    """First inner generator that is not an automorphism, with its witness pair.

    Checking the generators suffices: automorphisms form a group, so they
    contain the inner mapping group exactly when they contain its generators.
    Each distinct mapping is checked once, under its first label.
    """
    for p, label in _distinct_inner_mappings(L).items():
        w = automorphism_violation(L, p)
        if w is not None:
            return (label, w)
    return None


def is_automorphic(L: LoopTable) -> bool:
    return automorphic_violation(L) is None


def bijection_search(
    L1: LoopTable,
    L2: LoopTable,
    allowed: list[list[int]],
    fixed: Iterable[tuple[int, int]] = (),
) -> Iterator[Perm]:
    """Yield, in lexicographic order, every bijection f: L1 -> L2 with
    f(a*b) in ``allowed[f(a)][f(b)]`` for all a, b.

    ``allowed[u][v]`` is a bit mask over L2 within {u*v, v*u}, so every such
    f is a half-isomorphism and the rules sound for those prune the search:
    f(e) = e, and for power-associative pairs f keeps element orders.  Once
    both factors of a product are assigned, its domain narrows to the
    allowed mask, and a domain left with one image is assigned at once.
    Along the powers of x this assigns f(x^-1) = f(x)^-1 in power-associative
    pairs.  `fixed` holds (a, v) pins, assigned after the identity.  The
    search branches on the least unassigned element, images in increasing
    order, so all results below a node share the prefix before it: the
    order stays lexicographic although propagation assigns out of index
    order.  Loops of unequal order yield nothing.
    """
    if L1.order != L2.order:
        return
    n = L1.order
    t1 = L1.table
    bits = [1 << w for w in range(n)]
    if is_power_associative(L1) and is_power_associative(L2):
        by_order: dict[int, int] = {}
        for v, k in enumerate(L2.order_table):
            by_order[k] = by_order.get(k, 0) | bits[v]
        domains = [by_order.get(k, 0) for k in L1.order_table]
    else:
        domains = [(1 << n) - 1] * n
    image_of = {b: w for w, b in enumerate(bits)}

    def assign(f: list[int], dom: list[int], taken: list[bool], a: int, v: int) -> bool:
        # In place, assign f[a] = v, narrow the domain of every product that
        # completes, and assign each domain left with one image.  False when
        # some constraint fails.
        if f[a] >= 0:
            return f[a] == v
        if taken[v] or not dom[a] & bits[v]:
            return False
        f[a] = v
        taken[v] = True
        queue = [a]
        while queue:
            x = queue.pop()
            fx = f[x]
            tx, row = t1[x], allowed[fx]
            for y, fy in enumerate(f):
                if fy < 0:
                    continue
                for c, mask in ((tx[y], row[fy]), (t1[y][x], allowed[fy][fx])):
                    fc = f[c]
                    if fc >= 0:
                        if not mask & bits[fc]:
                            return False
                        continue
                    d = dom[c] & mask
                    if not d:
                        return False
                    dom[c] = d
                    w = image_of.get(d)
                    if w is not None:
                        if taken[w]:
                            return False
                        f[c] = w
                        taken[w] = True
                        queue.append(c)
        return True

    def search(f: list[int], dom: list[int], taken: list[bool]) -> Iterator[Perm]:
        if -1 not in f:
            yield tuple(f)
            return
        x = f.index(-1)
        images = dom[x]
        while images:
            low = images & -images
            images ^= low
            g, d, t = f[:], dom[:], taken[:]
            if assign(g, d, t, x, image_of[low]):
                yield from search(g, d, t)

    f, taken = [-1] * n, [False] * n
    pins = ((L1.identity, L2.identity), *fixed)
    if all(assign(f, domains, taken, a, v) for a, v in pins):
        yield from search(f, domains, taken)


def isomorphisms(
    L1: LoopTable, L2: LoopTable, fixed: Iterable[tuple[int, int]] = ()
) -> Iterator[Perm]:
    """Yield every isomorphism L1 -> L2 as an image tuple, lexicographically.

    `bijection_search` with f(a*b) = f(a)f(b) the only allowed product.
    `fixed` holds (a, v) pairs: exactly the isomorphisms sending every such a
    to its v are yielded, still in lexicographic order.  Pairs that no
    isomorphism extends, and loops of unequal order, yield nothing.
    """
    yield from bijection_search(L1, L2, _product_masks(L2), fixed)


@per_loop
def _product_masks(L: LoopTable) -> list[list[int]]:
    """``[u][v]``: the bit of u*v."""
    bits = [1 << w for w in L.elements]
    return [[bits[w] for w in row] for row in L.table]


def _generating_sequence(L: LoopTable) -> tuple[int, ...]:
    """Greedy generators of L, elements of highest order first.

    Each one lies outside the multiplication closure of those before it, and
    the closure of all of them is L.
    """
    base: list[int] = []
    closed = {L.identity}
    for a in sorted(L.elements, key=L.element_order, reverse=True):
        if a not in closed:
            base.append(a)
            closed = multiplication_closure(L, closed | {a})
    return tuple(base)


@dataclass(frozen=True)
class StabilizerChain:
    """A permutation group as a stabilizer chain along `base`.

    ``orbits[i]`` is the orbit of ``base[i]`` under the stabilizer of
    ``base[:i]``, and the `generators` that fix ``base[:i]`` generate that
    stabilizer (a strong generating set).  The group's order is the product
    of the orbit lengths.
    """
    degree: int
    base: tuple[int, ...]
    orbits: tuple[frozenset[int], ...]
    generators: tuple[Perm, ...]

    def __len__(self) -> int:
        return math.prod(map(len, self.orbits))


def _orbit(point: int, perms) -> set[int]:
    orbit = {point}
    frontier = [point]
    while frontier:
        x = frontier.pop()
        for p in perms:
            y = p[x]
            if y not in orbit:
                orbit.add(y)
                frontier.append(y)
    return orbit


def automorphism_group(L: LoopTable) -> StabilizerChain:
    """Aut(L) as a stabilizer chain along `_generating_sequence(L)`.

    An automorphism is fixed by its images of the generators g1..gk, so the
    stabilizer of all of them is trivial and |Aut| is the product of the
    orbit lengths.  Levels are filled from the last, where the search is
    most constrained.  At level i every image v that the generators found
    so far do not already reach from gi is tried by one pinned search
    (g1..g(i-1) fixed, gi sent to v); the first isomorphism it yields is
    kept as a strong generator.  Nothing else is enumerated: callers that
    need the elements enumerate ``isomorphisms(L, L)``, and membership is
    `is_automorphism`.
    """
    base = _generating_sequence(L)
    gens: list[Perm] = []
    orbits: list[frozenset[int]] = [frozenset()] * len(base)
    for i in reversed(range(len(base))):
        pins = [(g, g) for g in base[:i]]
        orbit = _orbit(base[i], gens)
        for v in L.elements:
            if v in orbit:
                continue
            w = next(isomorphisms(L, L, fixed=[*pins, (base[i], v)]), None)
            if w is not None:
                gens.append(w)
                orbit = _orbit(base[i], gens)
        orbits[i] = frozenset(orbit)
    return StabilizerChain(L.order, base, tuple(orbits), tuple(gens))
