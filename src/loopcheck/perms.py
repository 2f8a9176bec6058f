"""Permutations on loop elements and finitely generated permutation groups.

Composition is postfix throughout: ``apply(compose(p, q), x)`` equals
``apply(q, apply(p, x))``, i.e. p acts first.  This makes products of
translations read in the same order as they are written.
"""
from __future__ import annotations

import math
from typing import Iterable, Iterator

from ._record import record
from .table import (
    MAX_ORDER,
    LoopTable,
    _MISSING,
    _first_difference,
    _getter,
    _products,
    is_associative,
    is_power_associative,
    multiplication_closure,
    per_loop,
)

Perm = tuple[int, ...]


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


def inner_generators(L: LoopTable) -> Iterator[tuple[str, Perm]]:
    """Yield the standard inner mapping generators, each labeled with its
    arguments.

    For every pair x, y this yields the right and left inner mappings
    R(x,y) = Rx Ry R(x*y)^-1 and L(x,y) = Lx Ly L(y*x)^-1, and for every x
    the middle mapping T(x) = Rx Lx^-1.  All of them fix the identity.
    Labels use 1-based element names.  Each mapping is two C compositions
    through translation getters built once per call: R(x,y) is
    ``rget[x](rget[y](R(x*y)^-1))``, and L(x,y) and T(x) likewise.  The
    inverse translations are rows of the loop's division tables.  The
    mappings are built as they are yielded, so a caller that stops early
    builds no more of them.
    """
    n = L.order
    t = L.table
    rights_inv, lefts_inv = L.rdiv_table, L.ldiv_table
    rget = [_getter(p) for p in L.columns]
    lget = [_getter(p) for p in t]
    for x in range(n):
        for y in range(n):
            yield f"R({x + 1},{y + 1})", rget[x](rget[y](rights_inv[t[x][y]]))
    for x in range(n):
        for y in range(n):
            yield f"L({x + 1},{y + 1})", lget[x](lget[y](lefts_inv[t[y][x]]))
    for x in range(n):
        yield f"T({x + 1})", rget[x](lefts_inv[x])


@record(frozen=True)
class StabilizerChain:
    """A permutation group as a stabilizer chain along `base`.

    ``orbits[i]`` is the orbit of ``base[i]`` under the stabilizer of
    ``base[:i]``, and the `generators` that fix ``base[:i]`` generate that
    stabilizer (a strong generating set).  Only the identity fixes every
    base point, so the group's order is the product of the orbit lengths.
    """
    degree: int
    base: tuple[int, ...]
    orbits: tuple[frozenset[int], ...]
    generators: tuple[Perm, ...]

    @property
    def order(self) -> int:
        """The exact order.  It is not ``len()``, which fails past
        ``sys.maxsize``: |S_21| is already larger."""
        return math.prod(map(len, self.orbits))


class _Level:
    """One level of a chain under construction.

    `gens` are the strong generators that fix the base points above `point`,
    and ``ginv_get[m]`` is a getter of the inverse of ``gens[m]``.  For each
    `orbit` point b, ``get[b]`` is a getter of the transversal element u_b,
    which sends `point` to b, and ``uinv[b]`` is the inverse of u_b.
    ``checked[m]`` counts the orbit points, in `orbit` order, whose Schreier
    generator with ``gens[m]`` has been sifted.
    """

    __slots__ = ("point", "gens", "ginv_get", "orbit", "get", "uinv", "checked")

    def __init__(self, point: int, ident: Perm):
        self.point = point
        self.gens: list[Perm] = []
        self.ginv_get: list = []
        self.orbit = [point]
        self.get = {point: _getter(ident)}
        self.uinv = {point: ident}
        self.checked: list[int] = []

    def add(self, g: Perm) -> None:
        """Add a strong generator and extend the orbit and transversal."""
        gens, get, uinv, orbit = self.gens, self.get, self.uinv, self.orbit
        gens.append(g)
        self.ginv_get.append(_getter(invert(g)))
        self.checked.append(0)
        todo = [(b, len(gens) - 1) for b in orbit]
        while todo:
            b, m = todo.pop()
            c = gens[m][b]
            if c not in get:
                get[c] = _getter(get[b](gens[m]))
                uinv[c] = self.ginv_get[m](uinv[b])
                orbit.append(c)
                todo.extend((c, k) for k in range(len(gens)))

    def failing_schreier_generator(self, below: list[_Level], ident: Perm):
        """Sift the unchecked Schreier generators through the levels `below`.

        The Schreier generator of orbit point b and generator x is
        u_b x u_c^-1 with c = x(b); its inverse u_c x^-1 u_b^-1 is sifted,
        which is two getter calls.  Returns the first residue that is not
        the identity, with the index in `below` where sifting stopped, or
        None when every pair sifts to the identity.
        """
        get, uinv, orbit, checked = self.get, self.uinv, self.orbit, self.checked
        for m, x in enumerate(self.gens):
            xinv_get = self.ginv_get[m]
            while checked[m] < len(orbit):
                b = orbit[checked[m]]
                checked[m] += 1
                h, j = _sift(below, get[x[b]](xinv_get(uinv[b])), ident)
                if h != ident:
                    return h, j
        return None


def _sift(levels: list[_Level], p: Perm, ident: Perm) -> tuple[Perm, int]:
    """Strip p through `levels`: the residue and the index of the level whose
    orbit misses it, or ``len(levels)`` when p passes every level.

    Each level multiplies on the left: with p(b) the level's point, p becomes
    u_b p, which fixes it.  The residue is in the group exactly when p is, and
    the getters of the transversal are built once, not once per step.
    """
    for j, level in enumerate(levels):
        if p == ident:
            break
        b = p.index(level.point)
        if b != level.point:
            get = level.get.get(b)
            if get is None:
                return p, j
            p = get(p)
    return p, len(levels)


def schreier_sims(gens: Iterable[Perm], degree: int, base: Iterable[int] = ()
                  ) -> StabilizerChain:
    """The group generated by `gens` as a stabilizer chain, deterministically.

    The base starts with `base`; a residue that fixes every base point adds
    the least point it moves.  Each distinct generator is sifted first and
    dropped when the chain already contains it.  Otherwise its residue
    becomes a strong generator, and the chain is completed again from the
    deepest level that changed: at each level every Schreier generator must
    sift to the identity through the levels below it, which are complete by
    then (Seress, *Permutation Group Algorithms*, 2003, ch. 4).  Each pair
    (orbit point, generator) is sifted once, because transversal entries
    never change once set.  The chain's transversal products are distinct
    group elements, so once the orbit lengths multiply to n! the group is
    all of S_n and the chain is complete as it stands.  No element set is
    held: the chain keeps one transversal and its inverse per level.
    """
    ident = identity_perm(degree)
    full = math.factorial(degree)
    levels = [_Level(b, ident) for b in base]
    for g in dict.fromkeys(gens):
        if len(g) != degree:
            raise ValueError(f"degree mismatch: {len(g)} vs {degree}")
        h, j = _sift(levels, g, ident)
        top = 0
        while h != ident:
            # h fixes the base points above level j: it joins levels top..j.
            if j == len(levels):
                levels.append(_Level(next(x for x, y in enumerate(h) if x != y), ident))
            for level in levels[top:j + 1]:
                level.add(h)
            if math.prod(len(level.orbit) for level in levels) == full:
                break
            # Complete the levels from j up to 0; a new residue restarts this.
            h = ident
            for i in range(j, -1, -1):
                residue = levels[i].failing_schreier_generator(levels[i + 1:], ident)
                if residue is not None:
                    h, top, j = residue[0], i + 1, i + 1 + residue[1]
                    break
    gens_out = dict.fromkeys(g for level in levels for g in level.gens)
    return StabilizerChain(
        degree,
        tuple(level.point for level in levels),
        tuple(frozenset(level.orbit) for level in levels),
        tuple(gens_out),
    )


@per_loop
def mlt_group(L: LoopTable) -> StabilizerChain:
    """Mlt(L), generated by the distinct translations (left ones first), as
    a stabilizer chain whose base starts at the identity."""
    translations = [*L.table, *L.columns]
    return schreier_sims(translations, L.order, base=(L.identity,))


def inn_group(L: LoopTable) -> StabilizerChain:
    """Inn(L) = Mlt(L)_e: the chain of `mlt_group` below its first level.

    Its strong generators are those that fix the identity, so its order is
    exactly |Mlt| / n.
    """
    mlt = mlt_group(L)
    e = L.identity
    return StabilizerChain(L.order, mlt.base[1:], mlt.orbits[1:],
                           tuple(g for g in mlt.generators if g[e] == e))


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
            return (a, _first_difference(lhs, rhs))
    return None


def is_automorphism(L: LoopTable, p: Perm) -> bool:
    return automorphism_violation(L, p) is None


@per_loop
def automorphic_violation(L: LoopTable) -> tuple[str, tuple[int, int]] | None:
    """First inner generator that is not an automorphism, with its witness pair.

    Checking the generators suffices: automorphisms form a group, so they
    contain the inner mapping group exactly when they contain its generators.
    An associative loop answers None at once: there every R(x,y) and L(x,y)
    is the identity and T(x) is conjugation.  Otherwise the labelled
    generators are scanned in order, each distinct mapping checked once,
    until the first failure.
    """
    if is_associative(L):
        return None
    seen: set[Perm] = set()
    for label, p in inner_generators(L):
        if p not in seen:
            seen.add(p)
            w = automorphism_violation(L, p)
            if w is not None:
                return (label, w)
    return None


def is_automorphic(L: LoopTable) -> bool:
    return automorphic_violation(L) is None


# The bit of each element in a domain mask, and the element of each bit.
_BITS = [1 << w for w in range(MAX_ORDER)]
_ELEMENT_OF_BIT = {b: w for w, b in enumerate(_BITS)}


@per_loop
def _order_classes(L: LoopTable) -> dict[int, int]:
    """Element order -> the mask of the elements of that order."""
    out: dict[int, int] = {}
    for v, k in enumerate(L.order_table):
        out[k] = out.get(k, 0) | _BITS[v]
    return out


def bijection_search(
    L1: LoopTable,
    L2: LoopTable,
    half: bool,
    fixed: Iterable[tuple[int, int]] = (),
) -> Iterator[Perm]:
    """Yield, in lexicographic order, every bijection f: L1 -> L2 with
    f(a*b) = f(a)f(b) for all a, b, or, when `half`, with f(a*b) in
    {f(a)f(b), f(b)f(a)}.

    Every such f is a half-isomorphism, so the rules sound for those prune
    the search: f(e) = e, and for power-associative pairs f keeps element
    orders.  Once both factors of a product are assigned, its domain (a bit
    mask over L2) narrows to the allowed images, and a domain left with one
    image is assigned at once.  Along the powers of x this assigns
    f(x^-1) = f(x)^-1 in power-associative pairs.  `fixed` holds (a, v)
    pins, assigned after the identity.  The search branches on the least
    unassigned element, images in increasing order, so all results below a
    node share the prefix before it: the order stays lexicographic although
    propagation assigns out of index order.  Loops of unequal order yield
    nothing.

    An element x that propagation assigns is first checked a row at a time:
    with f as a byte string (`_MISSING` where unassigned), four
    `bytes.translate` calls through the loops' `_products` give f(x*y),
    f(y*x), f(x)f(y) and f(y)f(x) for every y.  When both sides of x match
    allowed rows, every product of x with an assigned y is assigned and
    allowed, and x is done.  Otherwise, and for the element just branched on
    or pinned, whose products are mostly new, the assigned y are visited one
    by one in index order.
    """
    if L1.order != L2.order:
        return
    n = L1.order
    t1, t2, u1, u2 = L1.table, L2.table, L1.columns, L2.columns
    (rows1, cols1), (rows2, cols2) = _products(L1), _products(L2)
    pad = bytes(256 - n)  # makes bytes(f) a translation table; never read
    bits, element_of_bit = _BITS, _ELEMENT_OF_BIT
    if is_power_associative(L1) and is_power_associative(L2):
        by_order = _order_classes(L2)
        domains = [by_order.get(k, 0) for k in L1.order_table]
    else:
        domains = [(1 << n) - 1] * n

    def assign(f: list[int], dom: list[int], taken: list[bool], a: int, v: int) -> bool:
        # In place, assign f[a] = v, narrow the domain of every product that
        # completes, and assign each domain left with one image.  False when
        # some constraint fails.
        if f[a] != _MISSING:
            return f[a] == v
        if taken[v] or not dom[a] & bits[v]:
            return False
        f[a] = v
        taken[v] = True
        queue = [a]
        while queue:
            x = queue.pop()
            fx = f[x]
            if x != a:
                images = bytes(f)
                table = images + pad
                right, left = rows1[x][:n].translate(table), cols1[x][:n].translate(table)
                fxfy, fyfx = images.translate(rows2[fx]), images.translate(cols2[fx])
                if (right == fxfy or half and right == fyfx) and (
                    left == fyfx or half and left == fxfy
                ):
                    continue
            tx, ux, row, col = t1[x], u1[x], t2[fx], u2[fx]
            for y, fy in enumerate(f):
                if fy == _MISSING:
                    continue
                p, q = row[fy], col[fy]  # f(x)f(y), f(y)f(x)
                for c, v, u in ((tx[y], p, q), (ux[y], q, p)):
                    fc = f[c]
                    if fc == v or half and fc == u:
                        continue
                    if fc != _MISSING:
                        return False
                    d = dom[c] & (bits[v] | bits[u] if half else bits[v])
                    if not d:
                        return False
                    dom[c] = d
                    w = element_of_bit.get(d)
                    if w is not None:
                        if taken[w]:
                            return False
                        f[c] = w
                        taken[w] = True
                        queue.append(c)
        return True

    def search(f: list[int], dom: list[int], taken: list[bool]) -> Iterator[Perm]:
        if _MISSING not in f:
            yield tuple(f)
            return
        x = f.index(_MISSING)
        images = dom[x]
        while images:
            low = images & -images
            images ^= low
            g, d, t = f[:], dom[:], taken[:]
            if assign(g, d, t, x, element_of_bit[low]):
                yield from search(g, d, t)

    f, taken = [_MISSING] * n, [False] * n
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
    yield from bijection_search(L1, L2, False, fixed)


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
