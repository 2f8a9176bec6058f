"""Finite loops represented as validated Cayley tables.

Element ids are 0-based indices into the table; external text formats use
1-based labels (handled in `loopcheck.catalog`).
"""
from __future__ import annotations

from functools import cached_property, wraps
from operator import eq, itemgetter

from ._record import field, record

MAX_ORDER = 64


class LoopError(Exception):
    """Base class for all errors raised by this package."""


class NotLatinSquare(LoopError):
    def __init__(self, axis: str, index: int):
        self.axis = axis
        self.index = index
        super().__init__(f"{axis} {index} is not a permutation of the elements")


class NoIdentity(LoopError):
    """No element acts as a two-sided identity."""


class NoTwoSidedInverse(LoopError):
    def __init__(self, element: int, left: int, right: int):
        self.element = element
        self.left = left
        self.right = right
        super().__init__(
            f"element {element} has left inverse {left} but right inverse {right}"
        )


class NoFiniteOrder(LoopError):
    """Left-nested powers of an element cycle without reaching the identity."""


class NotUniquely2Divisible(LoopError):
    """The squaring map is not a bijection."""


class OrderTooLarge(LoopError):
    """The requested operation is capped at a smaller order."""


class NotAutomorphicWarning(UserWarning):
    """A check whose soundness assumes an automorphic loop ran without that
    hypothesis being verified."""


@record(frozen=True)
class LoopTable:
    """A finite loop: an n-by-n Cayley table with a two-sided identity.

    ``table[a][b]`` holds a*b.  Instances are immutable and hashable; build
    them through `make_loop` or the constructors below, which validate the
    Latin-square and identity axioms.
    """

    order: int
    table: tuple[tuple[int, ...], ...]
    identity: int
    name: str | None = field(default=None, compare=False)

    def __repr__(self) -> str:
        return f"LoopTable(order={self.order}, name={self.name!r})"

    @property
    def elements(self) -> range:
        return range(self.order)

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def ldiv(self, a: int, b: int) -> int:
        """The unique x with a*x = b."""
        return self.ldiv_table[a][b]

    def rdiv(self, a: int, b: int) -> int:
        """The unique y with y*a = b."""
        return self.rdiv_table[a][b]

    def left_translation(self, a: int) -> tuple[int, ...]:
        """The permutation x -> a*x (row a of the table)."""
        return self.table[a]

    def right_translation(self, a: int) -> tuple[int, ...]:
        """The permutation x -> x*a (column a of the table)."""
        return self.columns[a]

    def has_two_sided_inverse(self, a: int) -> bool:
        return self.inverse_table[a] >= 0

    def inverse(self, a: int) -> int:
        inv = self.inverse_table[a]
        if inv < 0:
            raise NoTwoSidedInverse(
                a, self.rdiv(a, self.identity), self.ldiv(a, self.identity)
            )
        return inv

    def power(self, a: int, k: int) -> int:
        """Left-nested power: a^0 = 1 and a^k = a^(k-1) * a.

        Negative exponents use a^(-k) = (a^-1)^k and require a two-sided
        inverse.  In power-associative loops this agrees with every other
        bracketing; elsewhere it is the canonical convention of this package.
        """
        if k < 0:
            a = self.inverse(a)
            k = -k
        acc = self.identity
        row_of = self.table
        for _ in range(k):
            acc = row_of[acc][a]
        return acc

    def power_table(self, k: int) -> tuple[int, ...]:
        """``a^k`` for every element a; -1 where k < 0 and a has no
        two-sided inverse.

        Each table is one lookup per element from a cached neighbour:
        ``a^j = a^(j-1) * a`` from the table below it, and ``a^-k`` is
        ``(a^-1)^k``, the table for k read at the inverses.
        """
        tables = self._power_tables
        if k not in tables:
            if k < 0:
                pos = self.power_table(-k)
                tables[k] = tuple(-1 if i < 0 else pos[i] for i in self.inverse_table)
            else:
                tables.setdefault(0, (self.identity,) * self.order)
                rows = self.table
                start = max(j for j in tables if 0 <= j <= k)
                for j in range(start + 1, k + 1):
                    tables[j] = tuple(rows[p][a] for a, p in enumerate(tables[j - 1]))
        return tables[k]

    def element_order(self, a: int) -> int:
        """Least k >= 1 with a^k = 1 under left-nested powers."""
        return self.order_table[a]

    def sqrt(self, a: int) -> int:
        """The unique square root of a; requires a uniquely 2-divisible loop."""
        roots = self.sqrt_table
        if roots is None:
            raise NotUniquely2Divisible(f"squaring is not a bijection on {self!r}")
        return roots[a]

    # Derived tables.  `cached_property` stores each one in the instance
    # ``__dict__`` on first use, which bypasses the frozen ``__setattr__``
    # and leaves equality and hashing to the three compared fields.  So a
    # lookup costs about what ``mul`` costs, and the tables die with the loop.

    @cached_property
    def columns(self) -> tuple[tuple[int, ...], ...]:
        """The transposed table: ``columns[b][a]`` is a*b, so column b is the
        right translation by b."""
        return tuple(zip(*self.table))

    @cached_property
    def ldiv_table(self) -> tuple[tuple[int, ...], ...]:
        """``ldiv_table[a][b]`` is the x with a*x = b."""
        n = self.order
        out = [[0] * n for _ in range(n)]
        for a, row in enumerate(self.table):
            for x, b in enumerate(row):
                out[a][b] = x
        return tuple(tuple(r) for r in out)

    @cached_property
    def rdiv_table(self) -> tuple[tuple[int, ...], ...]:
        """``rdiv_table[a][b]`` is the y with y*a = b."""
        n = self.order
        out = [[0] * n for _ in range(n)]
        for y, row in enumerate(self.table):
            for a, b in enumerate(row):
                out[a][b] = y
        return tuple(tuple(r) for r in out)

    @cached_property
    def inverse_table(self) -> tuple[int, ...]:
        """The two-sided inverse of every element; -1 marks elements whose
        left and right inverses differ."""
        e = self.identity
        rights = [row.index(e) for row in self.table]
        lefts = [col.index(e) for col in self.columns]
        return tuple(r if r == l else -1 for r, l in zip(rights, lefts))

    @cached_property
    def order_table(self) -> tuple[int, ...]:
        e = self.identity
        n = self.order
        out = []
        for a in self.elements:
            x, k = a, 1
            while x != e:
                x = self.table[x][a]
                k += 1
                if k > n:
                    # Unreachable for a valid loop (right translations are
                    # bijections, so the left-power orbit always returns to 1).
                    raise NoFiniteOrder(f"left powers of {a} never reach the identity")
            out.append(k)
        return tuple(out)

    @cached_property
    def sqrt_table(self) -> tuple[int, ...] | None:
        """The square root of every element, or None when squaring is not a
        bijection."""
        squares = squaring_map(self)
        if len(set(squares)) != self.order:
            return None
        out = [0] * self.order
        for a, sq in enumerate(squares):
            out[sq] = a
        return tuple(out)

    @cached_property
    def _power_tables(self) -> dict[int, tuple[int, ...]]:
        return {}


def per_loop(fn):
    """Memoize `fn(L, *args)` on the loop instance itself.

    Like `cached_property`, the value lives in the instance ``__dict__``: no
    global cache keeps loops alive and no lookup re-hashes the table.  The
    key is the function's qualified name, joined into a tuple with `args`
    when there are any, so each argument tuple has its own value.
    """
    name = f"{fn.__module__}.{fn.__qualname__}"

    @wraps(fn)
    def memoized(L: LoopTable, *args):
        key = (name, *args) if args else name
        memo = L.__dict__
        if key not in memo:
            memo[key] = fn(L, *args)
        return memo[key]

    return memoized


def _getter(p: tuple[int, ...]):
    """A callable with ``_getter(p)(q) == tuple(q[v] for v in p)``.

    This is ``perms.compose(p, q)`` without the degree check: an
    `itemgetter` over p's entries, so the work runs in C.  Build it once and
    reuse it for many q.  With fewer than two indices `itemgetter` would
    return a scalar, so degrees 0 and 1 get a tuple-building function.
    """
    if len(p) < 2:
        return lambda q: tuple(q[v] for v in p)
    return itemgetter(*p)


# Byte tables: `MAX_ORDER` is 64, so every element fits in a byte and 255 is
# free to mark a missing element (an inverse that does not exist, an image
# not yet assigned).
_MISSING = 255


@per_loop
def _translations(L: LoopTable, attr: str, axis: str | int):
    """`bytes.translate` tables for one of `L`'s lookup tables.

    For ``table``, ``ldiv_table`` and ``rdiv_table``, `axis` is ``"rows"``
    or ``"cols"``: the tuple holds one translation per row, or per column,
    so ``rows[a][b] == cols[b][a]`` is the table's entry.  For
    ``power_table``, `axis` is the exponent and the result is one
    translation, with `_MISSING` where there is no inverse.  Every byte from
    n up translates to itself, so `_MISSING` stays `_MISSING`.  The columns
    of a commutative loop's table are its rows, and share their bytes.
    """
    pad = bytes(range(L.order, 256))
    if attr == "power_table":
        return bytes(_MISSING if v < 0 else v for v in L.power_table(axis)) + pad
    if (attr, axis) == ("table", "cols") and is_commutative(L):
        return _translations(L, "table", "rows")
    rows = getattr(L, attr)
    if axis == "cols":
        rows = L.columns if attr == "table" else zip(*rows)
    return tuple(bytes(r) + pad for r in rows)


@per_loop
def _products(L: LoopTable):
    """`L`'s product translations by row and by column, from one lookup
    that builds no key tuple: searches and surveys read both per call."""
    return _translations(L, "table", "rows"), _translations(L, "table", "cols")


def _first_difference(p, q) -> int:
    """The least index at which the equal-length sequences p and q differ;
    they must differ somewhere.  One C pass builds the comparison list."""
    return list(map(eq, p, q)).index(False)


def make_loop(matrix, name: str | None = None) -> LoopTable:
    """Validate a square 0-based integer matrix as a loop Cayley table.

    Raises `NotLatinSquare` when a row or column repeats an entry and
    `NoIdentity` when no element is a two-sided identity.  The identity is
    auto-detected; it need not be element 0.

    Each row and column is compared whole with the set of the n elements,
    in C; only a row that differs is scanned for entries out of range, so
    the first fault is named as before.
    """
    rows = tuple(tuple(map(int, row)) for row in matrix)
    n = len(rows)
    if n < 1:
        raise LoopError("a loop needs at least one element")
    if n > MAX_ORDER:
        raise OrderTooLarge(f"order {n} exceeds the cap of {MAX_ORDER}")
    full = frozenset(range(n))
    for i, row in enumerate(rows):
        if len(row) != n:
            raise LoopError(f"row {i} has {len(row)} entries, expected {n}")
        if frozenset(row) != full:
            if not all(0 <= v < n for v in row):
                raise LoopError(f"row {i} contains entries outside 0..{n - 1}")
            raise NotLatinSquare("row", i)
    for j, col in enumerate(zip(*rows)):
        if frozenset(col) != full:
            raise NotLatinSquare("column", j)
    # a Latin square has at most one row equal to the identity's
    id_row = tuple(range(n))
    identity = rows.index(id_row) if id_row in rows else -1
    if identity < 0 or tuple(map(itemgetter(identity), rows)) != id_row:
        raise NoIdentity("no element acts as a two-sided identity")
    return LoopTable(order=n, table=rows, identity=identity, name=name)


def squaring_map(L: LoopTable) -> tuple[int, ...]:
    return tuple(L.table[a][a] for a in L.elements)


def is_uniquely_2_divisible(L: LoopTable) -> bool:
    return L.sqrt_table is not None


# ---------------------------------------------------------------------------
# predicates; each *_violation returns the lexicographically least failing
# tuple, or None when the property holds.  Each compares whole rows, columns
# or compositions of them in C, and scans only a pair that differs for its
# least witness.

@per_loop
def commutativity_violation(L: LoopTable) -> tuple[int, int] | None:
    """Least (a, b) with a*b != b*a: row a against column a."""
    for a, (row, col) in enumerate(zip(L.table, L.columns)):
        if row != col:
            return (a, _first_difference(row, col))
    return None


@per_loop
def associativity_violation(L: LoopTable) -> tuple[int, int, int] | None:
    """Least (a, b, c) with (a*b)*c != a*(b*c), or None."""
    return _associativity_violation_of(L.table)


def _associativity_violation_of(t) -> tuple[int, int, int] | None:
    """Least (a, b, c) with (a*b)*c != a*(b*c) in the table t of a magma on
    0..m-1, or None.

    For each a the m^2 products of the flattened table, byte i = b*m + c
    holding b*c, go through row a in one `bytes.translate`, which gives
    a*(b*c); the rows of the a*b, joined in b order, give (a*b)*c.  So each a
    costs three C calls, and the first differing byte is the witness.
    """
    m = len(t)
    rows = [bytes(row) for row in t]
    flat = b"".join(rows)
    pad = bytes(256 - m)
    for a, row in enumerate(t):
        lhs = b"".join(_getter(row)(rows))
        rhs = flat.translate(rows[a] + pad)
        if lhs != rhs:
            i = _first_difference(lhs, rhs)
            return (a, i // m, i % m)
    return None


@per_loop
def flexibility_violation(L: LoopTable) -> tuple[int, int] | None:
    """Least (a, b) with a*(b*a) != (a*b)*a: row a read at column a against
    column a read at row a."""
    for a, (row, col) in enumerate(zip(L.table, L.columns)):
        lhs, rhs = _getter(col)(row), _getter(row)(col)
        if lhs != rhs:
            return (a, _first_difference(lhs, rhs))
    return None


@per_loop
def aaip_violation(L: LoopTable) -> tuple | None:
    """Violation of (a*b)^-1 = b^-1 * a^-1.

    A 1-tuple (a,) flags the least element without a two-sided inverse; a
    pair (a, b) is a genuine violation of the identity.  For each a, the
    inverses read at row a are compared with column a^-1 read at the
    inverses.
    """
    inv = L.inverse_table
    if -1 in inv:
        return (inv.index(-1),)
    inverses_of = _getter(inv)
    cols = L.columns
    for a, row in enumerate(L.table):
        lhs, rhs = _getter(row)(inv), inverses_of(cols[inv[a]])
        if lhs != rhs:
            return (a, _first_difference(lhs, rhs))
    return None


def multiplication_closure(L: LoopTable, seeds) -> set[int]:
    """The least subset of L containing `seeds` and closed under products.

    Each round reads the rows and columns of the elements found in the last
    round through one getter over the closed set, so each frontier element
    takes all its products with the closed set in two C calls.
    """
    rows, cols = L.table, L.columns
    closed = set(seeds)
    frontier = closed
    while frontier:
        on_closed = _getter(tuple(closed))
        found: set[int] = set()
        for x in frontier:
            found.update(on_closed(rows[x]), on_closed(cols[x]))
        frontier = found - closed
        closed |= frontier
    return closed


@per_loop
def power_associativity_violation(L: LoopTable) -> tuple[int] | None:
    """Least element whose multiplication closure fails to be an abelian group.

    A closure is a subloop; if it is associative it is a group generated by
    one element, so cyclic, so abelian.  Only associativity is checked, and
    an associative loop holds at once.
    """
    if is_associative(L):
        return None
    t = L.table
    # An element inside a closure that passed generates a subset of it,
    # which is associative too, so it needs no check.
    passed: set[int] = set()
    for a in L.elements:
        if a in passed:
            continue
        h = sorted(multiplication_closure(L, (a,)))
        # a closure that is all of L is not associative
        if len(h) == L.order or _associativity_violation_of(_restricted(t, h)):
            return (a,)
        passed.update(h)
    return None


def _restricted(t, h: list[int]) -> list[tuple[int, ...]]:
    """The table t restricted to its product-closed subset h, with h[j]
    renamed j."""
    on_h, index = _getter(h), {x: j for j, x in enumerate(h)}
    return [tuple(map(index.__getitem__, on_h(t[x]))) for x in h]


def is_commutative(L: LoopTable) -> bool:
    return commutativity_violation(L) is None


def is_associative(L: LoopTable) -> bool:
    return associativity_violation(L) is None


def is_flexible(L: LoopTable) -> bool:
    return flexibility_violation(L) is None


def has_aaip(L: LoopTable) -> bool:
    return aaip_violation(L) is None


def is_power_associative(L: LoopTable) -> bool:
    return power_associativity_violation(L) is None


# ---------------------------------------------------------------------------
# constructors

def cyclic_group(n: int, name: str | None = None) -> LoopTable:
    """Addition mod n on 0..n-1."""
    if n < 1:
        raise LoopError("cyclic_group needs n >= 1")
    rows = tuple(tuple((i + j) % n for j in range(n)) for i in range(n))
    return make_loop(rows, name=name if name is not None else f"c{n}")


def direct_product(L1: LoopTable, L2: LoopTable, name: str | None = None) -> LoopTable:
    """Componentwise product; element (i, j) is encoded as i*|L2| + j."""
    n1, n2 = L1.order, L2.order
    t1, t2 = L1.table, L2.table
    rows = tuple(
        tuple(t1[i1][j1] * n2 + t2[i2][j2] for j1 in range(n1) for j2 in range(n2))
        for i1 in range(n1)
        for i2 in range(n2)
    )
    if name is None and L1.name and L2.name:
        name = f"{L1.name}x{L2.name}"
    return make_loop(rows, name=name)


def opposite(L: LoopTable, name: str | None = None) -> LoopTable:
    """The loop with the transposed table: a *' b = b * a."""
    rows = tuple(tuple(L.table[b][a] for b in L.elements) for a in L.elements)
    if name is None and L.name:
        name = f"{L.name}_op"
    return make_loop(rows, name=name)
