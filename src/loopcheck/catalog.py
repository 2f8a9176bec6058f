"""Loop file I/O, built-in tables, canonical forms, and small-order
generation up to isomorphism.

File format: the header line ``loop <n> [name]``, then n rows of n
whitespace-separated 1-based entries; ``#`` comments and blank lines are
ignored; the identity is auto-detected.  The writer emits normalized
spacing, so write(parse(text)) is byte-identical for normalized files.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterator

from .table import (
    MAX_ORDER,
    LoopTable,
    LoopError,
    OrderTooLarge,
    _getter,
    cyclic_group,
    direct_product,
    is_commutative,
    is_power_associative,
    make_loop,
)
from .perms import is_automorphic, isomorphisms
from .structure import satisfies_co1

CANONICAL_ORDER_CAP = 8
GENERATION_SOFT_CAP = 6
GENERATION_HARD_CAP = 7

KNOWN_FILTERS = (
    "automorphic",
    "commutative",
    "power-associative",
    "odd-order",
    "co1",
)


class LoopFileError(LoopError):
    def __init__(self, message: str, line: int):
        self.line = line
        super().__init__(f"line {line}: {message}")


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    loop: LoopTable
    automorphic: bool
    commutative: bool
    power_associative: bool
    odd_order: bool
    co1: bool


def make_entry(name: str, L: LoopTable) -> CatalogEntry:
    return CatalogEntry(
        name=name,
        loop=L,
        automorphic=is_automorphic(L),
        commutative=is_commutative(L),
        power_associative=is_power_associative(L),
        odd_order=L.order % 2 == 1,
        co1=satisfies_co1(L),
    )


def entry_passes(entry: CatalogEntry, filters) -> bool:
    flags = {
        "automorphic": entry.automorphic,
        "commutative": entry.commutative,
        "power-associative": entry.power_associative,
        "odd-order": entry.odd_order,
        "co1": entry.co1,
    }
    for f in filters:
        if f not in flags:
            raise LoopError(f"unknown filter {f!r}; known: {', '.join(KNOWN_FILTERS)}")
        if not flags[f]:
            return False
    return True


# ---------------------------------------------------------------------------
# file format

def parse_loop_file(text: str) -> LoopTable:
    lines = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if stripped:
            lines.append((lineno, stripped))
    if not lines:
        raise LoopFileError("empty loop file", 1)
    lineno, header = lines[0]
    parts = header.split(maxsplit=2)
    if parts[0] != "loop" or len(parts) < 2:
        raise LoopFileError("header must be 'loop <n> [name]'", lineno)
    try:
        n = int(parts[1])
    except ValueError:
        raise LoopFileError(f"bad order {parts[1]!r}", lineno) from None
    if n < 1:
        raise LoopFileError("a loop needs at least one element", lineno)
    name = parts[2] if len(parts) > 2 else None
    rows = []
    if len(lines) - 1 != n:
        raise LoopFileError(
            f"expected {n} table rows, found {len(lines) - 1}", lineno
        )
    for lineno, content in lines[1:]:
        entries = content.split()
        if len(entries) != n:
            raise LoopFileError(f"expected {n} entries, found {len(entries)}", lineno)
        try:
            row = tuple(int(v) - 1 for v in entries)
        except ValueError:
            raise LoopFileError("entries must be integers", lineno) from None
        if not all(0 <= v < n for v in row):
            raise LoopFileError(f"entries must lie in 1..{n}", lineno)
        rows.append(row)
    try:
        return make_loop(rows, name=name)
    except LoopError as err:
        raise LoopFileError(str(err), lines[1][0]) from err


def write_loop_file(L: LoopTable) -> str:
    """The loop file text of L; raises `LoopError` for a name that would not
    read back: one holding ``#`` or a line break, with surrounding
    whitespace, or empty."""
    name = L.name
    if name is not None and (
        "#" in name or name.splitlines() != [name] or name != name.strip()
    ):
        raise LoopError(f"loop name {name!r} cannot be written to a loop file")
    header = f"loop {L.order}" + (f" {name}" if name else "")
    rows = [" ".join(str(v + 1) for v in row) for row in L.table]
    return "\n".join([header, *rows]) + "\n"


# ---------------------------------------------------------------------------
# built-in tables

_EXAMPLE21_STAR = (
    (1, 2, 3, 4, 5, 6, 7),
    (2, 3, 4, 5, 6, 7, 1),
    (3, 4, 5, 6, 7, 1, 2),
    (4, 5, 6, 7, 1, 2, 3),
    (5, 6, 7, 1, 2, 3, 4),
    (6, 7, 1, 2, 3, 4, 5),
    (7, 1, 2, 3, 4, 5, 6),
)

_EXAMPLE21_DOT = (
    (1, 2, 3, 4, 5, 6, 7),
    (2, 3, 7, 5, 6, 1, 4),
    (3, 4, 5, 6, 7, 2, 1),
    (4, 5, 6, 7, 1, 3, 2),
    (5, 6, 4, 1, 2, 7, 3),
    (6, 7, 1, 2, 3, 4, 5),
    (7, 1, 2, 3, 4, 5, 6),
)


def _from_one_based(rows, name: str) -> LoopTable:
    return make_loop(tuple(tuple(v - 1 for v in row) for row in rows), name=name)


@lru_cache(maxsize=1)
def example21_star() -> LoopTable:
    """The order-7 cyclic group table printed next to the non-associative twin."""
    return _from_one_based(_EXAMPLE21_STAR, "example21_star")


@lru_cache(maxsize=1)
def example21_dot() -> LoopTable:
    """The order-7 non-associative loop that receives a one-way half-isomorphism
    from the cyclic group on the same labels."""
    return _from_one_based(_EXAMPLE21_DOT, "example21_dot")


def builtin_loop(name: str) -> LoopTable:
    """Resolve a built-in loop by name: the two example tables, cyclic groups
    ``cN``, and direct products like ``c2xc3``, up to order `MAX_ORDER` (64)."""
    if name == "example21_star":
        return example21_star()
    if name == "example21_dot":
        return example21_dot()
    orders = []
    for part in name.split("x"):
        if not (part.startswith("c") and part[1:].isdigit()):
            raise LoopError(f"unknown builtin loop {name!r}")
        n = int(part[1:])
        if n < 1:
            raise LoopError(f"builtin cyclic groups start at c1; got {part}")
        orders.append(n)
    # refused before any table is built: c64xc64 would fill 16.7 M cells
    order = math.prod(orders)
    if order > MAX_ORDER:
        raise OrderTooLarge(f"{name} has order {order}, above the cap of {MAX_ORDER}")
    out = cyclic_group(orders[0])
    for n in orders[1:]:
        out = direct_product(out, cyclic_group(n))
    return LoopTable(out.order, out.table, out.identity, name=name)


@lru_cache(maxsize=1)
def builtin_loops() -> tuple[CatalogEntry, ...]:
    entries = [
        make_entry("example21_star", example21_star()),
        make_entry("example21_dot", example21_dot()),
    ]
    entries += [make_entry(f"c{n}", cyclic_group(n)) for n in range(1, 17)]
    return tuple(entries)


# ---------------------------------------------------------------------------
# canonical forms and isomorphism

def _cycle_type(perm) -> tuple[int, ...]:
    seen = [False] * len(perm)
    lengths = []
    for start in range(len(perm)):
        length = 0
        x = start
        while not seen[x]:
            seen[x] = True
            x = perm[x]
            length += 1
        if length:
            lengths.append(length)
    lengths.sort()
    return tuple(lengths)


def _row1_orders(
    table: tuple[tuple[int, ...], ...], identity: int
) -> list[list[int]]:
    """Every order of the elements, listing them by new label with the
    identity first, whose relabeled inner row 1 is least.

    Row 1 is filled cell by cell.  A free column label branches over the
    unlabeled elements; an unlabeled product takes the next free label, as
    any other makes the cell larger; after each cell only the orders whose
    value there is least stay, ties included.  Once row 1 is full every
    element is labeled, and the least table is among these orders, since
    it starts with the least row 1.
    """
    n = len(table)
    orders = [[identity, x] for x in range(n) if x != identity] or [[identity]]
    for b in range(1, n):
        cells = []
        for order in orders:
            if len(order) == b:
                branches = [[*order, y] for y in range(n) if y not in order]
            else:
                branches = [order]
            for order in branches:
                product = table[order[1]][order[b]]
                if product in order:
                    cells.append((order.index(product), order))
                else:
                    cells.append((len(order), order))
                    order.append(product)
        least = min(value for value, _ in cells)
        orders = [order for value, order in cells if value == least]
    return orders


def _canonical_rows(
    table: tuple[tuple[int, ...], ...], identity: int
) -> tuple[tuple[int, ...], ...]:
    """Lexicographically least relabeled table over all relabelings that send
    the identity to label 0, found among the `_row1_orders`."""
    def relabeled(order: list[int]) -> tuple[tuple[int, ...], ...]:
        sigma = [0] * len(order)
        for k, x in enumerate(order):
            sigma[x] = k
        get = _getter(order)
        return tuple([tuple(map(sigma.__getitem__, get(r))) for r in get(table)])

    return min(map(relabeled, _row1_orders(table, identity)))


def canonical_key(L: LoopTable) -> tuple[int, ...]:
    """Flattened canonical table; equal keys mean isomorphic loops."""
    if L.order > CANONICAL_ORDER_CAP:
        raise OrderTooLarge(
            f"canonical forms are capped at order {CANONICAL_ORDER_CAP}"
        )
    rows = _canonical_rows(L.table, L.identity)
    return tuple(v for row in rows for v in row)


def canonical_form(L: LoopTable) -> LoopTable:
    """The canonical representative of L's isomorphism class (identity at 0)."""
    if L.order > CANONICAL_ORDER_CAP:
        raise OrderTooLarge(
            f"canonical forms are capped at order {CANONICAL_ORDER_CAP}"
        )
    rows = _canonical_rows(L.table, L.identity)
    return LoopTable(L.order, rows, 0, name=L.name)


def are_isomorphic(L1: LoopTable, L2: LoopTable) -> bool:
    """Backtracking isomorphism search; independent of canonical forms and
    valid at any order."""
    if L1.order != L2.order:
        return False
    return next(isomorphisms(L1, L2), None) is not None


# ---------------------------------------------------------------------------
# exhaustive generation

def _completions(
    n: int,
    row1: tuple[int, ...] | None = None,
    row_ok: Callable[[list[int]], bool] | None = None,
) -> Iterator[tuple[tuple[int, ...], ...]]:
    """Loop tables of order n with identity 0 by backtracking Latin-square
    completion: row 1 is `row1` when given, and each later row, once
    complete, must pass `row_ok` when given."""
    full = (1 << n) - 1
    rows = [list(range(n))] + [[i] + [-1] * (n - 1) for i in range(1, n)]
    row_used = [full] + [(1 << i) for i in range(1, n)]
    col_used = [(1 << j) for j in range(n)]
    first = 1
    if row1 is not None:
        rows[1] = list(row1)
        row_used[1] = full
        for j, v in enumerate(row1):
            col_used[j] |= 1 << v
        first = 2
    cells = [(i, j) for i in range(first, n) for j in range(1, n)]
    last = n - 1

    def fill(k: int) -> Iterator[tuple[tuple[int, ...], ...]]:
        if k == len(cells):
            yield tuple(tuple(row) for row in rows)
            return
        i, j = cells[k]
        free = full & ~(row_used[i] | col_used[j])
        while free:
            bit = free & -free
            free ^= bit
            v = bit.bit_length() - 1
            rows[i][j] = v
            if j == last and row_ok is not None and not row_ok(rows[i]):
                continue
            row_used[i] |= bit
            col_used[j] |= bit
            yield from fill(k + 1)
            row_used[i] ^= bit
            col_used[j] ^= bit
        rows[i][j] = -1

    yield from fill(0)


def reduced_tables(n: int) -> Iterator[tuple[tuple[int, ...], ...]]:
    """All loop tables of order n with identity 0 (first row and column in
    natural order), by backtracking Latin-square completion."""
    return _completions(n)


def _left_invariant(row) -> tuple[tuple[int, ...], int]:
    """(cycle type of L_x, length of its cycle through the identity 0) for
    the row L_x of a non-identity x of a reduced table."""
    c = 1
    y = row[0]
    while y:
        y = row[y]
        c += 1
    return _cycle_type(row), c


def _derangement_types(n: int, least: int = 2) -> Iterator[tuple[int, ...]]:
    """The cycle types of derangements of n points, in lexicographic order:
    partitions of n into parts of at least 2, each ascending."""
    if n == 0:
        yield ()
    for part in range(least, n + 1):
        for rest in _derangement_types(n - part, part):
            yield (part, *rest)


def _standard_rows(n: int) -> list[tuple[int, ...]]:
    """One row 1 per value of `_left_invariant`, in increasing order: the
    cycle through 0 is 0 -> 1 -> ... -> c-1 -> 0, and the other cycles follow
    on consecutive labels, shortest first."""
    rows = []
    for lengths in _derangement_types(n):
        for c in sorted(set(lengths)):
            rest = list(lengths)
            rest.remove(c)
            row = []
            for length in (c, *rest):
                start = len(row)
                row += [start + (k + 1) % length for k in range(length)]
            rows.append(tuple(row))
    return rows


def _orderly_tables(n: int) -> Iterator[tuple[tuple[int, ...], ...]]:
    """The reduced tables of order n whose row 1 is a standard row and whose
    other non-identity rows have no smaller `_left_invariant`.

    Every loop class keeps a table here: take a non-identity x whose L_x has
    the least invariant and a relabeling that fixes 0 and conjugates L_x onto
    the standard row of that invariant; it sends x = L_x(0) to 1.
    """
    if n == 1:
        yield from _completions(1)
        return
    for row in _standard_rows(n):
        least = _left_invariant(row)
        yield from _completions(n, row, lambda r: _left_invariant(r) >= least)


def _class_names(n: int, count: int) -> list[str]:
    """The names ``n<order>_<index>`` of `count` classes, the index padded to
    at least three digits and to the digits of `count`, so names sort as
    their indices do."""
    width = max(3, len(str(count)))
    return [f"n{n}_{index:0{width}d}" for index in range(1, count + 1)]


# The classes of each order generated so far; `_generate` refuses orders
# outside 1..GENERATION_HARD_CAP, so this holds at most seven entries.
_GENERATED: dict[int, tuple[LoopTable, ...]] = {}


def _generate(n: int) -> tuple[LoopTable, ...]:
    if n > GENERATION_HARD_CAP:
        raise OrderTooLarge(
            f"exhaustive generation is capped at order {GENERATION_HARD_CAP}"
        )
    if n < 1:
        raise LoopError(
            f"exhaustive generation takes an order from 1 to "
            f"{GENERATION_HARD_CAP}; got {n}"
        )
    if n > GENERATION_SOFT_CAP:
        warnings.warn(
            "exhaustive generation at order 7 completes 151,884 tables and "
            "names 23,746 classes; expect about 30 seconds",
            stacklevel=2,
        )
    forms = sorted({_canonical_rows(table, 0) for table in _orderly_tables(n)})
    names = _class_names(n, len(forms))
    return tuple(make_loop(rows, name=name) for rows, name in zip(forms, names))


def generate_loops(n: int, filters: tuple[str, ...] = ()) -> list[CatalogEntry]:
    """All loops of order n up to isomorphism, optionally filtered.

    Backtracking Latin-square completion streams the reduced tables whose
    row 1 is a fixed standard row for each (cycle type of L_1, length of its
    cycle through the identity) and whose other rows have no smaller such
    invariant (`_orderly_tables`): at least one table per class, 462 at
    order 6 and 151,884 at order 7.  Each table is replaced by its
    canonical form, the least relabeling among those whose inner row 1 is
    least (`_canonical_rows`), and the distinct forms, sorted, are the
    classes, named ``n<order>_<index>``.
    Every emitted entry re-passes its filter predicates by construction of
    the flags.
    """
    base = _GENERATED.get(n)
    if base is None:
        base = _GENERATED[n] = _generate(n)
    entries = [make_entry(L.name, L) for L in base]
    return [entry for entry in entries if entry_passes(entry, tuple(filters))]
