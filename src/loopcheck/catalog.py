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
from functools import lru_cache
from itertools import chain, groupby, permutations, product
from operator import add, eq
from typing import Callable, Iterator

from ._record import record
from .table import (
    MAX_ORDER,
    LoopTable,
    LoopError,
    OrderTooLarge,
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


@record(frozen=True)
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
    """Whether the entry's flag is set for every filter; a filter's flag is
    the field named as the filter with ``-`` spelled ``_``."""
    for f in filters:
        if f not in KNOWN_FILTERS:
            raise LoopError(f"unknown filter {f!r}; known: {', '.join(KNOWN_FILTERS)}")
        if not getattr(entry, f.replace("-", "_")):
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

    Row 1 is L_x for x = order[1], and the labels follow its cycles.  The
    cycle through the identity comes first, as labels 0, 1, ..., c - 1, and
    reads 1, 2, ..., c - 1, 0 in row 1; each later cycle of length m from
    label s reads s + 1, ..., s + m - 1, s.  A shorter cycle puts its small
    value earlier, so row 1 is least exactly for the x whose L_x has the
    least c and then the least ascending list of its other cycle lengths,
    with the other cycles taken shortest first: those of equal length in
    every order, and each from every one of its elements.
    """
    n = len(table)
    heads = []
    for x in range(n):
        if x == identity:
            continue
        row = table[x]
        head = [identity, x]
        y = row[x]
        while y != identity:
            head.append(y)
            y = row[y]
        heads.append(head)
    if not heads:
        return [[identity]]
    c = min(map(len, heads))
    by_lengths: dict[tuple[int, ...], list] = {}
    for head in heads:
        if len(head) != c:
            continue
        row = table[head[1]]
        unlabeled = set(range(n)).difference(head)
        cycles = []
        while unlabeled:
            cycle = [unlabeled.pop()]
            y = row[cycle[0]]
            while y != cycle[0]:
                cycle.append(y)
                y = row[y]
            unlabeled.difference_update(cycle)
            cycles.append(cycle)
        cycles.sort(key=len)
        by_lengths.setdefault(tuple(map(len, cycles)), []).append((head, cycles))
    orders = []
    for head, cycles in by_lengths[min(by_lengths)]:
        tails = [head]
        for length, group in groupby(cycles, len):
            rotations = [[cycle[r:] + cycle[:r] for r in range(length)] for cycle in group]
            options = [
                list(chain.from_iterable(choice))
                for arrangement in permutations(rotations)
                for choice in product(*arrangement)
            ]
            tails = [tail + option for tail in tails for option in options]
        orders += tails
    return orders


def _canonical_rows(
    table: tuple[tuple[int, ...], ...], identity: int
) -> tuple[tuple[int, ...], ...]:
    """Lexicographically least relabeled table over all relabelings that send
    the identity to label 0, found among the `_row1_orders`.

    Each candidate order is a byte string with its relabeling sigma as a
    `bytes.translate` table, so row k of its relabeled table is two C calls:
    the order through the table row of order[k], then through sigma.  Rows 0
    and 1 agree across candidates; from row 2 on, only the candidates whose
    row is least stay, and once one is left its table is built directly.
    """
    n = len(table)
    rows = [bytes(row) + bytes(256 - n) for row in table]
    labels = bytes(range(n))
    candidates = [
        (order, bytes.maketrans(order, labels))
        for order in map(bytes, _row1_orders(table, identity))
    ]
    for k in range(2, n):
        if len(candidates) == 1:
            break
        images = [order.translate(rows[order[k]]).translate(sigma)
                  for order, sigma in candidates]
        least = min(images)
        candidates = [c for c, image in zip(candidates, images) if image == least]
    order, sigma = candidates[0]
    return tuple([tuple(order.translate(rows[x]).translate(sigma)) for x in order])


def canonical_key(L: LoopTable) -> tuple[int, ...]:
    """Flattened canonical table; equal keys mean isomorphic loops."""
    return tuple(v for row in canonical_form(L).table for v in row)


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

@lru_cache(maxsize=1)  # one order at a time: 1,854 candidates at order 7
def _row_candidates(n: int) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """(cell mask, row) for every row that can follow row 0 of an order-n
    loop table with identity 0, in lexicographic order: the permutations p
    with p[j] != j for every j (row 0 holds j in column j).  The mask has
    bit j * n + p[j] for each column j."""
    offsets = range(0, n * n, n)
    return tuple(
        (sum(1 << k for k in map(add, offsets, p)), p)
        for p in permutations(range(n))
        if not any(map(eq, p, range(n)))
    )


def _completions(
    n: int,
    row1: tuple[int, ...] | None = None,
    row_ok: Callable[[tuple[int, ...]], bool] | None = None,
) -> Iterator[tuple[tuple[int, ...], ...]]:
    """Loop tables of order n with identity 0, in lexicographic order, by
    whole-row Latin-square completion: row 1 is `row1` when given, and each
    later row must pass `row_ok` when given.

    Row i's candidates are the `_row_candidates` p with p[0] = i that miss
    row 1's cells; `row_ok` is asked once per candidate.  Placing a row
    keeps only the later rows' candidates whose masks miss its cells, and a
    row left with none ends the branch.  Candidates stay in lexicographic
    order, so the tables do too.
    """
    head = (tuple(range(n)),) if row1 is None else (tuple(range(n)), tuple(row1))
    first = len(head)
    used = sum(1 << (j * n + v) for j, v in enumerate(row1 or ()))
    rows: dict[int, tuple[int, ...]] = {}
    levels: list[list[int]] = [[] for _ in range(first, n)]
    for mask, p in _row_candidates(n):
        if p[0] >= first and not mask & used and (row_ok is None or row_ok(p)):
            rows[mask] = p
            levels[p[0] - first].append(mask)

    def extend(
        table: tuple[tuple[int, ...], ...], levels: list[list[int]]
    ) -> Iterator[tuple[tuple[int, ...], ...]]:
        if len(levels) == 1:
            for mask in levels[0]:
                yield (*table, rows[mask])
            return
        for mask in levels[0]:
            later = []
            for level in levels[1:]:
                level = [m for m in level if not m & mask]
                if not level:
                    break
                later.append(level)
            else:
                yield from extend((*table, rows[mask]), later)

    if not levels:
        yield head
    elif all(levels):
        yield from extend(head, levels)


def reduced_tables(n: int) -> Iterator[tuple[tuple[int, ...], ...]]:
    """All loop tables of order n with identity 0 (first row and column in
    natural order), in lexicographic order, by whole-row Latin-square
    completion (`_completions`)."""
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


@lru_cache(maxsize=None)  # refusals raise, so at most GENERATION_HARD_CAP entries
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
            "names 23,746 classes; expect about 10 seconds",
            stacklevel=2,
        )
    forms = sorted({_canonical_rows(table, 0) for table in _orderly_tables(n)})
    names = _class_names(n, len(forms))
    return tuple(make_loop(rows, name=name) for rows, name in zip(forms, names))


def generate_loops(n: int, filters: tuple[str, ...] = ()) -> list[CatalogEntry]:
    """All loops of order n up to isomorphism, optionally filtered.

    Whole-row Latin-square completion streams the reduced tables whose
    row 1 is a fixed standard row for each (cycle type of L_1, length of its
    cycle through the identity) and whose other rows have no smaller such
    invariant (`_orderly_tables`): at least one table per class, 462 at
    order 6 and 151,884 at order 7.  Each table is replaced by its
    canonical form, the least relabeling among those whose inner row 1 is
    least (`_row1_orders`), chosen row by row with `bytes.translate`
    (`_canonical_rows`), and the distinct forms, sorted, are the classes,
    named ``n<order>_<index>``.
    Every emitted entry re-passes its filter predicates by construction of
    the flags.
    """
    entries = [make_entry(L.name, L) for L in _generate(n)]
    return [entry for entry in entries if entry_passes(entry, tuple(filters))]
