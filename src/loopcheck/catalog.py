"""Loop file I/O, built-in tables, canonical forms, and small-order
generation up to isomorphism.

File format: the header line ``loop <n> [name]``, then n rows of n
whitespace-separated 1-based entries; ``#`` comments and blank lines are
ignored; the identity is auto-detected.  The writer emits normalized
spacing, so write(parse(text)) is byte-identical for normalized files.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, groupby, islice, permutations, product
from typing import Iterable, Iterator

from .table import (
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
    ``cN`` (N <= 16), and direct products like ``c2xc3``."""
    if name == "example21_star":
        return example21_star()
    if name == "example21_dot":
        return example21_dot()
    factors = name.split("x")
    loops = []
    for part in factors:
        if not (part.startswith("c") and part[1:].isdigit()):
            raise LoopError(f"unknown builtin loop {name!r}")
        n = int(part[1:])
        if not 1 <= n <= 16:
            raise LoopError(f"builtin cyclic groups are capped at c16; got {part}")
        loops.append(cyclic_group(n))
    out = loops[0]
    for other in loops[1:]:
        out = direct_product(out, other)
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


def _cell_relabelings(table: tuple[tuple[int, ...], ...]) -> Iterator[list[int]]:
    """The orders of a reduced table's elements that list the identity 0
    first and then the cells in order, permuted within each cell.

    A cell holds the non-identity elements x with one value of
    (cycle type of L_x, cycle type of R_x); cells are ordered by that value.
    An isomorphism maps cells onto equal cells, so it maps this candidate
    set of one loop onto that of the other.
    """
    n = len(table)
    invariant = {
        x: (_cycle_type(table[x]), _cycle_type([row[x] for row in table]))
        for x in range(1, n)
    }
    elements = sorted(range(1, n), key=invariant.__getitem__)
    cells = [
        list(cell) for _, cell in groupby(elements, key=invariant.__getitem__)
    ]
    # Lists, not iterators: tuples that `product` builds from iterators are
    # resized, bypass CPython's tuple free lists and then pile up in them.
    for parts in product(*[list(permutations(cell)) for cell in cells]):
        yield [0, *chain.from_iterable(parts)]


def _least_inner(
    table: tuple[tuple[int, ...], ...], orders: Iterable[list[int]]
) -> tuple[int, ...]:
    """Lexicographically least relabeled inner table over the candidate
    orders, each listing the original elements by new label with the
    identity first.

    Every candidate's row 0 and column 0 are forced, so only the inner
    (n-1)^2 cells are compared, flattened, with early abort against the
    best so far.
    """
    sigma = [0] * len(table)
    best: list[int] | None = None
    for order in orders:
        for k, x in enumerate(order):
            sigma[x] = k
        inner = order[1:]
        if best is None:
            best = [sigma[table[a][b]] for a in inner for b in inner]
            continue
        idx = 0
        smaller = False
        cand: list[int] = []
        abort = False
        for a in inner:
            row = table[a]
            for b in inner:
                v = sigma[row[b]]
                if smaller:
                    cand.append(v)
                    continue
                w = best[idx]
                if v > w:
                    abort = True
                    break
                if v < w:
                    smaller = True
                    cand = best[:idx]
                    cand.append(v)
                idx += 1
            if abort:
                break
        if smaller and not abort:
            best = cand
    return tuple(best)


def _canonical_rows(
    table: tuple[tuple[int, ...], ...], identity: int
) -> tuple[tuple[int, ...], ...]:
    """Lexicographically least relabeled table over all relabelings that send
    the identity to label 0."""
    n = len(table)
    rest = [x for x in range(n) if x != identity]
    inner = _least_inner(table, ([identity, *tail] for tail in permutations(rest)))
    rows = [tuple(range(n))]
    for i in range(1, n):
        rows.append((i, *inner[(i - 1) * (n - 1) : i * (n - 1)]))
    return tuple(rows)


def _dedupe_key(table: tuple[tuple[int, ...], ...]) -> tuple[int, ...]:
    """A complete invariant of a reduced table: equal keys hold exactly for
    isomorphic loops.  It is the least inner table over the cell
    relabelings only, so it is not the lexicographic `canonical_key`."""
    return _least_inner(table, _cell_relabelings(table))


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


def find_isomorphism(L1: LoopTable, L2: LoopTable):
    return next(isomorphisms(L1, L2), None)


def are_isomorphic(L1: LoopTable, L2: LoopTable) -> bool:
    """Backtracking isomorphism search; independent of canonical forms and
    valid at any order."""
    if L1.order != L2.order:
        return False
    return find_isomorphism(L1, L2) is not None


# ---------------------------------------------------------------------------
# exhaustive generation

def reduced_tables(n: int) -> Iterator[tuple[tuple[int, ...], ...]]:
    """All loop tables of order n with identity 0 (first row and column in
    natural order), by backtracking Latin-square completion."""
    if n == 1:
        yield ((0,),)
        return
    full = (1 << n) - 1
    rows = [list(range(n))] + [[i] + [-1] * (n - 1) for i in range(1, n)]
    row_used = [full] + [(1 << i) for i in range(1, n)]
    col_used = [(1 << j) for j in range(n)]
    cells = [(i, j) for i in range(1, n) for j in range(1, n)]

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
            row_used[i] |= bit
            col_used[j] |= bit
            yield from fill(k + 1)
            row_used[i] ^= bit
            col_used[j] ^= bit
        rows[i][j] = -1

    yield from fill(0)


def _shard_keys(
    n: int, shard: int, jobs: int
) -> dict[tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """One class representative per `_dedupe_key` among every `jobs`-th
    reduced table of order n, starting at index `shard`: the first table
    seen of each class.  The tables stream, so memory holds only the keys
    and their representatives."""
    classes = {}
    for table in islice(reduced_tables(n), shard, None, jobs):
        classes.setdefault(_dedupe_key(table), table)
    return classes


# The classes of each order generated so far, whatever `jobs` built them;
# `_generate` refuses orders outside 1..GENERATION_HARD_CAP, so this holds
# at most seven entries.
_GENERATED: dict[int, tuple[LoopTable, ...]] = {}


def _generate(n: int, jobs: int) -> tuple[LoopTable, ...]:
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
            f"exhaustive generation at order {n} enumerates millions of "
            "tables; expect a long run",
            stacklevel=2,
        )
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as ex:
            shards = ex.map(_shard_keys, [n] * jobs, range(jobs), [jobs] * jobs)
            representatives = {}
            for shard in shards:
                representatives.update(shard)
    else:
        representatives = _shard_keys(n, 0, 1)
    # Names follow the lexicographic key, computed once per class.
    forms = sorted(_canonical_rows(table, 0) for table in representatives.values())
    return tuple(
        make_loop(rows, name=f"n{n}_{index:03d}")
        for index, rows in enumerate(forms, start=1)
    )


def generate_loops(
    n: int, filters: tuple[str, ...] = (), jobs: int = 1
) -> list[CatalogEntry]:
    """All loops of order n up to isomorphism, optionally filtered.

    Backtracking Latin-square completion over reduced tables, deduplicated
    by `_dedupe_key`, a least relabeling over the orders that respect the
    cycle types of each element's row and column (the table stream is
    sharded over `jobs` worker processes when asked).  Each class's
    canonical form is then computed once; entries are sorted by canonical
    key and named ``n<order>_<index>``.
    Every emitted entry re-passes its filter predicates by construction of
    the flags.
    """
    base = _GENERATED.get(n)
    if base is None:
        base = _GENERATED[n] = _generate(n, jobs)
    entries = [make_entry(L.name, L) for L in base]
    return [entry for entry in entries if entry_passes(entry, tuple(filters))]
