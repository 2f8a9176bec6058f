"""Half-isomorphisms: verification, enumeration, classification, audits.

A half-isomorphism f between equal-order loops is a bijection with
f(a*b) in {f(a)f(b), f(b)f(a)} for every pair.  It is trivial when it is an
isomorphism or an anti-isomorphism, and special when its inverse is again a
half-isomorphism.  A GG-triple (x, y, z) certifies non-triviality: x pairs
strictly isomorphism-like with y and strictly anti-isomorphism-like with z.
"""
from __future__ import annotations

from functools import cached_property
from itertools import compress, count, islice, product
from operator import eq, gt, or_
from typing import Callable, Iterable, Iterator, Sequence

from ._record import record
from .table import (
    MAX_ORDER,
    LoopError,
    LoopTable,
    _MISSING,
    _first_difference,
    _products,
    _translations,
    is_flexible,
)
from .perms import Perm, bijection_search, compose, invert, is_automorphic
from .structure import co1_violation, satisfies_co1
from .report import AnalysisReport, one_based


class NotHalfIsomorphism(LoopError):
    def __init__(self, witness):
        self.witness = witness
        super().__init__(f"not a half-isomorphism; witness {witness}")


class NotFlexible(LoopError):
    pass


@record(frozen=True)
class HalfIso:
    source: LoopTable
    target: LoopTable
    mapping: tuple[int, ...]

    def __repr__(self) -> str:
        return (
            f"HalfIso({self.source.name!r} -> {self.target.name!r}, "
            f"map={self.mapping})"
        )


@record(frozen=True)
class Classification:
    is_isomorphism: bool
    is_anti_isomorphism: bool
    is_special: bool
    gg_triples: tuple[tuple[int, int, int], ...]
    trivial: bool
    special_witness: tuple[int, int] | None = None


GG_CAP = 10

# Sliced at n, the bytes from n up that a translation table maps to themselves.
_IDENTITY = bytes(range(256))
# 63 and 64 in each of MAX_ORDER**2 bytes: adding 63 to a byte below 64 sets
# its 64 bit exactly when the byte is not 0, and carries into no other byte.
_SIXTY_THREES = int.from_bytes(bytes([63]) * MAX_ORDER**2, "big")
_SIXTY_FOURS = _SIXTY_THREES + int.from_bytes(bytes([1]) * MAX_ORDER**2, "big")


def _packed(rows) -> int:
    """The joined byte rows as one integer, a byte per pair, first pair highest."""
    return int.from_bytes(b"".join(rows), "big")


class _Pair:
    """What every survey of maps Q -> R reads, built once per call.

    ``q_rows[x]`` and ``q_cols[x]`` are Q's row and column x as n bytes;
    ``r_rows`` and ``r_cols`` are R's as `bytes.translate` tables.  The
    other tables are built on first use.
    """

    def __init__(self, Q: LoopTable, R: LoopTable):
        n = Q.order
        self.Q, self.R, self.n = Q, R, n
        self.pad = _IDENTITY[n:]
        rows, cols = _products(Q)
        self.q_rows, self.q_cols = [r[:n] for r in rows], [c[:n] for c in cols]
        self.r_rows, self.r_cols = _products(R)

    @cached_property
    def powers(self) -> tuple[bytes, list[bytes]]:
        """Q's powers x^-n..x^n, one run of 2n+1 bytes per x, joined, and
        R's runs; `_MISSING` marks a power without an inverse."""
        n, ks = self.n, range(-self.n, self.n + 1)
        q_runs, r_runs = (
            [bytes(run) for run in zip(*[_translations(L, "power_table", k)[:n] for k in ks])]
            for L in (self.Q, self.R)
        )
        return b"".join(q_runs), r_runs

    @cached_property
    def q_flexes(self) -> bytes:
        """(x*y)*x over y, one row per x of Q, joined."""
        return b"".join(map(bytes.translate, self.q_rows, _products(self.Q)[1]))

    @cached_property
    def conjugations(self):
        """Q's conjugation maps as n bytes, R's as translations, and the
        inverses of Q's and of R's elements; Q's missing inverses raise first."""
        Q, R = self.Q, self.R
        phi_q = [bytes(conjugation_map(Q, x)) for x in Q.elements]
        phi_r = [bytes(conjugation_map(R, v)) + self.pad for v in R.elements]
        return phi_q, phi_r, list(map(Q.inverse, Q.elements)), list(map(R.inverse, R.elements))

    @cached_property
    def reverse(self) -> "_Pair":
        """The pair R -> Q, which the inverses of the maps Q -> R read."""
        return _Pair(self.R, self.Q)

    def violation(self, mapping: bytes) -> tuple[int, int] | None:
        """Least pair (a, b) with f(a*b) outside {f(a)f(b), f(b)f(a)}, or
        None, for the bijection f given as its images.

        Row x of f(x*-) is compared with f(x)f(-), then with f(-)f(x), and
        scanned only when it differs from both."""
        f = mapping + self.pad
        r_rows, r_cols = self.r_rows, self.r_cols
        for x, (row, fx) in enumerate(zip(self.q_rows, mapping)):
            p = row.translate(f)
            i = mapping.translate(r_rows[fx])
            if p == i:
                continue
            a = mapping.translate(r_cols[fx])
            if p != a:
                allowed = list(map(or_, map(eq, p, i), map(eq, p, a)))
                if False in allowed:
                    return (x, allowed.index(False))
        return None


class _Survey:
    """The branch relation of one map f: Q -> R, four byte rows per x.

    ``P[x]`` is f(x*-) and ``C[x]`` is f(-*x): Q's row and column x
    translated through f.  ``I[x]`` is f(x)f(-) and ``A[x]`` is f(-)f(x): the
    images translated through R's row and column f(x).  So (x, y) takes the
    first branch where ``P[x][y] == I[x][y]`` and the second where
    ``P[x][y] == A[x][y]``.  The checks compare whole rows, or all pairs at
    once, in C and scan only where they differ, so each finds the least
    witness, in the order the scalar definitions find it.
    """

    def __init__(self, pair: _Pair, mapping):
        self.pair, self.mapping = pair, tuple(mapping)
        self.images = images = bytes(self.mapping)
        self.f = f = images + pair.pad  # x -> f(x) as a translation table
        self.P = [row.translate(f) for row in pair.q_rows]
        self.C = [col.translate(f) for col in pair.q_cols]
        self.I = list(map(images.translate, map(pair.r_rows.__getitem__, images)))
        self.A = list(map(images.translate, map(pair.r_cols.__getitem__, images)))
        self.iso, self.anti = self.P == self.I, self.P == self.A

    @cached_property
    def special_witness(self) -> tuple[int, int] | None:
        """Least (x, y) commuting in Q whose images do not commute, or None.

        All pairs at once, each side `_packed`: the 64 bits of `hits` mark
        where I differs from A and Q's table equals its transpose, and the
        highest marks the least pair."""
        if self.I == self.A:
            return None
        apart = _packed(self.I) ^ _packed(self.A)
        q_apart = _packed(self.pair.q_rows) ^ _packed(self.pair.q_cols)
        hits = (apart + _SIXTY_THREES) & ~(q_apart + _SIXTY_THREES) & _SIXTY_FOURS
        if not hits:
            return None
        n = self.pair.n
        return divmod(n * n - 1 - (hits.bit_length() - 1) // 8, n)


def _survey(f: HalfIso | _Survey) -> _Survey:
    """The survey of f; callers with many maps pass surveys from `surveys`."""
    return f if isinstance(f, _Survey) else _Survey(_Pair(f.source, f.target), f.mapping)


def surveys(Q: LoopTable, R: LoopTable, maps: Iterable[HalfIso]) -> Iterator[_Survey]:
    """The survey of each map Q -> R of `maps`, all reading one `_Pair`.

    Every check below takes a survey in place of its map, with the same
    answer; the pair is built at the first map."""
    pair = None
    for f in maps:
        if pair is None:
            pair = _Pair(Q, R)
        yield _Survey(pair, f.mapping)


def _swaps(p, c, i, a) -> bool:
    """(p, c) is (i, a) or (a, i); for whole rows or single entries."""
    return (p == i and c == a) or (p == a and c == i)


def half_iso_violation(Q: LoopTable, R: LoopTable, mapping) -> tuple[int, int] | None:
    """Least pair (a, b) with f(a*b) outside {f(a)f(b), f(b)f(a)}, or None."""
    m = tuple(mapping)
    if Q.order != R.order:
        raise ValueError("half-isomorphisms need equal orders")
    if sorted(m) != list(range(Q.order)):
        raise ValueError("mapping is not a bijection")
    return _Pair(Q, R).violation(bytes(m))


def is_half_isomorphism(Q: LoopTable, R: LoopTable, mapping) -> bool:
    return half_iso_violation(Q, R, mapping) is None


def make_half_iso(Q: LoopTable, R: LoopTable, mapping) -> HalfIso:
    w = half_iso_violation(Q, R, mapping)
    if w is not None:
        raise NotHalfIsomorphism(w)
    return HalfIso(Q, R, tuple(mapping))


def identity_half_iso(Q: LoopTable, R: LoopTable) -> HalfIso:
    return make_half_iso(Q, R, range(Q.order))


def classify(f: HalfIso) -> Classification:
    """The branch survey of a half-isomorphism, summarized.

    A pair takes the first branch when f(a*b) = f(a)f(b) and the second when
    f(a*b) = f(b)f(a); both at once iff the images commute.  The map is an
    isomorphism when every row of the survey takes the first branch
    throughout, an anti-isomorphism when every row takes the second, and
    both flags may hold together (the branches coincide on commuting
    images).  Speciality is decided by the commuting-pairs criterion;
    `speciality_criteria` exposes the other two equivalent formulations for
    cross-validation.  GG-triples are collected in lexicographic order, at
    most `GG_CAP` of them, and only for a non-trivial map: in a trivial one
    each row keeps one branch, so no x has both a y and a z.
    """
    s = _survey(f)
    trivial = s.iso or s.anti
    gg: list[tuple[int, int, int]] = []
    if not trivial:
        for x, (p, i, a) in enumerate(zip(s.P, s.I, s.A)):
            if p == i or p == a:
                continue  # one branch throughout: no y or no z
            ys = compress(count(), map(gt, map(eq, p, i), map(eq, i, a)))
            zs = list(compress(count(), map(gt, map(eq, p, a), map(eq, i, a))))
            gg.extend(islice(product((x,), ys, zs), GG_CAP - len(gg)))
            if len(gg) == GG_CAP:
                break
    return Classification(
        is_isomorphism=s.iso,
        is_anti_isomorphism=s.anti,
        is_special=s.special_witness is None,
        gg_triples=tuple(gg),
        trivial=trivial,
        special_witness=s.special_witness,
    )


def speciality_criteria(f: HalfIso) -> tuple[bool, bool, bool]:
    """The three equivalent speciality tests, evaluated independently:
    (a) the inverse mapping is a half-isomorphism,
    (b) {f(x*y), f(y*x)} = {f(x)f(y), f(y)f(x)} for all pairs,
    (c) commuting pairs have commuting images.
    """
    s = _survey(f)
    inverse_ok = s.pair.reverse.violation(bytes(invert(s.mapping))) is None
    same_sets = _swaps(s.P, s.C, s.I, s.A) or all(
        _swaps(*rows) or all(map(_swaps, *rows)) for rows in zip(s.P, s.C, s.I, s.A)
    )
    return (inverse_ok, same_sets, s.special_witness is None)


def special_symmetry_violation(f: HalfIso) -> tuple[int, int, str] | None:
    """Branch symmetry under argument swap, valid for special maps:
    if f(x*y) = f(x)f(y) then f(y*x) = f(y)f(x), and if f(x*y) = f(y)f(x)
    then f(y*x) = f(x)f(y)."""
    s = _survey(f)
    for x, rows in enumerate(zip(s.P, s.C, s.I, s.A)):
        if _swaps(*rows):
            continue
        for y, (v, w, fw, sw) in enumerate(zip(*rows)):
            if v == fw and w != sw:
                return (x, y, "first-branch")
            if v == sw and w != fw:
                return (x, y, "second-branch")
    return None


def lemma41_violations(f: HalfIso) -> list[tuple[int, int]]:
    """Pairs x, y with f(x*y) = f(x)f(y) and f(y*x^-1) = f(x^-1)f(y) whose
    images nevertheless fail to commute.

    Such pairs cannot exist when source and target are automorphic and the
    target satisfies the commuting condition; sound only under those audit
    hypotheses.
    """
    s = _survey(f)
    inverses, P, I, A = list(map(s.pair.Q.inverse, s.pair.Q.elements)), s.P, s.I, s.A
    return [
        (x, y)
        for x, xi in enumerate(inverses) if I[x] != A[x]
        for y, (v, fw, sw, w, u) in enumerate(zip(P[x], I[x], A[x], s.C[xi], I[xi]))
        if v == fw and w == u and fw != sw
    ]


def power_map_violation(f: HalfIso) -> tuple[int, int] | None:
    """Least (x, k) with f(x^k) != f(x)^k over |k| <= order.

    Meaningful for power-associative source and target, where every
    half-isomorphism must commute with powers.  Both sides are one run of
    bytes per x, in the order of the witness: the first entry where they
    differ, or where either power is missing, is the least (x, k).  A
    missing power raises as `power` does, Q's first.
    """
    s = _survey(f)
    q_runs, r_runs = s.pair.powers
    lhs = q_runs.translate(s.f)  # f(x^k)
    rhs = b"".join(map(r_runs.__getitem__, s.images))  # f(x)^k
    if lhs == rhs and _MISSING not in lhs:
        return None
    marks = [lhs.find(_MISSING), rhs.find(_MISSING)]
    if lhs != rhs:
        marks.append(_first_difference(lhs, rhs))
    least = min(i for i in marks if i >= 0)
    x, k = divmod(least, 2 * s.pair.n + 1)
    k -= s.pair.n
    if lhs[least] == _MISSING:
        s.pair.Q.power(x, k)
    if rhs[least] == _MISSING:
        s.pair.R.power(s.mapping[x], k)
    return (x, k)


def semi_homomorphism_violation(f: HalfIso) -> tuple[int, int] | None:
    """Least (x, y) with f((x*y)*x) != (f(x)f(y))f(x).

    Requires flexible source and target so that both sides are unambiguous;
    raises `NotFlexible` otherwise.
    """
    s = _survey(f)
    for L in (s.pair.Q, s.pair.R):
        if not is_flexible(L):
            raise NotFlexible(f"{L!r} is not flexible")
    # f((x*y)*x), and (f(x)f(y))f(x): row f(x)f(-) through R's column f(x)
    lhs = s.pair.q_flexes.translate(s.f)
    rhs = b"".join(map(bytes.translate, s.I, map(s.pair.r_cols.__getitem__, s.images)))
    return None if lhs == rhs else divmod(_first_difference(lhs, rhs), s.pair.n)


def is_semi_homomorphism(f: HalfIso) -> bool:
    return semi_homomorphism_violation(f) is None


# ---------------------------------------------------------------------------
# enumeration

def enumerate_half_isos(Q: LoopTable, R: LoopTable) -> Iterator[HalfIso]:
    """Yield every half-isomorphism Q -> R exactly once, in lexicographic
    order of the image tuple.

    `perms.bijection_search` in half mode, which allows f(a*b) in
    {f(a)f(b), f(b)f(a)}: the same propagating search as
    `perms.isomorphisms`, which allows f(a)f(b) alone.  `naive_half_isos` is
    its oracle.
    """
    if Q.order != R.order:
        raise ValueError("half-isomorphisms need equal orders")
    for image in bijection_search(Q, R, True):
        yield HalfIso(Q, R, image)


def naive_half_isos(Q: LoopTable, R: LoopTable) -> Iterator[HalfIso]:
    """Every half-isomorphism Q -> R, lexicographically: the oracle for
    `enumerate_half_isos`.

    Assigns images in index order, each image in increasing order, and
    checks each triple (a, b, a*b) once, when the last of its three
    elements is assigned.  Nothing but the definition is used.
    """
    if Q.order != R.order:
        raise ValueError("half-isomorphisms need equal orders")
    n = Q.order
    tq, tr = Q.table, R.table
    completed: list[list[tuple[int, int, int]]] = [[] for _ in range(n)]
    for a in range(n):
        for b in range(n):
            c = tq[a][b]
            completed[max(a, b, c)].append((a, b, c))
    f = [-1] * n
    used = [False] * n

    def search(i: int) -> Iterator[HalfIso]:
        if i == n:
            yield HalfIso(Q, R, tuple(f))
            return
        for v in range(n):
            if used[v]:
                continue
            f[i] = v
            for a, b, c in completed[i]:
                fa, fb, fc = f[a], f[b], f[c]
                if fc != tr[fa][fb] and fc != tr[fb][fa]:
                    break
            else:
                used[v] = True
                yield from search(i + 1)
                used[v] = False

    yield from search(0)


# ---------------------------------------------------------------------------
# conjugation transport

def conjugation_map(L: LoopTable, x: int) -> Perm:
    """The inner mapping u -> x^-1 * u * x (right-translate by x, then
    left-translate by the inverse of x)."""
    return compose(L.columns[x], L.table[L.inverse(x)])


def conjugation_transport_violations(f: HalfIso) -> list[tuple[int, int, str]]:
    """Case-split transport of conjugation through a half-isomorphism.

    For commuting x, y the image of y conjugated by x must equal the image
    conjugated either way; for strictly isomorphism-like pairs conjugation
    transports directly, for strictly anti-isomorphism-like pairs it
    transports through the inverse.  Sound under the audit hypotheses
    (automorphic loops, target satisfying the commuting condition).  A row
    where all four conjugates agree satisfies every case.
    """
    s = _survey(f)
    pair, m = s.pair, s.mapping
    phi_q, phi_r, inv_q, inv_r = pair.conjugations
    conj = [phi.translate(s.f) for phi in phi_q]  # f(y^x) over y
    conj_image = [s.images.translate(phi) for phi in phi_r]  # f(y)^v over y
    out = []
    for x, (p, i, a) in enumerate(zip(s.P, s.I, s.A)):
        fyx, fyxi = conj[x], conj[inv_q[x]]
        direct, through_inv = conj_image[m[x]], conj_image[inv_r[m[x]]]
        if fyx == direct == through_inv == fyxi:
            continue
        commuting = map(eq, pair.q_rows[x], pair.q_cols[x])
        cells = zip(commuting, p, i, a, fyx, fyxi, direct, through_inv)
        for y, (same, v, fw, sw, g, gi, d, t) in enumerate(cells):
            if same:
                if not (g == d == t):
                    out.append((x, y, "commuting"))
            elif v == fw:
                if g != d or gi != t:
                    out.append((x, y, "first-branch"))
            elif v == sw:
                if g != t or gi != d:
                    out.append((x, y, "second-branch"))
    return out


def ab_partition_violation(f: HalfIso) -> tuple[int, int] | None:
    """Re-verify the union argument behind non-triviality obstructions.

    A is the set of elements pairing isomorphism-like with everything (P
    row equal to I row), B the anti-isomorphism-like set.  When A and B
    cover the whole loop (no GG-triple exists), one of them must already be
    the whole loop; returns (|A|, |B|) when that fails.
    """
    s = _survey(f)
    in_a, in_b = list(map(eq, s.P, s.I)), list(map(eq, s.P, s.A))
    if all(map(or_, in_a, in_b)) and not s.iso and not s.anti:
        return (sum(in_a), sum(in_b))
    return None


# ---------------------------------------------------------------------------
# audits

def speciality_check(
    f: HalfIso | _Survey, report: AnalysisReport, names: tuple[str, str]
) -> None:
    """Report a map, or the map of a survey, on which the three speciality
    criteria disagree."""
    crits = speciality_criteria(f)
    if len(set(crits)) != 1:
        report.add("speciality-criteria-disagree", level="finding", loops=names,
                   witness=(one_based(f.mapping), crits), anchor="prop27")


def power_check(f: HalfIso | _Survey, report: AnalysisReport, names: tuple[str, str]) -> None:
    """Report a map, or the map of a survey, that does not commute with
    powers; call it only when source and target are power-associative."""
    w = power_map_violation(f)
    if w is not None:
        report.add("power-map-violation", level="finding", loops=names,
                   witness=(w[0] + 1, w[1]), anchor="prop28", map=one_based(f.mapping))


def audit_theorem41(
    Q: LoopTable, R: LoopTable, maps: Iterable[HalfIso]
) -> AnalysisReport:
    """Audit the triviality theorem on one ordered pair of loops.

    `maps` must hold every half-isomorphism from Q to R, each once: the
    audit checks and counts only these.  It is not read when the hypotheses
    fail.

    Hypotheses: both loops automorphic, and the target satisfies the
    commuting condition co1.  When they hold, every half-isomorphism from Q
    to R must classify trivial and special, be a semi-homomorphism, admit no
    GG-triple, transport conjugation per the case split, and pass the union
    re-verification; if at least one half-isomorphism exists the source must
    itself satisfy co1.  Unmet hypotheses are reported, not raised.  Every
    check of a map reads the one survey built for it.
    """
    names = (Q.name or "Q", R.name or "R")
    report = AnalysisReport()
    unmet = []
    if not is_automorphic(Q):
        unmet.append("source-not-automorphic")
    if not is_automorphic(R):
        unmet.append("target-not-automorphic")
    if not satisfies_co1(R):
        unmet.append("target-fails-co1")
    if unmet:
        report.add("hypotheses-not-met", level="notice", loops=names, anchor="theorem41",
                   unmet=unmet)
        return report

    def finding(kind, anchor, witness, **data):
        if "map" in data:
            data["map"] = one_based(data["map"].mapping)
        report.add(kind, level="finding", loops=names, witness=witness, anchor=anchor, **data)

    count = 0
    for s in surveys(Q, R, maps):
        count += 1
        cls = classify(s)
        if not cls.trivial:
            finding("nontrivial-halfiso", "theorem41", one_based(s.mapping))
        if not cls.is_special:
            finding("nonspecial-halfiso", "prop41", one_based(s.mapping),
                    commuting_pair=one_based(cls.special_witness))
        if cls.gg_triples:
            finding("gg-triples-found", "prop45", one_based(cls.gg_triples[0]), map=s)
        w = semi_homomorphism_violation(s)
        if w is not None:
            finding("not-semi-homomorphism", "prop42", one_based(w), map=s)
        sym = special_symmetry_violation(s) if cls.is_special else None
        if sym is not None:
            finding("branch-symmetry-violation", "prop27", (sym[0] + 1, sym[1] + 1, sym[2]),
                    map=s)
        for x, y in lemma41_violations(s):
            finding("commuting-image-violation", "lemma41", (x + 1, y + 1), map=s)
        speciality_check(s, report, names)
        # Automorphic loops are power-associative (Bruck and Paige 1956), so
        # every element has a two-sided inverse and both checks below apply.
        power_check(s, report, names)
        for x, y, case in conjugation_transport_violations(s):
            finding("conjugation-transport-violation", "lemma44", (x + 1, y + 1, case),
                    map=s)
        ab = ab_partition_violation(s)
        if ab is not None:
            finding("ab-partition-violation", "lemma42", ab, map=s)
    if count > 0 and not satisfies_co1(Q):
        x, y, direction = co1_violation(Q)
        finding("co1-transfer-violation", "prop43", (x + 1, y + 1, direction))
    report.add("audit-summary", loops=names, anchor="theorem41", half_isomorphisms=count,
               findings=len(report.findings))
    return report


def scan_conjecture51(
    catalog: Sequence[tuple[str, LoopTable]],
    half_isos: Callable[[LoopTable, LoopTable], Iterable[HalfIso | _Survey]],
) -> AnalysisReport:
    """Scan every ordered pair of equal-order automorphic loops for a
    non-special half-isomorphism.

    `half_isos(Q, R)` must yield every half-isomorphism from Q to R, or its
    survey, such as `enumerate_half_isos` does; the scan checks only the
    maps it yields.
    An empty finding list means the speciality conjecture is consistent at
    this scale.  Any candidate finding is re-verified with the oracle
    `naive_half_isos` before being reported; reports carry the confirmation
    flag.
    """
    report = AnalysisReport()
    auto = [(name, L) for name, L in catalog if is_automorphic(L)]
    pairs = scanned = 0
    for name_q, Q in auto:
        for name_r, R in auto:
            if Q.order != R.order:
                continue
            pairs += 1
            for f in half_isos(Q, R):
                scanned += 1
                if classify(f).is_special:
                    continue
                confirmed = any(
                    g.mapping == f.mapping and not classify(g).is_special
                    for g in naive_half_isos(Q, R)
                )
                report.add(
                    "nonspecial-halfiso",
                    level="finding",
                    loops=(name_q, name_r),
                    witness=one_based(f.mapping),
                    anchor="conjecture51",
                    confirmed_naive=confirmed,
                )
    report.add(
        "conjecture-scan-summary",
        anchor="conjecture51",
        pairs=pairs,
        half_isomorphisms=scanned,
        nonspecial=len(report.findings),
    )
    return report
