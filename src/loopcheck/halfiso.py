"""Half-isomorphisms: verification, enumeration, classification, audits.

A half-isomorphism f between equal-order loops is a bijection with
f(a*b) in {f(a)f(b), f(b)f(a)} for every pair.  It is trivial when it is an
isomorphism or an anti-isomorphism, and special when its inverse is again a
half-isomorphism.  A GG-triple (x, y, z) certifies non-triviality: x pairs
strictly isomorphism-like with y and strictly anti-isomorphism-like with z.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

from .table import LoopTable, LoopError, is_flexible, is_power_associative
from .perms import Perm, bijection_search, compose, invert, is_automorphic
from .structure import co1_violation, satisfies_co1
from .report import AnalysisReport, one_based


class NotHalfIsomorphism(LoopError):
    def __init__(self, witness):
        self.witness = witness
        super().__init__(f"not a half-isomorphism; witness {witness}")


class NotFlexible(LoopError):
    pass


@dataclass(frozen=True)
class HalfIso:
    source: LoopTable
    target: LoopTable
    mapping: tuple[int, ...]

    def __repr__(self) -> str:
        return (
            f"HalfIso({self.source.name!r} -> {self.target.name!r}, "
            f"map={self.mapping})"
        )


@dataclass(frozen=True)
class Classification:
    is_isomorphism: bool
    is_anti_isomorphism: bool
    is_special: bool
    gg_triples: tuple[tuple[int, int, int], ...]
    trivial: bool
    special_witness: tuple[int, int] | None = None


def half_iso_violation(Q: LoopTable, R: LoopTable, mapping) -> tuple[int, int] | None:
    """Least pair (a, b) with f(a*b) outside {f(a)f(b), f(b)f(a)}, or None."""
    m = tuple(mapping)
    if Q.order != R.order:
        raise ValueError("half-isomorphisms need equal orders")
    if sorted(m) != list(range(Q.order)):
        raise ValueError("mapping is not a bijection")
    tq, tr = Q.table, R.table
    for a in Q.elements:
        ma = m[a]
        for b in Q.elements:
            mb = m[b]
            v = m[tq[a][b]]
            if v != tr[ma][mb] and v != tr[mb][ma]:
                return (a, b)
    return None


def is_half_isomorphism(Q: LoopTable, R: LoopTable, mapping) -> bool:
    return half_iso_violation(Q, R, mapping) is None


def make_half_iso(Q: LoopTable, R: LoopTable, mapping) -> HalfIso:
    w = half_iso_violation(Q, R, mapping)
    if w is not None:
        raise NotHalfIsomorphism(w)
    return HalfIso(Q, R, tuple(mapping))


def identity_half_iso(Q: LoopTable, R: LoopTable) -> HalfIso:
    return make_half_iso(Q, R, range(Q.order))


GG_CAP = 10


def classify(f: HalfIso) -> Classification:
    """Branch survey of a half-isomorphism.

    A pair takes the first branch when f(a*b) = f(a)f(b) and the second when
    f(a*b) = f(b)f(a); both at once iff the images commute.  The map is an
    isomorphism when every pair takes the first branch, an anti-isomorphism
    when every pair takes the second, and both flags may hold together (the
    two branches coincide on commuting images).  Speciality is decided by
    the commuting-pairs criterion; `speciality_criteria` exposes the other
    two equivalent formulations for cross-validation.  GG-triples are
    collected in lexicographic order, at most `GG_CAP` of them.
    """
    Q, R, m = f.source, f.target, f.mapping
    tq, tr = Q.table, R.table
    n = Q.order
    iso = anti = True
    special_w = None
    for a in range(n):
        ma = m[a]
        for b in range(n):
            mb = m[b]
            v = m[tq[a][b]]
            iso = iso and v == tr[ma][mb]
            anti = anti and v == tr[mb][ma]
            if special_w is None and tq[a][b] == tq[b][a] and tr[ma][mb] != tr[mb][ma]:
                special_w = (a, b)
    gg: list[tuple[int, int, int]] = []
    for x in range(n):
        mx = m[x]
        ys, zs = [], []
        for y in range(n):
            my = m[y]
            fw, sw = tr[mx][my], tr[my][mx]
            if fw == sw:
                continue
            v = m[tq[x][y]]
            if v == fw:
                ys.append(y)
            elif v == sw:
                zs.append(y)
        gg.extend((x, y, z) for y in ys for z in zs)
        if len(gg) >= GG_CAP:
            break
    return Classification(
        is_isomorphism=iso,
        is_anti_isomorphism=anti,
        is_special=special_w is None,
        gg_triples=tuple(gg[:GG_CAP]),
        trivial=iso or anti,
        special_witness=special_w,
    )


def speciality_criteria(f: HalfIso) -> tuple[bool, bool, bool]:
    """The three equivalent speciality tests, evaluated independently:
    (a) the inverse mapping is a half-isomorphism,
    (b) {f(x*y), f(y*x)} = {f(x)f(y), f(y)f(x)} for all pairs,
    (c) commuting pairs have commuting images.
    """
    Q, R, m = f.source, f.target, f.mapping
    inv = invert(m)
    a_ok = half_iso_violation(R, Q, inv) is None
    tq, tr = Q.table, R.table
    b_ok = c_ok = True
    for x in Q.elements:
        mx = m[x]
        for y in Q.elements:
            my = m[y]
            if b_ok and {m[tq[x][y]], m[tq[y][x]]} != {tr[mx][my], tr[my][mx]}:
                b_ok = False
            if c_ok and tq[x][y] == tq[y][x] and tr[mx][my] != tr[my][mx]:
                c_ok = False
    return (a_ok, b_ok, c_ok)


def special_symmetry_violation(f: HalfIso) -> tuple[int, int, str] | None:
    """Branch symmetry under argument swap, valid for special maps:
    if f(x*y) = f(x)f(y) then f(y*x) = f(y)f(x), and if f(x*y) = f(y)f(x)
    then f(y*x) = f(x)f(y)."""
    Q, R, m = f.source, f.target, f.mapping
    tq, tr = Q.table, R.table
    for x in Q.elements:
        mx = m[x]
        for y in Q.elements:
            my = m[y]
            fw, sw = tr[mx][my], tr[my][mx]
            v, w = m[tq[x][y]], m[tq[y][x]]
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
    Q, R, m = f.source, f.target, f.mapping
    tq, tr = Q.table, R.table
    out = []
    for x in Q.elements:
        mx = m[x]
        xi = Q.inverse(x)
        mxi = m[xi]
        for y in Q.elements:
            my = m[y]
            if (
                m[tq[x][y]] == tr[mx][my]
                and m[tq[y][xi]] == tr[mxi][my]
                and tr[mx][my] != tr[my][mx]
            ):
                out.append((x, y))
    return out


def power_map_violation(f: HalfIso) -> tuple[int, int] | None:
    """Least (x, k) with f(x^k) != f(x)^k over |k| <= order.

    Meaningful for power-associative source and target, where every
    half-isomorphism must commute with powers.
    """
    Q, R, m = f.source, f.target, f.mapping
    for x in Q.elements:
        for k in range(-Q.order, Q.order + 1):
            if m[Q.power(x, k)] != R.power(m[x], k):
                return (x, k)
    return None


def semi_homomorphism_violation(f: HalfIso) -> tuple[int, int] | None:
    """Least (x, y) with f((x*y)*x) != (f(x)f(y))f(x).

    Requires flexible source and target so that both sides are unambiguous;
    raises `NotFlexible` otherwise.
    """
    for L in (f.source, f.target):
        if not is_flexible(L):
            raise NotFlexible(f"{L!r} is not flexible")
    Q, R, m = f.source, f.target, f.mapping
    tq, tr = Q.table, R.table
    for x in Q.elements:
        mx = m[x]
        for y in Q.elements:
            if m[tq[tq[x][y]][x]] != tr[tr[mx][m[y]]][mx]:
                return (x, y)
    return None


def is_semi_homomorphism(f: HalfIso) -> bool:
    return semi_homomorphism_violation(f) is None


# ---------------------------------------------------------------------------
# enumeration

def enumerate_half_isos(Q: LoopTable, R: LoopTable) -> Iterator[HalfIso]:
    """Yield every half-isomorphism Q -> R exactly once, in lexicographic
    order of the image tuple.

    `perms.bijection_search` with f(a*b) in {f(a)f(b), f(b)f(a)} as the
    allowed products: the same propagating search as `perms.isomorphisms`,
    which allows f(a)f(b) alone.  `naive_half_isos` is its oracle.
    """
    if Q.order != R.order:
        raise ValueError("half-isomorphisms need equal orders")
    t = R.table
    allowed = [
        [1 << w | 1 << t[v][u] for v, w in enumerate(row)] for u, row in enumerate(t)
    ]
    for image in bijection_search(Q, R, allowed):
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
    return compose(L.right_translation(x), L.left_translation(L.inverse(x)))


def conjugation_transport_violations(f: HalfIso) -> list[tuple[int, int, str]]:
    """Case-split transport of conjugation through a half-isomorphism.

    For commuting x, y the image of y conjugated by x must equal the image
    conjugated either way; for strictly isomorphism-like pairs conjugation
    transports directly, for strictly anti-isomorphism-like pairs it
    transports through the inverse.  Sound under the audit hypotheses
    (automorphic loops, target satisfying the commuting condition).
    """
    Q, R, m = f.source, f.target, f.mapping
    tq, tr = Q.table, R.table
    out = []
    phi_q = [conjugation_map(Q, x) for x in Q.elements]
    phi_r = [conjugation_map(R, v) for v in R.elements]
    inv_q = [Q.inverse(x) for x in Q.elements]
    inv_r = [R.inverse(v) for v in R.elements]
    for x in Q.elements:
        mx = m[x]
        for y in Q.elements:
            my = m[y]
            fyx = m[phi_q[x][y]]          # f(y^x)
            fyxi = m[phi_q[inv_q[x]][y]]  # f(y^(x^-1))
            direct = phi_r[mx][my]        # f(y)^f(x)
            through_inv = phi_r[inv_r[mx]][my]
            if tq[x][y] == tq[y][x]:
                if not (fyx == direct == through_inv):
                    out.append((x, y, "commuting"))
            elif m[tq[x][y]] == tr[mx][my]:
                if fyx != direct or fyxi != through_inv:
                    out.append((x, y, "first-branch"))
            elif m[tq[x][y]] == tr[my][mx]:
                if fyx != through_inv or fyxi != direct:
                    out.append((x, y, "second-branch"))
    return out


def ab_partition_violation(f: HalfIso) -> tuple[int, int] | None:
    """Re-verify the union argument behind non-triviality obstructions.

    A is the set of elements pairing isomorphism-like with everything, B the
    anti-isomorphism-like set.  When A and B cover the whole loop (no
    GG-triple exists), one of them must already be the whole loop; returns
    (|A|, |B|) when that fails.
    """
    Q, R, m = f.source, f.target, f.mapping
    tq, tr = Q.table, R.table
    n = Q.order
    a_set = [
        x
        for x in range(n)
        if all(m[tq[x][u]] == tr[m[x]][m[u]] for u in range(n))
    ]
    b_set = [
        x
        for x in range(n)
        if all(m[tq[x][u]] == tr[m[u]][m[x]] for u in range(n))
    ]
    if len(set(a_set) | set(b_set)) == n and len(a_set) != n and len(b_set) != n:
        return (len(a_set), len(b_set))
    return None


# ---------------------------------------------------------------------------
# audits

def speciality_check(f: HalfIso, report: AnalysisReport, names: tuple[str, str]) -> None:
    """Report a map on which the three speciality criteria disagree."""
    crits = speciality_criteria(f)
    if len(set(crits)) != 1:
        report.add(
            "speciality-criteria-disagree",
            level="finding",
            loops=names,
            witness=(one_based(f.mapping), crits),
            anchor="prop27",
        )


def power_check(f: HalfIso, report: AnalysisReport, names: tuple[str, str]) -> None:
    """Report a map that does not commute with powers; call it only when
    source and target are power-associative."""
    w = power_map_violation(f)
    if w is not None:
        report.add(
            "power-map-violation",
            level="finding",
            loops=names,
            witness=(w[0] + 1, w[1]),
            anchor="prop28",
            map=one_based(f.mapping),
        )


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
    itself satisfy co1.  Unmet hypotheses are reported, not raised.
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
        report.add(
            "hypotheses-not-met",
            level="notice",
            loops=names,
            anchor="theorem41",
            unmet=unmet,
        )
        return report

    powers = is_power_associative(Q) and is_power_associative(R)
    count = 0
    for f in maps:
        count += 1
        cls = classify(f)
        if not cls.trivial:
            report.add(
                "nontrivial-halfiso",
                level="finding",
                loops=names,
                witness=one_based(f.mapping),
                anchor="theorem41",
            )
        if not cls.is_special:
            report.add(
                "nonspecial-halfiso",
                level="finding",
                loops=names,
                witness=one_based(f.mapping),
                anchor="prop41",
                commuting_pair=one_based(cls.special_witness),
            )
        if cls.gg_triples:
            report.add(
                "gg-triples-found",
                level="finding",
                loops=names,
                witness=one_based(cls.gg_triples[0]),
                anchor="prop45",
                map=one_based(f.mapping),
            )
        w = semi_homomorphism_violation(f)
        if w is not None:
            report.add(
                "not-semi-homomorphism",
                level="finding",
                loops=names,
                witness=one_based(w),
                anchor="prop42",
                map=one_based(f.mapping),
            )
        if cls.is_special:
            sym = special_symmetry_violation(f)
            if sym is not None:
                report.add(
                    "branch-symmetry-violation",
                    level="finding",
                    loops=names,
                    witness=(sym[0] + 1, sym[1] + 1, sym[2]),
                    anchor="prop27",
                    map=one_based(f.mapping),
                )
        for x, y in lemma41_violations(f):
            report.add(
                "commuting-image-violation",
                level="finding",
                loops=names,
                witness=(x + 1, y + 1),
                anchor="lemma41",
                map=one_based(f.mapping),
            )
        speciality_check(f, report, names)
        if powers:
            power_check(f, report, names)
        if all(Q.has_two_sided_inverse(a) for a in Q.elements):
            for x, y, case in conjugation_transport_violations(f):
                report.add(
                    "conjugation-transport-violation",
                    level="finding",
                    loops=names,
                    witness=(x + 1, y + 1, case),
                    anchor="lemma44",
                    map=one_based(f.mapping),
                )
        else:
            report.add(
                "conjugation-check-skipped",
                level="notice",
                loops=names,
                anchor="lemma44",
                reason="missing two-sided inverses",
            )
        ab = ab_partition_violation(f)
        if ab is not None:
            report.add(
                "ab-partition-violation",
                level="finding",
                loops=names,
                witness=ab,
                anchor="lemma42",
                map=one_based(f.mapping),
            )
    if count > 0 and not satisfies_co1(Q):
        x, y, direction = co1_violation(Q)
        report.add(
            "co1-transfer-violation",
            level="finding",
            loops=names,
            witness=(x + 1, y + 1, direction),
            anchor="prop43",
        )
    report.add(
        "audit-summary",
        loops=names,
        anchor="theorem41",
        half_isomorphisms=count,
        findings=len(report.findings),
    )
    return report


def scan_conjecture51(
    catalog: Sequence[tuple[str, LoopTable]],
    half_isos: Callable[[LoopTable, LoopTable], Iterable[HalfIso]],
) -> AnalysisReport:
    """Scan every ordered pair of equal-order automorphic loops for a
    non-special half-isomorphism.

    `half_isos(Q, R)` must yield every half-isomorphism from Q to R, such
    as `enumerate_half_isos` does; the scan checks only the maps it yields.
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
