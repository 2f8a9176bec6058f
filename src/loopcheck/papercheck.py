"""The acceptance suite: ten exhaustive desk-scale checks.

Each criterion verifies one batch of claims on the generated small-order
catalogs and the built-in order-7 example pair, at exact (finite equality)
tolerance.  `run_all` drives the whole suite; the pytest acceptance module
and the ``papercheck`` CLI subcommand both call into this module.
"""
from __future__ import annotations

import time
from functools import lru_cache
from itertools import permutations
from random import Random
from typing import Iterator

from . import catalog as cat
from ._record import field, record
from .catalog import canonical_form, canonical_key, are_isomorphic
from .halfiso import (
    HalfIso,
    classify,
    enumerate_half_isos,
    half_iso_violation,
    naive_half_isos,
    identity_half_iso,
    audit_theorem41,
    scan_conjecture51,
    speciality_check,
    power_check,
    surveys,
)
from .identities import builtin_library, evaluate
from .perms import invert, is_automorphic
from .report import AnalysisReport, one_based
from .structure import co1_violation, satisfies_co1, theorem31_violation
from .table import (
    LoopError,
    LoopTable,
    is_power_associative,
    is_uniquely_2_divisible,
    make_loop,
)

ODD_AUDIT_ORDER_CAP = 7
ORACLE_ORDER_CAP = 5


@record
class SuiteContext:
    max_order: int = 6
    seed: int = 0
    generated: dict[int, list[LoopTable]] = field(default_factory=dict)
    builtins: list[LoopTable] = field(default_factory=list)
    enumerated: dict = field(default_factory=dict, repr=False)

    def half_isos(self, Q: LoopTable, R: LoopTable) -> tuple[HalfIso, ...]:
        """Every half-isomorphism Q -> R from `enumerate_half_isos`, on the
        first request and kept for the rest of the run.  Loops compare by
        table, so catalog loops with equal tables share one enumeration."""
        maps = self.enumerated.get((Q, R))
        if maps is None:
            maps = self.enumerated[(Q, R)] = tuple(enumerate_half_isos(Q, R))
        return maps

    def map_surveys(self, Q: LoopTable, R: LoopTable) -> Iterator:
        """The branch survey of each map of `half_isos(Q, R)`, all over one
        `halfiso._Pair`; each per-map criterion surveys a pair once."""
        return surveys(Q, R, self.half_isos(Q, R))

    def generated_loops(self) -> list[LoopTable]:
        return [L for n in sorted(self.generated) for L in self.generated[n]]


@record
class CriterionResult:
    number: int
    title: str
    passed: bool
    report: AnalysisReport
    seconds: float


def build_context(max_order: int = 6, seed: int = 0) -> SuiteContext:
    # Below 1 the catalog is empty and every criterion would pass vacuously;
    # above the soft cap no catalog is generated, so the run would be the
    # soft cap's run under another name.
    if not 1 <= max_order <= cat.GENERATION_SOFT_CAP:
        raise LoopError(
            f"papercheck takes a max order from 1 to {cat.GENERATION_SOFT_CAP}; "
            f"got {max_order}"
        )
    ctx = SuiteContext(max_order=max_order, seed=seed)
    for n in range(1, max_order + 1):
        ctx.generated[n] = cat.generate_loops(n)
    ctx.builtins = list(cat.builtin_loops())
    return ctx


def _suite_pairs(ctx: SuiteContext) -> list[tuple[LoopTable, LoopTable]]:
    """Every ordered pair whose half-isomorphisms the suite enumerates:
    the odd-order audit pairs, the oracle-equivalence pairs, and the
    conjecture-scan pairs, deduplicated by name."""
    pairs: dict[tuple[str, str], tuple[LoopTable, LoopTable]] = {}
    for a, b in _odd_audit_pairs(ctx):
        pairs[(a.name, b.name)] = (a, b)
    for a, b in _oracle_pairs(ctx):
        pairs[(a.name, b.name)] = (a, b)
    for a, b in _scan_pairs(ctx):
        pairs[(a.name, b.name)] = (a, b)
    return [pairs[k] for k in sorted(pairs)]


def _odd_audit_pairs(ctx: SuiteContext) -> list[tuple[LoopTable, LoopTable]]:
    pool = [L for L in ctx.generated_loops() if L.order % 2 and is_automorphic(L)]
    pool += [
        L
        for L in ctx.builtins
        if L.order % 2 and L.order <= ODD_AUDIT_ORDER_CAP and is_automorphic(L)
    ]
    return [(a, b) for a in pool for b in pool if a.order == b.order]


def _oracle_pairs(ctx: SuiteContext) -> list[tuple[LoopTable, LoopTable]]:
    pool = [
        L
        for L in ctx.generated_loops() + list(ctx.builtins)
        if L.order <= ORACLE_ORDER_CAP
    ]
    pairs = [(a, b) for a in pool for b in pool if a.order == b.order]
    star = next(L for L in ctx.builtins if L.name == "example21_star")
    dot = next(L for L in ctx.builtins if L.name == "example21_dot")
    pairs.append((star, dot))
    return pairs


def _scan_pairs(ctx: SuiteContext) -> list[tuple[LoopTable, LoopTable]]:
    pool = [L for L in ctx.generated_loops() if is_automorphic(L)]
    return [(a, b) for a in pool for b in pool if a.order == b.order]


def _timed(number: int, title: str, fn, ctx: SuiteContext) -> CriterionResult:
    start = time.perf_counter()
    report = fn(ctx)
    seconds = time.perf_counter() - start
    return CriterionResult(number, title, not report.has_findings, report, seconds)


# ---------------------------------------------------------------------------
# criterion 1: the order-7 example pair, values read off the printed tables

def criterion_1(ctx: SuiteContext) -> AnalysisReport:
    report = AnalysisReport()
    star = cat.example21_star()
    dot = cat.example21_dot()
    names = ("example21_star", "example21_dot")

    def expect(ok: bool, what: str, witness=None) -> None:
        if not ok:
            report.add(
                "example-mismatch",
                level="finding",
                loops=names,
                witness=witness,
                anchor="example21",
                what=what,
            )

    expect(
        half_iso_violation(star, dot, range(7)) is None,
        "identity map verifies as a half-isomorphism",
    )
    f = identity_half_iso(star, dot)
    cls = classify(f)
    expect(not cls.is_isomorphism, "identity map is not an isomorphism")
    expect(not cls.is_anti_isomorphism, "identity map is not an anti-isomorphism")
    expect(not cls.trivial, "identity map is nontrivial")
    # 1-based: f(3*2) = 4 = f(3).f(2) != f(2).f(3)
    expect(star.mul(2, 1) == 3 and dot.mul(2, 1) == 3 and dot.mul(1, 2) == 6,
           "strict first-branch pair (3,2) with value 4")
    # 1-based: f(3*6) = 1 = f(6).f(3) != f(3).f(6)
    expect(star.mul(2, 5) == 0 and dot.mul(5, 2) == 0 and dot.mul(2, 5) == 1,
           "strict second-branch pair (3,6) with value 1")
    expect((2, 1, 5) in cls.gg_triples, "GG-triple (3,2,6) detected",
           witness=one_based(cls.gg_triples))
    w = half_iso_violation(dot, star, range(7))
    expect(w == (1, 2), "inverse map fails first at pair (2,3)",
           witness=one_based(w))
    # 1-based: f^-1(2.3) = 7, outside {2*3} = {4}
    expect(dot.mul(1, 2) == 6 and star.mul(1, 2) == 3 and star.mul(2, 1) == 3,
           "inverse-map witness value 7 outside {4}")
    report.add("example-reproduced", loops=names, anchor="example21",
               gg_triples=one_based(cls.gg_triples))
    return report


# ---------------------------------------------------------------------------
# criterion 2: squared-commuting equivalence on automorphic loops

def criterion_2(ctx: SuiteContext) -> AnalysisReport:
    report = AnalysisReport()
    checked = 0
    for L in ctx.generated_loops():
        if not is_automorphic(L):
            continue
        checked += 1
        w = theorem31_violation(L)
        if w is not None:
            report.add(
                "theorem31-violation",
                level="finding",
                loops=(L.name,),
                witness=(w[0] + 1, w[1] + 1, w[2]),
                anchor="theorem31",
            )
    report.add("theorem31-checked", anchor="theorem31", loops_checked=checked)
    return report


# ---------------------------------------------------------------------------
# criterion 3: unique 2-divisibility, odd order, and co1

def criterion_3(ctx: SuiteContext) -> AnalysisReport:
    report = AnalysisReport()
    checked = 0
    for L in ctx.generated_loops():
        if not is_automorphic(L):
            continue
        checked += 1
        u2d = is_uniquely_2_divisible(L)
        odd = L.order % 2 == 1
        if u2d != odd:
            report.add(
                "u2d-odd-mismatch",
                level="finding",
                loops=(L.name,),
                witness=(u2d, odd),
                anchor="prop26",
            )
        if u2d and not satisfies_co1(L):
            x, y, direction = co1_violation(L)
            report.add(
                "co1-violation",
                level="finding",
                loops=(L.name,),
                witness=(x + 1, y + 1, direction),
                anchor="cor33",
            )
    report.add("u2d-co1-checked", anchor="cor33", loops_checked=checked)
    return report


# ---------------------------------------------------------------------------
# criterion 4: the builtin identity corpus

# The statements that are theorems of every automorphic loop.  The corpus
# also ships the co1 quasi-identity (a condition some automorphic loops
# fail, e.g. the non-commutative even-order ones) and the cor32 pair, which
# are exercised separately.
CRITERION4_PREFIXES = ("lemma31_", "lemma34_", "prop22_", "theorem31_")
CRITERION4_EXACT = ("prop30", "aaip", "aaip_cor", "flexibility", "tx_inv")


def criterion_4(ctx: SuiteContext) -> AnalysisReport:
    report = AnalysisReport()
    statements = [
        s
        for s in builtin_library()
        if s.name in CRITERION4_EXACT or s.name.startswith(CRITERION4_PREFIXES)
    ]
    loops = [L for L in ctx.generated_loops() if is_automorphic(L)]
    for L in loops:
        for stmt in statements:
            cx = evaluate(L, stmt, automorphic=True)
            if cx is not None:
                report.add(
                    "identity-counterexample",
                    level="finding",
                    loops=(L.name,),
                    witness=tuple((v, x + 1) for v, x in cx.items()),
                    anchor=stmt.name or "",
                )
    report.add(
        "identity-corpus-checked",
        anchor="builtin-corpus",
        statements=len(statements),
        loops_checked=len(loops),
    )
    return report


# ---------------------------------------------------------------------------
# criterion 5: triviality audit on odd-order automorphic pairs

def criterion_5(ctx: SuiteContext) -> AnalysisReport:
    report = AnalysisReport()
    pairs = _odd_audit_pairs(ctx)
    for a, b in pairs:
        maps = ctx.half_isos(a, b)
        for rec in audit_theorem41(a, b, maps).records:
            if rec.level != "info":
                report.records.append(rec)
    report.add("odd-audits-run", anchor="theorem41", pairs=len(pairs))
    return report


# ---------------------------------------------------------------------------
# criteria 6 and 7: per-map checks over everything the suite enumerates

def criterion_6(ctx: SuiteContext) -> AnalysisReport:
    report = AnalysisReport()
    maps = 0
    for a, b in _suite_pairs(ctx):
        for s in ctx.map_surveys(a, b):
            maps += 1
            speciality_check(s, report, (a.name, b.name))
    report.add("criteria-agreement-checked", anchor="prop27", maps=maps)
    return report


def criterion_7(ctx: SuiteContext) -> AnalysisReport:
    report = AnalysisReport()
    maps = 0
    for a, b in _suite_pairs(ctx):
        if not (is_power_associative(a) and is_power_associative(b)):
            continue
        for s in ctx.map_surveys(a, b):
            maps += 1
            power_check(s, report, (a.name, b.name))
    report.add("power-compatibility-checked", anchor="prop28", maps=maps)
    return report


# ---------------------------------------------------------------------------
# criterion 8: the engine against the definition-only oracle

def criterion_8(ctx: SuiteContext) -> AnalysisReport:
    report = AnalysisReport()
    pairs = _oracle_pairs(ctx)
    for a, b in pairs:
        naive = [f.mapping for f in naive_half_isos(a, b)]
        pruned = [f.mapping for f in ctx.half_isos(a, b)]
        if naive != pruned:
            report.add(
                "enumeration-mode-mismatch",
                level="finding",
                loops=(a.name, b.name),
                witness=(len(naive), len(pruned)),
                anchor="enumeration-oracle",
            )
    report.add("enumeration-modes-compared", anchor="enumeration-oracle",
               pairs=len(pairs))
    return report


# ---------------------------------------------------------------------------
# criterion 9: generator counts against the naive orbit oracle

def _relabel_table(table, sigma):
    """The table of the same loop with each element x renamed sigma[x]."""
    inv = invert(sigma)
    return tuple(tuple(sigma[table[a][b]] for b in inv) for a in inv)


@lru_cache(maxsize=None)
def naive_class_count(n: int) -> int:
    """Isomorphism classes of order-n loops by direct orbit dedupe.

    Expands the full relabeling orbit of each reduced table; independent of
    canonical forms and of the backtracking search.
    """
    seen: set = set()
    count = 0
    for table in cat.reduced_tables(n):
        if table in seen:
            continue
        count += 1
        for suffix in permutations(range(1, n)):
            seen.add(_relabel_table(table, (0, *suffix)))
    return count


def criterion_9(ctx: SuiteContext) -> AnalysisReport:
    report = AnalysisReport()
    rng = Random(ctx.seed)
    cap = min(ctx.max_order, ORACLE_ORDER_CAP)
    for n in range(1, cap + 1):
        generated = ctx.generated[n]
        oracle = naive_class_count(n)
        if len(generated) != oracle:
            report.add(
                "generator-count-mismatch",
                level="finding",
                witness=(n, len(generated), oracle),
                anchor="generator-oracle",
            )
        keys = {}
        for L in generated:
            c1 = canonical_form(L)
            if canonical_form(c1) != c1:
                report.add(
                    "canonical-not-idempotent",
                    level="finding",
                    loops=(L.name,),
                    anchor="canonical-form",
                )
            # isomorphism-invariance under a sampled relabeling
            labels = list(range(n))
            rng.shuffle(labels)
            sigma = tuple(labels)
            relabeled = make_loop(_relabel_table(L.table, sigma))
            keys[L.name] = canonical_key(L)
            if canonical_key(relabeled) != keys[L.name]:
                report.add(
                    "canonical-not-invariant",
                    level="finding",
                    loops=(L.name,),
                    witness=one_based(sigma),
                    anchor="canonical-form",
                )
            if not are_isomorphic(relabeled, L):
                report.add(
                    "search-missed-isomorphism",
                    level="finding",
                    loops=(L.name,),
                    anchor="canonical-form",
                )
        # canonical equality must agree with the backtracking search
        for i, L1 in enumerate(generated):
            for L2 in generated[i + 1 :]:
                same_key = keys[L1.name] == keys[L2.name]
                same_iso = are_isomorphic(L1, L2)
                if same_key != same_iso:
                    report.add(
                        "canonical-search-disagree",
                        level="finding",
                        loops=(L1.name, L2.name),
                        witness=(same_key, same_iso),
                        anchor="canonical-form",
                    )
    report.add("generator-oracle-checked", anchor="generator-oracle",
               orders=list(range(1, cap + 1)))
    return report


# ---------------------------------------------------------------------------
# criterion 10: the speciality conjecture scan

def criterion_10(ctx: SuiteContext) -> AnalysisReport:
    pool = [(L.name, L) for L in ctx.generated_loops() if is_automorphic(L)]
    return scan_conjecture51(pool, ctx.map_surveys)


CRITERIA = (
    (1, "order-7 example pair reproduction", criterion_1),
    (2, "squared-commuting equivalence on automorphic loops", criterion_2),
    (3, "unique 2-divisibility, odd order, and the commuting condition", criterion_3),
    (4, "builtin identity corpus on automorphic loops", criterion_4),
    (5, "triviality audit on odd-order automorphic pairs", criterion_5),
    (6, "speciality criteria agreement on enumerated half-isomorphisms", criterion_6),
    (7, "power compatibility of enumerated half-isomorphisms", criterion_7),
    (8, "pruned vs naive enumeration equality", criterion_8),
    (9, "generator counts vs naive orbit oracle, canonical form sanity", criterion_9),
    (10, "speciality conjecture scan at small orders", criterion_10),
)


def run_criterion(number: int, ctx: SuiteContext) -> CriterionResult:
    for num, title, fn in CRITERIA:
        if num == number:
            return _timed(num, title, fn, ctx)
    raise ValueError(f"no criterion {number}")


def run_all(ctx: SuiteContext) -> list[CriterionResult]:
    return [_timed(num, title, fn, ctx) for num, title, fn in CRITERIA]
