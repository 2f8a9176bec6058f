"""The three benchmark workloads: seeded inputs, the calls into loopcheck, and
an answer key that does not come from the code under test.

Every input loop is built here as a plain Cayley table (direct products of
cyclic groups, or the order-7 example table printed in the paper), relabeled
by a permutation drawn from the workload seed, and only then handed to
``make_loop``.  The program never sees the builtin labeling.

Each workload is a pair of functions:

* ``build(lc, seed)`` makes the inputs; its cost is part of ``setup_s``.
* ``run(lc, inputs)`` makes the calls whose wall time is ``verdict_s`` and
  returns the observed verdicts as a flat ``{check: value}`` dict.

``EXPECTED[workload]`` holds the reference verdicts for the same keys.
"""
from __future__ import annotations

import random
from math import prod

# The order-7 loop of the paper's Example 2.1 (1-based, as printed).
EXAMPLE21_DOT = (
    (1, 2, 3, 4, 5, 6, 7),
    (2, 3, 7, 5, 6, 1, 4),
    (3, 4, 5, 6, 7, 2, 1),
    (4, 5, 6, 7, 1, 3, 2),
    (5, 6, 4, 1, 2, 7, 3),
    (6, 7, 1, 2, 3, 4, 5),
    (7, 1, 2, 3, 4, 5, 6),
)


def abelian_table(factors: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """Cayley table of Z_f1 x ... x Z_fk, elements in mixed radix."""
    n = prod(factors)

    def digits(x: int) -> list[int]:
        out = []
        for f in reversed(factors):
            out.append(x % f)
            x //= f
        return out[::-1]

    def number(ds) -> int:
        x = 0
        for d, f in zip(ds, factors):
            x = x * f + d
        return x

    coords = [digits(x) for x in range(n)]
    return tuple(
        tuple(
            number((a + b) % f for a, b, f in zip(coords[x], coords[y], factors))
            for y in range(n)
        )
        for x in range(n)
    )


def relabel(table, rng: random.Random) -> tuple[tuple[int, ...], ...]:
    """The same loop under a random bijection sigma: sigma(a)*sigma(b) = sigma(a*b)."""
    n = len(table)
    sigma = list(range(n))
    rng.shuffle(sigma)
    out = [[0] * n for _ in range(n)]
    for a, row in enumerate(table):
        sa = sigma[a]
        for b, ab in enumerate(row):
            out[sa][sigma[b]] = sigma[ab]
    return tuple(tuple(r) for r in out)


def _seeded_loop(lc, rng, table, name):
    return lc.make_loop(relabel(table, rng), name=name)


# ---------------------------------------------------------------------------
# papercheck: the acceptance suite from a cold start

def build_papercheck(lc, seed):
    return {"seed": seed}


def run_papercheck(lc, inputs):
    pc = lc.papercheck
    ctx = pc.build_context(max_order=6, seed=inputs["seed"])
    results = pc.run_all(ctx)
    out = {f"classes[{n}]": len(ctx.generated.get(n, ())) for n in range(1, 7)}
    for res in results:
        out[f"criterion[{res.number}].passed"] = res.passed
        for rec in res.report.records:
            if rec.kind == "identity-corpus-checked":
                out["criterion[4].statements"] = rec.data["statements"]
            if rec.kind == "conjecture-scan-summary":
                out["criterion[10].nonspecial"] = rec.data["nonspecial"]
    return out


# ---------------------------------------------------------------------------
# corpus: every builtin statement on two order-32 abelian groups

CORPUS_GROUPS = (("c2xc2xc2xc2xc2", (2, 2, 2, 2, 2)), ("c4xc8", (4, 8)))
CORPUS_STATEMENTS = 101


def build_corpus(lc, seed):
    rng = random.Random(seed)
    loops = [_seeded_loop(lc, rng, abelian_table(f), name) for name, f in CORPUS_GROUPS]
    return {"loops": loops, "statements": lc.identities.builtin_library()}


def run_corpus(lc, inputs):
    evaluate = lc.identities.evaluate
    out = {"statements": len(inputs["statements"])}
    for L in inputs["loops"]:
        for i, stmt in enumerate(inputs["statements"]):
            out[f"{L.name}:{i}"] = evaluate(L, stmt, automorphic=True) is None
    return out


# ---------------------------------------------------------------------------
# groups: analyze and isomorphism search on the largest groups that finish

# (name, abelian factors or None for the example loop, |Mlt|, |Inn|, |Aut|)
GROUPS = (
    ("c64", (64,), 64, 1, 32),
    ("c8xc8", (8, 8), 64, 1, 1536),              # |GL(2, Z/8)|
    ("c3xc3xc3", (3, 3, 3), 27, 1, 11232),       # |GL(3, 3)|
    ("c7xc7", (7, 7), 49, 1, 2016),              # |GL(2, 7)|
    ("c2xc2xc2xc2", (2, 2, 2, 2), 16, 1, 20160),  # |GL(4, 2)|
    ("example21_dot", None, 5040, 720, 1),
)


def build_groups(lc, seed):
    rng = random.Random(seed)
    pairs = []
    for name, factors, *_ in GROUPS:
        if factors:
            table = abelian_table(factors)
        else:
            table = tuple(tuple(v - 1 for v in row) for row in EXAMPLE21_DOT)
        pairs.append((_seeded_loop(lc, rng, table, name), _seeded_loop(lc, rng, table, name)))
    return {"pairs": pairs}


def run_groups(lc, inputs):
    out = {}
    for L, M in inputs["pairs"]:
        report = lc.cli.analyze_loop(L)
        for rec in report.records:
            if rec.kind == "group-size":
                out[f"{L.name}:|{rec.anchor}|"] = rec.data["size"]
        out[f"{L.name}:isomorphic"] = lc.catalog.are_isomorphic(L, M)
    return out


# ---------------------------------------------------------------------------
# the answer key

def _expected_corpus():
    # Every statement is a theorem of automorphic loops, and abelian groups
    # satisfy the commuting condition, so all of them hold.
    out = {"statements": CORPUS_STATEMENTS}
    for name, _ in CORPUS_GROUPS:
        out.update((f"{name}:{i}", True) for i in range(CORPUS_STATEMENTS))
    return out


EXPECTED = {
    "corpus": _expected_corpus(),
    # McKay, Meynert and Myrvold (2007), OEIS A057771; the paper's corpus of
    # 97 automorphic-loop theorems; no non-special half-isomorphism.
    "papercheck": {
        **{f"classes[{n}]": c for n, c in zip(range(1, 7), (1, 1, 1, 2, 6, 109))},
        **{f"criterion[{k}].passed": True for k in range(1, 11)},
        "criterion[4].statements": 97,
        "criterion[10].nonspecial": 0,
    },
    "groups": {
        key: value
        for name, _, mlt, inn, aut in GROUPS
        for key, value in (
            (f"{name}:|mlt|", mlt),
            (f"{name}:|inn|", inn),
            (f"{name}:|aut|", aut),
            (f"{name}:isomorphic", True),
        )
    },
}


WORKLOADS = {
    "papercheck": (build_papercheck, run_papercheck),
    "corpus": (build_corpus, run_corpus),
    "groups": (build_groups, run_groups),
}


_MISSING = object()


def check(observed: dict, expected: dict) -> int:
    """Number of reference verdicts the observation misses or contradicts."""
    return sum(1 for key, want in expected.items() if observed.get(key, _MISSING) != want)
