import hashlib
import warnings
from collections import Counter
from dataclasses import FrozenInstanceError
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from loopcheck.identities import (
    BUILTIN_MACRO_LINES,
    Equation,
    InverseUnavailable,
    LDiv,
    MAX_NESTING,
    MacroCall,
    Mul,
    One,
    ParseError,
    Pow,
    RDiv,
    Var,
    VariableCapExceeded,
    builtin_library,
    builtin_macros,
    eval_term,
    evaluate,
    expand_term,
    holds,
    macro_to_text,
    parse_identity,
    parse_identity_file,
    parse_macro,
    statement_to_text,
    term_to_text,
    _BUILTIN_TEXTS,
    _Program,
    _memo,
    _pointwise,
)
from loopcheck import identities
from loopcheck.catalog import builtin_loop, generate_loops
from loopcheck.perms import compose, invert
from loopcheck.table import NotAutomorphicWarning, cyclic_group, make_loop


def test_parse_aaip():
    stmt = parse_identity("(x*y)^-1 = y^-1 * x^-1")
    assert stmt.variables == ("x", "y")
    assert stmt.hypotheses == ()
    assert len(stmt.conclusion) == 1
    eq = stmt.conclusion[0]
    assert eq.lhs == Pow(Mul(Var("x"), Var("y")), -1)
    assert eq.rhs == Mul(Pow(Var("y"), -1), Pow(Var("x"), -1))


def test_parse_quasi_identity():
    stmt = parse_identity("x*(x*y) = (y*x)*x => x*y = y*x")
    assert len(stmt.hypotheses) == 1
    assert len(stmt.conclusion) == 1


def test_parse_precedence_and_associativity():
    # postfix > '*' > divisions; binary operators associate to the left
    stmt = parse_identity(r"x * y \ z / w = x^2^3")
    (eq,) = stmt.conclusion
    assert eq.lhs == RDiv(LDiv(Mul(Var("x"), Var("y")), Var("z")), Var("w"))
    assert eq.rhs == Pow(Pow(Var("x"), 2), 3)


def test_parse_divisions():
    stmt = parse_identity(r"x \ (y * x) = y / 1")
    (eq,) = stmt.conclusion
    assert eq.lhs == LDiv(Var("x"), Mul(Var("y"), Var("x")))
    assert eq.rhs == RDiv(Var("y"), One())


def test_parse_disjunction_and_conjunction():
    stmt = parse_identity("x = y & y = x => x * y = 1 | y * x = 1")
    assert len(stmt.hypotheses) == 2
    assert len(stmt.conclusion) == 2
    with pytest.raises(ParseError):
        parse_identity("x = y | y = x | x = x")
    with pytest.raises(ParseError):
        parse_identity("x = y & y = x")  # conjunction needs =>


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_identity("x*y = z \\")  # dangling operator
    with pytest.raises(ParseError):
        parse_identity("x * = y")
    with pytest.raises(ParseError):
        parse_identity("x = 2")  # only the constant 1
    with pytest.raises(ParseError):
        parse_identity("x^99 = x")  # exponent cap
    with pytest.raises(ParseError):
        parse_identity("f(x) = x")  # unknown macro
    err = None
    try:
        parse_identity("x * ? = y")
    except ParseError as e:
        err = e
    assert err is not None and err.pos == 4


def test_macro_arity_checked():
    macros = builtin_macros()
    with pytest.raises(ParseError):
        parse_identity("T(x) = x", macros)


def test_label_prefix():
    stmt = parse_identity("myname: x * y = y * x")
    assert stmt.name == "myname"
    stmt = parse_identity("prop22_a[-2,1]: x = x")
    assert stmt.name == "prop22_a[-2,1]"


def test_parse_identity_file():
    text = """
# comment
let sq(u) := u * u

conj: x * y = y * x
sq(x) = x^2
"""
    statements = parse_identity_file(text)
    assert [s.name for s in statements] == ["conj", None]
    assert statements[0].line == 5
    assert statements[1].conclusion[0].lhs == MacroCall("sq", (Var("x"),))
    with pytest.raises(ParseError) as exc:
        parse_identity_file("\nx * = y\n")
    assert str(exc.value).startswith("line 2: unexpected '='")
    assert str(exc.value).count("column") == 1
    assert exc.value.pos == 4 and exc.value.expected


def test_macro_bodies_are_expanded_at_definition():
    macros = {}
    m1 = parse_macro("let sq(u) := u * u", macros)
    macros["sq"] = m1
    m2 = parse_macro("let fourth(u) := sq(sq(u))", macros)
    body = m2.body
    assert body == Mul(Mul(Var("u"), Var("u")), Mul(Var("u"), Var("u")))


def test_corpus_round_trip_exact():
    texts = dict(_BUILTIN_TEXTS)
    for stmt in builtin_library():
        assert statement_to_text(stmt) == texts[stmt.name]
    macros = {}
    for line in BUILTIN_MACRO_LINES:
        macro = parse_macro(line, macros)
        macros[macro.name] = macro
        assert macro_to_text(macro) == line


terms = st.recursive(
    st.sampled_from([Var("x"), Var("y"), Var("z"), One()]),
    lambda inner: st.one_of(
        st.builds(Mul, inner, inner),
        st.builds(LDiv, inner, inner),
        st.builds(RDiv, inner, inner),
        st.builds(Pow, inner, st.integers(min_value=-16, max_value=16)),
    ),
    max_leaves=40,
)


@settings(max_examples=60, deadline=None)
@given(terms, terms)
def test_print_parse_round_trip(lhs, rhs):
    text = statement_to_text(
        parse_identity(f"{term_to_text(lhs)} = {term_to_text(rhs)}")
    )
    stmt = parse_identity(text)
    assert stmt.conclusion == (Equation(lhs, rhs),)
    assert statement_to_text(stmt) == text


def test_evaluate_holds_on_c7(c7):
    assert holds(c7, parse_identity("(x*y)^-1 = y^-1 * x^-1"))
    assert holds(c7, parse_identity("x * (y * x) = (x * y) * x"))


def test_evaluate_finds_least_counterexample(dot):
    cx = evaluate(dot, parse_identity("x * y = y * x"))
    assert cx is not None
    assert cx.assignment == {"x": 1, "y": 2}


def test_evaluate_hypotheses_filter(s3):
    # commuting pairs of s3 do satisfy the squared condition
    assert holds(s3, parse_identity("x * y = y * x => x * (x * y) = (y * x) * x"))
    # ...but the converse fails on s3
    cx = evaluate(s3, parse_identity("x * (x * y) = (y * x) * x => x * y = y * x"))
    assert cx is not None


def test_evaluate_disjunction(c5):
    assert holds(c5, parse_identity("x * y = y * x | x = y"))
    assert not holds(c5, parse_identity("x = 1 | x = x * x"))


def test_inverse_unavailable_on_dot(dot):
    with pytest.raises(InverseUnavailable) as exc:
        evaluate(dot, parse_identity("(x*y)^-1 = y^-1 * x^-1"))
    assert exc.value.element == 1


def test_variable_cap():
    stmt = parse_identity("a * b * c * d * e = e * d * c * b * a")
    with pytest.raises(VariableCapExceeded):
        evaluate(cyclic_group(2), stmt)
    assert holds(cyclic_group(2), stmt, max_vars=5)


def test_t_inv_warning(star):
    lib = {s.name: s for s in builtin_library()}
    with pytest.warns(NotAutomorphicWarning):
        evaluate(star, lib["prop30"])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        evaluate(star, lib["prop30"], automorphic=True)


def test_division_encoding_matches_loop_divisions(star, dot):
    macros = builtin_macros()
    r_inv = expand_term(parse_identity("R_inv(y, x) = 1", macros).conclusion[0].lhs, macros)
    l_inv = expand_term(parse_identity("L_inv(y, x) = 1", macros).conclusion[0].lhs, macros)
    for L in (star, dot):
        for x in L.elements:
            for y in L.elements:
                env = {"x": x, "y": y}
                assert eval_term(L, r_inv, env) == L.rdiv(x, y)
                assert eval_term(L, l_inv, env) == L.ldiv(x, y)


def test_t_macro_matches_middle_translation(star, dot):
    macros = builtin_macros()
    t_term = expand_term(parse_identity("T(y, x) = 1", macros).conclusion[0].lhs, macros)
    for L in (star, dot):
        for x in L.elements:
            tx = compose(L.right_translation(x), invert(L.left_translation(x)))
            for y in L.elements:
                assert eval_term(L, t_term, {"x": x, "y": y}) == tx[y]


def test_builtin_library_shape():
    lib = builtin_library()
    names = [s.name for s in lib]
    assert len(names) == len(set(names))
    assert len(lib) == 101
    for prefix, count in (("lemma31_", 8), ("lemma34_", 6), ("prop22_", 76)):
        assert sum(1 for n in names if n.startswith(prefix)) == count
    assert all(len(s.variables) <= 3 for s in lib)


def test_builtins_hold_on_automorphic_groups(c5, c7, s3):
    lib = builtin_library()
    skip = {"co1_fwd"}  # fails on even-order non-commutative loops like s3
    for stmt in lib:
        assert holds(c7, stmt, automorphic=True), stmt.name
        if stmt.name not in skip:
            assert holds(s3, stmt, automorphic=True), stmt.name


def test_cor32_holds_on_automorphic_catalog(catalog6):
    lib = {s.name: s for s in builtin_library()}
    for entry in catalog6:
        if not entry.automorphic:
            continue
        for name in ("cor32_a", "cor32_b"):
            assert holds(entry.loop, lib[name], automorphic=True), (entry.name, name)


def test_co1_statement_matches_structure_predicate(catalog6):
    from loopcheck.structure import satisfies_co1

    lib = {s.name: s for s in builtin_library()}
    for entry in catalog6:
        if not entry.power_associative:
            continue  # the quasi-identity needs no inverses, but stay on PA turf
        both = (holds(entry.loop, lib["co1_fwd"], automorphic=True)
                and holds(entry.loop, lib["co1_bwd"], automorphic=True))
        assert both == satisfies_co1(entry.loop), entry.name


def test_lemma31_a_fails_off_hypothesis(catalog5):
    # the first displayed squaring identity needs the automorphic hypothesis
    lib = {s.name: s for s in builtin_library()}
    outcomes = {}
    for entry in catalog5:
        if entry.automorphic:
            continue
        try:
            cx = evaluate(entry.loop, lib["lemma31_a"], automorphic=True)
        except InverseUnavailable:
            outcomes[entry.name] = "no-inverse"
            continue
        outcomes[entry.name] = dict(cx.assignment) if cx else "holds"
    assert outcomes == {
        "n5_001": {"x": 1, "y": 2},
        "n5_002": {"x": 1, "y": 2},
        "n5_003": {"x": 1, "y": 2},
        "n5_004": {"x": 1, "y": 2},
        "n5_005": "no-inverse",
    }


def _tree_walk(L, stmt):
    """Outcome of the reference evaluator: the scalar tree walker over every
    assignment in lexicographic order, as `evaluate` is specified."""
    names = stmt.variables
    sides = [
        [(expand_term(e.lhs, stmt.macros), expand_term(e.rhs, stmt.macros)) for e in eqs]
        for eqs in (stmt.hypotheses, stmt.conclusion)
    ]
    try:
        for combo in product(L.elements, repeat=len(names)):
            env = dict(zip(names, combo))
            if any(eval_term(L, lhs, env) != eval_term(L, rhs, env) for lhs, rhs in sides[0]):
                continue
            if any(eval_term(L, lhs, env) == eval_term(L, rhs, env) for lhs, rhs in sides[1]):
                continue
            return env
    except InverseUnavailable as err:
        return ("no-inverse", err.element)
    return "holds"


def _compiled(L, stmt):
    try:
        cx = evaluate(L, stmt, automorphic=True)
    except InverseUnavailable as err:
        return ("no-inverse", err.element)
    return "holds" if cx is None else cx.assignment


ORACLE_TEXTS = (
    "x * y = y * x => x^-1 * y = y * x^-1",  # hypothesis short-circuits
    "x = 1 => x^-1 = x",  # ... before an inverse that does not exist
    "x = x | x^-1 = 1",  # the first alternative decides alone
    "x * y = y * x & y * z = z * y => (x * z)^-1 = z^-1 * x^-1",
    r"x = y | x \ y = y^-2",  # two-way disjunction, negative power
    "x * y = 1 => y / x = x^-1",  # '/' and '^-1' without inverses
    "x^-1 * y = z => y^-3 = z / x",
    "x * (y * z) = x * y * z | w^-1 = w",  # four variables: prefix blocks
    "x * y * z * w = w * (z * (y * x))",
    "1 = 1",
    "x^-1 = x",
    # One entry per kernel in statement order.  The last two variables vary
    # over a block, the first of them along runs and the second along
    # strides; any before them are constant over it.
    "x * y * z = z * (y * x)",  # constant operands, left and right
    "x * y = y * x * (x * 1)",  # run operands, left and right, against both
    "x * y * y = y * (x * y)",  # stride operands, left and right
    "x * y * (y * x) = y * x * (x * y)",  # no operand constant along anything
    r"(x * y) \ (z * w) = w / (y * x) * z | z = w",  # leading variables feed constants
    # Strides on both sides in the cheapest arrangement too: swapping x and
    # y would turn the three products of powers of x into strides.
    "x * x^2 * (x^2 * x) * (y * y^2) = x * y * y^2",
)


def test_compiled_evaluate_matches_tree_walker(catalog5, star, dot, s3):
    loops = [e.loop for n in range(1, 5) for e in generate_loops(n)]
    loops += [e.loop for e in catalog5] + [star, dot, s3]
    macros = builtin_macros()
    oracle = [parse_identity(t, macros) for t in ORACLE_TEXTS]
    statements = list(builtin_library()) + oracle
    seen = set()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NotAutomorphicWarning)
        for L in loops:
            for stmt in statements:
                want = _tree_walk(L, stmt)
                assert _compiled(L, stmt) == want, (L.name, statement_to_text(stmt))
                _check_arranged_pass(L, stmt, want)
                seen.add(want if isinstance(want, str) else type(want).__name__)
                plan = stmt._plan
                if plan.order != plan.statement_order:
                    seen.add(("arranged", want if isinstance(want, str) else type(want).__name__))
    # every kind of outcome occurs, and each also after a rearranged pass
    kinds = {"holds", "dict", "tuple"}
    assert seen == kinds | {("arranged", kind) for kind in kinds}
    # every kernel runs, on each axis it can read, in the cheapest
    # arrangements and in statement order alike
    sided = ("_by_constant", "_by_runs", "_by_runs_and_strides", "_by_strides")
    every = {(name, axis) for name in sided for axis in ("rows", "cols")} | {
        ("_pointwise", "rows"),
        ("_power", None),
    }
    for attr in ("steps", "statement_steps"):
        kernels = {
            (kernel.__name__, axis if kernel.__name__ != "_power" else None)
            for stmt in oracle
            for _, kernel, _, _, axis, _, _ in getattr(stmt._plan, attr)
        }
        assert kernels == every, attr


def _check_arranged_pass(L, stmt, want):
    """The cheapest arrangement alone, without the replay, against the tree
    walker's outcome `want`: it must see a failure wherever there is a
    counterexample, and none where the statement holds and every element
    has an inverse (only a missing inverse may stop it there)."""
    plan = stmt._plan
    passed = _Program(L, plan, plan.order, plan.steps).holds()
    if isinstance(want, dict):
        assert not passed, (L.name, statement_to_text(stmt))
    elif want == "holds" and -1 not in L.inverse_table:
        assert passed, (L.name, statement_to_text(stmt))


def test_cheapest_arrangement_drops_the_pointwise_steps_of_lemma34():
    # In statement order both take a lookup per assignment; putting z first
    # makes every step of theirs a translation per block or per run.
    lib = {s.name: s for s in builtin_library()}
    for name in ("lemma34_c", "lemma34_d"):
        plan = lib[name]._plan
        assert _pointwise in {kernel for _, kernel, *_ in plan.statement_steps}, name
        assert _pointwise not in {kernel for _, kernel, *_ in plan.steps}, name


def test_cheapest_arrangement_of_lemma34_c_scores_the_steps_per_block():
    # A step that reads the leading variable runs once per block.  So
    # lemma34_c puts y first and the tail (z, x): x * z is computed once per
    # loop, and the eight steps that read y each translate once per block or
    # per run, against the six steps in statement order, one of them a
    # lookup per assignment.
    plan = {s.name: s for s in builtin_library()}["lemma34_c"]._plan
    assert plan.order == (1, 2, 0)
    assert [block for block, *_ in plan.steps] == [None] * 4 + ["2M(b,a)"] + [None] * 4


def _blocks(L):
    """The subterm blocks in `L`'s memo, by name; the other entries are
    translation tables."""
    return {k: v for k, v in _memo(L).items() if k[0].isdigit()}


def test_blocks_are_named_by_tail_size_and_tail_position():
    x_first, y_first = (parse_identity(t) for t in ("x * y^-1 = y^-1 * x", "y^-1 * x = x * y^-1"))
    single = parse_identity("x^-1 = x^-1 * 1")
    three = parse_identity("z * (x * y^-1) = z * (y^-1 * x)")
    # the same subterms in swapped tail positions, a single-variable tail,
    # and a leading variable z that the hoisted slots do not read
    assert [b for b, *_ in x_first._plan.steps] == ["2P(b,-1)", "2M(a,P(b,-1))", "2M(P(b,-1),a)"]
    assert [b for b, *_ in y_first._plan.steps] == ["2P(a,-1)", "2M(P(a,-1),b)", "2M(b,P(a,-1))"]
    assert [b for b, *_ in single._plan.steps] == ["1P(a,-1)", "1M(P(a,-1),1)"]
    assert three._plan.order == three._plan.statement_order
    assert [b for b, *_ in three._plan.steps] == [
        "2P(b,-1)", "2M(a,P(b,-1))", None, "2M(P(b,-1),a)", None
    ]
    L = make_loop(cyclic_group(5).table)
    for stmt in (x_first, y_first, single, three):
        assert evaluate(L, stmt) is None
    blocks = _blocks(L)
    assert sorted(blocks) == sorted(
        {"2P(a,-1)", "2P(b,-1)", "2M(a,P(b,-1))", "2M(P(b,-1),a)", "2M(P(a,-1),b)",
         "2M(b,P(a,-1))", "1P(a,-1)", "1M(P(a,-1),1)"}
    )
    assert blocks["1P(a,-1)"] == bytes((-a) % 5 for a in range(5))


def test_memo_keeps_blocks_within_its_cap(monkeypatch):
    statements = builtin_library()
    c4xc8 = builtin_loop("c4xc8").table
    L = make_loop(c4xc8)
    for stmt in statements:
        evaluate(L, stmt, automorphic=True)
    uncapped = sum(map(len, _blocks(L).values()))
    cap = 5 * 32 * 32  # five order-32 blocks
    assert uncapped > 10 * cap
    monkeypatch.setattr(identities, "MEMO_BYTES", cap)
    L = make_loop(c4xc8)
    stored, names = [], []
    for stmt in statements:
        assert evaluate(L, stmt, automorphic=True) is None
        blocks = _blocks(L)
        stored.append(sum(map(len, blocks.values())))
        names.append(set(blocks))
    assert max(stored) == cap
    full = stored.index(cap)
    assert full < 10
    # once full, the memo stops growing: no block is added or replaced
    assert names[full] == names[-1] and len(names[-1]) == 5


def test_identity_outcomes_digest():
    # Every builtin on the 51 smallest catalog loops, each outcome as its
    # repr or the element without an inverse; the digest was taken from the
    # evaluator before blocks were kept per loop.
    loops = [e.loop for n in range(1, 6) for e in generate_loops(n)]
    loops += [e.loop for e in generate_loops(6)[:40]]
    outcomes = []
    for L in loops:
        for stmt in builtin_library():
            try:
                outcomes.append(repr(evaluate(L, stmt, automorphic=True)))
            except InverseUnavailable as err:
                outcomes.append(f"inv{err.element}")
    kinds = Counter("holds" if o == "None" else o[:3] for o in outcomes)
    assert (len(loops), kinds) == (51, {"holds": 2323, "Cou": 1263, "inv": 1565})
    digest = hashlib.sha256("\n".join(outcomes).encode()).hexdigest()
    assert digest == "18387252f7d7c4441cbcdfbd3f70e501c7c3646197009afeec8aa1d99ef2b6ca"


def test_deep_nesting_is_a_parse_error():
    for text in (
        "(" * 400 + "x" + ")" * 400 + " = x",
        " * ".join(["x"] * 3000) + " = x",
        "x" + "^2" * 200 + " = x",
    ):
        with pytest.raises(ParseError, match="nesting too deep"):
            parse_identity(text)
    # macro calls count with the height of their expansion
    tall = parse_macro("let tall(u) := " + " * ".join(["u"] * 61))
    with pytest.raises(ParseError, match="nesting too deep"):
        parse_identity("tall(tall(x)) = x", {"tall": tall})
    # the deepest accepted statement prints, parses back and evaluates
    stmt = parse_identity("(" * MAX_NESTING + " * ".join(["x"] * (MAX_NESTING + 1))
                          + ")" * MAX_NESTING + " = x^2 * x^-1")
    assert parse_identity(statement_to_text(stmt)).conclusion == stmt.conclusion
    assert evaluate(cyclic_group(2), stmt) is None


def test_plan_is_built_once_and_shared_across_loops(dot):
    # Interleaved orders, with a loop that has no inverses for 4 elements
    # between two groups of order 32; a program bound to one loop and kept
    # on the statement would answer for the wrong tables.
    c2_5 = builtin_loop("c2xc2xc2xc2xc2")
    loops = (c2_5, dot, builtin_loop("c4xc8"), c2_5)
    statements = builtin_library()
    plans = {}
    want = {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NotAutomorphicWarning)
        for L in loops:
            for stmt in statements:
                if (L, stmt) not in want:
                    want[L, stmt] = _tree_walk(L, stmt)
                assert _compiled(L, stmt) == want[L, stmt], (L.name, stmt.label())
                assert stmt._plan is plans.setdefault(stmt.label(), stmt._plan)
    assert len(plans) == len(statements)


def test_plan_is_built_on_first_evaluation_not_at_parse_time():
    stmt = parse_identity("x * (y * x) = x * y * x")
    assert "_plan" not in vars(stmt)
    with pytest.raises(FrozenInstanceError):
        stmt.variables = ("x",)
    assert evaluate(cyclic_group(3), stmt) is None
    assert "_plan" in vars(stmt)
