import warnings
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
)
from loopcheck.catalog import generate_loops
from loopcheck.perms import compose, invert
from loopcheck.table import NotAutomorphicWarning, cyclic_group


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
)


def test_compiled_evaluate_matches_tree_walker(catalog5, star, dot, s3):
    loops = [e.loop for n in range(1, 5) for e in generate_loops(n)]
    loops += [e.loop for e in catalog5] + [star, dot, s3]
    macros = builtin_macros()
    statements = list(builtin_library()) + [parse_identity(t, macros) for t in ORACLE_TEXTS]
    seen = set()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NotAutomorphicWarning)
        for L in loops:
            for stmt in statements:
                want = _tree_walk(L, stmt)
                assert _compiled(L, stmt) == want, (L.name, statement_to_text(stmt))
                seen.add(want if isinstance(want, str) else type(want).__name__)
    assert seen == {"holds", "dict", "tuple"}  # every kind of outcome occurs


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
