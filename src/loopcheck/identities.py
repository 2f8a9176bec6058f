r"""Parser and finite-model evaluator for loop identities and quasi-identities.

Grammar (one statement per line):

    statement   := equations [ '=>' conclusion ] | conclusion
    equations   := equation ( '&' equation )*          hypotheses
    conclusion  := equation [ '|' equation ]           at most two alternatives
    equation    := term '=' term
    term        := multerm ( ('\' | '/') multerm )*    left/right division
    multerm     := postfix ( '*' postfix )*
    postfix     := primary ( '^' [-]digits )*          |exponent| <= 16
    primary     := '1' | name | name '(' term (',' term)* ')' | '(' term ')'

All binary operators are left-associative; postfix binds tighter than '*',
which binds tighter than the divisions.  `x \ y` is the unique z with
x*z = y and `y / x` the unique z with z*x = y, so the inverse translations
are expressible without a permutation-valued term language.  Macros are
declared on their own lines as ``let name(args) := term`` before first use;
a line may carry an optional ``name:`` label.  ``#`` starts a comment.

A statement quantifies universally over its free variables.  Evaluation on a
loop tries every assignment in lexicographic order (variables ordered by
first appearance) and reports the first counterexample, if any.
"""
from __future__ import annotations

import operator
import warnings
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import product
from typing import Iterator, Mapping, Union

from .table import LoopTable, LoopError, NoTwoSidedInverse, NotAutomorphicWarning

MAX_EXPONENT = 16
# Deepest parenthesis nesting and term height (after macro expansion) that
# parse; well below the interpreter's recursion limit, since the parser,
# the printer and the evaluators all recurse over terms.
MAX_NESTING = 100
# Most nodes a term may have after macro expansion.  Expansion, compilation
# and the tree walker visit every node of the expanded tree, and each macro
# nesting level can square that count, so a short file could otherwise ask
# for billions of nodes.  The largest builtin statement has 25 nodes.
MAX_TERM_SIZE = 10_000
DEFAULT_VARIABLE_CAP = 4


class ParseError(LoopError):
    def __init__(self, message: str, pos: int, expected: tuple[str, ...] = ()):
        self.message = message
        self.pos = pos
        self.expected = expected
        text = f"{message} at column {pos + 1}"
        if expected:
            text += f" (expected {', '.join(expected)})"
        super().__init__(text)


class InverseUnavailable(LoopError):
    def __init__(self, element: int, loop: LoopTable):
        self.element = element
        self.loop = loop
        super().__init__(
            f"element {element + 1} of {loop.name or 'the loop'} has no "
            "two-sided inverse; the statement is not evaluable"
        )


class VariableCapExceeded(LoopError):
    pass


# ---------------------------------------------------------------------------
# AST

@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class One:
    pass


@dataclass(frozen=True)
class Mul:
    left: "Term"
    right: "Term"


@dataclass(frozen=True)
class LDiv:
    left: "Term"
    right: "Term"


@dataclass(frozen=True)
class RDiv:
    left: "Term"
    right: "Term"


@dataclass(frozen=True)
class Pow:
    arg: "Term"
    exponent: int


@dataclass(frozen=True)
class MacroCall:
    name: str
    args: tuple["Term", ...]


Term = Union[Var, One, Mul, LDiv, RDiv, Pow, MacroCall]


@dataclass(frozen=True)
class Equation:
    lhs: Term
    rhs: Term


@dataclass(frozen=True)
class MacroDef:
    name: str
    params: tuple[str, ...]
    body: Term  # macro-free


@dataclass
class IdentityStatement:
    variables: tuple[str, ...]
    hypotheses: tuple[Equation, ...]
    conclusion: tuple[Equation, ...]  # one equation or a 2-way disjunction
    name: str | None = field(default=None, compare=False)
    macros: Mapping[str, MacroDef] = field(default_factory=dict, compare=False)
    line: int | None = field(default=None, compare=False)

    def label(self) -> str:
        if self.name:
            return self.name
        if self.line is not None:
            return f"line {self.line}"
        return "<statement>"


@dataclass
class Counterexample:
    assignment: dict[str, int]

    def items(self):
        return sorted(self.assignment.items())


# ---------------------------------------------------------------------------
# lexer

_SINGLE = {
    "*": "STAR",
    "\\": "BSLASH",
    "/": "SLASH",
    "(": "LPAREN",
    ")": "RPAREN",
    "&": "AMP",
    "|": "PIPE",
    ",": "COMMA",
}


def _integer(digits: str, pos: int) -> int:
    try:
        return int(digits)
    except ValueError:  # beyond the interpreter's limit on digits
        raise ParseError("integer too long", pos) from None


def _tokenize(text: str) -> list[tuple[str, object, int]]:
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
        elif c == "#":
            break
        elif c.isalpha() or c == "_":
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            out.append(("NAME", text[i:j], i))
            i = j
        elif c.isdecimal():
            j = i + 1
            while j < n and text[j].isdecimal():
                j += 1
            out.append(("INT", _integer(text[i:j], i), i))
            i = j
        elif c == "^":
            j = i + 1
            if j < n and text[j] == "-":
                j += 1
            k = j
            while k < n and text[k].isdecimal():
                k += 1
            if k == j:
                raise ParseError("malformed exponent", i, ("integer",))
            value = _integer(text[i + 1 : k], i)
            if abs(value) > MAX_EXPONENT:
                raise ParseError(f"exponent {value} out of range", i)
            out.append(("POW", value, i))
            i = k
        elif c == ":" and i + 1 < n and text[i + 1] == "=":
            out.append(("ASSIGN", ":=", i))
            i += 2
        elif c == ":":
            out.append(("COLON", ":", i))
            i += 1
        elif c == "=" and i + 1 < n and text[i + 1] == ">":
            out.append(("IMPLIES", "=>", i))
            i += 2
        elif c == "=":
            out.append(("EQ", "=", i))
            i += 1
        elif c in _SINGLE:
            out.append((_SINGLE[c], c, i))
            i += 1
        else:
            raise ParseError(f"unexpected character {c!r}", i)
    out.append(("EOF", None, n))
    return out


class _Parser:
    def __init__(self, tokens, macros: Mapping[str, MacroDef]):
        self.tokens = tokens
        self.i = 0
        self.macros = macros
        self.depth = 0  # open parentheses and macro argument lists

    def grow(self, height: int, size: int, pos: int) -> tuple[int, int]:
        if height > MAX_NESTING:
            raise ParseError("nesting too deep", pos)
        if size > MAX_TERM_SIZE:
            raise ParseError("term too large", pos)
        return height, size

    def peek(self) -> str:
        return self.tokens[self.i][0]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str):
        if self.peek() != kind:
            _, value, pos = self.tokens[self.i]
            raise ParseError(f"unexpected {value!r}", pos, (kind,))
        return self.next()

    def statement(self, name: str | None) -> IdentityStatement:
        equations = [self.equation()]
        while self.peek() == "AMP":
            self.next()
            equations.append(self.equation())
        hypotheses: tuple[Equation, ...] = ()
        if self.peek() == "IMPLIES":
            self.next()
            hypotheses = tuple(equations)
            conclusion = [self.equation()]
        else:
            if len(equations) > 1:
                _, _, pos = self.tokens[self.i]
                raise ParseError(
                    "hypothesis conjunction requires an implication", pos, ("=>",)
                )
            conclusion = equations
        if self.peek() == "PIPE":
            self.next()
            conclusion.append(self.equation())
        if self.peek() == "PIPE":
            _, _, pos = self.tokens[self.i]
            raise ParseError("at most two alternatives in a conclusion", pos)
        self.expect("EOF")
        stmt = IdentityStatement(
            variables=(),
            hypotheses=hypotheses,
            conclusion=tuple(conclusion),
            name=name,
            macros=dict(self.macros),
        )
        stmt.variables = _free_variables(stmt)
        return stmt

    def equation(self) -> Equation:
        lhs, _, _ = self.term()
        self.expect("EQ")
        rhs, _, _ = self.term()
        return Equation(lhs, rhs)

    # Each term method returns the term with its height and node count after
    # macro expansion; for macro calls both are upper bounds.

    def term(self) -> tuple[Term, int, int]:
        node, height, size = self.multerm()
        while self.peek() in ("BSLASH", "SLASH"):
            kind, _, pos = self.next()
            rhs, rheight, rsize = self.multerm()
            node = LDiv(node, rhs) if kind == "BSLASH" else RDiv(node, rhs)
            height, size = self.grow(max(height, rheight) + 1, size + rsize + 1, pos)
        return node, height, size

    def multerm(self) -> tuple[Term, int, int]:
        node, height, size = self.postfix()
        while self.peek() == "STAR":
            _, _, pos = self.next()
            rhs, rheight, rsize = self.postfix()
            node = Mul(node, rhs)
            height, size = self.grow(max(height, rheight) + 1, size + rsize + 1, pos)
        return node, height, size

    def postfix(self) -> tuple[Term, int, int]:
        node, height, size = self.primary()
        while self.peek() == "POW":
            _, value, pos = self.next()
            node = Pow(node, value)
            height, size = self.grow(height + 1, size + 1, pos)
        return node, height, size

    def nested_term(self, pos: int) -> tuple[Term, int, int]:
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ParseError("nesting too deep", pos)
        out = self.term()
        self.depth -= 1
        return out

    def primary(self) -> tuple[Term, int, int]:
        kind, value, pos = self.next()
        if kind == "INT":
            if value != 1:
                raise ParseError("only the constant 1 is a valid literal", pos)
            return One(), 0, 1
        if kind == "LPAREN":
            out = self.nested_term(pos)
            self.expect("RPAREN")
            return out
        if kind == "NAME":
            if self.peek() != "LPAREN":
                return Var(value), 0, 1
            self.next()
            args = [self.nested_term(pos)]
            while self.peek() == "COMMA":
                self.next()
                args.append(self.nested_term(pos))
            self.expect("RPAREN")
            macro = self.macros.get(value)
            if macro is None:
                raise ParseError(f"unknown macro {value!r}", pos)
            if len(args) != len(macro.params):
                raise ParseError(
                    f"macro {value!r} takes {len(macro.params)} arguments, "
                    f"got {len(args)}",
                    pos,
                )
            # every leaf of the body becomes at most the largest argument
            height, size = _shape(macro.body)
            height += max(h for _, h, _ in args)
            size *= max(s for _, _, s in args)
            call = MacroCall(value, tuple(t for t, _, _ in args))
            return (call, *self.grow(height, size, pos))
        raise ParseError(
            f"unexpected {value!r}", pos, ("1", "name", "(")
        )


def _children(term: Term) -> tuple[Term, ...]:
    if isinstance(term, (Mul, LDiv, RDiv)):
        return (term.left, term.right)
    if isinstance(term, Pow):
        return (term.arg,)
    if isinstance(term, MacroCall):
        return term.args
    return ()


def _walk(term: Term) -> Iterator[Term]:
    yield term
    for child in _children(term):
        yield from _walk(child)


def _shape(term: Term, memo: dict | None = None) -> tuple[int, int]:
    """Height and node count of a macro-free `term` read as a tree.

    Expanded macro bodies share the argument terms they substitute, so both
    are memoized per node to stay linear in the shared size.
    """
    memo = {} if memo is None else memo
    if id(term) not in memo:
        shapes = [_shape(c, memo) for c in _children(term)]
        height = max((h + 1 for h, _ in shapes), default=0)
        memo[id(term)] = height, 1 + sum(s for _, s in shapes)
    return memo[id(term)]


def _free_variables(stmt: IdentityStatement) -> tuple[str, ...]:
    seen: list[str] = []
    for eq in (*stmt.hypotheses, *stmt.conclusion):
        for term in (eq.lhs, eq.rhs):
            for node in _walk(term):
                if isinstance(node, Var) and node.name not in seen:
                    seen.append(node.name)
    return tuple(seen)


def _split_label(text: str) -> tuple[str | None, str]:
    # An optional ``name:`` prefix; ':' otherwise only occurs in ':=' lines.
    i = text.find(":")
    if i > 0 and (i + 1 >= len(text) or text[i + 1] != "="):
        label = text[:i].strip()
        if label:
            return label, text[i + 1 :]
    return None, text


def parse_identity(
    text: str,
    macros: Mapping[str, MacroDef] | None = None,
    name: str | None = None,
) -> IdentityStatement:
    """Parse a single statement; `macros` supplies the definitions it may use."""
    label, body = _split_label(text)
    if label is not None:
        name = label
    tokens = _tokenize(body)
    parser = _Parser(tokens, macros or {})
    return parser.statement(name)


def parse_macro(text: str, macros: Mapping[str, MacroDef] | None = None) -> MacroDef:
    """Parse a ``let name(params) := term`` line.

    The body is expanded against the already-known macros at definition
    time, so stored bodies are always macro-free.
    """
    tokens = _tokenize(text)
    parser = _Parser(tokens, macros or {})
    kind, value, pos = parser.next()
    if kind != "NAME" or value != "let":
        raise ParseError("macro definitions start with 'let'", pos)
    _, mname, pos = parser.expect("NAME")
    parser.expect("LPAREN")
    params = [parser.expect("NAME")[1]]
    while parser.peek() == "COMMA":
        parser.next()
        params.append(parser.expect("NAME")[1])
    parser.expect("RPAREN")
    parser.expect("ASSIGN")
    body, _, _ = parser.term()
    parser.expect("EOF")
    if len(set(params)) != len(params):
        raise ParseError(f"duplicate parameter in macro {mname!r}", pos)
    return MacroDef(mname, tuple(params), expand_term(body, parser.macros))


def parse_identity_file(text: str) -> list[IdentityStatement]:
    """Parse a whole identities file: comments, let-lines, then statements."""
    macros: dict[str, MacroDef] = {}
    statements = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            if line.split(maxsplit=1)[0] == "let":
                macro = parse_macro(line, macros)
                macros[macro.name] = macro
            else:
                stmt = parse_identity(line, macros)
                stmt.line = lineno
                statements.append(stmt)
        except ParseError as err:
            raise ParseError(
                f"line {lineno}: {err.message}", err.pos, err.expected
            ) from err
    return statements


# ---------------------------------------------------------------------------
# printing

def _prec(term: Term) -> int:
    if isinstance(term, Mul):
        return 2
    if isinstance(term, (LDiv, RDiv)):
        return 1
    return 3


def term_to_text(term: Term) -> str:
    def sub(t: Term, minp: int) -> str:
        s = term_to_text(t)
        return f"({s})" if _prec(t) < minp else s

    if isinstance(term, Var):
        return term.name
    if isinstance(term, One):
        return "1"
    if isinstance(term, Mul):
        return f"{sub(term.left, 2)} * {sub(term.right, 3)}"
    # division operands are always parenthesized unless atomic; bare mixed
    # chains like "x \ y * x" are valid input but too easy to misread
    if isinstance(term, LDiv):
        return f"{sub(term.left, 3)} \\ {sub(term.right, 3)}"
    if isinstance(term, RDiv):
        return f"{sub(term.left, 3)} / {sub(term.right, 3)}"
    if isinstance(term, Pow):
        return f"{sub(term.arg, 3)}^{term.exponent}"
    if isinstance(term, MacroCall):
        return f"{term.name}({', '.join(term_to_text(a) for a in term.args)})"
    raise TypeError(f"not a term: {term!r}")


def equation_to_text(eq: Equation) -> str:
    return f"{term_to_text(eq.lhs)} = {term_to_text(eq.rhs)}"


def statement_to_text(stmt: IdentityStatement) -> str:
    concl = " | ".join(equation_to_text(eq) for eq in stmt.conclusion)
    if stmt.hypotheses:
        hyps = " & ".join(equation_to_text(eq) for eq in stmt.hypotheses)
        return f"{hyps} => {concl}"
    return concl


def macro_to_text(macro: MacroDef) -> str:
    return f"let {macro.name}({', '.join(macro.params)}) := {term_to_text(macro.body)}"


# ---------------------------------------------------------------------------
# evaluation

def expand_term(
    term: Term, macros: Mapping[str, MacroDef], args: Mapping[str, Term] | None = None
) -> Term:
    """Replace macro calls by their bodies; the result is macro-free.

    Inside a macro body, `args` maps the macro's parameters to its expanded
    arguments, which are shared rather than copied.
    """
    if isinstance(term, Var):
        return args.get(term.name, term) if args else term
    if isinstance(term, One):
        return term

    def sub(t: Term) -> Term:
        return expand_term(t, macros, args)

    if isinstance(term, (Mul, LDiv, RDiv)):
        return type(term)(sub(term.left), sub(term.right))
    if isinstance(term, Pow):
        return Pow(sub(term.arg), term.exponent)
    if isinstance(term, MacroCall):
        macro = macros.get(term.name)
        if macro is None:
            raise LoopError(f"undefined macro {term.name!r}")
        inner = dict(zip(macro.params, map(sub, term.args)))
        return expand_term(macro.body, macros, inner)
    raise TypeError(f"not a term: {term!r}")


def eval_term(L: LoopTable, term: Term, env: Mapping[str, int]) -> int:
    """Evaluate a macro-free term under one assignment of elements to variables.

    This tree walker defines the semantics; `evaluate` compiles terms instead,
    falls back to this walker in a block that meets a missing inverse, and is
    tested against it.
    """
    if isinstance(term, Var):
        return env[term.name]
    if isinstance(term, One):
        return L.identity
    if isinstance(term, Mul):
        return L.table[eval_term(L, term.left, env)][eval_term(L, term.right, env)]
    if isinstance(term, LDiv):
        return L.ldiv(eval_term(L, term.left, env), eval_term(L, term.right, env))
    if isinstance(term, RDiv):
        # t1 / t2 is the z with z*t2 = t1, i.e. rdiv(divisor=t2, target=t1)
        return L.rdiv(eval_term(L, term.right, env), eval_term(L, term.left, env))
    if isinstance(term, Pow):
        try:
            return L.power(eval_term(L, term.arg, env), term.exponent)
        except NoTwoSidedInverse as err:
            raise InverseUnavailable(err.element, L) from err
    raise TypeError(f"not an evaluable term: {term!r}")


class _Poison(Exception):
    """A block asked for the inverse of an element that has none."""


def _binary(rows, i: int, j: int):
    def step(vals):
        return [rows[a][b] for a, b in zip(vals[i], vals[j])]

    return step


def _unary(table: tuple[int, ...], i: int):
    def step(vals):
        return [table[a] for a in vals[i]]

    def partial_step(vals):
        out = [table[a] for a in vals[i]]
        if -1 in out:
            raise _Poison
        return out

    return partial_step if -1 in table else step


class _Program:
    """A statement compiled for one loop, evaluated a block at a time.

    A block holds every assignment of the last (at most two) variables for
    one assignment of the leading ones, so it has at most n^2 assignments.
    Every slot holds the values of one subterm over a block: first the
    variables, then the constant 1, then one slot per distinct compound
    subterm.  `steps` fill the compound slots in the tree walker's order
    (operands before their parent, the divisor of ``/`` first), which is
    also the order of their table lookup.
    """

    TABLES = {Mul: "table", LDiv: "ldiv_table", RDiv: "rdiv_table"}

    def __init__(self, L: LoopTable, stmt: IdentityStatement):
        self.loop = L
        self.names = names = stmt.variables
        self.slots: dict = {Var(v): i for i, v in enumerate(names)}
        self.slots[One()] = len(names)
        self.steps: dict[int, object] = {}
        # the expanded sides, which the tree walker reads in a poisoned block
        self.hyps, self.concl = (
            [(expand_term(eq.lhs, stmt.macros), expand_term(eq.rhs, stmt.macros)) for eq in eqs]
            for eqs in (stmt.hypotheses, stmt.conclusion)
        )
        self.hyp_slots = [(self._compile(lhs), self._compile(rhs)) for lhs, rhs in self.hyps]
        self.concl_slots = [(self._compile(lhs), self._compile(rhs)) for lhs, rhs in self.concl]
        n = L.order
        tail = min(len(names), 2)
        self.leading = len(names) - tail
        self.size = n**tail
        self.columns = [[i // n**p % n for i in range(self.size)] for p in reversed(range(tail))]

    def _compile(self, term: Term) -> int:
        if isinstance(term, (Var, One)):
            return self.slots[term]
        if isinstance(term, RDiv):
            operands = (term.right, term.left)
        elif isinstance(term, (Mul, LDiv)):
            operands = (term.left, term.right)
        else:
            operands = (term.arg,)
        key = (type(term), *(self._compile(t) for t in operands))
        if isinstance(term, Pow):
            key += (term.exponent,)
        slot = self.slots.get(key)
        if slot is None:
            slot = self.slots[key] = len(self.slots)
            L = self.loop
            if isinstance(term, Pow):
                self.steps[slot] = _unary(L.power_table(term.exponent), key[1])
            else:
                self.steps[slot] = _binary(getattr(L, self.TABLES[type(term)]), *key[1:])
        return slot

    def counterexample(self, prefix: tuple[int, ...]) -> tuple[int, ...] | None:
        """The first assignment extending `prefix` that falsifies the
        statement, or None.

        The whole block is evaluated at once.  Should that meet an element
        without an inverse, possibly where the tree walker would never look,
        the block is evaluated again one assignment at a time by the tree
        walker itself.
        """
        try:
            hit = self._block_failure(prefix)
        except _Poison:
            hit = next(
                (i for i in range(self.size) if self._falsified_at(self._combo(prefix, i))),
                None,
            )
        return None if hit is None else self._combo(prefix, hit)

    def _combo(self, prefix: tuple[int, ...], i: int) -> tuple[int, ...]:
        return (*prefix, *(col[i] for col in self.columns))

    def _block_failure(self, prefix: tuple[int, ...]) -> int | None:
        size = self.size
        vals = [[v] * size for v in prefix] + self.columns + [[self.loop.identity] * size]
        vals += [None] * len(self.steps)
        for slot, step in self.steps.items():
            vals[slot] = step(vals)
        concl = [(vals[l], vals[r]) for l, r in self.concl_slots]
        if any(lhs == rhs for lhs, rhs in concl):
            return None
        ok = [False] * size
        for lhs, rhs in concl:
            ok = list(map(operator.or_, ok, map(operator.eq, lhs, rhs)))
        for l, r in self.hyp_slots:
            ok = list(map(operator.or_, ok, map(operator.ne, vals[l], vals[r])))
        return ok.index(False) if False in ok else None

    def _falsified_at(self, combo: tuple[int, ...]) -> bool:
        # The tree walker's order: hypotheses first, then the alternatives,
        # each stopping early, so the same missing inverse surfaces first.
        L, env = self.loop, dict(zip(self.names, combo))
        if any(eval_term(L, lhs, env) != eval_term(L, rhs, env) for lhs, rhs in self.hyps):
            return False
        return not any(eval_term(L, lhs, env) == eval_term(L, rhs, env) for lhs, rhs in self.concl)


def evaluate(
    L: LoopTable,
    stmt: IdentityStatement,
    max_vars: int = DEFAULT_VARIABLE_CAP,
    automorphic: bool | None = None,
) -> Counterexample | None:
    """Check `stmt` over all assignments; None means it holds.

    Assignments are tried in lexicographic order over the statement's
    variables, hypotheses filter assignments, and the first falsified
    conclusion is returned.  Statements built on the inverse middle
    translation are only sound on automorphic loops; pass
    ``automorphic=True`` once that has been verified to silence the warning.

    The statement is compiled once and evaluated in blocks of assignments;
    the outcome is the tree walker's (`eval_term`): the same first
    counterexample, or the same `InverseUnavailable`.
    """
    names = stmt.variables
    if len(names) > max_vars:
        raise VariableCapExceeded(
            f"{stmt.label()} has {len(names)} variables (cap {max_vars})"
        )
    if automorphic is not True and any(
        isinstance(node, MacroCall) and node.name == "T_inv"
        for eq in (*stmt.hypotheses, *stmt.conclusion)
        for term in (eq.lhs, eq.rhs)
        for node in _walk(term)
    ):
        warnings.warn(
            f"{stmt.label()} uses the inverse middle translation, which is "
            "only sound on automorphic loops; the loop has not been verified "
            "automorphic",
            NotAutomorphicWarning,
            stacklevel=2,
        )
    program = _Program(L, stmt)
    for prefix in product(L.elements, repeat=program.leading):
        combo = program.counterexample(prefix)
        if combo is not None:
            return Counterexample(dict(zip(names, combo)))
    return None


def holds(L: LoopTable, stmt: IdentityStatement, **kwargs) -> bool:
    return evaluate(L, stmt, **kwargs) is None


# ---------------------------------------------------------------------------
# builtin corpus

BUILTIN_MACRO_LINES = (
    "let R_inv(y, x) := y / x",
    r"let L_inv(y, x) := x \ y",
    r"let T(y, x) := x \ (y * x)",
    r"let T_inv(y, x) := x^-1 \ (y * x^-1)",
)

# Statement texts are stored in the printer's canonical form (binary
# operators left-associative, minimal parentheses), so printing a parsed
# statement reproduces the stored text exactly.
_BUILTIN_TEXTS = [
    ("lemma31_a", "(x * y)^2 = x * R_inv(y, x^-1) * y"),
    ("lemma31_b", "(x * y)^2 = x * L_inv(x * y, y^-1)"),
    ("lemma31_c", "(x * y * x^-1)^2 = x * y * (y * x^-1)"),
    ("lemma31_d", "R_inv(x^2, y) = R_inv(x, R_inv(x, y)^-1)"),
    ("lemma31_e", "y * x * x^-1 = x^-1 * (x * y)"),
    ("lemma31_f", "x^2 = R_inv(x, y) * L_inv(x, y^-1)"),
    ("lemma31_g", "y^2 * x * x^-1 = y * x * (x^-1 * y)"),
    ("lemma31_h", "y^2 * x * x^-1 = y * x^-1 * (x * y)"),
    ("cor32_a", "x^-1 * (x * y^2) = x * y * (x^-1 * y) => x * y = y * x"),
    ("cor32_b", "x^-1 * (x * y^2) = x^-1 * y * (x * y) => x * y = y * x"),
    ("lemma34_a", "R_inv(x, R_inv(x, y)^-1)^-1 * R_inv(x, y) = R_inv(x, y)^-1 * y^-1"),
    ("lemma34_b", "R_inv(R_inv(x, x * y)^-1, x^-1)^-1 * x = R_inv(x, y * x)"),
    ("lemma34_c", "R_inv(x * R_inv(y, z) * z, y) = R_inv(x * z, y) * R_inv(z, y)^-1"),
    ("lemma34_d", "R_inv(x * y, z) * R_inv(y, z)^-1 = R_inv(x, z) * R_inv(y, z)^-1 * y"),
    (
        "lemma34_e",
        "x^-1 * (R_inv(x, T_inv(y, x)) * R_inv(R_inv(y, x), T_inv(y, x))^-1) = "
        "R_inv(x, T_inv(y, x)) * R_inv(y, T_inv(y, x))^-1",
    ),
    ("lemma34_f", "R_inv(R_inv(x, x * y)^-1, R_inv(y, x * y) * R_inv(x, x * y)^-1) = x"),
    ("prop30", "R_inv(x, T_inv(x, y)) * y = T_inv(y, x)"),
    ("aaip", "(x * y)^-1 = y^-1 * x^-1"),
    ("aaip_cor", "L_inv(y, x)^-1 = R_inv(y^-1, x^-1)"),
    ("flexibility", "x * (y * x) = x * y * x"),
    ("tx_inv", "T(T(y, x), x^-1) = y"),
    ("co1_fwd", "x * (x * y) = y * x * x => x * y = y * x"),
    ("co1_bwd", "x * y = y * x => x * (x * y) = y * x * x"),
    ("theorem31_fwd", "x * (x * y) = y * x * x => x^2 * y = y * x^2"),
    ("theorem31_bwd", "x^2 * y = y * x^2 => x * (x * y) = y * x * x"),
]

for _m in range(-2, 3):
    for _n in range(-2, 3):
        _BUILTIN_TEXTS.append(
            (f"prop22_a[{_m},{_n}]", f"x^{_m} * (x^{_n} * y) = x^{_n} * (x^{_m} * y)")
        )
for _m in range(-2, 3):
    for _n in range(-2, 3):
        _BUILTIN_TEXTS.append(
            (f"prop22_b[{_m},{_n}]", f"y * x^{_m} * x^{_n} = y * x^{_n} * x^{_m}")
        )
for _m in range(-2, 3):
    for _n in range(-2, 3):
        _BUILTIN_TEXTS.append(
            (f"prop22_c[{_m},{_n}]", f"x^{_m} * y * x^{_n} = x^{_m} * (y * x^{_n})")
        )
_BUILTIN_TEXTS.append(("prop22_d", "x * (y * x * (z * x)) = x * y * (x * z) * x"))
del _m, _n


@lru_cache(maxsize=1)
def builtin_macros() -> dict[str, MacroDef]:
    macros: dict[str, MacroDef] = {}
    for line in BUILTIN_MACRO_LINES:
        macro = parse_macro(line, macros)
        macros[macro.name] = macro
    return macros


@lru_cache(maxsize=1)
def builtin_library() -> tuple[IdentityStatement, ...]:
    """The named statements that hold in every automorphic loop.

    Every statement here is a theorem for automorphic loops (the cor32/co1/
    theorem31 quasi-identities in both directions, the two lemma families,
    AAIP and its corollary, flexibility, the middle-translation inverse law,
    and the translation power-commuting family).
    """
    macros = builtin_macros()
    return tuple(
        parse_identity(text, macros, name=name) for name, text in _BUILTIN_TEXTS
    )
