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

import warnings
from functools import cached_property, lru_cache
from itertools import chain, permutations, product, repeat
from typing import Iterator, Mapping, Union

from ._record import field, record, replace
from .table import (
    LoopTable,
    LoopError,
    NoTwoSidedInverse,
    NotAutomorphicWarning,
    _MISSING,
    _translations,
    per_loop,
)

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
# Most bytes of subterm blocks one loop's memo keeps: 256 blocks of n^2
# assignments at order 64, and every distinct block of the builtin corpus
# at order 32.  Blocks past it are computed but not kept.
MEMO_BYTES = 1 << 20


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

@record(frozen=True)
class Var:
    name: str


@record(frozen=True)
class One:
    pass


@record(frozen=True)
class Mul:
    left: "Term"
    right: "Term"


@record(frozen=True)
class LDiv:
    left: "Term"
    right: "Term"


@record(frozen=True)
class RDiv:
    left: "Term"
    right: "Term"


@record(frozen=True)
class Pow:
    arg: "Term"
    exponent: int


@record(frozen=True)
class MacroCall:
    name: str
    args: tuple["Term", ...]


Term = Union[Var, One, Mul, LDiv, RDiv, Pow, MacroCall]


@record(frozen=True)
class Equation:
    lhs: Term
    rhs: Term


@record(frozen=True)
class MacroDef:
    name: str
    params: tuple[str, ...]
    body: Term  # macro-free


@record(frozen=True)
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

    # Like the derived tables of `LoopTable`, the compiled form lives in the
    # instance ``__dict__``: built by the first `evaluate`, shared by every
    # loop after it, and gone with the statement.
    @cached_property
    def _plan(self) -> "_Plan":
        return _Plan(self)


@record
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
        # one record per name, in order of first appearance
        self.variables: dict[str, Var] = {}

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
        return IdentityStatement(
            variables=tuple(self.variables),
            hypotheses=hypotheses,
            conclusion=tuple(conclusion),
            name=name,
            macros=dict(self.macros),
        )

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
                var = self.variables.get(value)
                if var is None:
                    var = self.variables[value] = Var(value)
                return var, 0, 1
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
                statements.append(replace(parse_identity(line, macros), line=lineno))
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
    arguments, which are shared rather than copied.  A subterm that holds no
    macro call comes back as it is, so a compiled plan keeping the expanded
    sides shares the statement's nodes wherever it can.
    """
    if isinstance(term, Var):
        return args.get(term.name, term) if args else term
    if isinstance(term, One):
        return term

    def sub(t: Term) -> Term:
        return expand_term(t, macros, args)

    if isinstance(term, (Mul, LDiv, RDiv)):
        left, right = sub(term.left), sub(term.right)
        if left is term.left and right is term.right:
            return term
        return type(term)(left, right)
    if isinstance(term, Pow):
        arg = sub(term.arg)
        return term if arg is term.arg else Pow(arg, term.exponent)
    if isinstance(term, MacroCall):
        macro = macros.get(term.name)
        if macro is None:
            raise LoopError(f"undefined macro {term.name!r}")
        inner = dict(zip(macro.params, map(sub, term.args)))
        return expand_term(macro.body, macros, inner)
    raise TypeError(f"not a term: {term!r}")


def eval_term(L: LoopTable, term: Term, env: Mapping[str, int]) -> int:
    """Evaluate a macro-free term under one assignment of elements to variables.

    This tree walker defines the semantics.  `evaluate` instead compiles each
    statement once and binds it to each loop's lookup tables; it falls back
    to this walker in a block that meets a missing inverse, and is tested
    against it.
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


_EQUAL = bytes((1,)) + bytes(255)  # marks a zero byte of lhs ^ rhs
_DIFFERS = bytes((0,)) + bytes((1,)) * 255  # marks a nonzero byte


# The kernels of a plan's steps.  Each takes the step's translation tables,
# its two operand blocks (the one whose shape chose the kernel first) and the
# order n, and returns the block of the result.

def _power(table: bytes, a: bytes, _: bytes, n: int) -> bytes:
    out = a.translate(table)
    if _MISSING in out:
        raise _Poison
    return out


def _by_constant(tables, c: bytes, b: bytes, n: int) -> bytes:
    # c holds one value throughout the block
    return b.translate(tables[c[0]])


def _by_runs(tables, r: bytes, b: bytes, n: int) -> bytes:
    # r is constant along each run of n: run s is r[s]
    return b"".join([b[s : s + n].translate(tables[r[s]]) for s in range(0, len(b), n)])


def _by_runs_and_strides(tables, r: bytes, c: bytes, n: int) -> bytes:
    # r is constant along each run of n and c along each stride-n slice, so
    # every run of c is its first
    return b"".join(map(c[:n].translate, map(tables.__getitem__, r[::n])))


def _by_strides(tables, c: bytes, b: bytes, n: int) -> bytes:
    # c is constant along each stride-n slice: slice y is c[y]
    out = bytearray(len(b))
    for y in range(n):
        out[y::n] = b[y::n].translate(tables[c[y]])
    return bytes(out)


def _pointwise(rows, a: bytes, b: bytes, n: int) -> bytes:
    return bytes([rows[x][y] for x, y in zip(a, b)])


def _positions(lhs: bytes, rhs: bytes, marks: bytes) -> int:
    """An int whose big-endian bytes are ``marks[lhs[i] ^ rhs[i]]``."""
    size = len(lhs)
    xor = int.from_bytes(lhs, "big") ^ int.from_bytes(rhs, "big")
    return int.from_bytes(xor.to_bytes(size, "big").translate(marks), "big")


class _Plan:
    """A statement compiled once, for every loop it is evaluated on.

    Every slot holds the values of one subterm over a block of assignments:
    first the variables, in statement order, then the constant 1, then one
    slot per distinct compound subterm.  `keys` name the compound slots in
    slot order, which is the tree walker's order (operands before their
    parent, the divisor of ``/`` first): ``(Mul|LDiv|RDiv, i, j)`` looks up
    slots i and j in a product or division table, ``(Pow, i, k)`` looks up
    slot i in the k-th power table.

    An arrangement lists the variable slots, the leading variables first and
    then the (at most two) tail variables.  A block holds every assignment
    of the tail for one assignment of the leading variables, so it has
    n^tail <= n^2 assignments.  A slot's shape says which tail variables its
    values depend on: bit 1 the first, bit 2 the second (a single tail
    variable counts as both).  So a shape-0 slot is constant over the block,
    a shape-1 slot along each run of n assignments, and a shape-2 slot along
    each stride-n slice.  Steps turn the keys into kernels chosen by those
    shapes: ``(block, kernel, table, attr, axis, i, j)`` computes a slot
    from slots i and j through the translations
    ``_translations(L, attr, axis)``, which the loop's memo keeps under the
    name `table`, so binding a plan to a loop only looks tables up.

    A slot that reads no leading variable holds the same values in every
    block, and in every statement that computes the same subterm in the
    same tail positions.  Its `block` names those values in the loop's
    memo: the tail size, then the subterm with the tail variables named
    ``a`` and ``b`` by position, as in ``2M(P(a,-1),M(a,b))``.  A slot that
    reads a leading variable has none.

    The arrangement decides the kernels and which slots repeat per block,
    so `order` is the one of least estimated cost, scored from the variables
    each slot reads (statement order wins a tie), and `steps` are its steps.
    `statement_steps` are the steps of `statement_order`, with the last two
    variables in the tail in the order they are written; the replay of a
    failing statement builds them on first use.
    """

    TABLES = {Mul: "table", LDiv: "ldiv_table", RDiv: "rdiv_table"}
    LETTERS = {Mul: "M", LDiv: "L", RDiv: "R"}
    # The relative cost at n = 32 of a binary step by the least shape of its
    # operands, 0, 1, 2 or 3: one translation per block, one per run, one
    # per stride, one lookup per assignment.  A power step is one
    # translation, as a step with a constant operand is.  A step that reads
    # a leading variable runs once per block, n ** leading times as often as
    # one computed once per loop, n = 32 per leading variable.
    COSTS = (1, 8, 14, 60)
    PER_BLOCK = 32

    def __init__(self, stmt: IdentityStatement):
        self.names = names = stmt.variables
        self.keys: list[tuple] = []
        # the expanded sides, which the tree walker reads in a poisoned block
        self.hyps, self.concl = (
            [(expand_term(eq.lhs, stmt.macros), expand_term(eq.rhs, stmt.macros)) for eq in eqs]
            for eqs in (stmt.hypotheses, stmt.conclusion)
        )
        # variables by name and 1 by its class: keys that hash as fast as the
        # compound keys' tuples
        slots: dict = {v: i for i, v in enumerate(names)}
        slots[One] = len(names)
        self.hyp_slots, self.concl_slots = (
            [(self._compile(lhs, slots), self._compile(rhs, slots)) for lhs, rhs in sides]
            for sides in (self.hyps, self.concl)
        )
        self.tail = min(len(names), 2)
        self.leading = len(names) - self.tail
        self.statement_order = tuple(range(len(names)))
        self.order = self._cheapest_order()
        self.steps = self._steps(self.order)

    @cached_property
    def statement_steps(self) -> list[tuple]:
        return self.steps if self.order == self.statement_order else self._steps(self.statement_order)

    def _cheapest_order(self) -> tuple[int, ...]:
        """The arrangement whose steps cost least by `COSTS` and `PER_BLOCK`.

        A candidate is an ordered pair (a, b) of tail variables, the leading
        ones kept in statement order.  Each slot's set of variables, bit v
        for variable v, gives its shape and whether it reads a leading
        variable in every candidate, so a candidate is scored over the
        distinct operand pairs of the keys.
        """
        k = len(self.names)
        if k < 2:
            return self.statement_order
        reads = [1 << v for v in range(k)] + [0]
        pairs: dict[tuple[int, int], int] = {}
        for op, i, arg in self.keys:
            # a power step costs what a step with a constant operand costs
            pair = (0, reads[i]) if op is Pow else (reads[i], reads[arg])
            reads.append(pair[0] | pair[1])
            pairs[pair] = pairs.get(pair, 0) + 1
        costs, per_block, every = self.COSTS, self.PER_BLOCK**self.leading, (1 << k) - 1

        def cost(tail: tuple[int, int]) -> int:
            a, b = tail
            leading = every ^ 1 << a ^ 1 << b
            return sum(
                count
                * costs[min(u >> a & 1 | (u >> b & 1) << 1, w >> a & 1 | (w >> b & 1) << 1)]
                * (per_block if (u | w) & leading else 1)
                for (u, w), count in pairs.items()
            )

        written = (k - 2, k - 1)
        tail = min(permutations(range(k), 2), key=lambda t: (cost(t), t != written))
        if tail == written:
            return self.statement_order
        return (*(v for v in range(k) if v not in tail), *tail)

    def _steps(self, order: tuple[int, ...]) -> list[tuple]:
        """The steps of the keys with the variables arranged by `order`."""
        shapes = [0] * (len(self.names) + 1)
        # each slot's subterm over the tail positions; None if it reads a
        # leading variable
        terms: list[str | None] = [None] * len(self.names) + ["1"]
        for v, shape, name in zip(order[self.leading :], (1, 2) if self.tail == 2 else (3,), "ab"):
            shapes[v] = shape
            terms[v] = name
        steps = []
        for op, i, arg in self.keys:
            if op is Pow:
                shapes.append(shapes[i])
                term = terms[i] and f"P({terms[i]},{arg})"
                kernel, attr, axis, first, other = _power, "power_table", arg, i, i
            else:
                shapes.append(shapes[i] | shapes[arg])
                term = terms[i] and terms[arg] and f"{self.LETTERS[op]}({terms[i]},{terms[arg]})"
                kernel, attr, axis, first, other = self._binary_step(self.TABLES[op], i, arg, shapes)
            terms.append(term)
            block = term and f"{self.tail}{term}"
            steps.append((block, kernel, f"{attr} {axis}", attr, axis, first, other))
        return steps

    @staticmethod
    def _binary_step(attr: str, i: int, j: int, shapes: list[int]) -> tuple:
        """The kernel for ``table[slot i][slot j]``: the first operand whose
        shape allows one translation per block, run or stride comes first,
        read through rows if it is slot i and through columns if slot j.
        A run operand whose partner varies only along strides translates
        one run of the partner per run."""
        for kernel, shape in ((_by_constant, 0), (_by_runs, 1), (_by_strides, 2)):
            for axis, first, other in (("rows", i, j), ("cols", j, i)):
                if shapes[first] == shape:
                    if shape == 1 and shapes[other] == 2:
                        kernel = _by_runs_and_strides
                    return (kernel, attr, axis, first, other)
        return (_pointwise, attr, "rows", i, j)

    def _compile(self, term: Term, slots: dict) -> int:
        """The slot of `term`; `slots` numbers the subterms seen so far."""
        kind = type(term)
        if kind is Var:
            return slots[term.name]
        if kind is One:
            return slots[One]
        if kind is Pow:
            key = (Pow, self._compile(term.arg, slots), term.exponent)
        elif kind is RDiv:
            key = (RDiv, self._compile(term.right, slots), self._compile(term.left, slots))
        else:
            key = (kind, self._compile(term.left, slots), self._compile(term.right, slots))
        slot = slots.get(key)
        if slot is None:
            slot = slots[key] = len(slots)
            self.keys.append(key)
        return slot


@lru_cache(maxsize=None)  # at most 3 * MAX_ORDER entries
def _columns(n: int, tail: int) -> tuple[bytes, ...]:
    """The blocks of the tail variables, first variable first.

    Column p counts the digit of weight n^p: each element n^p times in a
    row, the whole run repeated to fill the block.
    """
    return tuple(
        bytes(chain.from_iterable(map(repeat, range(n), repeat(n**p)))) * n ** (tail - 1 - p)
        for p in reversed(range(tail))
    )


class _Memo(dict):
    """One loop's translation tables and subterm blocks, by the names plan
    steps give them.  Blocks are kept while their bytes fit in
    `MEMO_BYTES`; a block that meets a missing inverse is never finished,
    so never kept."""

    def __init__(self):
        super().__init__()
        self.room = MEMO_BYTES


@per_loop
def _memo(L: LoopTable) -> _Memo:
    return _Memo()


class _Program:
    """A statement's plan bound to one loop in one arrangement, evaluated a
    block at a time.

    Binding places the blocks of the tail variables and of the constant 1,
    and of every slot that reads no leading variable, from the loop's memo
    or computed and kept there; it looks up the loop's translations for the
    other steps, so a block only fills in the leading variables' constant
    blocks and the slots that read them.  Should a placed slot meet an
    element without an inverse, so does every block.  A block is a `bytes`
    of length n^tail, one element per assignment; orders stop at
    `MAX_ORDER` = 64, so no element reaches the marker `_MISSING`.
    """

    def __init__(self, L: LoopTable, plan: _Plan, order: tuple[int, ...], steps: list[tuple]):
        self.loop = L
        self.plan = plan
        n = L.order
        self.size = n**plan.tail
        self.leading = order[: plan.leading]
        self.columns = _columns(n, plan.tail)
        self.steps: list[tuple] = []  # (slot, kernel, tables, i, j) per block
        self.poisoned = False
        placed = [b""] * len(plan.names) + [bytes((L.identity,)) * self.size]
        for v, column in zip(order[plan.leading :], self.columns):
            placed[v] = column
        memo = _memo(L)
        for block, kernel, table, attr, axis, i, j in steps:
            values = memo.get(block)
            if values is None:
                tables = memo.get(table)
                if tables is None:
                    tables = memo[table] = _translations(L, attr, axis)
                if block is None:
                    self.steps.append((len(placed), kernel, tables, i, j))
                else:
                    try:
                        values = kernel(tables, placed[i], placed[j], n)
                    except _Poison:
                        self.poisoned = True
                        break
                    if len(values) <= memo.room:
                        memo[block] = values
                        memo.room -= len(values)
            placed.append(values)
        self.placed = placed

    def holds(self) -> bool:
        """Whether no block fails or meets a missing inverse.

        Which assignment fails first depends on the arrangement, so this
        pass only says whether one does."""
        try:
            for prefix in product(self.loop.elements, repeat=self.plan.leading):
                if self._block_failure(prefix) is not None:
                    return False
        except _Poison:
            return False
        return True

    def counterexample(self, prefix: tuple[int, ...]) -> tuple[int, ...] | None:
        """The first assignment extending `prefix` that falsifies the
        statement, or None; for a program in statement order.

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
        if self.poisoned:
            raise _Poison
        size, n = self.size, self.loop.order
        vals = self.placed.copy()
        for v, x in zip(self.leading, prefix):
            vals[v] = bytes((x,)) * size
        for slot, kernel, tables, i, j in self.steps:
            vals[slot] = kernel(tables, vals[i], vals[j], n)
        concl = [(vals[l], vals[r]) for l, r in self.plan.concl_slots]
        if any(lhs == rhs for lhs, rhs in concl):
            return None
        # byte i of `bad` is 1 where every alternative fails and every
        # hypothesis holds; the most significant one is the first
        bad = -1
        for lhs, rhs in concl:
            bad &= _positions(lhs, rhs, _DIFFERS)
        for l, r in self.plan.hyp_slots:
            bad &= _positions(vals[l], vals[r], _EQUAL)
        return size - 1 - (bad.bit_length() - 1) // 8 if bad else None

    def _falsified_at(self, combo: tuple[int, ...]) -> bool:
        # The tree walker's order: hypotheses first, then the alternatives,
        # each stopping early, so the same missing inverse surfaces first.
        L, plan = self.loop, self.plan
        env = dict(zip(plan.names, combo))
        if any(eval_term(L, lhs, env) != eval_term(L, rhs, env) for lhs, rhs in plan.hyps):
            return False
        return not any(eval_term(L, lhs, env) == eval_term(L, rhs, env) for lhs, rhs in plan.concl)


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

    The statement is compiled once, on its first evaluation, into a plan
    that every loop shares; each call binds that plan to `L`'s translation
    tables and evaluates it in blocks of assignments, each block a byte
    string that `bytes.translate` maps through those tables (orders stop at
    `MAX_ORDER` = 64, so every element fits in a byte).  The blocks follow
    the plan's cheapest arrangement of the variables.  The block of a
    subterm that reads only the variables varying within a block is
    computed once per loop and kept on it, up to `MEMO_BYTES`, for every
    block and every statement after.  A statement that
    holds has one answer in every arrangement, so when no block fails or
    meets a missing inverse the answer is None.  Otherwise the statement is
    replayed from the start in statement order, block by block, and the
    outcome is the tree walker's (`eval_term`): the same first
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
    plan = stmt._plan
    if plan.order != plan.statement_order and _Program(L, plan, plan.order, plan.steps).holds():
        return None
    program = _Program(L, plan, plan.statement_order, plan.statement_steps)
    for prefix in product(L.elements, repeat=plan.leading):
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
    """The named statements of the paper's corpus on automorphic loops.

    They are the cor32/co1/theorem31 quasi-identities in both directions,
    the two lemma families, AAIP and its corollary, flexibility, the
    middle-translation inverse law, and the translation power-commuting
    family.  Every one holds in every automorphic loop except ``co1_fwd``,
    the forward half of the commuting condition.  It fails in both
    non-commutative automorphic loops of order 6: in S₃ at any two distinct
    transpositions (x² = 1 makes the hypothesis hold), and in n6_072.
    """
    macros = builtin_macros()
    return tuple(
        parse_identity(text, macros, name=name) for name, text in _BUILTIN_TEXTS
    )
