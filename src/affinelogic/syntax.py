"""Signatures, terms, formulas, conditions and theories.

Every term and formula carries its derived Lipschitz constant; formulas also
carry a bound and their free variables.  The derivation rules are:

    terms:     constant 0, variable 1, F(t1..tn) -> lip(F) * sum(lip(ti))
    formulas:  1            lip 0, bound 1
               d(t1,t2)     lip(t1)+lip(t2), bound 1
               R(t1..tn)    lip(R)*sum(lip(ti)), bound 1
               a + b        lip(a)+lip(b), bound(a)+bound(b)
               r * a        |r|*lip(a), |r|*bound(a)
               sup/inf x    unchanged

min/max nodes (the lattice connectives) are supported for evaluation but mark
a formula non-affine; affine-only operations reject such formulas.

All scalars are exact rationals.  Values are immutable after construction, so
`free` and `affine` are computed once per node and kept.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from typing import Iterable, Union

from .errors import CaptureError, NotAffineError, ParseError, SignatureError

Rational = Union[Fraction, int, str]


def as_fraction(r: Rational) -> Fraction:
    """Coerce ints and 'p/q' strings to Fraction; reject floats and decimals."""
    if isinstance(r, Fraction):
        return r
    if isinstance(r, int):
        return Fraction(r)
    if isinstance(r, str):
        if not re.fullmatch(r"-?\d+(/\d+)?", r.strip()):
            raise ParseError(f"not an exact rational: {r!r} (decimals are rejected)")
        return Fraction(r.strip())
    raise ParseError(f"not an exact rational: {r!r}")


def over_common_denominator(values: Iterable) -> tuple[list[int], int]:
    """(ints, den) with values[i] == ints[i] / den and den the lcm of the denominators.

    A value with no numerator (a float, a Decimal) is taken at its exact value.
    """
    pairs = []
    for v in values:
        try:
            pairs.append((v.numerator, v.denominator))
        except AttributeError:
            f = Fraction(v)
            pairs.append((f.numerator, f.denominator))
    den = math.lcm(*(q for _, q in pairs))
    if den == 1:
        return [p for p, _ in pairs], 1
    return [p * (den // q) for p, q in pairs], den


def format_fraction(r: Fraction) -> str:
    return str(r.numerator) if r.denominator == 1 else f"{r.numerator}/{r.denominator}"


# ---------------------------------------------------------------------------
# Signatures

KINDS = ("constant", "function", "relation")

_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
RESERVED_WORDS = {"sup", "inf", "min", "max", "d"}


@dataclass(frozen=True)
class Symbol:
    name: str
    kind: str
    arity: int
    lipschitz: Fraction

    def __post_init__(self):
        if self.kind not in KINDS:
            raise SignatureError(f"unknown symbol kind {self.kind!r}")
        if not _IDENT.fullmatch(self.name) or self.name in RESERVED_WORDS:
            raise SignatureError(f"illegal symbol name {self.name!r}")
        if self.kind == "constant" and self.arity != 0:
            raise SignatureError(f"constant {self.name} must have arity 0")
        if self.kind != "constant" and self.arity < 1:
            raise SignatureError(f"{self.kind} {self.name} must have arity >= 1")
        if self.lipschitz < 0:
            raise SignatureError(f"negative Lipschitz constant for {self.name}")


class Signature:
    """A set of constant/function/relation symbols with Lipschitz constants.

    The metric symbol ``d`` (binary, Lipschitz 1) is always present and is not
    listed among the symbols.
    """

    def __init__(self, symbols: Iterable[Symbol] = ()):
        self._symbols: dict[str, Symbol] = {}
        for sym in symbols:
            if sym.name in self._symbols:
                raise SignatureError(f"duplicate symbol {sym.name!r}")
            self._symbols[sym.name] = sym

    @staticmethod
    def metric_only() -> "Signature":
        return Signature()

    def symbols(self) -> list[Symbol]:
        return list(self._symbols.values())

    def has(self, name: str) -> bool:
        return name in self._symbols

    def get(self, name: str) -> Symbol:
        try:
            return self._symbols[name]
        except KeyError:
            raise SignatureError(f"unknown symbol {name!r}") from None

    def constants(self) -> list[Symbol]:
        return [s for s in self._symbols.values() if s.kind == "constant"]

    def functions(self) -> list[Symbol]:
        return [s for s in self._symbols.values() if s.kind == "function"]

    def relations(self) -> list[Symbol]:
        return [s for s in self._symbols.values() if s.kind == "relation"]

    def __eq__(self, other):
        return isinstance(other, Signature) and self._symbols == other._symbols

    def __repr__(self):
        return f"Signature({sorted(self._symbols)})"


def constant_symbol(name: str) -> Symbol:
    return Symbol(name, "constant", 0, Fraction(0))


def function_symbol(name: str, arity: int, lipschitz: Rational) -> Symbol:
    return Symbol(name, "function", arity, as_fraction(lipschitz))


def relation_symbol(name: str, arity: int, lipschitz: Rational) -> Symbol:
    return Symbol(name, "relation", arity, as_fraction(lipschitz))


# ---------------------------------------------------------------------------
# Terms


@dataclass(frozen=True)
class Var:
    name: str
    lipschitz: Fraction = Fraction(1)

    @cached_property
    def free(self) -> frozenset[str]:
        return frozenset({self.name})

    def __str__(self):
        return self.name


@dataclass(frozen=True)
class Const:
    name: str
    lipschitz: Fraction = Fraction(0)

    @cached_property
    def free(self) -> frozenset[str]:
        return frozenset()

    def __str__(self):
        return self.name


@dataclass(frozen=True)
class App:
    func: str
    args: tuple["Term", ...]
    func_lipschitz: Fraction
    lipschitz: Fraction = field(init=False)

    def __post_init__(self):
        object.__setattr__(
            self, "lipschitz", self.func_lipschitz * sum((a.lipschitz for a in self.args), Fraction(0))
        )

    @cached_property
    def free(self) -> frozenset[str]:
        return frozenset().union(*(a.free for a in self.args))

    def __str__(self):
        return f"{self.func}({','.join(map(str, self.args))})"


Term = Union[Var, Const, App]


def var(name: str) -> Var:
    return Var(name)


def const(sig: Signature, name: str) -> Const:
    sym = sig.get(name)
    if sym.kind != "constant":
        raise SignatureError(f"{name} is a {sym.kind}, not a constant")
    return Const(name)


def app(sig: Signature, func: str, *args: Term) -> App:
    sym = sig.get(func)
    if sym.kind != "function":
        raise SignatureError(f"{func} is a {sym.kind}, not a function")
    if len(args) != sym.arity:
        raise SignatureError(f"{func} expects {sym.arity} arguments, got {len(args)}")
    return App(func, tuple(args), sym.lipschitz)


# ---------------------------------------------------------------------------
# Formulas


@dataclass(frozen=True)
class One:
    lipschitz: Fraction = Fraction(0)
    bound: Fraction = Fraction(1)
    free: frozenset[str] = frozenset()
    affine: bool = True


@dataclass(frozen=True)
class Dist:
    left: Term
    right: Term
    lipschitz: Fraction = field(init=False)
    bound: Fraction = Fraction(1)
    affine: bool = True

    def __post_init__(self):
        object.__setattr__(self, "lipschitz", self.left.lipschitz + self.right.lipschitz)

    @cached_property
    def free(self) -> frozenset[str]:
        return self.left.free | self.right.free


@dataclass(frozen=True)
class Rel:
    rel: str
    args: tuple[Term, ...]
    rel_lipschitz: Fraction
    lipschitz: Fraction = field(init=False)
    bound: Fraction = Fraction(1)
    affine: bool = True

    def __post_init__(self):
        object.__setattr__(
            self, "lipschitz", self.rel_lipschitz * sum((a.lipschitz for a in self.args), Fraction(0))
        )

    @cached_property
    def free(self) -> frozenset[str]:
        return frozenset().union(*(a.free for a in self.args))


@dataclass(frozen=True)
class Sum:
    left: "Formula"
    right: "Formula"
    lipschitz: Fraction = field(init=False)
    bound: Fraction = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "lipschitz", self.left.lipschitz + self.right.lipschitz)
        object.__setattr__(self, "bound", self.left.bound + self.right.bound)

    @cached_property
    def free(self) -> frozenset[str]:
        return self.left.free | self.right.free

    @cached_property
    def affine(self) -> bool:
        return self.left.affine and self.right.affine


@dataclass(frozen=True)
class Scale:
    coeff: Fraction
    body: "Formula"
    lipschitz: Fraction = field(init=False)
    bound: Fraction = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "lipschitz", abs(self.coeff) * self.body.lipschitz)
        object.__setattr__(self, "bound", abs(self.coeff) * self.body.bound)

    @cached_property
    def free(self) -> frozenset[str]:
        return self.body.free

    @cached_property
    def affine(self) -> bool:
        return self.body.affine


@dataclass(frozen=True)
class Sup:
    varname: str
    body: "Formula"

    @property
    def lipschitz(self) -> Fraction:
        return self.body.lipschitz

    @property
    def bound(self) -> Fraction:
        return self.body.bound

    @cached_property
    def free(self) -> frozenset[str]:
        return self.body.free - {self.varname}

    @cached_property
    def affine(self) -> bool:
        return self.body.affine


@dataclass(frozen=True)
class Inf:
    varname: str
    body: "Formula"

    @property
    def lipschitz(self) -> Fraction:
        return self.body.lipschitz

    @property
    def bound(self) -> Fraction:
        return self.body.bound

    @cached_property
    def free(self) -> frozenset[str]:
        return self.body.free - {self.varname}

    @cached_property
    def affine(self) -> bool:
        return self.body.affine


@dataclass(frozen=True)
class Min:
    left: "Formula"
    right: "Formula"
    affine: bool = False

    @property
    def lipschitz(self) -> Fraction:
        return max(self.left.lipschitz, self.right.lipschitz)

    @property
    def bound(self) -> Fraction:
        return max(self.left.bound, self.right.bound)

    @cached_property
    def free(self) -> frozenset[str]:
        return self.left.free | self.right.free


@dataclass(frozen=True)
class Max:
    left: "Formula"
    right: "Formula"
    affine: bool = False

    @property
    def lipschitz(self) -> Fraction:
        return max(self.left.lipschitz, self.right.lipschitz)

    @property
    def bound(self) -> Fraction:
        return max(self.left.bound, self.right.bound)

    @cached_property
    def free(self) -> frozenset[str]:
        return self.left.free | self.right.free


Formula = Union[One, Dist, Rel, Sum, Scale, Sup, Inf, Min, Max]

ONE = One()
ZERO = Scale(Fraction(0), ONE)  # canonical zero, prints as 0*1


def one() -> One:
    return ONE


def dist(left: Term, right: Term) -> Dist:
    return Dist(left, right)


def rel(sig: Signature, name: str, *args: Term) -> Rel:
    sym = sig.get(name)
    if sym.kind != "relation":
        raise SignatureError(f"{name} is a {sym.kind}, not a relation")
    if len(args) != sym.arity:
        raise SignatureError(f"{name} expects {sym.arity} arguments, got {len(args)}")
    return Rel(name, tuple(args), sym.lipschitz)


def scale(coeff: Rational, body: Formula) -> Scale:
    return Scale(as_fraction(coeff), body)


def sup(varname: str, body: Formula) -> Sup:
    return Sup(varname, body)


def inf(varname: str, body: Formula) -> Inf:
    return Inf(varname, body)


def numeral(r: Rational) -> Formula:
    """The constant formula r, represented as r*1."""
    return Scale(as_fraction(r), ONE)


def require_affine(phi: Formula, what: str = "operation") -> None:
    if not phi.affine:
        raise NotAffineError(f"{what} requires an affine formula (no min/max nodes)")


def formula_size(phi: Formula) -> int:
    """Number of formula nodes (terms not counted)."""
    if isinstance(phi, (One, Dist, Rel)):
        return 1
    if isinstance(phi, (Sum, Min, Max)):
        return 1 + formula_size(phi.left) + formula_size(phi.right)
    if isinstance(phi, Scale):
        return 1 + formula_size(phi.body)
    if isinstance(phi, (Sup, Inf)):
        return 1 + formula_size(phi.body)
    raise TypeError(phi)


# ---------------------------------------------------------------------------
# Conditions and theories


@dataclass(frozen=True)
class Condition:
    """An inequality  lhs <= rhs  between formulas."""

    lhs: Formula
    rhs: Formula

    @cached_property
    def free(self) -> frozenset[str]:
        return self.lhs.free | self.rhs.free

    @cached_property
    def margin(self) -> Formula:
        """rhs - lhs as the formula rhs + -1*lhs: the condition holds where it is >= 0."""
        return Sum(self.rhs, Scale(Fraction(-1), self.lhs))

    @property
    def closed(self) -> bool:
        return not self.free

    def __str__(self):
        return f"{format_formula(self.lhs)} <= {format_formula(self.rhs)}"


@dataclass(frozen=True)
class Theory:
    """A finite list of closed conditions."""

    conditions: tuple[Condition, ...]

    def __post_init__(self):
        for c in self.conditions:
            if not c.closed:
                raise SignatureError(f"theory condition has free variables: {c}")

    def __iter__(self):
        return iter(self.conditions)

    def __len__(self):
        return len(self.conditions)


# ---------------------------------------------------------------------------
# Printing.  Quantifiers scope as far right as possible ("sup x. a + b" binds
# the whole sum), so the printer emits a bare quantified formula only in tail
# position, where no following +/- could be swallowed on re-parse; everywhere
# else it parenthesizes.  The output re-parses to a structurally equal formula.


def _fmt(phi: Formula, tail: bool) -> str:
    if isinstance(phi, One):
        return "1"
    if isinstance(phi, Dist):
        return f"d({phi.left},{phi.right})"
    if isinstance(phi, Rel):
        return f"{phi.rel}({','.join(map(str, phi.args))})"
    if isinstance(phi, Min):
        return f"min({_fmt(phi.left, True)}, {_fmt(phi.right, True)})"
    if isinstance(phi, Max):
        return f"max({_fmt(phi.left, True)}, {_fmt(phi.right, True)})"
    if isinstance(phi, (Sup, Inf)):
        word = "sup" if isinstance(phi, Sup) else "inf"
        body = f"{word} {phi.varname}. {_fmt(phi.body, True)}"
        return body if tail else f"({body})"
    if isinstance(phi, Scale):
        inner = _fmt(phi.body, False)
        if not isinstance(phi.body, (One, Dist, Rel, Min, Max, Sup, Inf)):
            inner = f"({inner})"
        return f"{format_fraction(phi.coeff)}*{inner}"
    if isinstance(phi, Sum):
        return f"{_fmt(phi.left, False)} + {_fmt_summand(phi.right, tail)}"
    raise TypeError(phi)


def _fmt_summand(phi: Formula, tail: bool) -> str:
    # the right operand of + must be a prod; parenthesize nested sums
    if isinstance(phi, Sum):
        return f"({_fmt(phi, True)})"
    return _fmt(phi, tail)


def format_formula(phi: Formula) -> str:
    return _fmt(phi, True)


def format_condition(cond: Condition) -> str:
    return str(cond)


# ---------------------------------------------------------------------------
# Parsing


class _Lexer:
    _TOKEN = re.compile(
        r"\s*(?:(?P<num>\d+)|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)|(?P<op><=|[=+\-*/(),.]))"
    )

    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.tokens: list[tuple[str, str, int]] = []
        pos = 0
        while pos < len(text):
            m = self._TOKEN.match(text, pos)
            if m is None:
                if text[pos:].strip() == "":
                    break
                raise ParseError(f"unexpected character {text[pos:].strip()[0]!r}", pos)
            kind = m.lastgroup
            self.tokens.append((kind, m.group(kind), m.start(kind)))
            pos = m.end()
        self.tokens.append(("eof", "", len(text)))
        self.i = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.i]

    def next(self) -> tuple[str, str, int]:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, value: str) -> tuple[str, str, int]:
        kind, val, pos = self.peek()
        if val != value:
            raise ParseError(f"expected {value!r}, found {val or 'end of input'!r}", pos)
        return self.next()


# Deepest input the parser accepts.  Tree walkers recurse once per level, at
# two to four Python frames a level, so this keeps a parsed formula well
# inside Python's default recursion limit of 1000.
MAX_PARSE_DEPTH = 200


class _Parser:
    """Recursive descent that refuses input nested deeper than MAX_PARSE_DEPTH.

    `open` counts the brackets, quantifier bodies and argument lists the
    parser is inside, which bounds its own recursion.  `height` is the height
    of the last node built, one more than its highest child, so each summand
    of a left-nested Sum chain counts one level.  Both stay within the limit.
    """

    def __init__(self, text: str, sig: Signature):
        self.lex = _Lexer(text)
        self.sig = sig
        self.open = 0
        self.height = 0

    def _too_deep(self) -> ParseError:
        return ParseError(f"input nested deeper than {MAX_PARSE_DEPTH} levels", self.lex.peek()[2])

    def _enter(self) -> None:
        self.open += 1
        if self.open > MAX_PARSE_DEPTH:
            raise self._too_deep()

    def _built(self, node, height: int):
        if height > MAX_PARSE_DEPTH:
            raise self._too_deep()
        self.height = height
        return node

    # rational := ["-"] digits ["/" digits]
    def rational(self) -> Fraction:
        kind, val, pos = self.lex.peek()
        negative = False
        if val == "-":
            self.lex.next()
            negative = True
            kind, val, pos = self.lex.peek()
        if kind != "num":
            raise ParseError(f"expected a rational, found {val or 'end of input'!r}", pos)
        self.lex.next()
        num = int(val)
        den = 1
        if self.lex.peek()[1] == "/":
            self.lex.next()
            kind2, val2, pos2 = self.lex.peek()
            if kind2 != "num":
                raise ParseError("expected denominator digits", pos2)
            self.lex.next()
            den = int(val2)
            if den == 0:
                raise ParseError("zero denominator", pos2)
        r = Fraction(num, den)
        return -r if negative else r

    def _args(self) -> tuple[list[Term], int]:
        """Comma-separated terms up to the closing bracket, and their greatest height."""
        self._enter()
        args = [self.term()]
        height = self.height
        while self.lex.peek()[1] == ",":
            self.lex.next()
            args.append(self.term())
            height = max(height, self.height)
        self.lex.expect(")")
        self.open -= 1
        return args, height

    def term(self) -> Term:
        kind, val, pos = self.lex.peek()
        if kind != "ident" or val in RESERVED_WORDS:
            raise ParseError(f"expected a term, found {val or 'end of input'!r}", pos)
        self.lex.next()
        if self.lex.peek()[1] == "(":
            self.lex.next()
            args, height = self._args()
            sym = self.sig.get(val) if self.sig.has(val) else None
            if sym is None:
                raise SignatureError(f"unknown function symbol {val!r}")
            if sym.kind != "function":
                raise SignatureError(f"{val} is a {sym.kind}, not a function")
            if len(args) != sym.arity:
                raise SignatureError(f"{val} expects {sym.arity} arguments, got {len(args)}")
            return self._built(App(val, tuple(args), sym.lipschitz), height + 1)
        if self.sig.has(val):
            sym = self.sig.get(val)
            if sym.kind == "constant":
                return self._built(Const(val), 1)
            raise SignatureError(f"{sym.kind} symbol {val} used without arguments")
        return self._built(Var(val), 1)

    def prim(self) -> Formula:
        kind, val, pos = self.lex.peek()
        if val == "(":
            self.lex.next()
            self._enter()
            phi = self.formula()
            self.open -= 1
            self.lex.expect(")")
            return phi
        if kind == "num":
            if val != "1":
                raise ParseError(f"numeric literal {val} is not a formula; write {val}*1", pos)
            self.lex.next()
            return self._built(ONE, 1)
        if val in ("sup", "inf"):
            self.lex.next()
            kind2, name, pos2 = self.lex.peek()
            if kind2 != "ident" or name in RESERVED_WORDS:
                raise ParseError("expected a variable after quantifier", pos2)
            if self.sig.has(name):
                raise ParseError(f"cannot bind declared symbol {name!r}", pos2)
            self.lex.next()
            self.lex.expect(".")
            self._enter()
            body = self.formula()  # quantifiers scope as far right as possible
            self.open -= 1
            node = Sup(name, body) if val == "sup" else Inf(name, body)
            return self._built(node, self.height + 1)
        if val in ("min", "max"):
            self.lex.next()
            self.lex.expect("(")
            self._enter()
            left = self.formula()
            height = self.height
            self.lex.expect(",")
            right = self.formula()
            self.open -= 1
            self.lex.expect(")")
            node = Min(left, right) if val == "min" else Max(left, right)
            return self._built(node, max(height, self.height) + 1)
        if val == "d":
            self.lex.next()
            self.lex.expect("(")
            self._enter()
            t1 = self.term()
            height = self.height
            self.lex.expect(",")
            t2 = self.term()
            self.open -= 1
            self.lex.expect(")")
            return self._built(Dist(t1, t2), max(height, self.height) + 1)
        if kind == "ident":
            self.lex.next()
            self.lex.expect("(")
            args, height = self._args()
            if not self.sig.has(val):
                raise SignatureError(f"unknown relation symbol {val!r}")
            sym = self.sig.get(val)
            if sym.kind != "relation":
                raise SignatureError(f"{val} is a {sym.kind}, not a relation here")
            if len(args) != sym.arity:
                raise SignatureError(f"{val} expects {sym.arity} arguments, got {len(args)}")
            return self._built(Rel(val, tuple(args), sym.lipschitz), height + 1)
        raise ParseError(f"expected a formula, found {val or 'end of input'!r}", pos)

    def prod(self) -> Formula:
        kind, val, _ = self.lex.peek()
        starts_rational = val == "-" or (
            kind == "num" and self.lex.tokens[self.lex.i + 1][1] in ("*", "/")
        )
        if starts_rational:
            r = self.rational()
            self.lex.expect("*")
            body = self.prim()
            return self._built(Scale(r, body), self.height + 1)
        return self.prim()

    def formula(self) -> Formula:
        phi = self.prod()
        height = self.height
        while self.lex.peek()[1] in ("+", "-"):
            op = self.lex.next()[1]
            rhs = self.prod()
            rhs_height = self.height
            if op == "-":
                if isinstance(rhs, Scale):
                    rhs = Scale(-rhs.coeff, rhs.body)
                else:
                    rhs = Scale(Fraction(-1), rhs)
                    rhs_height += 1
            phi = self._built(Sum(phi, rhs), max(height, rhs_height) + 1)
            height = self.height
        return phi

    def condition(self) -> Condition:
        lhs = self.formula()
        self.lex.expect("<=")
        rhs = self.formula()
        return Condition(lhs, rhs)

    def done(self):
        kind, val, pos = self.lex.peek()
        if kind != "eof":
            raise ParseError(f"trailing input {val!r}", pos)


def parse_formula(text: str, sig: Signature) -> Formula:
    p = _Parser(text, sig)
    phi = p.formula()
    p.done()
    return phi


def parse_term(text: str, sig: Signature) -> Term:
    p = _Parser(text, sig)
    t = p.term()
    p.done()
    return t


def parse_condition(text: str, sig: Signature) -> Condition:
    p = _Parser(text, sig)
    cond = p.condition()
    p.done()
    return cond


def parse_condition_or_equality(text: str, sig: Signature) -> list[Condition]:
    """Parse 'a <= b' to one condition, 'a = b' to the two-condition expansion."""
    if "<=" in text:
        return [parse_condition(text, sig)]
    if "=" in text:
        left, right = text.split("=", 1)
        lhs = parse_formula(left, sig)
        rhs = parse_formula(right, sig)
        return [Condition(lhs, rhs), Condition(rhs, lhs)]
    raise ParseError("condition must contain '<=' or '='")


# ---------------------------------------------------------------------------
# Substitution and alpha-equivalence


def substitute(phi: Formula, varname: str, term: Term) -> Formula:
    """Capture-avoiding substitution of term for every free occurrence of varname.

    Raises CaptureError if a free variable of the term would be captured by a
    quantifier; callers must rename the offending bound variable themselves.
    """

    def sub_term(t: Term) -> Term:
        if isinstance(t, Var):
            return term if t.name == varname else t
        if isinstance(t, Const):
            return t
        return App(t.func, tuple(sub_term(a) for a in t.args), t.func_lipschitz)

    def sub(f: Formula) -> Formula:
        if varname not in f.free:
            return f
        if isinstance(f, One):
            return f
        if isinstance(f, Dist):
            return Dist(sub_term(f.left), sub_term(f.right))
        if isinstance(f, Rel):
            return Rel(f.rel, tuple(sub_term(a) for a in f.args), f.rel_lipschitz)
        if isinstance(f, Sum):
            return Sum(sub(f.left), sub(f.right))
        if isinstance(f, Scale):
            return Scale(f.coeff, sub(f.body))
        if isinstance(f, Min):
            return Min(sub(f.left), sub(f.right))
        if isinstance(f, Max):
            return Max(sub(f.left), sub(f.right))
        if isinstance(f, (Sup, Inf)):
            # varname is free in f, so varname != f.varname
            if f.varname in term.free:
                raise CaptureError(
                    f"substituting {term} for {varname} would capture {f.varname}"
                )
            body = sub(f.body)
            return Sup(f.varname, body) if isinstance(f, Sup) else Inf(f.varname, body)
        raise TypeError(f)

    return sub(phi)


def substitution_correct(phi: Formula, varname: str, term: Term) -> bool:
    try:
        substitute(phi, varname, term)
        return True
    except CaptureError:
        return False


def alpha_equal(a: Formula, b: Formula) -> bool:
    """Structural equality up to renaming of bound variables."""

    def term_eq(s: Term, t: Term, ren: dict[str, str], ner: dict[str, str]) -> bool:
        if isinstance(s, Var) and isinstance(t, Var):
            if s.name in ren or t.name in ner:
                return ren.get(s.name) == t.name and ner.get(t.name) == s.name
            return s.name == t.name
        if isinstance(s, Const) and isinstance(t, Const):
            return s.name == t.name
        if isinstance(s, App) and isinstance(t, App):
            return (
                s.func == t.func
                and len(s.args) == len(t.args)
                and all(term_eq(x, y, ren, ner) for x, y in zip(s.args, t.args))
            )
        return False

    def go(f: Formula, g: Formula, ren: dict[str, str], ner: dict[str, str]) -> bool:
        if type(f) is not type(g):
            return False
        if isinstance(f, One):
            return True
        if isinstance(f, Dist):
            return term_eq(f.left, g.left, ren, ner) and term_eq(f.right, g.right, ren, ner)
        if isinstance(f, Rel):
            return f.rel == g.rel and all(
                term_eq(x, y, ren, ner) for x, y in zip(f.args, g.args)
            )
        if isinstance(f, (Sum, Min, Max)):
            return go(f.left, g.left, ren, ner) and go(f.right, g.right, ren, ner)
        if isinstance(f, Scale):
            return f.coeff == g.coeff and go(f.body, g.body, ren, ner)
        if isinstance(f, (Sup, Inf)):
            ren2 = dict(ren)
            ner2 = dict(ner)
            ren2[f.varname] = g.varname
            ner2[g.varname] = f.varname
            return go(f.body, g.body, ren2, ner2)
        raise TypeError(f)

    return go(a, b, {}, {})


def alpha_equal_condition(a: Condition, b: Condition) -> bool:
    return alpha_equal(a.lhs, b.lhs) and alpha_equal(a.rhs, b.rhs)


# ---------------------------------------------------------------------------
# Affine combinations


def affine_combination(weighted: list[tuple[Condition, Rational]]) -> Condition:
    """Combine conditions (phi_i <= psi_i, r_i) into sum(r_i phi_i) <= sum(r_i psi_i).

    Weights must be nonnegative with at least one positive.  Weight-1 members
    enter unscaled, scaled zeros collapse to the canonical zero, and a sum of
    two canonical zeros stays a single zero.
    """
    if not weighted:
        raise ParseError("affine combination of an empty condition list")
    weights = [as_fraction(w) for _, w in weighted]
    if any(w < 0 for w in weights):
        raise ParseError("affine combination weights must be nonnegative")
    if all(w == 0 for w in weights):
        raise ParseError("at least one affine combination weight must be positive")

    def scaled(w: Fraction, phi: Formula) -> Formula:
        if w == 1:
            return phi
        if phi == ZERO:
            return ZERO
        return Scale(w, phi)

    def add(acc: Formula | None, part: Formula) -> Formula:
        if acc is None:
            return part
        if acc == ZERO and part == ZERO:
            return ZERO
        return Sum(acc, part)

    lhs_acc: Formula | None = None
    rhs_acc: Formula | None = None
    for (cond, _), w in zip(weighted, weights):
        lhs_acc = add(lhs_acc, scaled(w, cond.lhs))
        rhs_acc = add(rhs_acc, scaled(w, cond.rhs))
    assert lhs_acc is not None and rhs_acc is not None
    return Condition(lhs_acc, rhs_acc)
