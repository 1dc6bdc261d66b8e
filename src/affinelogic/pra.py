"""Symbolic quantifier elimination for the affine theory of probability algebras.

The probability-algebra language has Boolean operations and/or/not/sym (the
last is symmetric difference), constants zero/one, the measure relation mu,
and the metric d(x,y) = mu(sym(x,y)).  Every quantifier-free formula is a
rational constant plus a rational combination of measures of events; events
are kept in minterm normal form over their minimal supporting variables.

Elimination of sup_y works on the minterms of every variable in scope
including y: writing the value as
c + sum over minterms m of x-variables of [a+(m) mu(m & y) + a-(m) mu(m & ~y)],
the measures mu(m & y) range independently over [0, mu(m)] as y ranges over
the algebra, so the supremum is c + sum max(a+(m), a-(m)) mu(m), attained at
y = union of the minterms with a+ > a-.  The infimum is the same sum with
min in place of max.

The coefficients live in one list of 2^n ints over one denominator, n the
size of the scope.  Positive-conjunction coefficients go to minterm
coefficients by a zeta transform over the subset lattice and come back by a
Möbius transform, n * 2^(n-1) integer additions each, so the result is a
combination of measures of positive conjunctions, a unique normal form.
Scopes above MAX_ELIMINATION_VARS variables are refused.  A brute-force
oracle over small finite algebras (quantifiers range over all events)
adjudicates every rewrite.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .errors import NotAffineError, SignatureError, UniverseCapError, ValidationError
from .structures import (
    FiniteStructure,
    eval_formula,
    make_structure,
    value_table,
)
from .syntax import (
    App,
    Const,
    Dist,
    Formula,
    Inf,
    One,
    Rel,
    Scale,
    Signature,
    Sum,
    Sup,
    Term,
    Var,
    constant_symbol,
    format_fraction,
    function_symbol,
    over_common_denominator,
    relation_symbol,
)

BOOLEAN_FUNCTIONS = {"and": 2, "or": 2, "sym": 2, "not": 1}


def pra_signature() -> Signature:
    return Signature(
        [
            relation_symbol("mu", 1, 1),
            function_symbol("and", 2, 1),
            function_symbol("or", 2, 1),
            function_symbol("sym", 2, 1),
            function_symbol("not", 1, 1),
            constant_symbol("zero"),
            constant_symbol("one"),
        ]
    )


# ---------------------------------------------------------------------------
# Events in minterm normal form


@dataclass(frozen=True)
class EventTerm:
    """A Boolean event over its minimal supporting variables.

    minterms holds bitmasks over `vars` (bit i set = vars[i] occurs
    positively); the event is the union of its minterms.  Variables the event
    does not depend on are projected away, so equal events have equal
    representations.
    """

    vars: tuple[str, ...]
    minterms: frozenset[int]

    @staticmethod
    def zero() -> "EventTerm":
        return EventTerm((), frozenset())

    @staticmethod
    def one() -> "EventTerm":
        return EventTerm((), frozenset({0}))

    @staticmethod
    def variable(name: str) -> "EventTerm":
        return EventTerm((name,), frozenset({1}))

    @property
    def is_zero(self) -> bool:
        return not self.minterms

    @property
    def is_one(self) -> bool:
        return not self.vars and self.minterms

    def lift(self, scope: tuple[str, ...]) -> frozenset[int]:
        """Minterm masks of this event over a larger variable scope."""
        pos = {v: i for i, v in enumerate(scope)}
        own = [pos[v] for v in self.vars]
        free = [i for i in range(len(scope)) if scope[i] not in self.vars]
        out = set()
        for m in self.minterms:
            base = 0
            for bit, target in enumerate(own):
                if m >> bit & 1:
                    base |= 1 << target
            for extra in range(1 << len(free)):
                mask = base
                for bit, target in enumerate(free):
                    if extra >> bit & 1:
                        mask |= 1 << target
                out.add(mask)
        return frozenset(out)


def _reduce(scope: tuple[str, ...], minterms: frozenset[int]) -> EventTerm:
    """Project away variables the minterm set does not depend on."""
    vars_ = list(scope)
    masks = set(minterms)
    i = 0
    while i < len(vars_):
        bit = 1 << i
        if all((m ^ bit) in masks for m in masks):
            masks = {
                ((m >> (i + 1)) << i) | (m & (bit - 1)) for m in masks if not m & bit
            }
            del vars_[i]
        else:
            i += 1
    if not masks:
        return EventTerm.zero()
    return EventTerm(tuple(vars_), frozenset(masks))


def _common_scope(a: EventTerm, b: EventTerm) -> tuple[str, ...]:
    return tuple(sorted(set(a.vars) | set(b.vars)))


def event_and(a: EventTerm, b: EventTerm) -> EventTerm:
    scope = _common_scope(a, b)
    return _reduce(scope, a.lift(scope) & b.lift(scope))


def event_or(a: EventTerm, b: EventTerm) -> EventTerm:
    scope = _common_scope(a, b)
    return _reduce(scope, a.lift(scope) | b.lift(scope))


def event_sym(a: EventTerm, b: EventTerm) -> EventTerm:
    scope = _common_scope(a, b)
    return _reduce(scope, a.lift(scope) ^ b.lift(scope))


def event_not(a: EventTerm) -> EventTerm:
    full = frozenset(range(1 << len(a.vars)))
    return _reduce(a.vars, full - a.minterms)


def event_from_term(t: Term) -> EventTerm:
    if isinstance(t, Var):
        return EventTerm.variable(t.name)
    if isinstance(t, Const):
        if t.name == "zero":
            return EventTerm.zero()
        if t.name == "one":
            return EventTerm.one()
        raise SignatureError(f"unknown probability-algebra constant {t.name}")
    if isinstance(t, App):
        args = [event_from_term(a) for a in t.args]
        if t.func == "and":
            return event_and(*args)
        if t.func == "or":
            return event_or(*args)
        if t.func == "sym":
            return event_sym(*args)
        if t.func == "not":
            return event_not(args[0])
        raise SignatureError(f"unknown probability-algebra function {t.func}")
    raise TypeError(t)


def conjunction_event(names: Sequence[str]) -> EventTerm:
    """The event  x1 and ... and xn  (the full-ones minterm over its variables)."""
    vs = tuple(sorted(names))
    if not vs:
        return EventTerm.one()
    return EventTerm(vs, frozenset({(1 << len(vs)) - 1}))


# ---------------------------------------------------------------------------
# Quantifier-free measure combinations


@dataclass(frozen=True)
class PraFormula:
    """constant + sum of coeff * mu(event); atoms collapsed, zero-free, sorted."""

    constant: Fraction
    atoms: tuple[tuple[Fraction, EventTerm], ...]

    @property
    def variables(self) -> tuple[str, ...]:
        out: set[str] = set()
        for _, e in self.atoms:
            out.update(e.vars)
        return tuple(sorted(out))

    @property
    def is_constant(self) -> bool:
        return not self.atoms


def make_pra(
    constant: Fraction | int, atoms: Sequence[tuple[Fraction, EventTerm]]
) -> PraFormula:
    const = Fraction(constant)
    merged: dict[EventTerm, Fraction] = {}
    for coeff, event in atoms:
        if event.is_zero:
            continue
        if event.is_one:
            const += coeff
            continue
        merged[event] = merged.get(event, Fraction(0)) + coeff
    cleaned = sorted(
        ((c, e) for e, c in merged.items() if c != 0),
        key=lambda item: (len(item[1].vars), item[1].vars, sorted(item[1].minterms)),
    )
    return PraFormula(const, tuple(cleaned))


def pra_add(a: PraFormula, b: PraFormula) -> PraFormula:
    return make_pra(a.constant + b.constant, a.atoms + b.atoms)


def pra_scale(r: Fraction, a: PraFormula) -> PraFormula:
    return make_pra(r * a.constant, [(r * c, e) for c, e in a.atoms])


# Largest elimination scope, the x-variables plus y: the vectors hold 2^n ints.
MAX_ELIMINATION_VARS = 16


def _subset_transform(f: list[int], n: int, op) -> None:
    """In place over n-bit masks; op=operator.add is the zeta transform
    f[m] <- sum of f[s] over s subset of m, op=operator.sub its inverse, the
    Möbius transform f[m] <- sum of (-1)^|m - s| f[s].  Either is
    n * 2^(n-1) integer operations."""
    for i in range(n):
        bit = 1 << i
        for m in range(1 << n):
            if m & bit:
                f[m] = op(f[m], f[m ^ bit])


def eliminate_sup(phi: PraFormula, y: str, pick=max) -> PraFormula:
    """Exact supremum over all events y of a quantifier-free measure combination
    (the infimum with pick=min).

    Works on one vector of 2^n ints over one denominator, where the scope is
    the other variables plus y (the top bit).  Each atom adds the
    positive-conjunction coefficients of its event (a Möbius transform over
    the event's own variables); a zeta transform gives the coefficients of
    the minterms; each minterm of the other variables keeps the pick of its
    y and not-y coefficient; a Möbius transform returns to positive
    conjunctions, the canonical form.  Raises UniverseCapError, before
    allocating, when the scope exceeds MAX_ELIMINATION_VARS variables.
    """
    xvars = tuple(v for v in phi.variables if v != y)
    n = len(xvars) + 1
    if n > MAX_ELIMINATION_VARS:
        raise UniverseCapError(
            f"eliminating {y} would range over {n} variables; "
            f"the cap is {MAX_ELIMINATION_VARS}"
        )
    bit = {v: 1 << i for i, v in enumerate(xvars + (y,))}
    nums, den = over_common_denominator([c for c, _ in phi.atoms])
    f = [0] * (1 << n)
    for num, (_, event) in zip(nums, phi.atoms):
        k = len(event.vars)
        own = [0] * (1 << k)
        for m in event.minterms:
            own[m] = 1
        _subset_transform(own, k, operator.sub)
        masks = [0]
        for v in event.vars:
            masks += [s | bit[v] for s in masks]
        for s, a in zip(masks, own):
            if a:
                f[s] += num * a
    _subset_transform(f, n, operator.add)  # now the minterm coefficients
    half = 1 << (n - 1)
    h = [pick(g_pos, g_neg) for g_pos, g_neg in zip(f[half:], f[:half])]
    _subset_transform(h, n - 1, operator.sub)
    atoms = [
        (Fraction(c, den), conjunction_event([v for i, v in enumerate(xvars) if s >> i & 1]))
        for s, c in enumerate(h)
        if c
    ]
    return make_pra(phi.constant, atoms)


def qe(phi: Formula) -> PraFormula:
    """Eliminate all quantifiers from a probability-algebra formula.

    Accepts arbitrary nesting (not just prefixes).  Sentences come out as
    plain constants.
    """
    if isinstance(phi, One):
        return make_pra(1, [])
    if isinstance(phi, Rel):
        if phi.rel != "mu":
            raise SignatureError(f"relation {phi.rel} is not part of the PrA language")
        return make_pra(0, [(Fraction(1), event_from_term(phi.args[0]))])
    if isinstance(phi, Dist):
        event = event_sym(event_from_term(phi.left), event_from_term(phi.right))
        return make_pra(0, [(Fraction(1), event)])
    if isinstance(phi, Sum):
        return pra_add(qe(phi.left), qe(phi.right))
    if isinstance(phi, Scale):
        return pra_scale(phi.coeff, qe(phi.body))
    if isinstance(phi, Sup):
        return eliminate_sup(qe(phi.body), phi.varname)
    if isinstance(phi, Inf):
        return eliminate_sup(qe(phi.body), phi.varname, min)
    raise NotAffineError("min/max are not part of the affine PrA fragment")


# ---------------------------------------------------------------------------
# Finite algebras and the exhaustive oracle


@dataclass(frozen=True)
class FiniteAlgebra:
    """The powerset algebra on k atoms with nonnegative atom weights summing to 1."""

    weights: tuple[Fraction, ...]

    def __post_init__(self):
        if not self.weights:
            raise ValidationError("an algebra needs at least one atom")
        if any(w < 0 for w in self.weights):
            raise ValidationError("negative atom weight")
        if sum(self.weights, Fraction(0)) != 1:
            raise ValidationError("atom weights must sum to 1")

    @property
    def atom_count(self) -> int:
        return len(self.weights)

    @property
    def full(self) -> int:
        return (1 << self.atom_count) - 1

    def events(self) -> range:
        return range(1 << self.atom_count)

    @functools.cached_property
    def measures(self) -> tuple[Fraction, ...]:
        """The measure of every event, indexed by its bitmask."""
        out = [Fraction(0)]
        for w in self.weights:
            out += [m + w for m in out]
        return tuple(out)

    def measure(self, event: int) -> Fraction:
        return self.measures[event & self.full]


def algebra(weights: Sequence[Fraction | int | str]) -> FiniteAlgebra:
    return FiniteAlgebra(tuple(Fraction(w) for w in weights))


def weight_grid(k: int, step_denominator: int = 4) -> list[FiniteAlgebra]:
    """All k-atom algebras whose weights are multiples of 1/step_denominator."""

    def compositions(total: int, parts: int):
        if parts == 1:
            yield (total,)
            return
        for first in range(total + 1):
            for rest in compositions(total - first, parts - 1):
                yield (first,) + rest

    return [
        FiniteAlgebra(tuple(Fraction(c, step_denominator) for c in comp))
        for comp in compositions(step_denominator, k)
    ]


def algebras_up_to(kmax: int, step_denominator: int = 4) -> list[FiniteAlgebra]:
    out: list[FiniteAlgebra] = []
    for k in range(1, kmax + 1):
        out.extend(weight_grid(k, step_denominator))
    return out


def oracle_eval(
    phi: Formula | PraFormula, alg: FiniteAlgebra, asg: Mapping[str, int] | None = None
) -> Fraction:
    """Brute-force value on a finite algebra; quantifiers range over all events.

    A Formula is evaluated in the algebra's structure view (one structure per
    algebra, kept for later calls); a PraFormula is summed atom by atom.
    Neither path shares code with quantifier elimination.
    """
    scope = dict(asg or {})
    if isinstance(phi, PraFormula):
        measures = alg.measures
        total = phi.constant
        for coeff, event in phi.atoms:
            mask = 0
            for m in event.minterms:
                piece = alg.full
                for i, v in enumerate(event.vars):
                    ev = scope.get(v)
                    if ev is None:
                        raise ValidationError(f"no event assigned to variable {v}")
                    piece &= ev if m >> i & 1 else alg.full & ~ev
                mask |= piece
            total += coeff * measures[mask]
        return total
    if not phi.affine:
        raise NotAffineError("min/max are not part of the affine PrA fragment")
    names = {v: _event_point(alg, ev) for v, ev in scope.items()}
    return eval_formula(_algebra_structure(alg), phi, names)


def oracle_table(phi: Formula, alg: FiniteAlgebra, variables: Sequence[str]) -> list[Fraction]:
    """oracle_eval of a Formula at every assignment of events to `variables`.

    Values come in itertools.product(alg.events(), repeat=len(variables))
    order: one value_table call on the algebra's structure view, whose point
    i is event i.
    """
    if not phi.affine:
        raise NotAffineError("min/max are not part of the affine PrA fragment")
    return value_table(_algebra_structure(alg), phi, variables)


# ---------------------------------------------------------------------------
# Formatting and the structure view of an algebra


def format_event(event: EventTerm) -> str:
    """Event as a term string; canonical conjunctions come out as nested ands."""
    if event.is_zero:
        return "zero"
    if event.is_one:
        return "one"
    parts = []
    for m in sorted(event.minterms):
        lits = [
            v if m >> i & 1 else f"not({v})" for i, v in enumerate(event.vars)
        ]
        term = lits[0]
        for lit in lits[1:]:
            term = f"and({term},{lit})"
        parts.append(term)
    out = parts[0]
    for part in parts[1:]:
        out = f"or({out},{part})"
    return out


def format_pra(phi: PraFormula) -> str:
    """Textual form in the shared grammar, e.g. 'mu(x) + -2*mu(and(x,y))'."""
    parts: list[str] = []
    if phi.constant != 0 or not phi.atoms:
        if phi.constant == 1:
            parts.append("1")
        else:
            parts.append(f"{format_fraction(phi.constant)}*1")
    for coeff, event in phi.atoms:
        atom = f"mu({format_event(event)})"
        parts.append(atom if coeff == 1 else f"{format_fraction(coeff)}*{atom}")
    return " + ".join(parts)


def _event_point(alg: FiniteAlgebra, event: int) -> str:
    """The point naming an event in the algebra's structure view, e.g. e101."""
    return "e" + format(event, f"0{alg.atom_count}b")


def structure_from_algebra(alg: FiniteAlgebra) -> FiniteStructure:
    """The algebra as a finite metric structure over the PrA signature.

    Points are the events named by their atom bitstrings (e.g. e101), the
    metric is mu of the symmetric difference, and all tables are total.
    """
    measures = alg.measures
    names = {event: _event_point(alg, event) for event in alg.events()}
    points = [names[e] for e in alg.events()]
    metric = {
        (names[a], names[b]): measures[a ^ b]
        for a in alg.events()
        for b in alg.events()
        if a < b
    }
    functions = {
        "and": {(names[a], names[b]): names[a & b] for a in alg.events() for b in alg.events()},
        "or": {(names[a], names[b]): names[a | b] for a in alg.events() for b in alg.events()},
        "sym": {(names[a], names[b]): names[a ^ b] for a in alg.events() for b in alg.events()},
        "not": {(names[a],): names[alg.full & ~a] for a in alg.events()},
    }
    relations = {"mu": {(names[a],): measures[a] for a in alg.events()}}
    constants = {"zero": names[0], "one": names[alg.full]}
    return make_structure(points, metric, constants, functions, relations)


# The oracle evaluates in one structure per algebra; it never mutates it.
_algebra_structure = functools.lru_cache(maxsize=64)(structure_from_algebra)

