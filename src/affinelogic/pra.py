"""Symbolic quantifier elimination for the affine theory of probability algebras.

The probability-algebra language has Boolean operations and/or/not/sym (the
last is symmetric difference), constants zero/one, the measure relation mu,
and the metric d(x,y) = mu(sym(x,y)).  Every quantifier-free formula is kept
as a rational constant plus a rational combination of measures of positive
conjunctions mu(x1 and ... and xk), a unique normal form (Rota 1964), from
the parsed term to the printed result.  An event term is read as its truth
table over its own n variables, one int of 2^n bits, and a Möbius transform
over the subset lattice turns the table into conjunction coefficients.

Elimination of sup_y works on the minterms of every variable in scope
including y: writing the value as
c + sum over minterms m of x-variables of [a+(m) mu(m & y) + a-(m) mu(m & ~y)],
the measures mu(m & y) range independently over [0, mu(m)] as y ranges over
the algebra, so the supremum is c + sum max(a+(m), a-(m)) mu(m), attained at
y = union of the minterms with a+ > a-.  The infimum is the same sum with
min in place of max.

The coefficients live in one list of 2^n ints over one denominator, n the
size of the scope.  A zeta transform takes them to minterm coefficients and
a Möbius transform brings them back, n * 2^(n-1) integer additions each.
Scopes and events over more than MAX_ELIMINATION_VARS variables are refused.
A brute-force oracle over small finite algebras (quantifiers range over all
events) adjudicates every rewrite; it evaluates a result, through
`as_formula`, with the same table kernel as the input.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

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
# Quantifier-free measure combinations


@dataclass(frozen=True)
class PraFormula:
    """constant + sum of coeff * mu(x1 and ... and xk).

    Each atom is (coefficient, names): a nonzero coefficient and the sorted,
    distinct, nonempty names of a positive conjunction.  Atoms are ordered by
    (len(names), names), so equal formulas are equal values.
    """

    constant: Fraction
    atoms: tuple[tuple[Fraction, tuple[str, ...]], ...]

    @property
    def variables(self) -> tuple[str, ...]:
        out: set[str] = set()
        for _, names in self.atoms:
            out.update(names)
        return tuple(sorted(out))

    @property
    def is_constant(self) -> bool:
        return not self.atoms


def make_pra(
    constant: Fraction | int, atoms: Iterable[tuple[Fraction, tuple[str, ...]]]
) -> PraFormula:
    """Merge equal conjunctions, fold the empty one into the constant, drop
    zero coefficients.  Each atom's names must already be sorted and distinct."""
    const = Fraction(constant)
    merged: dict[tuple[str, ...], Fraction] = {}
    for coeff, names in atoms:
        if names:
            merged[names] = merged.get(names, Fraction(0)) + coeff
        else:
            const += coeff
    cleaned = sorted(
        ((c, names) for names, c in merged.items() if c != 0),
        key=lambda item: (len(item[1]), item[1]),
    )
    return PraFormula(const, tuple(cleaned))


def pra_add(a: PraFormula, b: PraFormula) -> PraFormula:
    return make_pra(a.constant + b.constant, a.atoms + b.atoms)


def pra_scale(r: Fraction, a: PraFormula) -> PraFormula:
    return make_pra(r * a.constant, [(r * c, names) for c, names in a.atoms])


# Largest elimination scope, the x-variables plus y: the vectors hold 2^n ints.
# It also caps an event's variables, since its truth table has 2^n bits.
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


def _conjunctions(
    f: list[int], names: Sequence[str], den: int, constant: Fraction | int
) -> PraFormula:
    """constant + the combination whose minterm coefficients over `names`,
    times den, are f: a Möbius transform gives each conjunction's coefficient."""
    _subset_transform(f, len(names), operator.sub)
    atoms = [
        (Fraction(c, den), tuple(v for i, v in enumerate(names) if s >> i & 1))
        for s, c in enumerate(f)
        if c
    ]
    return make_pra(constant, atoms)


# The binary Boolean operations on truth tables; not(a) is full & ~a.
_BINARY = {"and": operator.and_, "or": operator.or_, "sym": operator.xor}


def _truth_table(t: Term, columns: Mapping[str, int], full: int) -> int:
    if isinstance(t, Var):
        return columns[t.name]
    if isinstance(t, Const):
        if t.name not in ("zero", "one"):
            raise SignatureError(f"unknown probability-algebra constant {t.name}")
        return full if t.name == "one" else 0
    if isinstance(t, App):
        args = [_truth_table(a, columns, full) for a in t.args]
        if t.func == "not":
            return full & ~args[0]
        if t.func not in _BINARY:
            raise SignatureError(f"unknown probability-algebra function {t.func}")
        return _BINARY[t.func](*args)
    raise TypeError(t)


def event_measure(t: Term) -> PraFormula:
    """mu(t) as a combination of measures of positive conjunctions.

    Bit m of the truth table is t at the assignment whose true variables are
    the set bits of m, so variable i's column repeats 2^i zeros then 2^i
    ones.  Raises UniverseCapError, before building the table, when t has
    more than MAX_ELIMINATION_VARS variables.
    """
    names = sorted(t.free)
    n = len(names)
    if n > MAX_ELIMINATION_VARS:
        raise UniverseCapError(
            f"the event {t} ranges over {n} variables; the cap is {MAX_ELIMINATION_VARS}"
        )
    size = 1 << n
    full = (1 << size) - 1
    # Column i repeats a period of 2^(i+1) bits.  full // (2^period - 1) has
    # a one at the start of every period, as 2^period - 1 divides 2^size - 1,
    # so its product with one period is the column.
    columns = {
        v: full // ((1 << (2 << i)) - 1) * (((1 << (1 << i)) - 1) << (1 << i))
        for i, v in enumerate(names)
    }
    table = _truth_table(t, columns, full)
    f = [int(b) for b in reversed(format(table, f"0{size}b"))]
    return _conjunctions(f, names, 1, 0)


def eliminate_sup(phi: PraFormula, y: str, pick=max) -> PraFormula:
    """Exact supremum over all events y of a quantifier-free measure combination
    (the infimum with pick=min).

    Works on one vector of 2^n ints over one denominator, where the scope is
    the other variables plus y (the top bit).  Each atom adds its coefficient
    at its conjunction's mask; a zeta transform gives the coefficients of
    the minterms; each minterm of the other variables keeps the pick of its
    y and not-y coefficient; a Möbius transform returns to positive
    conjunctions.  Raises UniverseCapError, before allocating, when the
    scope exceeds MAX_ELIMINATION_VARS variables.
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
    for num, (_, names) in zip(nums, phi.atoms):
        f[sum(bit[v] for v in names)] += num
    _subset_transform(f, n, operator.add)  # now the minterm coefficients
    half = 1 << (n - 1)
    h = [pick(g_pos, g_neg) for g_pos, g_neg in zip(f[half:], f[:half])]
    return _conjunctions(h, xvars, den, phi.constant)


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
        return event_measure(phi.args[0])
    if isinstance(phi, Dist):
        return event_measure(App("sym", (phi.left, phi.right), Fraction(1)))
    if isinstance(phi, Sum):
        return pra_add(qe(phi.left), qe(phi.right))
    if isinstance(phi, Scale):
        return pra_scale(phi.coeff, qe(phi.body))
    if isinstance(phi, Sup):
        return eliminate_sup(qe(phi.body), phi.varname)
    if isinstance(phi, Inf):
        return eliminate_sup(qe(phi.body), phi.varname, min)
    raise NotAffineError("min/max are not part of the affine PrA fragment")


def _conjunction(names: Sequence[str]) -> Term:
    """The term and(...and(x1,x2)...,xk), printed as in format_pra."""
    event: Term = Var(names[0])
    for name in names[1:]:
        event = App("and", (event, Var(name)), Fraction(1))
    return event


def as_formula(phi: PraFormula) -> Formula:
    """phi as a formula of the PrA language, for the oracle.

    Each atom is Scale(coeff, mu(and(...))); the sums form a balanced tree,
    so the depth grows with the logarithm of the number of atoms.
    """
    parts: list[Formula] = [
        Scale(coeff, Rel("mu", (_conjunction(names),), Fraction(1))) for coeff, names in phi.atoms
    ]
    if phi.constant != 0 or not parts:
        parts.insert(0, Scale(phi.constant, One()))
    while len(parts) > 1:  # sum neighbours pairwise; an odd last part waits a round
        parts = [Sum(a, b) for a, b in zip(parts[::2], parts[1::2])] + parts[len(parts) & ~1 :]
    return parts[0]


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

    The formula (a PraFormula through `as_formula`) is evaluated in the
    algebra's structure view, one structure per algebra kept for later calls.
    It shares no code with quantifier elimination.
    """
    if isinstance(phi, PraFormula):
        phi = as_formula(phi)
    if not phi.affine:
        raise NotAffineError("min/max are not part of the affine PrA fragment")
    names = {v: _event_point(alg, ev) for v, ev in (asg or {}).items()}
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


def format_pra(phi: PraFormula) -> str:
    """Textual form in the shared grammar, e.g. 'mu(x) + -2*mu(and(x,y))'."""
    parts: list[str] = []
    if phi.constant != 0 or not phi.atoms:
        if phi.constant == 1:
            parts.append("1")
        else:
            parts.append(f"{format_fraction(phi.constant)}*1")
    for coeff, names in phi.atoms:
        atom = f"mu({_conjunction(names)})"
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

