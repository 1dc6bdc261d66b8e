"""Finite-basis type vectors, realized-type polytopes, and type metrics.

A type vector is the restriction of the type functional tp(a) to a fixed
finite list of formulas: the tuple (phi_1(a), ..., phi_m(a)).  Everything
here is a finite-basis shadow of the full type space: polytopes of realized
vectors, their vertices (checked by exact LP membership tests), coordinate
restrictions, and the logic/norm metrics at this finite scale.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

from .errors import EvalError, ValidationError
from .lp import INFEASIBLE, solve_lp
from .structures import FiniteStructure, eval_formula, value_table
from .syntax import Formula, require_affine


@dataclass(frozen=True)
class FormulaBasis:
    """Formulas phi_1..phi_m in the variables `variables`, with family-relative
    sup norms (max |value| over all tuples of all declared family members)."""

    variables: tuple[str, ...]
    formulas: tuple[Formula, ...]
    norms: tuple[Fraction, ...]

    def __post_init__(self):
        if not self.formulas:
            raise ValidationError("empty formula basis")
        varset = set(self.variables)
        for f in self.formulas:
            if not f.free <= varset:
                raise ValidationError(
                    f"basis formula uses variables {sorted(f.free - varset)} "
                    f"outside {self.variables}"
                )

    def index_of(self, phi: Formula) -> int:
        for i, f in enumerate(self.formulas):
            if f == phi:
                return i
        raise ValidationError("formula not in basis")


def make_basis(
    variables: Sequence[str],
    formulas: Sequence[Formula],
    family: Sequence[FiniteStructure],
    p: int = 1,
) -> FormulaBasis:
    """Build a basis with norms computed over the declared family (never user-supplied)."""
    if not family:
        raise ValidationError("a basis needs a nonempty declaring family")
    for phi in formulas:
        require_affine(phi, "type bases")
    variables = tuple(variables)
    norms = [
        max(abs(v) for m in family for v in value_table(m, phi, variables, p))
        for phi in formulas
    ]
    return FormulaBasis(variables, tuple(formulas), tuple(norms))


Provenance = Union[
    tuple[str, int, tuple[str, ...]],  # ("realized", structure index, tuple)
    tuple[str, tuple[tuple["TypeVector", Fraction], ...]],  # ("convex", parts)
]


@dataclass(frozen=True)
class TypeVector:
    values: tuple[Fraction, ...]
    provenance: Provenance

    def __getitem__(self, k: int) -> Fraction:
        return self.values[k]


def tuple_type(
    m: FiniteStructure,
    basis: FormulaBasis,
    tup: Sequence[str],
    p: int = 1,
    structure_index: int = 0,
) -> TypeVector:
    asg = dict(zip(basis.variables, tup))
    vals = tuple(eval_formula(m, phi, asg, p) for phi in basis.formulas)
    return TypeVector(vals, ("realized", structure_index, tuple(tup)))


def realized_types(
    m: FiniteStructure,
    basis: FormulaBasis,
    p: int = 1,
    structure_index: int = 0,
) -> list[TypeVector]:
    """One type vector per tuple of M, deduplicated by exact value equality.

    The witness kept for a duplicated vector is the first realizing tuple in
    lexicographic point order.
    """
    seen: set[tuple[Fraction, ...]] = set()
    out: list[TypeVector] = []
    for tup, values in _typed_tuples(m, basis, p):
        if values not in seen:
            seen.add(values)
            out.append(TypeVector(values, ("realized", structure_index, tup)))
    return out


def _typed_tuples(
    m: FiniteStructure, basis: FormulaBasis, p: int
) -> list[tuple[tuple[str, ...], tuple[Fraction, ...]]]:
    """Every tuple of M in lexicographic point order with its type vector."""
    columns = [value_table(m, phi, basis.variables, p) for phi in basis.formulas]
    tuples = itertools.product(m.points, repeat=len(basis.variables))
    return list(zip(tuples, zip(*columns)))


def convex_combination(parts: Sequence[tuple[TypeVector, Fraction]]) -> TypeVector:
    if not parts:
        raise ValidationError("empty convex combination")
    weights = [w for _, w in parts]
    if any(w < 0 for w in weights) or sum(weights, Fraction(0)) != 1:
        raise ValidationError("weights must be nonnegative and sum to 1")
    dim = len(parts[0][0].values)
    vals = tuple(
        sum((w * tv.values[k] for tv, w in parts), Fraction(0)) for k in range(dim)
    )
    return TypeVector(vals, ("convex", tuple((tv, w) for tv, w in parts)))


@dataclass
class TypePolytope:
    generators: list[TypeVector]
    vertices: list[TypeVector]


def in_convex_hull(
    point: Sequence[Fraction], generators: Sequence[Sequence[Fraction]]
) -> bool:
    """Exact LP membership test of a point in the hull of the generators."""
    if not generators:
        return False
    dim = len(point)
    n = len(generators)
    a_eq = [[Fraction(g[k]) for g in generators] for k in range(dim)]
    a_eq.append([Fraction(1)] * n)
    b_eq = [Fraction(v) for v in point] + [Fraction(1)]
    return solve_lp([Fraction(0)] * n, None, None, a_eq, b_eq).status != INFEASIBLE


def type_polytope(
    family: Sequence[FiniteStructure], basis: FormulaBasis, p: int = 1
) -> TypePolytope:
    """Polytope of the types realized anywhere in the family.

    Generators are the deduplicated realized vectors; a generator is a vertex
    iff it is not a convex combination of the other generators (exact LP test).
    """
    gens: list[TypeVector] = []
    seen: set[tuple[Fraction, ...]] = set()
    for i, m in enumerate(family):
        for tv in realized_types(m, basis, p, structure_index=i):
            if tv.values not in seen:
                seen.add(tv.values)
                gens.append(tv)
    vertices = [
        tv
        for i, tv in enumerate(gens)
        if not in_convex_hull(
            tv.values, [g.values for j, g in enumerate(gens) if j != i]
        )
    ]
    return TypePolytope(generators=gens, vertices=vertices)


def restrict_type(
    tv: TypeVector, basis: FormulaBasis, sub_basis: FormulaBasis
) -> TypeVector:
    """Coordinate projection onto a sub-basis; commutes with convex combinations."""
    idx = [basis.index_of(phi) for phi in sub_basis.formulas]
    return TypeVector(tuple(tv.values[i] for i in idx), tv.provenance)


def logic_distance(
    p_type: TypeVector,
    q_type: TypeVector,
    m: FiniteStructure,
    basis: FormulaBasis,
    p: int = 1,
) -> Fraction:
    """min d(a, b) over tuples a realizing p and b realizing q in M (sum metric)."""
    typed = _typed_tuples(m, basis, p)
    realize_p = [tup for tup, values in typed if values == p_type.values]
    realize_q = [tup for tup, values in typed if values == q_type.values]
    if not realize_p or not realize_q:
        raise EvalError("both types must be realized in the given structure")
    return min(
        m.tuple_dist(a, b) for a in realize_p for b in realize_q
    )


def norm_distance(p_type: TypeVector, q_type: TypeVector, basis: FormulaBasis) -> Fraction:
    """max_k |p_k - q_k| / ||phi_k||; a basis-relative lower bound of the full
    norm metric.  Coordinates with norm 0 are identically 0 and are skipped."""
    best = Fraction(0)
    for pk, qk, nk in zip(p_type.values, q_type.values, basis.norms):
        if nk == 0:
            continue
        best = max(best, abs(pk - qk) / nk)
    return best
