"""Affine satisfiability over a finite structure family, via exact LP.

A theory T is satisfiable over a family (M_1..M_n) if some probability
weight vector w makes the mean structure a model of T; equivalently the LP

    w >= 0,  sum w = 1,  sum_i w_i (phi^{M_i} - psi^{M_i}) <= 0  for phi<=psi in T

is feasible.  When it is not, LP duality yields nonnegative coefficients
r_j on the conditions such that the combined condition
sum_j r_j phi_j <= sum_j r_j psi_j fails in every family member by at least
some margin delta > 0: a member of the affine closure of T failing uniformly.
Exactly one of the two verdicts is returned, always exactly.

All verdicts are relative to the given family; nothing here decides
satisfiability over all structures.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

from .errors import AffineLogicError, UnsatisfiableError, ValidationError
from .lp import OPTIMAL, solve_lp
from .structures import FiniteStructure, check_condition, eval_formula
from .syntax import Condition, Formula, Theory, require_affine
from .ultramean import Charge, ultramean


def _require_affine_conditions(conds, what: str) -> None:
    for c in conds:
        require_affine(c.lhs, what)
        require_affine(c.rhs, what)


@dataclass
class ValueMatrix:
    """sentence values tabulated per family member: values[i][k] = value of
    sentence k in structure i."""

    sentences: tuple[Formula, ...]
    values: tuple[tuple[Fraction, ...], ...]


def value_matrix(
    family: Sequence[FiniteStructure], sentences: Sequence[Formula], p: int = 1
) -> ValueMatrix:
    for s in sentences:
        if s.free:
            raise ValidationError(f"not a sentence: free variables {sorted(s.free)}")
    vals = tuple(
        tuple(eval_formula(m, s, None, p) for s in sentences) for m in family
    )
    return ValueMatrix(tuple(sentences), vals)


@dataclass
class Sat:
    charge: Charge


@dataclass
class Unsat:
    certificate: list[tuple[int, Fraction]]  # (condition index, coefficient >= 0)
    margin: Fraction  # the combined condition fails everywhere by >= margin > 0


SatVerdict = Union[Sat, Unsat]


def sat_over_family(
    theory: Theory,
    family: Sequence[FiniteStructure],
    p: int = 1,
    verify: bool = True,
) -> SatVerdict:
    """Decide affine satisfiability of a closed theory over a family.

    With verify=True a Sat verdict is re-checked by building the mean of the
    members the returned charge weights and evaluating every condition there
    (margins must all be >= 0), and an Unsat certificate is re-evaluated in
    every member.  Members of weight 0 would only add tuples at distance 0
    from others, which the mean identifies, so leaving them out changes no
    value; a vertex of the simplex weights at most len(theory) + 1 members.
    """
    if not family:
        raise ValidationError("empty family")
    conds = list(theory)
    _require_affine_conditions(conds, "affine satisfiability")
    ids = [f"m{i}" for i in range(len(family))]
    if not conds:
        w = {ids[0]: Fraction(1), **{i: Fraction(0) for i in ids[1:]}}
        return Sat(Charge(tuple(ids), w))

    g = _excess_matrix(conds, family, p)

    # Variables (w_1..w_n, t+, t-): minimize t = t+ - t- subject to
    # g_j . w <= t for all j and w in the probability simplex.
    n = len(family)
    c_obj = [Fraction(0)] * n + [Fraction(1), Fraction(-1)]
    a_ub = [row + [Fraction(-1), Fraction(1)] for row in g]
    b_ub = [Fraction(0)] * len(conds)
    a_eq = [[Fraction(1)] * n + [Fraction(0), Fraction(0)]]
    b_eq = [Fraction(1)]
    res = solve_lp(c_obj, a_ub, b_ub, a_eq, b_eq)
    assert res.status == OPTIMAL, res.status  # always feasible and bounded
    assert res.objective is not None and res.x is not None and res.dual_ub is not None

    if res.objective <= 0:
        weights = {ids[i]: res.x[i] for i in range(n)}
        verdict = Sat(Charge(tuple(ids), weights))
        if verify:
            support = [i for i in range(n) if res.x[i] != 0]
            weighted = Charge(tuple(ids[i] for i in support), {ids[i]: res.x[i] for i in support})
            mean = ultramean([family[i] for i in support], weighted, p=p)
            for j, cond in enumerate(conds):
                holds, margin = check_condition(mean.structure, cond, None, p)
                if not holds:
                    raise AssertionError(
                        f"sat verdict failed re-verification: condition {j} margin {margin}"
                    )
        return verdict

    delta = res.objective
    coeffs = [-d for d in res.dual_ub]  # dual multipliers, normalized to sum 1
    certificate = [(j, coeffs[j]) for j in range(len(conds)) if coeffs[j] != 0]
    if verify:
        for i, m in enumerate(family):
            combined = sum(
                (coeffs[j] * g[j][i] for j in range(len(conds))), Fraction(0)
            )
            if combined < delta:
                raise AssertionError(
                    f"unsat certificate failed re-verification on member {i}"
                )
    return Unsat(certificate, delta)


def _excess_matrix(
    conds: Sequence[Condition], family: Sequence[FiniteStructure], p: int
) -> list[list[Fraction]]:
    """g[j][i] = (lhs_j - rhs_j)^{M_i}; condition j holds in M_i iff it is <= 0."""
    margins = value_matrix(family, [c.margin for c in conds], p).values
    return [[-v for v in col] for col in zip(*margins)]


def _raise_if_unsat(theory: Theory, family: Sequence[FiniteStructure], p: int) -> None:
    verdict = sat_over_family(theory, family, p, verify=False)
    if isinstance(verdict, Unsat):
        raise UnsatisfiableError("theory is affinely unsatisfiable over this family", verdict)


@dataclass
class ConsequenceResult:
    margin: Fraction  # min over feasible charges of (rhs - lhs) of the target
    charge: Charge  # a minimizing charge
    closure_coeffs: list[tuple[int, Fraction]]  # affine-closure witness multipliers

    @property
    def is_consequence(self) -> bool:
        return self.margin >= 0


def consequence_margin(
    theory: Theory,
    target: Condition,
    family: Sequence[FiniteStructure],
    p: int = 1,
) -> ConsequenceResult:
    """Minimum of (rhs - lhs) of the target over all charges satisfying the theory.

    The target is a family-consequence of the theory iff the margin is >= 0.
    The dual multipliers witness the bound through the affine closure: for
    every member,  (rhs - lhs) - sum_j r_j (rhs_j - lhs_j)  >= margin.
    Raises UnsatisfiableError (carrying the certificate) if the theory itself
    is unsatisfiable over the family.  The margin LP is feasible exactly when
    the theory is satisfiable over the family, so the certificate is computed
    only when it is not.
    """
    if not family:
        raise ValidationError("empty family")
    conds = list(theory)
    _require_affine_conditions(conds, "affine satisfiability")
    try:
        _require_affine_conditions([target], "consequence margins")
        if not target.closed:
            raise ValidationError("target condition must be closed")
        c_obj = [row[0] for row in value_matrix(family, [target.margin], p).values]
    except AffineLogicError:
        _raise_if_unsat(theory, family, p)  # an unsatisfiable theory is reported first
        raise
    n = len(family)
    ids = [f"m{i}" for i in range(n)]
    g = _excess_matrix(conds, family, p)
    res = solve_lp(
        c_obj,
        A_ub=g or None,
        b_ub=[Fraction(0)] * len(conds) or None,
        A_eq=[[Fraction(1)] * n],
        b_eq=[Fraction(1)],
    )
    if res.status != OPTIMAL:  # no charge satisfies the theory
        _raise_if_unsat(theory, family, p)
    assert res.status == OPTIMAL and res.objective is not None and res.x is not None
    coeffs = [-d for d in (res.dual_ub or [])]
    witness = [(j, coeffs[j]) for j in range(len(conds)) if coeffs[j] != 0]
    return ConsequenceResult(
        margin=res.objective,
        charge=Charge(tuple(ids), {ids[i]: res.x[i] for i in range(n)}),
        closure_coeffs=witness,
    )


@dataclass
class Separation:
    coeffs: list[Fraction]  # basis coefficients of the separating sentence
    r: Fraction  # max value over family A
    s: Fraction  # min value over family B; r < s


@dataclass
class NotSeparable:
    reason: str = "value-vector hulls intersect"


def separate(
    family_a: Sequence[FiniteStructure],
    family_b: Sequence[FiniteStructure],
    basis: Sequence[Formula],
    p: int = 1,
) -> Separation | NotSeparable:
    """Best basic separating condition between two families over a sentence basis.

    Finds sigma = sum c_k sigma_k with |c|_1 <= 1 maximizing the gap
    min_B sigma - max_A sigma; a positive optimal gap yields a separation
    (coeffs, r, s) with sigma^M <= r < s <= sigma^N for M in A, N in B.
    The hulls of the two value-vector sets intersect iff no positive gap
    exists, in which case NotSeparable is returned.
    """
    if not basis:
        raise ValidationError("empty basis")
    for sigma in basis:
        require_affine(sigma, "separation")
    if not family_a or not family_b:
        raise ValidationError("families must be nonempty")
    va = value_matrix(family_a, basis, p).values
    vb = value_matrix(family_b, basis, p).values
    k = len(basis)
    # variables: c+ (k), c- (k), r+, r-, s+, s-
    nvars = 2 * k + 4
    ir_p, ir_m, is_p, is_m = 2 * k, 2 * k + 1, 2 * k + 2, 2 * k + 3
    obj = [Fraction(0)] * nvars
    obj[ir_p], obj[ir_m] = Fraction(1), Fraction(-1)  # minimize r - s
    obj[is_p], obj[is_m] = Fraction(-1), Fraction(1)
    a_ub: list[list[Fraction]] = []
    b_ub: list[Fraction] = []
    for row in va:  # sum c_k v_k - r <= 0
        r = list(row) + [-x for x in row] + [Fraction(-1), Fraction(1), Fraction(0), Fraction(0)]
        a_ub.append(r)
        b_ub.append(Fraction(0))
    for row in vb:  # s - sum c_k v_k <= 0
        r = [-x for x in row] + list(row) + [Fraction(0), Fraction(0), Fraction(1), Fraction(-1)]
        a_ub.append(r)
        b_ub.append(Fraction(0))
    norm = [Fraction(1)] * (2 * k) + [Fraction(0)] * 4  # |c|_1 <= 1
    a_ub.append(norm)
    b_ub.append(Fraction(1))
    res = solve_lp(obj, a_ub, b_ub)
    assert res.status == OPTIMAL and res.x is not None and res.objective is not None
    gap = -res.objective
    if gap <= 0:
        return NotSeparable()
    coeffs = [res.x[i] - res.x[k + i] for i in range(k)]
    vals_a = [sum((c * v for c, v in zip(coeffs, row)), Fraction(0)) for row in va]
    vals_b = [sum((c * v for c, v in zip(coeffs, row)), Fraction(0)) for row in vb]
    return Separation(coeffs=coeffs, r=max(vals_a), s=min(vals_b))
