"""Exact rational linear programming via the two-phase simplex method.

Solves    min c.x   subject to   A_ub x <= b_ub,  A_eq x = b_eq,  x >= 0

exactly, on a tableau of Python ints.  Each input row is scaled to integers
by the lcm of its denominators; a row's denominator is then its entry in its
basic column, kept positive, and after every pivot the row is divided by the
gcd of its entries.  The phase-1 and phase-2 objective rows (reduced costs
and minus the objective, over their own denominator) are carried as extra
rows that every pivot updates.  Bland's rule picks the entering and the
leaving variable; the ratio test compares by cross-multiplication, where the
row denominators cancel.  Every comparison is thus made on the same rational
values as in a Fraction tableau, so the pivots, the final basis and every
result are identical to that tableau's, and the method terminates on every
input.  Fractions are built only for the returned vectors.

Optimal solutions come with dual multipliers (y_ub <= 0 componentwise, y_eq
free) satisfying strong duality; infeasible programs come with a Farkas
certificate (y_ub <= 0, y_eq) with y.A <= 0 componentwise and y.b > 0.
`check_certificate` re-checks either from the program alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

from .syntax import over_common_denominator

Row = Sequence[Fraction]

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


@dataclass
class LPResult:
    status: str
    x: list[Fraction] | None = None
    objective: Fraction | None = None
    dual_ub: list[Fraction] | None = None
    dual_eq: list[Fraction] | None = None
    farkas_ub: list[Fraction] | None = None
    farkas_eq: list[Fraction] | None = None


def _primitive(row: list[int]) -> list[int]:
    g = gcd(*row)
    return row if g == 1 else [v // g for v in row]


class _Tableau:
    """Simplex tableau of int rows with an all-artificial start basis.

    Constraint row i stands for rows[i] / rows[i][basis[i]]; its last entry
    is the right-hand side.  Each cost row holds the reduced costs, then
    minus the objective, then their common positive denominator.
    """

    def __init__(self, rows: list[list[int]], costs: list[list[int]], n_real: int):
        self.n = n_real + len(rows)  # structural, slack and one artificial per row
        self.rows = rows
        self.costs = costs
        self.basis = [n_real + i for i in range(len(rows))]

    def pivot(self, r: int, col: int) -> None:
        rows = self.rows
        pr = rows[r]
        p = pr[col]
        if p < 0:
            pr = rows[r] = [-v for v in pr]
            p = -p
        for i, row in enumerate(rows):
            f = row[col]
            if f and i != r:
                rows[i] = _primitive([p * a - f * b for a, b in zip(row, pr)])
        for z in self.costs:
            f = z[col]
            if f:
                new = [p * a - f * b for a, b in zip(z, pr)]  # zip stops before z's denominator
                new.append(p * z[-1])
                z[:] = _primitive(new)
        self.basis[r] = col

    def run(self, z: list[int], limit: int) -> str:
        """Minimize the carried cost row z over the columns below `limit` with Bland's rule."""
        rows, basis = self.rows, self.basis
        while True:
            entering = next((j for j in range(limit) if z[j] < 0), None)
            if entering is None:
                return OPTIMAL
            leaving = None
            for i, row in enumerate(rows):
                a = row[entering]
                if a > 0:
                    if leaving is None:
                        leaving, num, den = i, row[-1], a
                        continue
                    lhs, rhs = row[-1] * den, num * a  # ratio row[-1]/a against num/den
                    if lhs < rhs or (lhs == rhs and basis[i] < basis[leaving]):
                        leaving, num, den = i, row[-1], a
            if leaving is None:
                return UNBOUNDED
            self.pivot(leaving, entering)


def solve_lp(
    c: Row,
    A_ub: Sequence[Row] | None = None,
    b_ub: Row | None = None,
    A_eq: Sequence[Row] | None = None,
    b_eq: Row | None = None,
) -> LPResult:
    A_ub, b_ub = A_ub or [], b_ub or []
    A_eq, b_eq = A_eq or [], b_eq or []
    n = len(c)
    mu, me = len(A_ub), len(A_eq)
    if len(b_ub) != mu or len(b_eq) != me:
        raise ValueError("right-hand side length does not match the number of rows")
    for r in (*A_ub, *A_eq):
        if len(r) != n:
            raise ValueError("constraint row length does not match objective length")

    # Standardize: A x + D s = b with b >= 0, then add one artificial per row;
    # sign[i] = -1 marks a negated row.  Row i's denominator `den` sits in
    # its artificial column, which is basic.
    m = mu + me
    n_real = n + mu
    width = n_real + m + 1
    rows: list[list[int]] = []
    dens: list[int] = []
    signs: list[int] = []
    for i, (a, b) in enumerate((*zip(A_ub, b_ub), *zip(A_eq, b_eq))):
        nums, den = over_common_denominator([*a, b])
        sign = -1 if nums[-1] < 0 else 1
        row = [0] * width
        row[:n] = [sign * v for v in nums[:n]]
        row[-1] = sign * nums[-1]
        if i < mu:
            row[n + i] = sign * den
        row[n_real + i] = den
        rows.append(row)
        dens.append(den)
        signs.append(sign)

    # Phase-1 cost row: cost 1 on each artificial, so the reduced costs are
    # -(sum of the rows) off the artificial columns, over D = lcm of the dens.
    d1 = lcm(*dens)
    phase1 = [0] * width
    for row, den in zip(rows, dens):
        k = d1 // den
        phase1 = [s - k * v for s, v in zip(phase1, row)]
    phase1[n_real:n_real + m] = [0] * m
    phase1.append(d1)
    c_nums, c_den = over_common_denominator(c)
    phase2 = c_nums + [0] * (width - n) + [c_den]

    tab = _Tableau(rows, [_primitive(phase1), phase2], n_real)

    # Phase 1: minimize the sum of artificials over all columns.
    status = tab.run(tab.costs[0], tab.n)
    assert status == OPTIMAL  # phase-1 objective is bounded below by 0
    phase1 = tab.costs.pop(0)
    if phase1[-2] < 0:  # the phase-1 optimum -phase1[-2]/phase1[-1] is positive
        # y_i = c_art[i] - reduced cost of artificial column i
        d1 = phase1[-1]
        y = [Fraction(signs[i] * (d1 - phase1[n_real + i]), d1) for i in range(m)]
        return LPResult(status=INFEASIBLE, farkas_ub=y[:mu], farkas_eq=y[mu:])

    # Drive basic artificials (all at value 0 now) out of the basis if possible.
    for i in range(m):
        if tab.basis[i] >= n_real:
            for j in range(n_real):
                if tab.rows[i][j] != 0:
                    tab.pivot(i, j)
                    break
            # an all-zero row is redundant; its artificial stays basic at 0

    # Phase 2 over the real columns only.
    if tab.run(phase2, n_real) == UNBOUNDED:
        return LPResult(status=UNBOUNDED)
    x = [Fraction(0)] * n
    for row, b in zip(tab.rows, tab.basis):
        if b < n:
            x[b] = Fraction(row[-1], row[b])
    d2 = phase2[-1]
    # c_B B^{-1}, read off the artificial columns: y_i = -reduced cost
    y = [Fraction(-signs[i] * phase2[n_real + i], d2) for i in range(m)]
    return LPResult(
        status=OPTIMAL,
        x=x,
        objective=Fraction(-phase2[-2], d2),
        dual_ub=y[:mu],
        dual_eq=y[mu:],
    )


def check_certificate(
    c: Row,
    A_ub: Sequence[Row] | None,
    b_ub: Row | None,
    A_eq: Sequence[Row] | None,
    b_eq: Row | None,
    result: LPResult,
) -> list[str]:
    """The conditions a result's certificate fails, from the program's definition alone.

    An optimum needs a feasible x, y_ub <= 0, reduced costs c - y.A >= 0 and
    c.x == y.b == objective.  An infeasibility verdict needs y_ub <= 0,
    y.A <= 0 componentwise and y.b > 0.  An unbounded verdict carries no
    certificate; only that it holds no vectors is checked.  An empty list
    means the certificate holds.
    """
    A_ub, A_eq = ([list(map(Fraction, r)) for r in rows or []] for rows in (A_ub, A_eq))
    b_ub, b_eq, c = (list(map(Fraction, v or [])) for v in (b_ub, b_eq, c))
    n = len(c)

    def dot(u, v) -> Fraction:
        return sum((a * b for a, b in zip(u, v)), Fraction(0))

    if result.status == OPTIMAL:
        names = ("dual_ub", "dual_eq")
        vectors = {"x": (result.x, n), "dual_ub": (result.dual_ub, len(A_ub)),
                   "dual_eq": (result.dual_eq, len(A_eq))}
    elif result.status == INFEASIBLE:
        names = ("farkas_ub", "farkas_eq")
        vectors = {"farkas_ub": (result.farkas_ub, len(A_ub)),
                   "farkas_eq": (result.farkas_eq, len(A_eq))}
    elif result.status == UNBOUNDED:
        values = (result.x, result.objective, result.dual_ub, result.dual_eq,
                  result.farkas_ub, result.farkas_eq)
        return [] if all(v is None for v in values) else ["an unbounded result carries values"]
    else:
        return [f"unknown status {result.status!r}"]
    failed = [
        f"{name} missing or of wrong length"
        for name, (vec, size) in vectors.items()
        if vec is None or len(vec) != size
    ]
    if failed:
        return failed

    y_ub, y_eq = (vectors[name][0] for name in names)
    failed += [f"{names[0]}[{i}] > 0" for i, v in enumerate(y_ub) if v > 0]
    ya = [dot(y_ub, [r[j] for r in A_ub]) + dot(y_eq, [r[j] for r in A_eq]) for j in range(n)]
    yb = dot(y_ub, b_ub) + dot(y_eq, b_eq)
    if result.status == INFEASIBLE:
        failed += [f"(y.A)[{j}] > 0" for j in range(n) if ya[j] > 0]
        if yb <= 0:
            failed.append("y.b <= 0")
        return failed
    x = result.x
    failed += [f"x[{j}] < 0" for j in range(n) if x[j] < 0]
    failed += [f"A_ub[{i}].x > b_ub[{i}]" for i, r in enumerate(A_ub) if dot(r, x) > b_ub[i]]
    failed += [f"A_eq[{i}].x != b_eq[{i}]" for i, r in enumerate(A_eq) if dot(r, x) != b_eq[i]]
    failed += [f"reduced cost {j} < 0" for j in range(n) if c[j] - ya[j] < 0]
    if dot(c, x) != result.objective:
        failed.append("c.x != objective")
    if yb != result.objective:
        failed.append("y.b != objective")
    return failed
