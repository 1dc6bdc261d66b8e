"""Slow references for the integer code paths, used by the differential tests.

`walk_formula` re-walks the formula for every assignment in Fraction
arithmetic; `walk_oracle` does the same over the events of a finite
probability algebra, with bitmask events and its own measure.  Both share
no code with the table kernel.  `walk_validate` checks a structure pair by
pair in Fractions, with a root-sum comparison per Lipschitz pair at p != 1
and per triangle on stored powers at the stored exponent.  Its root sums
(`leq_root_sum`) take exact rational roots and bisect in Fractions;
`structures.validate` decides them on integer roots instead, and shares no
code with it.
`walk_solve_lp` is the dense Fraction tableau that recomputes the reduced
costs c_B B^-1 A on every iteration; it shares only `LPResult` and the
status names with `lp.solve_lp`.  `walk_ultramean` builds a mean entry by
entry as weighted sums of Fractions and collapses it with `walk_quotient`,
which merges points at distance 0 name by name in Fractions;
`ultramean.ultramean` shares neither, and `structures.quotient` is the
ultramean of a one-member family.
`walk_qe` eliminates quantifiers on events in minterm normal form
(`EventTerm`, a set of minterm masks over the event's own variables):
`walk_eliminate_sup` keeps one Fraction per minterm of every variable in
scope, and `walk_pra_value` evaluates a minterm formula on a finite algebra
atom by atom over bitmask events.  `canonicalize` turns a minterm formula
into positive conjunctions atom by atom by inclusion-exclusion, in
`pra.PraFormula`'s representation; `pra.qe` reads events as truth tables
and runs integer zeta and Möbius transforms instead, and shares only that
formula type with it.  `split_on` and `event_depends_positively` are the
older refinement step, kept for its tests.
`walk_check_axiom` checks an axiom instance with one hand-written
`isinstance` chain per axiom; `proofs._check_axiom` matches the pattern trees
of the axiom catalog instead, and shares only the hand-written A12, A20, A21
and A22 cases with it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from affinelogic.errors import (
    EvalError,
    NotAffineError,
    SignatureError,
    UniverseCapError,
    ValidationError,
)
from affinelogic.lp import INFEASIBLE, OPTIMAL, UNBOUNDED, LPResult
from affinelogic.pra import FiniteAlgebra, PraFormula
from affinelogic.structures import (
    FiniteStructure,
    ValidationReport,
    Violation,
    make_structure,
)
from affinelogic.syntax import (
    App,
    Condition,
    Const,
    Dist,
    Formula,
    Inf,
    Max,
    Min,
    One,
    Rel,
    Scale,
    Signature,
    Sum,
    Sup,
    Term,
    Var,
    ZERO,
    substitute,
    substitution_correct,
)
from affinelogic.ultramean import DEFAULT_TUPLE_CAP, Charge, MeanStructure


def _dist_power(m: FiniteStructure, a: str, b: str, p: int) -> Fraction:
    """d(a,b)^p from the stored metric, which may hold q-th powers."""
    if p == m.metric_power:
        return m.d(a, b)
    if m.metric_power == 1:
        return m.d(a, b) ** p
    raise EvalError(f"structure stores {m.metric_power}-th powers; cannot evaluate at exponent {p}")


def walk_term(m: FiniteStructure, t: Term, asg: Mapping[str, str]) -> str:
    if isinstance(t, Var):
        try:
            point = asg[t.name]
        except KeyError:
            raise EvalError(f"no assignment for variable {t.name}") from None
        if point not in m._index:
            raise EvalError(f"{point!r} (assigned to {t.name}) is not a point")
        return point
    if isinstance(t, Const):
        try:
            return m.constants[t.name]
        except KeyError:
            raise EvalError(f"no interpretation for constant {t.name}") from None
    vals = tuple(walk_term(m, a, asg) for a in t.args)
    try:
        return m.functions[t.func][vals]
    except KeyError:
        raise EvalError(f"table gap at {t.func}{vals}") from None


def walk_formula(
    m: FiniteStructure, phi: Formula, asg: Mapping[str, str] | None = None, p: int = 1
) -> Fraction:
    if not (isinstance(p, int) and p >= 1):
        raise EvalError(f"exponent must be a positive integer, got {p!r}")
    scope: dict[str, str] = dict(asg or {})
    missing = phi.free - scope.keys()
    if missing:
        raise EvalError(f"assignment is missing variables {sorted(missing)}")

    def go(f: Formula) -> Fraction:
        if isinstance(f, One):
            return Fraction(1)
        if isinstance(f, Dist):
            return _dist_power(m, walk_term(m, f.left, scope), walk_term(m, f.right, scope), p)
        if isinstance(f, Rel):
            vals = tuple(walk_term(m, a, scope) for a in f.args)
            try:
                return m.relations[f.rel][vals]
            except KeyError:
                raise EvalError(f"table gap at {f.rel}{vals}") from None
        if isinstance(f, Sum):
            return go(f.left) + go(f.right)
        if isinstance(f, Scale):
            return f.coeff * go(f.body)
        if isinstance(f, Min):
            return min(go(f.left), go(f.right))
        if isinstance(f, Max):
            return max(go(f.left), go(f.right))
        if isinstance(f, (Sup, Inf)):
            pick = max if isinstance(f, Sup) else min
            saved = scope.get(f.varname)
            values = []
            for pt in m.points:
                scope[f.varname] = pt
                values.append(go(f.body))
            if saved is None:
                del scope[f.varname]
            else:
                scope[f.varname] = saved
            return pick(values)
        raise TypeError(f)

    return go(phi)


def _walk_event(t: Term, alg: FiniteAlgebra, asg: Mapping[str, int]) -> int:
    if isinstance(t, Var):
        try:
            return asg[t.name]
        except KeyError:
            raise ValidationError(f"no event assigned to variable {t.name}") from None
    if isinstance(t, Const):
        if t.name == "zero":
            return 0
        if t.name == "one":
            return alg.full
        raise SignatureError(f"unknown constant {t.name}")
    args = [_walk_event(a, alg, asg) for a in t.args]
    if t.func == "and":
        return args[0] & args[1]
    if t.func == "or":
        return args[0] | args[1]
    if t.func == "sym":
        return args[0] ^ args[1]
    if t.func == "not":
        return alg.full & ~args[0]
    raise SignatureError(f"unknown function {t.func}")


def _measure(alg: FiniteAlgebra, event: int) -> Fraction:
    return sum((w for i, w in enumerate(alg.weights) if event >> i & 1), Fraction(0))


def walk_oracle(
    phi: Formula, alg: FiniteAlgebra, asg: Mapping[str, int] | None = None
) -> Fraction:
    scope = dict(asg or {})

    def go(f: Formula) -> Fraction:
        if isinstance(f, One):
            return Fraction(1)
        if isinstance(f, Rel):
            if f.rel != "mu":
                raise SignatureError(f"relation {f.rel} is not part of the PrA language")
            return _measure(alg, _walk_event(f.args[0], alg, scope))
        if isinstance(f, Dist):
            return _measure(
                alg, _walk_event(f.left, alg, scope) ^ _walk_event(f.right, alg, scope)
            )
        if isinstance(f, Sum):
            return go(f.left) + go(f.right)
        if isinstance(f, Scale):
            return f.coeff * go(f.body)
        if isinstance(f, (Sup, Inf)):
            pick = max if isinstance(f, Sup) else min
            saved = scope.get(f.varname)
            values = []
            for event in range(1 << alg.atom_count):
                scope[f.varname] = event
                values.append(go(f.body))
            if saved is None:
                del scope[f.varname]
            else:
                scope[f.varname] = saved
            return pick(values)
        raise NotAffineError("min/max are not part of the affine PrA fragment")

    return go(phi)


def _rational_root(x: Fraction, p: int) -> Fraction | None:
    """The exact p-th root of x if it is rational, else None."""
    if x < 0:
        raise ValueError("negative radicand")
    num = _iroot(x.numerator, p)
    den = _iroot(x.denominator, p)
    if num is None or den is None:
        return None
    return Fraction(num, den)


def _iroot(n: int, p: int) -> int | None:
    if n in (0, 1):
        return n
    try:
        r = round(n ** (1.0 / p))
    except OverflowError:
        r = -1
    for cand in (r - 1, r, r + 1):
        if cand >= 0 and cand**p == n:
            return cand
    # float guess can be off (or overflow) for very large n; integer bisection
    lo, hi = 0, 1
    while hi**p < n:
        hi *= 2
    while lo <= hi:
        mid = (lo + hi) // 2
        m = mid**p
        if m == n:
            return mid
        if m < n:
            lo = mid + 1
        else:
            hi = mid - 1
    return None


def _root_bounds(x: Fraction, p: int, steps: int) -> tuple[Fraction, Fraction]:
    """Rational lower/upper bounds of x^(1/p) after `steps` bisection rounds."""
    if x == 0:
        return Fraction(0), Fraction(0)
    lo, hi = Fraction(0), max(Fraction(1), x)
    for _ in range(steps):
        mid = (lo + hi) / 2
        if mid**p <= x:
            lo = mid
        else:
            hi = mid
    return lo, hi


def leq_root_sum(c: Fraction, a: Fraction, b: Fraction, p: int) -> bool:
    """Decide c^(1/p) <= a^(1/p) + b^(1/p) for nonnegative rationals, exactly."""
    if min(a, b, c) < 0:
        raise ValueError("negative entries")
    if p == 1:
        return c <= a + b
    if a == 0:
        return c <= b
    if b == 0:
        return c <= a
    if p == 2:
        t = c - a - b
        return t <= 0 or t * t <= 4 * a * b
    # Exact shortcut: all three roots rational, or a/b a p-th power.
    ra, rb, rc = (_rational_root(v, p) for v in (a, b, c))
    if ra is not None and rb is not None and rc is not None:
        return rc <= ra + rb
    s = _rational_root(a / b, p)
    if s is not None:  # a^(1/p)+b^(1/p) = (s+1) b^(1/p)
        return c <= (s + 1) ** p * b
    for steps in (32, 64, 128, 256):
        alo, ahi = _root_bounds(a, p, steps)
        blo, bhi = _root_bounds(b, p, steps)
        clo, chi = _root_bounds(c, p, steps)
        if chi <= alo + blo:
            return True
        if clo > ahi + bhi:
            return False
    raise ValidationError(
        f"undecided root-sum comparison at exponent {p}; entries {a}, {b}, {c}"
    )


def walk_validate(
    m: FiniteStructure, sig: Signature, p: int | None = None
) -> ValidationReport:
    """Check all structure invariants against a signature, pair by pair in Fractions.

    Reports every violated instance: metric axioms (zero diagonal, symmetry,
    triangle inequality, entries in [0,1]), totality of tables, Lipschitz
    bounds for functions and relations, relation values in [0,1].  With a
    p-th-power metric the triangle inequality is checked on stored powers.
    """
    p = m.metric_power if p is None else p
    v: list[Violation] = []
    pts = m.points
    n = len(pts)

    for i in range(n):
        if m.metric[i][i] != 0:
            v.append(Violation("nonzero-self-distance", pts[i], m.metric[i][i]))
        for j in range(n):
            e = m.metric[i][j]
            if e < 0 or e > 1:
                v.append(Violation("metric-out-of-range", f"d({pts[i]},{pts[j]})", e))
            if m.metric[j][i] != e:
                v.append(Violation("asymmetric-metric", f"d({pts[i]},{pts[j]})"))

    if m.metric_power == 1:
        d = m.metric
        for i in range(n):
            for j in range(i + 1, n):
                for k in range(n):
                    excess = d[i][j] - d[i][k] - d[j][k]
                    if excess > 0:
                        v.append(
                            Violation(
                                "triangle-violation",
                                f"d({pts[i]},{pts[j]}) > d({pts[i]},{pts[k]})+d({pts[j]},{pts[k]})",
                                excess,
                            )
                        )
    else:
        for i in range(n):
            for j in range(i + 1, n):
                for k in range(n):
                    c, a, b = m.metric[i][j], m.metric[i][k], m.metric[k][j]
                    if min(a, b, c) < 0:  # reported as metric-out-of-range; no root
                        continue
                    if not leq_root_sum(c, a, b, m.metric_power):
                        v.append(
                            Violation(
                                "triangle-violation",
                                f"d({pts[i]},{pts[j]}) > d({pts[i]},{pts[k]})+d({pts[k]},{pts[j]})"
                                f" (compared in {m.metric_power}-th powers)",
                            )
                        )

    def tuple_power_dist(xs: tuple[str, ...], ys: tuple[str, ...]) -> Fraction:
        return sum((_dist_power(m, a, b, p) for a, b in zip(xs, ys)), Fraction(0))

    for sym in sig.constants():
        if sym.name not in m.constants:
            v.append(Violation("missing-interpretation", sym.name))
        elif m.constants[sym.name] not in m._index:
            v.append(Violation("constant-not-a-point", sym.name))

    for sym in sig.functions():
        tab = m.functions.get(sym.name)
        if tab is None:
            v.append(Violation("missing-interpretation", sym.name))
            continue
        domain = list(itertools.product(pts, repeat=sym.arity))
        for args in domain:
            if args not in tab:
                v.append(Violation("table-gap", f"{sym.name}{args}"))
            elif tab[args] not in m._index:
                v.append(Violation("value-not-a-point", f"{sym.name}{args}"))
        if any(tab.get(args) not in m._index for args in domain):
            continue
        lam = sym.lipschitz
        for xs in domain:
            for ys in domain:
                lhs = _dist_power(m, tab[xs], tab[ys], p)
                rhs = tuple_power_dist(xs, ys)
                ok = (
                    leq_root_sum(lhs, rhs * lam**p, Fraction(0), p)
                    if p != 1
                    else lhs <= lam * rhs
                )
                if not ok:
                    v.append(
                        Violation(
                            "function-lipschitz",
                            f"d({sym.name}{xs},{sym.name}{ys}) > {lam}*d({xs},{ys})",
                        )
                    )

    for sym in sig.relations():
        tab = m.relations.get(sym.name)
        if tab is None:
            v.append(Violation("missing-interpretation", sym.name))
            continue
        domain = list(itertools.product(pts, repeat=sym.arity))
        for args in domain:
            if args not in tab:
                v.append(Violation("table-gap", f"{sym.name}{args}"))
            else:
                val = tab[args]
                if val < 0 or val > 1:
                    v.append(Violation("relation-out-of-range", f"{sym.name}{args}", val))
        if any(args not in tab for args in domain):
            continue
        lam = sym.lipschitz
        for xs in domain:
            for ys in domain:
                diff = tab[xs] - tab[ys]
                if diff <= 0:
                    continue
                rhs = tuple_power_dist(xs, ys)
                ok = leq_root_sum(diff**p, rhs * lam**p, Fraction(0), p) if p != 1 else diff <= lam * rhs
                if not ok:
                    v.append(
                        Violation(
                            "relation-lipschitz",
                            f"{sym.name}{xs} - {sym.name}{ys} > {lam}*d({xs},{ys})",
                            diff,
                        )
                    )

    return ValidationReport(v)


def walk_quotient(m: FiniteStructure) -> tuple[FiniteStructure, dict[str, str]]:
    """Points at stored distance 0 identified, in Fractions.

    Returns the quotient structure and the point -> representative map, and
    m itself when nothing merges.  Each point joins the first earlier
    representative at distance 0 from it; every table entry is checked
    against the entry at the representatives of its arguments.
    """
    reps: list[str] = []
    rep_of: dict[str, str] = {}
    for a in m.points:
        for r in reps:
            if m.d(r, a) == 0:
                rep_of[a] = r
                break
        else:
            reps.append(a)
            rep_of[a] = a

    if len(reps) == len(m.points):
        return m, rep_of

    def cls(x: str) -> str:
        return rep_of[x]

    new_metric = {
        (a, b): m.d(a, b) for a, b in itertools.combinations(reps, 2)
    }
    new_constants = {c: cls(x) for c, x in m.constants.items()}
    new_functions: dict[str, dict[tuple[str, ...], str]] = {}
    for fname, tab in m.functions.items():
        arity = len(next(iter(tab)))
        newtab: dict[tuple[str, ...], str] = {}
        for args in itertools.product(reps, repeat=arity):
            newtab[args] = cls(tab[args])
        for args, val in tab.items():
            mapped = tuple(cls(a) for a in args)
            if cls(val) != newtab[mapped]:
                raise ValidationError(f"function {fname} not well-defined on classes at {args}")
        new_functions[fname] = newtab
    new_relations: dict[str, dict[tuple[str, ...], Fraction]] = {}
    for rname, tab in m.relations.items():
        arity = len(next(iter(tab)))
        newtab_r: dict[tuple[str, ...], Fraction] = {}
        for args in itertools.product(reps, repeat=arity):
            newtab_r[args] = tab[args]
        for args, val in tab.items():
            mapped = tuple(cls(a) for a in args)
            if newtab_r[mapped] != val:
                raise ValidationError(f"relation {rname} not well-defined on classes at {args}")
        new_relations[rname] = newtab_r

    q = make_structure(
        reps,
        new_metric,
        new_constants,
        new_functions,
        new_relations,
        metric_power=m.metric_power,
    )
    return q, rep_of


def walk_ultramean(
    family: Sequence[FiniteStructure],
    mu: Charge,
    p: int = 1,
    max_tuples: int = DEFAULT_TUPLE_CAP,
) -> MeanStructure:
    """The mean of a family, entry by entry as weighted sums of Fractions."""
    if len(family) != len(mu.ids):
        raise ValidationError(
            f"family size {len(family)} != charge index size {len(mu.ids)}"
        )
    if not family:
        raise ValidationError("empty family")
    names = {
        "constants": [sorted(m.constants) for m in family],
        "functions": [sorted(m.functions) for m in family],
        "relations": [sorted(m.relations) for m in family],
    }
    for key, per_member in names.items():
        if any(sym != per_member[0] for sym in per_member[1:]):
            raise ValidationError(f"family members interpret different {key}")
    for m in family:
        if m.metric_power not in (1, p):
            raise ValidationError(
                f"family member stores {m.metric_power}-th powers; mean requested at exponent {p}"
            )

    size = 1
    for m in family:
        size *= len(m.points)
        if size > max_tuples:
            raise UniverseCapError(
                f"product universe exceeds the cap ({size} > {max_tuples} tuples)"
            )

    weights = [mu.weight(i) for i in mu.ids]
    tuples = list(itertools.product(*(m.points for m in family)))
    ids = ["|".join(t) for t in tuples]
    index = {t: i for i, t in enumerate(tuples)}

    metric: dict[tuple[str, str], Fraction] = {}
    for a_pos in range(len(tuples)):
        a = tuples[a_pos]
        for b_pos in range(a_pos + 1, len(tuples)):
            b = tuples[b_pos]
            entry = sum(
                (
                    w * _dist_power(m, x, y, p)
                    for w, m, x, y in zip(weights, family, a, b)
                ),
                Fraction(0),
            )
            metric[(ids[a_pos], ids[b_pos])] = entry

    constants = {
        c: "|".join(tuple(m.constants[c] for m in family)) for c in family[0].constants
    }
    functions: dict[str, dict[tuple[str, ...], str]] = {}
    for fname in family[0].functions:
        arity = len(next(iter(family[0].functions[fname])))
        tab: dict[tuple[str, ...], str] = {}
        for args in itertools.product(tuples, repeat=arity):
            value = tuple(
                m.functions[fname][tuple(arg[k] for arg in args)]
                for k, m in enumerate(family)
            )
            tab[tuple(ids[index[a]] for a in args)] = "|".join(value)
        functions[fname] = tab
    relations: dict[str, dict[tuple[str, ...], Fraction]] = {}
    for rname in family[0].relations:
        arity = len(next(iter(family[0].relations[rname])))
        tab_r: dict[tuple[str, ...], Fraction] = {}
        for args in itertools.product(tuples, repeat=arity):
            value = sum(
                (
                    w * m.relations[rname][tuple(arg[k] for arg in args)]
                    for k, (w, m) in enumerate(zip(weights, family))
                ),
                Fraction(0),
            )
            tab_r[tuple(ids[index[a]] for a in args)] = value
        relations[rname] = tab_r

    pre = make_structure(ids, metric, constants, functions, relations, metric_power=p)
    collapsed, rep_of = walk_quotient(pre)
    class_of = {t: rep_of["|".join(t)] for t in tuples}
    return MeanStructure(
        structure=collapsed,
        charge=mu,
        family_size=len(family),
        class_of=class_of,
        p=p,
    )


class _FractionTableau:
    """Dense simplex tableau over Fractions with an all-artificial start basis."""

    def __init__(self, rows: list[list[Fraction]], rhs: list[Fraction], n_real: int):
        self.m = len(rows)
        self.n_real = n_real  # structural + slack columns
        self.n = n_real + self.m  # plus one artificial per row
        self.rows = []
        for i, (row, b) in enumerate(zip(rows, rhs)):
            art = [Fraction(0)] * self.m
            art[i] = Fraction(1)
            self.rows.append(list(row) + art + [b])
        self.basis = [n_real + i for i in range(self.m)]

    def pivot(self, r: int, col: int) -> None:
        piv = self.rows[r][col]
        inv = Fraction(1) / piv
        self.rows[r] = [v * inv for v in self.rows[r]]
        for i in range(self.m):
            if i != r and self.rows[i][col] != 0:
                f = self.rows[i][col]
                ri, rr = self.rows[i], self.rows[r]
                self.rows[i] = [a - f * b for a, b in zip(ri, rr)]
        self.basis[r] = col

    def solution(self) -> list[Fraction]:
        x = [Fraction(0)] * self.n
        for i, b in enumerate(self.basis):
            x[b] = self.rows[i][-1]
        return x

    def reduced_costs(self, cost: list[Fraction]) -> list[Fraction]:
        cb = [cost[b] for b in self.basis]
        red = list(cost)
        for j in range(self.n):
            red[j] -= sum(cb[i] * self.rows[i][j] for i in range(self.m))
        return red

    def objective(self, cost: list[Fraction]) -> Fraction:
        return sum(cost[self.basis[i]] * self.rows[i][-1] for i in range(self.m))

    def run(self, cost: list[Fraction], allowed: set[int]) -> str:
        """Minimize cost over columns in `allowed` with Bland's rule."""
        while True:
            red = self.reduced_costs(cost)
            entering = None
            for j in sorted(allowed):
                if red[j] < 0:
                    entering = j
                    break
            if entering is None:
                return OPTIMAL
            leaving = None
            best_ratio = None
            for i in range(self.m):
                a = self.rows[i][entering]
                if a > 0:
                    ratio = self.rows[i][-1] / a
                    if (
                        best_ratio is None
                        or ratio < best_ratio
                        or (ratio == best_ratio and self.basis[i] < self.basis[leaving])
                    ):
                        best_ratio = ratio
                        leaving = i
            if leaving is None:
                return UNBOUNDED
            self.pivot(leaving, entering)


def walk_solve_lp(
    c: Sequence,
    A_ub: Sequence[Sequence] | None = None,
    b_ub: Sequence | None = None,
    A_eq: Sequence[Sequence] | None = None,
    b_eq: Sequence | None = None,
) -> LPResult:
    """Two-phase simplex with Bland's rule on a Fraction tableau; `lp.solve_lp`'s reference."""
    A_ub = [list(map(Fraction, r)) for r in (A_ub or [])]
    b_ub = [Fraction(v) for v in (b_ub or [])]
    A_eq = [list(map(Fraction, r)) for r in (A_eq or [])]
    b_eq = [Fraction(v) for v in (b_eq or [])]
    c = [Fraction(v) for v in c]
    n = len(c)
    mu, me = len(A_ub), len(A_eq)

    # Standardize: A x + D s = b with b >= 0; sign[i] = -1 marks a negated row.
    rows: list[list[Fraction]] = []
    rhs: list[Fraction] = []
    signs: list[int] = []
    for i in range(mu):
        row = list(A_ub[i]) + [Fraction(0)] * mu
        row[n + i] = Fraction(1)
        b = b_ub[i]
        if b < 0:
            row = [-v for v in row]
            b = -b
            signs.append(-1)
        else:
            signs.append(1)
        rows.append(row)
        rhs.append(b)
    for i in range(me):
        row = list(A_eq[i]) + [Fraction(0)] * mu
        b = b_eq[i]
        if b < 0:
            row = [-v for v in row]
            b = -b
            signs.append(-1)
        else:
            signs.append(1)
        rows.append(row)
        rhs.append(b)

    n_real = n + mu
    tab = _FractionTableau(rows, rhs, n_real)
    m = tab.m
    real_cols = set(range(n_real))
    art_cols = list(range(n_real, n_real + m))

    # Phase 1: minimize the sum of artificials over all columns.
    phase1_cost = [Fraction(0)] * n_real + [Fraction(1)] * m
    status = tab.run(phase1_cost, real_cols | set(art_cols))
    assert status == OPTIMAL  # phase-1 objective is bounded below by 0
    if tab.objective(phase1_cost) > 0:
        red = tab.reduced_costs(phase1_cost)
        # y_i = c_art[i] - reduced cost of artificial column i = 1 - red
        y = [Fraction(1) - red[col] for col in art_cols]
        farkas_ub = [y[i] * signs[i] for i in range(mu)]
        farkas_eq = [y[mu + i] * signs[mu + i] for i in range(me)]
        return LPResult(status=INFEASIBLE, farkas_ub=farkas_ub, farkas_eq=farkas_eq)

    # Drive basic artificials (all at value 0 now) out of the basis if possible.
    for i in range(m):
        if tab.basis[i] >= n_real:
            for j in sorted(real_cols):
                if tab.rows[i][j] != 0:
                    tab.pivot(i, j)
                    break
            # an all-zero row is redundant; its artificial stays basic at 0

    # Phase 2 over the real columns only.
    phase2_cost = list(c) + [Fraction(0)] * (mu + m)
    status = tab.run(phase2_cost, real_cols)
    if status == UNBOUNDED:
        return LPResult(status=UNBOUNDED)
    full = tab.solution()
    red = tab.reduced_costs(phase2_cost)
    y = [-red[col] for col in art_cols]  # c_B B^{-1}, read off the artificial columns
    dual_ub = [y[i] * signs[i] for i in range(mu)]
    dual_eq = [y[mu + i] * signs[mu + i] for i in range(me)]
    return LPResult(
        status=OPTIMAL,
        x=full[:n],
        objective=tab.objective(phase2_cost),
        dual_ub=dual_ub,
        dual_eq=dual_eq,
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


@dataclass(frozen=True)
class MintermFormula:
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


def walk_make_pra(
    constant: Fraction | int, atoms: Sequence[tuple[Fraction, EventTerm]]
) -> MintermFormula:
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
    return MintermFormula(const, tuple(cleaned))


def walk_pra_add(a: MintermFormula, b: MintermFormula) -> MintermFormula:
    return walk_make_pra(a.constant + b.constant, a.atoms + b.atoms)


def walk_pra_scale(r: Fraction, a: MintermFormula) -> MintermFormula:
    return walk_make_pra(r * a.constant, [(r * c, e) for c, e in a.atoms])


def walk_pra_value(
    phi: MintermFormula, alg: FiniteAlgebra, asg: Mapping[str, int]
) -> Fraction:
    """Value on a finite algebra, summed atom by atom over bitmask events."""
    total = phi.constant
    for coeff, event in phi.atoms:
        mask = 0
        for m in event.minterms:
            piece = alg.full
            for i, v in enumerate(event.vars):
                ev = asg.get(v)
                if ev is None:
                    raise ValidationError(f"no event assigned to variable {v}")
                piece &= ev if m >> i & 1 else alg.full & ~ev
            mask |= piece
        total += coeff * _measure(alg, mask)
    return total


# ---------------------------------------------------------------------------
# Quantifier elimination on minterms, one Fraction at a time


def event_depends_positively(e: EventTerm, y: str) -> bool:
    """True if y does not occur in e, or occurs only positively (every minterm
    has the y bit set)."""
    if y not in e.vars:
        return True
    bit = 1 << e.vars.index(y)
    return all(m & bit for m in e.minterms)


def expand_inclusion_exclusion(event: EventTerm) -> MintermFormula:
    """Rewrite mu(event) as an integer combination of measures of positive
    conjunctions (inclusion-exclusion over the minterm set), e.g.
    mu(x or y) -> mu(x) + mu(y) - mu(x and y)."""
    coeffs: dict[frozenset[str], Fraction] = {}
    n = len(event.vars)
    for m in event.minterms:
        pos = [i for i in range(n) if m >> i & 1]
        rest = [i for i in range(n) if not m >> i & 1]
        for r in range(len(rest) + 1):
            for extra in itertools.combinations(rest, r):
                key = frozenset(event.vars[i] for i in pos + list(extra))
                coeffs[key] = coeffs.get(key, Fraction(0)) + Fraction((-1) ** r)
    atoms = [(c, conjunction_event(sorted(k))) for k, c in coeffs.items()]
    return walk_make_pra(0, atoms)


def canonicalize(phi: MintermFormula) -> PraFormula:
    """Unique normal form: every event a positive conjunction, given as the
    tuple of its names, as `pra` keeps it.

    Measures of positive conjunctions are linearly independent functionals on
    finite algebras, so equal formulas get identical canonical forms.
    """
    out = walk_make_pra(phi.constant, [])
    for coeff, event in phi.atoms:
        out = walk_pra_add(out, walk_pra_scale(coeff, expand_inclusion_exclusion(event)))
    return PraFormula(out.constant, tuple((c, e.vars) for c, e in out.atoms))


def split_on(phi: MintermFormula, y: str) -> MintermFormula:
    """Refine atoms so y occurs positively or not at all in every event.

    Each mu(e) with mixed occurrences of y becomes
    mu(e & y) + [mu(f) - mu(f & y)] where f is the y-part of e with y freed;
    overlapping pieces collapse, so the postcondition can undo the split
    textually while the value is preserved on every algebra.
    """
    atoms: list[tuple[Fraction, EventTerm]] = []
    yev = EventTerm.variable(y)
    for coeff, event in phi.atoms:
        if y not in event.vars:
            atoms.append((coeff, event))
            continue
        bit = 1 << event.vars.index(y)
        pos = frozenset(m for m in event.minterms if m & bit)
        neg = frozenset(m for m in event.minterms if not m & bit)
        if pos:
            atoms.append((coeff, _reduce(event.vars, pos)))
        if neg:
            freed = _reduce(event.vars, neg | {m | bit for m in neg})
            atoms.append((coeff, freed))
            atoms.append((-coeff, event_and(freed, yev)))
    result = walk_make_pra(phi.constant, atoms)
    assert all(event_depends_positively(e, y) for _, e in result.atoms)
    return result


def walk_eliminate_sup(phi: MintermFormula, y: str) -> MintermFormula:
    """Exact supremum over all events y of a quantifier-free measure combination.

    Internally refines all events to pairwise-disjoint minterms over every
    variable in scope including y, then keeps the better of the y / not-y
    coefficient for each minterm of the remaining variables.  The output
    mentions only the other variables, one atom per minterm.
    """
    xvars = tuple(v for v in phi.variables if v != y)
    scope = tuple(sorted(xvars)) + (y,)
    ybit = 1 << (len(scope) - 1)
    coeff: dict[int, Fraction] = {}
    for c, event in phi.atoms:
        for m in event.lift(scope):
            coeff[m] = coeff.get(m, Fraction(0)) + c
    atoms: list[tuple[Fraction, EventTerm]] = []
    for mx in range(1 << len(xvars)):
        a_pos = coeff.get(mx | ybit, Fraction(0))
        a_neg = coeff.get(mx, Fraction(0))
        best = max(a_pos, a_neg)
        if best != 0:
            atoms.append((best, _reduce(tuple(sorted(xvars)), frozenset({mx}))))
    return walk_make_pra(phi.constant, atoms)


def walk_eliminate_inf(phi: MintermFormula, y: str) -> MintermFormula:
    """The infimum over y, computed as -sup_y(-phi)."""
    neg = Fraction(-1)
    return walk_pra_scale(neg, walk_eliminate_sup(walk_pra_scale(neg, phi), y))


def walk_qe(phi: Formula) -> MintermFormula:
    """Eliminate all quantifiers, innermost first, on minterm events."""
    if isinstance(phi, One):
        return walk_make_pra(1, [])
    if isinstance(phi, Rel):
        if phi.rel != "mu":
            raise SignatureError(f"relation {phi.rel} is not part of the PrA language")
        return walk_make_pra(0, [(Fraction(1), event_from_term(phi.args[0]))])
    if isinstance(phi, Dist):
        event = event_sym(event_from_term(phi.left), event_from_term(phi.right))
        return walk_make_pra(0, [(Fraction(1), event)])
    if isinstance(phi, Sum):
        return walk_pra_add(walk_qe(phi.left), walk_qe(phi.right))
    if isinstance(phi, Scale):
        return walk_pra_scale(phi.coeff, walk_qe(phi.body))
    if isinstance(phi, Sup):
        return walk_eliminate_sup(walk_qe(phi.body), phi.varname)
    if isinstance(phi, Inf):
        return walk_eliminate_inf(walk_qe(phi.body), phi.varname)
    raise NotAffineError("min/max are not part of the affine PrA fragment")


def _numeral(phi: Formula) -> Fraction | None:
    """The rational r if phi is the numeral r*1, else None."""
    if isinstance(phi, Scale) and isinstance(phi.body, One):
        return phi.coeff
    return None


def _dist_chain(phi: Formula) -> list[Dist] | None:
    """Decompose a left-associated sum of distance atoms."""
    if isinstance(phi, Dist):
        return [phi]
    if isinstance(phi, Sum):
        left = _dist_chain(phi.left)
        if left is not None and isinstance(phi.right, Dist):
            return left + [phi.right]
    return None


def _match_a1(lhs, rhs, inst):
    r = _numeral(rhs)
    if (
        r is not None
        and isinstance(lhs, Sum)
        and (r1 := _numeral(lhs.left)) is not None
        and (r2 := _numeral(lhs.right)) is not None
    ):
        return None if r1 + r2 == r else f"arithmetic fails: {r1}+{r2} != {r}"
    return "shape mismatch for r1+r2 = r"


def _match_a2(lhs, rhs, inst):
    r = _numeral(rhs)
    if (
        r is not None
        and isinstance(lhs, Scale)
        and (r2 := _numeral(lhs.body)) is not None
    ):
        return None if lhs.coeff * r2 == r else f"arithmetic fails: {lhs.coeff}*{r2} != {r}"
    return "shape mismatch for r1*r2 = r"


def _match_a4(lhs, rhs, inst):
    if (
        isinstance(lhs, Sum)
        and isinstance(lhs.right, Sum)
        and isinstance(rhs, Sum)
        and isinstance(rhs.left, Sum)
        and lhs.left == rhs.left.left
        and lhs.right.left == rhs.left.right
        and lhs.right.right == rhs.right
    ):
        return None
    return "shape mismatch for phi+(psi+theta) = (phi+psi)+theta"


def _match_a5(lhs, rhs, inst):
    if isinstance(lhs, Sum) and isinstance(rhs, Sum):
        if lhs.left == rhs.right and lhs.right == rhs.left:
            return None
    return "shape mismatch for phi+psi = psi+phi"


def _match_a6(lhs, rhs, inst):
    if isinstance(lhs, Sum) and lhs.left == ZERO and lhs.right == rhs:
        return None
    return "shape mismatch for 0+phi = phi"


def _match_a7(lhs, rhs, inst):
    if (
        isinstance(lhs, Scale)
        and isinstance(lhs.body, Sum)
        and isinstance(rhs, Sum)
        and isinstance(rhs.left, Scale)
        and isinstance(rhs.right, Scale)
        and rhs.left.coeff == lhs.coeff == rhs.right.coeff
        and rhs.left.body == lhs.body.left
        and rhs.right.body == lhs.body.right
    ):
        return None
    return "shape mismatch for r(phi+psi) = r*phi+r*psi"


def _match_a8(lhs, rhs, inst):
    if (
        isinstance(lhs, Scale)
        and isinstance(rhs, Sum)
        and isinstance(rhs.left, Scale)
        and isinstance(rhs.right, Scale)
        and rhs.left.body == rhs.right.body == lhs.body
    ):
        if rhs.left.coeff + rhs.right.coeff == lhs.coeff:
            return None
        return f"arithmetic fails: {rhs.left.coeff}+{rhs.right.coeff} != {lhs.coeff}"
    return "shape mismatch for (r+s)phi = r*phi+s*phi"


def _match_a9(lhs, rhs, inst):
    if (
        isinstance(lhs, Scale)
        and isinstance(lhs.body, Scale)
        and isinstance(rhs, Scale)
        and lhs.body.body == rhs.body
    ):
        if lhs.coeff * lhs.body.coeff == rhs.coeff:
            return None
        return f"arithmetic fails: {lhs.coeff}*{lhs.body.coeff} != {rhs.coeff}"
    return "shape mismatch for r(s*phi) = (rs)phi"


def _match_a10(lhs, rhs, inst):
    if isinstance(lhs, Scale) and lhs.coeff == 1 and lhs.body == rhs:
        return None
    return "shape mismatch for 1*phi = phi"


def _match_a11(lhs, rhs, inst):
    if isinstance(lhs, Scale) and lhs.coeff == 0 and rhs == ZERO:
        return None
    return "shape mismatch for 0*phi = 0"


def _match_a13(lhs, rhs, inst):
    if (
        isinstance(lhs, Sup)
        and isinstance(lhs.body, Sum)
        and isinstance(rhs, Sum)
        and isinstance(rhs.left, Sup)
        and rhs.left.varname == lhs.varname
        and rhs.left.body == lhs.body.left
        and rhs.right == lhs.body.right
    ):
        if lhs.varname in rhs.right.free:
            return f"side condition fails: {lhs.varname} is free in the residue"
        return None
    return "shape mismatch for sup_x(phi+psi) = (sup_x phi)+psi"


def _match_a15(lhs, rhs, inst):
    if (
        isinstance(lhs, Sup)
        and isinstance(lhs.body, Scale)
        and isinstance(rhs, Scale)
        and isinstance(rhs.body, Sup)
        and rhs.body.varname == lhs.varname
        and rhs.coeff == lhs.body.coeff
        and rhs.body.body == lhs.body.body
    ):
        if rhs.coeff < 0:
            return f"side condition fails: r = {rhs.coeff} < 0"
        return None
    return "shape mismatch for sup_x(r*phi) = r*sup_x phi"


def _match_a16(lhs, rhs, inst):
    if (
        isinstance(lhs, Sup)
        and isinstance(rhs, Scale)
        and rhs.coeff == -1
        and isinstance(rhs.body, Inf)
        and rhs.body.varname == lhs.varname
        and isinstance(rhs.body.body, Scale)
        and rhs.body.body.coeff == -1
        and rhs.body.body.body == lhs.body
    ):
        return None
    return "shape mismatch for sup_x phi = -inf_x -phi"


def _match_a17(lhs, rhs, inst):
    if isinstance(lhs, Dist) and lhs.left == lhs.right and rhs == ZERO:
        return None
    return "shape mismatch for d(t,t) = 0"


def _match_a18(lhs, rhs, inst):
    if (
        isinstance(lhs, Dist)
        and isinstance(rhs, Dist)
        and lhs.left == rhs.right
        and lhs.right == rhs.left
    ):
        return None
    return "shape mismatch for d(t1,t2) = d(t2,t1)"


# Every one of these is an equality axiom: either orientation is an instance.
_EQUALITY_MATCHERS = {
    "A1": _match_a1,
    "A2": _match_a2,
    "A4": _match_a4,
    "A5": _match_a5,
    "A6": _match_a6,
    "A7": _match_a7,
    "A8": _match_a8,
    "A9": _match_a9,
    "A10": _match_a10,
    "A11": _match_a11,
    "A13": _match_a13,
    "A15": _match_a15,
    "A16": _match_a16,
    "A17": _match_a17,
    "A18": _match_a18,
}


def walk_check_axiom(tag: str, concl: Condition, inst: dict[str, Term]) -> str | None:
    """The reason the conclusion is no instance of axiom `tag`, or None."""
    lhs, rhs = concl.lhs, concl.rhs
    if tag in _EQUALITY_MATCHERS:
        m = _EQUALITY_MATCHERS[tag]
        err = m(lhs, rhs, inst)
        if err is None or m(rhs, lhs, inst) is None:
            return None
        return err
    if tag == "A3":
        r, s = _numeral(lhs), _numeral(rhs)
        if r is None or s is None:
            return "shape mismatch for r <= s"
        return None if r <= s else f"arithmetic fails: {r} > {s}"
    if tag == "A12":
        if not isinstance(rhs, Sup):
            return "right side must be sup_x phi"
        t = inst.get("t")
        if t is None:
            return "missing metavariable t (the substituted term)"
        if not substitution_correct(rhs.body, rhs.varname, t):
            return f"substitution of {t} for {rhs.varname} is not correct (capture)"
        expected = substitute(rhs.body, rhs.varname, t)
        if lhs == expected:
            return None
        return "left side is not phi[t/x]"
    if tag == "A14":
        if (
            isinstance(lhs, Sup)
            and isinstance(lhs.body, Sum)
            and isinstance(rhs, Sum)
            and isinstance(rhs.left, Sup)
            and isinstance(rhs.right, Sup)
            and rhs.left.varname == rhs.right.varname == lhs.varname
            and rhs.left.body == lhs.body.left
            and rhs.right.body == lhs.body.right
        ):
            return None
        return "shape mismatch for sup_x(phi+psi) <= sup_x phi + sup_x psi"
    if tag == "A19":
        if (
            isinstance(lhs, Dist)
            and isinstance(rhs, Sum)
            and isinstance(rhs.left, Dist)
            and isinstance(rhs.right, Dist)
            and rhs.left.left == lhs.left
            and rhs.left.right == rhs.right.left
            and rhs.right.right == lhs.right
        ):
            return None
        return "shape mismatch for d(t1,t3) <= d(t1,t2)+d(t2,t3)"
    if tag == "A20":
        if not (
            isinstance(lhs, Dist)
            and isinstance(lhs.left, App)
            and isinstance(lhs.right, App)
            and lhs.left.func == lhs.right.func
        ):
            return "left side must be d(F(xs), F(ys))"
        if not (isinstance(rhs, Scale) and rhs.coeff == lhs.left.func_lipschitz):
            return f"right side must scale by the Lipschitz constant {lhs.left.func_lipschitz}"
        chain = _dist_chain(rhs.body)
        if chain is None or len(chain) != len(lhs.left.args):
            return "right side must be lambda_F * (sum of coordinate distances)"
        for dnode, x, y in zip(chain, lhs.left.args, lhs.right.args):
            if dnode.left != x or dnode.right != y:
                return "coordinate distances do not match the function arguments"
        return None
    if tag == "A21":
        if not (
            isinstance(lhs, Sum)
            and isinstance(lhs.left, Rel)
            and isinstance(lhs.right, Scale)
            and lhs.right.coeff == -1
            and isinstance(lhs.right.body, Rel)
            and lhs.left.rel == lhs.right.body.rel
        ):
            return "left side must be R(xs) - R(ys)"
        if not (isinstance(rhs, Scale) and rhs.coeff == lhs.left.rel_lipschitz):
            return f"right side must scale by the Lipschitz constant {lhs.left.rel_lipschitz}"
        chain = _dist_chain(rhs.body)
        if chain is None or len(chain) != len(lhs.left.args):
            return "right side must be lambda_R * (sum of coordinate distances)"
        for dnode, x, y in zip(chain, lhs.left.args, lhs.right.body.args):
            if dnode.left != x or dnode.right != y:
                return "coordinate distances do not match the relation arguments"
        return None
    if tag == "A22":
        if isinstance(rhs, (Rel, Dist)) and lhs == ZERO:
            return None
        if isinstance(lhs, (Rel, Dist)) and isinstance(rhs, One):
            return None
        return "shape mismatch for 0 <= R(xs) <= 1"
    return f"unknown axiom tag {tag}"
