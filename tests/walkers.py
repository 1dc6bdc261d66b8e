"""Slow references for the integer code paths, used by the differential tests.

`walk_formula` re-walks the formula for every assignment in Fraction
arithmetic; `walk_oracle` does the same over the events of a finite
probability algebra, with bitmask events and its own measure.  Both share
no code with the table kernel.  `walk_validate` checks a structure pair by
pair in Fractions, with a root-sum comparison per Lipschitz pair at p != 1;
it shares only `leq_root_sum` (for the triangle check on stored powers) with
`structures.validate`.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Mapping

from affinelogic.errors import EvalError, NotAffineError, SignatureError, ValidationError
from affinelogic.pra import FiniteAlgebra
from affinelogic.structures import (
    FiniteStructure,
    ValidationReport,
    Violation,
    leq_root_sum,
)
from affinelogic.syntax import (
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
)


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
            return m.dist_power(walk_term(m, f.left, scope), walk_term(m, f.right, scope), p)
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

    if p == 1 or m.metric_power == 1:
        d = m.metric
        for i in range(n):
            for j in range(i + 1, n):
                for k in range(n):
                    excess = d[i][j] - d[i][k] - d[j][k]
                    if excess > 0:
                        v.append(
                            Violation(
                                "triangle-violation",
                                f"d({pts[i]},{pts[j]}) > d({pts[i]},{pts[k]})+d({pts[k]},{pts[j]})",
                                excess,
                            )
                        )
    else:
        for i in range(n):
            for j in range(i + 1, n):
                for k in range(n):
                    if not leq_root_sum(m.metric[i][j], m.metric[i][k], m.metric[k][j], p):
                        v.append(
                            Violation(
                                "triangle-violation",
                                f"d({pts[i]},{pts[j]}) > d({pts[i]},{pts[k]})+d({pts[k]},{pts[j]})"
                                f" (compared in {p}-th powers)",
                            )
                        )

    def tuple_power_dist(xs: tuple[str, ...], ys: tuple[str, ...]) -> Fraction:
        return sum((m.dist_power(a, b, p) for a, b in zip(xs, ys)), Fraction(0))

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
                lhs = m.dist_power(tab[xs], tab[ys], p)
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
