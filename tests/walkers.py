"""Recursive tree walkers: the differential references for the table kernel.

`walk_formula` re-walks the formula for every assignment in Fraction
arithmetic; `walk_oracle` does the same over the events of a finite
probability algebra, with bitmask events and its own measure.  Both are
slow and simple on purpose: they share no code with the kernel.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping

from affinelogic.errors import EvalError, NotAffineError, SignatureError, ValidationError
from affinelogic.pra import FiniteAlgebra
from affinelogic.structures import FiniteStructure
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
