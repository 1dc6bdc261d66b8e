"""Means of structure families under finitely supported probability charges.

The mean of a family (M_i) under weights (w_i) has as universe the choice
functions i -> a_i with points at distance 0 identified, metric
sum_i w_i d_i(a_i, b_i), componentwise functions, and averaged relations.
For every affine formula the value on a class equals the weighted average of
the member values; the test suite exercises this identity exactly.

In L^p mode the mean metric entry is the exact p-th power
sum_i w_i d_i(a_i,b_i)^p and the resulting structure is marked with
``metric_power = p``; roots are never taken.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .errors import UniverseCapError, ValidationError
from .structures import FiniteStructure, _check_exponent
from .syntax import Rational, as_fraction, over_common_denominator

DEFAULT_TUPLE_CAP = 4096

_SEP = "|"


@dataclass(frozen=True)
class Charge:
    """Finitely supported probability weights over an index list."""

    ids: tuple[str, ...]
    weights: dict[str, Fraction]

    def __post_init__(self):
        if set(self.ids) != set(self.weights):
            raise ValidationError("charge ids and weights disagree")
        if len(set(self.ids)) != len(self.ids):
            raise ValidationError("duplicate charge ids")
        if any(w < 0 for w in self.weights.values()):
            raise ValidationError("negative charge weight")
        if sum(self.weights.values(), Fraction(0)) != 1:
            raise ValidationError("charge weights must sum to 1")

    def __hash__(self):
        return hash((self.ids, tuple(self.weights[i] for i in self.ids)))

    def weight(self, i: str) -> Fraction:
        return self.weights[i]


def charge(weights: Mapping[str, Rational]) -> Charge:
    w = {k: as_fraction(v) for k, v in weights.items()}
    return Charge(tuple(w.keys()), w)


def uniform_charge(ids: Sequence[str]) -> Charge:
    n = len(ids)
    return charge({i: Fraction(1, n) for i in ids})


def point_mass(ids: Sequence[str], at: str) -> Charge:
    return charge({i: Fraction(1 if i == at else 0) for i in ids})


def fubini(mu: Charge, nu: Charge) -> Charge:
    """Product charge on the pair index set; ids are joined with '|'.

    Because joined ids are flat strings, (mu x nu) x rho and mu x (nu x rho)
    produce identical charges, so associativity holds on the nose.
    """
    w = {
        f"{i}{_SEP}{j}": mu.weight(i) * nu.weight(j)
        for i in mu.ids
        for j in nu.ids
    }
    return Charge(tuple(w.keys()), w)


@dataclass
class MeanStructure:
    """A mean structure together with its provenance.

    class_of maps each choice tuple (one member point per index) to the point
    id of its distance-0 class in the quotiented structure.
    """

    structure: FiniteStructure
    charge: Charge
    family_size: int
    class_of: dict[tuple[str, ...], str]
    p: int = 1

    def class_point(self, tup: Sequence[str]) -> str:
        return self.class_of[tuple(tup)]


def _tuple_id(tup: Sequence[str]) -> str:
    return _SEP.join(tup)


def _kronecker_sum(
    prev: list[int], n_prev: int, cur: list[int], n_cur: int, arity: int
) -> list[int]:
    """T[(A1,a1),...,(Ak,ak)] = prev[A1..Ak] + cur[a1..ak] for k = arity.

    prev is a table over n_prev points and cur one over n_cur points, both
    flat in itertools.product order; so is T, over the n_prev * n_cur points
    (A, a) of the product, indexed A * n_cur + a.
    """
    if arity == 0:
        return [prev[0] + cur[0]]
    if arity == 1:
        return [x + y for x in prev for y in cur]
    sp, sc = n_prev ** (arity - 1), n_cur ** (arity - 1)
    out: list[int] = []
    for i in range(0, len(prev), sp):
        for j in range(0, len(cur), sc):
            out += _kronecker_sum(prev[i : i + sp], n_prev, cur[j : j + sc], n_cur, arity - 1)
    return out


def _product_index(digits: Sequence[int], base: int, arity: int) -> list[int]:
    """Flat indices, in a table over `base` points, of the cells whose
    arguments run over `digits`, in itertools.product order."""
    index = [0]
    for _ in range(arity):
        index = [i * base + d for i in index for d in digits]
    return index


def ultramean(
    family: Sequence[FiniteStructure],
    mu: Charge,
    p: int = 1,
    max_tuples: int = DEFAULT_TUPLE_CAP,
) -> MeanStructure:
    """Mean of a finite family under a charge, with distance-0 tuples collapsed.

    The family order matches mu.ids.  Raises UniverseCapError if the product
    universe would exceed max_tuples, and EvalError unless p is a positive
    integer.
    """
    _check_exponent(p)
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

    # Member k adds scale[k] * (its int view's cells) to every entry, all over
    # the one denominator `den`: scale[k] / den is its weight over its view's den.
    views = [m.int_view(p) for m in family]
    scale, den = over_common_denominator(
        [mu.weight(i) / view.den for i, view in zip(mu.ids, views)]
    )
    first = views[0]
    metric = [0]
    relations = {r: (arity, [0]) for r, (arity, _) in first.relations.items()}
    functions = {f: (arity, [0]) for f, (arity, _) in first.functions.items()}
    constants = dict.fromkeys(first.constants, 0)
    size = 1
    for k, (m, view, s) in enumerate(zip(family, views, scale)):
        n = len(m.points)
        metric = _kronecker_sum(metric, size, [s * e for e in view.metric], n, 2)
        for r, (arity, cells) in relations.items():
            own_arity, own = view.relations[r]
            if own_arity != arity or None in own:
                raise ValidationError(f"family member {k}: relation {r} has gaps on its points")
            relations[r] = arity, _kronecker_sum(cells, size, [s * v for v in own], n, arity)
        # point (A, a) of the product so far has index A * n + a
        for f, (arity, cells) in functions.items():
            own_arity, own = view.functions[f]
            if own_arity != arity or min(own) < 0:  # a gap, or a value that is no point
                raise ValidationError(f"family member {k}: function {f} is not a map on its points")
            functions[f] = arity, _kronecker_sum([v * n for v in cells], size, own, n, arity)
        for c, i in constants.items():
            if view.constants[c] < 0:
                raise ValidationError(f"family member {k}: constant {c} is not a point")
            constants[c] = i * n + view.constants[c]
        size *= n

    # Collapse: each tuple joins the first class whose representative (an
    # earlier tuple) is at distance 0 from it.
    tuples = list(itertools.product(*(m.points for m in family)))
    ids = [_tuple_id(t) for t in tuples]
    reps: list[int] = []
    cls: list[int] = []
    for a in range(size):
        cls.append(next((c for c, r in enumerate(reps) if metric[r * size + a] == 0), len(reps)))
        if cls[a] == len(reps):
            reps.append(a)
    classes = len(reps)

    def collapse(kind: str, name: str, arity: int, cells: list[int]) -> list[int]:
        """The table on the classes, read at their representatives; every
        other cell must hold the same value as its class's cell."""
        out = [cells[i] for i in _product_index(reps, size, arity)]
        for i, j in enumerate(_product_index(cls, classes, arity)):
            if cells[i] != out[j]:
                args = next(itertools.islice(itertools.product(ids, repeat=arity), i, None))
                raise ValidationError(f"{kind} {name} not well-defined on classes at {args}")
        return out

    functions = {
        f: (arity, collapse("function", f, arity, [cls[v] for v in cells]))
        for f, (arity, cells) in functions.items()
    }
    relations = {
        r: (arity, collapse("relation", r, arity, cells))
        for r, (arity, cells) in relations.items()
    }
    points = [ids[r] for r in reps]
    flat = [metric[i] for i in _product_index(reps, size, 2)]
    # make_structure's convention: the upper triangle, mirrored, zero diagonal
    rows = [[Fraction(0)] * classes for _ in range(classes)]
    for a in range(classes):
        row = rows[a]
        for b in range(a + 1, classes):
            row[b] = rows[b][a] = Fraction(flat[a * classes + b], den)

    def table(arity: int) -> list[tuple[str, ...]]:
        return list(itertools.product(points, repeat=arity))

    collapsed = FiniteStructure(
        points=tuple(points),
        metric=tuple(map(tuple, rows)),
        constants={c: points[cls[i]] for c, i in constants.items()},
        functions={
            f: dict(zip(table(arity), (points[c] for c in cells)))
            for f, (arity, cells) in functions.items()
        },
        relations={
            r: dict(zip(table(arity), (Fraction(v, den) for v in cells)))
            for r, (arity, cells) in relations.items()
        },
        metric_power=p,
    )
    class_of = {t: points[c] for t, c in zip(tuples, cls)}
    return MeanStructure(
        structure=collapsed,
        charge=mu,
        family_size=len(family),
        class_of=class_of,
        p=p,
    )


def powermean(
    m: FiniteStructure,
    mu: Charge,
    p: int = 1,
    max_tuples: int = DEFAULT_TUPLE_CAP,
) -> MeanStructure:
    """Mean of the constant family (M, ..., M) under mu."""
    return ultramean([m] * len(mu.ids), mu, p=p, max_tuples=max_tuples)


def diagonal_class(mean: MeanStructure, point: str) -> str:
    """Image of a point under the diagonal embedding into a powermean."""
    return mean.class_point((point,) * mean.family_size)
