"""Finite metric structures: validation, exact evaluation, quotients.

A FiniteStructure has an explicit finite universe; quantifiers are evaluated
by exhaustive maxima/minima, so every value is an exact rational.  The tuple
metric is the coordinatewise sum for exponent 1.  For exponent p > 1 the
stored metric matrix may hold p-th powers of distances (``metric_power = p``),
in which case distance atoms evaluate to those stored powers and validation
compares p-th powers instead of taking roots.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Sequence

from .errors import EvalError, ValidationError
from .syntax import (
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
    over_common_denominator,
)

Assignment = Mapping[str, str]


@dataclass
class FiniteStructure:
    """A finite universe with a rational (pseudo)metric and full interpretation tables.

    metric_power=1 means the matrix holds distances; metric_power=p>1 means it
    holds exact p-th powers of distances (used for means built in L^p mode).
    """

    points: tuple[str, ...]
    metric: tuple[tuple[Fraction, ...], ...]
    constants: dict[str, str]
    functions: dict[str, dict[tuple[str, ...], str]]
    relations: dict[str, dict[tuple[str, ...], Fraction]]
    metric_power: int = 1
    _index: dict[str, int] = field(init=False, repr=False, compare=False)
    _views: dict[int, "IntView"] = field(
        init=False, repr=False, compare=False, default_factory=dict
    )

    def __post_init__(self):
        self._index = {p: i for i, p in enumerate(self.points)}
        if len(self._index) != len(self.points):
            raise ValidationError("duplicate point ids")
        if not self.points:
            raise ValidationError("empty universe")

    def int_view(self, p: int) -> "IntView":
        """The integer tables the evaluator reads at exponent p, built on first
        use and kept: a structure is not changed after construction."""
        view = self._views.get(p)
        if view is None:
            view = self._views[p] = _build_int_view(self, p)
        return view

    def d(self, a: str, b: str) -> Fraction:
        """Stored metric entry (a p-th power when metric_power > 1)."""
        return self.metric[self._index[a]][self._index[b]]

    def tuple_dist(self, xs: Sequence[str], ys: Sequence[str]) -> Fraction:
        """Sum metric on tuples (exponent-1 convention)."""
        if self.metric_power != 1:
            raise EvalError("tuple distances need an exponent-1 metric")
        return sum((self.d(a, b) for a, b in zip(xs, ys)), Fraction(0))


def make_structure(
    points: Sequence[str],
    metric: Mapping[tuple[str, str], object] | Sequence[Sequence[object]],
    constants: Mapping[str, str] | None = None,
    functions: Mapping[str, Mapping[tuple[str, ...], str]] | None = None,
    relations: Mapping[str, Mapping[tuple[str, ...], object]] | None = None,
    metric_power: int = 1,
) -> FiniteStructure:
    """Build a FiniteStructure, symmetrizing the metric input.

    ``metric`` is either a full row-major matrix or a mapping on (unordered)
    pairs; missing diagonal entries default to 0.
    """
    pts = tuple(points)
    n = len(pts)
    idx = {p: i for i, p in enumerate(pts)}
    rows = [[Fraction(0)] * n for _ in range(n)]
    if isinstance(metric, Mapping):
        for (a, b), v in metric.items():
            rows[idx[a]][idx[b]] = Fraction(v)
            rows[idx[b]][idx[a]] = Fraction(v)
    else:
        for i, row in enumerate(metric):
            for j, v in enumerate(row):
                rows[i][j] = Fraction(v)
    return FiniteStructure(
        points=pts,
        metric=tuple(tuple(row) for row in rows),
        constants=dict(constants or {}),
        functions={f: dict(tab) for f, tab in (functions or {}).items()},
        relations={
            r: {k: Fraction(v) for k, v in tab.items()} for r, tab in (relations or {}).items()
        },
        metric_power=metric_power,
    )


# ---------------------------------------------------------------------------
# Root-sum comparison for q-th power matrices, in integers.


def _iroot(n: int, q: int) -> int:
    """floor(n^(1/q)) for n >= 0, by integer Newton steps from above."""
    if n < 2:
        return n
    x = 1 << -(-n.bit_length() // q)
    while True:
        y = ((q - 1) * x + n // x ** (q - 1)) // q
        if y >= x:
            return x
        x = y


def leq_root_sum_int(c: int, a: int, b: int, q: int) -> bool:
    """Decide c^(1/q) <= a^(1/q) + b^(1/q) for nonnegative integers, exactly.

    It holds when c <= a + b.  When a b^(q-1) = s^q it reads c b^(q-1) <=
    (s + b)^q.  Otherwise a^(1/q) / b^(1/q) is irrational, so c^(1/q) is not
    the sum (Besicovitch 1940), and the floors of 2^k times the three roots
    separate the sides once k is large enough.
    """
    if c <= a + b:
        return True
    if a == 0 or b == 0:
        return False
    t = a * b ** (q - 1)
    s = _iroot(t, q)
    if s**q == t:
        return c * b ** (q - 1) <= (s + b) ** q
    k = 32
    while True:
        ra, rb, rc = (_iroot(x << q * k, q) for x in (a, b, c))
        if rc < ra + rb:
            return True
        if rc > ra + rb + 1:
            return False
        k *= 2


# ---------------------------------------------------------------------------
# Validation


@dataclass(frozen=True)
class Violation:
    kind: str
    where: str
    amount: Fraction | None = None

    def __str__(self):
        extra = f" by {self.amount}" if self.amount is not None else ""
        return f"{self.kind}: {self.where}{extra}"


@dataclass
class ValidationReport:
    violations: list[Violation]

    @property
    def valid(self) -> bool:
        return not self.violations


def validate(m: FiniteStructure, sig: Signature, p: int | None = None) -> ValidationReport:
    """Check all structure invariants against a signature.

    Reports every violated instance: metric axioms (zero diagonal, symmetry,
    triangle inequality, entries in [0,1]), totality of tables, Lipschitz
    bounds for functions and relations, relation values in [0,1].  The
    triangle inequality is checked on stored powers at the stored exponent
    q = metric_power, skipping triples that hold a negative entry.

    The metric axioms read the stored metric's integer view.  Every pair of
    argument tuples is compared in integers at exponent p, by default q: with
    lam = num/den, den^p * d(F xs, F ys)^p <= num^p * sum_i d(x_i, y_i)^p,
    and likewise (R xs - R ys)^p where that is positive.
    """
    q = m.metric_power
    p = q if p is None else p
    _check_exponent(p)
    v: list[Violation] = []
    pts = m.points
    n = len(pts)

    stored = m.int_view(q)
    imat, den = _rows(stored.metric, n), stored.den
    for i in range(n):
        ri = imat[i]
        if ri[i] != 0:
            v.append(Violation("nonzero-self-distance", pts[i], m.metric[i][i]))
        for j in range(n):
            e = ri[j]
            if e < 0 or e > den:
                v.append(Violation("metric-out-of-range", f"d({pts[i]},{pts[j]})", m.metric[i][j]))
            if imat[j][i] != e:
                v.append(Violation("asymmetric-metric", f"d({pts[i]},{pts[j]})"))
    if q == 1:
        for i in range(n):
            ri = imat[i]
            for j in range(i + 1, n):
                dij = ri[j]
                rj = imat[j]
                for k in range(n):
                    if dij > ri[k] + rj[k]:
                        v.append(
                            Violation(
                                "triangle-violation",
                                f"d({pts[i]},{pts[j]}) > d({pts[i]},{pts[k]})+d({pts[j]},{pts[k]})",
                                Fraction(dij - ri[k] - rj[k], den),
                            )
                        )
    else:
        # c^(1/q) <= a^(1/q) + b^(1/q) for c = d(i,j), a = d(i,k), b = d(k,j),
        # decided on the integers over den: the condition is homogeneous.  At
        # q = 2 it is (c - a - b)^2 <= 4ab once c > a + b, inline because a call
        # per triple costs time.  A triple with a negative entry is skipped: the
        # entry is reported above and has no root.
        cols = list(zip(*imat))
        for i in range(n):
            ri = imat[i]
            for j in range(i + 1, n):
                c = ri[j]
                triples = zip(itertools.count(), ri, cols[j])
                if q == 2:
                    bad = [
                        k for k, a, b in triples
                        if c > a + b and a >= 0 and b >= 0 and (c - a - b) ** 2 > 4 * a * b
                    ]
                else:
                    bad = [
                        k for k, a, b in triples
                        if c > a + b and a >= 0 and b >= 0 and not leq_root_sum_int(c, a, b, q)
                    ]
                for k in bad:
                    v.append(
                        Violation(
                            "triangle-violation",
                            f"d({pts[i]},{pts[j]}) > d({pts[i]},{pts[k]})+d({pts[k]},{pts[j]})"
                            f" (compared in {q}-th powers)",
                        )
                    )

    view = m.int_view(p)
    rows = None if view.metric is None else _rows(view.metric, n)

    def distance_rows(arity: int):
        """Per xs in domain order: sum_i d(x_i, y_i)^p over every ys, times view.den."""
        if rows is None:
            raise EvalError(
                f"structure stores {m.metric_power}-th powers; cannot evaluate at exponent {p}"
            )
        for xs in itertools.product(rows, repeat=arity):
            acc = [0]
            for row in xs:
                acc = [a + b for a in acc for b in row]
            yield acc

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
        lo, hi = lam.denominator**p, lam.numerator**p
        image = [m._index[tab[xs]] for xs in domain]
        for xs, fx, dist in zip(domain, image, distance_rows(sym.arity)):
            frow = rows[fx]
            bad = [j for j, fy, t in zip(itertools.count(), image, dist) if frow[fy] * lo > t * hi]
            for j in bad:
                ys = domain[j]
                where = f"d({sym.name}{xs},{sym.name}{ys}) > {lam}*d({xs},{ys})"
                v.append(Violation("function-lipschitz", where))

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
        # read over the signature's domain: the view's cells follow the table's first key
        vals, rden = over_common_denominator([tab[xs] for xs in domain])
        if max(vals) == min(vals):  # no positive difference to bound
            continue
        lam = sym.lipschitz
        # (diff/rden)^p <= lam^p * t/den, cleared of denominators
        lo, hi = lam.denominator**p * view.den, lam.numerator**p * rden**p
        for xs, vx, dist in zip(domain, vals, distance_rows(sym.arity)):
            pairs = zip(itertools.count(), vals, dist)
            bad = [j for j, vy, t in pairs if vx > vy and (vx - vy) ** p * lo > t * hi]
            for j in bad:
                ys = domain[j]
                where = f"{sym.name}{xs} - {sym.name}{ys} > {lam}*d({xs},{ys})"
                v.append(Violation("relation-lipschitz", where, Fraction(vx - vals[j], rden)))

    return ValidationReport(v)


# ---------------------------------------------------------------------------
# Evaluation
#
# value_table evaluates each subformula once per assignment of its own free
# variables.  A term's table holds point indices; a formula's table holds
# integers over one denominator.  A table is a flat row-major list over its
# dimensions, which are sorted keys: table variables get keys 0..t-1 in the
# caller's order, and a bound variable gets t plus its binding depth.  So the
# variable a quantifier binds is always the last dimension of its body, and
# sup/inf reduce runs of n adjacent cells.

CELL_BUDGET = 1 << 18
"""Largest quantifier body, in cells, that is built as one table.  A
quantifier whose body would be larger loops over its variable instead,
pinning it to each point in turn, which bounds memory on big universes."""

_GAP = -1  # function-table cell with no entry
_NOT_A_POINT = -2  # function-table cell (or constant) naming no point


@dataclass(frozen=True)
class IntView:
    """A structure's tables as flat lists, for the evaluation kernel,
    validate and rendezvous_value.

    Metric entries (d^p at exponent p) and relation values are integers over
    the common denominator `den`; `metric` is None when the stored metric
    cannot be read at this exponent.  Relation and function tables are
    (arity, cells) over itertools.product order; relation gaps are None,
    function cells and constants are point indices or _GAP/_NOT_A_POINT.
    """

    den: int
    metric: list[int] | None
    relations: dict[str, tuple[int, list[int | None]]]
    functions: dict[str, tuple[int, list[int]]]
    constants: dict[str, int]


def _rows(flat: list[int], n: int) -> list[list[int]]:
    """A flat n*n metric view as n rows."""
    return [flat[i * n : (i + 1) * n] for i in range(n)]


def _build_int_view(m: FiniteStructure, p: int) -> IntView:
    if p == m.metric_power:
        metric: list[Fraction] | None = [e for row in m.metric for e in row]
    elif m.metric_power == 1:
        metric = [e**p for row in m.metric for e in row]
    else:
        metric = None

    def cells(tab: Mapping[tuple[str, ...], object]) -> tuple[int, list]:
        arity = len(next(iter(tab))) if tab else 0
        return arity, [tab.get(args) for args in itertools.product(m.points, repeat=arity)]

    rel_cells = {name: cells(tab) for name, tab in m.relations.items()}
    ints, den = over_common_denominator(
        list(metric or ())
        + [v for _, vals in rel_cells.values() for v in vals if v is not None]
    )
    it = iter(ints)
    index = m._index
    functions = {}
    for name, tab in m.functions.items():
        arity, vals = cells(tab)
        functions[name] = arity, [_GAP if v is None else index.get(v, _NOT_A_POINT) for v in vals]
    return IntView(
        den=den,
        metric=None if metric is None else [next(it) for _ in metric],
        relations={
            name: (arity, [None if v is None else next(it) for v in vals])
            for name, (arity, vals) in rel_cells.items()
        },
        functions=functions,
        constants={c: index.get(v, _NOT_A_POINT) for c, v in m.constants.items()},
    )


Dims = tuple[int, ...]
Table = tuple[Dims, list[int], int]  # dimensions, integer cells, denominator


def _union(a: Dims, b: Dims) -> Dims:
    return a if a == b else tuple(sorted(set(a) | set(b)))


def _expand(dims: Dims, cells: list, target: Dims, n: int) -> list:
    """Broadcast a table over `dims` to the superset `target` of dimensions."""
    if dims == target:
        return cells
    run = 1  # length of the runs of cells that vary only in target dims seen so far
    for k in reversed(target):
        if k not in dims:
            if run == 1:
                blocks = zip(*[cells] * n)  # each cell n times
            else:
                blocks = (cells[i : i + run] * n for i in range(0, len(cells), run))
            cells = list(itertools.chain.from_iterable(blocks))
        run *= n
    return cells


def _combine(op, a: Table, b: Table, n: int) -> Table:
    """Elementwise op of two tables on their common denominator and dimensions."""
    (da, ca, den_a), (db, cb, den_b) = a, b
    den = math.lcm(den_a, den_b)
    if den != den_a:
        ca = [v * (den // den_a) for v in ca]
    if den != den_b:
        cb = [v * (den // den_b) for v in cb]
    dims = _union(da, db)
    return dims, list(map(op, _expand(da, ca, dims, n), _expand(db, cb, dims, n))), den


_COMBINE = {Sum: operator.add, Min: min, Max: max}


class _Kernel:
    """Tables of one structure at one exponent; scopes map variables to term tables."""

    def __init__(self, m: FiniteStructure, p: int):
        self.m = m
        self.p = p
        self.n = len(m.points)
        self.view = m.int_view(p)
        self.every_point = list(range(self.n))

    def lookup(self, name: str, args, scope, table) -> tuple[Dims, list, list[list[int]]]:
        """Cells of `table` at the argument tables, with the argument columns."""
        n = self.n
        terms = [self.term(a, scope) for a in args]
        dims: Dims = ()
        for d, _ in terms:
            dims = _union(dims, d)
        cols = [_expand(d, c, dims, n) for d, c in terms]
        if table is None or table[0] != len(cols):
            raise EvalError(f"table gap at {name}{self.points_at(cols, 0)}")
        flat = cols[0]
        for col in cols[1:]:
            flat = [i * n + j for i, j in zip(flat, col)]
        vals = table[1]
        return dims, [vals[i] for i in flat], cols

    def points_at(self, cols: list[list[int]], k: int) -> tuple[str, ...]:
        return tuple(self.m.points[col[k]] for col in cols)

    def term(self, t: Term, scope) -> tuple[Dims, list[int]]:
        if isinstance(t, Var):
            return scope[t.name]
        if isinstance(t, Const):
            i = self.view.constants.get(t.name)
            if i is None:
                raise EvalError(f"no interpretation for constant {t.name}")
            if i == _NOT_A_POINT:
                value = self.m.constants[t.name]
                raise EvalError(f"constant {t.name} names {value!r}, not a point")
            return (), [i]
        dims, vals, cols = self.lookup(t.func, t.args, scope, self.view.functions.get(t.func))
        if min(vals) < 0:
            k = next(k for k, v in enumerate(vals) if v < 0)
            args = self.points_at(cols, k)
            if vals[k] == _GAP:
                raise EvalError(f"table gap at {t.func}{args}")
            value = self.m.functions[t.func][args]
            raise EvalError(f"{t.func}{args} = {value!r} is not a point")
        return dims, vals

    def formula(self, f: Formula, scope, key: int) -> Table:
        """The table of f; `key` is the dimension key of the next binder."""
        if isinstance(f, One):
            return (), [1], 1
        if isinstance(f, Dist):
            if self.view.metric is None:
                raise EvalError(
                    f"structure stores {self.m.metric_power}-th powers; "
                    f"cannot evaluate at exponent {self.p}"
                )
            metric = 2, self.view.metric
            dims, vals, _ = self.lookup("d", (f.left, f.right), scope, metric)
            return dims, vals, self.view.den
        if isinstance(f, Rel):
            dims, vals, cols = self.lookup(f.rel, f.args, scope, self.view.relations.get(f.rel))
            if None in vals:
                raise EvalError(f"table gap at {f.rel}{self.points_at(cols, vals.index(None))}")
            return dims, vals, self.view.den
        if isinstance(f, Scale):
            dims, cells, den = self.formula(f.body, scope, key)
            num = f.coeff.numerator
            if num != 1:
                cells = [v * num for v in cells]
            return dims, cells, den * f.coeff.denominator
        if isinstance(f, (Sum, Min, Max)):
            left = self.formula(f.left, scope, key)
            return _combine(_COMBINE[type(f)], left, self.formula(f.right, scope, key), self.n)
        if isinstance(f, (Sup, Inf)):
            return self.quantifier(f, scope, key)
        raise TypeError(f)

    def quantifier(self, f: Sup | Inf, scope, key: int) -> Table:
        pick = max if isinstance(f, Sup) else min
        x, n = f.varname, self.n
        free = f.body.free
        if x not in free:  # the universe is nonempty
            return self.formula(f.body, scope, key)
        outer = {k for v in free if v != x for k in scope[v][0]}
        inner = dict(scope)
        if n ** (len(outer) + 1) <= CELL_BUDGET:
            inner[x] = (key,), self.every_point
            dims, cells, den = self.formula(f.body, inner, key + 1)
            if dims and dims[-1] == key:
                cells = list(map(pick, zip(*[iter(cells)] * n)))
                dims = dims[:-1]
            return dims, cells, den
        best: Table | None = None
        for i in range(n):
            inner[x] = (), [i]
            part = self.formula(f.body, inner, key)
            best = part if best is None else _combine(pick, best, part, n)
        assert best is not None
        return best


def _check_exponent(p: int) -> None:
    if not (isinstance(p, int) and p >= 1):
        raise EvalError(f"exponent must be a positive integer, got {p!r}")


def _value_ints(
    m: FiniteStructure,
    phi: Formula,
    variables: Sequence[str],
    p: int,
    asg: Assignment | None,
) -> tuple[list[int], int]:
    """Cells and denominator of value_table."""
    _check_exponent(p)
    variables = tuple(variables)
    if len(set(variables)) != len(variables):
        raise EvalError(f"repeated table variables {list(variables)}")
    asg = asg or {}
    pinned = phi.free - set(variables)
    missing = pinned - asg.keys()
    if missing:
        raise EvalError(f"assignment is missing variables {sorted(missing)}")
    kernel = _Kernel(m, p)
    scope: dict[str, tuple[Dims, list[int]]] = {}
    for v in pinned:
        i = m._index.get(asg[v])
        if i is None:
            raise EvalError(f"{asg[v]!r} (assigned to {v}) is not a point")
        scope[v] = (), [i]
    for k, v in enumerate(variables):
        scope[v] = (k,), kernel.every_point
    dims, cells, den = kernel.formula(phi, scope, len(variables))
    return _expand(dims, cells, tuple(range(len(variables))), kernel.n), den


def value_table(
    m: FiniteStructure,
    phi: Formula,
    variables: Sequence[str],
    p: int = 1,
    asg: Assignment | None = None,
) -> list[Fraction]:
    """Exact values of phi for every assignment of `variables`.

    Values come in itertools.product(m.points, repeat=len(variables)) order.
    Free variables of phi outside `variables` take their points from `asg`.
    Distance atoms evaluate to d^p; quantifiers are exhaustive over the
    finite universe, so every value is the true sup/inf.
    """
    cells, den = _value_ints(m, phi, variables, p, asg)
    return [Fraction(v, den) for v in cells]


def eval_formula(
    m: FiniteStructure,
    phi: Formula,
    asg: Assignment | None = None,
    p: int = 1,
) -> Fraction:
    """Exact value of a formula under an assignment covering its free variables.

    Distance atoms evaluate to d^p; quantifiers are exhaustive over the finite
    universe, so the result is the true sup/inf.
    """
    (value,), den = _value_ints(m, phi, (), p, asg)
    return Fraction(value, den)


def check_condition(
    m: FiniteStructure,
    cond: Condition,
    asg: Assignment | None = None,
    p: int = 1,
) -> tuple[bool, Fraction]:
    """Evaluate a condition; returns (holds, margin) with margin = rhs - lhs."""
    margin = eval_formula(m, cond.margin, asg, p)
    return margin >= 0, margin


def holds_universally(m: FiniteStructure, cond: Condition, p: int = 1) -> tuple[bool, Fraction]:
    """Check a condition under every assignment of its free variables.

    Returns (holds, worst margin over assignments).
    """
    cells, den = _value_ints(m, cond.margin, sorted(cond.free), p, None)
    worst = Fraction(min(cells), den)
    return worst >= 0, worst


# ---------------------------------------------------------------------------
# Quotient


def quotient(m: FiniteStructure) -> tuple[FiniteStructure, dict[str, str]]:
    """Identify points at stored distance 0: the mean of the one-member family.

    Returns the quotient structure and the point -> representative map; m
    itself when no two points merge.  Raises ValidationError when a table has
    a gap or an interpretation is not well-defined on classes.
    """
    from .ultramean import charge, ultramean  # ultramean imports this module

    mean = ultramean([m], charge({"m": 1}), p=m.metric_power, max_tuples=len(m.points))
    rep_of = {a: rep for (a,), rep in mean.class_of.items()}
    if len(mean.structure.points) == len(m.points):
        return m, rep_of
    return mean.structure, rep_of


# ---------------------------------------------------------------------------
# Rendez-vous values


def rendezvous_value(m: FiniteStructure, n: int) -> tuple[Fraction, Fraction]:
    """(sup-inf, inf-sup) of the n-point average-distance sentences.

    lower = sup over x1..xn of inf over y of (1/n) sum d(xi,y);
    upper = inf over x1..xn of sup over y of the same average.
    Computed by exhaustive integer loops on a common denominator.
    """
    if n < 1:
        raise EvalError("n must be >= 1")
    if m.metric_power != 1:
        raise EvalError("rendezvous values need an exponent-1 metric")
    view = m.int_view(1)
    imat, den = _rows(view.metric, len(m.points)), view.den
    lower_best = None
    upper_best = None
    # sums[k] is the row sum over combo[:k+1]; consecutive combinations share
    # a prefix, so only the rows after it are added again
    sums: list[list[int]] = [imat[0]] * n
    prev: tuple[int, ...] = ()
    for combo in itertools.combinations_with_replacement(range(len(m.points)), n):
        k = 0
        while k < len(prev) and combo[k] == prev[k]:
            k += 1
        for j in range(k, n):
            row = imat[combo[j]]
            sums[j] = row if j == 0 else list(map(operator.add, sums[j - 1], row))
        prev = combo
        lo = min(sums[-1])
        hi = max(sums[-1])
        lower_best = lo if lower_best is None else max(lower_best, lo)
        upper_best = hi if upper_best is None else min(upper_best, hi)
    assert lower_best is not None and upper_best is not None
    return Fraction(lower_best, n * den), Fraction(upper_best, n * den)


def rendezvous_sentences(n: int) -> tuple[Formula, Formula]:
    """The two n-point rendez-vous sentences (sup-inf and inf-sup forms)."""
    xs = [f"x{i+1}" for i in range(n)]
    avg: Formula = Scale(
        Fraction(1, n),
        _sum_chain([Dist(Var(x), Var("y")) for x in xs]),
    )
    lower: Formula = Inf("y", avg)
    upper: Formula = Sup("y", avg)
    for x in reversed(xs):
        lower = Sup(x, lower)
        upper = Inf(x, upper)
    return lower, upper


def _sum_chain(parts: Sequence[Formula]) -> Formula:
    acc = parts[0]
    for part in parts[1:]:
        acc = Sum(acc, part)
    return acc
