"""Computations the benchmark checks the program against.

Nothing here imports ``affinelogic``.  Formulas are built as small tuples,
rendered to the program's text grammar, and evaluated here by exhaustive
loops, so a check never reuses the code path that produced the output.

Formula tuples:
    ("one",) | ("d", t1, t2) | ("rel", name, (t, ...)) | ("mu", t)
    ("sum", ((coeff, f), ...)) | ("sup", var, f) | ("inf", var, f)
Term tuples:
    ("v", name) | ("fn", name, (t, ...)) | ("zero",) | ("one",)
In the probability-algebra language the Boolean operations and/or/sym/not
are ("fn", op, args).
"""

from __future__ import annotations

import itertools
import json
import math
from fractions import Fraction


class CheckFailed(Exception):
    """An output disagreed with the independent computation."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def frac_text(r: Fraction) -> str:
    r = Fraction(r)
    return str(r.numerator) if r.denominator == 1 else f"{r.numerator}/{r.denominator}"


# ---------------------------------------------------------------------------
# Rendering to the program's grammar


def render_term(t) -> str:
    if t[0] == "v":
        return t[1]
    if t[0] in ("zero", "one"):
        return t[0]
    return f"{t[1]}({','.join(render_term(a) for a in t[2])})"


def render(f, tail: bool = True) -> str:
    tag = f[0]
    if tag == "one":
        return "1"
    if tag == "d":
        return f"d({render_term(f[1])},{render_term(f[2])})"
    if tag == "rel":
        return f"{f[1]}({','.join(render_term(a) for a in f[2])})"
    if tag == "mu":
        return f"mu({render_term(f[1])})"
    if tag in ("sup", "inf"):
        text = f"{tag} {f[1]}. {render(f[2])}"
        return text if tail else f"({text})"
    if tag == "sum":
        parts = []
        for coeff, g in f[1]:
            inner = render(g, tail=False)
            if g[0] == "sum":
                inner = f"({inner})"
            parts.append(inner if coeff == 1 else f"{frac_text(coeff)}*{inner}")
        return " + ".join(parts)
    raise ValueError(f)


def render_condition(lhs, rhs) -> str:
    return f"{render(lhs)} <= {render(rhs)}"


def free_vars(f, bound=frozenset()) -> set[str]:
    tag = f[0]
    if tag in ("sup", "inf"):
        return free_vars(f[2], bound | {f[1]})
    if tag == "sum":
        out: set[str] = set()
        for _, g in f[1]:
            out |= free_vars(g, bound)
        return out
    if tag == "one":
        return set()
    terms = f[1:] if tag == "d" else ((f[1],) if tag == "mu" else f[2])
    out = set()
    for t in terms:
        out |= _term_vars(t) - bound
    return out


def _term_vars(t) -> set[str]:
    if t[0] == "v":
        return {t[1]}
    if t[0] == "fn":
        out: set[str] = set()
        for a in t[2]:
            out |= _term_vars(a)
        return out
    return set()


# ---------------------------------------------------------------------------
# Finite metric structures as read from the JSON files


class Struct:
    """A structure file read with the json module and Fractions only."""

    def __init__(self, doc: dict):
        self.points = [str(p) for p in doc["points"]]
        n = len(self.points)
        self.index = {p: i for i, p in enumerate(self.points)}
        flat = [Fraction(v) for v in doc["metric"]]
        self.metric = [flat[i * n:(i + 1) * n] for i in range(n)]
        self.power = int(doc.get("metric_power", 1))
        self.functions = {
            name: {tuple(row[:-1]): row[-1] for row in rows}
            for name, rows in (doc.get("functions") or {}).items()
        }
        self.relations = {
            name: {tuple(row[:-1]): Fraction(row[-1]) for row in rows}
            for name, rows in (doc.get("relations") or {}).items()
        }

    @classmethod
    def load(cls, path) -> "Struct":
        with open(path, encoding="utf-8") as fh:
            return cls(json.load(fh))

    def dist(self, a: str, b: str, p: int = 1) -> Fraction:
        e = self.metric[self.index[a]][self.index[b]]
        if p == self.power:
            return e
        if self.power == 1:
            return e**p
        raise ValueError("stored powers do not match the exponent")

    def integer_metric(self) -> tuple[list[list[int]], int]:
        den = 1
        for row in self.metric:
            for e in row:
                den = den * e.denominator // math.gcd(den, e.denominator)
        return [[int(e * den) for e in row] for row in self.metric], den


def structure_doc(points, metric, functions=None, relations=None) -> dict:
    """A structure document in the program's file format.

    ``metric`` is a full matrix of Fractions; ``functions`` maps a name to
    {args: point}; ``relations`` maps a name to {args: Fraction}.
    """
    return {
        "format_version": 1,
        "points": list(points),
        "metric": [frac_text(e) for row in metric for e in row],
        "constants": {},
        "functions": {
            name: [list(args) + [val] for args, val in sorted(tab.items())]
            for name, tab in sorted((functions or {}).items())
        },
        "relations": {
            name: [list(args) + [frac_text(val)] for args, val in sorted(tab.items())]
            for name, tab in sorted((relations or {}).items())
        },
    }


def product_mean(members: list[Struct], weights: list[Fraction], p: int = 1) -> dict:
    """The mean of members under positive weights, as a structure document.

    Points are the tuples of member points joined by '|'; the metric stores
    sum_i w_i d_i^p, functions act coordinatewise and relations average.
    """
    tuples = list(itertools.product(*(m.points for m in members)))
    names = ["|".join(t) for t in tuples]
    metric = [
        [sum((w * m.dist(x, y, p) for w, m, x, y in zip(weights, members, a, b)), Fraction(0))
         for b in tuples]
        for a in tuples
    ]
    functions = {
        name: {(names[k],): "|".join(m.functions[name][(x,)] for m, x in zip(members, t))
               for k, t in enumerate(tuples)}
        for name in members[0].functions
    }
    relations = {}
    for name, table in members[0].relations.items():
        arity = len(next(iter(table)))
        relations[name] = {
            tuple(names[k] for k in ks): sum(
                (w * m.relations[name][tuple(tuples[k][i] for k in ks)]
                 for i, (w, m) in enumerate(zip(weights, members))),
                Fraction(0),
            )
            for ks in itertools.product(range(len(tuples)), repeat=arity)
        }
    doc = structure_doc(names, metric, functions, relations)
    if p != 1:
        doc["metric_power"] = p
    return doc


def term_value(m: Struct, t, env: dict) -> str:
    if t[0] == "v":
        return env[t[1]]
    args = tuple(term_value(m, a, env) for a in t[2])
    return m.functions[t[1]][args]


def evaluate(m: Struct, f, env: dict | None = None, p: int = 1) -> Fraction:
    """Value of a formula tuple in a structure by exhaustive loops."""
    env = dict(env or {})
    tag = f[0]
    if tag == "one":
        return Fraction(1)
    if tag == "d":
        return m.dist(term_value(m, f[1], env), term_value(m, f[2], env), p)
    if tag == "rel":
        return m.relations[f[1]][tuple(term_value(m, a, env) for a in f[2])]
    if tag == "sum":
        return sum((c * evaluate(m, g, env, p) for c, g in f[1]), Fraction(0))
    if tag in ("sup", "inf"):
        pick = max if tag == "sup" else min
        vals = []
        for pt in m.points:
            env[f[1]] = pt
            vals.append(evaluate(m, f[2], env, p))
        return pick(vals)
    raise ValueError(f)


# ---------------------------------------------------------------------------
# Rendez-vous brackets by integer loops


def rendezvous_brackets(m: Struct, n: int) -> tuple[Fraction, Fraction]:
    """(sup-inf, inf-sup) of the n-point average distance.

    The minimum over y of a sum of rows does not depend on the order of the
    rows, so multisets of n points suffice.
    """
    imat, den = m.integer_metric()
    size = len(imat)
    lower = upper = None
    for combo in itertools.combinations_with_replacement(range(size), n):
        sums = [0] * size
        for i in combo:
            row = imat[i]
            sums = [s + r for s, r in zip(sums, row)]
        lo, hi = min(sums), max(sums)
        lower = lo if lower is None else max(lower, lo)
        upper = hi if upper is None else min(upper, hi)
    return Fraction(lower, n * den), Fraction(upper, n * den)


def has_antipodal_pair(m: Struct) -> bool:
    """True when some two points are at distance 1, the normalized diameter."""
    return any(e == 1 for row in m.metric for e in row)


# ---------------------------------------------------------------------------
# Probability algebras by bitmasks


class Algebra:
    """The powerset algebra on k atoms with rational atom weights."""

    def __init__(self, weights):
        self.weights = [Fraction(w) for w in weights]
        self.k = len(self.weights)
        self.full = (1 << self.k) - 1
        self.measure = [
            sum((w for i, w in enumerate(self.weights) if mask >> i & 1), Fraction(0))
            for mask in range(1 << self.k)
        ]


def event_value(alg: Algebra, t, env: dict) -> int:
    tag = t[0]
    if tag == "v":
        return env[t[1]]
    if tag == "zero":
        return 0
    if tag == "one":
        return alg.full
    args = [event_value(alg, a, env) for a in t[2]]
    op = t[1]
    if op == "and":
        return args[0] & args[1]
    if op == "or":
        return args[0] | args[1]
    if op == "sym":
        return args[0] ^ args[1]
    if op == "not":
        return alg.full & ~args[0]
    raise ValueError(op)


def pra_value(alg: Algebra, f, env: dict) -> Fraction:
    """Value of a probability-algebra formula; quantifiers range over all events."""
    tag = f[0]
    if tag == "one":
        return Fraction(1)
    if tag == "mu":
        return alg.measure[event_value(alg, f[1], env)]
    if tag == "d":
        return alg.measure[event_value(alg, f[1], env) ^ event_value(alg, f[2], env)]
    if tag == "sum":
        return sum((c * pra_value(alg, g, env) for c, g in f[1]), Fraction(0))
    if tag in ("sup", "inf"):
        pick = max if tag == "sup" else min
        inner = dict(env)
        vals = []
        for event in range(1 << alg.k):
            inner[f[1]] = event
            vals.append(pra_value(alg, f[2], inner))
        return pick(vals)
    raise ValueError(f)


def parse_pra_result(text: str):
    """Parse a quantifier-free result such as '1/2*1 + -2*mu(and(x,y))'.

    Returns a ("sum", ...) formula tuple.
    """
    parts = []
    for summand in _split_top(text, "+"):
        summand = summand.strip()
        coeff = Fraction(1)
        head = summand.split("(", 1)[0]
        if "*" in head:
            ctext, summand = summand.split("*", 1)
            coeff = Fraction(ctext.strip())
        if summand == "1":
            parts.append((coeff, ("one",)))
        elif summand.startswith("mu(") and summand.endswith(")"):
            parts.append((coeff, ("mu", _parse_event(summand[3:-1]))))
        elif summand.startswith("d(") and summand.endswith(")"):
            left, right = _split_top(summand[2:-1], ",")
            parts.append((coeff, ("d", _parse_event(left), _parse_event(right))))
        else:
            raise CheckFailed(f"unreadable summand {summand!r} in QE result")
    return ("sum", tuple(parts))


def _split_top(text: str, sep: str) -> list[str]:
    out, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == sep and depth == 0:
            out.append(text[start:i])
            start = i + 1
    out.append(text[start:])
    return out


def _parse_event(text: str):
    text = text.strip()
    if text in ("zero", "one"):
        return (text,)
    if "(" not in text:
        return ("v", text)
    op, rest = text.split("(", 1)
    if not rest.endswith(")"):
        raise CheckFailed(f"unreadable event {text!r}")
    args = tuple(_parse_event(a) for a in _split_top(rest[:-1], ","))
    return ("fn", op, args)


def compositions_count(total: int, parts: int) -> int:
    """Number of ways to write `total` as an ordered sum of `parts` naturals."""
    return math.comb(total + parts - 1, parts - 1)


def oracle_evaluations(kmax: int, free: int, step: int = 4) -> tuple[int, int]:
    """(algebras, assignments) checked by an oracle over the weight grid."""
    algebras = sum(compositions_count(step, k) for k in range(1, kmax + 1))
    assignments = sum(
        compositions_count(step, k) * (1 << k) ** free for k in range(1, kmax + 1)
    )
    return algebras, assignments
