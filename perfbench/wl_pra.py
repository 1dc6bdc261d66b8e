"""Workload pra-qe: `qe FORMULA --oracle K` on seeded probability-algebra formulas.

A round holds 20 jobs:
  * 12 open formulas  Q y. Q z. body(x,y,z), x free, oracle bound 3;
  * 3 closed formulas Q x. Q y. Q z. body(x,y,z), oracle bound 3;
  * 2 wide formulas   Q y. ... Q t. body(x,y,z,u,v,w,s,t), oracle bound 1,
    where elimination over 8 variables does most of the work;
  * 3 hand-derived identities such as  sup y. mu(and(x,y))  ->  mu(x).
Bodies have a fixed shape (two or eight weighted atoms, each one fixed
Boolean operation deep); the seed draws the quantifiers, the coefficients
and the operand order.  The nine identities take turns, three per round, so
jobs of one kind cost about the same on every seed.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

from reference import (
    Algebra,
    CheckFailed,
    free_vars,
    oracle_evaluations,
    parse_pra_result,
    pra_value,
    render,
    require,
)
from harness import Job, one_per_kind

ROUNDS = 8  # distinct rounds of formulas; a run cycles through them
COEFFS = [Fraction(n, 2) for n in (-3, -2, -1, 1, 2, 3)]  # one denominator: Fraction costs stay alike

def _v(name):
    return ("v", name)


def _op(name, *args):
    return ("fn", name, args)


def _sum(*parts):
    return ("sum", tuple((Fraction(c), f) for c, f in parts))


X, Y, Z = _v("x"), _v("y"), _v("z")

# (formula, expected QE result), each derived by hand:
IDENTITIES = [
    # y = x is optimal, since mu(x and y) <= mu(x)
    (("sup", "y", ("mu", _op("and", X, Y))), "mu(x)"),
    # y = zero is optimal, since mu(x or y) >= mu(x)
    (("inf", "y", ("mu", _op("or", X, Y))), "mu(x)"),
    # y = not x gives mu(x sym y) = 1
    (("sup", "y", ("d", X, Y)), "1"),
    # y = x gives distance 0
    (("inf", "y", ("d", X, Y)), "0*1"),
    # y = x: mu(x and y) + mu(not x and not y) = mu(x) + mu(not x) = 1
    (("sup", "y", _sum((1, ("mu", _op("and", X, Y))),
                       (1, ("mu", _op("and", _op("not", X), _op("not", Y)))))), "1"),
    # x lies in y or (x sym y), so the sum is >= mu(x); y = zero attains it
    (("inf", "y", _sum((1, ("mu", Y)), (1, ("d", X, Y)))), "mu(x)"),
    # y = x keeps the positive part only
    (("sup", "y", _sum((1, ("mu", _op("and", X, Y))),
                       (-1, ("mu", _op("and", _op("not", X), Y))))), "mu(x)"),
    # z = x or y; inclusion-exclusion gives the positive-conjunction form
    (("sup", "z", ("mu", _op("and", Z, _op("or", X, Y)))),
     "mu(x) + mu(y) + -1*mu(and(x,y))"),
    # x = y = one: the value is 1 - 1/2
    (("sup", "x", ("sup", "y", _sum((1, ("mu", _op("and", X, Y))),
                                    (Fraction(-1, 2), ("mu", X))))), "1/2*1"),
]


def _body(rng: random.Random, template):
    """Weighted atoms in a fixed shape; only the coefficients and the order
    of the operands are drawn.  The oracle's cost per atom grows with the
    size of the events an operation yields (measure() sums atom weights), so
    the operations stay fixed and every body costs about the same."""
    parts = []
    for kind, a, op, b, c in template:
        event = _op(op, *rng.sample((b, c), 2))
        atom = ("mu", event) if kind == "mu" else ("d", a, event)
        parts.append((rng.choice(COEFFS), atom))
    return ("sum", tuple(parts))


def _prefix(rng: random.Random, bound: list[str], body):
    f = body
    for v in reversed(bound):
        f = (rng.choice(("sup", "inf")), v, f)
    return f


NOT_Y = _op("not", Y)
WIDE = ["x", "y", "z", "u", "v", "w", "s", "t"]
# (atom kind, distance argument, Boolean operation, its operands)
SHAPE3 = [("mu", None, "and", X, NOT_Y), ("d", Z, "or", X, Y)]
SHAPE8 = [
    ("mu", None, "and", _v(a), _v(b)) if i % 2 == 0 else ("d", _v(a), "or", _v(b), _v(c))
    for i, (a, b, c) in enumerate(zip(WIDE, WIDE[1:] + WIDE[:1], WIDE[3:] + WIDE[:3]))
]


def _qe_job(kind: str, formula, kmax: int, sample_ks, seed: int, expected: str | None = None):
    """`qe --oracle kmax`; the check re-evaluates input and result on one
    random algebra with k atoms for each k in sample_ks."""
    text = render(formula)
    free = sorted(free_vars(formula))

    def check(outputs: list[str]) -> None:
        doc = json.loads(outputs[0])
        require(doc["input"] == text, "echoed input differs")
        oracle = doc["oracle"]
        require(oracle["verified"] is True, "oracle did not verify")
        algebras, evaluations = oracle_evaluations(kmax, len(free))
        require(oracle["algebras"] == algebras, f"algebras {oracle['algebras']} != {algebras}")
        require(
            oracle["evaluations"] == evaluations,
            f"evaluations {oracle['evaluations']} != {evaluations}",
        )
        if expected is not None:
            require(doc["result"] == expected, f"identity gave {doc['result']!r}, not {expected!r}")
        result = parse_pra_result(doc["result"])
        require(free_vars(result) <= set(free), "result mentions a bound variable")
        rng = random.Random(seed)
        for k in sample_ks:
            weights = [rng.randint(0, 6) for _ in range(k)]
            if not any(weights):
                weights[0] = 1
            total = sum(weights)
            alg = Algebra([Fraction(w, total) for w in weights])
            env = {v: rng.randrange(1 << k) for v in free}
            want = pra_value(alg, formula, env)
            got = pra_value(alg, result, env)
            if got != want:
                raise CheckFailed(
                    f"QE result {doc['result']!r} is {got} but the input is {want} "
                    f"on weights {weights} at {env}"
                )
        atoms = [f for _, f in result[1] if f[0] != "one"]
        require((doc["constant"] is None) == bool(atoms), "constant field set on a non-constant result")
        if doc["constant"] is not None:
            value = pra_value(Algebra([1]), result, {})
            require(Fraction(doc["constant"]) == value, "constant field disagrees with the result")

    return Job(kind, [(["qe", text, "--oracle", str(kmax)], (0,))], check)


def build(seed: int, workdir) -> tuple[list[list[Job]], list[Job]]:
    """Rounds of distinct formulas and the warm-up jobs (one per kind)."""
    rng = random.Random(seed)
    identities = rng.sample(IDENTITIES, len(IDENTITIES))
    rounds = []
    for r in range(ROUNDS):
        jobs = []
        for _ in range(12):
            f = _prefix(rng, ["y", "z"], _body(rng, SHAPE3))
            jobs.append(_qe_job("qe-open", f, 3, (4, 2), rng.randrange(1 << 30)))
        for _ in range(3):
            f = _prefix(rng, ["x", "y", "z"], _body(rng, SHAPE3))
            jobs.append(_qe_job("qe-closed", f, 3, (3, 2), rng.randrange(1 << 30)))
        for _ in range(2):
            f = _prefix(rng, WIDE[1:], _body(rng, SHAPE8))
            jobs.append(_qe_job("qe-wide", f, 1, (1, 1), rng.randrange(1 << 30)))
        for f, expected in (identities[(3 * r + i) % len(identities)] for i in range(3)):
            jobs.append(_qe_job("qe-identity", f, 3, (4, 2), rng.randrange(1 << 30), expected))
        if not rounds:
            warm = one_per_kind(jobs)  # in generation order, so its cost does not hang on the shuffle
        rng.shuffle(jobs)
        rounds.append(jobs)
    return rounds, warm
