"""Workload family-lp: LP-backed verdicts over families of small structures.

Members have 2 to 4 points on a line (positions on the 1/12 grid) and one
1-Lipschitz unary relation P; each job draws its members from a seeded pool
of 60.  Sentences have the fixed shape
    Q x. Q y. c1*d(x,y) + c2*P(x) + c3*P(y)
with seeded quantifiers and coefficients.  A round holds 20 jobs:
  * 8 ``sat THEORY ... --target COND`` over 20 members, on theories that
    the first member satisfies (the consequence margin: two LPs, no mean);
  * 4 plain ``sat`` over 20 members on theories that contain
    sup P <= a and sup (1 - P) <= b with a + b < 1, so they fail in every
    mixture (the Farkas path, exit 1);
  * 4 ``types`` of the basis {d(x,y), P(x), P(y)} in x, y over 3 members of
    3 points, one LP per generator;
  * 4 ``separate`` of 6 members with P <= 1/4 from 6 with P >= 1/2 over
    3-sentence bases that include sup x. P(x), which separates them.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path

from harness import Job, one_per_kind
from reference import Struct, evaluate, render, render_condition, require, structure_doc

COEFFS = [Fraction(n, 2) for n in (-2, -1, 1, 2)]
SIGNATURE = {
    "format_version": 1,
    "symbols": [{"name": "P", "kind": "relation", "arity": 1, "lipschitz": "1"}],
}
X, Y = ("v", "x"), ("v", "y")
SUP_P = ("sup", "x", ("rel", "P", (X,)))
SUP_NOT_P = ("sup", "x", ("sum", ((Fraction(1), ("one",)), (Fraction(-1), ("rel", "P", (X,))))))
MEMBERS = 20  # members per sat job
POOL = 60  # members per pool; each job draws its family from one
ROUNDS = 4  # distinct rounds of inputs; a run cycles through them


def _member(rng: random.Random, k: int, low: Fraction = Fraction(0), scale: Fraction = Fraction(1)) -> dict:
    """k points of [0,1] with P = low + scale * s * |pos - c|, 1-Lipschitz."""
    pos = sorted(Fraction(p, 12) for p in rng.sample(range(13), k))
    c = Fraction(rng.randrange(13), 12)
    s = Fraction(rng.randint(1, 4), 4)
    points = [f"a{i}" for i in range(k)]
    metric = [[abs(a - b) for b in pos] for a in pos]
    p_tab = {(pt,): low + scale * s * abs(a - c) for pt, a in zip(points, pos)}
    return structure_doc(points, metric, relations={"P": p_tab})


def _sentence(rng: random.Random):
    body = ("sum", tuple(
        (rng.choice(COEFFS), atom)
        for atom in (("d", X, Y), ("rel", "P", (X,)), ("rel", "P", (Y,)))
    ))
    return (rng.choice(("sup", "inf")), "x", (rng.choice(("sup", "inf")), "y", body))


def _num(r: Fraction):
    return ("sum", ((Fraction(r), ("one",)),))


class Pool:
    """Member files written once; each job draws its family from a pool, so a
    run averages over many families and not over one per seed."""

    def __init__(self, workdir: Path, name: str, docs: list[dict]):
        folder = workdir / name
        folder.mkdir()
        self.docs = docs
        self.paths = [_write(folder, f"m{i:02d}.json", doc) for i, doc in enumerate(docs)]
        self.structs = [Struct(doc) for doc in docs]
        self._values: dict[tuple[int, str], Fraction] = {}

    def value(self, i: int, f) -> Fraction:
        key = (i, render(f))
        if key not in self._values:
            self._values[key] = evaluate(self.structs[i], f)
        return self._values[key]

    def family(self, rng: random.Random, size: int) -> "Family":
        return Family(self, rng.sample(range(len(self.docs)), size))


class Family:
    """Members drawn from a pool; member k is the pool's member idx[k]."""

    def __init__(self, pool: Pool, idx: list[int]):
        self.pool = pool
        self.idx = idx
        self.paths = [pool.paths[i] for i in idx]

    def __len__(self) -> int:
        return len(self.idx)

    def struct(self, k: int) -> Struct:
        return self.pool.structs[self.idx[k]]

    def value(self, k: int, f) -> Fraction:
        return self.pool.value(self.idx[k], f)

    def directory(self, workdir: Path, name: str) -> str:
        """A directory holding just this family's member files."""
        folder = workdir / name
        folder.mkdir()
        for k, i in enumerate(self.idx):
            _write(folder, f"m{k:02d}.json", self.pool.docs[i])
        return str(folder)


def _write(folder: Path, name: str, doc) -> str:
    path = folder / name
    path.write_text(json.dumps(doc))
    return str(path)


def _theory(rng: random.Random, fam: Family, count: int):
    """`count` conditions  sigma <= t  that the first member satisfies."""
    conds = []
    for _ in range(count):
        f = _sentence(rng)
        t = fam.value(0, f) + Fraction(rng.randint(0, 2), 12)
        conds.append((f, _num(t)))
    return conds


def _sat_target_job(rng, fam: Family, workdir: Path, tag: str, sig: str) -> Job:
    conds = _theory(rng, fam, 6)
    target = _sentence(rng)
    bound = fam.value(1, target)
    theory = _write(workdir, f"theory-{tag}.json", {"conditions": [render_condition(l, r) for l, r in conds]})
    target_text = render_condition(target, _num(bound))

    def check(outputs):
        doc = json.loads(outputs[0])
        ids = [f"m{i}" for i in range(len(fam))]
        w = [Fraction(doc["minimizing_charge"]["weights"][i]) for i in ids]
        require(all(x >= 0 for x in w) and sum(w) == 1, "charge is not a probability vector")
        g = [[fam.value(i, lhs) - fam.value(i, rhs) for i in range(len(w))] for lhs, rhs in conds]
        for j, row in enumerate(g):
            require(sum(x * v for x, v in zip(w, row)) <= 0, f"charge violates condition {j}")
        c = [fam.value(i, _num(bound)) - fam.value(i, target) for i in range(len(w))]
        margin = Fraction(doc["margin"])
        require(sum(x * v for x, v in zip(w, c)) == margin, "margin is not attained by the charge")
        require(doc["is_consequence"] == (margin >= 0), "is_consequence disagrees with the margin")
        r = {e["condition"]: Fraction(e["coefficient"]) for e in doc["closure_coefficients"]}
        require(all(v >= 0 for v in r.values()), "negative closure multiplier")
        for i in range(len(w)):
            slack = c[i] + sum(rj * g[j][i] for j, rj in r.items())
            require(slack >= margin, f"closure inequality fails on member {i}")

    argv = ["sat", theory, *fam.paths, "--sig", sig, "--target", target_text]
    return Job("sat-target", [(argv, (0,))], check)


def _sat_unsat_job(rng, fam: Family, workdir: Path, tag: str, sig: str) -> Job:
    a = rng.randint(1, 5)
    b = rng.randint(1, 11 - a)  # a + b < 12
    conds = [(SUP_P, _num(Fraction(a, 12))), (SUP_NOT_P, _num(Fraction(b, 12)))] + _theory(rng, fam, 6)
    rng.shuffle(conds)
    theory = _write(workdir, f"theory-{tag}.json", {"conditions": [render_condition(l, r) for l, r in conds]})

    def check(outputs):
        doc = json.loads(outputs[0])
        require(doc["verdict"] == "unsat", "unsatisfiable theory reported satisfiable")
        margin = Fraction(doc["margin"])
        require(margin > 0, "Farkas margin is not positive")
        r = {e["condition"]: Fraction(e["coefficient"]) for e in doc["certificate"]}
        require(all(v >= 0 for v in r.values()), "negative Farkas coefficient")
        for i in range(len(fam)):
            combined = sum(rj * (fam.value(i, conds[j][0]) - fam.value(i, conds[j][1])) for j, rj in r.items())
            require(combined >= margin, f"combination does not fail member {i} by the margin")

    argv = ["sat", theory, *fam.paths, "--sig", sig]
    return Job("sat-unsat", [(argv, (1,))], check)


def _types_job(members: Family, basis: str, formulas, sig: str) -> Job:
    def tuple_type(i: int, tup) -> tuple[Fraction, ...]:
        m = members.struct(i)
        env = dict(zip(("x", "y"), tup))
        return tuple(evaluate(m, f, env) for f in formulas)

    def check(outputs):
        doc = json.loads(outputs[0])
        gens = [tuple(Fraction(v) for v in g["values"]) for g in doc["generators"]]
        realized = {
            tuple_type(i, (a, b))
            for i in range(len(members)) for a in members.struct(i).points for b in members.struct(i).points
        }
        require(set(gens) == realized and len(gens) == len(realized),
                "generators differ from the realized types")
        for g in doc["generators"]:
            w = g["realized_at"]
            got = tuple_type(w["structure"], tuple(w["tuple"]))
            require(got == tuple(Fraction(v) for v in g["values"]), "witness tuple has another type")
        verts = {tuple(Fraction(v) for v in g["values"]) for g in doc["vertices"]}
        require(verts <= set(gens), "a vertex is not a generator")
        check_rng = random.Random(len(gens))
        for _ in range(16):
            c = [check_rng.randint(-5, 5) for _ in formulas]
            scores = [sum(ci * gi for ci, gi in zip(c, g)) for g in gens]
            best = max(scores)
            if scores.count(best) == 1:
                require(gens[scores.index(best)] in verts, "unique maximizer of a functional is not a vertex")

    argv = ["types", basis, *members.paths, "--sig", sig]
    return Job("types", [(argv, (0,))], check)


def _separate_job(rng, fam_a: Family, fam_b: Family, workdir: Path, tag: str, sig: str) -> Job:
    basis = [SUP_P, _sentence(rng), _sentence(rng)]
    rng.shuffle(basis)
    path = _write(workdir, f"basis-{tag}.json", {"formulas": [render(f) for f in basis]})

    def check(outputs):
        doc = json.loads(outputs[0])
        require(doc["separable"] is True, "separable families reported not separable")
        c = [Fraction(v) for v in doc["coefficients"]]
        r, s = Fraction(doc["r"]), Fraction(doc["s"])
        require(r < s, f"separation has r={r} >= s={s}")
        require(sum(abs(x) for x in c) <= 1, "coefficients outside the unit ball")
        for fam, side in ((fam_a, "a"), (fam_b, "b")):
            for i in range(len(fam)):
                v = sum(ck * fam.value(i, f) for ck, f in zip(c, basis))
                require(v <= r if side == "a" else v >= s, f"member {i} of family {side} is on the wrong side")

    dirs = [fam_a.directory(workdir, f"low-{tag}"), fam_b.directory(workdir, f"high-{tag}")]
    argv = ["separate", *dirs, path, "--sig", sig]
    return Job("separate", [(argv, (0,))], check)


def build(seed: int, workdir: Path):
    rng = random.Random(seed)
    sig = _write(workdir, "sig.json", SIGNATURE)
    members = Pool(workdir, "pool", [_member(rng, rng.randint(2, 4)) for _ in range(POOL)])
    small = Pool(workdir, "small", [_member(rng, 3) for _ in range(POOL)])
    low = Pool(workdir, "low", [_member(rng, 3, Fraction(0), Fraction(1, 4)) for _ in range(POOL)])
    high = Pool(workdir, "high", [_member(rng, 3, Fraction(1, 2), Fraction(1, 2)) for _ in range(POOL)])
    type_formulas = [("d", X, Y), ("rel", "P", (X,)), ("rel", "P", (Y,))]
    basis = _write(workdir, "types-basis.json", {"variables": ["x", "y"], "formulas": [render(f) for f in type_formulas]})

    rounds = []
    for r in range(ROUNDS):
        jobs = [_sat_target_job(rng, members.family(rng, MEMBERS), workdir, f"t{r}{k}", sig) for k in range(8)]
        jobs += [_sat_unsat_job(rng, members.family(rng, MEMBERS), workdir, f"u{r}{k}", sig) for k in range(4)]
        jobs += [_types_job(small.family(rng, 3), basis, type_formulas, sig) for _ in range(4)]
        jobs += [_separate_job(rng, low.family(rng, 6), high.family(rng, 6), workdir, f"s{r}{k}", sig)
                 for k in range(4)]
        if not rounds:
            warm = one_per_kind(jobs)  # in generation order, so its cost does not hang on the shuffle
        rng.shuffle(jobs)
        rounds.append(jobs)
    return rounds, warm
