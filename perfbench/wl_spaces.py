"""Workload space-sentences: quantified sentences on discretized spaces.

Spaces come from ``affinelogic.spaces`` (circle with geodesic and chord
metrics, sphere, interval, Cantor endpoints) at fixed sizes; the seed
relabels and reorders their points, draws the coefficients of the extra
sentences and orders the jobs.  A round holds 20 jobs:
  * 8 ``eval`` of the 2- and 3-point rendez-vous sentences;
  * 4 ``eval`` of a random three-quantifier sentence in d;
  * 4 ``rendezvous --n 2|3`` on the larger spaces;
  * 2 ``separate`` of a chord-circle directory from a sphere directory over
    the 3-point inf-sup sentence, in both directions;
  * 2 ``check-proof --probe`` of a valid proof with free variables over a
    directory of spaces.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path

from affinelogic import spaces

from harness import Job, one_per_kind
from reference import (
    Struct,
    evaluate,
    has_antipodal_pair,
    render,
    rendezvous_brackets,
    require,
    structure_doc,
)

COEFFS = [Fraction(n, 2) for n in (-2, -1, 1, 2)]


def rendezvous_sentence(n: int, lower: bool) -> str:
    xs = [f"x{i + 1}" for i in range(n)]
    outer, inner = ("sup", "inf") if lower else ("inf", "sup")
    avg = " + ".join(f"1/{n}*d({x},y)" for x in xs)
    return "".join(f"{outer} {x}. " for x in xs) + f"{inner} y. {avg}"


class Spaces:
    """Structure files written from generated spaces, read back for checks."""

    def __init__(self, rng: random.Random, workdir: Path):
        self.rng = rng
        self.dir = workdir
        self.paths: dict[str, str] = {}
        self._read: dict[str, Struct] = {}
        self._brackets: dict[tuple[str, int], tuple[Fraction, Fraction]] = {}

    def add(self, key: str, m, subdir: str = "") -> None:
        """Write m with its points relabelled and shuffled by the seed."""
        order = list(range(len(m.points)))
        self.rng.shuffle(order)
        labels = {m.points[i]: f"q{k}" for k, i in enumerate(order)}
        points = [labels[m.points[i]] for i in order]
        metric = [[m.metric[i][j] for j in order] for i in order]
        folder = self.dir / subdir if subdir else self.dir
        folder.mkdir(exist_ok=True)
        path = folder / f"{key}.json"
        path.write_text(json.dumps(structure_doc(points, metric)))
        self.paths[key] = str(path)

    def struct(self, key: str) -> Struct:
        if key not in self._read:
            self._read[key] = Struct.load(self.paths[key])
        return self._read[key]

    def brackets(self, key: str, n: int) -> tuple[Fraction, Fraction]:
        if (key, n) not in self._brackets:
            self._brackets[(key, n)] = rendezvous_brackets(self.struct(key), n)
        return self._brackets[(key, n)]


def _eval_bracket_job(sp: Spaces, key: str, n: int, lower: bool) -> Job:
    def check(outputs):
        lo, hi = sp.brackets(key, n)
        value = Fraction(outputs[0].strip())
        require(value == (lo if lower else hi), f"{key}: eval gave {value}, loops give {(lo, hi)}")
        if lower and n == 2 and has_antipodal_pair(sp.struct(key)):
            require(value == Fraction(1, 2), f"{key}: 2-point lower value {value} != 1/2")

    text = rendezvous_sentence(n, lower)
    return Job(f"eval-rv{n}", [(["eval", sp.paths[key], text], (0,))], check)


def _eval_sentence_job(sp: Spaces, key: str, rng: random.Random) -> Job:
    x, y, z = ("v", "x"), ("v", "y"), ("v", "z")
    body = ("sum", tuple((rng.choice(COEFFS), ("d", a, b)) for a, b in ((x, y), (y, z), (x, z))))
    f = body
    for v in ("z", "y", "x"):
        f = (rng.choice(("sup", "inf")), v, f)

    def check(outputs):
        want = evaluate(sp.struct(key), f)
        got = Fraction(outputs[0].strip())
        require(got == want, f"{key}: eval {render(f)} gave {got}, loops give {want}")

    return Job("eval-sentence", [(["eval", sp.paths[key], render(f)], (0,))], check)


def _rendezvous_job(sp: Spaces, key: str, n: int) -> Job:
    def check(outputs):
        doc = json.loads(outputs[0])
        lo, hi = sp.brackets(key, n)
        require(doc["n"] == n, "wrong n echoed")
        got = (Fraction(doc["lower"]), Fraction(doc["upper"]))
        require(got == (lo, hi), f"{key}: rendezvous gave {got}, loops give {(lo, hi)}")
        if n == 2 and has_antipodal_pair(sp.struct(key)):
            require(got[0] == Fraction(1, 2), f"{key}: 2-point lower value {got[0]} != 1/2")

    return Job(f"rendezvous-{n}", [(["rendezvous", sp.paths[key], "--n", str(n)], (0,))], check)


def _separate_job(sp: Spaces, dir_a: str, keys_a, dir_b: str, keys_b, basis: str) -> Job:
    def check(outputs):
        doc = json.loads(outputs[0])
        require(doc["separable"] is True, "families reported not separable")
        (c,) = [Fraction(v) for v in doc["coefficients"]]
        r, s = Fraction(doc["r"]), Fraction(doc["s"])
        require(r < s, f"separation has r={r} >= s={s}")
        require(abs(c) <= 1, "coefficient outside the unit ball")
        vals_a = [c * sp.brackets(k, 3)[1] for k in keys_a]
        vals_b = [c * sp.brackets(k, 3)[1] for k in keys_b]
        require(max(vals_a) == r, f"r={r} but the first family's largest value is {max(vals_a)}")
        require(min(vals_b) == s, f"s={s} but the second family's smallest value is {min(vals_b)}")

    return Job("separate", [(["separate", dir_a, dir_b, basis], (0,))], check)


def _probe_job(sp: Spaces, proof: str, theory: str, folder: str, members: int) -> Job:
    def check(outputs):
        doc = json.loads(outputs[0])
        require(doc["valid"] is True, "valid proof rejected")
        probe = doc["probe"]
        require(probe["violations"] == [], f"probe reported violations {probe['violations']}")
        require(probe["checked"] == members and probe["skipped"] == 0,
                f"probe checked {probe['checked']} and skipped {probe['skipped']} of {members}")

    return Job("probe", [(["check-proof", proof, theory, "--probe", folder], (0,))], check)


# d(x,z) <= d(y,z) + d(x,y): the triangle axiom, then commutativity of +.
PROOF = {
    "format_version": 1,
    "concl": "d(x,z) <= d(y,z) + d(x,y)",
    "by": "R1",
    "premises": [
        {"concl": "d(x,z) <= d(x,y) + d(y,z)", "by": "A19"},
        {"concl": "d(x,y) + d(y,z) <= d(y,z) + d(x,y)", "by": "A5"},
    ],
}


def build(seed: int, workdir: Path):
    rng = random.Random(seed)
    sp = Spaces(rng, workdir)
    for n in (8, 16, 20):
        sp.add(f"geo{n}", spaces.circle(n))
        sp.add(f"chord{n}", spaces.circle(n, "chord"))
        sp.add(f"sphere{n}", spaces.sphere(n))
    sp.add("interval21", spaces.interval(21))
    sp.add("cantor3", spaces.cantor(3))
    sp.add("geo64", spaces.circle(64))
    sp.add("sphere64", spaces.sphere(64))
    sp.add("chord32", spaces.circle(32, "chord"))
    sp.add("sphere32", spaces.sphere(32))
    # The 6-point circles (chord 2049/3072, geodesic 5/9) have smaller
    # 3-point inf-sup values than the 6- and 8-point spheres (at least
    # 2977/4096), so the two directories separate.
    circles = ["sep_chord6", "sep_geo6"]
    spheres = ["sep_sphere6", "sep_sphere8"]
    sp.add("sep_chord6", spaces.circle(6, "chord"), "circles")
    sp.add("sep_geo6", spaces.circle(6), "circles")
    sp.add("sep_sphere6", spaces.sphere(6), "spheres")
    sp.add("sep_sphere8", spaces.sphere(8), "spheres")
    probe_keys = ["pr_geo8", "pr_chord9", "pr_sphere8", "pr_interval9", "pr_cantor2"]
    sp.add("pr_geo8", spaces.circle(8), "probe")
    sp.add("pr_chord9", spaces.circle(9, "chord"), "probe")
    sp.add("pr_sphere8", spaces.sphere(8), "probe")
    sp.add("pr_interval9", spaces.interval(9), "probe")
    sp.add("pr_cantor2", spaces.cantor(2), "probe")

    basis = workdir / "basis3.json"
    basis.write_text(json.dumps({"format_version": 1, "formulas": [rendezvous_sentence(3, False)]}))
    proof = workdir / "proof.json"
    proof.write_text(json.dumps(PROOF))
    theory = workdir / "theory.json"
    theory.write_text(json.dumps({"format_version": 1, "conditions": ["sup x. sup y. d(x,y) <= 1"]}))

    rounds = []
    for _ in range(3):
        jobs = [
            _eval_bracket_job(sp, "geo20", 2, False),
            _eval_bracket_job(sp, "chord20", 2, False),
            _eval_bracket_job(sp, "sphere20", 2, False),
            _eval_bracket_job(sp, "interval21", 2, True),
            _eval_bracket_job(sp, "cantor3", 2, True),
            _eval_bracket_job(sp, "chord8", 3, False),
            _eval_bracket_job(sp, "sphere8", 3, False),
            _eval_bracket_job(sp, "geo8", 3, True),
            _rendezvous_job(sp, "geo64", 2),
            _rendezvous_job(sp, "sphere64", 2),
            _rendezvous_job(sp, "chord32", 3),
            _rendezvous_job(sp, "sphere32", 3),
            _separate_job(sp, str(workdir / "circles"), circles, str(workdir / "spheres"), spheres, str(basis)),
            _separate_job(sp, str(workdir / "spheres"), spheres, str(workdir / "circles"), circles, str(basis)),
            _probe_job(sp, str(proof), str(theory), str(workdir / "probe"), len(probe_keys)),
            _probe_job(sp, str(proof), str(theory), str(workdir / "probe"), len(probe_keys)),
        ]
        for key in ("geo16", "chord16", "sphere16", "cantor3"):
            jobs.append(_eval_sentence_job(sp, key, rng))
        if not rounds:
            warm = one_per_kind(jobs)  # in generation order, so its cost does not hang on the shuffle
        rng.shuffle(jobs)
        rounds.append(jobs)
    return rounds, warm
