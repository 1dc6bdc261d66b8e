"""Workload mean-validate: build means, check the mean-value identity, validate.

Members are points on a line (positions on the 1/12 grid) with a unary
function F and relations P (unary) and R (binary) drawn at random; each
symbol's declared Lipschitz constant is the smallest integer that every
member of the job satisfies, so members, and therefore their means, are
valid.  A round holds 20 jobs:
  * 12 ``mean`` (F, P, R; 2x3x4 = 24 tuples with a zero weight on the first
    member, so the quotient collapses them to 12 classes)
    ``--check-ultramean``, then ``validate`` of the mean;
  * 4 ``mean --p 2`` (F, P; 6x6 = 36 tuples), validated through the
    root-sum comparisons;
  * 4 ``validate`` of a mean file corrupted at one relation entry (out of
    range), function entry (breaking its Lipschitz bound) or metric entry
    (asymmetric), which must exit 1 naming that entry; the means are built
    by the benchmark's own code.
"""

from __future__ import annotations

import json
import math
import random
from fractions import Fraction
from pathlib import Path

from harness import Job, one_per_kind
from reference import CheckFailed, Struct, evaluate, frac_text, product_mean, render, require, structure_doc

ROUNDS = 4  # distinct rounds of inputs; a run cycles through them
X, Y = ("v", "x"), ("v", "y")
F_X = ("fn", "F", (X,))
# sentences checked through --check-ultramean
FULL_SENTENCE = ("sup", "x", ("inf", "y", ("sum", (
    (Fraction(1), ("rel", "R", (X, Y))), (Fraction(1, 2), ("d", F_X, Y))))))
P2_SENTENCE = ("sup", "x", ("inf", "y", ("sum", (
    (Fraction(1), ("rel", "P", (X,))), (Fraction(1), ("d", F_X, Y))))))


def _member(rng: random.Random, k: int, binary: bool) -> dict:
    pos = sorted(Fraction(p, 12) for p in rng.sample(range(13), k))
    points = [f"a{i}" for i in range(k)]
    metric = [[abs(a - b) for b in pos] for a in pos]
    functions = {"F": {(p,): rng.choice(points) for p in points}}
    relations = {"P": {(p,): Fraction(rng.randint(0, 12), 12) for p in points}}
    if binary:
        relations["R"] = {(p, q): Fraction(rng.randint(0, 12), 12) for p in points for q in points}
    return structure_doc(points, metric, functions, relations)


def _lipschitz(members: list[Struct], binary: bool) -> dict:
    """The smallest integer constants every member satisfies (at least 1)."""
    lam = {"F": Fraction(1), "P": Fraction(1), "R": Fraction(1)}
    for m in members:
        pts = m.points
        for a in pts:
            for b in pts:
                if a == b:
                    continue
                d = m.dist(a, b)
                lam["F"] = max(lam["F"], m.dist(m.functions["F"][(a,)], m.functions["F"][(b,)]) / d)
                lam["P"] = max(lam["P"], abs(m.relations["P"][(a,)] - m.relations["P"][(b,)]) / d)
        if binary:
            tab = m.relations["R"]
            for x1 in pts:
                for x2 in pts:
                    for y1 in pts:
                        for y2 in pts:
                            d = m.dist(x1, y1) + m.dist(x2, y2)
                            if d:
                                lam["R"] = max(lam["R"], abs(tab[(x1, x2)] - tab[(y1, y2)]) / d)
    symbols = [
        {"name": "F", "kind": "function", "arity": 1, "lipschitz": str(math.ceil(lam["F"]))},
        {"name": "P", "kind": "relation", "arity": 1, "lipschitz": str(math.ceil(lam["P"]))},
    ]
    if binary:
        symbols.append({"name": "R", "kind": "relation", "arity": 2, "lipschitz": str(math.ceil(lam["R"]))})
    return {"format_version": 1, "symbols": symbols}


def _write(path: Path, doc) -> str:
    path.write_text(json.dumps(doc))
    return str(path)


def _mean_job(rng, workdir: Path, tag: str, kind: str, sizes, binary: bool, p: int,
              sentence, zero_weight: bool = False) -> Job:
    docs = [_member(rng, k, binary) for k in sizes]
    members = [Struct(doc) for doc in docs]
    paths = [_write(workdir / f"{tag}-m{i}.json", doc) for i, doc in enumerate(docs)]
    sig = _write(workdir / f"{tag}-sig.json", _lipschitz(members, binary))
    raw = [rng.randint(1, 4) for _ in docs]
    if zero_weight:
        raw[0] = 0
    weights = [Fraction(w, sum(raw)) for w in raw]
    charge = _write(workdir / f"{tag}-charge.json",
                    {"weights": {f"i{i}": frac_text(w) for i, w in enumerate(weights)}})
    out = str(workdir / f"{tag}-mean.json")
    classes = math.prod(k for k, w in zip(sizes, weights) if w)
    text = render(sentence)

    def check(outputs):
        line = outputs[0].strip()
        require(line.startswith("ultramean-check pass: "), f"unexpected mean output {line[:80]!r}")
        value = Fraction(line.split(": ", 1)[1].split(" = ", 1)[0])
        member_values = [evaluate(m, sentence, None, p) for m in members]
        weighted = sum(w * v for w, v in zip(weights, member_values))
        require(value == weighted, f"mean value {value} != weighted member values {weighted}")
        mean = Struct.load(out)
        require(len(mean.points) == classes, f"mean has {len(mean.points)} points, expected {classes}")
        require(evaluate(mean, sentence, None, p) == weighted, "sentence value on the mean file differs")
        report = json.loads(outputs[1])
        require(report["valid"] is True and report["violations"] == [],
                f"mean of valid members reported invalid: {report['violations'][:3]}")

    p_args = ["--p", str(p)] if p != 1 else []
    calls = [
        (["mean", charge, *paths, "--sig", sig, "--out", out, "--check-ultramean", text, *p_args], (0,)),
        (["validate", out, "--sig", sig, *p_args], (0,)),
    ]
    return Job(kind, calls, check)


def _corrupt(rng: random.Random, doc: dict, sig_path: str, what: str, dest: Path):
    """Write a mean document with one entry broken.

    Returns the file's path, the violation kind and the texts that the
    violation's ``where`` must contain.
    """
    sig = json.loads(Path(sig_path).read_text())
    n = len(doc["points"])
    if what == "relation":
        row = rng.choice(doc["relations"]["P"])
        row[-1] = "3/2"
        kind, names = "relation-out-of-range", ["P", row[0]]
    elif what == "function":
        # Send F(a) far from F(b), for b nearest to a, so that F is no
        # longer lam-Lipschitz at (a, b).
        lam = Fraction(next(s["lipschitz"] for s in sig["symbols"] if s["name"] == "F"))
        metric = [Fraction(e) for e in doc["metric"]]
        index = {pt: i for i, pt in enumerate(doc["points"])}
        table = {row[0]: row for row in doc["functions"]["F"]}
        rows = list(table.values())
        rng.shuffle(rows)
        for row in rows:
            a = index[row[0]]
            b = min((j for j in range(n) if j != a), key=lambda j: metric[a * n + j])
            fb = index[table[doc["points"][b]][-1]]
            z = max(range(n), key=lambda j: metric[j * n + fb])
            if metric[z * n + fb] > lam * metric[a * n + b]:
                row[-1] = doc["points"][z]
                break
        else:
            raise CheckFailed("no function entry can be corrupted into a Lipschitz violation")
        kind, names = "function-lipschitz", [f"F('{row[0]}',)"]
    else:
        i, j = rng.sample(range(n), 2)
        old = Fraction(doc["metric"][i * n + j])
        doc["metric"][i * n + j] = frac_text(old / 2)
        kind, names = "asymmetric-metric", [f"d({doc['points'][i]},{doc['points'][j]})"]
    return _write(dest, doc), kind, names


def _corrupt_job(path: str, sig: str, kind: str, names: list[str], p: int) -> Job:
    def check(outputs):
        report = json.loads(outputs[0])
        require(report["valid"] is False, "corrupted mean reported valid")
        hits = [v for v in report["violations"] if v["kind"] == kind and all(s in v["where"] for s in names)]
        require(bool(hits), f"no {kind} violation at {names}: {report['violations'][:3]}")

    p_args = ["--p", str(p)] if p != 1 else []
    return Job("validate-corrupt", [(["validate", path, "--sig", sig, *p_args], (1,))], check)


def build(seed: int, workdir: Path):
    rng = random.Random(seed)
    rounds = []
    for r in range(ROUNDS):
        jobs = [_mean_job(rng, workdir, f"f{r}{k}", "mean", (2, 3, 4), True, 1, FULL_SENTENCE,
                          zero_weight=True) for k in range(12)]
        jobs += [_mean_job(rng, workdir, f"q{r}{k}", "mean-p2", (6, 6), False, 2, P2_SENTENCE)
                 for k in range(4)]
        rounds.append(jobs)
    # Corrupted copies of means, one per kind of entry; the means are built
    # here from their members, so set-up runs none of the program.
    corrupt = []
    for binary, sizes, what, p in ((True, (3, 4), "relation", 1), (False, (4, 5), "function", 1),
                                   (False, (5, 5), "metric", 2), (True, (3, 3), "metric", 1)):
        members = [Struct(_member(rng, k, binary)) for k in sizes]
        sig = _write(workdir / f"corrupt-{len(corrupt)}-sig.json", _lipschitz(members, binary))
        raw = [rng.randint(1, 4) for _ in members]
        mean = product_mean(members, [Fraction(w, sum(raw)) for w in raw], p)
        path, kind, names = _corrupt(rng, mean, sig, what, workdir / f"corrupt-{len(corrupt)}.json")
        corrupt.append(_corrupt_job(path, sig, kind, names, p))
    warm = one_per_kind(rounds[0] + corrupt)  # in generation order, so its cost does not hang on the shuffle
    for jobs in rounds:
        jobs += corrupt
        rng.shuffle(jobs)
    return rounds, warm
