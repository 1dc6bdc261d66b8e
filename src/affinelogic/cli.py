"""Command-line front door.

Subcommands: validate, eval, mean, sat, separate, types, qe, check-proof,
rendezvous.  Outputs are deterministic; numerics print as exact rationals
(add --decimal for an approximate rendering where supported).  Exit codes:
0 success, 1 semantic failure (unsat / invalid / not separable / violations),
2 input error, 3 internal error.  Input and internal errors print a JSON
error object on stderr.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import sys
from fractions import Fraction
from pathlib import Path

from .errors import AffineLogicError, InputError, UnsatisfiableError
from . import pra
from .proofs import check, soundness_probe
from .satisfiability import (
    NotSeparable,
    Sat,
    Unsat,
    consequence_margin,
    sat_over_family,
    separate,
)
from .serialize import (
    FORMAT_VERSION,
    charge_to_doc,
    dump_json,
    load_basis,
    load_charge,
    load_proof,
    load_signature,
    load_structure,
    load_theory,
    mean_to_doc,
)
from .structures import eval_formula, rendezvous_value, validate
from .syntax import (
    Signature,
    Theory,
    format_formula,
    format_fraction,
    parse_condition_or_equality,
    parse_formula,
    as_fraction,
)
from .typespace import (
    TypeVector,
    logic_distance,
    make_basis,
    norm_distance,
    type_polytope,
)
from .ultramean import ultramean


class _Run:
    """Collects input/output hashes for the optional run manifest."""

    def __init__(self, argv: list[str]):
        self.argv = argv
        self.inputs: dict[str, str] = {}
        self.outputs: dict[str, str] = {}

    def record_input(self, path: str | Path):
        self.inputs[str(path)] = _sha256(path)

    def record_output(self, path: str | Path):
        self.outputs[str(path)] = _sha256(path)

    def manifest(self) -> dict:
        return {
            "format_version": FORMAT_VERSION,
            "argv": self.argv,
            "inputs": dict(sorted(self.inputs.items())),
            "outputs": dict(sorted(self.outputs.items())),
        }


def _sha256(path: str | Path) -> str:
    h = hashlib.sha256()
    h.update(Path(path).read_bytes())
    return "sha256:" + h.hexdigest()


def _emit(doc: dict) -> None:
    sys.stdout.write(dump_json(doc))


def _load_structures(run: _Run, paths: list[str], sig_path: str | None):
    structures = []
    embedded = None
    for path in paths:
        m, sig = load_structure(path)
        run.record_input(path)
        structures.append(m)
        if embedded is None and sig is not None:
            embedded = sig
    if sig_path:
        signature = load_signature(sig_path)
        run.record_input(sig_path)
    elif embedded is not None:
        signature = embedded
    else:
        signature = Signature.metric_only()
    return structures, signature


def _family_dir(run: _Run, directory: str, sig_path: str | None):
    paths = sorted(str(p) for p in Path(directory).glob("*.json"))
    if not paths:
        raise InputError(f"no *.json structure files in {directory}")
    return _load_structures(run, paths, sig_path)


def _decimalize(x: Fraction) -> str:
    return repr(float(x))


# -- subcommand implementations ---------------------------------------------


def _cmd_validate(args, run: _Run) -> int:
    (m,), sig = _load_structures(run, [args.structure], args.sig)
    report = validate(m, sig, args.p)
    _emit(
        {
            "format_version": FORMAT_VERSION,
            "valid": report.valid,
            "violations": [
                {
                    "kind": v.kind,
                    "where": v.where,
                    "amount": format_fraction(v.amount) if v.amount is not None else None,
                }
                for v in report.violations
            ],
        }
    )
    return 0 if report.valid else 1


def _cmd_eval(args, run: _Run) -> int:
    (m,), sig = _load_structures(run, [args.structure], args.sig)
    phi = parse_formula(args.formula, sig)
    asg = {}
    for item in args.assign or []:
        if "=" not in item:
            raise InputError(f"--assign needs var=point, got {item!r}")
        k, v = item.split("=", 1)
        asg[k] = v
    value = eval_formula(m, phi, asg, args.p)
    if args.decimal:
        print(f"{format_fraction(value)} ~ {_decimalize(value)}")
    else:
        print(format_fraction(value))
    return 0


def _cmd_mean(args, run: _Run) -> int:
    mu = load_charge(args.charge)
    run.record_input(args.charge)
    structures, sig = _load_structures(run, args.structures, args.sig)
    mean = ultramean(structures, mu, p=args.p)
    doc = mean_to_doc(mean, sig if args.sig else None)
    if args.check_ultramean:
        phi = parse_formula(args.check_ultramean, sig)
        if phi.free:
            raise InputError("--check-ultramean needs a sentence (no free variables)")
        mean_value = eval_formula(mean.structure, phi, None, args.p)
        values = [eval_formula(m, phi, None, args.p) for m in structures]
        weighted = sum((mu.weight(i) * v for i, v in zip(mu.ids, values)), Fraction(0))
        if mean_value != weighted:
            raise AffineLogicError(
                f"ultramean identity failed: mean value {mean_value} != weighted sum {weighted}"
            )
        print(
            f"ultramean-check pass: {format_fraction(mean_value)} = "
            + " + ".join(
                f"{format_fraction(mu.weight(i))}*{format_fraction(v)}" for i, v in zip(mu.ids, values)
            )
        )
    if args.out:
        dump_json(doc, args.out)
        run.record_output(args.out)
    elif not args.check_ultramean:
        _emit(doc)
    return 0


def _cmd_sat(args, run: _Run) -> int:
    structures, sig = _load_structures(run, args.structures, args.sig)
    theory = load_theory(args.theory, sig)
    run.record_input(args.theory)
    if args.target:
        target_list = parse_condition_or_equality(args.target, sig)
        if len(target_list) != 1:
            raise InputError("--target must be a single <= condition")
        try:
            res = consequence_margin(theory, target_list[0], structures, args.p)
        except UnsatisfiableError as exc:
            return _emit_unsat(exc.certificate, theory)
        _emit(
            {
                "format_version": FORMAT_VERSION,
                "target": args.target,
                "margin": format_fraction(res.margin),
                "is_consequence": res.is_consequence,
                "minimizing_charge": charge_to_doc(res.charge),
                "closure_coefficients": [
                    {"condition": j, "coefficient": format_fraction(c)}
                    for j, c in res.closure_coeffs
                ],
            }
        )
        return 0
    verdict = sat_over_family(theory, structures, args.p)
    if isinstance(verdict, Sat):
        _emit(
            {
                "format_version": FORMAT_VERSION,
                "verdict": "sat",
                "charge": charge_to_doc(verdict.charge),
            }
        )
        return 0
    return _emit_unsat(verdict, theory)


def _emit_unsat(verdict: Unsat, theory: Theory) -> int:
    """Print the unsat document with its Farkas certificate; exit code 1."""
    conds = list(theory)
    _emit(
        {
            "format_version": FORMAT_VERSION,
            "verdict": "unsat",
            "certificate": [
                {"condition": j, "text": str(conds[j]), "coefficient": format_fraction(c)}
                for j, c in verdict.certificate
            ],
            "margin": format_fraction(verdict.margin),
        }
    )
    return 1


def _cmd_separate(args, run: _Run) -> int:
    family_a, sig = _family_dir(run, args.family_a, args.sig)
    family_b, _ = _family_dir(run, args.family_b, args.sig)
    _, formulas = load_basis(args.basis, sig)
    run.record_input(args.basis)
    for f in formulas:
        if f.free:
            raise InputError("separation basis formulas must be sentences")
    result = separate(family_a, family_b, formulas, args.p)
    if isinstance(result, NotSeparable):
        _emit(
            {
                "format_version": FORMAT_VERSION,
                "separable": False,
                "reason": result.reason,
            }
        )
        return 1
    _emit(
        {
            "format_version": FORMAT_VERSION,
            "separable": True,
            "coefficients": [format_fraction(c) for c in result.coeffs],
            "r": format_fraction(result.r),
            "s": format_fraction(result.s),
            "sentence": " + ".join(
                f"{format_fraction(c)}*({format_formula(f)})"
                for c, f in zip(result.coeffs, formulas)
                if c != 0
            ),
        }
    )
    return 0


def _parse_type_vector(text: str, dim: int) -> tuple[Fraction, ...]:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != dim:
        raise InputError(f"type vector needs {dim} coordinates, got {len(parts)}")
    return tuple(as_fraction(p) for p in parts)


def _cmd_types(args, run: _Run) -> int:
    structures, sig = _load_structures(run, args.structures, args.sig)
    variables, formulas = load_basis(args.basis, sig)
    run.record_input(args.basis)
    basis = make_basis(variables, formulas, structures, args.p)
    poly = type_polytope(structures, basis, args.p)

    def tv_doc(tv: TypeVector) -> dict:
        kind = tv.provenance[0]
        witness = (
            {"structure": tv.provenance[1], "tuple": list(tv.provenance[2])}
            if kind == "realized"
            else None
        )
        return {
            "values": [format_fraction(v) for v in tv.values],
            "realized_at": witness,
        }

    doc = {
        "format_version": FORMAT_VERSION,
        "variables": list(basis.variables),
        "formulas": [format_formula(f) for f in basis.formulas],
        "norms": [format_fraction(v) for v in basis.norms],
        "generators": [tv_doc(tv) for tv in poly.generators],
        "vertices": [tv_doc(tv) for tv in poly.vertices],
    }
    if args.metrics:
        ptext, qtext = args.metrics
        pvec = TypeVector(_parse_type_vector(ptext, len(formulas)), ("convex", ()))
        qvec = TypeVector(_parse_type_vector(qtext, len(formulas)), ("convex", ()))
        logic = None
        for m in structures:
            try:
                d = logic_distance(pvec, qvec, m, basis, args.p)
            except AffineLogicError:
                continue
            logic = d if logic is None else min(logic, d)
        if logic is None:
            raise InputError("no family member realizes both type vectors")
        doc["metrics"] = {
            "logic": format_fraction(logic),
            "norm": format_fraction(norm_distance(pvec, qvec, basis)),
        }
    _emit(doc)
    return 0


def _cmd_qe(args, run: _Run) -> int:
    if args.oracle < 1:
        raise InputError(f"--oracle needs at least 1 atom, got {args.oracle}")
    sig = pra.pra_signature()
    phi = parse_formula(args.formula, sig)
    result = pra.qe(phi)
    doc = {
        "format_version": FORMAT_VERSION,
        "input": args.formula,
        "result": pra.format_pra(result),
        "constant": format_fraction(result.constant) if result.is_constant else None,
    }
    algebras = pra.algebras_up_to(args.oracle, 4)
    free = sorted(phi.free)
    check = pra.as_formula(result)
    checked = 0
    for alg in algebras:
        table = pra.oracle_table(phi, alg, free)
        if table != pra.oracle_table(check, alg, free):
            doc["oracle"] = {"verified": False, "algebra": [format_fraction(w) for w in alg.weights]}
            _emit(doc)
            return 1
        checked += len(table)
    doc["oracle"] = {
        "verified": True,
        "algebras": len(algebras),
        "evaluations": checked,
    }
    _emit(doc)
    return 0


def _cmd_check_proof(args, run: _Run) -> int:
    if args.sig:
        sig = load_signature(args.sig)
        run.record_input(args.sig)
    else:
        sig = Signature.metric_only()
    theory_doc = load_theory(args.theory, sig)
    run.record_input(args.theory)
    proof = load_proof(args.proof, sig)
    run.record_input(args.proof)
    result = check(proof, list(theory_doc))
    doc = {
        "format_version": FORMAT_VERSION,
        "valid": result.valid,
    }
    if not result.valid:
        doc["path"] = result.path
        doc["reason"] = result.reason
        _emit(doc)
        return 1
    if args.probe:
        family, _ = _family_dir(run, args.probe, args.sig)
        report = soundness_probe(proof, list(theory_doc), family)
        doc["probe"] = {
            "checked": report.checked,
            "skipped": report.skipped,
            "violations": [
                {"structure": v.structure_index, "margin": format_fraction(v.margin)}
                for v in report.violations
            ],
        }
        _emit(doc)
        return 0 if report.sound else 1
    _emit(doc)
    return 0


def _cmd_rendezvous(args, run: _Run) -> int:
    (m,), _sig = _load_structures(run, [args.structure], args.sig)
    lower, upper = rendezvous_value(m, args.n)
    _emit(
        {
            "format_version": FORMAT_VERSION,
            "n": args.n,
            "lower": format_fraction(lower),
            "upper": format_fraction(upper),
        }
    )
    return 0


# -- argument parsing ---------------------------------------------------------


@functools.lru_cache(maxsize=1)
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parse_args keeps no state
    between calls, each call gets a fresh namespace."""
    top = argparse.ArgumentParser(
        prog="affinelogic",
        description="Workbench for affine continuous logic over finite metric structures.",
    )
    top.add_argument("--manifest", help="write a run manifest (inputs/outputs hashed) to this path")
    sub = top.add_subparsers(dest="command", required=True)

    def add(name: str, help_: str, *reads: str):
        p = sub.add_parser(name, help=help_, allow_abbrev=False)  # --p is no --probe
        if "--sig" in reads:
            p.add_argument("--sig", help="signature JSON file")
        if "--p" in reads:
            p.add_argument("--p", type=int, default=1, help="evaluation exponent (default 1)")
        return p

    p = add("validate", "check structure invariants against a signature", "--sig")
    p.add_argument("structure")
    p.add_argument("--p", type=int, help="Lipschitz exponent (default: the file's metric_power)")

    p = add("eval", "evaluate a formula in a structure", "--sig", "--p")
    p.add_argument("structure")
    p.add_argument("formula")
    p.add_argument("--assign", action="append", metavar="VAR=POINT")
    p.add_argument("--decimal", action="store_true", help="append a decimal rendering")

    p = add("mean", "build the mean of structures under a charge", "--sig", "--p")
    p.add_argument("charge")
    p.add_argument("structures", nargs="+")
    p.add_argument("--out", help="write the mean structure file here")
    p.add_argument(
        "--check-ultramean",
        metavar="SENTENCE",
        help="verify value(mean) = weighted sum of member values for this sentence",
    )

    p = add("sat", "decide affine satisfiability of a theory over a family", "--sig", "--p")
    p.add_argument("theory")
    p.add_argument("structures", nargs="+")
    p.add_argument("--target", help="condition: report its consequence margin instead")

    p = add("separate", "find a basic condition separating two families", "--sig", "--p")
    p.add_argument("family_a", help="directory of structure JSON files")
    p.add_argument("family_b", help="directory of structure JSON files")
    p.add_argument("basis", help="basis JSON file of sentences")

    p = add("types", "realized-type polytope over a formula basis", "--sig", "--p")
    p.add_argument("basis")
    p.add_argument("structures", nargs="+")
    p.add_argument(
        "--metrics",
        nargs=2,
        metavar=("P", "Q"),
        help="two type vectors (comma-separated rationals): print logic/norm distances",
    )

    p = add("qe", "eliminate quantifiers from a probability-algebra formula")
    p.add_argument("formula")
    p.add_argument(
        "--oracle",
        type=int,
        default=2,
        metavar="KMAX",
        help="verify against the exhaustive oracle on algebras with up to KMAX atoms",
    )

    p = add("check-proof", "validate a proof tree against a theory", "--sig")
    p.add_argument("proof")
    p.add_argument("theory")
    p.add_argument("--probe", metavar="DIR", help="soundness-probe on structures in DIR")

    p = add("rendezvous", "n-point rendez-vous bracket of a structure", "--sig")
    p.add_argument("structure")
    p.add_argument("--n", type=int, required=True)

    return top


_COMMANDS = {
    "validate": _cmd_validate,
    "eval": _cmd_eval,
    "mean": _cmd_mean,
    "sat": _cmd_sat,
    "separate": _cmd_separate,
    "types": _cmd_types,
    "qe": _cmd_qe,
    "check-proof": _cmd_check_proof,
    "rendezvous": _cmd_rendezvous,
}


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    args = parser.parse_args(argv)
    run = _Run(argv)
    try:
        code = _COMMANDS[args.command](args, run)
    except AffineLogicError as exc:
        sys.stderr.write(
            dump_json({"error": {"type": type(exc).__name__, "message": str(exc)}})
        )
        return 2
    except Exception as exc:  # a bug, never a verdict: report it without a traceback
        sys.stderr.write(
            dump_json(
                {
                    "error": {
                        "type": "internal",
                        "exception": type(exc).__name__,
                        "message": str(exc),
                    }
                }
            )
        )
        return 3
    if args.manifest:
        dump_json(run.manifest(), args.manifest)
    return code


if __name__ == "__main__":
    sys.exit(main())
