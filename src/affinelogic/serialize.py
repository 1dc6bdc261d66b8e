"""JSON file formats: signatures, structures, charges, theories, bases, proofs.

All numerics are exact rationals rendered as "p/q" strings (plain "p" for
integers); decimal input is rejected.  Every document carries format_version.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path
from typing import Any

from .errors import InputError
from .proofs import ProofNode
from .structures import FiniteStructure
from .syntax import (
    Condition,
    Formula,
    Signature,
    Symbol,
    Theory,
    as_fraction,
    format_condition,
    format_fraction,
    parse_condition_or_equality,
    parse_formula,
    parse_term,
)
from .ultramean import Charge, MeanStructure, _tuple_id

FORMAT_VERSION = 1


def _load_json(path: str | Path) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise InputError(f"no such file: {path}") from None
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: not valid JSON ({exc})") from None
    except RecursionError:
        raise InputError(f"{path}: nested too deeply to decode as JSON") from None


def dump_json(doc: Any, path: str | Path | None = None) -> str:
    text = json.dumps(doc, indent=2) + "\n"
    if path is not None:
        Path(path).write_text(text, encoding="utf-8")
    return text


def _expect(value: Any, kind: type, where: str) -> Any:
    """value, which the document must give as a JSON list (kind=list) or object (dict)."""
    if not isinstance(value, kind):
        shape = "a list" if kind is list else "an object"
        raise InputError(f"{where} must be {shape}, got {type(value).__name__}")
    return value


def _int(value: Any, where: str) -> int:
    if isinstance(value, (int, str)) and not isinstance(value, bool):
        try:
            return int(value)
        except ValueError:
            pass
    raise InputError(f"{where} must be an integer, got {value!r}")


def _frac(value: Any, where: str) -> Fraction:
    if isinstance(value, str) or isinstance(value, int):
        try:
            return as_fraction(value)
        except Exception:
            pass
    raise InputError(f"{where}: expected an exact rational 'p/q' string, got {value!r}")


# -- signatures -------------------------------------------------------------


def signature_to_doc(sig: Signature) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "symbols": [
            {
                "name": s.name,
                "kind": s.kind,
                "arity": s.arity,
                "lipschitz": format_fraction(s.lipschitz),
            }
            for s in sig.symbols()
        ],
    }


def signature_from_doc(doc: Any) -> Signature:
    if not isinstance(doc, dict) or "symbols" not in doc:
        raise InputError("signature document needs a 'symbols' list")
    syms = []
    for item in _expect(doc["symbols"], list, "signature symbols"):
        item = _expect(item, dict, "signature symbol")
        name = item.get("name", "")
        if not isinstance(name, str):
            raise InputError(f"symbol name must be a string, got {name!r}")
        syms.append(
            Symbol(
                name,
                item.get("kind"),
                _int(item.get("arity", 0), f"symbol {name}: arity"),
                _frac(item.get("lipschitz", "0"), f"symbol {name}"),
            )
        )
    return Signature(syms)


def load_signature(path: str | Path) -> Signature:
    return signature_from_doc(_load_json(path))


# -- structures -------------------------------------------------------------


def structure_to_doc(
    m: FiniteStructure,
    signature: Signature | None = None,
    provenance: dict | None = None,
) -> dict:
    n = len(m.points)
    doc: dict[str, Any] = {
        "format_version": FORMAT_VERSION,
        "points": list(m.points),
        "metric": [
            format_fraction(m.metric[i][j]) for i in range(n) for j in range(n)
        ],
        "constants": dict(sorted(m.constants.items())),
        "functions": {
            f: [list(args) + [val] for args, val in sorted(tab.items())]
            for f, tab in sorted(m.functions.items())
        },
        "relations": {
            r: [list(args) + [format_fraction(val)] for args, val in sorted(tab.items())]
            for r, tab in sorted(m.relations.items())
        },
    }
    if m.metric_power != 1:
        doc["metric_power"] = m.metric_power
    if signature is not None:
        doc["signature"] = signature_to_doc(signature)
    if provenance is not None:
        doc["provenance"] = provenance
    return doc


def _table_rows(table: Any, what: str) -> list:
    """A table's rows, each its args then its value, all of one length."""
    rows = _expect(table, list, what)
    for row in rows:
        if not isinstance(row, list) or len(row) < 2:
            raise InputError(f"{what}: table rows need args and a value")
        if len(row) != len(rows[0]):
            raise InputError(
                f"{what}: table rows have different lengths ({len(rows[0])} and {len(row)})"
            )
    return rows


def structure_from_doc(doc: Any) -> tuple[FiniteStructure, Signature | None]:
    if not isinstance(doc, dict):
        raise InputError("structure document must be a JSON object")
    try:
        points = [str(p) for p in _expect(doc["points"], list, "points")]
        flat = _expect(doc["metric"], list, "metric")
    except KeyError as exc:
        raise InputError(f"structure document is missing {exc}") from None
    power = _int(doc.get("metric_power", 1), "metric_power")
    if power < 1:
        raise InputError(f"metric_power must be at least 1, got {power}")
    n = len(points)
    if len(flat) != n * n:
        raise InputError(f"metric must have {n}*{n} row-major entries, got {len(flat)}")
    rows = tuple(
        tuple(_frac(flat[i * n + j], f"metric[{i}][{j}]") for j in range(n))
        for i in range(n)
    )
    functions = {}
    for fname, table in _expect(doc.get("functions") or {}, dict, "functions").items():
        tab = {}
        for row in _table_rows(table, f"function {fname}"):
            tab[tuple(map(str, row[:-1]))] = str(row[-1])
        functions[fname] = tab
    relations = {}
    for rname, table in _expect(doc.get("relations") or {}, dict, "relations").items():
        tab_r = {}
        for row in _table_rows(table, f"relation {rname}"):
            tab_r[tuple(map(str, row[:-1]))] = _frac(row[-1], f"relation {rname}")
        relations[rname] = tab_r
    m = FiniteStructure(
        points=tuple(points),
        metric=rows,
        constants={
            str(k): str(v)
            for k, v in _expect(doc.get("constants") or {}, dict, "constants").items()
        },
        functions=functions,
        relations=relations,
        metric_power=power,
    )
    sig = signature_from_doc(doc["signature"]) if "signature" in doc else None
    return m, sig


def load_structure(path: str | Path) -> tuple[FiniteStructure, Signature | None]:
    return structure_from_doc(_load_json(path))


def mean_to_doc(mean: MeanStructure, signature: Signature | None = None) -> dict:
    classes: dict[str, list[str]] = {}
    for tup, rep in mean.class_of.items():
        classes.setdefault(rep, []).append(_tuple_id(tup))
    provenance = {
        "charge": charge_to_doc(mean.charge),
        "family_size": mean.family_size,
        "p": mean.p,
        "classes": {k: sorted(v) for k, v in sorted(classes.items())},
    }
    return structure_to_doc(mean.structure, signature, provenance)


# -- charges ----------------------------------------------------------------


def charge_to_doc(mu: Charge) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "weights": {i: format_fraction(mu.weights[i]) for i in mu.ids},
    }


def charge_from_doc(doc: Any) -> Charge:
    if not isinstance(doc, dict) or "weights" not in doc:
        raise InputError("charge document needs a 'weights' object")
    weights = {
        str(k): _frac(v, f"weight of {k}")
        for k, v in _expect(doc["weights"], dict, "charge weights").items()
    }
    return Charge(tuple(weights.keys()), weights)


def load_charge(path: str | Path) -> Charge:
    return charge_from_doc(_load_json(path))


# -- theories ---------------------------------------------------------------


def theory_to_doc(theory: Theory) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "conditions": [format_condition(c) for c in theory],
    }


def theory_from_doc(doc: Any, sig: Signature) -> Theory:
    if isinstance(doc, list):  # bare list of condition strings
        items = doc
    elif isinstance(doc, dict) and "conditions" in doc:
        items = _expect(doc["conditions"], list, "theory conditions")
    else:
        raise InputError("theory document needs a 'conditions' list")
    conds: list[Condition] = []
    for text in items:
        conds.extend(parse_condition_or_equality(str(text), sig))
    return Theory(tuple(conds))


def load_theory(path: str | Path, sig: Signature) -> Theory:
    return theory_from_doc(_load_json(path), sig)


# -- formula bases ----------------------------------------------------------


def basis_from_doc(doc: Any, sig: Signature) -> tuple[tuple[str, ...], list[Formula]]:
    """Returns (variables, formulas); norms are computed later from a family."""
    if isinstance(doc, dict) and "formulas" in doc:
        variables = tuple(
            str(v) for v in _expect(doc.get("variables", []), list, "basis variables")
        )
        texts = _expect(doc["formulas"], list, "basis formulas")
    elif isinstance(doc, list):
        variables = ()
        texts = doc
    else:
        raise InputError("basis document needs a 'formulas' list")
    formulas = [parse_formula(str(t), sig) for t in texts]
    if not variables:
        seen: list[str] = []
        for f in formulas:
            for v in sorted(f.free):
                if v not in seen:
                    seen.append(v)
        variables = tuple(sorted(seen))
    return variables, formulas


def load_basis(path: str | Path, sig: Signature) -> tuple[tuple[str, ...], list[Formula]]:
    return basis_from_doc(_load_json(path), sig)


# -- proofs -----------------------------------------------------------------


def proof_from_doc(doc: Any, sig: Signature) -> ProofNode:
    if not isinstance(doc, dict) or "concl" not in doc or "by" not in doc:
        raise InputError("proof node needs 'concl' and 'by'")
    concl_list = parse_condition_or_equality(str(doc["concl"]), sig)
    if len(concl_list) != 1:
        raise InputError(
            "proof nodes carry a single <= condition; encode an equality as two nodes"
        )
    premises = tuple(
        proof_from_doc(p, sig) for p in _expect(doc.get("premises", []), list, "proof premises")
    )
    inst = {
        str(k): parse_term(str(v), sig)
        for k, v in _expect(doc.get("inst") or {}, dict, "proof inst").items()
    }
    return ProofNode(concl_list[0], str(doc["by"]), premises, inst)


def proof_to_doc(node: ProofNode, top: bool = True) -> dict:
    doc: dict[str, Any] = {}
    if top:
        doc["format_version"] = FORMAT_VERSION
    doc["concl"] = format_condition(node.concl)
    doc["by"] = node.by
    if node.premises:
        doc["premises"] = [proof_to_doc(p, top=False) for p in node.premises]
    if node.inst:
        doc["inst"] = {k: str(v) for k, v in node.inst.items()}
    return doc


def load_proof(path: str | Path, sig: Signature) -> ProofNode:
    return proof_from_doc(_load_json(path), sig)
