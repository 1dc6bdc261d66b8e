"""Spans around the program's public functions, recorded from outside.

``Tracer.install()`` rebinds each traced function in every loaded
``affinelogic`` module that refers to it, so calls between modules go
through a wrapper.  A wrapper records one span: name, start, end, parent
span and job id, plus a few counts taken from the arguments or the result.
Spans stay in memory (parallel arrays) until ``write`` saves them, and
``layer_metrics`` derives the per-layer figures from them.

Nothing under ``src/`` changes; ``uninstall`` restores the originals.
"""

from __future__ import annotations

import json
import os
import sys
import time
from array import array
from fractions import Fraction

SETUP_JOB = -1
WARMUP_JOB = -2


def _formula_nodes(phi) -> int:
    from affinelogic.syntax import formula_size

    return formula_size(phi)


def _parse_attrs(args, kwargs, result):
    if isinstance(result, list):  # parse_condition_or_equality
        return {"nodes": sum(_formula_nodes(c.lhs) + _formula_nodes(c.rhs) for c in result)}
    if hasattr(result, "lhs"):
        return {"nodes": _formula_nodes(result.lhs) + _formula_nodes(result.rhs)}
    return {"nodes": _formula_nodes(result)}


def _load_attrs(args, kwargs, result):
    try:
        return {"bytes_in": os.path.getsize(args[0])}
    except (OSError, IndexError, TypeError):
        return None


def _dump_attrs(args, kwargs, result):
    return {"bytes_out": len(result.encode("utf-8"))} if isinstance(result, str) else None


def _qe_attrs(args, kwargs, result):
    return {"atoms_out": len(result.atoms)}


def _lp_attrs(args, kwargs, result):
    a_ub = args[1] if len(args) > 1 else kwargs.get("A_ub")
    a_eq = args[3] if len(args) > 3 else kwargs.get("A_eq")
    bits = 0
    for vec in (result.x, result.dual_ub, result.dual_eq, result.farkas_ub, result.farkas_eq):
        for v in vec or ():
            bits = max(bits, Fraction(v).denominator.bit_length())
    return {
        "rows": len(a_ub or ()) + len(a_eq or ()),
        "cols": len(args[0]),
        "den_bits": bits,
    }


def _validate_attrs(args, kwargs, result):
    m, sig = args[0], args[1]
    n = len(m.points)
    pairs = n * (n - 1) // 2 * n  # triangle triples
    for sym in list(sig.functions()) + list(sig.relations()):
        pairs += (n**sym.arity) ** 2  # Lipschitz pairs of argument tuples
    return {"pairs": pairs, "violations": len(result.violations)}


def _mean_attrs(args, kwargs, result):
    tuples = 1
    for m in args[0]:
        tuples *= len(m.points)
    return {"tuples": tuples, "classes": len(result.structure.points)}


def _polytope_attrs(args, kwargs, result):
    return {"generators": len(result.generators), "vertices": len(result.vertices)}


# (module, function, span name, attrs from (args, kwargs, result))
TRACED = [
    ("cli", "main", "cli.main", None),
    ("serialize", "load_structure", "serialize.load", _load_attrs),
    ("serialize", "load_signature", "serialize.load", _load_attrs),
    ("serialize", "load_charge", "serialize.load", _load_attrs),
    ("serialize", "load_theory", "serialize.load", _load_attrs),
    ("serialize", "load_basis", "serialize.load", _load_attrs),
    ("serialize", "load_proof", "serialize.load", _load_attrs),
    ("serialize", "mean_to_doc", "serialize.dump", None),
    ("serialize", "dump_json", "serialize.dump", _dump_attrs),
    ("syntax", "parse_formula", "syntax.parse", _parse_attrs),
    ("syntax", "parse_condition", "syntax.parse", _parse_attrs),
    ("syntax", "parse_condition_or_equality", "syntax.parse", _parse_attrs),
    ("spaces", "circle", "spaces.generate", None),
    ("spaces", "sphere", "spaces.generate", None),
    ("spaces", "interval", "spaces.generate", None),
    ("spaces", "cantor", "spaces.generate", None),
    ("structures", "eval_formula", "structures.eval", None),
    ("structures", "check_condition", "structures.check", None),
    ("structures", "holds_universally", "structures.holds", None),
    ("structures", "validate", "structures.validate", _validate_attrs),
    ("structures", "quotient", "structures.quotient", None),
    ("structures", "rendezvous_value", "structures.rendezvous", None),
    ("ultramean", "ultramean", "ultramean.mean", _mean_attrs),
    ("lp", "solve_lp", "lp.solve", _lp_attrs),
    ("satisfiability", "value_matrix", "satisfiability", None),
    ("satisfiability", "sat_over_family", "satisfiability", None),
    ("satisfiability", "consequence_margin", "satisfiability", None),
    ("satisfiability", "separate", "satisfiability", None),
    ("typespace", "make_basis", "typespace", None),
    ("typespace", "tuple_type", "typespace", None),
    ("typespace", "realized_types", "typespace", None),
    ("typespace", "in_convex_hull", "typespace", None),
    ("typespace", "type_polytope", "typespace", _polytope_attrs),
    ("typespace", "logic_distance", "typespace", None),
    ("pra", "qe", "pra.qe", _qe_attrs),
    ("pra", "oracle_eval", "pra.oracle", None),
    ("pra", "algebras_up_to", "pra.oracle", None),
    ("proofs", "check", "proofs.check", None),
    ("proofs", "soundness_probe", "proofs.probe", None),
]

# name -> unit; every workload reports all of them (0 where a layer is idle).
PER_LAYER = {
    "pra.oracle_ms": "ms",
    "pra.oracle_calls": "count",
    "pra.qe_ms": "ms",
    "pra.qe_atoms_out": "count",
    "structures.eval_ms": "ms",
    "structures.eval_calls": "count",
    "structures.eval_us_per_call": "us",
    "structures.check_calls": "count",
    "proofs.probe_self_ms": "ms",
    "proofs.check_ms": "ms",
    "structures.rendezvous_ms": "ms",
    "lp.solve_ms": "ms",
    "lp.solve_calls": "count",
    "lp.rows": "count",
    "lp.cols": "count",
    "lp.den_bits_max": "bits",
    "satisfiability.self_ms": "ms",
    "typespace.self_ms": "ms",
    "typespace.generators": "count",
    "typespace.vertices": "count",
    "structures.validate_ms": "ms",
    "structures.validate_pairs": "count",
    "structures.violations": "count",
    "ultramean.mean_ms": "ms",
    "ultramean.tuples": "count",
    "ultramean.classes": "count",
    "structures.quotient_ms": "ms",
    "serialize.load_ms": "ms",
    "serialize.dump_ms": "ms",
    "serialize.bytes_in": "bytes",
    "serialize.bytes_out": "bytes",
    "syntax.parse_ms": "ms",
    "syntax.parse_calls": "count",
    "syntax.formula_nodes": "count",
    "spaces.generate_ms": "ms",
    "cli.self_ms": "ms",
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_id: dict[str, int] = {}
        self.name = array("H")
        self.parent = array("l")
        self.job = array("l")
        self.start = array("d")
        self.end = array("d")
        self.outer = array("b")  # 1 if no enclosing span has the same name
        self.attrs: dict[int, dict] = {}
        self.stack: list[int] = []
        self.active: list[int] = []
        self.job_id = SETUP_JOB
        self._saved: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self.name_id:
            self.name_id[name] = len(self.names)
            self.names.append(name)
            self.active.append(0)
        return self.name_id[name]

    def wrap(self, fn, name: str, attrs_fn):
        nid = self._id(name)
        tracer = self
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(tracer.start)
            stack = tracer.stack
            tracer.name.append(nid)
            tracer.parent.append(stack[-1] if stack else -1)
            tracer.job.append(tracer.job_id)
            outer = tracer.active[nid] == 0
            tracer.outer.append(outer)
            tracer.start.append(0.0)
            tracer.end.append(0.0)
            tracer.active[nid] += 1
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                tracer.active[nid] -= 1
                tracer.start[idx] = t0
                tracer.end[idx] = t1
            if attrs_fn is not None and outer:
                extra = attrs_fn(args, kwargs, result)
                if extra:
                    tracer.attrs[idx] = extra
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        import importlib

        mods = {
            name: importlib.import_module(f"affinelogic.{name}")
            for name in {t[0] for t in TRACED}
        }
        loaded = [
            m for key, m in list(sys.modules.items())
            if m is not None and (key == "affinelogic" or key.startswith("affinelogic."))
        ]
        for modname, attr, span, attrs_fn in TRACED:
            original = getattr(mods[modname], attr)
            wrapped = self.wrap(original, span, attrs_fn)
            for m in loaded:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._saved.append((m, key, original))
                        setattr(m, key, wrapped)

    def uninstall(self) -> None:
        for m, key, original in reversed(self._saved):
            setattr(m, key, original)
        self._saved.clear()

    # -- output --------------------------------------------------------------

    def write(self, path: str) -> None:
        """Save the spans: a JSON header line, then the raw arrays."""
        header = {
            "names": self.names,
            "count": len(self.start),
            "arrays": [
                ["name", "H"], ["parent", "l"], ["job", "l"],
                ["start", "d"], ["end", "d"], ["outer", "b"],
            ],
            "attrs": {str(k): v for k, v in self.attrs.items()},
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode("utf-8") + b"\n")
            for key, _ in header["arrays"]:
                getattr(self, key).tofile(fh)

    # -- per-layer metrics -----------------------------------------------------

    def layer_metrics(self, jobs: int, setups: int) -> dict[str, float]:
        """Per-layer figures over the timed jobs, per job unless named otherwise.

        ``*_ms`` of a layer is the time inside its outermost spans; ``*self_ms``
        subtracts the time covered by child spans.  Counts are per job,
        except ``lp.rows``/``lp.cols`` (mean per LP), ``lp.den_bits_max``
        (largest) and ``spaces.generate_ms`` (per set-up).
        """
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        incl: dict[str, float] = {}
        self_t: dict[str, float] = {}
        calls: dict[str, int] = {}
        sums: dict[str, float] = {}
        maxima: dict[str, float] = {}
        setup_generate = 0.0
        for i in range(n):
            name = self.names[self.name[i]]
            dur = self.end[i] - self.start[i]
            if self.job[i] < 0:
                if self.job[i] == SETUP_JOB and name == "spaces.generate" and self.outer[i]:
                    setup_generate += dur
                continue
            calls[name] = calls.get(name, 0) + 1
            if self.outer[i]:
                incl[name] = incl.get(name, 0.0) + dur
            self_t[name] = self_t.get(name, 0.0) + dur - child[i]
            for key, value in self.attrs.get(i, {}).items():
                full = f"{name}.{key}"
                sums[full] = sums.get(full, 0.0) + value
                maxima[full] = max(maxima.get(full, 0.0), value)
        jobs = max(jobs, 1)

        def per_job_ms(table, name):
            return 1000.0 * table.get(name, 0.0) / jobs

        def per_job(table, name):
            return table.get(name, 0) / jobs

        lp_calls = calls.get("lp.solve", 0)
        eval_calls = calls.get("structures.eval", 0)
        return {
            "pra.oracle_ms": per_job_ms(incl, "pra.oracle"),
            "pra.oracle_calls": per_job(calls, "pra.oracle"),
            "pra.qe_ms": per_job_ms(incl, "pra.qe"),
            "pra.qe_atoms_out": per_job(sums, "pra.qe.atoms_out"),
            "structures.eval_ms": per_job_ms(incl, "structures.eval"),
            "structures.eval_calls": per_job(calls, "structures.eval"),
            "structures.eval_us_per_call": (
                1e6 * incl.get("structures.eval", 0.0) / eval_calls if eval_calls else 0.0
            ),
            "structures.check_calls": per_job(calls, "structures.check"),
            "proofs.probe_self_ms": per_job_ms(self_t, "proofs.probe"),
            "proofs.check_ms": per_job_ms(incl, "proofs.check"),
            "structures.rendezvous_ms": per_job_ms(incl, "structures.rendezvous"),
            "lp.solve_ms": per_job_ms(incl, "lp.solve"),
            "lp.solve_calls": per_job(calls, "lp.solve"),
            "lp.rows": sums.get("lp.solve.rows", 0.0) / lp_calls if lp_calls else 0.0,
            "lp.cols": sums.get("lp.solve.cols", 0.0) / lp_calls if lp_calls else 0.0,
            "lp.den_bits_max": maxima.get("lp.solve.den_bits", 0.0),
            "satisfiability.self_ms": per_job_ms(self_t, "satisfiability"),
            "typespace.self_ms": per_job_ms(self_t, "typespace"),
            "typespace.generators": per_job(sums, "typespace.generators"),
            "typespace.vertices": per_job(sums, "typespace.vertices"),
            "structures.validate_ms": per_job_ms(incl, "structures.validate"),
            "structures.validate_pairs": per_job(sums, "structures.validate.pairs"),
            "structures.violations": per_job(sums, "structures.validate.violations"),
            "ultramean.mean_ms": per_job_ms(incl, "ultramean.mean"),
            "ultramean.tuples": per_job(sums, "ultramean.mean.tuples"),
            "ultramean.classes": per_job(sums, "ultramean.mean.classes"),
            "structures.quotient_ms": per_job_ms(incl, "structures.quotient"),
            "serialize.load_ms": per_job_ms(incl, "serialize.load"),
            "serialize.dump_ms": per_job_ms(incl, "serialize.dump"),
            "serialize.bytes_in": per_job(sums, "serialize.load.bytes_in"),
            "serialize.bytes_out": per_job(sums, "serialize.dump.bytes_out"),
            "syntax.parse_ms": per_job_ms(incl, "syntax.parse"),
            "syntax.parse_calls": per_job(calls, "syntax.parse"),
            "syntax.formula_nodes": per_job(sums, "syntax.parse.nodes"),
            "spaces.generate_ms": 1000.0 * setup_generate / max(setups, 1),
            "cli.self_ms": per_job_ms(self_t, "cli.main"),
        }
