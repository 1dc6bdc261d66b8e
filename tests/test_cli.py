import json
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from affinelogic import cli
from affinelogic.pra import MAX_ELIMINATION_VARS, algebra, pra_signature, structure_from_algebra
from affinelogic.proofs import axiom, rule
from affinelogic.serialize import (
    charge_to_doc,
    dump_json,
    proof_to_doc,
    structure_to_doc,
)
from affinelogic.spaces import interval, two_point
from affinelogic.structures import make_structure
from affinelogic.syntax import Condition, Signature, function_symbol, numeral, relation_symbol
from affinelogic.ultramean import charge, uniform_charge

from proof_helpers import zero_scalar_derivation


def run(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "affinelogic", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
    )


@pytest.fixture()
def workdir(tmp_path):
    dump_json(structure_to_doc(two_point()), tmp_path / "two_point.json")
    sig = Signature([relation_symbol("P", 1, 1)])
    m1 = make_structure(["a"], {}, relations={"P": {("a",): 0}})
    m2 = make_structure(["a"], {}, relations={"P": {("a",): 1}})
    dump_json(structure_to_doc(m1, sig), tmp_path / "M1.json")
    dump_json(structure_to_doc(m2, sig), tmp_path / "M2.json")
    dump_json(charge_to_doc(uniform_charge(["i0", "i1"])), tmp_path / "half_half.json")
    return tmp_path


class TestEval:
    def test_rendezvous_sentence_prints_exact_rational(self, workdir):
        r = run(
            "eval",
            str(workdir / "two_point.json"),
            "sup x1. sup x2. inf y. 1/2*d(x1,y)+1/2*d(x2,y)",
        )
        assert r.returncode == 0, r.stderr
        assert r.stdout == "1/2\n"

    def test_decimal_flag(self, workdir):
        r = run("eval", str(workdir / "two_point.json"), "1/2*d(a0,b0)", "--assign",
                "a0=a", "--assign", "b0=b", "--decimal")
        assert r.returncode == 0
        assert r.stdout == "1/2 ~ 0.5\n"

    def test_input_error_is_json_on_stderr(self, workdir):
        r = run("eval", str(workdir / "two_point.json"), "d(x,")
        assert r.returncode == 2
        err = json.loads(r.stderr)
        assert err["error"]["type"] == "ParseError"

    def test_unknown_point_in_assignment_is_an_input_error(self, workdir):
        r = run("eval", str(workdir / "two_point.json"), "d(x,x)", "--assign", "x=zz")
        assert r.returncode == 2
        err = json.loads(r.stderr)
        assert err["error"]["type"] == "EvalError"


    def test_ragged_relation_table_is_an_input_error(self, tmp_path):
        doc = structure_to_doc(two_point())
        doc["relations"] = {"R": [["a", "b", 1], ["a", 0], ["b", 1]]}
        dump_json(doc, tmp_path / "ragged.json")
        r = run("eval", str(tmp_path / "ragged.json"), "sup x. R(x)")
        assert r.returncode == 2
        err = json.loads(r.stderr)["error"]
        assert err["type"] == "InputError"
        assert "different lengths" in err["message"]


class TestMean:
    def test_check_ultramean_prints_weighted_sum(self, workdir):
        r = run(
            "mean",
            str(workdir / "half_half.json"),
            str(workdir / "M1.json"),
            str(workdir / "M2.json"),
            "--check-ultramean",
            "sup x. P(x)",
        )
        assert r.returncode == 0, r.stderr
        assert r.stdout == "ultramean-check pass: 1/2 = 1/2*0 + 1/2*1\n"

    def test_mean_structure_written_and_loadable(self, workdir):
        out = workdir / "mean.json"
        r = run(
            "mean",
            str(workdir / "half_half.json"),
            str(workdir / "M1.json"),
            str(workdir / "M2.json"),
            "--out",
            str(out),
        )
        assert r.returncode == 0
        doc = json.loads(out.read_text())
        assert doc["relations"]["P"] == [["a|a", "1/2"]]
        assert doc["provenance"]["charge"]["weights"] == {"i0": "1/2", "i1": "1/2"}

    @pytest.mark.parametrize("p", ["0", "-1"])
    def test_an_exponent_below_one_is_refused(self, p, workdir, capsys):
        line = str(workdir / "interval.json")
        dump_json(structure_to_doc(interval(2)), line)
        argv = ["mean", str(workdir / "half_half.json"), line, line, "--p", p]
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)["error"]
        assert err == {"type": "EvalError", "message": f"exponent must be a positive integer, got {p}"}

    def test_mean_to_stdout_is_a_structure_document(self, workdir):
        r = run(
            "mean",
            str(workdir / "half_half.json"),
            str(workdir / "M1.json"),
            str(workdir / "M2.json"),
        )
        doc = json.loads(r.stdout)
        assert doc["points"] == ["a|a"]


class TestSat:
    def test_sat_verdict(self, workdir):
        theory = workdir / "theory.json"
        dump_json(
            {"format_version": 1, "conditions": ["0*1 <= 2*(sup x. P(x)) + -1*1",
                                                 "2*(sup x. P(x)) + -1*1 <= 0*1"]},
            theory,
        )
        r = run(
            "sat", str(theory), str(workdir / "M1.json"), str(workdir / "M2.json")
        )
        assert r.returncode == 0, r.stderr
        doc = json.loads(r.stdout)
        assert doc["verdict"] == "sat"
        assert doc["charge"]["weights"] == {"m0": "1/2", "m1": "1/2"}

    def test_unsat_certificate(self, workdir):
        theory = workdir / "bad.json"
        dump_json({"format_version": 1, "conditions": ["1 <= sup x. P(x)"]}, theory)
        r = run("sat", str(theory), str(workdir / "M1.json"))
        assert r.returncode == 1
        doc = json.loads(r.stdout)
        assert doc["verdict"] == "unsat"
        assert doc["margin"] == "1"
        assert doc["certificate"][0]["coefficient"] == "1"

    def test_consequence_target(self, workdir):
        theory = workdir / "th.json"
        dump_json({"format_version": 1, "conditions": ["0*1 <= sup x. P(x)"]}, theory)
        r = run(
            "sat",
            str(theory),
            str(workdir / "M1.json"),
            str(workdir / "M2.json"),
            "--target",
            "0*1 <= 2*(sup x. P(x))",
        )
        assert r.returncode == 0, r.stderr
        doc = json.loads(r.stdout)
        assert doc["is_consequence"] is True
        assert doc["margin"] == "0"

    def test_sat_re_verifies_on_the_weighted_members_only(self, tmp_path):
        """Eight 3-point members: their whole product (6561 tuples) is over the
        mean cap, but the charge weights at most three of them."""
        paths = []
        for i in range(8):
            paths.append(str(tmp_path / f"I{i}.json"))
            dump_json(structure_to_doc(interval(3)), paths[-1])
        theory = tmp_path / "theory.json"
        dump_json(
            {"format_version": 1, "conditions": ["sup x. sup y. d(x,y) <= 1",
                                                 "1/4*1 <= sup x. sup y. d(x,y)"]},
            theory,
        )
        r = run("sat", str(theory), *paths)
        assert r.returncode == 0, r.stderr
        doc = json.loads(r.stdout)
        assert doc["verdict"] == "sat"
        weights = doc["charge"]["weights"]
        assert len(weights) == 8 and 1 <= sum(w != "0" for w in weights.values()) <= 3


class TestSeparate:
    def test_separable_families(self, workdir):
        fam_a = workdir / "A"
        fam_b = workdir / "B"
        fam_a.mkdir()
        fam_b.mkdir()
        sig = Signature([relation_symbol("P", 1, 1)])
        dump_json(
            structure_to_doc(
                make_structure(["a"], {}, relations={"P": {("a",): 0}}), sig
            ),
            fam_a / "m.json",
        )
        dump_json(
            structure_to_doc(
                make_structure(["a"], {}, relations={"P": {("a",): 1}}), sig
            ),
            fam_b / "m.json",
        )
        basis = workdir / "basis.json"
        dump_json({"format_version": 1, "formulas": ["sup x. P(x)"]}, basis)
        r = run("separate", str(fam_a), str(fam_b), str(basis))
        assert r.returncode == 0, r.stderr
        doc = json.loads(r.stdout)
        assert doc["separable"] is True
        assert (doc["r"], doc["s"]) == ("0", "1")

    def test_identical_families_exit_1(self, workdir):
        fam = workdir / "C"
        fam.mkdir()
        sig = Signature([relation_symbol("P", 1, 1)])
        dump_json(
            structure_to_doc(
                make_structure(["a"], {}, relations={"P": {("a",): 1}}), sig
            ),
            fam / "m.json",
        )
        basis = workdir / "basis2.json"
        dump_json({"format_version": 1, "formulas": ["sup x. P(x)"]}, basis)
        r = run("separate", str(fam), str(fam), str(basis))
        assert r.returncode == 1
        assert json.loads(r.stdout)["separable"] is False


class TestTypes:
    def test_pra_polytope_with_metrics(self, tmp_path):
        st = structure_from_algebra(algebra([Fraction(1, 4)] * 4))
        dump_json(structure_to_doc(st, pra_signature()), tmp_path / "alg.json")
        basis = tmp_path / "basis.json"
        dump_json(
            {"format_version": 1, "variables": ["x"], "formulas": ["mu(x)"]}, basis
        )
        r = run(
            "types",
            str(basis),
            str(tmp_path / "alg.json"),
            "--metrics",
            "1/4",
            "3/4",
        )
        assert r.returncode == 0, r.stderr
        doc = json.loads(r.stdout)
        gens = sorted(g["values"][0] for g in doc["generators"])
        assert gens == ["0", "1", "1/2", "1/4", "3/4"]  # string sort; all five values
        assert sorted(v["values"][0] for v in doc["vertices"]) == ["0", "1"]
        assert doc["metrics"] == {"logic": "1/2", "norm": "1/2"}


class TestQe:
    def test_symbolic_output_with_oracle(self):
        r = run("qe", "sup y. mu(and(x,y))")
        assert r.returncode == 0
        doc = json.loads(r.stdout)
        assert doc["result"] == "mu(x)"
        assert doc["oracle"]["verified"] is True

    def test_golden_bytes(self):
        r = run("qe", "sup y. mu(and(x,y))")
        assert r.stdout == (
            "{\n"
            '  "format_version": 1,\n'
            '  "input": "sup y. mu(and(x,y))",\n'
            '  "result": "mu(x)",\n'
            '  "constant": null,\n'
            '  "oracle": {\n'
            '    "verified": true,\n'
            '    "algebras": 6,\n'
            '    "evaluations": 22\n'
            "  }\n"
            "}\n"
        )

    def test_sentence_constant(self):
        r = run("qe", "sup x. inf y. mu(sym(x,y))", "--oracle", "3")
        doc = json.loads(r.stdout)
        assert doc["constant"] == "0"

    def test_elimination_over_too_many_variables_exits_2_at_once(self, capsys):
        names = [f"x{i}" for i in range(MAX_ELIMINATION_VARS)]
        formula = "sup y. " + " + ".join(f"mu({v})" for v in names + ["y"])
        start = time.perf_counter()
        assert cli.main(["qe", formula]) == 2
        assert time.perf_counter() - start < 1
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["type"] == "UniverseCapError"

    def test_independent_parts_may_name_more_variables_than_the_cap(self):
        n = MAX_ELIMINATION_VARS // 2 + 1
        formula = " + ".join(f"(sup y{i}. mu(and(x{i},y{i})))" for i in range(n))
        r = run("qe", formula, "--oracle", "1")
        assert r.returncode == 0, r.stderr
        doc = json.loads(r.stdout)
        assert doc["result"] == " + ".join(f"mu(x{i})" for i in range(n))
        assert doc["oracle"] == {"verified": True, "algebras": 1, "evaluations": 2**n}

    def test_quantifier_free_output_is_canonical(self, capsys):
        want = "mu(x) + mu(y) + -1*mu(and(x,y))"
        for formula in ("mu(or(x,y))", want):
            assert cli.main(["qe", formula]) == 0
            assert json.loads(capsys.readouterr().out)["result"] == want

    def test_an_event_over_too_many_variables_exits_2(self, capsys):
        names = [f"x{i}" for i in range(MAX_ELIMINATION_VARS + 1)]
        event = names[0]
        for name in names[1:]:
            event = f"or({event},{name})"
        assert cli.main(["qe", f"mu({event})"]) == 2
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["type"] == "UniverseCapError"

    def test_a_result_deeper_than_the_parse_limit_is_checked(self, capsys):
        """255 atoms: the result is checked without being parsed again."""
        event = "x1"
        for i in range(2, 9):
            event = f"or({event},x{i})"
        assert cli.main(["qe", f"mu({event})", "--oracle", "1"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["result"].count("mu(") == 255
        assert doc["oracle"] == {"verified": True, "algebras": 1, "evaluations": 256}

    @pytest.mark.parametrize("k", ["0", "-2"])
    def test_an_oracle_of_no_atoms_is_refused(self, k, capsys):
        assert cli.main(["qe", "sup y. mu(and(x,y))", "--oracle", k]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)["error"]
        assert err == {"type": "InputError", "message": f"--oracle needs at least 1 atom, got {k}"}


@pytest.mark.parametrize(
    "argv",
    [
        ["qe", "mu(x)", "--p", "2"],
        ["qe", "mu(x)", "--sig", "sig.json"],
        ["rendezvous", "two_point.json", "--n", "2", "--p", "2"],
        ["check-proof", "proof.json", "theory.json", "--p", "2"],
    ],
)
def test_options_a_command_does_not_read_are_usage_errors(argv, workdir):
    r = run(*(str(workdir / a) if a.endswith(".json") else a for a in argv))
    assert r.returncode == 2
    assert "unrecognized arguments" in r.stderr


class TestCheckProof:
    def test_valid_proof_with_probe(self, workdir):
        proof, gamma = zero_scalar_derivation(Fraction(0))
        dump_json(proof_to_doc(proof), workdir / "proof.json")
        dump_json(
            {"format_version": 1, "conditions": [str(c) for c in gamma]},
            workdir / "gamma.json",
        )
        probe_dir = workdir / "probe"
        probe_dir.mkdir()
        dump_json(structure_to_doc(two_point()), probe_dir / "m.json")
        r = run(
            "check-proof",
            str(workdir / "proof.json"),
            str(workdir / "gamma.json"),
            "--probe",
            str(probe_dir),
        )
        assert r.returncode == 0, r.stderr
        doc = json.loads(r.stdout)
        assert doc["valid"] is True
        assert doc["probe"]["checked"] == 1
        assert doc["probe"]["violations"] == []

    def test_invalid_proof_reports_path(self, workdir):
        dump_json(
            {"format_version": 1, "concl": "d(x,y) <= 0*1", "by": "A17"},
            workdir / "bad_proof.json",
        )
        dump_json({"format_version": 1, "conditions": []}, workdir / "empty.json")
        r = run(
            "check-proof", str(workdir / "bad_proof.json"), str(workdir / "empty.json")
        )
        assert r.returncode == 1
        doc = json.loads(r.stdout)
        assert doc["valid"] is False
        assert doc["path"] == "root"


class TestManifest:
    def test_manifest_records_hashes(self, workdir):
        manifest = workdir / "run.json"
        r = run(
            "--manifest",
            str(manifest),
            "eval",
            str(workdir / "two_point.json"),
            "d(x,x)",
            "--assign",
            "x=a",
        )
        assert r.returncode == 0
        doc = json.loads(manifest.read_text())
        key = str(workdir / "two_point.json")
        assert doc["inputs"][key].startswith("sha256:")
        assert "eval" in doc["argv"]


class TestRendezvousCommand:
    def test_golden_bytes(self, workdir):
        r = run("rendezvous", str(workdir / "two_point.json"), "--n", "2")
        assert r.stdout == (
            "{\n"
            '  "format_version": 1,\n'
            '  "n": 2,\n'
            '  "lower": "1/2",\n'
            '  "upper": "1/2"\n'
            "}\n"
        )


class TestValidateCommand:
    def test_violation_exit_code(self, tmp_path):
        bad = make_structure(
            ["a", "b", "c"],
            {("a", "b"): 1, ("b", "c"): Fraction(1, 8), ("a", "c"): Fraction(1, 8)},
        )
        dump_json(structure_to_doc(bad), tmp_path / "bad.json")
        r = run("validate", str(tmp_path / "bad.json"))
        assert r.returncode == 1
        doc = json.loads(r.stdout)
        assert doc["valid"] is False
        assert doc["violations"][0]["kind"] == "triangle-violation"

    def test_function_value_not_a_point_is_reported(self, tmp_path):
        sig = Signature([function_symbol("F", 1, 1)])
        m = make_structure(
            ["a", "b"], {("a", "b"): 1}, functions={"F": {("a",): "a", ("b",): "nowhere"}}
        )
        dump_json(structure_to_doc(m, sig), tmp_path / "bad.json")
        r = run("validate", str(tmp_path / "bad.json"))
        assert r.returncode == 1
        assert "Traceback" not in r.stderr
        doc = json.loads(r.stdout)
        assert [v["kind"] for v in doc["violations"]] == ["value-not-a-point"]


    def test_negative_entry_in_stored_powers_is_reported(self, tmp_path):
        """d(b,a) < 0 is never compared in the triangle check; the Lipschitz
        pair F(b), F(a) reads it and must report it, not fail."""
        sig = Signature([function_symbol("F", 1, 1)])
        m = make_structure(
            ["a", "b"],
            [[0, Fraction(1, 4)], [Fraction(-1, 4), 0]],
            functions={"F": {("a",): "a", ("b",): "b"}},
            metric_power=2,
        )
        dump_json(structure_to_doc(m, sig), tmp_path / "bad.json")
        r = run("validate", str(tmp_path / "bad.json"), "--p", "2")
        assert r.returncode == 1, r.stderr
        doc = json.loads(r.stdout)
        assert [v["kind"] for v in doc["violations"]] == [
            "asymmetric-metric",
            "metric-out-of-range",
            "asymmetric-metric",
        ]

    @pytest.mark.parametrize("p", [2, 3])
    def test_negative_entry_in_the_stored_power_triangle_is_reported(self, tmp_path, p):
        """The triangle check on stored powers skips triples holding the
        negative entry d(a,b) = d(b,a) = -1/4, which has no root."""
        quarter = Fraction(1, 4)
        m = make_structure(
            ["a", "b", "c"],
            {("a", "b"): -quarter, ("a", "c"): quarter, ("b", "c"): quarter},
            metric_power=p,
        )
        dump_json(structure_to_doc(m), tmp_path / "bad.json")
        r = run("validate", str(tmp_path / "bad.json"), "--p", str(p))
        assert r.returncode == 1, r.stderr
        doc = json.loads(r.stdout)
        assert [(v["kind"], v["where"], v["amount"]) for v in doc["violations"]] == [
            ("metric-out-of-range", "d(a,b)", "-1/4"),
            ("metric-out-of-range", "d(b,a)", "-1/4"),
        ]


    def _validate(self, capsys, *argv):
        code = cli.main(["validate", *argv])
        out, err = capsys.readouterr()
        return code, json.loads(out or err)

    def test_stored_cubes_over_264_bits_are_decided(self, tmp_path, capsys):
        """Cubes over the denominator 2^264: d(x,y)^(1/3) is below d(x,z)^(1/3) +
        d(z,y)^(1/3) by about 2^-200 of it, and one more unit in the numerator
        of d(x,y) breaks the triangle."""
        big = 2**86
        a, b = 2 * big**3, big**3
        lo, hi = 0, 1 << 287  # floor of the cube root of a * 2^600, by bisection
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (mid, hi) if mid**3 <= a << 600 else (lo, mid)
        c = (lo + (big << 200)) ** 3 >> 600
        for entry, violations in ((c, 0), (c + 1, 1)):
            metric = {("x", "z"): Fraction(1, 32), ("z", "y"): Fraction(1, 64),
                      ("x", "y"): Fraction(entry, 64 * big**3)}
            m = make_structure(["x", "y", "z"], metric, metric_power=3)
            dump_json(structure_to_doc(m), tmp_path / "cubes.json")
            code, doc = self._validate(capsys, str(tmp_path / "cubes.json"))
            assert code == min(violations, 1), doc
            assert [v["kind"] for v in doc["violations"]] == ["triangle-violation"] * violations

    def test_p_is_the_lipschitz_exponent(self, tmp_path, capsys):
        """F(x,y) = min(x+y, 1) on {0, 1/2, 1} is 1-Lipschitz for the sum of
        distances, but not at p = 2: d(F(t0,t0), F(t1,t1))^2 = 1 > 1/4 + 1/4."""
        sig = Signature([function_symbol("F", 2, 1)])
        line = interval(3)
        at = {name: Fraction(i, 2) for i, name in enumerate(line.points)}
        point = {v: name for name, v in at.items()}
        table = {(x, y): point[min(at[x] + at[y], 1)] for x in line.points for y in line.points}
        m = make_structure(line.points, line.metric, functions={"F": table})
        path = str(tmp_path / "line.json")
        dump_json(structure_to_doc(m, sig), path)
        assert self._validate(capsys, path)[0] == 0
        code, doc = self._validate(capsys, path, "--p", "2")
        assert code == 1
        assert [(v["kind"], v["where"]) for v in doc["violations"]] == [
            ("function-lipschitz", "d(F('t0', 't0'),F('t1', 't1')) > 1*d(('t0', 't0'),('t1', 't1'))"),
            ("function-lipschitz", "d(F('t1', 't1'),F('t0', 't0')) > 1*d(('t1', 't1'),('t0', 't0'))"),
        ]
        code, doc = self._validate(capsys, path, "--p", "0")
        assert code == 2
        assert doc["error"]["type"] == "EvalError"


class TestMissingInput:
    """A missing input file is an input error, with or without a manifest."""

    @pytest.mark.parametrize("manifest", [False, True])
    @pytest.mark.parametrize("command", ["validate", "mean", "check-proof"])
    def test_missing_file_exits_2(self, command, manifest, workdir, capsys):
        missing = str(workdir / "nope.json")
        dump_json({"format_version": 1, "conditions": []}, workdir / "empty.json")
        argv = {
            "validate": ["validate", missing],
            "mean": ["mean", missing, str(workdir / "M1.json")],
            "check-proof": ["check-proof", str(workdir / "empty.json"), missing],
        }[command]
        if manifest:
            argv = ["--manifest", str(workdir / "run.json"), *argv]
        assert cli.main(argv) == 2
        err = json.loads(capsys.readouterr().err)["error"]
        assert err == {"type": "InputError", "message": f"no such file: {missing}"}
        assert not (workdir / "run.json").exists()


class TestDeepInput:
    FORMULA = " + ".join(["d(x,y)"] * 1000)

    def _assert_parse_error(self, r):
        assert r.returncode == 2
        assert "Traceback" not in r.stderr
        err = json.loads(r.stderr)["error"]
        assert err["type"] == "ParseError"
        assert "nested deeper than" in err["message"]

    def test_deep_formula_exits_2_with_json_error_on_eval(self, workdir):
        r = run("eval", str(workdir / "two_point.json"), self.FORMULA,
                "--assign", "x=a", "--assign", "y=b")
        self._assert_parse_error(r)

    def test_deep_formula_exits_2_with_json_error_on_qe(self):
        self._assert_parse_error(run("qe", self.FORMULA))

    def test_deep_document_exits_2_and_names_the_file(self, workdir, capsys):
        """3,000 R2 nodes nest 6,000 JSON levels, past the decoder's recursion limit."""
        node = '{"concl": "0 <= 1", "by": "R2", "premises": ['
        leaf = '{"concl": "0 <= 1", "by": "A3"}'
        proof = workdir / "deep.json"
        proof.write_text(node * 3000 + leaf + "]}" * 3000)
        dump_json({"format_version": 1, "conditions": []}, workdir / "empty.json")
        assert cli.main(["check-proof", str(proof), str(workdir / "empty.json")]) == 2
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["type"] == "InputError"
        assert str(proof) in err["message"]

    def test_300_level_proof_checks(self, workdir, capsys):
        """An R1 chain 0 <= 1 <= ... <= 300 of A3 steps, each nesting the last."""
        out = axiom(Condition(numeral(0), numeral(1)), "A3")
        for k in range(1, 300):
            step = axiom(Condition(numeral(k), numeral(k + 1)), "A3")
            out = rule(Condition(numeral(0), numeral(k + 1)), "R1", out, step)
        (workdir / "chain.json").write_text(json.dumps(proof_to_doc(out)))
        dump_json({"format_version": 1, "conditions": []}, workdir / "empty.json")
        assert cli.main(["check-proof", str(workdir / "chain.json"), str(workdir / "empty.json")]) == 0
        assert json.loads(capsys.readouterr().out)["valid"] is True


def _set(path, value):
    """An edit of a structure document: the entry at `path` becomes `value`."""

    def edit(doc):
        *outer, last = path
        for key in outer:
            doc = doc[key]
        doc[last] = value

    return edit


@pytest.mark.parametrize(
    "edit, field",
    [
        (_set(["points"], 2), "points"),
        (_set(["metric"], 2), "metric"),
        (_set(["metric_power"], "x"), "metric_power"),
        (_set(["metric_power"], 2.5), "metric_power"),
        (_set(["functions"], 2), "functions"),
        (_set(["relations", "P", 0], 2), "relation P"),
        (_set(["signature", "symbols"], 2), "signature symbols"),
        (_set(["signature", "symbols", 0], "P"), "signature symbol"),
        (_set(["signature", "symbols", 0, "arity"], "x"), "arity"),
    ],
)
def test_a_malformed_structure_document_is_an_input_error(edit, field, tmp_path, capsys):
    sig = Signature([function_symbol("F", 1, 1), relation_symbol("P", 1, 1)])
    m = make_structure(
        ["a", "b"],
        {("a", "b"): 1},
        functions={"F": {("a",): "a", ("b",): "b"}},
        relations={"P": {("a",): 0, ("b",): 1}},
    )
    doc = structure_to_doc(m, sig)
    edit(doc)
    path = str(tmp_path / "bad.json")
    dump_json(doc, path)
    for argv in (
        ["validate", path],
        ["eval", path, "sup x. P(x)"],
        ["rendezvous", path, "--n", "2"],
    ):
        assert cli.main(argv) == 2, argv
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["type"] == "InputError"
        assert field in err["message"]


_PROOF = {"format_version": 1, "concl": "0*1 <= 1", "by": "A3"}


@pytest.mark.parametrize(
    "command, doc, field",
    [
        ("mean", {"format_version": 1, "weights": 5}, "charge weights"),
        ("mean", {"format_version": 1, "weights": [1]}, "charge weights"),
        ("sat", {"format_version": 1, "conditions": 5}, "theory conditions"),
        ("types", {"format_version": 1, "formulas": 5}, "basis formulas"),
        ("types", {"format_version": 1, "formulas": ["1"], "variables": 5}, "basis variables"),
        ("check-proof", {**_PROOF, "premises": 5}, "proof premises"),
        ("check-proof", {**_PROOF, "inst": 5}, "proof inst"),
    ],
)
def test_a_malformed_document_is_an_input_error(command, doc, field, workdir, capsys):
    """Charge, theory, basis and proof documents of the wrong shape exit 2."""
    bad, member = str(workdir / "bad.json"), str(workdir / "M1.json")
    dump_json(doc, bad)
    dump_json({"format_version": 1, "conditions": []}, workdir / "empty.json")
    argv = {
        "mean": ["mean", bad, member, member],
        "sat": ["sat", bad, member],
        "types": ["types", bad, member],
        "check-proof": ["check-proof", bad, str(workdir / "empty.json")],
    }[command]
    assert cli.main(argv) == 2
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["type"] == "InputError"
    assert field in err["message"]


class TestInternalError:
    def test_runtime_error_exits_3_with_json_error(self, workdir, monkeypatch, capsys):
        def broken(args, run):
            raise RuntimeError("broken on purpose")

        monkeypatch.setitem(cli._COMMANDS, "rendezvous", broken)
        code = cli.main(["rendezvous", str(workdir / "two_point.json"), "--n", "2"])
        assert code == 3
        err = json.loads(capsys.readouterr().err)["error"]
        assert err == {
            "type": "internal",
            "exception": "RuntimeError",
            "message": "broken on purpose",
        }


class TestOneProcess:
    """cli.main called repeatedly in one process, as the benchmark does."""

    def _main(self, capsys, *argv):
        code = cli.main(list(argv))
        out = capsys.readouterr().out
        return code, out

    def test_calls_match_fresh_processes_and_keep_no_options(self, workdir, capsys):
        two = str(workdir / "two_point.json")
        calls = [
            ["eval", two, "d(x,y)", "--assign", "x=a", "--assign", "y=b", "--decimal"],
            ["qe", "sup y. mu(and(x,y))", "--oracle", "1"],
            ["eval", two, "d(x,y)", "--assign", "x=a", "--assign", "y=a"],
            ["qe", "sup y. mu(and(x,y))"],
        ]
        for argv in calls:
            fresh = run(*argv)
            assert self._main(capsys, *argv) == (fresh.returncode, fresh.stdout)
        # the later calls saw neither --decimal, the earlier --assign nor --oracle 1
        assert self._main(capsys, *calls[2]) == (0, "0\n")
        assert json.loads(self._main(capsys, *calls[3])[1])["oracle"]["algebras"] == 6

    def test_usage_error_still_exits_2(self, workdir, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["eval", str(workdir / "two_point.json")])
        assert exc.value.code == 2
        assert "required" in capsys.readouterr().err
        assert self._main(capsys, "qe", "sup y. mu(and(x,y))")[0] == 0
