import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from affinelogic.proofs import (
    AXIOM_SCHEMAS,
    AXIOM_TAGS,
    _check_axiom,
    axiom,
    check,
    hypothesis,
    normalize_zero_scales,
    rule,
    soundness_probe,
)
from affinelogic.syntax import (
    Condition,
    Dist,
    Inf,
    ONE,
    Scale,
    Signature,
    Sum,
    Sup,
    Var,
    ZERO,
    alpha_equal_condition,
    numeral,
    parse_formula,
)

from helpers import rand_signature, rand_structure
from proof_helpers import (
    mutate_formula,
    mutate_proof,
    rand_axiom_node,
    rand_rule_node,
    zero_scalar_derivation,
)
from walkers import walk_check_axiom

METRIC_ONLY = Signature.metric_only()


class TestAxiomLeaves:
    def test_metric_reflexivity_both_orientations(self):
        d = Dist(Var("x"), Var("x"))
        assert check(axiom(Condition(d, ZERO), "A17"), [])
        assert check(axiom(Condition(ZERO, d), "A17"), [])

    def test_a17_rejects_distinct_terms(self):
        d = Dist(Var("x"), Var("y"))
        result = check(axiom(Condition(d, ZERO), "A17"), [])
        assert not result.valid
        assert "A17" in result.reason

    def test_a3_checks_real_arithmetic(self):
        good = axiom(Condition(numeral(1), numeral(2)), "A3")
        bad = axiom(Condition(numeral(2), numeral(1)), "A3")
        assert check(good, [])
        assert not check(bad, [])

    def test_a12_needs_instantiation(self):
        phi = parse_formula("sup x. d(x,y)", METRIC_ONLY)
        concl = Condition(parse_formula("d(y,y)", METRIC_ONLY), phi)
        missing = axiom(concl, "A12")
        assert not check(missing, []).valid
        provided = axiom(concl, "A12", t=Var("y"))
        assert check(provided, [])

    def test_a12_capture_rejected(self):
        # substituting y into sup y. d(x,y) is not correct
        body = parse_formula("sup y. d(x,y)", METRIC_ONLY)
        sup_x = Sup("x", body)
        claimed = axiom(
            Condition(parse_formula("sup y. d(y,y)", METRIC_ONLY), sup_x),
            "A12",
            t=Var("y"),
        )
        result = check(claimed, [])
        assert not result.valid
        assert "not correct" in result.reason

    def test_a13_side_condition(self):
        phi = parse_formula("d(x,y)", METRIC_ONLY)
        psi_ok = parse_formula("d(y,y)", METRIC_ONLY)
        psi_bad = parse_formula("d(x,x)", METRIC_ONLY)
        good = axiom(
            Condition(Sup("x", Sum(phi, psi_ok)), Sum(Sup("x", phi), psi_ok)), "A13"
        )
        bad = axiom(
            Condition(Sup("x", Sum(phi, psi_bad)), Sum(Sup("x", phi), psi_bad)), "A13"
        )
        assert check(good, [])
        assert not check(bad, []).valid

    def test_a20_uses_declared_lipschitz_constant(self):
        from affinelogic.syntax import App, function_symbol

        sig = Signature([function_symbol("F", 1, 2)])
        x, y = Var("x"), Var("y")
        fx = App("F", (x,), Fraction(2))
        fy = App("F", (y,), Fraction(2))
        good = axiom(
            Condition(Dist(fx, fy), Scale(Fraction(2), Dist(x, y))), "A20"
        )
        bad = axiom(
            Condition(Dist(fx, fy), Scale(Fraction(3), Dist(x, y))), "A20"
        )
        assert check(good, [])
        assert not check(bad, []).valid


class TestRules:
    def test_r3_with_false_sign_premise_is_invalid_at_that_node(self):
        d = Dist(Var("x"), Var("y"))
        sign = axiom(Condition(ZERO, numeral(-2)), "A3")  # 0 <= -2 fails
        body = axiom(Condition(d, ONE), "A22")
        proof = rule(
            Condition(Scale(Fraction(-2), d), Scale(Fraction(-2), ONE)),
            "R3",
            sign,
            body,
        )
        result = check(proof, [])
        assert not result.valid
        assert result.path == "0"  # the sign premise node

    def test_r1_premise_order_matters(self):
        p1 = axiom(Condition(numeral(0), numeral(1)), "A3")
        p2 = axiom(Condition(numeral(1), numeral(2)), "A3")
        good = rule(Condition(numeral(0), numeral(2)), "R1", p1, p2)
        swapped = rule(Condition(numeral(0), numeral(2)), "R1", p2, p1)
        assert check(good, [])
        assert not check(swapped, []).valid

    def test_r4_freshness_against_gamma(self):
        d = Dist(Var("x"), Var("y"))
        gamma_free = [Condition(ZERO, d)]  # x free in the hypothesis
        premise = axiom(Condition(d, ONE), "A22")
        concl = Condition(Sup("x", d), Sup("x", ONE))
        proof = rule(concl, "R4", premise)
        assert check(proof, [])
        result = check(proof, gamma_free)
        assert not result.valid
        assert "side condition" in result.reason

    def test_hypothesis_reference(self):
        gamma = [Condition(ZERO, ONE)]
        assert check(hypothesis(gamma[0], 0), gamma)
        assert not check(hypothesis(gamma[0], 1), gamma).valid
        assert not check(hypothesis(Condition(ONE, ZERO), 0), gamma).valid


class TestWorkedDerivation:
    def test_zero_scalar_derivation_validates(self):
        proof, gamma = zero_scalar_derivation(Fraction(3))
        result = check(proof, gamma)
        assert result.valid, (result.path, result.reason)
        assert proof.concl == Condition(
            Scale(Fraction(3), Dist(Var("x"), Var("y"))), ZERO
        )

    def test_derivation_also_validates_with_zero_scalar(self):
        proof, gamma = zero_scalar_derivation(Fraction(0))
        assert check(proof, gamma).valid

    def test_probe_on_consistent_instance(self):
        # with c = 0 the hypotheses 0 <= 0 <= 0 hold in every structure
        proof, gamma = zero_scalar_derivation(Fraction(0))
        rng = random.Random(61)
        family = [rand_structure(rng, METRIC_ONLY) for _ in range(8)]
        report = soundness_probe(proof, gamma, family)
        assert report.checked == 8 and report.sound

    def test_probe_skips_structures_violating_gamma(self):
        proof, gamma = zero_scalar_derivation(Fraction(3))  # 3 <= 0 never holds
        rng = random.Random(62)
        family = [rand_structure(rng, METRIC_ONLY) for _ in range(4)]
        report = soundness_probe(proof, gamma, family)
        assert report.checked == 0 and report.skipped == 4


class TestSoundnessProbeExamples:
    def test_a19_triangle_instance_nonnegative_margins(self):
        rng = random.Random(67)
        x, y, z = Var("x"), Var("y"), Var("z")
        node = axiom(
            Condition(Dist(x, z), Sum(Dist(x, y), Dist(y, z))), "A19"
        )
        family = [rand_structure(rng, METRIC_ONLY) for _ in range(10)]
        report = soundness_probe(node, [], family)
        assert report.checked == 10 and report.sound

    def test_a16_both_directions_have_margin_exactly_zero(self):
        from affinelogic.structures import holds_universally
        from affinelogic.syntax import Inf

        rng = random.Random(68)
        body = Dist(Var("x"), Var("y"))
        lhs = Sup("x", body)
        rhs = Scale(Fraction(-1), Inf("x", Scale(Fraction(-1), body)))
        forward = axiom(Condition(lhs, rhs), "A16")
        backward = axiom(Condition(rhs, lhs), "A16")
        assert check(forward, []) and check(backward, [])
        for _ in range(10):
            m = rand_structure(rng, METRIC_ONLY)
            for node in (forward, backward):
                holds, margin = holds_universally(m, node.concl)
                assert holds and margin == 0


class TestRandomInstances:
    def test_axiom_instances_validate_and_probe_sound(self):
        rng = random.Random(63)
        for _ in range(120):
            sig = rand_signature(rng)
            node = rand_axiom_node(rng, sig)
            result = check(node, [])
            assert result.valid, (node.by, result.reason)
            family = [rand_structure(rng, sig, 3) for _ in range(3)]
            report = soundness_probe(node, [], family)
            assert report.sound, node.by

    def test_rule_instances_validate_and_probe_sound(self):
        rng = random.Random(64)
        for _ in range(60):
            sig = rand_signature(rng)
            node = rand_rule_node(rng, sig)
            result = check(node, [])
            assert result.valid, (node.by, result.reason)
            family = [rand_structure(rng, sig, 3) for _ in range(2)]
            assert soundness_probe(node, [], family).sound


class TestFuzz:
    def test_mutations_never_validate_an_unsound_conclusion(self):
        # A mutation may still hit another valid instance of the same schema
        # (e.g. 0*phi <= 0*1 with a perturbed phi), so "valid implies alpha
        # equal" is too strong; what must never happen is the checker
        # accepting a conclusion that does not hold wherever Gamma holds.
        rng = random.Random(65)
        rejected = 0
        for _ in range(150):
            sig = rand_signature(rng)
            base = (
                rand_rule_node(rng, sig)
                if rng.random() < 0.5
                else rand_axiom_node(rng, sig)
            )
            assert check(base, []).valid
            mutant = mutate_proof(rng, base)
            result = check(mutant, [])
            if result.valid:
                if not alpha_equal_condition(mutant.concl, base.concl):
                    family = [rand_structure(rng, sig, 3) for _ in range(4)]
                    assert soundness_probe(mutant, [], family).sound
            else:
                rejected += 1
        assert rejected > 75  # most mutations must be caught

    def test_worked_derivation_survives_fuzzing(self):
        rng = random.Random(66)
        proof, gamma = zero_scalar_derivation(Fraction(3))
        for _ in range(60):
            mutant = mutate_proof(rng, proof)
            result = check(mutant, gamma)
            if result.valid:
                assert alpha_equal_condition(mutant.concl, proof.concl)


class TestSchemaCatalog:
    def test_every_axiom_tag_has_a_schema(self):
        assert set(AXIOM_SCHEMAS) == set(AXIOM_TAGS)
        for tag, schema in AXIOM_SCHEMAS.items():
            assert schema.tag == tag
            assert schema.pattern

    def test_every_axiom_is_pattern_checked_or_hand_written(self):
        hand_written = {"A12", "A20", "A21", "A22"}
        for tag, schema in AXIOM_SCHEMAS.items():
            has_trees = schema.lhs is not None and schema.rhs is not None
            assert has_trees != (tag in hand_written), tag
        # a hand-written tag is answered by its own branch, never as unknown
        for tag in hand_written:
            assert "unknown" not in _check_axiom(tag, Condition(ONE, ONE), {})

    def test_equality_flags_control_orientation(self):
        d = Dist(Var("x"), Var("x"))
        assert AXIOM_SCHEMAS["A17"].equality
        assert check(axiom(Condition(ZERO, d), "A17"), [])
        # A19 is a plain inequality: the reversed orientation must fail
        x, y, z = Var("x"), Var("y"), Var("z")
        assert not AXIOM_SCHEMAS["A19"].equality
        reversed_a19 = axiom(
            Condition(Sum(Dist(x, y), Dist(y, z)), Dist(x, z)), "A19"
        )
        assert not check(reversed_a19, []).valid


def _negate_coefficients(phi):
    """phi with the sign of every scalar flipped, so that side conditions
    such as A15's 0 <= r and A3's r <= s come to fail."""
    if isinstance(phi, Scale):
        return Scale(-phi.coeff, _negate_coefficients(phi.body))
    if isinstance(phi, Sum):
        return Sum(_negate_coefficients(phi.left), _negate_coefficients(phi.right))
    if isinstance(phi, (Sup, Inf)):
        return type(phi)(phi.varname, _negate_coefficients(phi.body))
    return phi


class TestCatalogMatchesReference:
    """The pattern catalog gives the same verdict and reason as the
    hand-written matchers of `walkers.walk_check_axiom`, for every tag."""

    @staticmethod
    def assert_same(concl, inst):
        for tag in AXIOM_TAGS:
            assert _check_axiom(tag, concl, inst) == walk_check_axiom(tag, concl, inst), tag

    @settings(max_examples=300, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_random_instances_swaps_and_mutants(self, seed):
        rng = random.Random(seed)
        node = rand_axiom_node(rng, rand_signature(rng))
        lhs, rhs = node.concl.lhs, node.concl.rhs
        for concl in (
            node.concl,
            Condition(rhs, lhs),
            Condition(mutate_formula(rng, lhs), rhs),
            Condition(lhs, mutate_formula(rng, rhs)),
            Condition(_negate_coefficients(lhs), _negate_coefficients(rhs)),
        ):
            self.assert_same(concl, node.inst)

    def test_side_condition_of_a13(self):
        phi = parse_formula("d(x,y)", METRIC_ONLY)
        psi = parse_formula("d(x,x)", METRIC_ONLY)  # x free in the residue
        concl = Condition(Sup("x", Sum(phi, psi)), Sum(Sup("x", phi), psi))
        assert _check_axiom("A13", concl, {}) == "side condition fails: x is free in the residue"
        self.assert_same(concl, {})
        self.assert_same(Condition(concl.rhs, concl.lhs), {})


class TestNormalizer:
    def test_zero_scales_collapse_explicitly(self):
        phi = Sum(Scale(Fraction(0), Dist(Var("x"), Var("x"))), ONE)
        out = normalize_zero_scales(phi)
        assert out == Sum(ZERO, ONE)

    def test_checker_does_not_normalize(self):
        # 0*d(x,x) <= 0 is not an A11 instance unless the right side is 0*1
        bad_rhs = Scale(Fraction(0), Dist(Var("x"), Var("x")))
        node = axiom(Condition(bad_rhs, bad_rhs), "A11")
        assert not check(node, []).valid
