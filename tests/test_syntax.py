import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affinelogic.errors import CaptureError, ParseError, SignatureError
from affinelogic.pra import algebra, pra_signature, qe, structure_from_algebra
from affinelogic.structures import value_table
from affinelogic.syntax import (
    MAX_PARSE_DEPTH,
    Condition,
    Dist,
    Inf,
    ONE,
    Rel,
    Scale,
    Signature,
    Sum,
    Sup,
    Var,
    ZERO,
    affine_combination,
    alpha_equal,
    format_formula,
    function_symbol,
    parse_condition,
    parse_formula,
    parse_term,
    relation_symbol,
    substitute,
)

from helpers import rand_affine_formula, rand_signature

SIG = Signature([function_symbol("F", 1, 2), relation_symbol("P", 1, 1)])


class TestParsing:
    def test_dist_atom(self):
        phi = parse_formula("d(x,y)", SIG)
        assert isinstance(phi, Dist)
        assert phi.lipschitz == 2
        assert phi.bound == 1

    def test_scaled_sum_constants(self):
        # 3*d(F(x),y) + 2*1 with lip(F)=2: lip = 3*(2*1+1) = 9, bound = 3+2 = 5
        phi = parse_formula("3*d(F(x),y) + 2*1", SIG)
        assert phi.lipschitz == 9
        assert phi.bound == 5

    def test_quantifier_keeps_constants(self):
        phi = parse_formula("sup y. d(x,y)", SIG)
        assert phi.lipschitz == 2
        assert phi.bound == 1
        assert phi.free == {"x"}

    def test_quantifier_scopes_to_the_right(self):
        phi = parse_formula("sup x. d(x,y) + d(x,x)", SIG)
        assert isinstance(phi, Sup)
        assert isinstance(phi.body, Sum)

    def test_syntax_error_has_position(self):
        with pytest.raises(ParseError) as err:
            parse_formula("d(x,", SIG)
        assert err.value.position is not None

    def test_unknown_symbol(self):
        with pytest.raises(SignatureError):
            parse_formula("R(x)", SIG)

    def test_arity_mismatch(self):
        with pytest.raises(SignatureError):
            parse_formula("P(x,y)", SIG)

    def test_numeral_requires_star_one(self):
        with pytest.raises(ParseError):
            parse_formula("2 + d(x,y)", SIG)

    def test_decimal_rejected(self):
        with pytest.raises(ParseError):
            parse_formula("0", SIG)

    def test_minus_folds_into_coefficient(self):
        phi = parse_formula("d(x,y) - 3*P(x)", SIG)
        assert isinstance(phi, Sum)
        assert isinstance(phi.right, Scale)
        assert phi.right.coeff == -3

    def test_min_max_flagged_non_affine(self):
        phi = parse_formula("min(d(x,y), 1)", SIG)
        assert not phi.affine
        assert parse_formula("d(x,y) + 1", SIG).affine

    def test_condition(self):
        cond = parse_condition("d(x,x) <= 0*1", SIG)
        assert isinstance(cond, Condition)
        assert cond.rhs == ZERO
        assert not cond.closed


def _deep(shape, n):
    """A probability-algebra formula n levels deep."""
    if shape == "sum":  # n - 1 summands of height 2 under n - 2 Sum nodes
        return " + ".join(["d(x,y)"] * (n - 1))
    if shape == "quantifiers":
        return "".join("sup x. " if i % 2 else "inf y. " for i in range(n - 2)) + "d(x,y)"
    if shape == "terms":
        return "mu(" + "not(" * (n - 2) + "x" + ")" * (n - 1)
    if shape == "scales":
        return "-1*(" * (n - 2) + "d(x,y)" + ")" * (n - 2)
    return "(" * (n - 1) + "d(x,y)" + ")" * (n - 1)  # n brackets open at once


class TestDepthLimit:
    SHAPES = ["sum", "quantifiers", "terms", "scales", "brackets"]
    PRA = pra_signature()

    @pytest.mark.parametrize("shape", SHAPES)
    def test_every_walker_succeeds_at_the_limit(self, shape):
        phi = parse_formula(_deep(shape, MAX_PARSE_DEPTH), self.PRA)
        free = sorted(phi.free)
        m = structure_from_algebra(algebra(["1/2", "1/2"]))
        assert len(value_table(m, phi, free)) == len(m.points) ** len(free)
        qe(phi)
        assert parse_formula(format_formula(phi), self.PRA) == phi

    @pytest.mark.parametrize("shape", SHAPES)
    def test_one_level_deeper_is_a_parse_error(self, shape):
        with pytest.raises(ParseError, match=f"nested deeper than {MAX_PARSE_DEPTH} levels"):
            parse_formula(_deep(shape, MAX_PARSE_DEPTH + 1), self.PRA)


class TestRoundTrip:
    CASES = [
        "d(x,y)",
        "3*d(F(x),y) + 2*1",
        "sup y. d(x,y)",
        "sup x. inf y. 1/2*d(x,y)+1/2*d(y,x)",
        "2*(sup x. d(x,x) + 1) + -1/2*d(y,y)",
        "min(sup x. d(x,y), max(1, P(x)))",
        "1 + 1 + 1",
        "-2/3*P(F(x))",
    ]

    @pytest.mark.parametrize("text", CASES)
    def test_print_parse_identity(self, text):
        phi = parse_formula(text, SIG)
        assert parse_formula(format_formula(phi), SIG) == phi

    def test_random_formulas_round_trip(self):
        rng = random.Random(2024)
        for _ in range(300):
            sig = rand_signature(rng)
            phi = rand_affine_formula(rng, sig, ["x", "y"], 2, 12)
            assert parse_formula(format_formula(phi), sig) == phi


class TestDerivedFields:
    def test_recursion_equations_hold_on_random_formulas(self):
        rng = random.Random(99)

        def lip(phi):
            if isinstance(phi, Dist):
                return term_lip(phi.left) + term_lip(phi.right)
            if isinstance(phi, Rel):
                return phi.rel_lipschitz * sum(term_lip(t) for t in phi.args)
            if isinstance(phi, Sum):
                return lip(phi.left) + lip(phi.right)
            if isinstance(phi, Scale):
                return abs(phi.coeff) * lip(phi.body)
            if isinstance(phi, (Sup, Inf)):
                return lip(phi.body)
            return Fraction(0)

        def bound(phi):
            if isinstance(phi, Sum):
                return bound(phi.left) + bound(phi.right)
            if isinstance(phi, Scale):
                return abs(phi.coeff) * bound(phi.body)
            if isinstance(phi, (Sup, Inf)):
                return bound(phi.body)
            return Fraction(1)

        def term_lip(t):
            if isinstance(t, Var):
                return Fraction(1)
            if hasattr(t, "args"):
                return t.func_lipschitz * sum(term_lip(a) for a in t.args)
            return Fraction(0)

        for _ in range(300):
            sig = rand_signature(rng)
            phi = rand_affine_formula(rng, sig, ["x", "y", "z"], 2, 12)
            assert phi.lipschitz == lip(phi)
            assert phi.bound == bound(phi)

    @given(
        r=st.fractions(max_denominator=8),
        s=st.fractions(max_denominator=8),
    )
    @settings(max_examples=50)
    def test_scale_multiplies_bounds(self, r, s):
        phi = Scale(r, Scale(s, parse_formula("d(x,y)", SIG)))
        assert phi.bound == abs(r) * abs(s)
        assert phi.lipschitz == abs(r) * abs(s) * 2


class TestSubstitution:
    def test_plain_substitution(self):
        sig = Signature([function_symbol("F", 1, 2), relation_symbol("P", 1, 1)])
        phi = parse_formula("d(x,y)", sig)
        out = substitute(phi, "x", parse_term("F(y)", sig))
        assert out == parse_formula("d(F(y),y)", sig)

    def test_capture_refused(self):
        phi = parse_formula("sup y. d(x,y)", SIG)
        with pytest.raises(CaptureError):
            substitute(phi, "x", Var("y"))

    def test_capture_avoided_when_binder_differs(self):
        phi = parse_formula("sup z. d(x,z)", SIG)
        out = substitute(phi, "x", parse_term("F(y)", SIG))
        assert out == parse_formula("sup z. d(F(y),z)", SIG)

    def test_derived_fields_recomputed(self):
        phi = parse_formula("d(x,y)", SIG)  # lip 2
        out = substitute(phi, "x", parse_term("F(y)", SIG))  # lip(F(y)) = 2
        assert out.lipschitz == 3


class TestAlphaEquivalence:
    def test_bound_renaming(self):
        a = parse_formula("sup x. d(x,y)", SIG)
        b = parse_formula("sup z. d(z,y)", SIG)
        assert alpha_equal(a, b)
        assert a != b

    def test_free_variables_matter(self):
        a = parse_formula("sup x. d(x,y)", SIG)
        b = parse_formula("sup x. d(x,z)", SIG)
        assert not alpha_equal(a, b)

    def test_shadowing(self):
        a = parse_formula("sup x. sup x. d(x,x)", SIG)
        b = parse_formula("sup y. sup x. d(x,x)", SIG)
        assert alpha_equal(a, b)


class TestAffineCombination:
    def test_two_conditions_unit_weights(self):
        sigma = parse_formula("sup x. P(x)", SIG)
        c1 = Condition(ZERO, sigma)
        c2 = Condition(sigma, ZERO)
        combo = affine_combination([(c1, 1), (c2, 1)])
        assert combo.lhs == Sum(ZERO, sigma)
        assert combo.rhs == Sum(sigma, ZERO)

    def test_single_condition_scaled(self):
        phi = parse_formula("P(x)", SIG)
        psi = parse_formula("d(x,x)", SIG)
        combo = affine_combination([(Condition(phi, psi), 2)])
        assert combo.lhs == Scale(Fraction(2), phi)
        assert combo.rhs == Scale(Fraction(2), psi)

    def test_zero_sides_collapse(self):
        sigma = parse_formula("sup x. P(x)", SIG)
        eta = parse_formula("inf x. P(x)", SIG)
        combo = affine_combination(
            [(Condition(ZERO, sigma), Fraction(1, 2)), (Condition(ZERO, eta), Fraction(1, 2))]
        )
        assert combo.lhs == ZERO
        assert combo.rhs == Sum(Scale(Fraction(1, 2), sigma), Scale(Fraction(1, 2), eta))

    def test_rejects_bad_weights(self):
        c = Condition(ZERO, ONE)
        with pytest.raises(ParseError):
            affine_combination([])
        with pytest.raises(ParseError):
            affine_combination([(c, -1)])
        with pytest.raises(ParseError):
            affine_combination([(c, 0), (c, 0)])
