import random
from fractions import Fraction

import pytest

from affinelogic.errors import NotAffineError, UnsatisfiableError, ValidationError
from affinelogic.satisfiability import (
    NotSeparable,
    Sat,
    Separation,
    Unsat,
    consequence_margin,
    sat_over_family,
    separate,
    value_matrix,
)
from affinelogic.structures import check_condition, eval_formula, make_structure
from affinelogic.syntax import (
    Condition,
    Signature,
    Theory,
    ZERO,
    affine_combination,
    parse_formula,
    relation_symbol,
)
from affinelogic.ultramean import ultramean

from helpers import rand_family, rand_sentence, rand_signature

SIG = Signature([relation_symbol("P", 1, 1)])


def structure_with_sigma(value):
    """One-point structure where sigma := 2*(sup x. P(x)) - 1 takes the given value."""
    return make_structure(
        ["a"], {}, relations={"P": {("a",): (Fraction(value) + 1) / 2}}
    )


SIGMA = parse_formula("2*(sup x. P(x)) + -1*1", SIG)


def cond(lhs_text, rhs_text):
    return Condition(parse_formula(lhs_text, SIG), parse_formula(rhs_text, SIG))


class TestSatOverFamily:
    def test_opposite_values_need_the_half_half_charge(self):
        family = [structure_with_sigma(-1), structure_with_sigma(1)]
        theory = Theory(
            (
                Condition(ZERO, SIGMA),
                Condition(SIGMA, ZERO),
            )
        )
        verdict = sat_over_family(theory, family)
        assert isinstance(verdict, Sat)
        assert sorted(verdict.charge.weights.values()) == [
            Fraction(1, 2),
            Fraction(1, 2),
        ]

    def test_unsat_certificate_single_condition(self):
        family = [structure_with_sigma(0)]
        theory = Theory((Condition(parse_formula("1", SIG), SIGMA),))
        verdict = sat_over_family(theory, family)
        assert isinstance(verdict, Unsat)
        assert verdict.certificate == [(0, Fraction(1))]
        assert verdict.margin == 1

    def test_theory_holding_in_member_gives_point_mass(self):
        m = structure_with_sigma(Fraction(1, 2))
        theory = Theory((Condition(ZERO, SIGMA),))
        verdict = sat_over_family(theory, [m])
        assert isinstance(verdict, Sat)
        assert list(verdict.charge.weights.values()) == [1]

    def test_empty_theory_is_satisfiable(self):
        verdict = sat_over_family(Theory(()), [structure_with_sigma(0)])
        assert isinstance(verdict, Sat)

    def test_exactly_one_verdict_with_sound_certificates(self):
        rng = random.Random(71)
        for _ in range(150):
            sig = rand_signature(rng)
            family = rand_family(rng, sig, 3, 3)
            conds = []
            for _ in range(rng.randint(1, 3)):
                lhs = rand_sentence(rng, sig, 1, 6)
                rhs = rand_sentence(rng, sig, 1, 6)
                conds.append(Condition(lhs, rhs))
            theory = Theory(tuple(conds))
            verdict = sat_over_family(theory, family, verify=False)
            if isinstance(verdict, Sat):
                mean = ultramean(family, verdict.charge)
                for c in conds:
                    holds, margin = check_condition(mean.structure, c)
                    assert holds, margin
            else:
                combined = affine_combination(
                    [(conds[j], w) for j, w in verdict.certificate]
                )
                assert verdict.margin > 0
                for m in family:
                    holds, margin = check_condition(m, combined)
                    assert margin <= -verdict.margin


class TestConsequence:
    def test_theory_member_is_consequence(self):
        family = [structure_with_sigma(-1), structure_with_sigma(1)]
        target = cond("0*1", "2*(sup x. P(x)) + -1*1")
        theory = Theory((target,))
        res = consequence_margin(theory, target, family)
        assert res.margin >= 0

    def test_empty_theory_minimizes_over_point_masses(self):
        family = [structure_with_sigma(-1), structure_with_sigma(1)]
        target = Condition(ZERO, SIGMA)
        res = consequence_margin(Theory(()), target, family)
        assert res.margin == -1
        assert not res.is_consequence

    def test_scaling_closure(self):
        family = [structure_with_sigma(-1), structure_with_sigma(1)]
        theory = Theory((Condition(ZERO, SIGMA),))
        doubled = Condition(ZERO, parse_formula("2*(2*(sup x. P(x)) + -1*1)", SIG))
        res = consequence_margin(theory, doubled, family)
        assert res.margin >= 0
        assert res.is_consequence

    def test_closure_witness_bounds_target_everywhere(self):
        rng = random.Random(72)
        hits = 0
        for _ in range(60):
            sig = rand_signature(rng)
            family = rand_family(rng, sig, 3, 3)
            conds = [
                Condition(rand_sentence(rng, sig, 1, 6), rand_sentence(rng, sig, 1, 6))
                for _ in range(rng.randint(0, 2))
            ]
            target = Condition(
                rand_sentence(rng, sig, 1, 6), rand_sentence(rng, sig, 1, 6)
            )
            theory = Theory(tuple(conds))
            try:
                res = consequence_margin(theory, target, family)
            except UnsatisfiableError:
                continue
            hits += 1
            coeffs = dict(res.closure_coeffs)
            for m in family:
                value = eval_formula(m, target.rhs) - eval_formula(m, target.lhs)
                for j, c in coeffs.items():
                    value -= c * (
                        eval_formula(m, conds[j].rhs) - eval_formula(m, conds[j].lhs)
                    )
                assert value >= res.margin
        assert hits > 30

    def test_unsatisfiable_theory_raises_with_certificate(self):
        family = [structure_with_sigma(0)]
        theory = Theory((Condition(parse_formula("1", SIG), SIGMA),))
        with pytest.raises(UnsatisfiableError) as err:
            consequence_margin(theory, Condition(ZERO, ZERO), family)
        assert isinstance(err.value.certificate, Unsat)


    def test_errors_keep_their_order(self):
        """Empty family, non-affine theory, unsatisfiable theory, and only then
        a non-affine or open target."""
        family = [structure_with_sigma(0)]
        unsat = Theory((Condition(parse_formula("1", SIG), SIGMA),))
        nonaffine = Theory((Condition(ZERO, parse_formula("min(1, sup x. P(x))", SIG)),))
        open_target = Condition(ZERO, parse_formula("P(x)", SIG))
        min_target = Condition(ZERO, parse_formula("max(1, sup x. P(x))", SIG))
        with pytest.raises(ValidationError, match="empty family"):
            consequence_margin(nonaffine, min_target, [])
        with pytest.raises(NotAffineError, match="affine satisfiability"):
            consequence_margin(nonaffine, open_target, family)
        for target in (open_target, min_target):
            with pytest.raises(UnsatisfiableError):
                consequence_margin(unsat, target, family)
        with pytest.raises(ValidationError, match="must be closed"):
            consequence_margin(Theory(()), open_target, family)
        with pytest.raises(NotAffineError, match="consequence margins"):
            consequence_margin(Theory(()), min_target, family)

    def test_margin_lp_is_feasible_exactly_when_sat(self):
        rng = random.Random(76)
        seen = set()
        for _ in range(40):
            sig = rand_signature(rng)
            family = rand_family(rng, sig, 3, 3)
            theory = Theory(tuple(
                Condition(rand_sentence(rng, sig, 1, 6), rand_sentence(rng, sig, 1, 6))
                for _ in range(rng.randint(1, 3))
            ))
            target = Condition(rand_sentence(rng, sig, 1, 6), rand_sentence(rng, sig, 1, 6))
            verdict = sat_over_family(theory, family, verify=False)
            try:
                consequence_margin(theory, target, family)
                raised = None
            except UnsatisfiableError as exc:
                raised = exc.certificate
            assert raised == (verdict if isinstance(verdict, Unsat) else None)
            seen.add(type(verdict))
        assert seen == {Sat, Unsat}


class TestSeparate:
    def test_disjoint_singletons(self):
        a = [structure_with_sigma(0)]
        b = [structure_with_sigma(1)]
        result = separate(a, b, [SIGMA])
        assert isinstance(result, Separation)
        assert result.coeffs == [1]
        assert (result.r, result.s) == (0, 1)

    def test_identical_families_not_separable(self):
        a = [structure_with_sigma(Fraction(1, 2))]
        b = [structure_with_sigma(Fraction(1, 2))]
        assert isinstance(separate(a, b, [SIGMA]), NotSeparable)

    def test_overlapping_hulls_not_separable(self):
        a = [structure_with_sigma(-1), structure_with_sigma(1)]
        b = [structure_with_sigma(0)]
        assert isinstance(separate(a, b, [SIGMA]), NotSeparable)

    def test_verdict_matches_exact_hull_intersection(self):
        # independent route: the value-vector hulls intersect iff the LP
        # {combination of A-vectors = combination of B-vectors} is feasible
        from affinelogic.lp import INFEASIBLE, solve_lp
        from affinelogic.satisfiability import value_matrix

        rng = random.Random(76)
        both = {True: 0, False: 0}
        for _ in range(60):
            sig = rand_signature(rng)
            fam_a = rand_family(rng, sig, 2, 3)
            fam_b = rand_family(rng, sig, 2, 3)
            basis = [rand_sentence(rng, sig, 1, 5) for _ in range(rng.randint(1, 2))]
            va = value_matrix(fam_a, basis).values
            vb = value_matrix(fam_b, basis).values
            k = len(basis)
            na, nb = len(va), len(vb)
            a_eq = [
                [va[i][d] for i in range(na)] + [-vb[j][d] for j in range(nb)]
                for d in range(k)
            ]
            a_eq.append([Fraction(1)] * na + [Fraction(0)] * nb)
            a_eq.append([Fraction(0)] * na + [Fraction(1)] * nb)
            b_eq = [Fraction(0)] * k + [Fraction(1), Fraction(1)]
            hulls_meet = solve_lp([0] * (na + nb), None, None, a_eq, b_eq).status != INFEASIBLE
            verdict = separate(fam_a, fam_b, basis)
            assert isinstance(verdict, NotSeparable) == hulls_meet
            both[hulls_meet] += 1
        assert both[True] > 5 and both[False] > 5

    def test_separation_verified_by_evaluation(self):
        rng = random.Random(73)
        separable_seen = 0
        for _ in range(40):
            sig = rand_signature(rng)
            fam_a = rand_family(rng, sig, 2, 3)
            fam_b = rand_family(rng, sig, 2, 3)
            basis = [rand_sentence(rng, sig, 1, 6) for _ in range(rng.randint(1, 3))]
            result = separate(fam_a, fam_b, basis)
            if isinstance(result, NotSeparable):
                continue
            separable_seen += 1
            assert result.r < result.s
            for m in fam_a:
                val = sum(
                    (c * eval_formula(m, s) for c, s in zip(result.coeffs, basis)),
                    Fraction(0),
                )
                assert val <= result.r
            for m in fam_b:
                val = sum(
                    (c * eval_formula(m, s) for c, s in zip(result.coeffs, basis)),
                    Fraction(0),
                )
                assert val >= result.s
        assert separable_seen > 5


class TestAffineOnlyGuards:
    def test_min_conditions_rejected(self):
        from affinelogic.errors import NotAffineError
        from affinelogic.syntax import Min, ONE

        sigma = Min(ONE, ONE)
        theory = Theory((Condition(ZERO, sigma),))
        family = [structure_with_sigma(0)]
        with pytest.raises(NotAffineError):
            sat_over_family(theory, family)
        with pytest.raises(NotAffineError):
            consequence_margin(Theory(()), Condition(ZERO, sigma), family)
        with pytest.raises(NotAffineError):
            separate(family, family, [sigma])


class TestAffineClosure:
    def test_combination_of_satisfied_conditions_is_satisfied(self):
        rng = random.Random(75)
        for _ in range(60):
            sig = rand_signature(rng)
            family = rand_family(rng, sig, 2, 3)
            m = family[0]
            satisfied = []
            for _ in range(6):
                lhs = rand_sentence(rng, sig, 1, 6)
                rhs = rand_sentence(rng, sig, 1, 6)
                c = Condition(lhs, rhs)
                if check_condition(m, c)[0]:
                    satisfied.append(c)
                if len(satisfied) == 3:
                    break
            if not satisfied:
                continue
            weights = [Fraction(rng.randint(0, 4), 2) for _ in satisfied]
            if all(w == 0 for w in weights):
                weights[0] = Fraction(1)
            combo = affine_combination(list(zip(satisfied, weights)))
            holds, margin = check_condition(m, combo)
            assert holds and margin >= 0


class TestValueMatrix:
    def test_entries_match_eval(self):
        rng = random.Random(74)
        sig = rand_signature(rng)
        family = rand_family(rng, sig, 3, 3)
        sentences = [rand_sentence(rng, sig, 1, 6) for _ in range(3)]
        vm = value_matrix(family, sentences)
        for i, m in enumerate(family):
            for k, s in enumerate(sentences):
                assert vm.values[i][k] == eval_formula(m, s)
