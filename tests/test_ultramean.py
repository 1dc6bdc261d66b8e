import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from affinelogic.errors import AffineLogicError, EvalError, UniverseCapError, ValidationError
from affinelogic.serialize import dump_json, mean_to_doc
from affinelogic.spaces import interval, two_point
from affinelogic.structures import eval_formula, make_structure, quotient, validate
from affinelogic.syntax import (
    Min,
    Signature,
    Sup,
    constant_symbol,
    function_symbol,
    parse_formula,
    relation_symbol,
)
from affinelogic.ultramean import (
    charge,
    diagonal_class,
    fubini,
    point_mass,
    powermean,
    ultramean,
    uniform_charge,
)

from helpers import (
    rand_affine_formula,
    rand_charge,
    rand_family,
    rand_sentence,
    rand_signature,
    rand_structure,
)
from walkers import walk_ultramean

METRIC_ONLY = Signature.metric_only()


def family_assignment(rng, family, mean, free_vars):
    """Random member-point choices per free variable, with both views."""
    mean_asg = {}
    member_asgs = [dict() for _ in family]
    for v in free_vars:
        tup = tuple(rng.choice(m.points) for m in family)
        mean_asg[v] = mean.class_point(tup)
        for i, a in enumerate(tup):
            member_asgs[i][v] = a
    return mean_asg, member_asgs


class TestUltramean:
    def test_point_mass_is_isomorphic_projection(self):
        rng = random.Random(21)
        sig = rand_signature(rng)
        family = [rand_structure(rng, sig) for _ in range(2)]
        mu = point_mass(["i0", "i1"], "i1")
        mean = ultramean(family, mu)
        # same number of classes as the selected member, same sentence values
        collapsed, _ = quotient(family[1])
        assert len(mean.structure.points) == len(collapsed.points)
        sigma = rand_sentence(rng, sig, 1, 8)
        assert eval_formula(mean.structure, sigma) == eval_formula(family[1], sigma)

    def test_half_half_sentence_identity(self):
        rng = random.Random(22)
        for _ in range(20):
            sig = rand_signature(rng)
            family = [rand_structure(rng, sig, 3) for _ in range(2)]
            mu = uniform_charge(["i0", "i1"])
            mean = ultramean(family, mu)
            sigma = rand_sentence(rng, sig, 2, 10)
            lhs = eval_formula(mean.structure, sigma)
            rhs = (
                eval_formula(family[0], sigma) + eval_formula(family[1], sigma)
            ) / 2
            assert lhs == rhs

    def test_nondegenerate_mean_is_proper_extension(self):
        m = two_point()
        mu = charge({"i0": Fraction(1, 3), "i1": Fraction(2, 3)})
        mean = ultramean([m, m], mu)
        assert len(mean.structure.points) == 4  # strictly more than 2 classes

    def test_mean_output_validates(self):
        rng = random.Random(23)
        for _ in range(15):
            sig = rand_signature(rng)
            family = rand_family(rng, sig)
            mu = rand_charge(rng, len(family))
            mean = ultramean(family, mu)
            assert validate(mean.structure, sig).valid

    def test_zero_weight_components_collapse(self):
        m1 = two_point()
        m2 = two_point(Fraction(1, 2))
        mu = charge({"i0": 1, "i1": 0})
        mean = ultramean([m1, m2], mu)
        # choices differing only in the weight-0 coordinate share a class
        assert mean.class_point(("a", "a")) == mean.class_point(("a", "b"))
        assert len(mean.structure.points) == 2

    def test_universe_cap(self):
        m = make_structure([f"q{i}" for i in range(8)], {})
        mu = uniform_charge(["i0", "i1", "i2"])
        with pytest.raises(UniverseCapError):
            ultramean([m, m, m], mu, max_tuples=100)

    @pytest.mark.parametrize("p", [0, -1])
    def test_exponent_below_one_is_refused(self, p):
        m = interval(2)
        with pytest.raises(EvalError, match=f"exponent must be a positive integer, got {p}"):
            ultramean([m, m], uniform_charge(["i0", "i1"]), p=p)

    def test_ultramean_theorem_exact(self):
        rng = random.Random(24)
        for _ in range(60):
            sig = rand_signature(rng)
            family = rand_family(rng, sig, 3, 4)
            mu = rand_charge(rng, len(family))
            mean = ultramean(family, mu)
            free = ["x"] if rng.random() < 0.5 else []
            phi = rand_affine_formula(rng, sig, free, 2, 10)
            mean_asg, member_asgs = family_assignment(rng, family, mean, sorted(phi.free))
            lhs = eval_formula(mean.structure, phi, mean_asg)
            rhs = sum(
                (
                    mu.weight(i) * eval_formula(m, phi, asg)
                    for i, m, asg in zip(mu.ids, family, member_asgs)
                ),
                Fraction(0),
            )
            assert lhs == rhs


class TestPowermean:
    def test_point_mass_is_identity(self):
        rng = random.Random(31)
        sig = rand_signature(rng)
        m = rand_structure(rng, sig)
        mean = powermean(m, point_mass(["i0", "i1"], "i0"))
        sigma = rand_sentence(rng, sig, 1, 8)
        assert eval_formula(mean.structure, sigma) == eval_formula(m, sigma)

    def test_diagonal_embedding_is_elementary(self):
        rng = random.Random(32)
        for _ in range(25):
            sig = rand_signature(rng)
            m = rand_structure(rng, sig, 3)
            mu = rand_charge(rng, rng.randint(1, 3))
            mean = powermean(m, mu)
            phi = rand_affine_formula(rng, sig, ["x", "y"], 1, 8)
            asg = {v: rng.choice(m.points) for v in phi.free}
            diag = {v: diagonal_class(mean, pt) for v, pt in asg.items()}
            assert eval_formula(m, phi, asg) == eval_formula(mean.structure, phi, diag)

    def test_two_point_uniform_powermean_has_four_points(self):
        mean = powermean(two_point(), uniform_charge(["i0", "i1"]))
        assert len(mean.structure.points) == 4

    def test_composition_with_fubini(self):
        rng = random.Random(33)
        for _ in range(20):
            sig = rand_signature(rng)
            m = rand_structure(rng, sig, 3)
            mu = rand_charge(rng, rng.randint(1, 2))
            nu = rand_charge(rng, rng.randint(1, 2))
            iterated = powermean(powermean(m, mu).structure, nu)
            combined = powermean(m, fubini(mu, nu))
            sigma = rand_sentence(rng, sig, 2, 10)
            assert eval_formula(iterated.structure, sigma) == eval_formula(
                combined.structure, sigma
            )


class TestFubini:
    def test_point_masses(self):
        mu = point_mass(["a", "b"], "a")
        nu = point_mass(["c"], "c")
        prod = fubini(mu, nu)
        assert prod.weights == {"a|c": 1, "b|c": 0}

    def test_uniform_products(self):
        prod = fubini(uniform_charge(["a", "b"]), uniform_charge(["x", "y", "z"]))
        assert len(prod.ids) == 6
        assert all(w == Fraction(1, 6) for w in prod.weights.values())

    def test_associativity_on_the_nose(self):
        rng = random.Random(41)
        mu = rand_charge(rng, 2)
        nu = rand_charge(rng, 3)
        rho = rand_charge(rng, 2)
        assert fubini(fubini(mu, nu), rho) == fubini(mu, fubini(nu, rho))


class TestNonAffineFailure:
    def test_min_sentence_breaks_the_mean_identity(self):
        sig = Signature(
            [relation_symbol("P", 1, 0), relation_symbol("Q", 1, 0)]
        )
        m1 = make_structure(
            ["a"], {}, relations={"P": {("a",): 0}, "Q": {("a",): 1}}
        )
        m2 = make_structure(
            ["a"], {}, relations={"P": {("a",): 1}, "Q": {("a",): 0}}
        )
        sigma = Min(
            Sup("x", parse_formula("P(x)", sig)), Sup("x", parse_formula("Q(x)", sig))
        )
        mu = uniform_charge(["i0", "i1"])
        mean = ultramean([m1, m2], mu)
        mean_value = eval_formula(mean.structure, sigma)
        weighted = (eval_formula(m1, sigma) + eval_formula(m2, sigma)) / 2
        assert mean_value == Fraction(1, 2)
        assert weighted == 0
        assert mean_value != weighted


# -- the integer construction against the Fraction reference -----------------


def _powers(m, q):
    """m with its distances stored as exact q-th powers (metric_power = q)."""
    return make_structure(
        m.points,
        [[e**q for e in row] for row in m.metric],
        m.constants,
        m.functions,
        m.relations,
        metric_power=q,
    )


def _without(m, name):
    """m with symbol `name` left uninterpreted."""
    return make_structure(
        m.points,
        m.metric,
        {c: v for c, v in m.constants.items() if c != name},
        {f: t for f, t in m.functions.items() if f != name},
        {r: t for r, t in m.relations.items() if r != name},
        metric_power=m.metric_power,
    )


def _mean_doc(build, family, mu, p, max_tuples, sig):
    """The mean document's bytes, or the error raised building it."""
    try:
        mean = build(family, mu, p=p, max_tuples=max_tuples)
    except AffineLogicError as exc:
        return type(exc).__name__, str(exc)
    return dump_json(mean_to_doc(mean, sig))


def _assert_same_mean(family, mu, p, sig, max_tuples=4096, build=ultramean):
    want = _mean_doc(walk_ultramean, family, mu, p, max_tuples, sig)
    assert _mean_doc(build, family, mu, p, max_tuples, sig) == want
    return want


def _powermean_family(family, mu, p, max_tuples):
    return powermean(family[0], mu, p=p, max_tuples=max_tuples)


class TestAgainstReference:
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(st.integers(min_value=0, max_value=2**32 - 1), st.sampled_from([1, 2, 3]))
    def test_mean_documents_match_the_reference(self, seed, p):
        """Constants, unary and binary functions and relations; members of
        different sizes, some storing p-th powers; random charges (often with
        zero weights), fubini products and powermeans; and at times faults:
        a member missing a symbol, storing another exponent's powers, or a
        product over the tuple cap."""
        rng = random.Random(seed)
        sig = rand_signature(rng)
        extra = [function_symbol("G", 2, rng.choice([1, 2]))] if rng.random() < 0.4 else []
        extra += [relation_symbol("S", 2, 1)] if rng.random() < 0.4 else []
        sig = Signature(sig.symbols() + extra)
        kind = rng.choice(["family", "fubini", "powermean"])
        if kind == "fubini":
            mu = fubini(rand_charge(rng, rng.randint(1, 2)), rand_charge(rng, rng.randint(1, 2)))
        else:
            mu = rand_charge(rng, rng.randint(1, 3))
        if kind == "powermean":
            family = [rand_structure(rng, sig, 3)] * len(mu.ids)
        else:
            family = [rand_structure(rng, sig, 3) for _ in mu.ids]
        if p > 1:
            family = [_powers(m, p) if rng.random() < 0.4 else m for m in family]
        k = rng.randrange(len(family))
        if sig.symbols() and rng.random() < 0.15:
            family[k] = _without(family[k], rng.choice(sig.symbols()).name)
        if rng.random() < 0.15:
            family[k] = _powers(family[k], rng.choice([q for q in (2, 3) if q != p]))
        size = 1
        for m in family:
            size *= len(m.points)
        max_tuples = size - 1 if rng.random() < 0.15 else 4096
        constant = kind == "powermean" and all(m is family[0] for m in family)
        build = _powermean_family if constant else ultramean
        _assert_same_mean(family, mu, p, sig, max_tuples, build)

    def test_errors_come_in_the_reference_order(self):
        """Size mismatch, symbols, exponent, tuple cap: each raised while
        every later fault is also present."""
        sig = Signature([constant_symbol("c")])
        m = make_structure(["a", "b", "c"], {("a", "b"): 1}, constants={"c": "a"})
        bare = _without(m, "c")
        cubes = _powers(m, 3)
        mu = uniform_charge(["i0", "i1"])
        cases = [
            ([], mu, 4096, "ValidationError", "family size 0 != charge index size 2"),
            ([m, bare], mu, 4096, "ValidationError", "interpret different constants"),
            ([cubes, bare], mu, 4, "ValidationError", "interpret different constants"),
            ([m, cubes], mu, 4, "ValidationError", "stores 3-th powers"),
            ([m, m], mu, 8, "UniverseCapError", "9 > 8 tuples"),
        ]
        for family, charge_, cap, kind, text in cases:
            got = _assert_same_mean(family, charge_, 2, sig, cap)
            assert got[0] == kind and text in got[1]

    def test_a_function_not_well_defined_on_classes_fails_alike(self):
        """Members are not validated: F tells apart two points at distance 0."""
        sig = Signature([function_symbol("F", 1, 1)])
        m = make_structure(
            ["a", "b", "c"],
            {("a", "b"): 0, ("a", "c"): 1, ("b", "c"): 1},
            functions={"F": {("a",): "a", ("b",): "c", ("c",): "c"}},
        )
        got = _assert_same_mean([m, m], uniform_charge(["i0", "i1"]), 1, sig)
        assert got == ("ValidationError", "function F not well-defined on classes at ('a|b',)")


class TestMemberTables:
    @pytest.mark.parametrize(
        "functions, relations, message",
        [
            ({"F": {("a",): "a"}}, {}, "family member 1: function F is not a map on its points"),
            ({"F": {("a",): "a", ("b",): "z"}}, {}, "function F is not a map on its points"),
            ({}, {"P": {("a",): 0}}, "family member 1: relation P has gaps on its points"),
            ({}, {"P": {("a", "a"): 0}}, "relation P has gaps on its points"),
        ],
    )
    def test_a_member_table_the_mean_cannot_read_is_refused(self, functions, relations, message):
        """A gap, a value that is no point, or another arity than the first
        member's (the reference raised KeyError or named a non-point)."""
        good = make_structure(
            ["a", "b"], {("a", "b"): 1},
            functions={"F": {("a",): "a", ("b",): "b"}} if functions else {},
            relations={"P": {("a",): 0, ("b",): 1}} if relations else {},
        )
        bad = make_structure(["a", "b"], {("a", "b"): 1}, functions=functions, relations=relations)
        with pytest.raises(ValidationError, match=message):
            ultramean([good, bad], uniform_charge(["i0", "i1"]))
