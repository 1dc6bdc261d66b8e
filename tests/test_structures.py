import decimal
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from affinelogic.errors import AffineLogicError, EvalError
from affinelogic.pra import algebra, pra_signature, structure_from_algebra
from affinelogic.serialize import dump_json, structure_to_doc
from affinelogic.spaces import cantor, circle, interval, sphere, two_point
from affinelogic.structures import (
    check_condition,
    eval_formula,
    holds_universally,
    leq_root_sum_int,
    make_structure,
    quotient,
    rendezvous_value,
    rendezvous_sentences,
    validate,
)
from affinelogic.syntax import (
    Signature,
    function_symbol,
    over_common_denominator,
    parse_condition,
    parse_formula,
    relation_symbol,
)

from helpers import rand_affine_formula, rand_signature, rand_structure
from walkers import leq_root_sum, walk_quotient, walk_validate

METRIC_ONLY = Signature.metric_only()


class TestValidate:
    def test_two_point_valid(self):
        assert validate(two_point(), METRIC_ONLY).valid

    def test_lipschitz_violation_reported(self):
        sig = Signature([relation_symbol("R", 1, Fraction(1, 2))])
        m = make_structure(
            ["a", "b"],
            {("a", "b"): 1},
            relations={"R": {("a",): 1, ("b",): 0}},
        )
        report = validate(m, sig)
        assert not report.valid
        kinds = {v.kind for v in report.violations}
        assert "relation-lipschitz" in kinds
        worst = [v for v in report.violations if v.kind == "relation-lipschitz"]
        assert worst[0].amount == 1  # exceeds (1/2)*d(a,b) = 1/2 with R-gap 1

    def test_pra_two_element_algebra_valid(self):
        # the 1-atom algebra is the {0,1} probability algebra
        m = structure_from_algebra(algebra([1]))
        assert validate(m, pra_signature()).valid

    def test_pra_two_atom_algebra_valid(self):
        m = structure_from_algebra(algebra(["1/4", "3/4"]))
        assert validate(m, pra_signature()).valid

    def test_triangle_violation_detected(self):
        m = make_structure(
            ["a", "b", "c"],
            {("a", "b"): 1, ("b", "c"): Fraction(1, 8), ("a", "c"): Fraction(1, 8)},
        )
        report = validate(m, METRIC_ONLY)
        assert any(v.kind == "triangle-violation" for v in report.violations)

    def test_triangle_violation_names_the_entries_compared(self):
        # asymmetric: d(b,c) = 1/8 but d(c,b) = 1; only d(a,b) > d(a,c) + d(b,c) fails
        third = Fraction(1, 8)
        m = make_structure(
            ["a", "b", "c"],
            [[0, Fraction(1, 2), third], [Fraction(1, 2), 0, third], [third, 1, 0]],
        )
        report = validate(m, METRIC_ONLY)
        triangles = [v for v in report.violations if v.kind == "triangle-violation"]
        assert [(v.where, v.amount) for v in triangles] == [
            ("d(a,b) > d(a,c)+d(b,c)", Fraction(1, 4))
        ]

    @staticmethod
    def _stored_powers(p, ab, bc, ac):
        return make_structure(
            ["a", "b", "c"], {("a", "b"): ab, ("b", "c"): bc, ("a", "c"): ac}, metric_power=p
        )

    def test_stored_squares_meet_the_triangle_with_equality(self):
        """sqrt(25/36) = sqrt(1/9) + sqrt(1/4): 5/6 = 1/3 + 1/2, on three denominators."""
        m = self._stored_powers(2, Fraction(1, 9), Fraction(1, 4), Fraction(25, 36))
        assert validate(m, METRIC_ONLY).violations == []
        assert walk_validate(m, METRIC_ONLY).violations == []

    def test_stored_squares_just_past_equality_violate_once(self):
        m = self._stored_powers(2, Fraction(1, 9), Fraction(1, 4), Fraction(26, 36))
        report = validate(m, METRIC_ONLY)
        assert [(v.kind, v.where, v.amount) for v in report.violations] == [
            ("triangle-violation", "d(a,c) > d(a,b)+d(b,c) (compared in 2-th powers)", None)
        ]
        assert report.violations == walk_validate(m, METRIC_ONLY).violations

    @pytest.mark.parametrize(
        "ab, bc, ac, violations",
        [
            (Fraction(1, 27), Fraction(1, 8), Fraction(125, 216), 0),  # 1/3 + 1/2 = 5/6
            (Fraction(1, 27), Fraction(1, 8), Fraction(126, 216), 1),
            (Fraction(1, 100), Fraction(1, 50), Fraction(1, 9), 0),  # irrational roots
            (Fraction(1, 100), Fraction(1, 50), Fraction(1, 8), 1),
        ],
    )
    def test_stored_cubes_match_the_reference(self, ab, bc, ac, violations):
        m = self._stored_powers(3, ab, bc, ac)
        report = validate(m, METRIC_ONLY)
        assert len(report.violations) == violations
        assert report.violations == walk_validate(m, METRIC_ONLY).violations

    def test_stored_squares_keep_their_triangle_at_any_lipschitz_exponent(self):
        """The line {0, 1/2, 1} as stored squares 1/4, 1/4, 1: the triangle is
        read at metric_power 2, whatever exponent the Lipschitz checks use."""
        m = self._stored_powers(2, Fraction(1, 4), Fraction(1, 4), Fraction(1))
        assert validate(m, Signature(), p=1).violations == []
        assert walk_validate(m, Signature(), p=1).violations == []

    def test_missing_interpretation(self):
        sig = Signature([relation_symbol("R", 1, 1)])
        report = validate(two_point(), sig)
        assert any(v.kind == "missing-interpretation" for v in report.violations)

    def test_random_structures_validate(self):
        rng = random.Random(5)
        for _ in range(60):
            sig = rand_signature(rng)
            m = rand_structure(rng, sig)
            report = validate(m, sig)
            assert report.valid, report.violations[:3]


class TestEval:
    def test_two_point_rendezvous_sentence(self):
        phi = parse_formula(
            "sup x1. sup x2. inf y. 1/2*d(x1,y)+1/2*d(x2,y)", METRIC_ONLY
        )
        assert eval_formula(two_point(), phi) == Fraction(1, 2)

    def test_exhaustive_oracle_agrees_on_two_point(self):
        m = two_point()
        phi = parse_formula(
            "sup x1. sup x2. inf y. 1/2*d(x1,y)+1/2*d(x2,y)", METRIC_ONLY
        )
        best = max(
            min(
                Fraction(1, 2) * (m.d(x1, y) + m.d(x2, y))
                for y in m.points
            )
            for x1 in m.points
            for x2 in m.points
        )
        assert eval_formula(m, phi) == best

    def test_sup_distance_on_three_points(self):
        m = interval(3)  # {0, 1/2, 1}
        phi = parse_formula("sup y. d(x,y)", METRIC_ONLY)
        assert eval_formula(m, phi, {"x": "t0"}) == 1

    def test_interval_sup_identity(self):
        # sup_y d(x,y) agrees with 1/2 + d(x, midpoint) on {0,1/2,1}
        m = interval(3)
        phi = parse_formula("sup y. d(x,y)", METRIC_ONLY)
        psi = parse_formula("1/2*1 + d(x,mid)", Signature.metric_only())
        for x in m.points:
            lhs = eval_formula(m, phi, {"x": x})
            rhs = eval_formula(m, psi, {"x": x, "mid": "t1"})
            assert lhs == rhs

    def test_assignment_gap_raises(self):
        with pytest.raises(EvalError):
            eval_formula(two_point(), parse_formula("d(x,y)", METRIC_ONLY), {"x": "a"})

    def test_p_must_be_positive_integer(self):
        with pytest.raises(EvalError):
            eval_formula(two_point(), parse_formula("d(x,x)", METRIC_ONLY), {"x": "a"}, p=0)

    def test_p2_squares_atoms(self):
        m = interval(3)
        phi = parse_formula("d(x,y)", METRIC_ONLY)
        asg = {"x": "t0", "y": "t1"}
        assert eval_formula(m, phi, asg, p=2) == Fraction(1, 4)

    def test_bound_respected_on_random_formulas(self):
        rng = random.Random(11)
        for _ in range(150):
            sig = rand_signature(rng)
            m = rand_structure(rng, sig)
            phi = rand_affine_formula(rng, sig, ["x"], 1, 8)
            val = eval_formula(m, phi, {"x": m.points[0]})
            assert abs(val) <= phi.bound

    def test_eval_is_lipschitz_in_the_assignment(self):
        rng = random.Random(12)
        for _ in range(100):
            sig = rand_signature(rng)
            m = rand_structure(rng, sig)
            phi = rand_affine_formula(rng, sig, ["x", "y"], 1, 8)
            pts = m.points
            for _ in range(4):
                a = {v: rng.choice(pts) for v in ("x", "y")}
                b = {v: rng.choice(pts) for v in ("x", "y")}
                dist = sum(
                    (m.d(a[v], b[v]) for v in sorted(phi.free)), Fraction(0)
                )
                gap = eval_formula(m, phi, a) - eval_formula(m, phi, b)
                assert gap <= phi.lipschitz * dist

    def test_sup_is_exhaustive_max(self):
        from affinelogic.syntax import Inf, Sup

        rng = random.Random(13)
        for _ in range(50):
            sig = rand_signature(rng)
            m = rand_structure(rng, sig)
            body = rand_affine_formula(rng, sig, ["x"], 0, 6)
            per_point = [eval_formula(m, body, {"x": pt}) for pt in m.points]
            assert eval_formula(m, Sup("x", body)) == max(per_point)
            assert eval_formula(m, Inf("x", body)) == min(per_point)


class TestCheckCondition:
    def test_metric_axiom_holds_with_zero_margin(self):
        cond = parse_condition("d(x,x) <= 0*1", METRIC_ONLY)
        holds, margin = check_condition(two_point(), cond, {"x": "a"})
        assert holds and margin == 0
        assert holds_universally(two_point(), cond) == (True, Fraction(0))

    def test_one_leq_zero_fails(self):
        cond = parse_condition("1 <= 0*1", METRIC_ONLY)
        holds, margin = check_condition(two_point(), cond)
        assert not holds and margin == -1

    def test_pra_modular_law(self):
        sig = pra_signature()
        m = structure_from_algebra(algebra([1]))  # the {0,1} algebra
        lhs = "mu(and(x,y)) + mu(or(x,y))"
        rhs = "mu(x) + mu(y)"
        for text in (f"{lhs} <= {rhs}", f"{rhs} <= {lhs}"):
            cond = parse_condition(text, sig)
            holds, margin = holds_universally(m, cond)
            assert holds and margin == 0


class TestQuotient:
    def test_zero_distance_points_identified(self):
        m = make_structure(
            ["a", "b", "c"],
            {("a", "b"): 0, ("a", "c"): Fraction(1, 2), ("b", "c"): Fraction(1, 2)},
        )
        q, rep = quotient(m)
        assert len(q.points) == 2
        assert rep["b"] == "a"

    def test_metric_structure_unchanged(self):
        m = two_point()
        q, rep = quotient(m)
        assert q is m
        assert rep == {"a": "a", "b": "b"}

    def test_sentence_values_preserved(self):
        sig = Signature([relation_symbol("R", 1, 1)])
        m = make_structure(
            ["a", "b", "c"],
            {("a", "b"): 0, ("a", "c"): 1, ("b", "c"): 1},
            relations={"R": {("a",): Fraction(1, 2), ("b",): Fraction(1, 2), ("c",): 1}},
        )
        q, _ = quotient(m)
        for text in ("sup x. R(x)", "inf x. R(x)", "sup x. inf y. d(x,y) + R(y)"):
            phi = parse_formula(text, sig)
            assert eval_formula(m, phi) == eval_formula(q, phi)


def _with_copies(rng, m, copies, p):
    """m with `copies` extra points, each at distance 0 from a random point of
    m and reading that point's entries in every table; points are shuffled,
    function values and constants name a random point of their class, and
    distances are stored as p-th powers."""
    origin = {a: a for a in m.points}
    for k in range(copies):
        origin[f"q{k}"] = rng.choice(m.points)
    points = list(origin)
    rng.shuffle(points)
    members = {a: [b for b in points if origin[b] == a] for a in m.points}

    def same_class(a):
        return rng.choice(members[a])

    def rows(tab):
        arity = len(next(iter(tab)))
        return {
            args: tab[tuple(origin[a] for a in args)]
            for args in itertools.product(points, repeat=arity)
        }

    return make_structure(
        points,
        [[m.d(origin[a], origin[b]) ** p for b in points] for a in points],
        {c: same_class(v) for c, v in m.constants.items()},
        {f: {k: same_class(v) for k, v in rows(tab).items()} for f, tab in m.functions.items()},
        {r: rows(tab) for r, tab in m.relations.items()},
        metric_power=p,
    )


def _quotient_doc(build, m):
    """The quotient's document bytes, its representative map and whether it is
    m itself; or the error raised building it."""
    try:
        q, rep = build(m)
    except AffineLogicError as exc:
        return type(exc).__name__, str(exc)
    return dump_json(structure_to_doc(q)), list(rep.items()), q is m


class TestQuotientAgainstReference:
    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(st.integers(min_value=0, max_value=2**32 - 1), st.sampled_from([1, 2]))
    def test_quotient_matches_the_walker(self, seed, p):
        """Symmetric random structures with copied points, constants, unary
        and binary functions and relations; at times a table entry changed at
        one point, which breaks well-definedness on its class."""
        rng = random.Random(seed)
        sig = rand_signature(rng)
        if rng.random() < 0.4:
            sig = Signature(sig.symbols() + [function_symbol("G", 2, 1)])
        m = _with_copies(rng, rand_structure(rng, sig, 3), rng.randint(0, 3), p)
        tables = [*m.functions.values(), *m.relations.values()]
        if tables and rng.random() < 0.3:
            tab = rng.choice(tables)
            args = rng.choice(list(tab))
            value = tab[args]
            tab[args] = rng.choice(m.points) if isinstance(value, str) else 1 - value
        want = _quotient_doc(walk_quotient, m)
        assert _quotient_doc(quotient, m) == want

    def test_an_entry_that_splits_a_class_fails_alike(self):
        m = make_structure(
            ["a", "b", "c"],
            {("a", "b"): 0, ("a", "c"): 1, ("b", "c"): 1},
            relations={"R": {("a",): 0, ("b",): Fraction(1, 2), ("c",): 1}},
        )
        got = _quotient_doc(quotient, m)
        assert got == _quotient_doc(walk_quotient, m)
        assert got == ("ValidationError", "relation R not well-defined on classes at ('b',)")


class TestRendezvous:
    def test_two_point(self):
        assert rendezvous_value(two_point(), 2) == (Fraction(1, 2), Fraction(1, 2))

    def test_one_point(self):
        m = make_structure(["a"], {})
        for n in (1, 2, 3):
            assert rendezvous_value(m, n) == (0, 0)

    def test_circle_64_geodesic_bracket(self):
        m = circle(64, "geodesic")
        lower, upper = rendezvous_value(m, 2)
        assert upper - lower <= Fraction(1, 64)
        # regression constants: the even cycle meets exactly at 1/2
        assert (lower, upper) == (Fraction(1, 2), Fraction(1, 2))

    def test_sentences_match_direct_computation(self):
        m = cantor(1)  # 4 points
        low_sentence, up_sentence = rendezvous_sentences(2)
        lower, upper = rendezvous_value(m, 2)
        assert eval_formula(m, low_sentence) == lower
        assert eval_formula(m, up_sentence) == upper


class TestSpaces:
    def test_chord_generators_are_reproducible(self):
        # regression hashes over the serialized structures: the mpmath-based
        # quantization must give identical bytes on every platform
        import hashlib

        from affinelogic.serialize import dump_json, structure_to_doc

        expected = {
            "circle8": "3f45882a861daec3",
            "circle64": "e8711e94395b0bc6",
            "sphere16": "ad329ff2aea40470",
            "sphere64": "ed189da36af94ce0",
        }
        got = {
            "circle8": circle(8, "chord"),
            "circle64": circle(64, "chord"),
            "sphere16": sphere(16),
            "sphere64": sphere(64),
        }
        for name, m in got.items():
            digest = hashlib.sha256(
                dump_json(structure_to_doc(m)).encode()
            ).hexdigest()[:16]
            assert digest == expected[name], name

    def test_generator_metrics_are_valid(self):
        for m in (
            interval(5),
            circle(8, "geodesic"),
            circle(8, "chord"),
            cantor(2),
            sphere(16),
        ):
            assert validate(m, METRIC_ONLY).valid

    def test_circle_diameters(self):
        for kind in ("geodesic", "chord"):
            m = circle(16, kind)
            assert max(max(row) for row in m.metric) == 1

    def test_sphere_has_antipodal_pairs(self):
        m = sphere(16)
        assert max(max(row) for row in m.metric) == 1


def _on_integers(c, a, b, q):
    """leq_root_sum_int on rationals, over their common denominator: the
    comparison is homogeneous."""
    (ci, ai, bi), _ = over_common_denominator([c, a, b])
    return leq_root_sum_int(ci, ai, bi, q)


ROOT_SUMS = (leq_root_sum, _on_integers)  # the Fraction reference and validate's routine


class TestRootSumComparison:
    def test_p1(self):
        for leq in ROOT_SUMS:
            assert leq(Fraction(2), Fraction(1), Fraction(1), 1)
            assert not leq(Fraction(3), Fraction(1), Fraction(1), 1)

    def test_p2_exact(self):
        # sqrt(2) <= sqrt(1) + sqrt(1); sqrt(5) > sqrt(1) + sqrt(1)
        for leq in ROOT_SUMS:
            assert leq(Fraction(2), Fraction(1), Fraction(1), 2)
            assert leq(Fraction(4), Fraction(1), Fraction(1), 2)  # equality
            assert not leq(Fraction(5), Fraction(1), Fraction(1), 2)

    def test_p3_rational_shortcuts(self):
        # cbrt(8a) = cbrt(a) + cbrt(a)
        for leq in ROOT_SUMS:
            assert leq(Fraction(8), Fraction(1), Fraction(1), 3)
            assert not leq(Fraction(9), Fraction(1), Fraction(1), 3)
            assert leq(Fraction(16), Fraction(2), Fraction(2), 3)  # 2*cbrt(2) = cbrt(16)

    def test_p3_bisection(self):
        # cbrt(3) <= cbrt(1)+cbrt(1) = 2; cbrt(12) > cbrt(2)+cbrt(1)
        for leq in ROOT_SUMS:
            assert leq(Fraction(3), Fraction(1), Fraction(1), 3)
            assert not leq(Fraction(12), Fraction(2), Fraction(1), 3)

    def test_brute_force_agreement_p2(self):
        rng = random.Random(3)
        for _ in range(200):
            a = Fraction(rng.randint(0, 16), 16)
            b = Fraction(rng.randint(0, 16), 16)
            c = Fraction(rng.randint(0, 16), 16)
            float_gap = float(c) ** 0.5 - float(a) ** 0.5 - float(b) ** 0.5
            if abs(float_gap) > 1e-9:
                for leq in ROOT_SUMS:
                    assert leq(c, a, b, 2) == (float_gap < 0)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(3, 6), st.sampled_from(["random", "near", "power-ratio"]))
    def test_integer_routine_matches_the_reference(self, seed, q, kind):
        """Entries up to 2^40.  "random" draws them of every bit length.
        "near" puts c within 2 of floor((a^(1/q) + b^(1/q))^q), taken from
        60-digit decimals, on a and b of up to 40 bits, where the roots' floors
        at k = 32 are often too close to tell.  "power-ratio" takes a = r^q t
        and b = s^q t, so that c = (r + s)^q t is at equality, and c +- 1 just
        above or below it."""
        rng = random.Random(seed)

        def entry(bits):
            return rng.getrandbits(rng.randint(0, bits))

        if kind == "power-ratio":
            bits = (38 - q) // q  # (2 r)^q * 4 <= 2^40
            r, s, t = entry(bits), entry(bits), rng.randint(1, 4)
            a, b = r**q * t, s**q * t
            c = (r + s) ** q * t + rng.randint(-1, 1)
        elif kind == "random":
            a, b, c = entry(40), entry(40), entry(40)
        else:
            a, b = rng.randint(0, 2**40), rng.randint(0, 2**40)
            with decimal.localcontext(prec=60):
                root = sum(decimal.Decimal(x) ** (decimal.Decimal(1) / q) for x in (a, b))
                c = int(root**q) + rng.randint(-2, 2)
        c = max(c, 0)
        assert leq_root_sum_int(c, a, b, q) == leq_root_sum(Fraction(c), Fraction(a), Fraction(b), q)
