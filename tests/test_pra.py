import itertools
import random
from fractions import Fraction
from unittest import mock

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from affinelogic import pra
from affinelogic.pra import (
    EventTerm,
    algebra,
    algebras_up_to,
    eliminate_sup,
    event_from_term,
    event_not,
    format_pra,
    make_pra,
    oracle_eval,
    pra_scale,
    pra_signature,
    qe,
    structure_from_algebra,
    weight_grid,
)
from affinelogic.structures import validate
from affinelogic.syntax import parse_formula, parse_term
from walkers import (
    event_depends_positively,
    expand_inclusion_exclusion,
    split_on,
    walk_eliminate_sup,
)

SIG = pra_signature()


def term(text):
    return parse_term(text, SIG)


def event(text):
    return event_from_term(term(text))


def formula(text):
    return parse_formula(text, SIG)


def all_assignments(alg, names):
    for combo in itertools.product(alg.events(), repeat=len(names)):
        yield dict(zip(names, combo))


def oracle_equal(a, b, kmax=3, step=4):
    names = sorted(set(getattr(a, "free", ())) | set(_pra_vars(a)) | set(_pra_vars(b)))
    for alg in algebras_up_to(kmax, step):
        for asg in all_assignments(alg, names):
            if oracle_eval(a, alg, asg) != oracle_eval(b, alg, asg):
                return False
    return True


def _pra_vars(x):
    from affinelogic.pra import PraFormula

    if isinstance(x, PraFormula):
        return x.variables
    return sorted(x.free)


class TestEvents:
    def test_canonical_forms_identify_equal_events(self):
        assert event("or(x,y)") == event("or(y,x)")
        assert event("and(x,not(not(y)))") == event("and(y,x)")
        assert event("sym(x,x)") == EventTerm.zero()
        assert event("or(x,not(x))") == EventTerm.one()

    def test_independent_variables_projected(self):
        e = event("or(and(x,y),and(x,not(y)))")
        assert e == event("x")
        assert e.vars == ("x",)

    def test_de_morgan(self):
        assert event_not(event("and(x,y)")) == event("or(not(x),not(y))")

    def test_canonicalization_is_idempotent(self):
        from affinelogic.pra import _reduce

        for text in ("x", "or(x,y)", "sym(and(x,y),or(y,z))", "not(sym(x,y))"):
            e = event(text)
            assert _reduce(e.vars, e.minterms) == e
            assert len(e.minterms) <= 1 << len(e.vars)


class TestExpansion:
    def test_union(self):
        out = expand_inclusion_exclusion(event("or(x,y)"))
        assert format_pra(out) == "mu(x) + mu(y) + -1*mu(and(x,y))"

    def test_complement(self):
        out = expand_inclusion_exclusion(event("not(x)"))
        assert format_pra(out) == "1 + -1*mu(x)"

    def test_symmetric_difference(self):
        out = expand_inclusion_exclusion(event("sym(x,y)"))
        assert format_pra(out) == "mu(x) + mu(y) + -2*mu(and(x,y))"
        # oracle-checked on every 2-atom grid algebra
        raw = make_pra(0, [(Fraction(1), event("sym(x,y)"))])
        assert oracle_equal(raw, out, kmax=2)

    def test_expansion_preserves_semantics(self):
        rng = random.Random(91)
        pool = ["x", "y", "and(x,y)", "or(x,not(y))", "sym(or(x,y),and(y,x))", "not(sym(x,y))"]
        for text in pool:
            e = event(text)
            raw = make_pra(0, [(Fraction(1), e)])
            assert oracle_equal(raw, expand_inclusion_exclusion(e), kmax=3)


class TestSplit:
    def test_plain_variable_is_already_split(self):
        phi = make_pra(0, [(Fraction(1), event("x"))])
        assert split_on(phi, "y") == phi

    def test_split_output_only_mentions_y_positively(self):
        phi = make_pra(0, [(Fraction(1), event("and(x,not(y))")), (Fraction(2), event("or(x,y)"))])
        out = split_on(phi, "y")
        assert all(event_depends_positively(e, "y") for _, e in out.atoms)
        assert oracle_equal(phi, out, kmax=3)

    def test_split_is_idempotent(self):
        phi = make_pra(0, [(Fraction(1), event("and(x,not(y))"))])
        once = split_on(phi, "y")
        assert split_on(once, "y") == once

    def test_random_formulas_survive_split(self):
        rng = random.Random(92)
        pool = ["x", "y", "not(x)", "and(x,y)", "or(x,not(y))", "sym(x,y)"]
        for _ in range(25):
            atoms = [
                (Fraction(rng.randint(-3, 3)), event(rng.choice(pool)))
                for _ in range(rng.randint(1, 3))
            ]
            phi = make_pra(Fraction(rng.randint(-2, 2)), atoms)
            out = split_on(phi, "y")
            assert oracle_equal(phi, out, kmax=3)


class TestEliminateSup:
    def test_sup_of_conjunction(self):
        phi = make_pra(0, [(Fraction(1), event("and(x,y)"))])
        assert format_pra(eliminate_sup(phi, "y")) == "mu(x)"

    def test_sup_of_difference(self):
        phi = make_pra(
            0,
            [
                (Fraction(1), event("and(x,y)")),
                (Fraction(-1), event("and(not(x),y)")),
            ],
        )
        assert format_pra(eliminate_sup(phi, "y")) == "mu(x)"

    def test_sup_of_mu_y(self):
        phi = make_pra(0, [(Fraction(1), event("y"))])
        assert format_pra(eliminate_sup(phi, "y")) == "1"

    def test_matches_oracle_on_grid(self):
        rng = random.Random(93)
        pool = ["x", "y", "not(y)", "and(x,y)", "or(x,y)", "sym(x,y)", "and(not(x),y)"]
        for _ in range(20):
            atoms = [
                (Fraction(rng.randint(-2, 2)), event(rng.choice(pool)))
                for _ in range(rng.randint(1, 3))
            ]
            phi = make_pra(0, atoms)
            out = eliminate_sup(phi, "y")
            assert "y" not in out.variables
            for alg in algebras_up_to(3, 4):
                for asg in all_assignments(alg, ["x"]):
                    direct = max(
                        oracle_eval(phi, alg, {**asg, "y": ev}) for ev in alg.events()
                    )
                    assert oracle_eval(out, alg, asg) == direct


SEEDS = st.integers(min_value=0, max_value=2**32 - 1)
DIFFERENTIAL = settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
DENOMINATORS = [1, 2, 3, 4, 6]


def _rand_event(rng, names, depth):
    """Event text over `names` built with and/or/sym/not."""
    if depth == 0 or rng.random() < 0.3:
        return rng.choice(names)
    op = rng.choice(["and", "or", "sym", "not"])
    if op == "not":
        return f"not({_rand_event(rng, names, depth - 1)})"
    return f"{op}({_rand_event(rng, names, depth - 1)},{_rand_event(rng, names, depth - 1)})"


def _rand_coeff(rng):
    return Fraction(rng.randint(-6, 6), rng.choice(DENOMINATORS))


def _walk_eliminate(phi, y, pick=max):
    """walk_eliminate_sup, with the infimum computed as -sup_y(-phi)."""
    if pick is max:
        return walk_eliminate_sup(phi, y)
    neg = Fraction(-1)
    return pra_scale(neg, walk_eliminate_sup(pra_scale(neg, phi), y))


@DIFFERENTIAL
@given(SEEDS)
def test_eliminate_sup_matches_walker(seed):
    rng = random.Random(seed)
    names = ["x", "y", "z", "u", "v", "w"][: rng.randint(1, 6)]
    atoms = [(_rand_coeff(rng), event(_rand_event(rng, names, 3))) for _ in range(rng.randint(0, 5))]
    if rng.random() < 0.3:  # mu(a) + mu(b) - mu(a or b) - mu(a and b) cancels on every algebra
        a, b = _rand_event(rng, names, 2), _rand_event(rng, names, 2)
        c = _rand_coeff(rng)
        atoms += [(c, event(a)), (c, event(b)), (-c, event(f"or({a},{b})")), (-c, event(f"and({a},{b})"))]
    phi = make_pra(_rand_coeff(rng), atoms)
    y = rng.choice(names + ["q"])  # q never occurs in phi
    assert eliminate_sup(phi, y) == walk_eliminate_sup(phi, y)
    assert eliminate_sup(phi, y, min) == _walk_eliminate(phi, y, min)


def _rand_nested(rng, names, depth):
    """Formula text mixing sup/inf, rebinding names and summing quantified
    and quantifier-free parts."""
    r = rng.random()
    if depth == 0 or r < 0.25:
        if rng.random() < 0.3:
            return f"{_rand_coeff(rng)}*d({rng.choice(names)},{_rand_event(rng, names, 1)})"
        return f"{_rand_coeff(rng)}*mu({_rand_event(rng, names, 2)})"
    if r < 0.6:
        return f"{rng.choice(['sup', 'inf'])} {rng.choice(names)}. {_rand_nested(rng, names, depth - 1)}"
    parts = [_rand_nested(rng, names, depth - 1) for _ in range(rng.randint(2, 3))]
    return " + ".join(f"({part})" for part in parts)


@DIFFERENTIAL
@given(SEEDS)
def test_qe_output_matches_walker_elimination(seed):
    rng = random.Random(seed)
    names = ["x", "y", "z", "u"][: rng.randint(1, 4)]
    phi = formula(_rand_nested(rng, names, 4))
    with mock.patch.object(pra, "eliminate_sup", _walk_eliminate):
        want = format_pra(qe(phi))
    assert format_pra(qe(phi)) == want


class TestQE:
    def test_sup_inf_symmetric_difference(self):
        assert format_pra(qe(formula("sup x. inf y. mu(sym(x,y))"))) == "0*1"

    def test_inf_sup_measure_gap(self):
        out = qe(formula("inf x. sup y. mu(y) + -1*mu(and(x,y))"))
        # oracle-confirmed regression constant: the value is 0 (witness x = 1)
        assert out.is_constant and out.constant == 0

    def test_sup_mu(self):
        assert format_pra(qe(formula("sup x. mu(x)"))) == "1"

    def test_distance_atom_rewritten(self):
        out = qe(formula("sup y. d(x,y)"))
        assert out.is_constant and out.constant == 1  # y = not(x)

    def test_shadowed_binder_eliminated_innermost_first(self):
        out = qe(formula("sup x. mu(x) + -1*(sup x. mu(and(x,x)))"))
        assert out.is_constant and out.constant == 0
        for alg in algebras_up_to(2, 4):
            assert oracle_eval(formula("sup x. mu(x) + -1*(sup x. mu(and(x,x)))"), alg) == 0

    def test_sentences_reduce_to_constants(self):
        rng = random.Random(94)
        for _ in range(30):
            phi = _random_quantified(rng, nvars=2, prefix=2, close=True)
            out = qe(phi)
            assert out.is_constant

    def test_round_trip_against_oracle(self):
        rng = random.Random(95)
        for _ in range(60):
            phi = _random_quantified(rng, nvars=3, prefix=2, close=False)
            out = qe(phi)
            free = sorted(phi.free)
            for alg in algebras_up_to(3, 4):
                for asg in all_assignments(alg, free):
                    assert oracle_eval(phi, alg, asg) == oracle_eval(out, alg, asg)


def _random_quantified(rng, nvars=3, prefix=2, close=False):
    names = ["x", "y", "z"][:nvars]
    pool = []
    for a in names:
        pool += [a, f"not({a})"]
    for a in names:
        for b in names:
            if a != b:
                pool += [f"and({a},{b})", f"or({a},{b})", f"sym({a},{b})"]
    parts = []
    for _ in range(rng.randint(1, 3)):
        coeff = Fraction(rng.randint(-2, 2), rng.choice([1, 2]))
        if coeff == 0:
            coeff = Fraction(1)
        parts.append(f"{coeff}*mu({rng.choice(pool)})")
    text = " + ".join(parts)
    quantified = list(names)
    rng.shuffle(quantified)
    for v in quantified[: rng.randint(0, prefix)]:
        text = f"{rng.choice(['sup', 'inf'])} {v}. {text}"
    phi = formula(text)
    if close:
        from affinelogic.syntax import Inf, Sup

        for v in sorted(phi.free):
            phi = Sup(v, phi) if rng.random() < 0.5 else Inf(v, phi)
    return phi


class TestAlgebras:
    def test_weight_grid_counts(self):
        assert len(weight_grid(1, 4)) == 1
        assert len(weight_grid(2, 4)) == 5
        assert len(weight_grid(3, 4)) == 15

    def test_measure_additivity(self):
        alg = algebra(["1/4", "1/4", "1/2"])
        for a in alg.events():
            for b in alg.events():
                if a & b == 0:
                    assert alg.measure(a | b) == alg.measure(a) + alg.measure(b)

    def test_structure_view_validates(self):
        for weights in (["1"], ["1/2", "1/2"], ["1/4", "3/4"]):
            st = structure_from_algebra(algebra(weights))
            assert validate(st, SIG).valid

    def test_oracle_basics(self):
        alg = algebra(["1/2", "1/2"])
        assert oracle_eval(formula("mu(one)"), alg) == 1
        assert oracle_eval(formula("d(x,x)"), alg, {"x": 1}) == 0
