import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from affinelogic.errors import SignatureError, UniverseCapError
from affinelogic.pra import (
    MAX_ELIMINATION_VARS,
    algebra,
    algebras_up_to,
    as_formula,
    eliminate_sup,
    event_measure,
    format_pra,
    make_pra,
    oracle_eval,
    oracle_table,
    pra_signature,
    qe,
    structure_from_algebra,
    weight_grid,
)
from affinelogic.structures import validate
from affinelogic.syntax import App, Const, Var, parse_formula, parse_term
from walkers import (
    EventTerm,
    _reduce,
    canonicalize,
    event_depends_positively,
    event_from_term,
    event_not,
    expand_inclusion_exclusion,
    split_on,
    walk_eliminate_inf,
    walk_eliminate_sup,
    walk_make_pra,
    walk_pra_value,
    walk_qe,
)

SIG = pra_signature()


def term(text):
    return parse_term(text, SIG)


def event(text):
    return event_from_term(term(text))


def formula(text):
    return parse_formula(text, SIG)


def minterms(*pairs, constant=0):
    """A walker-side minterm formula from (coefficient, event text) pairs."""
    return walk_make_pra(constant, [(Fraction(c), event(t)) for c, t in pairs])


def all_assignments(alg, names):
    for combo in itertools.product(alg.events(), repeat=len(names)):
        yield dict(zip(names, combo))


def walk_table(phi, alg, names):
    """walk_pra_value of a minterm formula at every assignment, in product order."""
    return [walk_pra_value(phi, alg, asg) for asg in all_assignments(alg, names)]


def oracle_equal(a, b, kmax=3, step=4):
    """Two minterm formulas have equal tables on every grid algebra."""
    names = sorted(set(a.variables) | set(b.variables))
    return all(
        walk_table(a, alg, names) == walk_table(b, alg, names)
        for alg in algebras_up_to(kmax, step)
    )


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
        for text in ("x", "or(x,y)", "sym(and(x,y),or(y,z))", "not(sym(x,y))"):
            e = event(text)
            assert _reduce(e.vars, e.minterms) == e
            assert len(e.minterms) <= 1 << len(e.vars)


class TestEventMeasure:
    def test_equal_events_have_equal_measures(self):
        m = lambda text: event_measure(term(text))  # noqa: E731
        assert m("or(x,y)") == m("or(y,x)") == m("not(and(not(x),not(y)))")
        assert m("and(x,not(not(y)))") == m("and(y,x)")
        assert m("sym(x,x)") == make_pra(0, []) == m("zero")
        assert m("or(x,not(x))") == make_pra(1, []) == m("one")
        assert m("or(and(x,y),and(x,not(y)))") == m("x") == make_pra(0, [(Fraction(1), ("x",))])

    def test_unknown_symbols_are_signature_errors(self):
        one = Fraction(1)
        with pytest.raises(SignatureError, match="unknown probability-algebra constant half"):
            event_measure(App("and", (Var("x"), Const("half")), one))
        with pytest.raises(SignatureError, match="unknown probability-algebra function imp"):
            event_measure(App("imp", (Var("x"), Var("y")), one))

    def test_events_over_too_many_variables_are_refused(self):
        names = [f"x{i}" for i in range(MAX_ELIMINATION_VARS + 1)]
        t = Var(names[0])
        for name in names[1:]:
            t = App("or", (t, Var(name)), Fraction(1))
        with pytest.raises(UniverseCapError, match=f"{len(names)} variables"):
            event_measure(t)
        conjunction = Var(names[0])
        for name in names[1:-1]:
            conjunction = App("and", (conjunction, Var(name)), Fraction(1))
        assert event_measure(conjunction) == make_pra(0, [(Fraction(1), tuple(sorted(names[:-1])))])


class TestExpansion:
    def test_union(self):
        out = expand_inclusion_exclusion(event("or(x,y)"))
        assert format_pra(canonicalize(out)) == "mu(x) + mu(y) + -1*mu(and(x,y))"

    def test_complement(self):
        out = expand_inclusion_exclusion(event("not(x)"))
        assert format_pra(canonicalize(out)) == "1 + -1*mu(x)"

    def test_symmetric_difference(self):
        out = expand_inclusion_exclusion(event("sym(x,y)"))
        assert format_pra(canonicalize(out)) == "mu(x) + mu(y) + -2*mu(and(x,y))"
        # checked on every 2-atom grid algebra
        assert oracle_equal(minterms((1, "sym(x,y)")), out, kmax=2)

    def test_expansion_preserves_semantics(self):
        pool = ["x", "y", "and(x,y)", "or(x,not(y))", "sym(or(x,y),and(y,x))", "not(sym(x,y))"]
        for text in pool:
            assert oracle_equal(minterms((1, text)), expand_inclusion_exclusion(event(text)), kmax=3)


class TestSplit:
    def test_plain_variable_is_already_split(self):
        phi = minterms((1, "x"))
        assert split_on(phi, "y") == phi

    def test_split_output_only_mentions_y_positively(self):
        phi = minterms((1, "and(x,not(y))"), (2, "or(x,y)"))
        out = split_on(phi, "y")
        assert all(event_depends_positively(e, "y") for _, e in out.atoms)
        assert oracle_equal(phi, out, kmax=3)

    def test_split_is_idempotent(self):
        phi = minterms((1, "and(x,not(y))"))
        once = split_on(phi, "y")
        assert split_on(once, "y") == once

    def test_random_formulas_survive_split(self):
        rng = random.Random(92)
        pool = ["x", "y", "not(x)", "and(x,y)", "or(x,not(y))", "sym(x,y)"]
        for _ in range(25):
            pairs = [(rng.randint(-3, 3), rng.choice(pool)) for _ in range(rng.randint(1, 3))]
            phi = minterms(*pairs, constant=rng.randint(-2, 2))
            out = split_on(phi, "y")
            assert oracle_equal(phi, out, kmax=3)


class TestEliminateSup:
    def test_sup_of_conjunction(self):
        phi = canonicalize(minterms((1, "and(x,y)")))
        assert format_pra(eliminate_sup(phi, "y")) == "mu(x)"

    def test_sup_of_difference(self):
        phi = canonicalize(minterms((1, "and(x,y)"), (-1, "and(not(x),y)")))
        assert format_pra(eliminate_sup(phi, "y")) == "mu(x)"

    def test_sup_of_mu_y(self):
        phi = canonicalize(minterms((1, "y")))
        assert format_pra(eliminate_sup(phi, "y")) == "1"

    def test_matches_oracle_on_grid(self):
        rng = random.Random(93)
        pool = ["x", "y", "not(y)", "and(x,y)", "or(x,y)", "sym(x,y)", "and(not(x),y)"]
        for _ in range(20):
            pairs = [(rng.randint(-2, 2), rng.choice(pool)) for _ in range(rng.randint(1, 3))]
            phi = canonicalize(minterms(*pairs))
            out = eliminate_sup(phi, "y")
            assert "y" not in out.variables
            for alg in algebras_up_to(3, 4):
                events = len(alg.events())
                table = oracle_table(as_formula(phi), alg, ["x", "y"])  # y varies fastest
                direct = [max(table[i : i + events]) for i in range(0, len(table), events)]
                assert oracle_table(as_formula(out), alg, ["x"]) == direct


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
    phi = walk_make_pra(_rand_coeff(rng), atoms)
    y = rng.choice(names + ["q"])  # q never occurs in phi
    assert eliminate_sup(canonicalize(phi), y) == canonicalize(walk_eliminate_sup(phi, y))
    assert eliminate_sup(canonicalize(phi), y, min) == canonicalize(walk_eliminate_inf(phi, y))


@DIFFERENTIAL
@given(SEEDS)
def test_event_measure_matches_walker(seed):
    rng = random.Random(seed)
    names = ["x", "y", "z", "u", "v", "w"][: rng.randint(1, 6)]
    text = _rand_event(rng, names, 4)
    assert event_measure(term(text)) == canonicalize(minterms((1, text)))


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
def test_qe_matches_walker_qe(seed):
    rng = random.Random(seed)
    names = ["x", "y", "z", "u"][: rng.randint(1, 4)]
    phi = formula(_rand_nested(rng, names, 4))
    assert qe(phi) == canonicalize(walk_qe(phi))


@settings(max_examples=40, deadline=None)
@given(SEEDS)
def test_as_formula_table_matches_walker(seed):
    """The oracle's table of a conjunction-form formula equals the minterm
    formula's value, cell for cell."""
    rng = random.Random(seed)
    names = ["x", "y", "z"][: rng.randint(1, 3)]
    pairs = [(_rand_coeff(rng), _rand_event(rng, names, 2)) for _ in range(rng.randint(0, 4))]
    phi = minterms(*pairs, constant=_rand_coeff(rng))
    check = as_formula(canonicalize(phi))
    for alg in algebras_up_to(2, 4):
        assert oracle_table(check, alg, names) == walk_table(phi, alg, names)


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
            check = as_formula(qe(phi))
            free = sorted(phi.free)
            for alg in algebras_up_to(3, 4):
                assert oracle_table(phi, alg, free) == oracle_table(check, alg, free)


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
