"""Differential tests: the integer code paths against the slow references.

Every evaluator in the package goes through `structures.value_table`; the
walkers in `walkers.py` re-walk the tree per assignment in Fraction
arithmetic and share no code with it.  `structures.validate` compares
Lipschitz pairs in integers; `walk_validate` compares them in Fractions.
"""

import itertools
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from affinelogic import structures
from affinelogic.errors import EvalError
from affinelogic.pra import (
    algebras_up_to,
    oracle_eval,
    oracle_table,
    pra_signature,
    structure_from_algebra,
)
from affinelogic.spaces import circle, two_point
from affinelogic.structures import (
    eval_formula,
    holds_universally,
    make_structure,
    rendezvous_sentences,
    rendezvous_value,
    value_table,
)
from affinelogic.syntax import (
    Condition,
    Dist,
    Max,
    Min,
    Scale,
    Signature,
    Sum,
    Sup,
    Var,
    parse_formula,
    constant_symbol,
    function_symbol,
    relation_symbol,
)
from affinelogic.typespace import make_basis, realized_types, tuple_type

from affinelogic.ultramean import ultramean

from helpers import rand_affine_formula, rand_charge, rand_signature, rand_structure
from walkers import walk_formula, walk_oracle, walk_validate

SEEDS = st.integers(min_value=0, max_value=2**32 - 1)
FAST = settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])


def _case(seed, max_points=4, free=("x", "y")):
    """A random structure, a random affine formula in some of `free`, and a
    random assignment of all of `free`."""
    rng = random.Random(seed)
    sig = rand_signature(rng)
    m = rand_structure(rng, sig, max_points)
    names = list(free[: rng.randint(0, len(free))])
    phi = rand_affine_formula(rng, sig, names, quant_depth=rng.randint(0, 3), budget=10)
    asg = {v: rng.choice(m.points) for v in free}
    return rng, sig, m, phi, asg


def _squared(m):
    """The same structure storing squared distances (metric_power = 2)."""
    return make_structure(
        m.points,
        [[e * e for e in row] for row in m.metric],
        m.constants,
        m.functions,
        m.relations,
        metric_power=2,
    )


def _outcome(fn, *args):
    try:
        return fn(*args)
    except EvalError as exc:
        return ("EvalError", str(exc))


@FAST
@given(SEEDS)
def test_eval_formula_matches_walker(seed):
    _, _, m, phi, asg = _case(seed)
    assert eval_formula(m, phi, asg) == walk_formula(m, phi, asg)


@FAST
@given(SEEDS)
def test_lattice_connectives_match_walker(seed):
    rng, sig, m, phi, asg = _case(seed)
    psi = rand_affine_formula(rng, sig, ["x"], quant_depth=2, budget=8)
    for f in (Max(phi, psi), Min(Scale(Fraction(-1, 3), phi), psi), Sup("y", Min(phi, psi))):
        assert eval_formula(m, f, asg) == walk_formula(m, f, asg)


@FAST
@given(SEEDS)
def test_one_point_universes(seed):
    _, _, m, phi, asg = _case(seed, max_points=1)
    assert len(m.points) == 1
    assert eval_formula(m, phi, asg) == walk_formula(m, phi, asg)
    assert value_table(m, phi, ["x", "y"]) == [walk_formula(m, phi, asg)]


@FAST
@given(SEEDS)
def test_value_table_matches_walker_per_assignment(seed):
    """Table variables in product order; some pinned by the assignment,
    some not free in phi at all."""
    rng, _, m, phi, asg = _case(seed, free=("x", "y", "z"))
    table_vars = rng.sample(["x", "y", "z", "w"], rng.randint(0, 3))
    pinned = {v: pt for v, pt in asg.items() if v not in table_vars}
    got = value_table(m, phi, table_vars, asg=pinned)
    combos = list(itertools.product(m.points, repeat=len(table_vars)))
    assert len(got) == len(combos)
    for combo, value in zip(combos, got):
        assert value == walk_formula(m, phi, {**pinned, **dict(zip(table_vars, combo))})


@FAST
@given(SEEDS)
def test_shadowed_binders(seed):
    """A binder that reuses an outer binder's name, or a table variable's."""
    _, _, m, phi, asg = _case(seed, free=("x",))
    d = Dist(Var("x"), Var("y"))
    inner = Sup("x", Sum(phi, Scale(Fraction(-1, 2), d)))
    shadowed = Sup("x", Sum(phi, Scale(Fraction(-1), inner)))
    assert eval_formula(m, shadowed, {"y": asg["x"]}) == walk_formula(m, shadowed, {"y": asg["x"]})
    table = value_table(m, inner, ["x", "y"])
    for combo, value in zip(itertools.product(m.points, repeat=2), table):
        assert value == walk_formula(m, inner, dict(zip(["x", "y"], combo)))


def test_shadowed_binder_in_a_probability_algebra():
    phi = parse_formula("sup x. mu(x) + -1*(sup x. mu(and(x,x)))", pra_signature())
    for alg in algebras_up_to(2, 4):
        assert oracle_eval(phi, alg) == 0 == walk_oracle(phi, alg)


@FAST
@given(SEEDS)
def test_metric_power_two(seed):
    """Stored squares read at p=2; other exponents fail exactly when a
    distance atom is evaluated, in both evaluators."""
    _, _, m, phi, asg = _case(seed)
    sq = _squared(m)
    assert eval_formula(sq, phi, asg, p=2) == walk_formula(sq, phi, asg, p=2)
    assert eval_formula(m, phi, asg, p=2) == eval_formula(sq, phi, asg, p=2)
    for p in (1, 3):
        assert _outcome(eval_formula, sq, phi, asg, p) == _outcome(walk_formula, sq, phi, asg, p)


def test_exponent_mismatch_raises_only_at_distance_atoms():
    sig = Signature([relation_symbol("P", 1, 1)])
    m = _squared(make_structure(["a", "b"], {("a", "b"): Fraction(1, 2)},
                                relations={"P": {("a",): 0, ("b",): Fraction(1, 2)}}))
    assert eval_formula(m, parse_formula("sup x. P(x)", sig), p=1) == Fraction(1, 2)
    assert eval_formula(m, parse_formula("sup x. d(x,x)", sig), p=2) == 0
    with pytest.raises(EvalError, match="cannot evaluate at exponent 1"):
        eval_formula(m, parse_formula("sup x. P(x) + 0*d(x,x)", sig), p=1)


@settings(max_examples=30, deadline=None)
@given(SEEDS, st.sampled_from([1, 2, 3, 7, 20]))
def test_cell_budget_loop_matches_walker(seed, budget):
    """A small budget makes quantifiers loop over their variable."""
    _, _, m, phi, asg = _case(seed, free=("x", "y", "z"))
    pinned = {"z": asg["z"]}
    table = [
        walk_formula(m, phi, {**pinned, "x": a, "y": b})
        for a, b in itertools.product(m.points, repeat=2)
    ]
    with mock.patch.object(structures, "CELL_BUDGET", budget):
        assert eval_formula(m, phi, asg) == walk_formula(m, phi, asg)
        assert value_table(m, phi, ["x", "y"], asg=pinned) == table


def test_budget_loop_on_a_real_input():
    """circle(24): the 3-point inf-sup body has 24^4 > CELL_BUDGET cells, so
    sup y loops; the value must match the integer rendez-vous loops."""
    m = circle(24)
    assert len(m.points) ** 4 > structures.CELL_BUDGET
    lower, upper = rendezvous_sentences(3)
    assert (eval_formula(m, lower), eval_formula(m, upper)) == rendezvous_value(m, 3)


@settings(max_examples=40, deadline=None)
@given(SEEDS)
def test_oracle_matches_walker(seed):
    rng = random.Random(seed)
    sig = pra_signature()
    phi = rand_affine_formula(rng, sig, ["x", "y"], quant_depth=2, budget=8)
    for alg in algebras_up_to(2, 4):
        for x, y in itertools.product(alg.events(), repeat=2):
            asg = {"x": x, "y": y}
            assert oracle_eval(phi, alg, asg) == walk_oracle(phi, alg, asg)


@settings(max_examples=20, deadline=None)
@given(SEEDS)
def test_oracle_table_matches_walker(seed):
    """One table per algebra, in product order of the events."""
    rng = random.Random(seed)
    names = rng.sample(["x", "y", "z"], rng.randint(0, 3))
    phi = rand_affine_formula(rng, pra_signature(), names, quant_depth=2, budget=8)
    free = sorted(phi.free)
    for alg in algebras_up_to(2, 4):
        combos = itertools.product(alg.events(), repeat=len(free))
        want = [walk_oracle(phi, alg, dict(zip(free, c))) for c in combos]
        assert oracle_table(phi, alg, free) == want


def test_oracle_sees_the_structure_view():
    phi = parse_formula("sup y. d(x,y) + -1/2*mu(and(x,y))", pra_signature())
    for alg in algebras_up_to(3, 4):
        m = structure_from_algebra(alg)
        for x in alg.events():
            name = m.points[x]
            assert oracle_eval(phi, alg, {"x": x}) == eval_formula(m, phi, {"x": name})


# -- callers that used to loop per assignment -------------------------------


@FAST
@given(SEEDS)
def test_holds_universally_is_the_worst_margin(seed):
    rng, sig, m, phi, _ = _case(seed)
    psi = rand_affine_formula(rng, sig, ["y"], quant_depth=1, budget=6)
    cond = Condition(phi, psi)
    free = sorted(cond.free)
    margins = [
        walk_formula(m, psi, dict(zip(free, c))) - walk_formula(m, phi, dict(zip(free, c)))
        for c in itertools.product(m.points, repeat=len(free))
    ]
    assert holds_universally(m, cond) == (min(margins) >= 0, min(margins))


@FAST
@given(SEEDS)
def test_types_and_norms_match_walker(seed):
    rng, sig, m, phi, _ = _case(seed)
    psi = rand_affine_formula(rng, sig, ["x", "y"], quant_depth=1, budget=6)
    basis = make_basis(["x", "y"], [phi, psi], [m])
    tuples = list(itertools.product(m.points, repeat=2))
    for k, f in enumerate(basis.formulas):
        assert basis.norms[k] == max(abs(walk_formula(m, f, dict(zip("xy", t)))) for t in tuples)
    seen = []
    for t in tuples:
        values = tuple(walk_formula(m, f, dict(zip("xy", t))) for f in basis.formulas)
        if values not in seen:
            seen.append(values)
    realized = realized_types(m, basis)
    assert [tv.values for tv in realized] == seen
    for tv in realized:
        assert tuple_type(m, basis, tv.provenance[2]).values == tv.values


# -- errors -------------------------------------------------------------------


def _gappy():
    sig = Signature([function_symbol("F", 1, 1), relation_symbol("P", 1, 1)])
    m = make_structure(
        ["a", "b"],
        {("a", "b"): 1},
        functions={"F": {("a",): "a"}},
        relations={"P": {("b",): 1}},
    )
    return sig, m


@pytest.mark.parametrize(
    "text, asg",
    [
        ("d(x,y)", {"x": "a"}),  # missing variable
        ("sup y. d(x,y)", {"x": "nowhere"}),  # non-point assignment
        ("sup x. d(F(x),x)", {}),  # function-table gap at F(b)
        ("sup x. P(x)", {}),  # relation-table gap at P(a)
        ("sup x. Q(x)", {}),  # relation with no table
    ],
)
def test_errors_match_walker(text, asg):
    sig, m = _gappy()
    sig = Signature(sig.symbols() + [relation_symbol("Q", 1, 1)])
    phi = parse_formula(text, sig)
    with pytest.raises(EvalError) as want:
        walk_formula(m, phi, asg)
    with pytest.raises(EvalError) as got:
        eval_formula(m, phi, asg)
    assert str(got.value) == str(want.value)


def test_unused_non_point_assignment_is_ignored():
    m = two_point()
    phi = parse_formula("sup x. d(x,x)", Signature.metric_only())
    assert eval_formula(m, phi, {"x": "nowhere", "y": "nowhere"}) == 0


def test_names_that_are_not_points_raise_eval_errors():
    sig = Signature([function_symbol("F", 1, 1)])
    m = make_structure(["a", "b"], {("a", "b"): 1},
                       constants={"c": "nowhere"}, functions={"F": {("a",): "a", ("b",): "zz"}})
    sig = Signature(sig.symbols() + [constant_symbol("c")])
    with pytest.raises(EvalError, match=r"F\('b',\) = 'zz' is not a point"):
        eval_formula(m, parse_formula("sup x. d(F(x),x)", sig))
    with pytest.raises(EvalError, match="constant c names 'nowhere', not a point"):
        eval_formula(m, parse_formula("d(c,c)", sig))


# -- validate against the pair-by-pair reference ------------------------------


def _validate_case(rng):
    """A random signature (at times with a binary function and a relation of
    Lipschitz constant 0 or 3/2) and a structure that satisfies it."""
    sig = rand_signature(rng)
    extra = []
    if rng.random() < 0.3:
        extra.append(function_symbol("G", 2, rng.choice([1, 2])))
    if rng.random() < 0.3:
        extra.append(relation_symbol("S", 1, Fraction(rng.choice([0, 1, 3]), 2)))
    sig = Signature(sig.symbols() + extra)
    return sig, rand_structure(rng, sig, 4)


def _corrupt(rng, m):
    """A copy of m with one entry broken: a metric entry (maybe making it
    asymmetric, negative or above 1), a function value moved to another point
    or to a name that is no point, a relation value, or a deleted table row."""
    n = len(m.points)
    metric = [list(row) for row in m.metric]
    functions = {f: dict(tab) for f, tab in m.functions.items()}
    relations = {r: dict(tab) for r, tab in m.relations.items()}
    tables = [("f", f) for f, tab in functions.items() if tab]
    tables += [("r", r) for r, tab in relations.items() if tab]
    kind = rng.choice(["metric", "metric"] + (["value", "not-a-point", "gap"] if tables else []))
    if kind == "metric":
        i, j = rng.randrange(n), rng.randrange(n)
        metric[i][j] = Fraction(rng.randint(-2, 10), 8)
        if rng.random() < 0.5:
            metric[j][i] = metric[i][j]
    else:
        which, name = rng.choice(tables)
        tab = functions[name] if which == "f" else relations[name]
        args = rng.choice(sorted(tab))
        if kind == "gap":
            del tab[args]
        elif which == "f":
            tab[args] = "nowhere" if kind == "not-a-point" else rng.choice(m.points)
        else:
            tab[args] = Fraction(rng.randint(-2, 10), 8)
    return make_structure(
        m.points, metric, m.constants, functions, relations, metric_power=m.metric_power
    )


def _validation(fn, m, sig, p):
    try:
        return fn(m, sig, p).violations
    except Exception as exc:  # compared by type with the reference
        return type(exc)


def _assert_same_validation(m, sig, p):
    want = _validation(walk_validate, m, sig, p)
    got = _validation(structures.validate, m, sig, p)
    if want is ValueError and got is not ValueError:
        # the reference's root-sum comparison of a Lipschitz pair rejects a
        # negative entry; the integer comparison reports the entry instead
        assert any(e < 0 for row in m.metric for e in row)
        assert any(v.kind in ("metric-out-of-range", "nonzero-self-distance") for v in got)
    else:
        assert got == want


@FAST
@given(SEEDS)
def test_validate_matches_reference_on_random_structures(seed):
    """Valid and corrupted structures, checked at every exponent; at p != 1
    the stored distances are raised to p."""
    rng = random.Random(seed)
    sig, m = _validate_case(rng)
    for s in (m, _corrupt(rng, m), _corrupt(rng, _corrupt(rng, m))):
        for p in (1, 2, 3):
            _assert_same_validation(s, sig, p)


@FAST
@given(SEEDS, st.sampled_from([1, 2, 3]))
def test_validate_matches_reference_on_means(seed, p):
    """Means store p-th powers; corrupted copies break them; checking one at
    another exponent raises EvalError where a Lipschitz pair is compared."""
    rng = random.Random(seed)
    sig, _ = _validate_case(rng)
    family = [rand_structure(rng, sig, 3) for _ in range(rng.randint(1, 2))]
    mean = ultramean(family, rand_charge(rng, len(family)), p=p).structure
    for s in (mean, _corrupt(rng, mean)):
        for q in (1, 2, 3):
            _assert_same_validation(s, sig, q)


def test_validate_exponent_mismatch_raises_like_the_reference():
    sig = Signature([function_symbol("F", 1, 1), relation_symbol("P", 1, 1)])
    m = make_structure(["a", "b"], {("a", "b"): Fraction(1, 2)},
                       functions={"F": {("a",): "a", ("b",): "b"}},
                       relations={"P": {("a",): 0, ("b",): Fraction(1, 2)}})
    sq = _squared(m)
    for p in (1, 3):
        with pytest.raises(EvalError):
            walk_validate(sq, sig, p)
        with pytest.raises(EvalError):
            structures.validate(sq, sig, p)
    # a constant relation has no positive difference, so no pair is compared
    flat = Signature([relation_symbol("P", 1, 1)])
    sq = _squared(make_structure(["a", "b"], {("a", "b"): Fraction(1, 2)},
                                 relations={"P": {("a",): 0, ("b",): 0}}))
    assert structures.validate(sq, flat, 3).violations == walk_validate(sq, flat, 3).violations
