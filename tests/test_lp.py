import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affinelogic.lp import (
    INFEASIBLE,
    OPTIMAL,
    UNBOUNDED,
    check_certificate,
    solve_lp,
)
from walkers import walk_solve_lp

F = Fraction


def solve_checked(c, a_ub=None, b_ub=None, a_eq=None, b_eq=None):
    """solve_lp, with its certificate checked from the program's definition."""
    res = solve_lp(c, a_ub, b_ub, a_eq, b_eq)
    assert check_certificate(c, a_ub, b_ub, a_eq, b_eq, res) == []
    return res


BEALE = (
    [F(-3, 4), 150, F(-1, 50), 6],
    [
        [F(1, 4), -60, F(-1, 25), 9],
        [F(1, 2), -90, F(-1, 50), 3],
        [0, 0, 1, 0],
    ],
    [0, 0, 1],
    None,
    None,
)


def dense_program(n):
    """The dense n x n generator of the ROADMAP's LP timings, plus the row sum(x) = 1."""
    rng = random.Random(n)
    a = [[F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n)] for _ in range(n)]
    b = [F(rng.randint(1, 9)) for _ in range(n)]
    c = [F(rng.randint(-9, 9)) for _ in range(n)]
    return c, a, b, [[F(1)] * n], [F(1)]


class TestBasics:
    def test_simple_maximization(self):
        # max x+y st x+y<=1  ==  min -(x+y)
        res = solve_checked([-1, -1], [[1, 1]], [1])
        assert res.status == OPTIMAL
        assert res.objective == -1
        assert sum(res.x) == 1

    def test_equality_constraints(self):
        res = solve_checked([1, 2], a_eq=[[1, 1]], b_eq=[1])
        assert res.status == OPTIMAL
        assert res.objective == 1
        assert res.x == [1, 0]

    def test_negative_rhs_rows(self):
        # min x st x >= 2 (written -x <= -2)
        res = solve_checked([1], [[-1]], [-2])
        assert res.status == OPTIMAL
        assert res.objective == 2

    def test_unbounded(self):
        res = solve_checked([-1], [[0]], [1])
        assert res.status == UNBOUNDED

    def test_infeasible_with_farkas(self):
        res = solve_checked([0, 0], [[1, 0], [-1, 0]], [F(1, 2), -1])
        assert res.status == INFEASIBLE

    def test_degenerate_cycling_guard(self):
        # classic Beale example: cycles without an anti-cycling rule
        res = solve_checked(*BEALE)
        assert res.status == OPTIMAL
        assert res.objective == F(-1, 20)

    def test_row_lengths_checked(self):
        with pytest.raises(ValueError):
            solve_lp([1, 1], [[1]], [1])
        with pytest.raises(ValueError):
            solve_lp([1], [[1]], [1, 2])


class TestCertificateChecker:
    def test_rejects_wrong_objective(self):
        res = solve_lp([1], [[-1]], [-2])
        res.objective += 1
        assert check_certificate([1], [[-1]], [-2], None, None, res) == [
            "c.x != objective",
            "y.b != objective",
        ]

    def test_rejects_positive_ub_dual(self):
        res = solve_lp([-1, -1], [[1, 1]], [1])
        res.dual_ub = [-v for v in res.dual_ub]
        assert "dual_ub[0] > 0" in check_certificate([-1, -1], [[1, 1]], [1], None, None, res)

    def test_rejects_farkas_with_nonpositive_yb(self):
        program = ([0], [[1], [-1]], [F(1, 2), -1], None, None)
        res = solve_lp(*program)
        res.farkas_ub = [F(0), F(0)]
        assert check_certificate(*program, res) == ["y.b <= 0"]

    def test_rejects_missing_vectors(self):
        res = solve_lp([1], [[1]], [1])
        res.dual_ub = None
        assert check_certificate([1], [[1]], [1], None, None, res) == [
            "dual_ub missing or of wrong length"
        ]


class TestDuality:
    def test_textbook_duality(self):
        res = solve_checked([F(2), F(3)], [[-1, -1], [-2, -1]], [F(-3), F(-4)])
        assert res.status == OPTIMAL

    def test_random_lps_certify_optimality(self):
        rng = random.Random(7)
        solved = 0
        for _ in range(120):
            n = rng.randint(1, 4)
            m = rng.randint(1, 4)
            c = [F(rng.randint(-4, 4)) for _ in range(n)]
            a_ub = [[F(rng.randint(-3, 3)) for _ in range(n)] for _ in range(m)]
            b_ub = [F(rng.randint(-2, 4)) for _ in range(m)]
            a_eq = [[F(1)] * n]
            b_eq = [F(1)]  # simplex constraint keeps things bounded
            res = solve_checked(c, a_ub, b_ub, a_eq, b_eq)
            # a bounded feasible region cannot be unbounded
            assert res.status in (OPTIMAL, INFEASIBLE)
            solved += res.status == OPTIMAL
        assert solved > 40  # the generator should not be degenerate


class TestFeasible:
    def test_feasible_point_in_simplex(self):
        res = solve_lp([0] * 3, None, None, [[1, 1, 1]], [1])
        assert res.status == OPTIMAL
        assert check_certificate([0] * 3, None, None, [[1, 1, 1]], [1], res) == []

    def test_infeasible_simplex_membership(self):
        # is (2,0) a convex combination of (0,0) and (1,1)?
        a_eq = [[0, 1], [0, 1], [1, 1]]
        b_eq = [2, 0, 1]
        res = solve_lp([0] * 2, None, None, a_eq, b_eq)
        assert res.status == INFEASIBLE
        assert check_certificate([0] * 2, None, None, a_eq, b_eq, res) == []


# -- differential tests against the Fraction tableau -------------------------

RATIONALS = st.builds(F, st.integers(-4, 4), st.sampled_from([1, 1, 2, 3, 5]))


@st.composite
def programs(draw):
    n = draw(st.integers(1, 4))
    row = st.lists(RATIONALS, min_size=n, max_size=n)
    mu = draw(st.integers(0, 3))
    me = draw(st.integers(0, 2))
    c = draw(row)
    a_ub = draw(st.lists(row, min_size=mu, max_size=mu))
    b_ub = draw(st.lists(RATIONALS, min_size=mu, max_size=mu))
    a_eq = draw(st.lists(row, min_size=me, max_size=me))
    b_eq = draw(st.lists(RATIONALS, min_size=me, max_size=me))
    if draw(st.booleans()):  # a redundant all-zero equality row
        at = draw(st.integers(0, me))
        a_eq.insert(at, [F(0)] * n)
        b_eq.insert(at, F(0))
    return c, a_ub, b_ub, a_eq, b_eq


@settings(max_examples=300, deadline=None)
@given(programs())
def test_solve_lp_matches_fraction_tableau(program):
    res = solve_checked(*program)
    assert res == walk_solve_lp(*program)


@pytest.mark.parametrize(
    "program, status",
    [
        (BEALE, OPTIMAL),
        (([1], [[-1]], [-2], None, None), OPTIMAL),
        (([1, 2, 0], None, None, [[1, 1, 1], [1, -1, 0]], [1, F(-1, 3)]), OPTIMAL),
        # the all-zero row, and [2, 2] once reduced, keep their artificials basic at 0
        (([1, -1], [[1, 0]], [1], [[1, 1], [0, 0], [2, 2]], [1, 0, 2]), OPTIMAL),
        (([0, 0], [[1, 0], [-1, 0]], [F(1, 2), -1], None, None), INFEASIBLE),
        (([-1, -1], [[1, -1]], [F(-1, 2)], None, None), UNBOUNDED),
        (([], None, None, None, None), OPTIMAL),
        (dense_program(20), OPTIMAL),
    ],
    ids=["beale", "negative-rhs", "equalities", "redundant-rows", "infeasible", "unbounded",
         "empty", "dense-20"],
)
def test_solve_lp_matches_fraction_tableau_on_fixed_programs(program, status):
    res = solve_checked(*program)
    assert res.status == status
    assert res == walk_solve_lp(*program)
