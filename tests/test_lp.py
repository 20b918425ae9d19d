from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

from egk.lp import INFEASIBLE, OPTIMAL, UNBOUNDED, maximize
from oracles import reference_maximize


def test_basic_bounded_maximum():
    # max x + y  s.t. x + 2y <= 4, 3x + y <= 6
    res = maximize([1, 1], [[1, 2], [3, 1]], [4, 6])
    assert res.status == OPTIMAL
    assert res.value == F(14, 5)
    assert res.x == (F(8, 5), F(6, 5))


def test_equality_constraints():
    # max 2x + 3y on the segment x + y = 1
    res = maximize([2, 3], a_eq=[[1, 1]], b_eq=[1])
    assert res.status == OPTIMAL
    assert res.value == F(3)
    assert res.x == (F(0), F(1))


def test_infeasible():
    res = maximize([1], [[1]], [-1], [[1]], [5])
    assert res.status == INFEASIBLE


def test_unbounded():
    res = maximize([1, 0], [[-1, 1]], [0])
    assert res.status == UNBOUNDED


def test_negative_rhs_is_normalized():
    # x >= 2 written as -x <= -2, maximize -x
    res = maximize([-1], [[-1]], [-2])
    assert res.status == OPTIMAL
    assert res.value == F(-2)


def test_degenerate_ties_terminate():
    # Several redundant constraints through the optimum; Bland must not cycle.
    res = maximize([1, 1], [[1, 0], [0, 1], [1, 1], [2, 2]], [1, 1, 2, 4])
    assert res.status == OPTIMAL
    assert res.value == F(2)


def test_redundant_equalities():
    res = maximize([1, 2], a_eq=[[1, 1], [2, 2]], b_eq=[1, 2])
    assert res.status == OPTIMAL
    assert res.value == F(2)


def test_exactness_with_awkward_fractions():
    # max x/3 + y/7  s.t. 2x/5 + 3y/11 <= 7/9, x/2 + y/13 <= 5/8, each row
    # times the LCM of its denominators (21, 495 and 104).
    res = maximize([7, 3], [[198, 135], [52, 8]], [385, 65])
    assert res.status == OPTIMAL
    lhs1 = F(2, 5) * res.x[0] + F(3, 11) * res.x[1]
    lhs2 = F(1, 2) * res.x[0] + F(1, 13) * res.x[1]
    assert lhs1 <= F(7, 9) and lhs2 <= F(5, 8)
    assert res.value == 7 * res.x[0] + 3 * res.x[1]
    assert res.x[0].denominator > 1 and res.x[1].denominator > 1


@pytest.mark.parametrize("bad", [F(1, 2), F(1), 0.5, True], ids=repr)
@pytest.mark.parametrize("spot", ["c", "a_ub", "b_ub", "a_eq", "b_eq"])
def test_non_int_coefficients_raise_type_error(bad, spot):
    lp = {"c": [1, 1], "a_ub": [[1, 2]], "b_ub": [4], "a_eq": [[1, 1]], "b_eq": [1]}
    if spot.startswith("a_"):
        lp[spot][0][1] = bad
    else:
        lp[spot][0] = bad
    with pytest.raises(TypeError, match="^maximize takes int coefficients$"):
        maximize(**lp)


# Small values; negative values give negative right-hand sides, and the many
# equal values give degenerate ratio ties.  The wider range stands for rows
# scaled to integers, as the dominance tests build them.
_values = st.one_of(st.integers(-3, 3), st.integers(-30, 30))
# Zero right-hand sides make degenerate vertices, where ratio tests tie.
_rhs = st.one_of(st.just(0), _values)


@st.composite
def _lps(draw):
    n = draw(st.integers(1, 4))
    vectors = st.lists(_values, min_size=n, max_size=n)
    # A zero objective asks for any feasible point, so the pivot path alone picks x.
    c = draw(st.one_of(st.just([0] * n), vectors))
    a_ub = draw(st.lists(vectors, max_size=4))
    b_ub = draw(st.lists(_rhs, min_size=len(a_ub), max_size=len(a_ub)))
    a_eq = draw(st.lists(vectors, max_size=3))
    b_eq = draw(st.lists(_rhs, min_size=len(a_eq), max_size=len(a_eq)))
    if a_eq and draw(st.booleans()):
        # A multiple of an equality: redundant, or contradictory when shifted.
        k = draw(st.integers(0, len(a_eq) - 1))
        s = draw(st.sampled_from([1, -2, 3]))
        shift = draw(st.sampled_from([0, 1]))
        a_eq.append([s * v for v in a_eq[k]])
        b_eq.append(s * b_eq[k] + shift)
    if a_ub and draw(st.booleans()):
        # A positive multiple of an inequality: a tie in every ratio test it enters.
        k = draw(st.integers(0, len(a_ub) - 1))
        s = draw(st.sampled_from([1, 2, 3]))
        a_ub.append([s * v for v in a_ub[k]])
        b_ub.append(s * b_ub[k])
    if draw(st.booleans()):
        # An unbounded direction: column j only loosens inequalities, is absent
        # from the equalities and improves the objective.
        j = draw(st.integers(0, n - 1))
        c[j] = abs(c[j]) + 1
        for row in a_ub:
            row[j] = -abs(row[j])
        for row in a_eq:
            row[j] = 0
    return c, a_ub, b_ub, a_eq, b_eq


# Both need a clean-up pivot on a negative entry to move a leftover artificial
# out of the basis; the second is unbounded after it, which a tableau left
# with a negative common denominator reports as optimal.
_NEGATIVE_PIVOT_LP = (
    [-2, 0, 0],
    [],
    [],
    [[1, -2, -1], [-1, 2, 0], [2, -2, 1]],
    [-1, 1, -1],
)
_NEGATIVE_PIVOT_UNBOUNDED_LP = ([0, 1], [], [], [[-1, 0]], [0])

# Rows at different scales: the rational rows (1/2, -2, -2 | 0) and
# (-1, 1/2, 2 | 0) times 2.  The callers scale their rows by one
# denominator, so that phase 1 weights every artificial alike; the scale
# examples of test_screened_tests_match_the_lp_only_references in
# tests/test_dominance.py pin that rule.
_MIXED_SCALE_LP = (
    [1, 0, -1],
    [[1, -4, -4]],
    [0],
    [[-2, 1, 4], [2, 1, 0]],
    [0, 2],
)

# Degenerate: the ratio test ties, and only the lowest-basis-index
# tie-break reaches the reference's feasible point.
_RATIO_TIE_LP = (
    [0, 0, 0],
    [[2, 1, -2]],
    [0],
    [[0, 1, -1], [-1, 0, 1]],
    [0, 2],
)


@settings(deadline=None)
@given(_lps())
@example(_NEGATIVE_PIVOT_LP)
@example(_NEGATIVE_PIVOT_UNBOUNDED_LP)
@example(_MIXED_SCALE_LP)
@example(_RATIO_TIE_LP)
def test_matches_reference_simplex(lp):
    got, want = maximize(*lp), reference_maximize(*lp)
    assert (got.status, got.value, got.x, got.unique) == \
        (want.status, want.value, want.x, want.unique)


@settings(deadline=None)
@given(_lps())
# max x + y  s.t. x + y <= 1: every point from (1, 0) to (0, 1).
@example(([1, 1], [[1, 1]], [1], [], []))
def test_a_unique_optimum_is_the_only_optimal_point(lp):
    # On the optimal face (the rows plus c . x = value), the reference finds
    # no point whose coordinate j differs from the reported x_j, either way.
    got = maximize(*lp)
    if not got.unique:
        return
    c, a_ub, b_ub, a_eq, b_eq = lp
    face = (a_ub, b_ub, [*a_eq, c], [*b_eq, got.value])
    for j, x_j in enumerate(got.x):
        for sign in (1, -1):
            res = reference_maximize([sign * (k == j) for k in range(len(c))], *face)
            assert res.status == OPTIMAL and sign * res.value == x_j


def test_unique_certifies_a_vertex_optimum_and_not_an_edge():
    # max x + y  s.t. x + 2y <= 4, 3x + y <= 6: the vertex (8/5, 6/5) alone.
    vertex = ([1, 1], [[1, 2], [3, 1]], [4, 6])
    # max x + y  s.t. x + y <= 1: every point from (1, 0) to (0, 1).
    edge = ([1, 1], [[1, 1]], [1])
    for lp, value, unique in ((vertex, F(14, 5), True), (edge, F(1), False)):
        got = maximize(*lp)
        assert (got.status, got.value, got.unique) == (OPTIMAL, value, unique)
        assert reference_maximize(*lp) == got


def test_negative_cleanup_pivot():
    res = maximize(*_NEGATIVE_PIVOT_LP)
    assert res.status == OPTIMAL
    assert res.value == 0
    assert res.x == (F(0), F(1, 2), F(0))
    assert maximize(*_NEGATIVE_PIVOT_UNBOUNDED_LP).status == UNBOUNDED
