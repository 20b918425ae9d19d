from fractions import Fraction as F

from hypothesis import example, given, settings, strategies as st

from egk.lp import INFEASIBLE, OPTIMAL, UNBOUNDED, maximize
from oracles import reference_maximize


def test_basic_bounded_maximum():
    # max x + y  s.t. x + 2y <= 4, 3x + y <= 6
    res = maximize([F(1), F(1)], [[F(1), F(2)], [F(3), F(1)]], [F(4), F(6)])
    assert res.status == OPTIMAL
    assert res.value == F(14, 5)
    assert res.x == (F(8, 5), F(6, 5))


def test_equality_constraints():
    # max 2x + 3y on the segment x + y = 1
    res = maximize([F(2), F(3)], a_eq=[[F(1), F(1)]], b_eq=[F(1)])
    assert res.status == OPTIMAL
    assert res.value == F(3)
    assert res.x == (F(0), F(1))


def test_infeasible():
    res = maximize([F(1)], [[F(1)]], [F(-1)], [[F(1)]], [F(5)])
    assert res.status == INFEASIBLE


def test_unbounded():
    res = maximize([F(1), F(0)], [[F(-1), F(1)]], [F(0)])
    assert res.status == UNBOUNDED


def test_negative_rhs_is_normalized():
    # x >= 2 written as -x <= -2, maximize -x
    res = maximize([F(-1)], [[F(-1)]], [F(-2)])
    assert res.status == OPTIMAL
    assert res.value == F(-2)


def test_degenerate_ties_terminate():
    # Several redundant constraints through the optimum; Bland must not cycle.
    res = maximize(
        [F(1), F(1)],
        [[F(1), F(0)], [F(0), F(1)], [F(1), F(1)], [F(2), F(2)]],
        [F(1), F(1), F(2), F(4)],
    )
    assert res.status == OPTIMAL
    assert res.value == F(2)


def test_redundant_equalities():
    res = maximize(
        [F(1), F(2)],
        a_eq=[[F(1), F(1)], [F(2), F(2)]],
        b_eq=[F(1), F(2)],
    )
    assert res.status == OPTIMAL
    assert res.value == F(2)


def test_exactness_with_awkward_fractions():
    res = maximize(
        [F(1, 3), F(1, 7)],
        [[F(2, 5), F(3, 11)], [F(1, 2), F(1, 13)]],
        [F(7, 9), F(5, 8)],
    )
    assert res.status == OPTIMAL
    lhs1 = F(2, 5) * res.x[0] + F(3, 11) * res.x[1]
    lhs2 = F(1, 2) * res.x[0] + F(1, 13) * res.x[1]
    assert lhs1 <= F(7, 9) and lhs2 <= F(5, 8)
    assert res.value == F(1, 3) * res.x[0] + F(1, 7) * res.x[1]


# Small numerators over mixed denominators; negative values give negative
# right-hand sides, and the many equal values give degenerate ratio ties.
_values = st.builds(F, st.integers(-3, 3), st.sampled_from([1, 1, 2, 3, 5, 6]))
# Zero right-hand sides make degenerate vertices, where ratio tests tie.
_rhs = st.one_of(st.just(F(0)), _values)


@st.composite
def _lps(draw):
    n = draw(st.integers(1, 4))
    vectors = st.lists(_values, min_size=n, max_size=n)
    # A zero objective asks for any feasible point, so the pivot path alone picks x.
    c = draw(st.one_of(st.just([F(0)] * n), vectors))
    a_ub = draw(st.lists(vectors, max_size=4))
    b_ub = draw(st.lists(_rhs, min_size=len(a_ub), max_size=len(a_ub)))
    a_eq = draw(st.lists(vectors, max_size=3))
    b_eq = draw(st.lists(_rhs, min_size=len(a_eq), max_size=len(a_eq)))
    if a_eq and draw(st.booleans()):
        # A multiple of an equality: redundant, or contradictory when shifted.
        k = draw(st.integers(0, len(a_eq) - 1))
        s = draw(st.sampled_from([F(1), F(-2), F(1, 3)]))
        shift = draw(st.sampled_from([F(0), F(1, 2)]))
        a_eq.append([s * v for v in a_eq[k]])
        b_eq.append(s * b_eq[k] + shift)
    if a_ub and draw(st.booleans()):
        # A positive multiple of an inequality: a tie in every ratio test it enters.
        k = draw(st.integers(0, len(a_ub) - 1))
        s = draw(st.sampled_from([F(1), F(2), F(3, 2)]))
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
            row[j] = F(0)
    return c, a_ub, b_ub, a_eq, b_eq


# Both need a clean-up pivot on a negative entry to move a leftover artificial
# out of the basis; the second is unbounded after it, which a tableau left
# with a negative common denominator reports as optimal.
_NEGATIVE_PIVOT_LP = (
    [F(-2), F(0), F(0)],
    [],
    [],
    [[F(1), F(-2), F(-1)], [F(-1), F(2), F(0)], [F(2), F(-2), F(1)]],
    [F(-1), F(1), F(-1)],
)
_NEGATIVE_PIVOT_UNBOUNDED_LP = ([F(0), F(1)], [], [], [[F(-1), F(0)]], [F(0)])

# Equalities at different scales: the phase-1 costs must weight each
# artificial by its row's scale, or phase 1 takes another path.
_MIXED_SCALE_LP = (
    [F(1), F(0), F(-1)],
    [[F(1, 2), F(-2), F(-2)]],
    [F(0)],
    [[F(-1), F(1, 2), F(2)], [F(2), F(1), F(0)]],
    [F(0), F(2)],
)

# Degenerate: the ratio test ties, and only the lowest-basis-index
# tie-break reaches the reference's feasible point.
_RATIO_TIE_LP = (
    [F(0), F(0), F(0)],
    [[F(1), F(1, 2), F(-1)]],
    [F(0)],
    [[F(0), F(1), F(-1)], [F(-1), F(0), F(1)]],
    [F(0), F(2)],
)


@settings(deadline=None)
@given(_lps())
@example(_NEGATIVE_PIVOT_LP)
@example(_NEGATIVE_PIVOT_UNBOUNDED_LP)
@example(_MIXED_SCALE_LP)
@example(_RATIO_TIE_LP)
def test_matches_reference_simplex(lp):
    got, want = maximize(*lp), reference_maximize(*lp)
    assert (got.status, got.value, got.x) == (want.status, want.value, want.x)


def test_negative_cleanup_pivot():
    res = maximize(*_NEGATIVE_PIVOT_LP)
    assert res.status == OPTIMAL
    assert res.value == 0
    assert res.x == (F(0), F(1, 2), F(0))
    assert maximize(*_NEGATIVE_PIVOT_UNBOUNDED_LP).status == UNBOUNDED
