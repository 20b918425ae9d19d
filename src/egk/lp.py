"""A small exact-arithmetic simplex solver.

Covers exactly what the dominance and justification tests need: maximize a
linear objective over ``{x >= 0 : A_ub x <= b_ub, A_eq x = b_eq}``.  Inputs
and results are Fractions, so feasibility and the sign of the optimum are
decided exactly, with no tolerance knobs.  Bland's rule makes the pivot
sequence finite.

The tableau is fraction-free (integer-preserving; Edmonds 1967, Bareiss
1968): each constraint row is scaled once to integers, and the tableau is
kept as Python ints ``T`` over one positive common denominator ``d``, so
that ``T / d`` is the usual ``B^-1 [A | b]``.  Pivoting on ``p = T[rp][cp]``
maps every other row to ``(p * T[r] - T[r][cp] * T[rp]) // d`` and sets
``d = p``; each division is exact because the results are minors of the
scaled constraint matrix.  Each slack and artificial keeps the unit
coefficient in its scaled row, which rescales that variable by the row's
scale; dividing an artificial's phase-1 cost by the same scale keeps every
dual, so no sign of a reduced cost and no ratio changes, and the pivot
sequence and the results are those of the plain rational tableau.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import NamedTuple, Sequence

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

_ZERO = Fraction(0)


class LPResult(NamedTuple):
    status: str
    value: Fraction | None = None
    x: tuple[Fraction, ...] | None = None


def _fraction(v) -> Fraction:
    return v if isinstance(v, Fraction) else Fraction(v)


def _integer_row(values: Sequence[Fraction]) -> tuple[int, list[int]]:
    """The LCM of the denominators of ``values``, and ``values`` times it."""
    values = [_fraction(v) for v in values]
    scale = lcm(*(v.denominator for v in values))
    return scale, [v.numerator * (scale // v.denominator) for v in values]


def maximize(
    c: Sequence[Fraction],
    a_ub: Sequence[Sequence[Fraction]] = (),
    b_ub: Sequence[Fraction] = (),
    a_eq: Sequence[Sequence[Fraction]] = (),
    b_eq: Sequence[Fraction] = (),
) -> LPResult:
    """Maximize ``c . x`` subject to ``a_ub x <= b_ub``, ``a_eq x = b_eq``, ``x >= 0``."""
    c = [_fraction(v) for v in c]
    n = len(c)

    # Each row holds its coefficients, one slack column per inequality row
    # (coefficient 1 in its own row, whatever the row's scale) and last the
    # right-hand side, all integers.  A row with a negative right-hand side
    # is negated.
    ub, eq = list(zip(a_ub, b_ub)), list(zip(a_eq, b_eq))
    nslack = len(ub)
    scales: list[int] = []
    tab: list[list[int]] = []
    basis: list[int] = []
    for r, (row, b) in enumerate(ub + eq):
        scale, ints = _integer_row([*row, b])
        slacks = [0] * nslack
        if r < nslack:
            slacks[r] = 1
        row = ints[:-1] + slacks + ints[-1:]
        if ints[-1] < 0:
            row = [-v for v in row]
        scales.append(scale)
        tab.append(row)
        # Start from the slack column where it is still +1; add artificials elsewhere.
        basis.append(n + r if r < nslack and row[n + r] == 1 else -1)
    m = len(tab)
    cols = real_cols = n + nslack
    art_rows = [r for r in range(m) if basis[r] == -1]
    for r in art_rows:
        for rr in range(m):
            tab[rr].insert(-1, 1 if rr == r else 0)
        basis[r] = cols
        cols += 1
    d = 1

    def pivot(rp: int, cp: int) -> None:
        nonlocal d
        prow = tab[rp]
        p = prow[cp]
        for r, row in enumerate(tab):
            if r == rp:
                continue
            f = row[cp]
            if f:
                tab[r] = [(p * a - f * b) // d for a, b in zip(row, prow)]
            elif p != d:
                tab[r] = [p * a // d for a in row]
        if p < 0:
            for r, row in enumerate(tab):
                tab[r] = [-v for v in row]
            p = -p
        d = p
        basis[rp] = cp

    def run(obj: list[int], ncols: int) -> bool:
        """Bland's rule over the first ``ncols`` columns; False when unbounded.

        The reduced cost of column j is ``obj[j] - sum(obj[basis[r]] * T[r][j]) / d``;
        its sign is that of the integer ``obj[j] * d - sum(obj[basis[r]] * T[r][j])``.
        """
        while True:
            lam = [(obj[b], row) for b, row in zip(basis, tab) if obj[b]]
            enter = -1
            for j in range(ncols):
                red = obj[j] * d
                for l, row in lam:
                    red -= l * row[j]
                if red > 0:
                    enter = j
                    break
            if enter < 0:
                return True
            # Ratio test rhs/a over rows with a > 0, compared by cross-multiplication.
            leave, best_rhs, best_a = -1, 0, 1
            for r, row in enumerate(tab):
                a = row[enter]
                if a > 0:
                    lhs, rhs = row[-1] * best_a, best_rhs * a
                    if leave < 0 or lhs < rhs or (lhs == rhs and basis[r] < basis[leave]):
                        leave, best_rhs, best_a = r, row[-1], a
            if leave < 0:
                return False
            pivot(leave, enter)

    if art_rows:
        # Each artificial costs -1 in the unscaled problem, and so -1/scale
        # with its unit coefficient in a scaled row; times a common multiple.
        art_scale = lcm(*(scales[r] for r in art_rows))
        obj1 = [0] * real_cols + [-(art_scale // scales[r]) for r in art_rows]
        run(obj1, cols)
        if sum(obj1[b] * row[-1] for b, row in zip(basis, tab)):
            return LPResult(INFEASIBLE)
        # Pivot leftover artificials out of the basis; drop redundant rows.
        for r in range(len(tab) - 1, -1, -1):
            if basis[r] >= real_cols:
                cp = next((j for j in range(real_cols) if tab[r][j] != 0), None)
                if cp is None:
                    tab.pop(r)
                    basis.pop(r)
                else:
                    pivot(r, cp)

    obj2 = _integer_row(c)[1] + [0] * (cols - n)
    if not run(obj2, real_cols):
        return LPResult(UNBOUNDED)
    x = [_ZERO] * n
    for b, row in zip(basis, tab):
        if b < n:
            x[b] = Fraction(row[-1], d)
    value = sum((ci * xi for ci, xi in zip(c, x)), _ZERO)
    return LPResult(OPTIMAL, value, tuple(x))
