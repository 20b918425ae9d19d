"""A small exact-arithmetic simplex solver.

Covers exactly what the dominance and justification tests need: maximize a
linear objective over ``{x >= 0 : A_ub x <= b_ub, A_eq x = b_eq}``.  Inputs
are ints (anything else is a ``TypeError``) and results Fractions, so
feasibility and the sign of the optimum are exact.  Bland's rule makes the
pivot sequence finite.  ``LPResult.unique`` certifies that the optimal x is
the only one: it is read from the final basis, where every nonbasic
column's reduced cost is negative (Mangasarian 1979).  A False leaves the
question open; a degenerate vertex can be the only optimum without it.

The tableau is condensed and fraction-free (Edmonds 1967, Bareiss 1968; the
dictionary of Avis's lrs): only the nonbasic columns and the right-hand side
are kept, as ints ``T`` over one positive common denominator ``d``, so that
``T / d`` is those columns of ``B^-1 [A | b]``.  ``nonbasic[j]`` is column
``j``'s variable.  A pivot on ``p = T[rp][cp]`` maps every other row to
``(p * T[r] - T[r][cp] * T[rp]) // d`` (exact: the results are minors of
``[A | b]``) and sets ``d = p``; the leaving variable takes column ``cp``,
``-T[r][cp]`` in the other rows and ``d`` in the pivot row.  Bland's rule
picks the smallest variable index, and a leaving artificial stays a column
through phase 1, so the pivots and the results are those of the plain
rational tableau.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Sequence

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

_ZERO = Fraction(0)


class LPResult(NamedTuple):
    status: str
    value: Fraction | None = None
    x: tuple[Fraction, ...] | None = None
    unique: bool = False


def _ints(values: Sequence[int]) -> list[int]:
    """``values`` as a new list; every one must be an ``int`` (not a ``bool``)."""
    if not all(type(v) is int for v in values):
        raise TypeError("maximize takes int coefficients")
    return list(values)


def maximize(
    c: Sequence[int],
    a_ub: Sequence[Sequence[int]] = (),
    b_ub: Sequence[int] = (),
    a_eq: Sequence[Sequence[int]] = (),
    b_eq: Sequence[int] = (),
) -> LPResult:
    """Maximize ``c . x`` subject to ``a_ub x <= b_ub``, ``a_eq x = b_eq``, ``x >= 0``."""
    obj = _ints(c)
    n = len(obj)
    # Variables: the n real ones, one slack per inequality row, then one
    # artificial per row whose slack cannot start basic.  A row with a
    # negative right-hand side is negated, and its slack, now -1, starts
    # nonbasic.  Each row holds its nonbasic columns, then the right-hand side.
    ub, eq = list(zip(a_ub, b_ub)), list(zip(a_eq, b_eq))
    real_cols = n + len(ub)
    tab: list[list[int]] = []
    basis: list[int] = []
    nonbasic = list(range(n))
    for r, (row, b) in enumerate(ub + eq):
        ints = _ints([*row, b])
        slack = n + r if r < len(ub) else -1
        if ints[-1] < 0:
            ints = [-v for v in ints]
            if slack >= 0:
                nonbasic.append(slack)
            slack = -1
        tab.append(ints)
        basis.append(slack)
    for r, row in enumerate(tab):
        row[-1:-1] = [-1 if s == n + r else 0 for s in nonbasic[n:]]
    art_rows = [r for r, b in enumerate(basis) if b < 0]
    for k, r in enumerate(art_rows):
        basis[r] = real_cols + k
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
                row = tab[r] = [(p * a - f * b) // d for a, b in zip(row, prow)]
                row[cp] = -f
            elif p != d:
                tab[r] = [p * a // d for a in row]
        prow[cp] = d
        if p < 0:
            for r, row in enumerate(tab):
                tab[r] = [-v for v in row]
            p = -p
        d = p
        nonbasic[cp], basis[rp] = basis[rp], nonbasic[cp]

    def run(obj: list[int]) -> bool | None:
        """Bland's rule on the variable costs ``obj``; None when unbounded, else
        whether every nonbasic reduced cost at the optimum is negative.

        Column ``j``'s reduced cost has the sign of the integer
        ``obj[nonbasic[j]] * d - sum(obj[basis[r]] * T[r][j] for each row r)``.
        """
        while True:
            lam = [(obj[b], row) for b, row in zip(basis, tab) if obj[b]]
            enter, flat = -1, False
            for j in sorted(range(len(nonbasic)), key=nonbasic.__getitem__):
                red = obj[nonbasic[j]] * d
                for l, row in lam:
                    red -= l * row[j]
                if red > 0:
                    enter = j
                    break
                flat = flat or red == 0
            if enter < 0:
                return not flat
            # Ratio test rhs/a over rows with a > 0, compared by cross-multiplication.
            leave, best_rhs, best_a = -1, 0, 1
            for r, (b, row) in enumerate(zip(basis, tab)):
                a = row[enter]
                if a > 0:
                    lhs, rhs = row[-1] * best_a, best_rhs * a
                    if leave < 0 or lhs < rhs or (lhs == rhs and b < basis[leave]):
                        leave, best_rhs, best_a = r, row[-1], a
            if leave < 0:
                return None
            pivot(leave, enter)

    if art_rows:
        obj1 = [0] * real_cols + [-1] * len(art_rows)
        run(obj1)
        if sum(obj1[b] * row[-1] for b, row in zip(basis, tab)):
            return LPResult(INFEASIBLE)
        # Pivot leftover artificials out of the basis; drop redundant rows.
        for r in range(len(tab) - 1, -1, -1):
            if basis[r] >= real_cols:
                real = [j for j, v in enumerate(nonbasic) if v < real_cols and tab[r][j]]
                if real:
                    pivot(r, min(real, key=nonbasic.__getitem__))
                else:
                    tab.pop(r)
                    basis.pop(r)
        # Phase 2 scans only real columns: drop the nonbasic artificials.
        keep = [j for j, v in enumerate(nonbasic) if v < real_cols]
        nonbasic[:] = [nonbasic[j] for j in keep]
        tab[:] = [[row[j] for j in keep] + row[-1:] for row in tab]

    unique = run(obj + [0] * (real_cols - n))
    if unique is None:
        return LPResult(UNBOUNDED)
    x = [_ZERO] * n
    for b, row in zip(basis, tab):
        if b < n:
            x[b] = Fraction(row[-1], d)
    value = Fraction(sum(obj[b] * row[-1] for b, row in zip(basis, tab) if b < n), d)
    return LPResult(OPTIMAL, value, tuple(x), unique)
