"""Dominance tests, elimination procedures, and justifying beliefs.

Strict and weak dominance by mixed strategies are rational feasibility
questions, decided by the exact simplex in :mod:`egk.lp` on LPs built from
the game's compiled integer payoff rows.  Dominator supports exclude the
candidate strategy itself; this is without loss of generality and keeps the
LPs small.  A best reply to a surviving pure opponent strategy (the unique
one, for weak dominance) is undominated: one integer pass over the rows per
player and round, the only screen, certifies them all; the rest run an LP.  A
round tests only the players whose opponent lost a strategy since their last
test: against the same opponent strategies, fewer rivals dominate nothing new.

Both tests' LPs start at the pure rival with the largest worst-case margin,
its weight the rest of the others': the strict one needs no phase 1, the weak
one none when that rival weakly dominates.  The optimum's sign decides, and a
dominator certified as the only optimum is kept; when the optimum is not
unique, the LP over all mixtures with a sum-to-one row picks it by Bland's rule.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import InputError
from .frozen import Frozen
from .games import Game, MixedStrategy, _compiled, other
from .lp import OPTIMAL, maximize


class Restriction(Frozen):
    """Per-player surviving strategy sets at some stage of elimination."""

    __slots__ = ("sets",)
    sets: tuple[tuple[str, ...], tuple[str, ...]]

    @classmethod
    def full(cls, game: Game) -> "Restriction":
        return cls((tuple(game.strategies[0]), tuple(game.strategies[1])))

    def check(self, game: Game) -> None:
        index = _compiled(game)[1]
        for i in (0, 1):
            if not self.sets[i]:
                raise InputError(f"empty restriction for player {game.players[i]!r}")
            for s in self.sets[i]:
                if s not in index[i]:
                    game.check_strategy(i, s)

    def remove(self, removals: dict[int, set[str]]) -> "Restriction":
        return Restriction(
            tuple(
                tuple(s for s in self.sets[i] if s not in removals.get(i, set()))
                for i in (0, 1)
            )
        )


class Elimination(NamedTuple):
    player: int
    strategy: str
    dominator: MixedStrategy


class EliminationRound(NamedTuple):
    phase: str  # "weak" or "strict"
    eliminations: tuple[Elimination, ...]


def _rows(
    game: Game, r: Restriction, i: int, s_i: str
) -> tuple[list[str], list[tuple[int, ...]], tuple[int, ...], list[int], int]:
    """What a test of ``s_i`` within ``r`` reads from the game's compiled integer rows.

    The rivals of ``s_i`` within ``r`` and their rows, the row of ``s_i``,
    the positions of the surviving opponent strategies (file order), and
    ``i``'s denominator: a row holds the exact payoffs times it.
    """
    r.check(game)
    if s_i not in r.sets[i]:
        raise InputError(f"strategy {s_i!r} is not in the restriction for player {game.players[i]!r}")
    rows, index, dens = _compiled(game)
    cands = [t for t in r.sets[i] if t != s_i]
    cols = [index[other(i)][o] for o in r.sets[other(i)]]
    return cands, [rows[i][t] for t in cands], rows[i][s_i], cols, dens[i]


def _pure_best_replies(
    rows: dict[str, tuple[int, ...]], strategies: tuple[str, ...], cols: list[int], unique: bool
) -> set[str]:
    """The ``strategies`` that are a best reply among them to one opponent strategy of ``cols``.

    With ``unique``, a strategy counts only where it reaches the maximum alone.
    A best reply at a surviving ``o`` is not strictly dominated within the
    restriction: no mixture of the others earns more there.  A unique one is
    not weakly dominated either: every mixture of the others earns less there.
    """
    columns = list(zip(*(rows[s] for s in strategies)))
    found = set()
    for k in cols:
        best = max(columns[k])
        if columns[k].count(best) == 1:
            found.add(strategies[columns[k].index(best)])
        elif not unique:
            found.update(s for s, v in zip(strategies, columns[k]) if v == best)
    return found


def _at_best_rival(
    rivals: list[tuple[int, ...]], own: tuple[int, ...], cols: list[int]
) -> tuple[int, list[list[int]], list[int]]:
    """The rival ``b`` with the largest worst-case margin (first on ties) and, with ``x_b = 1 -
    sum(others)``, each ``o``'s row ``sum of x_t (best - rival t at o) <= best's margin at o``."""
    worst = [min(row[o] - own[o] for o in cols) for row in rivals]
    b = worst.index(max(worst))
    best, others = rivals[b], rivals[:b] + rivals[b + 1:]
    return b, [[best[o] - row[o] for row in others] for o in cols], [best[o] - own[o] for o in cols]


def strictly_dominated(
    game: Game, r: Restriction, i: int, s_i: str
) -> MixedStrategy | None:
    """A mixture strictly dominating ``s_i`` within ``r``, or None.

    Maximizes the minimum margin over the opponent's restricted strategies;
    ``s_i`` is dominated iff the optimum is positive.  The LP always runs:
    :func:`_eliminate_round`'s screen is the only one.  From :func:`_at_best_rival`'s
    ``b``, with the margin ``M + Y`` for ``M`` the least right-hand side, every
    one is nonnegative.  A dominator certified unique is every exact solver's.
    """
    cands, rivals, own, cols, den = _rows(game, r, i, s_i)
    k = len(cands)
    if not k:
        return None
    b, a_ub, b_ub = _at_best_rival(rivals, own, cols)
    m = min(b_ub)
    # Variables: the other rivals' weights x_t, then Y >= 0; row o gains Y and loses M.
    a_ub = [*(row + [1] for row in a_ub), [1] * (k - 1) + [0]]
    res = maximize([0] * (k - 1) + [1], a_ub, [*(v - m for v in b_ub), 1])
    if m + res.value <= 0:
        return None
    if res.unique:
        x = list(res.x[:-1])
        x.insert(b, 1 - sum(x))
    else:
        # Variables: dominator weights, then the free margin split as d+ - d-.
        # Every row that can carry an artificial is the exact row times ``den``,
        # the sum-to-one row too, so every phase-1 cost scales by one factor.
        c = [0] * k + [1, -1]
        a_ub = [[-row[o] for row in rivals] + [den, -den] for o in cols]
        b_ub = [-own[o] for o in cols]
        x = maximize(c, a_ub, b_ub, [[den] * k + [0, 0]], [den]).x
    return MixedStrategy(i, {t: w for t, w in zip(cands, x) if w > 0})


def weakly_dominated(
    game: Game, r: Restriction, i: int, s_i: str
) -> MixedStrategy | None:
    """A mixture weakly dominating ``s_i`` within ``r``, or None.

    Maximizes total slack subject to componentwise >=; weakly dominated iff
    the optimum is positive.  The LP always runs, from :func:`_at_best_rival`'s
    ``b``: the total is ``b``'s plus the others' gain over it, so no phase 1
    runs when ``b`` weakly dominates.  A unique optimum is kept, and any other
    re-solved over all mixtures with a sum-to-one row, as the strict test does.
    """
    cands, rivals, own, cols, den = _rows(game, r, i, s_i)
    k, nm = len(cands), len(cols)
    if not k:
        return None
    b, a_ub, b_ub = _at_best_rival(rivals, own, cols)
    res = maximize([-sum(col) for col in zip(*a_ub)], [*a_ub, [1] * (k - 1)], [*b_ub, 1])
    if res.status != OPTIMAL or sum(b_ub) + res.value <= 0:
        return None
    if res.unique:
        x = list(res.x)
        x.insert(b, 1 - sum(x))
    else:
        # Dominator weights, then a margin per ``o``; each row times ``den``, as in the strict test.
        a_eq = [[row[o] for row in rivals] + [-den if q == p else 0 for q in range(nm)]
                for p, o in enumerate(cols)]
        x = maximize([0] * k + [1] * nm, a_eq=[*a_eq, [den] * k + [0] * nm],
                     b_eq=[*(own[o] for o in cols), den]).x
    return MixedStrategy(i, {t: w for t, w in zip(cands, x) if w > 0})


def justifying_belief(
    game: Game, r: Restriction, i: int, s_i: str, full_support: bool = False
) -> MixedStrategy | None:
    """An opponent belief making ``s_i`` a best response within ``r``.

    Returns None exactly when no such belief exists; by LP duality this is
    the complement of :func:`strictly_dominated`.  With ``full_support`` the
    belief must put positive weight on every restricted opponent strategy
    (exists iff ``s_i`` is not weakly dominated within ``r``).
    """
    _, rivals, own, cols, _ = _rows(game, r, i, s_i)
    j = other(i)
    opps = r.sets[j]
    nm = len(opps)
    nvars = nm + (1 if full_support else 0)
    # Only the sum-to-one row can carry an artificial: the others have
    # right-hand side 0, so scaling them changes no pivot.
    a_ub = [[row[o] - own[o] for o in cols] + [0] * (nvars - nm) for row in rivals]
    if full_support:
        for idx in range(nm):
            row = [0] * nvars
            row[idx] = -1
            row[nm] = 1
            a_ub.append(row)
    b_ub = [0] * len(a_ub)
    a_eq = [[1] * nm + [0] * (nvars - nm)]
    c = [0] * nvars
    if full_support:
        c[nm] = 1
    res = maximize(c, a_ub, b_ub, a_eq, [1])
    if res.status != OPTIMAL:
        return None
    if full_support and res.value <= 0:
        return None
    return MixedStrategy(j, {o: w for o, w in zip(opps, res.x[:nm]) if w > 0})


def _eliminate_round(
    game: Game, r: Restriction, phase: str, players: tuple[int, ...]
) -> tuple[Restriction, EliminationRound | None]:
    """One ``phase`` round within ``r`` on ``players``: per player, one screen certifies
    the pure best replies, and only the survivors it leaves out run the per-strategy test."""
    unique = phase == "weak"
    test = weakly_dominated if unique else strictly_dominated
    rows, index, _ = _compiled(game)
    elims = []
    for i in players:
        j = other(i)
        cols = [index[j][o] for o in r.sets[j]]
        screened = _pure_best_replies(rows[i], r.sets[i], cols, unique)
        for s in r.sets[i]:
            dom = None if s in screened else test(game, r, i, s)
            if dom is not None:
                elims.append(Elimination(i, s, dom))
    if not elims:
        return r, None
    removals: dict[int, set[str]] = {0: set(), 1: set()}
    for e in elims:
        removals[e.player].add(e.strategy)
    return r.remove(removals), EliminationRound(phase, tuple(elims))


def _cut(rnd: EliminationRound) -> tuple[int, ...]:
    """The players whose opponent lost a strategy in ``rnd``, in order 0 then 1."""
    return tuple(i for i in (0, 1) if any(e.player != i for e in rnd.eliminations))


def _strict_rounds(
    game: Game, r: Restriction, rounds: list[EliminationRound], players: tuple[int, ...]
) -> tuple[Restriction, tuple[EliminationRound, ...]]:
    """Strict elimination from ``r`` on ``players`` until a round removes nothing,
    appended to ``rounds``; each round hands the next only the players it cut the
    opponent of, since an unchanged opponent set leaves every earlier answer standing."""
    while True:
        r, rnd = _eliminate_round(game, r, "strict", players)
        if rnd is None:
            return r, tuple(rounds)
        rounds.append(rnd)
        players = _cut(rnd)


def dekel_fudenberg(game: Game) -> tuple[Restriction, tuple[EliminationRound, ...]]:
    """One round of maximal weak elimination, then iterated strict elimination.

    The strict phase starts on the players whose opponent the weak round cut,
    since a strategy that is not weakly dominated is not strictly dominated.
    """
    r, rnd = _eliminate_round(game, Restriction.full(game), "weak", (0, 1))
    if rnd is None:
        return r, ()
    return _strict_rounds(game, r, [rnd], _cut(rnd))


def iesds(game: Game) -> tuple[Restriction, tuple[EliminationRound, ...]]:
    """Iterated simultaneous elimination of strictly dominated strategies."""
    return _strict_rounds(game, Restriction.full(game), [], (0, 1))
