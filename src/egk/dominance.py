"""Dominance tests, elimination procedures, and justifying beliefs.

Strict and weak dominance by mixed strategies are rational feasibility
questions, decided by the exact simplex in :mod:`egk.lp` on LPs built from
the game's compiled integer payoff rows.  Dominator supports exclude the
candidate strategy itself; this is without loss of generality and keeps the
LPs small.  A strategy that is a best reply to a surviving pure opponent
strategy (the unique one, for weak dominance) is undominated, and is
certified so by integer comparisons on the same rows, without an LP.
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


def _pure_best_reply(
    rivals: list[tuple[int, ...]], own: tuple[int, ...], cols: list[int], unique: bool
) -> bool:
    """Whether ``own`` is a best reply among ``rivals`` to one opponent strategy of ``cols``.

    With ``unique``, every rival must do strictly worse there.  A best reply
    at a surviving ``o`` is not strictly dominated within the restriction:
    no mixture of the others earns more there.  A unique one is not weakly
    dominated either: every mixture of the others earns less there.
    """
    for k in cols:
        best = max(row[k] for row in rivals)
        if best < own[k] or (not unique and best == own[k]):
            return True
    return False


def strictly_dominated(
    game: Game, r: Restriction, i: int, s_i: str
) -> MixedStrategy | None:
    """A mixture strictly dominating ``s_i`` within ``r``, or None.

    Maximizes the minimum margin over the opponent's restricted strategies;
    ``s_i`` is dominated iff the optimum is positive.
    """
    cands, rivals, own, cols, den = _rows(game, r, i, s_i)
    if not cands or _pure_best_reply(rivals, own, cols, unique=False):
        return None
    k = len(cands)
    # Variables: dominator weights, then the free margin split as d+ - d-.
    # Every row that can carry an artificial is the exact row times ``den``,
    # the sum-to-one row too, so every phase-1 cost scales by one factor.
    c = [0] * k + [1, -1]
    a_ub = [[-row[o] for row in rivals] + [den, -den] for o in cols]
    b_ub = [-own[o] for o in cols]
    res = maximize(c, a_ub, b_ub, [[den] * k + [0, 0]], [den])
    if res.status != OPTIMAL or res.value <= 0:
        return None
    return MixedStrategy(i, {t: w for t, w in zip(cands, res.x) if w > 0})


def weakly_dominated(
    game: Game, r: Restriction, i: int, s_i: str
) -> MixedStrategy | None:
    """A mixture weakly dominating ``s_i`` within ``r``, or None.

    Maximizes total slack subject to componentwise >=; weakly dominated iff
    the optimum is positive.
    """
    cands, rivals, own, cols, den = _rows(game, r, i, s_i)
    if not cands or _pure_best_reply(rivals, own, cols, unique=True):
        return None
    k = len(cands)
    nm = len(cols)
    # Variables: dominator weights, then one nonnegative margin per opponent
    # strategy; every row is the exact row times ``den``, as in the strict test.
    c = [0] * k + [1] * nm
    a_eq, b_eq = [], []
    for idx, o in enumerate(cols):
        row = [rival[o] for rival in rivals] + [0] * nm
        row[k + idx] = -den
        a_eq.append(row)
        b_eq.append(own[o])
    a_eq.append([den] * k + [0] * nm)
    b_eq.append(den)
    res = maximize(c, a_eq=a_eq, b_eq=b_eq)
    if res.status != OPTIMAL or res.value <= 0:
        return None
    return MixedStrategy(i, {t: w for t, w in zip(cands, res.x) if w > 0})


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
    game: Game, r: Restriction, phase: str
) -> tuple[Restriction, EliminationRound | None]:
    test = weakly_dominated if phase == "weak" else strictly_dominated
    elims = []
    for i in (0, 1):
        for s in r.sets[i]:
            dom = test(game, r, i, s)
            if dom is not None:
                elims.append(Elimination(i, s, dom))
    if not elims:
        return r, None
    removals: dict[int, set[str]] = {0: set(), 1: set()}
    for e in elims:
        removals[e.player].add(e.strategy)
    return r.remove(removals), EliminationRound(phase, tuple(elims))


def _strict_rounds(
    game: Game, r: Restriction, rounds: list[EliminationRound]
) -> tuple[Restriction, tuple[EliminationRound, ...]]:
    """Strict elimination from ``r`` until a round removes nothing, appended to ``rounds``."""
    while True:
        r, rnd = _eliminate_round(game, r, "strict")
        if rnd is None:
            return r, tuple(rounds)
        rounds.append(rnd)


def dekel_fudenberg(game: Game) -> tuple[Restriction, tuple[EliminationRound, ...]]:
    """One round of maximal weak elimination, then iterated strict elimination."""
    r, rnd = _eliminate_round(game, Restriction.full(game), "weak")
    return _strict_rounds(game, r, [] if rnd is None else [rnd])


def iesds(game: Game) -> tuple[Restriction, tuple[EliminationRound, ...]]:
    """Iterated simultaneous elimination of strictly dominated strategies."""
    return _strict_rounds(game, Restriction.full(game), [])
