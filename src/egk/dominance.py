"""Dominance tests, elimination procedures, and justifying beliefs.

Strict and weak dominance by mixed strategies are rational feasibility
questions, decided by the exact simplex in :mod:`egk.lp`.  Dominator
supports exclude the candidate strategy itself; this is without loss of
generality and keeps the LPs small.  A strategy that is a best reply to a
surviving pure opponent strategy (the unique one, for weak dominance) is
undominated, and is certified so by integer comparisons on the game's
compiled payoff rows, without an LP.
"""

from __future__ import annotations

from fractions import Fraction
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
        for i in (0, 1):
            if not self.sets[i]:
                raise InputError(f"empty restriction for player {game.players[i]!r}")
            for s in self.sets[i]:
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


def _payoff(game: Game, i: int, s_i: str, s_j: str) -> Fraction:
    return game.payoff(i, s_i, s_j) if i == 0 else game.payoff(i, s_j, s_i)


def _pure_best_reply(game: Game, r: Restriction, i: int, s_i: str, unique: bool) -> bool:
    """Whether ``s_i`` is a best reply within ``r`` to a surviving pure opponent strategy ``o``.

    With ``unique``, every other strategy of ``r.sets[i]`` must do strictly
    worse at ``o``.  A best reply at ``o`` is not strictly dominated within
    ``r``: no mixture of the others earns more there.  A unique one is not
    weakly dominated either: every mixture of the others earns less there.
    """
    rows, index = _compiled(game)
    own = rows[i][s_i]
    rivals = [rows[i][t] for t in r.sets[i] if t != s_i]
    for o in r.sets[other(i)]:
        k = index[other(i)][o]
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
    r.check(game)
    if s_i not in r.sets[i]:
        raise InputError(f"strategy {s_i!r} is not in the restriction for player {game.players[i]!r}")
    cands = [t for t in r.sets[i] if t != s_i]
    opps = r.sets[other(i)]
    if not cands or _pure_best_reply(game, r, i, s_i, unique=False):
        return None
    k = len(cands)
    # Variables: dominator weights, then the free margin split as d+ - d-.
    c = [Fraction(0)] * k + [Fraction(1), Fraction(-1)]
    a_ub, b_ub = [], []
    for o in opps:
        row = [-_payoff(game, i, t, o) for t in cands] + [Fraction(1), Fraction(-1)]
        a_ub.append(row)
        b_ub.append(-_payoff(game, i, s_i, o))
    a_eq = [[Fraction(1)] * k + [Fraction(0), Fraction(0)]]
    b_eq = [Fraction(1)]
    res = maximize(c, a_ub, b_ub, a_eq, b_eq)
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
    r.check(game)
    if s_i not in r.sets[i]:
        raise InputError(f"strategy {s_i!r} is not in the restriction for player {game.players[i]!r}")
    cands = [t for t in r.sets[i] if t != s_i]
    opps = r.sets[other(i)]
    if not cands or _pure_best_reply(game, r, i, s_i, unique=True):
        return None
    k = len(cands)
    nm = len(opps)
    # Variables: dominator weights, then one nonnegative margin per opponent strategy.
    c = [Fraction(0)] * k + [Fraction(1)] * nm
    a_eq, b_eq = [], []
    for idx, o in enumerate(opps):
        row = [_payoff(game, i, t, o) for t in cands] + [Fraction(0)] * nm
        row[k + idx] = Fraction(-1)
        a_eq.append(row)
        b_eq.append(_payoff(game, i, s_i, o))
    a_eq.append([Fraction(1)] * k + [Fraction(0)] * nm)
    b_eq.append(Fraction(1))
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
    r.check(game)
    if s_i not in r.sets[i]:
        raise InputError(f"strategy {s_i!r} is not in the restriction for player {game.players[i]!r}")
    j = other(i)
    opps = r.sets[j]
    nm = len(opps)
    nvars = nm + (1 if full_support else 0)
    a_ub, b_ub = [], []
    for t in r.sets[i]:
        if t == s_i:
            continue
        row = [_payoff(game, i, t, o) - _payoff(game, i, s_i, o) for o in opps]
        row += [Fraction(0)] * (nvars - nm)
        a_ub.append(row)
        b_ub.append(Fraction(0))
    if full_support:
        for idx in range(nm):
            row = [Fraction(0)] * nvars
            row[idx] = Fraction(-1)
            row[nm] = Fraction(1)
            a_ub.append(row)
            b_ub.append(Fraction(0))
    a_eq = [[Fraction(1)] * nm + [Fraction(0)] * (nvars - nm)]
    b_eq = [Fraction(1)]
    c = [Fraction(0)] * nvars
    if full_support:
        c[nm] = Fraction(1)
    res = maximize(c, a_ub, b_ub, a_eq, b_eq)
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


def dekel_fudenberg(game: Game) -> tuple[Restriction, tuple[EliminationRound, ...]]:
    """One round of maximal weak elimination, then iterated strict elimination."""
    r = Restriction.full(game)
    rounds = []
    r, rnd = _eliminate_round(game, r, "weak")
    if rnd is not None:
        rounds.append(rnd)
    while True:
        r, rnd = _eliminate_round(game, r, "strict")
        if rnd is None:
            break
        rounds.append(rnd)
    return r, tuple(rounds)


def iesds(game: Game) -> tuple[Restriction, tuple[EliminationRound, ...]]:
    """Iterated simultaneous elimination of strictly dominated strategies."""
    r = Restriction.full(game)
    rounds = []
    while True:
        r, rnd = _eliminate_round(game, r, "strict")
        if rnd is None:
            break
        rounds.append(rnd)
    return r, tuple(rounds)
