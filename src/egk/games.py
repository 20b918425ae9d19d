"""Finite two-player strategic-form games with exact rational payoffs.

Every payoff, probability and utility is exact: a `fractions.Fraction`, or
integers over one common denominator in the best-reply kernel, never a
float, so set-valued results (survivor sets, belief events) are exact.
Whether a distribution is a probability is checked in one place for mixed
strategies, type beliefs and model beliefs: :func:`exact_weights` cleans
it and :func:`weight_sum` totals it; each caller words its own errors.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul
from typing import Callable, Hashable, Iterable, Mapping, Sequence

from .errors import InputError
from .frozen import Frozen


def other(i: int) -> int:
    """The opponent of player ``i``; players are indexed 0 and 1."""
    if i not in (0, 1):
        raise InputError(f"player index must be 0 or 1, got {i!r}")
    return 1 - i


def trembling_bound(eps: Fraction) -> Fraction:
    """``eps`` as a ``Fraction``, refused outside (0, 1): the weight a mistake may carry."""
    eps = Fraction(eps)
    if not 0 < eps < 1:
        raise InputError(f"trembling bound must lie in (0, 1), got {eps}")
    return eps


def greatest_closed(nodes: Iterable, successors: Callable, inside: Callable) -> frozenset:
    """The largest set of ``nodes`` meeting ``inside`` whose successors all lie in it."""
    alive = {n for n in nodes if inside(n)}
    while dropped := [n for n in alive if not alive.issuperset(successors(n))]:
        alive.difference_update(dropped)
    return frozenset(alive)


class Game(Frozen):
    """A finite two-player strategic-form game.

    ``strategies`` keeps the file order of strategy labels; every
    enumeration (elimination rounds, reports, tie-breaking) follows it.
    ``payoffs`` maps each profile ``(s1, s2)`` to the payoff pair
    ``(u1, u2)``.  ``_compiled`` holds the integer form of the game that
    the best-reply kernel and the dominance LPs read, once it is built
    (:func:`_compiled`).
    """

    __slots__ = ("players", "strategies", "payoffs", "_compiled")
    players: tuple[str, str]
    strategies: tuple[tuple[str, ...], tuple[str, ...]]
    payoffs: Mapping[tuple[str, str], tuple[Fraction, Fraction]]

    def __init__(self, players, strategies, payoffs) -> None:
        for i in (0, 1):
            if not strategies[i]:
                raise InputError(f"player {players[i]!r} has an empty strategy set")
            if len(set(strategies[i])) != len(strategies[i]):
                raise InputError(f"duplicate strategy label for player {players[i]!r}")
        for s1 in strategies[0]:
            for s2 in strategies[1]:
                if (s1, s2) not in payoffs:
                    raise InputError(f"missing payoff cell {s1},{s2}")
        super().__init__(players, strategies, payoffs)

    def payoff(self, i: int, s1: str, s2: str) -> Fraction:
        """Payoff of player ``i`` at the pure profile ``(s1, s2)``."""
        return self.payoffs[(s1, s2)][i]

    def check_strategy(self, i: int, s: str) -> None:
        if s not in self.strategies[i]:
            raise InputError(f"unknown strategy {s!r} for player {self.players[i]!r}")


def exact_weights(dist: Mapping[Hashable, Fraction]) -> dict[Hashable, Fraction]:
    """``dist`` with each weight converted to ``Fraction`` once and zeros dropped."""
    out = {}
    for t, v in dist.items():
        if type(v) is not Fraction:
            v = Fraction(v)
        if v:
            out[t] = v
    return out


def weight_sum(dist: Mapping[Hashable, Fraction]) -> Fraction:
    """The exact total of ``dist``, summed as integers over the common denominator."""
    den = math.lcm(*(v.denominator for v in dist.values()))
    return Fraction(sum(v.numerator * (den // v.denominator) for v in dist.values()), den)


class MixedStrategy(Frozen):
    """A mixed strategy of ``owner``; zero-weight entries are dropped."""

    __slots__ = ("owner", "weights")
    owner: int
    weights: Mapping[str, Fraction]

    def __init__(self, owner, weights) -> None:
        cleaned = exact_weights(weights)
        for label, w in cleaned.items():
            if w.numerator < 0:
                raise InputError(f"negative weight {w} on strategy {label!r}")
        if (total := weight_sum(cleaned)) != 1:
            raise InputError(f"mixed-strategy weights sum to {total}, expected 1")
        super().__init__(owner, cleaned)


def expected_utility(game: Game, i: int, s_i: str, mix_j: MixedStrategy) -> Fraction:
    """Expected payoff of ``s_i`` against the opponent mixture ``mix_j``."""
    game.check_strategy(i, s_i)
    j = other(i)
    if mix_j.owner != j:
        raise InputError(f"mixture owner is player index {mix_j.owner}, expected {j}")
    total = Fraction(0)
    for s_j, w in mix_j.weights.items():
        game.check_strategy(j, s_j)
        profile = (s_i, s_j) if i == 0 else (s_j, s_i)
        total += w * game.payoff(i, *profile)
    return total


def push_forward(
    game: Game, j: int, belief: Mapping[Hashable, Fraction], strategy_of: Callable[[Hashable], str]
) -> tuple[int, ...]:
    """A belief pushed onto player ``j``'s strategies, as integer weights.

    ``belief`` maps worlds, (strategy, type) pairs or strategy labels to
    weights; ``strategy_of`` names the strategy of ``j`` each key carries.
    The result holds one weight per strategy of ``j`` in file order: the
    per-strategy totals as numerators over their least common denominator,
    so equal push-forwards are equal tuples.  A negative per-strategy total,
    or totals not summing to 1, raise the same ``InputError`` as
    :class:`MixedStrategy`.
    """
    den = math.lcm(*(v.denominator for v in belief.values()))
    totals: dict[str, int] = {}
    for key, v in belief.items():
        s = strategy_of(key)
        totals[s] = totals.get(s, 0) + v.numerator * (den // v.denominator)
    for s, n in totals.items():
        if n < 0:
            raise InputError(f"negative weight {Fraction(n, den)} on strategy {s!r}")
    total = sum(totals.values())
    if total != den:
        raise InputError(f"mixed-strategy weights sum to {Fraction(total, den)}, expected 1")
    index = _compiled(game)[1][j]
    out = [0] * len(index)
    for s, n in totals.items():
        if s not in index:
            game.check_strategy(j, s)
        out[index[s]] = n
    g = math.gcd(*out)
    return tuple(n // g for n in out)


def _compiled(game: Game) -> tuple[tuple[dict, dict], tuple[dict, dict], tuple[int, int]]:
    """The kernel's form of ``game``, built on first use and kept on the game.

    Per player: each own strategy's payoffs against the opponent's
    strategies (file order) as integers over one common denominator, a
    label -> position index of the player's strategies, and that
    denominator.
    """
    return game._memo("_compiled", _compile)


def _compile(game: Game) -> tuple[tuple[dict, dict], tuple[dict, dict], tuple[int, int]]:
    rows, dens = [], []
    for i in (0, 1):
        values = {
            s_i: [Fraction(game.payoff(i, *((s_i, s_j) if i == 0 else (s_j, s_i))))
                  for s_j in game.strategies[1 - i]]
            for s_i in game.strategies[i]
        }
        den = math.lcm(*(v.denominator for row in values.values() for v in row))
        rows.append({s: tuple(v.numerator * (den // v.denominator) for v in row)
                     for s, row in values.items()})
        dens.append(den)
    index = tuple({s: k for k, s in enumerate(game.strategies[i])} for i in (0, 1))
    return tuple(rows), index, tuple(dens)


def _dot(row: tuple[int, ...], weights: tuple[int, ...]) -> int:
    return sum(map(mul, row, weights))


def lex_best_replies(game: Game, i: int, levels: Sequence[tuple[int, ...]]) -> frozenset[str]:
    """Strategies of ``i`` that no strategy beats lexicographically.

    ``levels`` are push-forwards onto the opponent's strategies, level 1
    first (one level is expected-utility maximization).  Each level keeps
    the maximizers among the previous level's survivors; the lexicographic
    order is total, so the survivors are exactly the unbeaten strategies.
    """
    if not levels:
        raise InputError("belief sequence is empty")
    alive = _compiled(game)[0][i]
    for weights in levels:
        if len(alive) == 1:
            break
        values = {s: _dot(row, weights) for s, row in alive.items()}
        best = max(values.values())
        alive = {s: alive[s] for s, v in values.items() if v == best}
    return frozenset(alive)
