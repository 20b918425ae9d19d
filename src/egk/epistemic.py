"""Finite epistemic type models and the bridges to Kripke models.

Two flavors of one core: lexicographic types carry an injective-by-use
sequence of belief levels over opponent (strategy, type) pairs, and a
probabilistic type's single distribution is the one-level case; every
belief reader goes through ``levels(i, t)``.  Common full belief in a
property is the greatest fixed point reached by eliminating types that
deem an eliminated opponent type possible.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import itemgetter
from typing import TYPE_CHECKING, Mapping, NamedTuple

from .errors import InputError
from .frozen import Frozen
from .games import (
    Game, exact_weights, greatest_closed, lex_best_replies, other, push_forward, trembling_bound,
    weight_sum)

if TYPE_CHECKING:
    from .kripke import ProbKripkeModel, StandardKripkeModel
    from .ordered import OrderedKripkeModel

Pair = tuple  # (opponent strategy, opponent type)


class _TypeModel(Frozen):
    """Types whose beliefs are levels over opponent (strategy, type) pairs.

    A flavor reads a belief entry as levels and stores them back
    (``_as_levels``, ``_from_levels``); ``_WHERE`` locates a level.
    ``_optimal`` holds every type's :func:`optimal_strategies` once found.
    """

    __slots__ = ("game", "types", "beliefs", "_optimal")
    game: Game
    types: tuple[tuple[str, ...], tuple[str, ...]]
    beliefs: tuple[Mapping, Mapping]

    def __init__(self, game, types, beliefs) -> None:
        cleaned = []
        for i in (0, 1):
            j = other(i)
            if len(set(types[i])) != len(types[i]):
                raise InputError(f"duplicate type label for player {game.players[i]!r}")
            if set(beliefs[i]) != set(types[i]):
                raise InputError(f"beliefs of player {game.players[i]!r} do not cover the types")
            per = {}
            for t, entry in beliefs[i].items():
                levels = self._as_levels(entry)
                if not levels:
                    raise InputError(f"type {t!r} has no belief levels")
                fixed = []
                for k, dist in enumerate(levels):
                    where = self._WHERE.format(t=t, n=k + 1)
                    d = exact_weights(dist)
                    for pair, v in d.items():
                        if v.numerator < 0:
                            raise InputError(f"{where}: negative weight {v} on {pair}")
                    if (total := weight_sum(d)) != 1:
                        raise InputError(f"{where}: weights sum to {total}, expected 1")
                    for (s_j, t_j) in d:
                        game.check_strategy(j, s_j)
                        if t_j not in types[j]:
                            raise InputError(f"{where}: unknown opponent type {t_j!r}")
                    fixed.append(d)
                per[t] = self._from_levels(fixed)
            cleaned.append(per)
        super().__init__(game, types, tuple(cleaned))

    def check_type(self, i: int, t: str) -> None:
        if t not in self.types[i]:
            raise InputError(f"unknown type {t!r} for player {self.game.players[i]!r}")

    def levels(self, i: int, t: str) -> tuple:
        """Type ``t``'s belief levels, primary first."""
        self.check_type(i, t)
        return self._as_levels(self.beliefs[i][t])


class LexEpistemicModel(_TypeModel):
    """``beliefs[i][t]`` is a nonempty tuple of levels."""

    __slots__ = ()
    _WHERE = "type {t!r} level {n}"
    _as_levels = _from_levels = tuple


class ProbEpistemicModel(_TypeModel):
    """``beliefs[i][t]`` is one distribution, read as a single level."""

    __slots__ = ()
    _WHERE = "type {t!r}"
    _from_levels = itemgetter(0)

    @staticmethod
    def _as_levels(belief: Mapping[Pair, Fraction]) -> tuple:
        return (belief,)


EpistemicModel = LexEpistemicModel | ProbEpistemicModel


def deems_possible(model: EpistemicModel, i: int, t: str) -> frozenset[str]:
    """Opponent types receiving positive weight at any level of ``t``."""
    return frozenset(t_j for dist in model.levels(i, t) for (_, t_j) in dist)


def type_caution(model: EpistemicModel, i: int, t: str) -> bool:
    """Each deemed opponent type must be paired with every opponent strategy."""
    support = set().union(*model.levels(i, t))
    return all((s_j, t_j) in support
               for (_, t_j) in support for s_j in model.game.strategies[other(i)])


def _pair_strategy(pair: Pair) -> str:
    return pair[0]


def optimal_strategies(model: EpistemicModel, i: int, t: str) -> frozenset[str]:
    """Strategies not beaten lexicographically under ``t``'s levels; found for all types once."""
    model.check_type(i, t)
    return model._memo("_optimal", lambda m: tuple(
        {u: lex_best_replies(m.game, k, tuple(push_forward(m.game, other(k), dist, _pair_strategy)
                                              for dist in m.levels(k, u)))
         for u in m.types[k]} for k in (0, 1)))[i][t]


def _mistakes_at_most(model: EpistemicModel, i: int, t: str, bound: Fraction) -> bool:
    """Level-1 pairs whose strategy is not optimal for their type weigh at most ``bound``."""
    j = other(i)
    return all(v <= bound for (s_j, t_j), v in model.levels(i, t)[0].items()
               if s_j not in optimal_strategies(model, j, t_j))


def primary_belief_in_rationality(model: LexEpistemicModel, i: int, t: str) -> bool:
    """The primary belief weights only pairs whose strategy is optimal for its type."""
    return _mistakes_at_most(model, i, t, Fraction(0))


def eps_trembling(model: ProbEpistemicModel, i: int, t: str, eps: Fraction) -> bool:
    """Pairs whose strategy is not optimal for its type weigh at most ``eps``, in (0, 1)."""
    return _mistakes_at_most(model, i, t, trembling_bound(eps))


class TypeProperty(NamedTuple):
    name: str
    holds: tuple[Mapping[str, bool], Mapping[str, bool]]


def caution_property(model: EpistemicModel) -> TypeProperty:
    return TypeProperty("caution", tuple(
        {t: type_caution(model, i, t) for t in model.types[i]} for i in (0, 1)))


def primary_rationality_property(model: LexEpistemicModel) -> TypeProperty:
    return TypeProperty("primary-rationality", tuple(
        {t: primary_belief_in_rationality(model, i, t) for t in model.types[i]} for i in (0, 1)))


def trembling_property(model: ProbEpistemicModel, eps: Fraction) -> TypeProperty:
    bound = trembling_bound(eps)
    return TypeProperty(f"trembling({eps})", tuple(
        {t: eps_trembling(model, i, t, bound) for t in model.types[i]} for i in (0, 1)))


def conjoin(*props: TypeProperty) -> TypeProperty:
    if not props:
        raise InputError("conjunction of no properties")
    name = " and ".join(p.name for p in props)
    holds = tuple(
        {t: all(p.holds[i][t] for p in props) for t in props[0].holds[i]} for i in (0, 1))
    return TypeProperty(name, holds)


def common_full_belief(
    model: EpistemicModel, prop: TypeProperty
) -> tuple[frozenset[str], frozenset[str]]:
    """Greatest set of property-satisfying types deeming only survivors possible."""
    alive = greatest_closed([(i, t) for i in (0, 1) for t in model.types[i]],
                            lambda n: [(other(n[0]), t_j) for t_j in deems_possible(model, *n)],
                            lambda n: prop.holds[n[0]][n[1]])
    return tuple(frozenset(t for k, t in alive if k == i) for i in (0, 1))


def permissibility(model: EpistemicModel, rationality: TypeProperty) -> tuple:
    """``(properties, types, strategies)``: caution and ``rationality``, the types surviving
    common full belief in both, and per player the strategies optimal for a surviving type."""
    props = (caution_property(model), rationality)
    alive = common_full_belief(model, conjoin(*props))
    return props, alive, tuple(
        frozenset().union(*(optimal_strategies(model, i, t) for t in alive[i])) for i in (0, 1))


def permissible(model: LexEpistemicModel) -> tuple[frozenset[str], frozenset[str]]:
    """Strategies optimal for a surviving type under caution and primary rationality.

    Model-relative: it quantifies over this model's types.  The global
    notion coincides with survival of the Dekel-Fudenberg procedure.
    """
    return permissibility(model, primary_rationality_property(model))[2]


def eps_permissible(
    model: ProbEpistemicModel, eps: Fraction
) -> tuple[frozenset[str], frozenset[str]]:
    """Strategies optimal for a surviving type under caution and eps-trembling."""
    return permissibility(model, trembling_property(model, eps))[2]


# ---------------------------------------------------------------------------
# Bridges between type models and Kripke models.


def _world_label(t1: str, t2: str, s1: str, s2: str) -> str:
    return f"{t1}|{t2}|{s1}|{s2}"


def _product_model(
    game: Game, types, levels_of
) -> tuple[StandardKripkeModel, tuple[dict[str, tuple], dict[str, tuple]]]:
    """The frame over (type pair, profile) worlds and each world's levels over worlds.

    ``levels_of[i][t]`` is type ``t``'s sequence of levels over opponent
    (strategy, type) pairs.  At a world where player ``i`` has type ``t``
    and plays ``s``, each level weighs the world that pairs ``(t, s)`` with
    the opponent's (type, strategy) by the level's weight on that pair;
    R_i(w) is the union of the level supports.
    """
    from .kripke import StandardKripkeModel

    worlds = []
    sigma: tuple[dict[str, str], dict[str, str]] = ({}, {})
    access: tuple[dict[str, frozenset[str]], dict[str, frozenset[str]]] = ({}, {})
    lam: tuple[dict[str, tuple], dict[str, tuple]] = ({}, {})
    for t1 in types[0]:
        for t2 in types[1]:
            for s1 in game.strategies[0]:
                for s2 in game.strategies[1]:
                    w = _world_label(t1, t2, s1, s2)
                    worlds.append(w)
                    sigma[0][w], sigma[1][w] = s1, s2
                    lam[0][w] = tuple(
                        {_world_label(t1, t_j, s1, s_j): v for (s_j, t_j), v in dist.items()}
                        for dist in levels_of[0][t1])
                    lam[1][w] = tuple(
                        {_world_label(t_j, t2, s_j, s2): v for (s_j, t_j), v in dist.items()}
                        for dist in levels_of[1][t2])
                    for i in (0, 1):
                        access[i][w] = frozenset().union(*lam[i][w])
    return StandardKripkeModel(game, tuple(worlds), access, sigma), lam


def kripke_from_lex_types(model: LexEpistemicModel) -> OrderedKripkeModel:
    """Ordered Kripke model over (type pair, profile) worlds.

    Worlds sharing a player's (type, strategy) coordinate form that player's
    accessibility cluster, restricted to worlds appearing in the type's
    belief supports; level k weighs a world by the type's level-k weight on
    the world's (opponent strategy, opponent type) coordinate.

    Requires every type to be cautious.  Exact duplicate adjacent levels are
    merged; any remaining duplicate levels are rejected because the induced
    level sequence must be injective.
    """
    from .ordered import OrderedKripkeModel

    game = model.game
    for i in (0, 1):
        for t in model.types[i]:
            if not type_caution(model, i, t):
                raise InputError(
                    f"type {t!r} of player {game.players[i]!r} is not cautious; "
                    "extend the model with cautious types first")

    levels_of: list[dict[str, tuple]] = [{}, {}]
    for i in (0, 1):
        for t in model.types[i]:
            raw = list(model.levels(i, t))
            merged = [raw[0]]
            for dist in raw[1:]:
                if dist != merged[-1]:
                    merged.append(dist)
            if len(set(map(lambda d: tuple(sorted(d.items())), merged))) != len(merged):
                raise InputError(
                    f"type {t!r} of player {game.players[i]!r} repeats a belief level; "
                    "the induced level sequence would not be injective")
            levels_of[i][t] = tuple(merged)
    return OrderedKripkeModel(*_product_model(game, model.types, levels_of))


def kripke_from_prob_types(model: ProbEpistemicModel) -> ProbKripkeModel:
    """Probabilistic Kripke model over (type pair, profile) worlds."""
    from .kripke import ProbKripkeModel

    base, lam = _product_model(model.game, model.types, [
        {t: model.levels(i, t) for t in model.types[i]} for i in (0, 1)])
    return ProbKripkeModel(base, tuple({w: levels[0] for w, levels in per.items()}
                                       for per in lam))


def types_from_kripke(
    model: ProbKripkeModel,
) -> tuple[ProbEpistemicModel, dict[str, tuple[str, str]]]:
    """Quotient a probabilistic Kripke model into an epistemic type model.

    Worlds are partitioned per player by behavioral equivalence: two worlds
    get one type exactly when their beliefs induce the same distribution
    over (opponent strategy, opponent class) pairs, computed as the coarsest
    such partition.  The belief of a type totals the world-belief weight of
    each class on each strategy, so it is independent of the representative.
    Each belief group is summed as the integer weights of the table the
    model keeps for it (``kripke._tables``), so a model whose beliefs push
    forward to no mixed strategy raises ``push_forward``'s error, as
    ``rat`` does; a signature is reduced by the gcd, so equal distributions
    share it.
    """
    from .kripke import _tables

    worlds = model.worlds
    # Per player: each group's common denominator, integer weights and holders.
    scaled = [[(table.den, table.weights[0], holders)
               for (_, holders), table in zip(model.groups(i), _tables(model, i))]
              for i in (0, 1)]

    classes = [{w: 0 for w in worlds}, {w: 0 for w in worlds}]

    def totals(i: int, weights) -> dict:
        out: dict = {}
        for w1, n in weights:
            k = (model.sigma[other(i)][w1], classes[other(i)][w1])
            out[k] = out.get(k, 0) + n
        return out

    while True:
        changed = False
        for i in (0, 1):
            relabel: dict[tuple, int] = {}  # first occurrence fixes the class id
            new = {}
            for den, weights, holders in scaled[i]:
                agg = totals(i, weights)
                g = math.gcd(den, *agg.values())
                key = (classes[i][holders[0]], tuple(sorted((k, n // g) for k, n in agg.items())),
                       den // g)
                new.update(dict.fromkeys(holders, relabel.setdefault(key, len(relabel))))
            if new != classes[i]:
                classes[i] = new
                changed = True
        if not changed:
            break

    # Class ids count up in order of first world, so they number the types,
    # and the holders of one group always share a class.
    labels = [tuple(f"t{i + 1}_{cid + 1}" for cid in range(len(set(classes[i].values()))))
              for i in (0, 1)]
    beliefs = []
    for i in (0, 1):
        per = {}
        for den, weights, holders in scaled[i]:
            label = labels[i][classes[i][holders[0]]]
            if label not in per:  # the class's first group holds its first world
                per[label] = {(s_j, labels[other(i)][c]): Fraction(n, den)
                              for (s_j, c), n in totals(i, weights).items()}
        beliefs.append(per)
    tmodel = ProbEpistemicModel(model.game, (labels[0], labels[1]), (beliefs[0], beliefs[1]))
    world_types = {
        w: (labels[0][classes[0][w]], labels[1][classes[1][w]]) for w in worlds}
    return tmodel, world_types


def df_witness_types(game: Game) -> LexEpistemicModel:
    """A lexicographic model whose surviving types rationalize every DF survivor.

    One type per surviving strategy.  Its primary belief justifies the
    strategy against surviving opponent strategies, paired with the types
    those strategies name; its secondary belief is a full-support justifier
    over all opponent strategies, spread uniformly over all opponent types,
    which makes every type cautious.
    """
    from . import dominance

    survivors, _ = dominance.dekel_fudenberg(game)
    full = dominance.Restriction.full(game)
    tlabel = [{s: f"th_{s}" for s in survivors.sets[i]} for i in (0, 1)]
    types = tuple(tuple(tlabel[i][s] for s in survivors.sets[i]) for i in (0, 1))
    beliefs: list[dict[str, tuple]] = [{}, {}]
    for i in (0, 1):
        j = other(i)
        n_j = len(survivors.sets[j])
        for s in survivors.sets[i]:
            primary_mix = dominance.justifying_belief(game, survivors, i, s)
            if primary_mix is None:
                raise InputError(f"no justifying belief for DF survivor {s!r}")
            secondary_mix = dominance.justifying_belief(game, full, i, s, full_support=True)
            if secondary_mix is None:
                raise InputError(f"no full-support justifier for DF survivor {s!r}")
            primary = {
                (s_j, tlabel[j][s_j]): v for s_j, v in primary_mix.weights.items()}
            secondary = {}
            for s_j, v in secondary_mix.weights.items():
                for t_j in survivors.sets[j]:
                    secondary[(s_j, tlabel[j][t_j])] = v / n_j
            beliefs[i][tlabel[i][s]] = (primary, secondary)
    return LexEpistemicModel(game, types, (beliefs[0], beliefs[1]))
