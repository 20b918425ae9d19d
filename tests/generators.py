"""Seeded random generators shared by the property and acceptance suites."""

from __future__ import annotations

import random
from fractions import Fraction

from egk.epistemic import (
    LexEpistemicModel,
    ProbEpistemicModel,
    eps_trembling,
    optimal_strategies,
    type_caution,
)
from egk.games import Game
from egk.kripke import StandardKripkeModel, ProbKripkeModel
from egk.ordered import OrderedKripkeModel
from oracles import reference_strategy_marginal

ROW_LABELS = ("A", "B", "C")
COL_LABELS = ("X", "Y", "Z")


def random_game(rng: random.Random, max_rows: int = 3, max_cols: int = 3,
                lo: int = 0, hi: int = 3) -> Game:
    """Integer payoffs in [lo, hi]; strategy counts up to the given maxima."""
    rows = ROW_LABELS[: rng.randint(1, max_rows)]
    cols = COL_LABELS[: rng.randint(1, max_cols)]
    payoffs = {
        (r, c): (Fraction(rng.randint(lo, hi)), Fraction(rng.randint(lo, hi)))
        for r in rows for c in cols
    }
    return Game(("1", "2"), (tuple(rows), tuple(cols)), payoffs)


def _random_dist(rng: random.Random, members: list[str]) -> dict[str, Fraction]:
    weights = [rng.randint(1, 4) for _ in members]
    total = sum(weights)
    return {m: Fraction(v, total) for m, v in zip(members, weights)}


def random_ordered_model(rng: random.Random, game: Game,
                         allow_duplicates: bool = True) -> OrderedKripkeModel:
    """A cautious ordered model with disjoint, surjective, class-constant levels.

    One world per profile (occasionally duplicated); each player's clusters
    group worlds by that player's own strategy, and the cluster's levels
    partition its members, so caution, disjoint supports and surjection hold
    by construction.
    """
    coords = [(s1, s2) for s1 in game.strategies[0] for s2 in game.strategies[1]]
    labels = [f"{s1},{s2}" for s1, s2 in coords]
    if allow_duplicates and rng.random() < 0.4:
        s1, s2 = rng.choice(coords)
        coords.append((s1, s2))
        labels.append(f"{s1},{s2}#2")
    worlds = tuple(labels)
    sigma = (
        {w: c[0] for w, c in zip(labels, coords)},
        {w: c[1] for w, c in zip(labels, coords)},
    )
    access = []
    lam = []
    for i in (0, 1):
        clusters: dict[str, list[str]] = {}
        for w in labels:
            clusters.setdefault(sigma[i][w], []).append(w)
        acc = {}
        per = {}
        for members in clusters.values():
            shuffled = members[:]
            rng.shuffle(shuffled)
            n_levels = rng.randint(1, min(3, len(shuffled)))
            cut_points = sorted(rng.sample(range(1, len(shuffled)), n_levels - 1))
            groups = [
                shuffled[a:b]
                for a, b in zip([0] + cut_points, cut_points + [len(shuffled)])
            ]
            levels = tuple(_random_dist(rng, group) for group in groups)
            cluster_set = frozenset(members)
            for w in members:
                acc[w] = cluster_set
                per[w] = levels
        access.append(acc)
        lam.append(per)
    base = StandardKripkeModel(game, worlds, (access[0], access[1]), (sigma[0], sigma[1]))
    return OrderedKripkeModel(base, (lam[0], lam[1]))


def random_cautious_lex_model(rng: random.Random, game: Game) -> LexEpistemicModel:
    """A lexicographic type model whose types are all cautious by construction.

    1-2 types per player and 1-2 levels per type.  A type deems a nonempty
    set of opponent types possible; its last level weights every opponent
    strategy paired with each of them, and a first level before it, when
    drawn, weights a random nonempty subset of those pairs, so primary
    beliefs can be narrow.
    """
    counts = (rng.randint(1, 2), rng.randint(1, 2))
    types = tuple(tuple(f"t{i + 1}_{k + 1}" for k in range(counts[i])) for i in (0, 1))
    beliefs = []
    for i in (0, 1):
        j = 1 - i
        per = {}
        for t in types[i]:
            deemed = rng.sample(types[j], rng.randint(1, len(types[j])))
            pairs = [(s, t_j) for s in game.strategies[j] for t_j in deemed]
            levels = [_random_dist(rng, pairs)]
            if rng.random() < 0.5:
                levels.insert(0, _random_dist(rng, rng.sample(pairs, rng.randint(1, len(pairs)))))
            per[t] = tuple(levels)
        beliefs.append(per)
    return LexEpistemicModel(game, types, (beliefs[0], beliefs[1]))


def random_trembling_type_model(
    rng: random.Random, game: Game, eps: Fraction = Fraction(1, 5)
) -> ProbEpistemicModel | None:
    """A probabilistic type model whose types are all cautious and eps-trembling.

    Every pair gets a small base weight below eps; the bulk of the mass sits
    on one pair per type, and the bulk pair's strategy is re-aimed at an
    optimal strategy of its type until that choice is a fixed point.  Types
    of one player are kept behaviorally distinct so the Kripke quotient
    cannot merge them (a merge could add two mistake weights together).
    """
    for _ in range(60):
        counts = [rng.randint(1, 2), rng.randint(1, 2)]
        types = tuple(
            tuple(f"t{i + 1}_{k + 1}" for k in range(counts[i])) for i in (0, 1))
        base: dict[tuple[int, str], dict] = {}
        bulk: dict[tuple[int, str], tuple[str, str]] = {}
        for i in (0, 1):
            j = 1 - i
            pairs = [(s, t) for s in game.strategies[j] for t in types[j]]
            scale = 15 * len(pairs)
            for t in types[i]:
                base[(i, t)] = {p: Fraction(rng.randint(1, 3), scale) for p in pairs}
                bulk[(i, t)] = rng.choice(pairs)

        def build_model() -> ProbEpistemicModel:
            beliefs = []
            for i in (0, 1):
                per = {}
                for t in types[i]:
                    dist = dict(base[(i, t)])
                    bp = bulk[(i, t)]
                    dist[bp] = dist[bp] + 1 - sum(dist.values())
                    per[t] = dist
                beliefs.append(per)
            return ProbEpistemicModel(game, types, (beliefs[0], beliefs[1]))

        model = build_model()
        stable = False
        for _ in range(40):
            bad = []
            for i in (0, 1):
                j = 1 - i
                for t in types[i]:
                    s_star, t_star = bulk[(i, t)]
                    if s_star not in optimal_strategies(model, j, t_star):
                        bad.append((i, t, t_star))
            if not bad:
                stable = True
                break
            for i, t, t_star in bad:
                j = 1 - i
                choices = sorted(optimal_strategies(model, j, t_star))
                bulk[(i, t)] = (choices[rng.randrange(len(choices))], t_star)
            model = build_model()
        if not stable:
            continue
        ok = all(
            type_caution(model, i, t) and eps_trembling(model, i, t, eps)
            and max(model.beliefs[i][t].values()) > eps
            for i in (0, 1) for t in model.types[i]
        )
        for i in (0, 1):
            marginals = [
                tuple(sorted(reference_strategy_marginal(model, i, t).weights.items()))
                for t in model.types[i]
            ]
            if len(set(marginals)) != len(marginals):
                ok = False
        if ok:
            return model
    return None


def random_prob_model(rng: random.Random, game: Game) -> ProbKripkeModel:
    """A valid probabilistic model with strategy clusters and full-support beliefs."""
    ordered = random_ordered_model(rng, game, allow_duplicates=False)
    p = []
    for i in (0, 1):
        per = {}
        for w in ordered.worlds:
            cluster = sorted(ordered.access[i][w])
            per[w] = _random_dist(rng, cluster)
        p.append(per)
    # Beliefs must be constant on clusters.
    for i in (0, 1):
        for w in ordered.worlds:
            rep = min(ordered.access[i][w])
            p[i][w] = p[i][rep]
    return ProbKripkeModel(ordered.base, (p[0], p[1]))
