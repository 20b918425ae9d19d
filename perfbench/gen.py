"""Seeded input generators for the benchmark workloads.

Every generator takes a ``random.Random`` built from the run's ``--seed`` and
returns plain egk objects; the library never sees the seed.  Each input
carries the facts the benchmark checks the solver's answer against.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from egk.games import Game
from egk.kripke import StandardKripkeModel
from egk.ordered import OrderedKripkeModel

PLAYERS = ("1", "2")


@dataclass(frozen=True)
class GameInput:
    name: str
    game: Game
    rounds: int                   # elimination rounds both procedures must take
    survivors: tuple[tuple[str, ...], tuple[str, ...]]


def travelers_dilemma(rng: random.Random, claims: int, name: str, reward: int = 2) -> GameInput:
    """Traveler's dilemma over claims 2..claims+1, varied only in dominance-preserving ways.

    The base game needs claims - 1 elimination rounds under both DF and IESDS,
    one claim per player per round, ending at the lowest claim.  The seed may
    reorder each player's labels, rescale each player's payoffs by a positive
    integer, and add to them an arbitrary function of the opponent's
    strategy.  Payoff differences between a player's own strategies are then
    a positive multiple of the base differences, so every dominance relation,
    and with it the round count, is unchanged; the generator checks that
    identity before returning.
    """
    values = range(2, claims + 2)
    labels = [f"c{v}" for v in values]
    claim = dict(zip(labels, values))

    def base(own: str, opp: str) -> int:
        x, y = claim[own], claim[opp]
        if x == y:
            return x
        return x + reward if x < y else y - reward

    # Larger factors and shifts make the exact LP arithmetic, and so the
    # solve time, vary more from seed to seed.
    scale = [rng.randint(1, 2) for _ in PLAYERS]
    shift = [{o: rng.randint(0, 2) for o in labels} for _ in PLAYERS]
    order = [rng.sample(labels, len(labels)) for _ in PLAYERS]
    payoffs = {
        (s1, s2): (Fraction(scale[0] * base(s1, s2) + shift[0][s2]),
                   Fraction(scale[1] * base(s2, s1) + shift[1][s1]))
        for s1 in order[0] for s2 in order[1]
    }
    game = Game(PLAYERS, (tuple(order[0]), tuple(order[1])), payoffs)

    def built(i: int, own: str, opp: str) -> Fraction:
        return game.payoffs[(own, opp) if i == 0 else (opp, own)][i]

    for i in (0, 1):
        for opp in labels:
            for s in labels:
                for t in labels:
                    if built(i, s, opp) - built(i, t, opp) != scale[i] * (base(s, opp) - base(t, opp)):
                        raise AssertionError(f"{name}: payoff differences changed; rounds would too")
    return GameInput(name, game, claims - 1, (("c2",), ("c2",)))


def planted_game(rng: random.Random, n: int, name: str) -> GameInput:
    """A random n x n integer game in which no strategy is dominated.

    Payoffs are drawn from 0..9, then each strategy is made the unique best
    reply (payoff 10..14) to one opponent strategy, through a random
    permutation per player.  A unique best reply to a pure belief is neither
    strictly nor weakly dominated, so both procedures stop after zero rounds
    and every seed asks the same number of LPs of the same size.
    """
    rows = tuple(f"r{k}" for k in range(n))
    cols = tuple(f"c{k}" for k in range(n))
    u = [{(a, b): rng.randint(0, 9) for a in rows for b in cols} for _ in PLAYERS]
    best_row = rng.sample(range(n), n)
    best_col = rng.sample(range(n), n)
    for k in range(n):
        u[0][(rows[best_row[k]], cols[k])] = rng.randint(10, 14)
        u[1][(rows[k], cols[best_col[k]])] = rng.randint(10, 14)
    payoffs = {(a, b): (Fraction(u[0][a, b]), Fraction(u[1][a, b])) for a in rows for b in cols}
    return GameInput(name, Game(PLAYERS, (rows, cols), payoffs), 0, (rows, cols))


def random_game(rng: random.Random, n: int) -> Game:
    rows = tuple(f"r{k}" for k in range(n))
    cols = tuple(f"c{k}" for k in range(n))
    payoffs = {
        (a, b): (Fraction(rng.randint(0, 9)), Fraction(rng.randint(0, 9)))
        for a in rows for b in cols
    }
    return Game(PLAYERS, (rows, cols), payoffs)


def cautious_ordered_model(rng: random.Random, n: int) -> OrderedKripkeModel:
    """A cautious ordered model with one world per profile of a random n x n game.

    Each player's accessibility classes group the worlds where that player
    plays one strategy; the class's 1-3 levels partition its members, so
    caution, disjoint level supports and surjective levels hold by
    construction and the convergence theorem applies.
    """
    game = random_game(rng, n)
    coords = [(a, b) for a in game.strategies[0] for b in game.strategies[1]]
    worlds = tuple(f"{a},{b}" for a, b in coords)
    sigma = tuple({w: c[i] for w, c in zip(worlds, coords)} for i in (0, 1))
    access, lam = [], []
    for i in (0, 1):
        classes: dict[str, list[str]] = {}
        for w in worlds:
            classes.setdefault(sigma[i][w], []).append(w)
        acc, per = {}, {}
        for members in classes.values():
            shuffled = rng.sample(members, len(members))
            n_levels = rng.randint(1, min(3, len(shuffled)))
            cuts = sorted(rng.sample(range(1, len(shuffled)), n_levels - 1))
            levels = []
            for a, b in zip([0] + cuts, cuts + [len(shuffled)]):
                weights = [rng.randint(1, 4) for _ in shuffled[a:b]]
                total = sum(weights)
                levels.append({w: Fraction(v, total) for w, v in zip(shuffled[a:b], weights)})
            cls = frozenset(members)
            for w in members:
                acc[w] = cls
                per[w] = tuple(levels)
        access.append(acc)
        lam.append(per)
    base = StandardKripkeModel(game, worlds, (access[0], access[1]), (sigma[0], sigma[1]))
    return OrderedKripkeModel(base, (lam[0], lam[1]))
