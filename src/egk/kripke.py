"""Standard and probabilistic Kripke models of a game, with belief operators.

Accessibility is expected to be KD45 (serial, transitive, Euclidean) and a
player's own strategy constant on accessibility classes; ``validate_standard``
and ``validate_prob`` report violations as data rather than raising, so a
model checker can surface every defect at once.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import TYPE_CHECKING, Callable, Iterable, Mapping, NamedTuple, TypeVar

from .errors import InputError
from .frozen import Frozen
from .games import Game, lex_best_replies, other, push_forward

if TYPE_CHECKING:
    from .dominance import Restriction

EventSet = frozenset
B = TypeVar("B")
R = TypeVar("R")


class Violation(NamedTuple):
    kind: str
    player: int | None
    where: tuple[str, ...]
    detail: str

    def __str__(self) -> str:
        return self.detail


class StandardKripkeModel(Frozen):
    __slots__ = ("game", "worlds", "access", "sigma")
    game: Game
    worlds: tuple[str, ...]
    access: tuple[Mapping[str, frozenset[str]], Mapping[str, frozenset[str]]]
    sigma: tuple[Mapping[str, str], Mapping[str, str]]

    def __init__(self, game, worlds, access, sigma) -> None:
        if len(set(worlds)) != len(worlds):
            raise InputError("duplicate world labels")
        wset = set(worlds)
        access = tuple({w: frozenset(t) for w, t in access[i].items()} for i in (0, 1))
        for i in (0, 1):
            if set(access[i]) != wset:
                raise InputError(f"accessibility map of player {game.players[i]!r} does not cover the worlds")
            if set(sigma[i]) != wset:
                raise InputError(f"strategy assignment of player {game.players[i]!r} does not cover the worlds")
            for w, targets in access[i].items():
                bad = targets - wset
                if bad:
                    raise InputError(f"accessibility from {w!r} points at unknown worlds {sorted(bad)}")
            for w, s in sigma[i].items():
                game.check_strategy(i, s)
        super().__init__(game, worlds, access, sigma)

    def event(self, labels: Iterable[str]) -> EventSet:
        ev = frozenset(labels)
        bad = ev - set(self.worlds)
        if bad:
            raise InputError(f"event contains unknown worlds {sorted(bad)}")
        return ev

    def order(self, event: Iterable[str]) -> tuple[str, ...]:
        """Event members in model (file) order, for deterministic reports."""
        ev = set(event)
        return tuple(w for w in self.worlds if w in ev)

    def profile(self, w: str) -> tuple[str, str]:
        return (self.sigma[0][w], self.sigma[1][w])


class FramedModel(Frozen):
    """A model that carries beliefs over the standard frame ``base``.

    Forwards the frame's game, worlds, accessibility, strategy assignment
    and event helpers, so every operator reads any model flavor alike.
    """

    __slots__ = ("base",)
    base: StandardKripkeModel

    @property
    def game(self) -> Game:
        return self.base.game

    @property
    def worlds(self) -> tuple[str, ...]:
        return self.base.worlds

    @property
    def access(self):
        return self.base.access

    @property
    def sigma(self):
        return self.base.sigma

    def event(self, labels: Iterable[str]) -> EventSet:
        return self.base.event(labels)

    def order(self, event: Iterable[str]) -> tuple[str, ...]:
        return self.base.order(event)

    def profile(self, w: str) -> tuple[str, str]:
        return self.base.profile(w)


class ProbKripkeModel(FramedModel):
    __slots__ = ("p",)
    p: tuple[Mapping[str, Mapping[str, Fraction]], Mapping[str, Mapping[str, Fraction]]]

    def __init__(self, base, p) -> None:
        wset = set(base.worlds)
        cleaned = []
        for i in (0, 1):
            if set(p[i]) != wset:
                raise InputError(f"belief map of player {base.game.players[i]!r} does not cover the worlds")
            # Worlds that share a belief object keep sharing the cleaned one.
            per = dict.fromkeys(p[i])
            for dist, holders in belief_groups(p[i], p[i]):
                bad = set(dist) - wset
                if bad:
                    raise InputError(f"belief at {holders[0]!r} weights unknown worlds {sorted(bad)}")
                clean = exact_weights(dist)
                for w in holders:
                    per[w] = clean
            cleaned.append(per)
        super().__init__(base, tuple(cleaned))


def belief_groups(worlds: Iterable[str], beliefs: Mapping[str, B]) -> list[tuple[B, list[str]]]:
    """Each distinct belief object of ``beliefs`` with the worlds that hold it.

    Worlds are grouped by the identity of their belief, not its value: a
    family member gives every world of a class one mapping, so a reader
    evaluates it once.  Groups come in the order of their first world and
    list their worlds in ``worlds`` order.
    """
    groups: dict[int, tuple[B, list[str]]] = {}
    for w in worlds:
        belief = beliefs[w]
        group = groups.get(id(belief))
        if group is None:
            groups[id(belief)] = (belief, [w])
        else:
            group[1].append(w)
    return list(groups.values())


def per_belief(worlds: Iterable[str], beliefs: Mapping[str, B], f: Callable[[B], R]) -> dict[str, R]:
    """``f`` of each world's belief, evaluated once per distinct belief object."""
    out = {}
    for belief, holders in belief_groups(worlds, beliefs):
        value = f(belief)
        for w in holders:
            out[w] = value
    return out


def one_level(dist: Mapping[str, Fraction]) -> tuple[Mapping[str, Fraction]]:
    """A probabilistic belief as a sequence of levels: the one-level case."""
    return (dist,)


def exact_weights(dist: Mapping[str, Fraction]) -> dict[str, Fraction]:
    """``dist`` with each weight converted to ``Fraction`` once and zeros dropped."""
    out = {}
    for t, v in dist.items():
        if type(v) is not Fraction:
            v = Fraction(v)
        if v:
            out[t] = v
    return out


def weight_sum(dist: Mapping[str, Fraction]) -> Fraction:
    """The exact total of ``dist``, summed as integers over the common denominator."""
    den = math.lcm(*(v.denominator for v in dist.values()))
    return Fraction(sum(v.numerator * (den // v.denominator) for v in dist.values()), den)


def validate_standard(model: StandardKripkeModel) -> list[Violation]:
    """KD45 axioms plus constancy of a player's own strategy on R_i classes."""
    out = []
    for i in (0, 1):
        name = model.game.players[i]
        acc = model.access[i]
        for w in model.worlds:
            if not acc[w]:
                out.append(Violation("seriality", i, (w,), f"player {name}: no world accessible from {w}"))
        for w in model.worlds:
            for w1 in acc[w]:
                for w2 in acc[w1]:
                    if w2 not in acc[w]:
                        out.append(Violation(
                            "transitivity", i, (w, w1, w2),
                            f"player {name}: {w}R{w1} and {w1}R{w2} but not {w}R{w2}"))
        for w in model.worlds:
            for w1 in acc[w]:
                for w2 in acc[w]:
                    if w2 not in acc[w1]:
                        out.append(Violation(
                            "euclideanness", i, (w, w1, w2),
                            f"player {name}: {w}R{w1} and {w}R{w2} but not {w1}R{w2}"))
        for w in model.worlds:
            for w1 in acc[w]:
                if model.sigma[i][w1] != model.sigma[i][w]:
                    out.append(Violation(
                        "sigma-constancy", i, (w, w1),
                        f"player {name}: strategy at {w1} is {model.sigma[i][w1]!r}, "
                        f"but {w1} is accessible from {w} playing {model.sigma[i][w]!r}"))
    return out


def validate_prob(model: ProbKripkeModel) -> list[Violation]:
    """Standard axioms plus measure constraints and constancy of p_i."""
    return validate_standard(model.base) + validate_beliefs(model)


def validate_beliefs(model: ProbKripkeModel) -> list[Violation]:
    """Measure constraints and constancy of p_i, without the frame's axioms."""
    out = []
    for i in (0, 1):
        name = model.game.players[i]
        p = model.p[i]
        measure = per_belief(model.worlds, p, lambda dist: (
            [(t, v) for t, v in dist.items() if v.numerator < 0], weight_sum(dist)))
        for w in model.worlds:
            negative, total = measure[w]
            for t, v in negative:
                out.append(Violation(
                    "p-negative", i, (w, t),
                    f"player {name}: negative weight {v} at {w} on {t}"))
            if total != 1:
                out.append(Violation("p-sum", i, (w,), f"player {name}: weights at {w} sum to {total}"))
            # Support depends on the world's own access set, so it stays per world.
            extra = set(p[w]) - model.access[i][w]
            for t in sorted(extra):
                out.append(Violation(
                    "p-support", i, (w, t),
                    f"player {name}: positive weight on {t}, not accessible from {w}"))
        belief_id = belief_ids(model.worlds, p, one_level)
        for w in model.worlds:
            for w1 in model.access[i][w]:
                if belief_id[w1] != belief_id[w]:
                    out.append(Violation(
                        "p-constancy", i, (w, w1),
                        f"player {name}: belief at {w1} differs from belief at {w} "
                        f"although {w1} is accessible from {w}"))
    return out


def belief_ids(
    worlds: Iterable[str],
    beliefs: Mapping[str, B],
    levels: Callable[[B], tuple[Mapping[str, Fraction], ...]],
) -> dict[str, int]:
    """Per world, an id that two worlds share exactly when their belief levels are equal.

    ``levels(belief)`` is a belief as its sequence of levels.  Each level
    becomes the canonical key sorted ``(world, numerator, denominator)``,
    built once per distinct belief object, so constancy checks compare ids
    instead of ``Fraction`` dicts.  Ids count up in order of first world.
    """
    ids: dict[tuple, int] = {}
    return per_belief(worlds, beliefs, lambda belief: ids.setdefault(tuple(
        tuple(sorted((t, v.numerator, v.denominator) for t, v in dist.items()))
        for dist in levels(belief)), len(ids)))


def box(
    model: StandardKripkeModel | FramedModel,
    views: Iterable[Callable[[str], frozenset[str]]],
    event: Iterable[str],
) -> EventSet:
    """Worlds ``w`` with ``view(w)`` inside the event for every view.

    A view maps a world to the worlds a player considers at it: R_i(w) for
    plain belief, the level-1 support for primary belief
    (``ordered.level1_access``), the worlds weighted strictly above eps for
    the upper operators (``epsilon.upper_access``).  A single-player
    operator passes one view; a common operator passes both players' views,
    so it is one-step (mutual) belief, not the reachability closure.
    """
    ev = model.event(event)
    worlds = model.worlds
    for view in views:
        worlds = [w for w in worlds if view(w) <= ev]
    return frozenset(worlds)


def belief(model: StandardKripkeModel | FramedModel, i: int, event: Iterable[str]) -> EventSet:
    """Worlds whose accessible set for player ``i`` lies inside the event."""
    return box(model, (model.access[i].__getitem__,), event)


def common_belief(model: StandardKripkeModel | FramedModel, event: Iterable[str]) -> EventSet:
    """Worlds whose union of accessible sets lies inside the event."""
    return box(model, (model.access[0].__getitem__, model.access[1].__getitem__), event)


def rat(model: ProbKripkeModel) -> tuple[tuple[EventSet, EventSet], EventSet]:
    """Per-player rationality events and their intersection RAT."""
    per = [best_reply_worlds(model, i, model.p[i], one_level) for i in (0, 1)]
    return (per[0], per[1]), per[0] & per[1]


def best_reply_worlds(
    model, i: int, beliefs: Mapping[str, B], levels: Callable[[B], tuple]
) -> EventSet:
    """Worlds where player ``i``'s strategy is a lexicographic best reply.

    ``beliefs`` maps each world to player ``i``'s belief there, and
    ``levels(belief)`` gives it as a sequence of weights over worlds (one
    level for a probabilistic model).  The push-forward is taken once per
    distinct belief object, and best replies are memoized on it, so worlds
    with equal beliefs, such as the members of an R_i class, cost one
    evaluation.
    """
    game = model.game
    j = other(i)
    strategy_of = model.sigma[j].__getitem__
    memo: dict[tuple, frozenset[str]] = {}

    def best_replies(belief) -> frozenset[str]:
        key = tuple(push_forward(game, j, dist, strategy_of) for dist in levels(belief))
        best = memo.get(key)
        if best is None:
            best = memo[key] = lex_best_replies(game, i, key)
        return best

    best_at = per_belief(model.worlds, beliefs, best_replies)
    own = model.sigma[i]
    return frozenset(w for w in model.worlds if own[w] in best_at[w])


class IesdsInclusionReport(NamedTuple):
    cb_rat: tuple[str, ...]
    survivors: Restriction
    failures: tuple[str, ...]
    holds: bool


def check_iesds_inclusion(model: ProbKripkeModel) -> IesdsInclusionReport:
    """Verify that worlds under common belief in rationality play IESDS survivors."""
    from .dominance import iesds

    _, rat_event = rat(model)
    cb = common_belief(model, rat_event)
    survivors, _ = iesds(model.game)
    surviving = {(s1, s2) for s1 in survivors.sets[0] for s2 in survivors.sets[1]}
    failures = tuple(w for w in model.order(cb) if model.profile(w) not in surviving)
    return IesdsInclusionReport(model.order(cb), survivors, failures, not failures)


def iesds_witness_model(game: Game, profile: tuple[str, str]) -> tuple[ProbKripkeModel, str]:
    """A model and world showing the profile under common belief in rationality.

    Every surviving strategy gets a justifying belief over surviving opponent
    strategies; worlds are the surviving profiles, clustered by the owner's
    strategy, with the cluster belief given by that justifying belief.
    """
    from .dominance import iesds, justifying_belief

    survivors, _ = iesds(game)
    for i in (0, 1):
        if profile[i] not in survivors.sets[i]:
            raise InputError(
                f"strategy {profile[i]!r} of player {game.players[i]!r} does not survive"
                " iterated strict dominance")
    beliefs = []
    for i in (0, 1):
        per = {}
        for s in survivors.sets[i]:
            b = justifying_belief(game, survivors, i, s)
            if b is None:
                raise InputError(f"no justifying belief for surviving strategy {s!r}")
            per[s] = b
        beliefs.append(per)

    def label(s1: str, s2: str) -> str:
        return f"{s1},{s2}"

    worlds = tuple(label(s1, s2) for s1 in survivors.sets[0] for s2 in survivors.sets[1])
    sigma0 = {}
    sigma1 = {}
    for s1 in survivors.sets[0]:
        for s2 in survivors.sets[1]:
            sigma0[label(s1, s2)] = s1
            sigma1[label(s1, s2)] = s2
    access: list[dict[str, frozenset[str]]] = [{}, {}]
    p: list[dict[str, dict[str, Fraction]]] = [{}, {}]
    for s1 in survivors.sets[0]:
        for s2 in survivors.sets[1]:
            w = label(s1, s2)
            own = (s1, s2)
            for i in (0, 1):
                bel = beliefs[i][own[i]]
                targets = {}
                for sj, v in bel.weights.items():
                    tw = label(own[i], sj) if i == 0 else label(sj, own[i])
                    targets[tw] = v
                access[i][w] = frozenset(targets)
                p[i][w] = targets
    base = StandardKripkeModel(game, worlds, (access[0], access[1]), (sigma0, sigma1))
    model = ProbKripkeModel(base, (p[0], p[1]))
    return model, label(*profile)
