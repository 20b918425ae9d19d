"""Standard and probabilistic Kripke models of a game, with belief operators.

``FramedModel`` is the belief core of both model flavors: a probabilistic
belief is the one-level case of an ordered one.  Accessibility is expected
to be KD45 (serial, transitive, Euclidean) and a player's own strategy
constant on accessibility classes; ``validate_standard`` and
``validate_prob`` report violations as data rather than raising, so a model
checker can surface every defect at once.  A model keeps its belief groups
and its checks; the belief checks all read one pass per player and group.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import itemgetter
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
    """A Kripke frame over ``game``: worlds, accessibility per player and strategy per world.

    ``_violations`` holds the frame's :func:`validate_standard` result once it
    is found.
    """

    __slots__ = ("game", "worlds", "access", "sigma", "_violations")
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
    and event helpers, so every operator reads any model flavor alike.  A
    flavor adds one belief field after ``base`` and tells its beliefs apart
    by data alone: how a stored belief reads as levels and back
    (``_as_levels``, ``_from_levels``), its name in files and violation
    kinds (``KIND``), the wording of its messages (``_TEXT``), and whether
    beliefs must be constant on R_i classes (``_REQUIRE_CONSTANCY``).
    ``_groups`` holds each player's :meth:`groups`, kept by the constructor,
    and ``_checked`` the belief checks once found (:func:`_checks`).
    """

    __slots__ = ("base", "_groups", "_checked")
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

    def _cleaned(self, base: StandardKripkeModel, beliefs) -> tuple[dict, dict]:
        """``beliefs`` checked against the frame, with exact weights and no zeros.

        Worlds that share a belief object keep sharing the cleaned one, so
        each distinct belief is checked and converted once; its groups are
        kept, and each stored map lists the worlds in ``worlds`` order.
        """
        wset = set(base.worlds)
        cleaned, kept = [], []
        for i in (0, 1):
            if set(beliefs[i]) != wset:
                raise InputError(self._TEXT["cover"].format(name=base.game.players[i]))
            per = dict.fromkeys(base.worlds)
            groups = []
            for belief, holders in belief_groups(base.worlds, beliefs[i]):
                levels = self._as_levels(belief)
                if not levels:
                    raise InputError(self._TEXT["empty"].format(w=holders[0]))
                fixed = []
                for dist in levels:
                    bad = set(dist) - wset
                    if bad:
                        raise InputError(
                            self._TEXT["unknown"].format(w=holders[0], bad=sorted(bad)))
                    fixed.append(exact_weights(dist))
                clean = self._from_levels(fixed)
                groups.append((clean, tuple(holders)))
                for w in holders:
                    per[w] = clean
            cleaned.append(per)
            kept.append(tuple(groups))
        object.__setattr__(self, "_groups", tuple(kept))
        return tuple(cleaned)

    def beliefs(self, i: int) -> Mapping:
        """Player ``i``'s stored belief at each world: the flavor's own field."""
        return getattr(self, self._fields[1])[i]

    def levels(self, i: int, w: str) -> tuple[Mapping[str, Fraction], ...]:
        """Player ``i``'s belief at ``w`` as levels, primary first."""
        return self._as_levels(self.beliefs(i)[w])

    def groups(self, i: int) -> tuple[tuple[B, tuple[str, ...]], ...]:
        """Player ``i``'s stored beliefs grouped as :func:`belief_groups` does, as tuples."""
        return self._groups[i]


class ProbKripkeModel(FramedModel):
    """``p[i][w]`` is one distribution, read as a single level."""

    __slots__ = ("p",)
    p: tuple[Mapping[str, Mapping[str, Fraction]], Mapping[str, Mapping[str, Fraction]]]
    KIND = "p"
    _REQUIRE_CONSTANCY = True
    _TEXT = {
        "cover": "belief map of player {name!r} does not cover the worlds",
        "unknown": "belief at {w!r} weights unknown worlds {bad}",
        "negative": "player {name}: negative weight {v} at {w} on {t}",
        "sum": "player {name}: weights at {w} sum to {total}",
        "support": "player {name}: positive weight on {t}, not accessible from {w}",
        "constancy": "player {name}: belief at {w1} differs from belief at {w} "
                     "although {w1} is accessible from {w}",
        "caution": "player {name}: belief at {w} gives no weight to a world "
                   "where the opponent plays {s!r}",
    }
    _from_levels = itemgetter(0)

    @staticmethod
    def _as_levels(dist: Mapping[str, Fraction]) -> tuple[Mapping[str, Fraction]]:
        return (dist,)

    def __init__(self, base, p) -> None:
        super().__init__(base, self._cleaned(base, p))


def belief_groups(worlds: Iterable[str], beliefs: Mapping[str, B]) -> list[tuple[B, list[str]]]:
    """Each distinct belief object of ``beliefs`` with the worlds that hold it.

    Worlds are grouped by the identity of their belief, not its value: a
    family member gives every world of a class one mapping, so a reader
    evaluates it once.  Groups come in the order of their first world and
    list their worlds in ``worlds`` order.
    """
    groups: dict[int, tuple[B, list[str]]] = {}
    for w in worlds:
        groups.setdefault(id(beliefs[w]), (beliefs[w], []))[1].append(w)
    return list(groups.values())


def per_belief(groups: Iterable[tuple[B, Iterable[str]]], f: Callable[[B], R]) -> dict[str, R]:
    """``f`` of each world's belief, evaluated once per group of :func:`belief_groups`."""
    out = {}
    for belief, holders in groups:
        out.update(dict.fromkeys(holders, f(belief)))
    return out


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
    """KD45 axioms plus constancy of a player's own strategy on R_i classes.

    Found once per frame and kept on it; every call returns a fresh list.
    """
    return list(model._memo("_violations", _frame_violations))


def _frame_violations(model: StandardKripkeModel) -> tuple[Violation, ...]:
    """Every seriality, transitivity, Euclideanness and sigma-constancy violation.

    Each pair wRw1 is tested with one set inclusion, R(w1) <= R(w) for
    transitivity and R(w) <= R(w1) for Euclideanness, and only a pair that
    fails it is walked for its violating w2, so the violations and their
    order are those of the walk over every triple.
    """
    out = []
    for i in (0, 1):
        name = model.game.players[i]
        acc = model.access[i]
        for w in model.worlds:
            if not acc[w]:
                out.append(Violation("seriality", i, (w,), f"player {name}: no world accessible from {w}"))
        for w in model.worlds:
            for w1 in acc[w]:
                if acc[w1] <= acc[w]:
                    continue
                for w2 in acc[w1]:
                    if w2 not in acc[w]:
                        out.append(Violation(
                            "transitivity", i, (w, w1, w2),
                            f"player {name}: {w}R{w1} and {w1}R{w2} but not {w}R{w2}"))
        for w in model.worlds:
            for w1 in acc[w]:
                if acc[w] <= acc[w1]:
                    continue
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
    return tuple(out)


def validate_prob(model: ProbKripkeModel) -> list[Violation]:
    """Standard axioms plus measure constraints and constancy of p_i."""
    return validate_standard(model.base) + validate_beliefs(model)


def validate_beliefs(model: FramedModel) -> list[Violation]:
    """Measure, support and injectivity of every belief level, without the frame's axioms.

    A flavor whose beliefs must be constant on R_i classes also gets those
    violations, after each player's per-world checks.
    """
    out = []
    for i in (0, 1):
        checks = _checks(model, i)
        out += checks.levels
        if model._REQUIRE_CONSTANCY:
            out += checks.constancy
    return out


def check_constancy(model: FramedModel) -> list[Violation]:
    """Constancy of each player's belief levels on accessibility classes.

    ``validate_beliefs`` requires it of a probabilistic model.  An ordered
    model's defining condition only ties levels to R_i supports, but the
    type-extraction constructions assume it, so there it is checked
    separately and callers decide.
    """
    return list(_checks(model, 0).constancy + _checks(model, 1).constancy)


def check_caution(model: FramedModel) -> list[Violation]:
    """Every opponent strategy must get positive weight at some level, everywhere."""
    return list(_checks(model, 0).caution + _checks(model, 1).caution)


def level_ids(model: FramedModel) -> tuple[dict[str, int], dict[str, int]]:
    """Per player and world, an id that two worlds share exactly when their belief levels are equal.

    Ids count up in order of first world.
    """
    return dict(_checks(model, 0).ids), dict(_checks(model, 1).ids)


class _BeliefChecks(NamedTuple):
    """One player's belief checks, each in report order."""

    levels: tuple[Violation, ...]  # negative weights, sums, support, then injectivity, per world
    constancy: tuple[Violation, ...]
    caution: tuple[Violation, ...]
    ids: dict[str, int]  # see level_ids


def _checks(model: FramedModel, i: int) -> _BeliefChecks:
    """Player ``i``'s belief checks, found for both players on first use and kept on the model."""
    return model._memo("_checked", lambda m: (_check_beliefs(m, 0), _check_beliefs(m, 1)))[i]


def _check_beliefs(model: FramedModel, i: int) -> _BeliefChecks:
    """One pass over player ``i``'s kept belief groups, then one over the worlds.

    Per belief object: the opponent strategies no level weights, and an id
    keyed by the levels' value, the canonical key sorted ``(world,
    numerator, denominator)`` per level, so worlds with equal but distinct
    belief objects share it.  Per (belief, access set) object pair: each
    level's negative weights, exact sum and support, then the pairs of
    equal levels.  Per (access set object, id) pair: the accessible worlds
    whose id differs.  Violations are still listed world by world.
    """
    j = other(i)
    acc = model.access[i]
    beliefs = model.beliefs(i)
    strategy_of = model.sigma[j]
    strategies = model.game.strategies[j]
    ids: dict[tuple, int] = {}

    def measure(belief):
        levels = model._as_levels(belief)
        seen = {strategy_of[w1] for dist in levels for w1 in dist}
        key = tuple(tuple(sorted((t, v.numerator, v.denominator) for t, v in dist.items()))
                    for dist in levels)
        return levels, [s_j for s_j in strategies if s_j not in seen], ids.setdefault(key, len(ids))

    def problems(levels, a) -> list[tuple[str, str | None, dict]]:
        out = []
        for k, dist in enumerate(levels, 1):
            out += [("negative", t, {"k": k, "v": v}) for t, v in dist.items() if v.numerator < 0]
            if (total := weight_sum(dist)) != 1:
                out.append(("sum", None, {"k": k, "total": total}))
            out += [("support", t, {"k": k}) for t in sorted(set(dist) - a)]
        return out + [("injectivity", None, {"k": k + 1, "k2": k2 + 1}) for k in range(len(levels))
                      for k2 in range(k + 1, len(levels)) if levels[k] == levels[k2]]

    measured = per_belief(model.groups(i), measure)
    belief_id = {w: m[2] for w, m in measured.items()}
    per_pair: dict[tuple[int, int], list] = {}
    differing: dict[tuple[int, int], list] = {}
    levels, constancy, caution = [], [], []
    for w in model.worlds:
        held, unweighted, bid = measured[w]
        a = acc[w]
        pair, cls = (id(beliefs[w]), id(a)), (id(a), bid)
        if pair not in per_pair:
            per_pair[pair] = problems(held, a)
        if cls not in differing:
            differing[cls] = [w1 for w1 in a if belief_id[w1] != bid]
        for kind, t, fields in per_pair[pair]:
            where = (w,) if t is None else (w, t)
            levels.append(_violation(model, kind, i, where, w=w, t=t, **fields))
        for w1 in differing[cls]:
            constancy.append(_violation(model, "constancy", i, (w, w1), w=w, w1=w1))
        for s_j in unweighted:
            caution.append(Violation("caution", i, (w, s_j), model._TEXT["caution"].format(
                name=model.game.players[i], w=w, s=s_j)))
    return _BeliefChecks(tuple(levels), tuple(constancy), tuple(caution), belief_id)


def _violation(
    model: FramedModel, kind: str, i: int, where: tuple[str, ...], **fields
) -> Violation:
    """The flavor's ``kind`` violation, worded by its message table."""
    detail = model._TEXT[kind].format(name=model.game.players[i], **fields)
    return Violation(f"{model.KIND}-{kind}", i, where, detail)


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
    per = [best_reply_worlds(model, i) for i in (0, 1)]
    return (per[0], per[1]), per[0] & per[1]


def best_reply_worlds(model: FramedModel, i: int) -> EventSet:
    """Worlds where player ``i``'s strategy is a lexicographic best reply to their belief.

    The push-forward of each level is taken once per kept belief group,
    and best replies are memoized on it, so worlds with equal beliefs,
    such as the members of an R_i class, cost one evaluation.
    """
    game = model.game
    j = other(i)
    strategy_of = model.sigma[j].__getitem__
    own = model.sigma[i]
    memo: dict[tuple, frozenset[str]] = {}
    out = []
    for belief, holders in model.groups(i):
        key = tuple(push_forward(game, j, dist, strategy_of) for dist in model._as_levels(belief))
        best = memo.get(key)
        if best is None:
            best = memo[key] = lex_best_replies(game, i, key)
        out += [w for w in holders if own[w] in best]
    return frozenset(out)


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

    worlds: list[str] = []
    sigma, access, p = ({}, {}), ({}, {}), ({}, {})
    for s1 in survivors.sets[0]:
        for s2 in survivors.sets[1]:
            w = label(s1, s2)
            worlds.append(w)
            own = (s1, s2)
            for i in (0, 1):
                sigma[i][w] = own[i]
                p[i][w] = {label(own[0], sj) if i == 0 else label(sj, own[1]): v
                           for sj, v in beliefs[i][own[i]].weights.items()}
                access[i][w] = frozenset(p[i][w])
    base = StandardKripkeModel(game, tuple(worlds), access, sigma)
    return ProbKripkeModel(base, p), label(*profile)
