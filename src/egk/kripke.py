"""Standard and probabilistic Kripke models of a game, with belief operators.

``FramedModel`` is the belief core of both model flavors: a probabilistic
belief is the one-level case of an ordered one.  Accessibility is expected
to be KD45 (serial, transitive, Euclidean) and a player's own strategy
constant on accessibility classes; ``validate_standard`` and
``validate_prob`` report violations as data rather than raising, so a model
checker can surface every defect at once.  A model keeps its belief groups,
its checks and one integer table per kept group: the belief checks all read
one pass per player and group, and every reader of a group in integers
(best replies, the threshold family's rows and members, the type quotient)
reads its table, built once per player with each strategy's level
utilities, or handed to a family member when it is built.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations
from operator import itemgetter
from typing import TYPE_CHECKING, Callable, Iterable, Mapping, NamedTuple, TypeVar

from .errors import InputError
from .frozen import Frozen
from .games import (
    Game, _compiled, _dot, exact_weights, greatest_closed, other, push_forward, weight_sum)

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
    beliefs must be constant on R_i classes (``_REQUIRE_CONSTANCY``); the
    one constructor, ``(base, beliefs)``, checks and cleans the flavor's
    beliefs (:meth:`_cleaned`).  ``_groups`` holds each player's
    :meth:`groups`, kept by the constructor, ``_checked`` the belief checks
    once found (:func:`_checks`), and ``_tables`` each player's
    :class:`_LevelTable` per kept group (:func:`_tables`), filled per
    player on first use or handed to a family member when it is built.
    """

    __slots__ = ("base", "_groups", "_checked", "_tables")
    base: StandardKripkeModel

    def __init__(self, base, *beliefs) -> None:
        # A flavor passes its one belief field; the bare core carries none.
        super().__init__(base, *(self._cleaned(base, b) for b in beliefs))

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
        kept.  Each player's map lists the worlds in ``worlds`` order, but a
        belief keeps its items in the order given: ``{"w2": ..., "w1": ...}``
        keeps ``w2`` first, and ``modelio.model_to_json`` writes it so.
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


def validate_standard(model: StandardKripkeModel | FramedModel) -> list[Violation]:
    """KD45 axioms plus constancy of a player's own strategy on R_i classes.

    A framed model is checked on its frame ``base``.  Found once per frame
    and kept on it; every call returns a fresh list.
    """
    if isinstance(model, FramedModel):
        model = model.base
    return list(model._memo("_violations", _frame_violations))


def _frame_violations(model: StandardKripkeModel) -> tuple[Violation, ...]:
    """Every seriality, transitivity, Euclideanness and sigma-constancy violation.

    Each pair wRw1 is tested with one set inclusion, R(w1) <= R(w) for
    transitivity and R(w) <= R(w1) for Euclideanness, skipped when w1 holds
    the access set object w holds, and only a pair that fails it is walked
    for its violating w2.  Sigma-constancy collects, once per player and
    access set object, the strategies its worlds play, and walks R(w) only
    when that set is not {sigma_i(w)}.  A world's failing w1 and their w2
    are listed in model order, so the violations and their order are those
    of the walk over every triple in model order, under any hash seed.
    """
    out = []
    for i in (0, 1):
        name = model.game.players[i]
        acc = model.access[i]
        own = model.sigma[i]
        for w in model.worlds:
            if not acc[w]:
                out.append(Violation("seriality", i, (w,), f"player {name}: no world accessible from {w}"))
        for w in model.worlds:
            a = acc[w]
            for w1 in a:
                if (b := acc[w1]) is not a and not b <= a:
                    break
            else:
                continue
            for w1 in model.order(a):
                if (b := acc[w1]) is a or b <= a:
                    continue
                for w2 in model.order(b - a):
                    out.append(Violation(
                        "transitivity", i, (w, w1, w2),
                        f"player {name}: {w}R{w1} and {w1}R{w2} but not {w}R{w2}"))
        for w in model.worlds:
            a = acc[w]
            for w1 in a:
                if (b := acc[w1]) is not a and not a <= b:
                    break
            else:
                continue
            for w1 in model.order(a):
                if (b := acc[w1]) is a or a <= b:
                    continue
                for w2 in model.order(a - b):
                    out.append(Violation(
                        "euclideanness", i, (w, w1, w2),
                        f"player {name}: {w}R{w1} and {w}R{w2} but not {w1}R{w2}"))
        played: dict[int, set[str]] = {}
        for w in model.worlds:
            a = acc[w]
            if (seen := played.get(id(a))) is None:
                seen = played[id(a)] = {own[w1] for w1 in a}
            if seen == {own[w]}:
                continue
            for w1 in model.order(a):
                if own[w1] != own[w]:
                    out.append(Violation(
                        "sigma-constancy", i, (w, w1),
                        f"player {name}: strategy at {w1} is {own[w1]!r}, "
                        f"but {w1} is accessible from {w} playing {own[w]!r}"))
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


class _BeliefChecks(NamedTuple):
    """One player's belief checks, each in report order."""

    levels: tuple[Violation, ...]  # negative weights, sums, support, then injectivity, per world
    constancy: tuple[Violation, ...]
    caution: tuple[Violation, ...]
    ids: dict[str, int]  # per world; equal levels share an id, counted up in first-world order
    structural: tuple[Violation, ...]  # overlapping supports, then unweighted worlds, per world


def _checks(model: FramedModel, i: int) -> _BeliefChecks:
    """Player ``i``'s belief checks, found for both players on first use and kept on the model."""
    return model._memo("_checked", lambda m: (_check_beliefs(m, 0), _check_beliefs(m, 1)))[i]


def _check_beliefs(model: FramedModel, i: int) -> _BeliefChecks:
    """One pass over player ``i``'s kept belief groups, then one over the worlds.

    Per belief object: the opponent strategies no level weights, and an id
    keyed by the levels' value, the canonical key sorted ``(world,
    numerator, denominator)`` per level, so worlds with equal but distinct
    belief objects share it.  Per (belief, access set) object pair: each
    level's negative weights, exact sum and support, the pairs of equal
    levels, the worlds two levels both weight and the accessible worlds no
    level weights.  Per (access set object, id) pair: the accessible worlds
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

    def problems(levels, a) -> tuple[list, list, list[str]]:
        out = []
        for k, dist in enumerate(levels, 1):
            out += [("negative", t, {"k": k, "v": v}) for t, v in dist.items() if v.numerator < 0]
            if (total := weight_sum(dist)) != 1:
                out.append(("sum", None, {"k": k, "total": total}))
            out += [("support", t, {"k": k}) for t in sorted(set(dist) - a)]
        overlaps = []
        for k, k2 in combinations(range(len(levels)), 2):
            if levels[k] == levels[k2]:
                out.append(("injectivity", None, {"k": k + 1, "k2": k2 + 1}))
            overlaps += [(k + 1, k2 + 1, t) for t in sorted(levels[k].keys() & levels[k2].keys())]
        return out, overlaps, sorted(a.difference(*levels))

    measured = per_belief(model.groups(i), measure)
    belief_id = {w: m[2] for w, m in measured.items()}
    per_pair: dict[tuple[int, int], tuple] = {}
    differing: dict[tuple[int, int], list] = {}
    name = model.game.players[i]
    levels, constancy, caution, structural = [], [], [], []
    for w in model.worlds:
        held, unweighted, bid = measured[w]
        a = acc[w]
        pair, cls = (id(beliefs[w]), id(a)), (id(a), bid)
        if pair not in per_pair:
            per_pair[pair] = problems(held, a)
        if cls not in differing:
            moved = [w1 for w1 in a if belief_id[w1] != bid]
            differing[cls] = model.order(moved) if moved[1:] else moved
        found, overlaps, uncovered = per_pair[pair]
        for kind, t, fields in found:
            where = (w,) if t is None else (w, t)
            levels.append(_violation(model, kind, i, where, w=w, t=t, **fields))
        for w1 in differing[cls]:
            constancy.append(_violation(model, "constancy", i, (w, w1), w=w, w1=w1))
        for s_j in unweighted:
            caution.append(Violation("caution", i, (w, s_j), model._TEXT["caution"].format(
                name=name, w=w, s=s_j)))
        for k, k2, t in overlaps:
            structural.append(Violation(
                "disjoint-supports", i, (w, t),
                f"player {name}: levels {k} and {k2} at {w} both weight {t}"))
        for w1 in uncovered:
            structural.append(Violation(
                "surjection", i, (w, w1),
                f"player {name}: {w1} is accessible from {w} but no level weights it"))
    return _BeliefChecks(tuple(levels), tuple(constancy), tuple(caution), belief_id,
                         tuple(structural))


def _violation(
    model: FramedModel, kind: str, i: int, where: tuple[str, ...], **fields
) -> Violation:
    """The flavor's ``kind`` violation, worded by its message table."""
    detail = model._TEXT[kind].format(name=model.game.players[i], **fields)
    return Violation(f"{model.KIND}-{kind}", i, where, detail)


def box(model: StandardKripkeModel | FramedModel, view: Callable, event: Iterable[str]) -> EventSet:
    """Worlds ``w`` with ``view(w)`` inside the event: one player's belief.

    ``view`` maps a world to R_i (plain belief), the level-1 support (primary belief,
    ``ordered.level1_view``) or the worlds weighted strictly above eps (``epsilon.upper_view``).
    """
    ev = model.event(event)
    return frozenset(w for w in model.worlds if view(w) <= ev)


def common(
    model: StandardKripkeModel | FramedModel, views: tuple[Callable, Callable], event: Iterable[str]
) -> EventSet:
    """Worlds from which every world reached in one or more steps of ``views`` lies in the event.

    ``views`` are both players' views (see :func:`box`).  With MB(F) the worlds whose every
    view lies in F, this is the greatest X = MB(E & X): the largest part of MB(E) no view leaves.
    """
    ev = model.event(event)
    view0, view1 = views
    return greatest_closed(model.worlds, lambda w: view0(w) | view1(w),
                           lambda w: view0(w) <= ev and view1(w) <= ev)


def belief(model: StandardKripkeModel | FramedModel, i: int, event: Iterable[str]) -> EventSet:
    """Worlds whose accessible set for player ``i`` lies inside the event."""
    return box(model, model.access[i].__getitem__, event)


def common_belief(model: StandardKripkeModel | FramedModel, event: Iterable[str]) -> EventSet:
    """Worlds from which every world reachable by accessibility lies inside the event."""
    return common(model, (model.access[0].__getitem__, model.access[1].__getitem__), event)


def rat(model: ProbKripkeModel) -> tuple[tuple[EventSet, EventSet], EventSet]:
    """Per-player rationality events and their intersection RAT."""
    per = [best_reply_worlds(model, i) for i in (0, 1)]
    return (per[0], per[1]), per[0] & per[1]


def best_reply_worlds(model: FramedModel, i: int) -> EventSet:
    """Worlds where player ``i``'s strategy is a lexicographic best reply to their belief.

    Per kept belief group, the strategies with the lexicographically
    largest utility tuple in its :func:`_tables` entry, so worlds that share
    a belief object, such as an R_i class, cost one comparison, and a later
    reader of the same model pushes nothing again.
    """
    return frozenset(w for (_, holders), table in zip(model.groups(i), _tables(model, i))
                     for w in _at_best(model, i, holders, table.utility))


def _at_best(model: FramedModel, i: int, holders, values) -> list[str]:
    """The ``holders`` whose own strategy has the largest of ``values``, one per strategy."""
    top, own = max(values), model.sigma[i]
    best = {s for s, v in zip(model.game.strategies[i], values) if v == top}
    return [w for w in holders if own[w] in best]


class _LevelTable(NamedTuple):
    """One kept belief group in integers.

    ``pushed`` holds each level pushed onto the opponent's strategies, all
    over one common scale, so that the push-forward of a mass-weighted sum
    of the levels is the same mass-weighted sum of these.  ``utility[s][k]``
    is own strategy s's payoff row (file order) times ``pushed[k]``, so RAT
    compares ``Σ_k m_k u[s][k]`` over the level masses m_k (a^k b^(K-1-k)
    at eps = a/b under ``perfect``).  ``weights`` holds each level's
    (world, numerator) pairs, in item order, over the group's one ``den``.
    """

    pushed: tuple[tuple[int, ...], ...]
    utility: tuple[tuple[int, ...], ...]
    weights: tuple[tuple[tuple[str, int], ...], ...]
    den: int


def _tables(model: FramedModel, i: int) -> tuple[_LevelTable, ...]:
    """Player ``i``'s :class:`_LevelTable` per kept group, in group order.

    Built on first use with each own strategy's level utilities and kept
    on the model per player (a family member is handed its :func:`_mixed`
    tables), so the first bad belief raises ``push_forward``'s error, and
    asking for one player pushes nothing of the other's.
    """
    kept = model._memo("_tables", lambda m: [None, None])
    if kept[i] is None:
        j = other(i)
        strategy_of = model.sigma[j].__getitem__
        rows = _compiled(model.game)[0][i].values()
        tables = []
        for belief, _ in model.groups(i):
            levels = model._as_levels(belief)
            pushed = [push_forward(model.game, j, dist, strategy_of) for dist in levels]
            sums = [sum(p) for p in pushed]
            scale = math.lcm(*sums)
            pushed = tuple(tuple(x * (scale // s) for x in p) for p, s in zip(pushed, sums))
            den = math.lcm(*(v.denominator for dist in levels for v in dist.values()))
            tables.append(_LevelTable(
                pushed, tuple(tuple(_dot(row, p) for p in pushed) for row in rows),
                tuple(tuple((w1, v.numerator * (den // v.denominator)) for w1, v in dist.items())
                      for dist in levels),
                den))
        kept[i] = tuple(tables)
    return kept[i]


def _mixed(table: _LevelTable, masses: list[int]) -> _LevelTable:
    """What :func:`_tables` builds from the belief giving ``table``'s level k mass ``masses[k]``."""
    pushed = [_dot(masses, column) for column in zip(*table.pushed)]
    g = math.gcd(*pushed)
    weights = [(w1, mass * n) for mass, level in zip(masses, table.weights) for w1, n in level]
    total = sum(masses) * table.den
    h = math.gcd(total, *(n for _, n in weights))
    return _LevelTable((tuple(x // g for x in pushed),),
                       tuple((_dot(masses, u) // g,) for u in table.utility),
                       (tuple((w1, n // h) for w1, n in weights),), total // h)


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
