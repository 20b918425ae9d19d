"""Ordered Kripke models: an injective sequence of belief levels per world.

Each world carries, per player, a finite injective sequence of probability
distributions over its accessible worlds; level 1 is the primary belief.
Levels are 0-based internally and rendered 1-based in reports.
"""

from __future__ import annotations

from functools import partial
from typing import Iterable, Mapping, NamedTuple

from .errors import InputError
from .games import lex_compare, lex_values, other, push_forward
from .kripke import (
    EventSet,
    FramedModel,
    Violation,
    belief_groups,
    belief_ids,
    best_reply_worlds,
    box,
    exact_weights,
    validate_standard,
    weight_sum,
)

LevelSeq = tuple  # tuple of per-level weight mappings


class OrderedKripkeModel(FramedModel):
    __slots__ = ("lam",)
    lam: tuple[Mapping[str, LevelSeq], Mapping[str, LevelSeq]]

    def __init__(self, base, lam) -> None:
        wset = set(base.worlds)
        cleaned = []
        for i in (0, 1):
            if set(lam[i]) != wset:
                raise InputError(f"belief levels of player {base.game.players[i]!r} do not cover the worlds")
            # Worlds that share a level sequence object keep sharing the cleaned one.
            per = dict.fromkeys(lam[i])
            for levels, holders in belief_groups(lam[i], lam[i]):
                if not levels:
                    raise InputError(f"world {holders[0]!r} has an empty level sequence")
                fixed = []
                for dist in levels:
                    bad = set(dist) - wset
                    if bad:
                        raise InputError(f"level belief at {holders[0]!r} weights unknown worlds {sorted(bad)}")
                    fixed.append(exact_weights(dist))
                shared = tuple(fixed)
                for w in holders:
                    per[w] = shared
            cleaned.append(per)
        super().__init__(base, tuple(cleaned))

    def levels(self, i: int, w: str) -> LevelSeq:
        return self.lam[i][w]


def validate_ordered(model: OrderedKripkeModel) -> list[Violation]:
    """Standard axioms plus measure, support, and injectivity of the levels."""
    return validate_standard(model.base) + validate_levels(model)


def validate_levels(model: OrderedKripkeModel) -> list[Violation]:
    """Measure, support, and injectivity of the levels, without the frame's axioms."""
    out = []
    for i in (0, 1):
        name = model.game.players[i]
        for w in model.worlds:
            levels = model.lam[i][w]
            for k, dist in enumerate(levels):
                for t, v in dist.items():
                    if v.numerator < 0:
                        out.append(Violation(
                            "lambda-negative", i, (w, t),
                            f"player {name}: level {k + 1} at {w} gives {t} the negative "
                            f"weight {v}"))
                total = weight_sum(dist)
                if total != 1:
                    out.append(Violation(
                        "lambda-sum", i, (w,),
                        f"player {name}: level {k + 1} at {w} sums to {total}"))
                extra = set(dist) - model.access[i][w]
                for t in sorted(extra):
                    out.append(Violation(
                        "lambda-support", i, (w, t),
                        f"player {name}: level {k + 1} at {w} weights {t}, not accessible"))
            for k in range(len(levels)):
                for k2 in range(k + 1, len(levels)):
                    if levels[k] == levels[k2]:
                        out.append(Violation(
                            "lambda-injectivity", i, (w,),
                            f"player {name}: levels {k + 1} and {k2 + 1} at {w} are identical"))
    return out


def _as_levels(levels: LevelSeq) -> LevelSeq:
    return levels


def level_ids(model: OrderedKripkeModel) -> tuple[dict[str, int], dict[str, int]]:
    """Per player, ids that two worlds share exactly when their level sequences are equal."""
    return (belief_ids(model.worlds, model.lam[0], _as_levels),
            belief_ids(model.worlds, model.lam[1], _as_levels))


def check_lambda_constancy(
    model: OrderedKripkeModel, ids: tuple[dict[str, int], dict[str, int]] | None = None
) -> list[Violation]:
    """Constancy of the level sequence on accessibility classes.

    Not required for validity (the defining condition only ties levels to
    R_i supports) but assumed by the type-extraction constructions; checked
    separately so callers can decide.  ``ids`` are the model's
    ``level_ids``, for a caller that already has them.
    """
    if ids is None:
        ids = level_ids(model)
    out = []
    for i in (0, 1):
        name = model.game.players[i]
        levels_id = ids[i]
        for w in model.worlds:
            for w1 in model.access[i][w]:
                if levels_id[w1] != levels_id[w]:
                    out.append(Violation(
                        "lambda-constancy", i, (w, w1),
                        f"player {name}: levels at {w1} differ from levels at {w} "
                        f"although {w1} is accessible from {w}"))
    return out


def check_caution(model: OrderedKripkeModel) -> list[Violation]:
    """Every opponent strategy must get positive weight at some level, everywhere."""
    out = []
    for i in (0, 1):
        j = other(i)
        name = model.game.players[i]
        for w in model.worlds:
            seen = set()
            for dist in model.lam[i][w]:
                for w1 in dist:
                    seen.add(model.sigma[j][w1])
            for s_j in model.game.strategies[j]:
                if s_j not in seen:
                    out.append(Violation(
                        "caution", i, (w, s_j),
                        f"player {name}: no level at {w} gives positive weight to a world "
                        f"where the opponent plays {s_j!r}"))
    return out


def lex_prefers(model: OrderedKripkeModel, i: int, w: str, s_i: str, s_i2: str) -> int:
    """Lexicographic preference at ``w``: GREATER, EQUAL (indifferent) or LESS."""
    game = model.game
    game.check_strategy(i, s_i)
    game.check_strategy(i, s_i2)
    j = other(i)
    strategy_of = model.sigma[j].__getitem__
    levels = [push_forward(game, j, dist, strategy_of) for dist in model.lam[i][w]]
    return lex_compare(lex_values(game, i, s_i, levels), lex_values(game, i, s_i2, levels))


def lrat(model: OrderedKripkeModel) -> tuple[tuple[EventSet, EventSet], EventSet]:
    """Per-player lexicographic rationality events and their intersection."""
    per = [best_reply_worlds(model, i, model.lam[i], _as_levels) for i in (0, 1)]
    return (per[0], per[1]), per[0] & per[1]


def level1_access(model: OrderedKripkeModel, i: int, w: str) -> frozenset[str]:
    return frozenset(model.lam[i][w][0])


def level1_belief(model: OrderedKripkeModel, i: int, event: Iterable[str]) -> EventSet:
    """Worlds whose primary-belief support for player ``i`` lies inside the event."""
    return box(model, (partial(level1_access, model, i),), event)


def common_level1_belief(model: OrderedKripkeModel, event: Iterable[str]) -> EventSet:
    """Worlds whose union of primary-belief supports lies inside the event."""
    return box(model, (partial(level1_access, model, 0), partial(level1_access, model, 1)), event)


class StructuralReport(NamedTuple):
    disjoint_supports: bool
    surjection: bool
    violations: tuple[Violation, ...]


def check_structural_conditions(model: OrderedKripkeModel) -> StructuralReport:
    """Disjoint level supports, and every accessible world weighted at some level."""
    out = []
    for i in (0, 1):
        name = model.game.players[i]
        for w in model.worlds:
            levels = model.lam[i][w]
            for k in range(len(levels)):
                for k2 in range(k + 1, len(levels)):
                    overlap = set(levels[k]) & set(levels[k2])
                    for t in sorted(overlap):
                        out.append(Violation(
                            "disjoint-supports", i, (w, t),
                            f"player {name}: levels {k + 1} and {k2 + 1} at {w} both weight {t}"))
            covered = set()
            for dist in levels:
                covered |= set(dist)
            for w1 in sorted(model.access[i][w] - covered):
                out.append(Violation(
                    "surjection", i, (w, w1),
                    f"player {name}: {w1} is accessible from {w} but no level weights it"))
    kinds = {v.kind for v in out}
    return StructuralReport(
        "disjoint-supports" not in kinds, "surjection" not in kinds, tuple(out))
