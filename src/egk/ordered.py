"""Ordered Kripke models: an injective sequence of belief levels per world.

Each world carries, per player, a finite injective sequence of probability
distributions over its accessible worlds; level 1 is the primary belief.
Levels are 0-based internally and rendered 1-based in reports.
"""

from __future__ import annotations

from typing import Callable, Iterable, Mapping, NamedTuple

from .kripke import (
    EventSet,
    FramedModel,
    Violation,
    _checks,
    best_reply_worlds,
    box,
    check_caution,  # re-exported for this flavor's callers
    check_constancy as check_lambda_constancy,  # re-exported; advisory for this flavor
    common,
    per_belief,
    validate_beliefs,
    validate_standard,
)

LevelSeq = tuple  # tuple of per-level weight mappings


class OrderedKripkeModel(FramedModel):
    """``lam[i][w]`` is a nonempty tuple of levels; their constancy on R_i classes is advisory."""

    __slots__ = ("lam",)
    lam: tuple[Mapping[str, LevelSeq], Mapping[str, LevelSeq]]
    KIND = "lambda"
    _REQUIRE_CONSTANCY = False
    _TEXT = {
        "cover": "belief levels of player {name!r} do not cover the worlds",
        "empty": "world {w!r} has an empty level sequence",
        "unknown": "level belief at {w!r} weights unknown worlds {bad}",
        "negative": "player {name}: level {k} at {w} gives {t} the negative weight {v}",
        "sum": "player {name}: level {k} at {w} sums to {total}",
        "support": "player {name}: level {k} at {w} weights {t}, not accessible",
        "injectivity": "player {name}: levels {k} and {k2} at {w} are identical",
        "constancy": "player {name}: levels at {w1} differ from levels at {w} "
                     "although {w1} is accessible from {w}",
        "caution": "player {name}: no level at {w} gives positive weight to a world "
                   "where the opponent plays {s!r}",
    }
    _as_levels = _from_levels = tuple


def validate_ordered(model: OrderedKripkeModel) -> list[Violation]:
    """Standard axioms plus measure, support, and injectivity of the levels."""
    return validate_standard(model.base) + validate_beliefs(model)


def lrat(model: OrderedKripkeModel) -> tuple[tuple[EventSet, EventSet], EventSet]:
    """Per-player lexicographic rationality events and their intersection."""
    per = [best_reply_worlds(model, i) for i in (0, 1)]
    return (per[0], per[1]), per[0] & per[1]


def level1_view(model: OrderedKripkeModel, i: int) -> Callable[[str], frozenset[str]]:
    """Player ``i``'s level-1 support at each world, found once per kept belief group."""
    return per_belief(model.groups(i), lambda levels: frozenset(levels[0])).__getitem__


def level1_belief(model: OrderedKripkeModel, i: int, event: Iterable[str]) -> EventSet:
    """Worlds whose primary-belief support for player ``i`` lies inside the event."""
    return box(model, level1_view(model, i), event)


def common_level1_belief(model: OrderedKripkeModel, event: Iterable[str]) -> EventSet:
    """Worlds from which every world reachable by primary-belief supports lies inside the event."""
    return common(model, (level1_view(model, 0), level1_view(model, 1)), event)


class StructuralReport(NamedTuple):
    disjoint_supports: bool
    surjection: bool
    violations: tuple[Violation, ...]


def check_structural_conditions(model: OrderedKripkeModel) -> StructuralReport:
    """Disjoint level supports and surjective levels: player 1's violations, then player 2's."""
    out = _checks(model, 0).structural + _checks(model, 1).structural
    kinds = {v.kind for v in out}
    return StructuralReport("disjoint-supports" not in kinds, "surjection" not in kinds, out)
