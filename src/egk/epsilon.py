"""Caution, trembling bounds, and upper-threshold belief operators.

The upper operators restrict accessibility to worlds with belief weight
strictly above a threshold eps in (0, 1/2); weights equal to eps are
excluded.  eps is part of the query, never of the model, so one model can
be checked at several thresholds.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Iterable

from .errors import InputError
from .games import lex_best_replies, other, trembling_bound
from .kripke import EventSet, ProbKripkeModel, Violation, box, common, per_belief, rat
# The core's caution check, under the name callers of this module know.
from .kripke import check_caution as check_prob_caution

TREMBLING_READINGS = ("belief", "pointwise")


def check_trembling(
    model: ProbKripkeModel, eps: Fraction, reading: str = "belief"
) -> list[Violation]:
    """Worlds carrying a non-optimal strategy may weigh at most ``eps``.

    Under the default ``belief`` reading a supported world is a mistake when
    the opponent's assigned strategy there is not optimal against the
    opponent's own belief at that world.  The literal ``pointwise`` reading
    instead tests the believer's assigned strategy against the opponent's
    pure strategy at the supported world.
    """
    eps = trembling_bound(eps)
    if reading not in TREMBLING_READINGS:
        raise InputError(f"unknown trembling reading {reading!r}")
    rational = rat(model)[0] if reading == "belief" else None
    out = []
    for i in (0, 1):
        j = other(i)
        name = model.game.players[i]
        replies: dict[str, frozenset[str]] = {}
        for w in model.worlds:
            for w1, v in model.p[i][w].items():
                if v <= eps:
                    continue
                own, opp = model.sigma[i][w1], model.sigma[j][w1]
                if reading == "belief":
                    if w1 in rational[j]:
                        continue
                    why = f"the opponent's strategy {opp!r} is not optimal"
                else:
                    if opp not in replies:
                        unit = tuple(int(s == opp) for s in model.game.strategies[j])
                        replies[opp] = lex_best_replies(model.game, i, (unit,))
                    if own in replies[opp]:
                        continue
                    why = f"{own!r} is not a best reply to {opp!r}"
                out.append(Violation("trembling", i, (w, w1),
                                     f"player {name}: weight {v} at {w} on {w1}, where {why}"))
    return out


def _check_eps(eps: Fraction) -> Fraction:
    eps = Fraction(eps)
    if not 0 < eps < Fraction(1, 2):
        raise InputError(f"threshold must lie in (0, 1/2), got {eps}")
    return eps


def _above(dist, eps: Fraction) -> frozenset[str]:
    """Worlds weighted strictly above ``eps``, by integer cross-multiplication."""
    n, d = eps.numerator, eps.denominator
    return frozenset(w1 for w1, v in dist.items() if v.numerator * d > n * v.denominator)


def upper_view(model: ProbKripkeModel, i: int, eps: Fraction) -> Callable[[str], frozenset[str]]:
    """The worlds player ``i`` weights strictly above ``eps``, found once per kept belief group."""
    eps = _check_eps(eps)
    return per_belief(model.groups(i), lambda dist: _above(dist, eps)).__getitem__


def upper_belief(
    model: ProbKripkeModel, i: int, eps: Fraction, event: Iterable[str]
) -> EventSet:
    return box(model, upper_view(model, i, eps), event)


def upper_common_belief(
    model: ProbKripkeModel, eps: Fraction, event: Iterable[str]
) -> EventSet:
    return common(model, (upper_view(model, 0, eps), upper_view(model, 1, eps)), event)
