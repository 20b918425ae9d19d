"""Probabilistic model families built from an ordered model, and their convergence report.

An ordered model with disjoint level supports and surjective levels induces,
for each eps, a probabilistic model on the same frame: level k receives
total mass proportional to eps^(k-1) (the ``perfect`` scheme), distributed
within the level proportionally to the level weights.  The ``proper``
scheme additionally forces every deeper-level weight to be at most eps
times every shallower-level weight.  ``verify_convergence`` checks the
permissibility sense of the limit: the tail of upper common belief in
rationality along the family against common primary belief in
lexicographic rationality on the source.

A member's belief is a mass-weighted sum of the source's disjoint levels,
so its rows, its beliefs and its own tables are read from the integer
table the source keeps per group (``kripke._tables``): a row's RAT from
the mass-weighted level utilities, its upper views from the level weights.
A member is built as a model only by ``build_epsilon_model``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .errors import InputError
from .frozen import Frozen
from .games import _dot
from .kripke import (
    ProbKripkeModel,
    _LevelTable,
    _at_best,
    _mixed,
    _tables,
    check_caution,
    check_constancy,
    common,
    validate_beliefs,
    validate_standard,
)
from .ordered import OrderedKripkeModel, check_structural_conditions, common_level1_belief, lrat

SCHEMES = ("perfect", "proper")


class EpsilonSchedule(Frozen):
    """Finite strictly decreasing thresholds eps_n = ratio**(n+2), n = 0..count-1."""

    __slots__ = ("ratio", "count")
    ratio: Fraction
    count: int

    def __init__(self, ratio, count) -> None:
        ratio = Fraction(ratio)
        if not 0 < ratio < 1:
            raise InputError(f"schedule ratio must lie in (0, 1), got {ratio}")
        if ratio * ratio >= Fraction(1, 2):
            raise InputError(f"schedule must start below 1/2; ratio {ratio} is too large")
        if count < 1:
            raise InputError("schedule needs at least one threshold")
        super().__init__(ratio, count)

    def values(self) -> tuple[Fraction, ...]:
        return tuple(self.ratio ** (n + 2) for n in range(self.count))


def _check_scheme(scheme: str) -> None:
    if scheme not in SCHEMES:
        raise InputError(f"unknown weighting scheme {scheme!r}")


def _require_hypotheses(model: OrderedKripkeModel) -> None:
    # A level without positive weight (zero weights are dropped when the
    # model is built) has nothing to scale, so no member can be built.
    for i in (0, 1):
        for levels, holders in model.groups(i):
            for k, level in enumerate(levels):
                if not level:
                    raise InputError(
                        f"empty belief level: player {model.game.players[i]}: "
                        f"level {k + 1} at {holders[0]} gives no world positive weight")
    caution = check_caution(model)
    if caution:
        raise InputError(f"ordered model is not cautious: {caution[0]}")
    structural = check_structural_conditions(model).violations
    for kind, problem in (("disjoint-supports", "level supports are not disjoint"),
                          ("surjection", "levels are not surjective")):
        if first := next((v for v in structural if v.kind == kind), None):
            raise InputError(f"{problem}: {first}")
    # Every family member shares the source's frame, so its axioms are
    # checked here once, reported as the first member's defect.
    frame = validate_standard(model.base)
    if frame:
        raise InputError(f"built model is invalid: {frame[0]}")
    for v in validate_beliefs(model):
        if v.kind in ("lambda-negative", "lambda-sum", "lambda-support"):
            raise InputError(f"ordered model is invalid: {v}")


def _level_masses(levels, eps: Fraction, scheme: str) -> list[int]:
    """Integer numerators of the per-level masses, scaled so that off-level-1 mass <= eps.

    Under ``perfect`` with eps = a/b, level k gets a^k * b^(K-1-k).  The tail
    shrink below never fires there: its bound is 1/(1 - eps^(K-1)) > 1.
    """
    k = len(levels)
    if scheme == "perfect":
        a, b = eps.numerator, eps.denominator
        return [a ** idx * b ** (k - 1 - idx) for idx in range(k)]
    masses = [Fraction(1)]
    for idx in range(1, k):
        lo_prev = min(levels[idx - 1].values())
        hi_here = max(levels[idx].values())
        masses.append(masses[-1] * eps * lo_prev / hi_here)
    tail = sum(masses[1:], Fraction(0))
    if tail > 0:
        # Shrinking the tail preserves within-level proportions and the
        # cross-level ratio bound; it only tightens them.
        bound = eps * masses[0] / ((1 - eps) * tail)
        if bound < 1:
            masses = [masses[0]] + [m * bound for m in masses[1:]]
    den = math.lcm(*(m.denominator for m in masses))
    return [m.numerator * (den // m.denominator) for m in masses]


def build_epsilon_model(
    model: OrderedKripkeModel, eps: Fraction, scheme: str = "perfect"
) -> ProbKripkeModel:
    """The probabilistic model at threshold ``eps`` over the same frame.

    Each of the source's kept belief groups gets one belief and one table,
    built once from its level table (``kripke._mixed``) and shared by its
    worlds, so every reader of the member evaluates it once and pushes nothing.
    """
    eps = Fraction(eps)
    if not 0 < eps < 1:
        raise InputError(f"eps must lie in (0, 1), got {eps}")
    _check_scheme(scheme)
    _require_hypotheses(model)
    p, tables = ({}, {}), ([], [])
    for i in (0, 1):
        for (levels, holders), table in zip(model.groups(i), _tables(model, i)):
            tables[i].append(mixed := _mixed(table, _level_masses(levels, eps, scheme)))
            belief = {w1: Fraction(n, mixed.den) for w1, n in mixed.weights[0]}
            p[i].update(dict.fromkeys(holders, belief))
    out = ProbKripkeModel(model.base, p)
    _check_output(model, out, eps)
    out._memo("_tables", lambda _: [tuple(t) for t in tables])
    return out


def _check_output(source: OrderedKripkeModel, out: ProbKripkeModel, eps: Fraction) -> None:
    """Reject a member that is not a valid, cautious model meeting the eps bound.

    Worlds that share a member belief share their source levels, so the
    off-primary bound is checked once per kept belief group.
    """
    for v in validate_beliefs(out):
        # Belief constancy can only fail where the source levels already
        # varied inside a class; everything else is a construction bug.
        if v.kind == "p-constancy" and check_constancy(source):
            continue
        raise InputError(f"built model is invalid: {v}")
    if check_caution(out):
        raise InputError("built model lost caution")
    n, d = eps.numerator, eps.denominator
    for i in (0, 1):
        for dist, holders in out.groups(i):
            level1 = source.lam[i][holders[0]][0]
            for w1, weight in dist.items():
                if w1 not in level1 and weight.numerator * d > n * weight.denominator:
                    raise InputError(
                        f"weight {weight} on off-primary world {w1} exceeds eps {eps}")


class ConvergenceRow(NamedTuple):
    n: int
    eps: Fraction
    rat: tuple[str, ...]
    upper_cb: tuple[str, ...]


class ConvergenceReport(NamedTuple):
    rows: tuple[ConvergenceRow, ...]
    cb1_lrat: tuple[str, ...]
    tails: tuple[tuple[int, tuple[str, ...]], ...]
    stabilization_index: int
    stabilized: tuple[str, ...]
    matches: bool


def _above(table: _LevelTable, masses: list[int], eps: Fraction) -> frozenset[str]:
    """The worlds the member weights strictly above eps = a/b: m_k·n·b > a·Σm·den.

    A deeper level's world there breaks the member's off-primary bound, and
    raises ``_check_output``'s message.
    """
    a, b = eps.numerator, eps.denominator
    total = sum(masses) * table.den
    bar = a * total
    out = []
    for k, (mass, level) in enumerate(zip(masses, table.weights)):
        scaled = mass * b
        for w1, n in level:
            if scaled * n > bar:
                if k:
                    raise InputError(f"weight {Fraction(mass * n, total)} on off-primary "
                                     f"world {w1} exceeds eps {eps}")
                out.append(w1)
    return frozenset(out)


def _member_events(
    model: OrderedKripkeModel, eps: Fraction, scheme: str
) -> tuple[frozenset[str], frozenset[str]]:
    """RAT of the member at ``eps`` and upper common belief in it, read from the level tables."""
    rational, views = [], []
    for i in (0, 1):
        playing, view = [], {}
        for (levels, holders), table in zip(model.groups(i), _tables(model, i)):
            masses = _level_masses(levels, eps, scheme)
            values = [_dot(masses, u) for u in table.utility]
            playing += _at_best(model, i, holders, values)
            view.update(dict.fromkeys(holders, _above(table, masses, eps)))
        rational.append(frozenset(playing))
        views.append(view.__getitem__)
    rat_event = rational[0] & rational[1]
    return rat_event, common(model, tuple(views), rat_event)


def verify_convergence(
    model: OrderedKripkeModel,
    schedule: EpsilonSchedule,
    scheme: str = "perfect",
) -> ConvergenceReport:
    """Compare the tail of upper common belief in rationality with its limit.

    Computes, for each threshold, rationality and common belief above the
    threshold in it for the family member, and reports every tail
    intersection, the index where the tail stops changing, and whether the
    stabilized set equals common primary belief in lexicographic
    rationality on the source model.  The rows are read from the level
    table the source keeps per group, so a source that ``lrat`` or an
    earlier call has read is pushed no more; the limit is read from
    ``lrat`` on the same tables.  No member is built.
    """
    _check_scheme(scheme)
    _require_hypotheses(model)
    rows = []
    events = []
    for n, eps in enumerate(schedule.values()):
        rat_event, cb = _member_events(model, eps, scheme)
        events.append(cb)
        rows.append(ConvergenceRow(n, eps, model.order(rat_event), model.order(cb)))
    limit = common_level1_belief(model, lrat(model)[1])

    # The tail after m intersects the events from m + 1 on: one pass from the last event back.
    tails = []
    tail = frozenset(model.worlds)
    for n in reversed(range(len(events))):
        tail &= events[n]
        tails.append((n - 1, model.order(tail)))
    tails.reverse()
    stabilized = tails[-1][1]
    # Tails grow with m, so every tail from the first equal to the last is the last.
    stab_index = next(m for m, t in tails if t == stabilized)
    return ConvergenceReport(
        rows=tuple(rows),
        cb1_lrat=model.order(limit),
        tails=tuple(tails),
        stabilization_index=stab_index,
        stabilized=stabilized,
        matches=stabilized == model.order(limit),
    )
