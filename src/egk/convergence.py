"""Probabilistic model families built from an ordered model, and their limit checks.

An ordered model with disjoint level supports and surjective levels induces,
for each eps, a probabilistic model on the same frame: level k receives
total mass proportional to eps^(k-1) (the ``perfect`` scheme), distributed
within the level proportionally to the level weights.  The ``proper``
scheme additionally forces every deeper-level weight to be at most eps
times every shallower-level weight.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, NamedTuple, Sequence

from .errors import InputError
from .frozen import Frozen
from .kripke import (
    ProbKripkeModel,
    check_caution,
    check_constancy,
    per_belief,
    rat,
    validate_beliefs,
    validate_standard,
)
from .ordered import (
    OrderedKripkeModel,
    check_structural_conditions,
    common_level1_belief,
    lrat,
)
from .epsilon import upper_common_belief

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
    structural = check_structural_conditions(model)
    if not structural.disjoint_supports:
        raise InputError(f"level supports are not disjoint: {structural.violations[0]}")
    if not structural.surjection:
        raise InputError(f"levels are not surjective: {structural.violations[0]}")
    # Every family member shares the source's frame, so its axioms are
    # checked here once, reported as the first member's defect.
    frame = validate_standard(model.base)
    if frame:
        raise InputError(f"built model is invalid: {frame[0]}")
    for v in validate_beliefs(model):
        if v.kind in ("lambda-negative", "lambda-sum", "lambda-support"):
            raise InputError(f"ordered model is invalid: {v}")


def _level_masses(levels, eps: Fraction, scheme: str) -> list[Fraction]:
    """Unnormalized per-level masses, scaled so that off-level-1 mass <= eps."""
    k = len(levels)
    if scheme == "perfect":
        masses = [eps ** idx for idx in range(k)]
    else:
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
    return masses


def build_epsilon_model(
    model: OrderedKripkeModel, eps: Fraction, scheme: str = "perfect"
) -> ProbKripkeModel:
    """The probabilistic model at threshold ``eps`` over the same frame."""
    eps = Fraction(eps)
    if not 0 < eps < 1:
        raise InputError(f"eps must lie in (0, 1), got {eps}")
    _check_scheme(scheme)
    _require_hypotheses(model)
    return _build_member(model, eps, scheme)


def _build_member(model: OrderedKripkeModel, eps: Fraction, scheme: str) -> ProbKripkeModel:
    """Build and check one family member; the source-only checks are the caller's.

    Each of the source's kept belief groups gets one belief, built once and
    shared by its worlds, so every reader of the member evaluates it once.
    """
    p = tuple(per_belief(model.groups(i), lambda levels: _member_belief(levels, eps, scheme))
              for i in (0, 1))
    out = ProbKripkeModel(model.base, p)
    _check_output(model, out, eps, not check_constancy(model))
    return out


def _member_belief(levels, eps: Fraction, scheme: str) -> dict[str, Fraction]:
    masses = _level_masses(levels, eps, scheme)
    total = sum(masses, Fraction(0))
    dist: dict[str, Fraction] = {}
    for mass, level in zip(masses, levels):
        scale = mass / total
        for w1, v in level.items():
            dist[w1] = scale * v
    return dist


def _check_output(
    source: OrderedKripkeModel, out: ProbKripkeModel, eps: Fraction, lam_constant: bool
) -> None:
    """Reject a member that is not a valid, cautious model meeting the eps bound.

    Worlds that share a member belief share their source levels, so the
    off-primary bound is checked once per kept belief group.
    """
    for v in validate_beliefs(out):
        # Belief constancy can only fail where the source levels already
        # varied inside a class; everything else is a construction bug.
        if v.kind == "p-constancy" and not lam_constant:
            continue
        raise InputError(f"built model is invalid: {v}")
    if check_caution(out):
        raise InputError("built model lost caution")
    for i in (0, 1):
        for dist, holders in out.groups(i):
            level1 = source.lam[i][holders[0]][0]
            for w1, weight in dist.items():
                if w1 not in level1 and weight > eps:
                    raise InputError(
                        f"weight {weight} on off-primary world {w1} exceeds eps {eps}")


def check_proper_ratio(
    source: OrderedKripkeModel, out: ProbKripkeModel, eps: Fraction
) -> list[str]:
    """Deeper-level weights must be at most eps times shallower-level weights."""
    eps = Fraction(eps)
    problems = []
    for i in (0, 1):
        for w in source.worlds:
            levels = source.lam[i][w]
            for hi in range(len(levels)):
                for lo in range(hi + 1, len(levels)):
                    for w_hi in levels[hi]:
                        for w_lo in levels[lo]:
                            if out.p[i][w][w_lo] > eps * out.p[i][w][w_hi]:
                                problems.append(
                                    f"player {source.game.players[i]}: at {w}, weight of {w_lo} "
                                    f"(level {lo + 1}) exceeds eps times weight of {w_hi} "
                                    f"(level {hi + 1})")
    return problems


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


def verify_convergence(
    model: OrderedKripkeModel,
    schedule: EpsilonSchedule,
    scheme: str = "perfect",
    on_member: Callable[[int, ProbKripkeModel], None] | None = None,
) -> ConvergenceReport:
    """Compare the tail of upper common belief in rationality with its limit.

    Builds the family over the schedule, computes common belief above each
    threshold in rationality per member, and reports every tail
    intersection, the index where the tail stops changing, and whether the
    stabilized set equals common primary belief in lexicographic
    rationality on the source model.  ``on_member(n, member)``, if given,
    receives each member as it is built, so a caller can keep or write the
    family without building it again.
    """
    _check_scheme(scheme)
    _require_hypotheses(model)
    eps_values = schedule.values()
    rows = []
    events = []
    for n, eps in enumerate(eps_values):
        built = _build_member(model, eps, scheme)
        if on_member is not None:
            on_member(n, built)
        _, rat_event = rat(built)
        cb = upper_common_belief(built, eps, rat_event)
        events.append(cb)
        rows.append(ConvergenceRow(n, eps, model.order(rat_event), model.order(cb)))
    _, lrat_event = lrat(model)
    limit = common_level1_belief(model, lrat_event)

    tails = []
    count = len(eps_values)
    for m in range(-1, count - 1):
        tail = frozenset(model.worlds)
        for n in range(m + 1, count):
            tail &= events[n]
        tails.append((m, model.order(tail)))
    stabilized = tails[-1][1]
    stab_index = next(m for m, t in tails if all(
        t2 == stabilized for m2, t2 in tails if m2 >= m))
    return ConvergenceReport(
        rows=tuple(rows),
        cb1_lrat=model.order(limit),
        tails=tuple(tails),
        stabilization_index=stab_index,
        stabilized=stabilized,
        matches=stabilized == model.order(limit),
    )


class LimitReport(NamedTuple):
    vanishing: tuple[str, ...]
    primary: tuple[str, ...]
    proportions: tuple[str, ...]

    @property
    def holds(self) -> bool:
        return not (self.vanishing or self.primary or self.proportions)


def check_limit_conditions(
    model: OrderedKripkeModel,
    family: Sequence[ProbKripkeModel],
    schedule: EpsilonSchedule,
) -> LimitReport:
    """Finite checks of the three convergence clauses along the family.

    Off-primary weights must stay below each threshold and decrease;
    primary-support weights must track the level-1 weight within the total
    off-level mass; within-level proportions must match the level weights
    exactly at every member.
    """
    eps_values = schedule.values()
    if len(family) != len(eps_values):
        raise InputError("family and schedule lengths differ")
    vanishing, primary, proportions = [], [], []
    for i in (0, 1):
        name = model.game.players[i]
        for w in model.worlds:
            levels = model.lam[i][w]
            level1 = levels[0]
            off_support = [w1 for dist in levels[1:] for w1 in dist]
            prev: dict[str, Fraction] = {}
            for n, (eps, built) in enumerate(zip(eps_values, family)):
                dist = built.p[i][w]
                off_mass = sum((v for w1, v in dist.items() if w1 not in level1), Fraction(0))
                for w1 in off_support:
                    v = dist.get(w1, Fraction(0))
                    if v > eps:
                        vanishing.append(
                            f"player {name}: off-primary weight of {w1} at {w} is {v} > {eps}")
                    if w1 in prev and v >= prev[w1]:
                        vanishing.append(
                            f"player {name}: off-primary weight of {w1} at {w} did not "
                            f"decrease at step {n}")
                    prev[w1] = v
                for w1, lv in level1.items():
                    if abs(dist.get(w1, Fraction(0)) - lv) > off_mass:
                        primary.append(
                            f"player {name}: weight of {w1} at {w} strays from its primary "
                            f"weight by more than the off-level mass at step {n}")
                for dist_k in levels:
                    items = list(dist_k.items())
                    for (wa, va), (wb, vb) in zip(items, items[1:]):
                        if dist.get(wa, Fraction(0)) * vb != dist.get(wb, Fraction(0)) * va:
                            proportions.append(
                                f"player {name}: within-level proportion of {wa}:{wb} at {w} "
                                f"broken at step {n}")
    return LimitReport(tuple(vanishing), tuple(primary), tuple(proportions))
