"""Independent brute-force oracles for the test suite.

The dominance oracle never touches the simplex solver: it combines a dense
rational grid over the dominator simplex (common denominator 24) with exact
vertex checks, solving every small system of tight constraints by Gaussian
elimination.  For at most three dominator strategies the vertex sweep is a
complete decision procedure, so the oracle is exact, not just a sampler.

``reference_maximize`` is the plain ``Fraction``-tableau simplex with Bland's
rule; the condensed fraction-free :func:`egk.lp.maximize` must return exactly
its results.

``reference_strictly_dominated``, ``reference_weakly_dominated`` and
``reference_justifying_belief`` decide every test by its LP on ``Fraction``
payoffs, solved by ``reference_maximize``, with no pure best-reply screen,
and ``reference_elimination`` runs DF or IESDS rounds on them; the screened
tests in :mod:`egk.dominance`, whose LPs are built from the game's compiled
integer rows, must give exactly their dominators, beliefs, rounds and
survivors.

``reference_rat``, ``reference_lrat`` and ``reference_optimal_strategies`` are
the per-candidate ``Fraction`` best-reply routines that rebuild a
``MixedStrategy`` for every candidate strategy (``lex_utility_vector`` is
their level-wise expected utility), and
``reference_strategy_marginal`` the ``Fraction`` push-forward of a type's
level; the integer best-reply kernel in :mod:`egk.games` must give exactly
their results and errors.

``ReferenceLexEpistemicModel`` and ``ReferenceProbEpistemicModel`` are the
two type-model constructors written out once per flavor, with
``reference_type_caution``, ``reference_primary_belief_in_rationality`` and
``reference_eps_trembling`` as separate loops over them; the type models
built on one core in :mod:`egk.epistemic` must give exactly their cleaned
beliefs, predicate values and errors.

``reference_belief``, ``reference_common_belief``, ``reference_level1_belief``,
``reference_common_level1_belief``, ``reference_upper_belief``,
``reference_upper_common_belief`` and ``reference_upper_access`` are the
belief operators as separate per-world loops; the operators built on
:func:`egk.kripke.box` must give exactly their results and errors.

``reference_build_member`` builds a family member world by world, one new
belief per world; the member built once per distinct source belief must
have exactly its weights.

``reference_types_from_kripke`` quotients a probabilistic Kripke model by
summing every world's belief in ``Fraction``s, and
``reference_eps_permissible`` runs the eps-permissibility fixed point on the
reference predicates; the quotient summed once per kept belief group in
integers must give exactly their labels, beliefs, world types and
permissible strategies.

``reference_frame_violations`` walks every (w, w1, w2) triple of each
player's accessibility; :func:`egk.kripke.validate_standard`, which walks w2
only for a pair that fails one set inclusion, must give exactly its
violations, in order.

``ReferenceProbKripkeModel`` and ``ReferenceOrderedKripkeModel`` are the two
Kripke-model constructors written out once per flavor, with
``reference_validate_beliefs``, ``reference_validate_levels``,
``reference_check_lambda_constancy``, ``reference_check_caution`` and
``reference_check_prob_caution`` as separate checks over them; the models
built on one belief core in :mod:`egk.kripke` must give exactly their
errors, cleaned beliefs and violations, in order, and the belief groups
each model keeps must be those of ``reference_belief_groups``.

``reference_model_from_json`` is the model file loader with no parse cache:
every world's access list and belief is parsed on its own.  The loader,
which parses each distinct raw spelling once, must give exactly its model,
item order and ``FormatError`` text.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence
from unittest import mock

from egk import modelio
from egk.convergence import _check_output, _level_masses
from egk.dominance import Elimination, EliminationRound, Restriction
from egk.epistemic import LexEpistemicModel, Pair
from egk.errors import InputError
from egk.games import (
    GREATER,
    Game,
    MixedStrategy,
    expected_utility,
    lex_compare,
    other,
)
from egk.kripke import (
    ProbKripkeModel,
    StandardKripkeModel,
    Violation,
    exact_weights,
    weight_sum,
)
from egk.ordered import OrderedKripkeModel
from egk.lp import INFEASIBLE, OPTIMAL, UNBOUNDED, LPResult

GRID_DENOMINATOR = 24

_ZERO = Fraction(0)
_ONE = Fraction(1)


def payoff(game: Game, i: int, s_i: str, s_j: str) -> Fraction:
    return game.payoff(i, s_i, s_j) if i == 0 else game.payoff(i, s_j, s_i)


def diff_matrix(game, r, i, s_i):
    """Rows: candidate dominators; columns: opponent strategies; entries u(t)-u(s_i)."""
    cands = [t for t in r.sets[i] if t != s_i]
    opps = list(r.sets[1 - i])
    return cands, opps, [
        [payoff(game, i, t, o) - payoff(game, i, s_i, o) for o in opps] for t in cands
    ]


def grid_points(k: int, denominator: int = GRID_DENOMINATOR):
    """All weight vectors with the given common denominator summing to one."""
    for combo in itertools.combinations(range(denominator + k - 1), k - 1):
        cuts = (-1,) + combo + (denominator + k - 1,)
        parts = [cuts[m + 1] - cuts[m] - 1 for m in range(k)]
        yield [Fraction(p, denominator) for p in parts]


def solve_square(a, b):
    """Exact Gaussian elimination; None when the system is singular."""
    n = len(a)
    m = [row[:] + [b[idx]] for idx, row in enumerate(a)]
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col] != 0), None)
        if piv is None:
            return None
        m[col], m[piv] = m[piv], m[col]
        inv = m[col][col]
        m[col] = [v / inv for v in m[col]]
        for r in range(n):
            if r != col and m[r][col] != 0:
                f = m[r][col]
                m[r] = [v - f * w for v, w in zip(m[r], m[col])]
    return [m[r][n] for r in range(n)]


def _candidate_points(diffs, k, n_opp):
    """Grid points plus every vertex of the tight-constraint arrangement.

    Hyperplanes: w_t = 0, margin_c = 0, and margin_c = margin_d, intersected
    with the weight simplex.  Any optimum of a linear or piecewise-linear
    concave objective over the feasible region sits at one of these points.
    """
    for pt in grid_points(k):
        yield pt
    planes = []
    for t in range(k):
        row = [Fraction(0)] * k
        row[t] = Fraction(1)
        planes.append((row, Fraction(0)))
    for c in range(n_opp):
        planes.append(([diffs[t][c] for t in range(k)], Fraction(0)))
    for c in range(n_opp):
        for d in range(c + 1, n_opp):
            planes.append(([diffs[t][c] - diffs[t][d] for t in range(k)], Fraction(0)))
    ones = ([Fraction(1)] * k, Fraction(1))
    for subset in itertools.combinations(planes, k - 1):
        rows = [ones[0]] + [p[0] for p in subset]
        rhs = [ones[1]] + [p[1] for p in subset]
        sol = solve_square(rows, rhs)
        if sol is not None and all(v >= 0 for v in sol):
            yield sol


def oracle_strictly_dominated(game, r, i, s_i) -> bool:
    """True iff some mixture beats s_i strictly against every opponent strategy."""
    cands, opps, diffs = diff_matrix(game, r, i, s_i)
    if not cands:
        return False
    k, n_opp = len(cands), len(opps)
    best = None
    for w in _candidate_points(diffs, k, n_opp):
        margin = min(
            sum((w[t] * diffs[t][c] for t in range(k)), Fraction(0)) for c in range(n_opp)
        )
        if best is None or margin > best:
            best = margin
    return best is not None and best > 0


def oracle_weakly_dominated(game, r, i, s_i) -> bool:
    """True iff some mixture is never worse and somewhere better than s_i."""
    cands, opps, diffs = diff_matrix(game, r, i, s_i)
    if not cands:
        return False
    k, n_opp = len(cands), len(opps)
    for w in _candidate_points(diffs, k, n_opp):
        margins = [
            sum((w[t] * diffs[t][c] for t in range(k)), Fraction(0)) for c in range(n_opp)
        ]
        if all(m >= 0 for m in margins) and any(m > 0 for m in margins):
            return True
    return False


def reference_frame_violations(model: StandardKripkeModel) -> list[Violation]:
    """Seriality, transitivity, Euclideanness and sigma-constancy, triple by triple."""
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


def verify_dominator(game, r, i, s_i, mix, strict: bool) -> bool:
    """Re-check a returned dominator's defining inequalities exactly."""
    margins = []
    for o in r.sets[1 - i]:
        lhs = sum(
            (w * payoff(game, i, t, o) for t, w in mix.weights.items()), Fraction(0)
        )
        margins.append(lhs - payoff(game, i, s_i, o))
    if strict:
        return all(m > 0 for m in margins)
    return all(m >= 0 for m in margins) and any(m > 0 for m in margins)


def verify_justifier(game, r, i, s_i, mix) -> bool:
    """The belief must make s_i weakly best among the restricted strategies."""
    def eu(s):
        return sum(
            (w * payoff(game, i, s, o) for o, w in mix.weights.items()), Fraction(0)
        )

    target = eu(s_i)
    return all(target >= eu(s) for s in r.sets[i])


def reference_strictly_dominated(
    game: Game, r: Restriction, i: int, s_i: str
) -> MixedStrategy | None:
    """A mixture strictly dominating ``s_i`` within ``r``, or None.

    Maximizes the minimum margin over the opponent's restricted strategies;
    ``s_i`` is dominated iff the optimum is positive.
    """
    r.check(game)
    if s_i not in r.sets[i]:
        raise InputError(f"strategy {s_i!r} is not in the restriction for player {game.players[i]!r}")
    cands = [t for t in r.sets[i] if t != s_i]
    opps = r.sets[other(i)]
    if not cands:
        return None
    k = len(cands)
    # Variables: dominator weights, then the free margin split as d+ - d-.
    c = [Fraction(0)] * k + [Fraction(1), Fraction(-1)]
    a_ub, b_ub = [], []
    for o in opps:
        row = [-payoff(game, i, t, o) for t in cands] + [Fraction(1), Fraction(-1)]
        a_ub.append(row)
        b_ub.append(-payoff(game, i, s_i, o))
    a_eq = [[Fraction(1)] * k + [Fraction(0), Fraction(0)]]
    b_eq = [Fraction(1)]
    res = reference_maximize(c, a_ub, b_ub, a_eq, b_eq)
    if res.status != OPTIMAL or res.value <= 0:
        return None
    return MixedStrategy(i, {t: w for t, w in zip(cands, res.x) if w > 0})


def reference_weakly_dominated(
    game: Game, r: Restriction, i: int, s_i: str
) -> MixedStrategy | None:
    """A mixture weakly dominating ``s_i`` within ``r``, or None.

    Maximizes total slack subject to componentwise >=; weakly dominated iff
    the optimum is positive.
    """
    r.check(game)
    if s_i not in r.sets[i]:
        raise InputError(f"strategy {s_i!r} is not in the restriction for player {game.players[i]!r}")
    cands = [t for t in r.sets[i] if t != s_i]
    opps = r.sets[other(i)]
    if not cands:
        return None
    k = len(cands)
    nm = len(opps)
    # Variables: dominator weights, then one nonnegative margin per opponent strategy.
    c = [Fraction(0)] * k + [Fraction(1)] * nm
    a_eq, b_eq = [], []
    for idx, o in enumerate(opps):
        row = [payoff(game, i, t, o) for t in cands] + [Fraction(0)] * nm
        row[k + idx] = Fraction(-1)
        a_eq.append(row)
        b_eq.append(payoff(game, i, s_i, o))
    a_eq.append([Fraction(1)] * k + [Fraction(0)] * nm)
    b_eq.append(Fraction(1))
    res = reference_maximize(c, a_eq=a_eq, b_eq=b_eq)
    if res.status != OPTIMAL or res.value <= 0:
        return None
    return MixedStrategy(i, {t: w for t, w in zip(cands, res.x) if w > 0})


def reference_justifying_belief(
    game: Game, r: Restriction, i: int, s_i: str, full_support: bool = False
) -> MixedStrategy | None:
    """An opponent belief making ``s_i`` a best response within ``r``, or None.

    With ``full_support`` the belief must put positive weight on every
    restricted opponent strategy; the LP maximizes the least weight.
    """
    r.check(game)
    if s_i not in r.sets[i]:
        raise InputError(f"strategy {s_i!r} is not in the restriction for player {game.players[i]!r}")
    j = other(i)
    opps = r.sets[j]
    nm = len(opps)
    nvars = nm + (1 if full_support else 0)
    a_ub, b_ub = [], []
    for t in r.sets[i]:
        if t == s_i:
            continue
        row = [payoff(game, i, t, o) - payoff(game, i, s_i, o) for o in opps]
        a_ub.append(row + [_ZERO] * (nvars - nm))
        b_ub.append(_ZERO)
    if full_support:
        for idx in range(nm):
            row = [_ZERO] * nvars
            row[idx] = Fraction(-1)
            row[nm] = _ONE
            a_ub.append(row)
            b_ub.append(_ZERO)
    a_eq = [[_ONE] * nm + [_ZERO] * (nvars - nm)]
    c = [_ZERO] * nvars
    if full_support:
        c[nm] = _ONE
    res = reference_maximize(c, a_ub, b_ub, a_eq, [_ONE])
    if res.status != OPTIMAL or (full_support and res.value <= 0):
        return None
    return MixedStrategy(j, {o: w for o, w in zip(opps, res.x[:nm]) if w > 0})


def reference_elimination(
    game: Game, procedure: str, decide=None
) -> tuple[Restriction, tuple[EliminationRound, ...]]:
    """``"df"`` (one weak round, then strict rounds) or ``"iesds"`` on the LP-only tests.

    ``decide(test, r, i, s)`` runs each test; by default it calls
    ``test(game, r, i, s)``, and a caller may pass one that keeps answers.
    """
    if decide is None:
        def decide(test, r, i, s):
            return test(game, r, i, s)
    r = Restriction.full(game)
    rounds = []
    phases = ["weak"] if procedure == "df" else []
    while True:
        phase = phases.pop() if phases else "strict"
        test = reference_weakly_dominated if phase == "weak" else reference_strictly_dominated
        elims = []
        for i in (0, 1):
            for s in r.sets[i]:
                dom = decide(test, r, i, s)
                if dom is not None:
                    elims.append(Elimination(i, s, dom))
        if elims:
            rounds.append(EliminationRound(phase, tuple(elims)))
            r = r.remove({i: {e.strategy for e in elims if e.player == i} for i in (0, 1)})
        elif phase == "strict":
            return r, tuple(rounds)


def reference_maximize(
    c: Sequence[Fraction],
    a_ub: Sequence[Sequence[Fraction]] = (),
    b_ub: Sequence[Fraction] = (),
    a_eq: Sequence[Sequence[Fraction]] = (),
    b_eq: Sequence[Fraction] = (),
) -> LPResult:
    """The plain ``Fraction``-tableau simplex that :func:`egk.lp.maximize` must match.

    Same problem, same Bland's rule, same phase-1 clean-up; every entry is a
    normalised ``Fraction``.  A test reference only.
    """
    c = [Fraction(v) for v in c]
    n = len(c)

    rows: list[list[Fraction]] = []
    rhs: list[Fraction] = []
    kinds: list[str] = []
    for row, b in zip(a_ub, b_ub):
        rows.append([Fraction(v) for v in row])
        rhs.append(Fraction(b))
        kinds.append("le")
    for row, b in zip(a_eq, b_eq):
        rows.append([Fraction(v) for v in row])
        rhs.append(Fraction(b))
        kinds.append("eq")
    m = len(rows)

    # One slack column per inequality row.
    nslack = kinds.count("le")
    cols = n + nslack
    tab = []
    slack_col = {}
    si = 0
    for r in range(m):
        row = rows[r] + [_ZERO] * nslack
        if kinds[r] == "le":
            slack_col[r] = n + si
            row[n + si] = _ONE
            si += 1
        tab.append(row)

    for r in range(m):
        if rhs[r] < 0:
            tab[r] = [-v for v in tab[r]]
            rhs[r] = -rhs[r]

    # Start from slack columns where they are still +1; add artificials elsewhere.
    basis = [-1] * m
    art_cols: list[int] = []
    for r in range(m):
        sc = slack_col.get(r)
        if sc is not None and tab[r][sc] == 1:
            basis[r] = sc
    for r in range(m):
        if basis[r] == -1:
            for rr in range(m):
                tab[rr].append(_ONE if rr == r else _ZERO)
            basis[r] = cols
            art_cols.append(cols)
            cols += 1
    art_set = set(art_cols)

    def pivot(rp: int, cp: int) -> None:
        pv = tab[rp][cp]
        # Zero entries of the pivot row are skipped: they leave every entry as it is.
        tab[rp] = [v / pv if v else v for v in tab[rp]]
        rhs[rp] /= pv
        prow = tab[rp]
        for r in range(len(tab)):
            if r != rp:
                f = tab[r][cp]
                if f != 0:
                    tab[r] = [a - f * b if b else a for a, b in zip(tab[r], prow)]
                    rhs[r] -= f * rhs[rp]
        basis[rp] = cp

    def run(obj: list[Fraction], banned: set[int]) -> bool:
        """Bland's rule; returns False when the objective is unbounded."""
        while True:
            lam = [obj[basis[r]] for r in range(len(tab))]
            enter = -1
            for j in range(cols):
                if j in banned:
                    continue
                red = obj[j]
                for r, l in enumerate(lam):
                    if l != 0 and tab[r][j]:
                        red -= l * tab[r][j]
                if red > 0:
                    enter = j
                    break
            if enter < 0:
                return True
            leave, best = -1, None
            for r in range(len(tab)):
                a = tab[r][enter]
                if a > 0:
                    ratio = rhs[r] / a
                    if best is None or ratio < best or (ratio == best and basis[r] < basis[leave]):
                        leave, best = r, ratio
            if leave < 0:
                return False
            pivot(leave, enter)

    if art_cols:
        obj1 = [_ZERO] * cols
        for j in art_cols:
            obj1[j] = Fraction(-1)
        run(obj1, set())
        value1 = sum((obj1[basis[r]] * rhs[r] for r in range(len(tab))), _ZERO)
        if value1 != 0:
            return LPResult(INFEASIBLE)
        # Pivot leftover artificials out of the basis; drop redundant rows.
        for r in range(len(tab) - 1, -1, -1):
            if basis[r] in art_set:
                cp = next((j for j in range(cols) if j not in art_set and tab[r][j] != 0), None)
                if cp is None:
                    tab.pop(r)
                    rhs.pop(r)
                    basis.pop(r)
                else:
                    pivot(r, cp)

    obj2 = c + [_ZERO] * (cols - n)
    if not run(obj2, art_set):
        return LPResult(UNBOUNDED)
    x = [_ZERO] * n
    for r in range(len(tab)):
        if basis[r] < n:
            x[basis[r]] = rhs[r]
    value = sum((ci * xi for ci, xi in zip(c, x)), _ZERO)
    return LPResult(OPTIMAL, value, tuple(x))


def _reference_optimal_pure(game: Game, i: int, mix_j: MixedStrategy) -> frozenset[str]:
    values = {s: expected_utility(game, i, s, mix_j) for s in game.strategies[i]}
    best = max(values.values())
    return frozenset(s for s, v in values.items() if v == best)


def _induced_mixture(model, i: int, w: str) -> MixedStrategy:
    j = other(i)
    weights: dict[str, Fraction] = {}
    for w1, v in model.p[i][w].items():
        s = model.sigma[j][w1]
        weights[s] = weights.get(s, Fraction(0)) + v
    return MixedStrategy(j, weights)


def reference_rat(model):
    """Per-player rationality events and their intersection RAT."""
    per = []
    for i in (0, 1):
        ok = set()
        for w in model.worlds:
            mix = _induced_mixture(model, i, w)
            if model.sigma[i][w] in _reference_optimal_pure(model.game, i, mix):
                ok.add(w)
        per.append(frozenset(ok))
    return (per[0], per[1]), per[0] & per[1]


def lex_utility_vector(
    game: Game, i: int, s_i: str, beliefs: Sequence[MixedStrategy]
) -> tuple[Fraction, ...]:
    """Level-wise expected utilities of ``s_i`` against a belief sequence."""
    if not beliefs:
        raise InputError("belief sequence is empty")
    return tuple(expected_utility(game, i, s_i, b) for b in beliefs)


def _level_mixture(model, i: int, w: str, k: int) -> MixedStrategy:
    j = other(i)
    weights: dict[str, Fraction] = {}
    for w1, v in model.lam[i][w][k].items():
        s = model.sigma[j][w1]
        weights[s] = weights.get(s, Fraction(0)) + v
    return MixedStrategy(j, weights)


def _lex_vector(model, i: int, w: str, s: str):
    beliefs = [_level_mixture(model, i, w, k) for k in range(len(model.lam[i][w]))]
    return lex_utility_vector(model.game, i, s, beliefs)


def reference_lrat(model):
    """Per-player lexicographic rationality events and their intersection."""
    per = []
    for i in (0, 1):
        ok = set()
        for w in model.worlds:
            vec = _lex_vector(model, i, w, model.sigma[i][w])
            beaten = any(
                lex_compare(_lex_vector(model, i, w, s), vec) == GREATER
                for s in model.game.strategies[i]
            )
            if not beaten:
                ok.add(w)
        per.append(frozenset(ok))
    return (per[0], per[1]), per[0] & per[1]


def _clean_dist(dist: Mapping[Pair, Fraction], where: str) -> dict[Pair, Fraction]:
    out = {}
    total = Fraction(0)
    for pair, v in dist.items():
        v = Fraction(v)
        if v < 0:
            raise InputError(f"{where}: negative weight {v} on {pair}")
        if v > 0:
            out[pair] = v
        total += v
    if total != 1:
        raise InputError(f"{where}: weights sum to {total}, expected 1")
    return out


@dataclass(frozen=True)
class ReferenceLexEpistemicModel:
    game: Game
    types: tuple[tuple[str, ...], tuple[str, ...]]
    beliefs: tuple[Mapping[str, tuple], Mapping[str, tuple]]

    def __post_init__(self) -> None:
        cleaned = []
        for i in (0, 1):
            j = other(i)
            if len(set(self.types[i])) != len(self.types[i]):
                raise InputError(f"duplicate type label for player {self.game.players[i]!r}")
            if set(self.beliefs[i]) != set(self.types[i]):
                raise InputError(f"beliefs of player {self.game.players[i]!r} do not cover the types")
            per = {}
            for t, levels in self.beliefs[i].items():
                if not levels:
                    raise InputError(f"type {t!r} has no belief levels")
                fixed = []
                for k, dist in enumerate(levels):
                    where = f"type {t!r} level {k + 1}"
                    d = _clean_dist(dist, where)
                    for (s_j, t_j) in d:
                        self.game.check_strategy(j, s_j)
                        if t_j not in self.types[j]:
                            raise InputError(f"{where}: unknown opponent type {t_j!r}")
                    fixed.append(d)
                per[t] = tuple(fixed)
            cleaned.append(per)
        object.__setattr__(self, "beliefs", tuple(cleaned))

    def check_type(self, i: int, t: str) -> None:
        if t not in self.types[i]:
            raise InputError(f"unknown type {t!r} for player {self.game.players[i]!r}")

    def levels(self, i: int, t: str) -> tuple:
        self.check_type(i, t)
        return self.beliefs[i][t]


@dataclass(frozen=True)
class ReferenceProbEpistemicModel:
    game: Game
    types: tuple[tuple[str, ...], tuple[str, ...]]
    beliefs: tuple[Mapping[str, Mapping[Pair, Fraction]], Mapping[str, Mapping[Pair, Fraction]]]

    def __post_init__(self) -> None:
        cleaned = []
        for i in (0, 1):
            j = other(i)
            if len(set(self.types[i])) != len(self.types[i]):
                raise InputError(f"duplicate type label for player {self.game.players[i]!r}")
            if set(self.beliefs[i]) != set(self.types[i]):
                raise InputError(f"beliefs of player {self.game.players[i]!r} do not cover the types")
            per = {}
            for t, dist in self.beliefs[i].items():
                d = _clean_dist(dist, f"type {t!r}")
                for (s_j, t_j) in d:
                    self.game.check_strategy(j, s_j)
                    if t_j not in self.types[j]:
                        raise InputError(f"type {t!r}: unknown opponent type {t_j!r}")
                per[t] = d
            cleaned.append(per)
        object.__setattr__(self, "beliefs", tuple(cleaned))

    def check_type(self, i: int, t: str) -> None:
        if t not in self.types[i]:
            raise InputError(f"unknown type {t!r} for player {self.game.players[i]!r}")

    def belief(self, i: int, t: str) -> Mapping[Pair, Fraction]:
        self.check_type(i, t)
        return self.beliefs[i][t]


def _level_dists(model, i: int, t: str) -> tuple:
    if isinstance(model, (LexEpistemicModel, ReferenceLexEpistemicModel)):
        return model.levels(i, t)
    return (model.belief(i, t),)


def _deems_possible(model, i: int, t: str) -> frozenset[str]:
    model.check_type(i, t)
    out = set()
    for dist in _level_dists(model, i, t):
        for (_, t_j) in dist:
            out.add(t_j)
    return frozenset(out)


def _deems_pair_possible(model, i: int, t: str, pair: Pair) -> bool:
    return any(pair in dist for dist in _level_dists(model, i, t))


def reference_type_caution(model, i: int, t: str) -> bool:
    """Each deemed opponent type must be paired with every opponent strategy."""
    j = other(i)
    for t_j in _deems_possible(model, i, t):
        for s_j in model.game.strategies[j]:
            if not _deems_pair_possible(model, i, t, (s_j, t_j)):
                return False
    return True


def reference_primary_belief_in_rationality(model, i: int, t: str) -> bool:
    """The primary belief weights only pairs whose strategy is optimal for its type."""
    model.check_type(i, t)
    j = other(i)
    primary = model.levels(i, t)[0]
    for (s_j, t_j) in primary:
        if s_j not in reference_optimal_strategies(model, j, t_j):
            return False
    return True


def reference_eps_trembling(model, i: int, t: str, eps: Fraction) -> bool:
    """Pairs whose strategy is not optimal for its type weigh at most ``eps``."""
    model.check_type(i, t)
    eps = Fraction(eps)
    j = other(i)
    for (s_j, t_j), v in model.belief(i, t).items():
        if s_j not in reference_optimal_strategies(model, j, t_j) and v > eps:
            return False
    return True


def reference_strategy_marginal(model, i: int, t: str, k: int = 0) -> MixedStrategy:
    """Marginal of level ``k`` (0-based) on opponent strategies."""
    dists = _level_dists(model, i, t)
    weights: dict[str, Fraction] = {}
    for (s_j, _), v in dists[k].items():
        weights[s_j] = weights.get(s_j, Fraction(0)) + v
    return MixedStrategy(other(i), weights)


def _utility_vector(model, i: int, t: str, s: str):
    dists = _level_dists(model, i, t)
    return tuple(
        expected_utility(model.game, i, s, reference_strategy_marginal(model, i, t, k))
        for k in range(len(dists))
    )


def reference_optimal_strategies(model, i: int, t: str) -> frozenset[str]:
    """Strategies not lexicographically beaten under ``t``'s belief levels."""
    model.check_type(i, t)
    vectors = {s: _utility_vector(model, i, t, s) for s in model.game.strategies[i]}
    out = set()
    for s, vec in vectors.items():
        if not any(lex_compare(v2, vec) == GREATER for v2 in vectors.values()):
            out.add(s)
    return frozenset(out)


def reference_belief(model, i: int, event):
    """Worlds whose accessible set for player ``i`` lies inside the event."""
    base = model.base if isinstance(model, ProbKripkeModel) else model
    ev = base.event(event)
    return frozenset(w for w in base.worlds if base.access[i][w] <= ev)


def reference_common_belief(model, event):
    """Worlds whose union of accessible sets lies inside the event."""
    base = model.base if isinstance(model, ProbKripkeModel) else model
    ev = base.event(event)
    return frozenset(w for w in base.worlds if (base.access[0][w] | base.access[1][w]) <= ev)


def _level1_access(model, i: int, w: str) -> frozenset[str]:
    return frozenset(model.lam[i][w][0])


def reference_level1_belief(model, i: int, event):
    """Worlds whose primary-belief support for player ``i`` lies inside the event."""
    ev = model.event(event)
    return frozenset(w for w in model.worlds if _level1_access(model, i, w) <= ev)


def reference_common_level1_belief(model, event):
    """Worlds whose union of primary-belief supports lies inside the event."""
    ev = model.event(event)
    return frozenset(
        w for w in model.worlds
        if (_level1_access(model, 0, w) | _level1_access(model, 1, w)) <= ev
    )


def _check_eps(eps: Fraction) -> Fraction:
    eps = Fraction(eps)
    if not 0 < eps < Fraction(1, 2):
        raise InputError(f"threshold must lie in (0, 1/2), got {eps}")
    return eps


def reference_upper_access(model, i: int, w: str, eps: Fraction) -> frozenset[str]:
    """Accessible worlds with belief weight strictly above ``eps``."""
    eps = _check_eps(eps)
    return frozenset(w1 for w1, v in model.p[i][w].items() if v > eps)


def reference_upper_belief(model, i: int, eps: Fraction, event):
    eps = _check_eps(eps)
    ev = model.event(event)
    return frozenset(
        w for w in model.worlds
        if frozenset(w1 for w1, v in model.p[i][w].items() if v > eps) <= ev
    )


def reference_upper_common_belief(model, eps: Fraction, event):
    eps = _check_eps(eps)
    ev = model.event(event)
    out = set()
    for w in model.worlds:
        union = set()
        for i in (0, 1):
            union |= {w1 for w1, v in model.p[i][w].items() if v > eps}
        if union <= ev:
            out.add(w)
    return frozenset(out)


def reference_build_member(
    model: OrderedKripkeModel, eps: Fraction, scheme: str, lam_constant: bool
) -> ProbKripkeModel:
    """Build and check one family member; the source-only checks are the caller's."""
    p: list[dict[str, dict[str, Fraction]]] = [{}, {}]
    for i in (0, 1):
        for w in model.worlds:
            levels = model.lam[i][w]
            masses = _level_masses(levels, eps, scheme)
            total = sum(masses, Fraction(0))
            dist: dict[str, Fraction] = {}
            for mass, level in zip(masses, levels):
                scale = mass / total
                for w1, v in level.items():
                    dist[w1] = scale * v
            p[i][w] = dist
    out = ProbKripkeModel(model.base, (p[0], p[1]))
    _check_output(model, out, eps, lam_constant)
    return out


def reference_model_from_json(data):
    """``modelio.model_from_json`` with every access list and belief read at its own world."""
    with mock.patch.object(modelio, "_read_once", lambda cache, read, raw, where: read(raw, where)):
        return modelio.model_from_json(data)


def reference_belief_groups(worlds, beliefs):
    """Each distinct belief object with its worlds, in order of first world, by a walk over ``worlds``."""
    groups = {}
    for w in worlds:
        groups.setdefault(id(beliefs[w]), (beliefs[w], []))[1].append(w)
    return list(groups.values())


def _per_belief(worlds, beliefs, f):
    """``f`` of each world's belief, evaluated once per distinct belief object."""
    out = {}
    for belief, holders in reference_belief_groups(worlds, beliefs):
        value = f(belief)
        for w in holders:
            out[w] = value
    return out


class _ReferenceFramed:
    """The frame's fields, read through ``base`` as on the package's models."""

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


@dataclass(frozen=True)
class ReferenceProbKripkeModel(_ReferenceFramed):
    base: StandardKripkeModel
    p: tuple[Mapping[str, Mapping[str, Fraction]], Mapping[str, Mapping[str, Fraction]]]

    def __post_init__(self) -> None:
        base, p = self.base, self.p
        wset = set(base.worlds)
        cleaned = []
        for i in (0, 1):
            if set(p[i]) != wset:
                raise InputError(f"belief map of player {base.game.players[i]!r} does not cover the worlds")
            # Worlds that share a belief object keep sharing the cleaned one.
            per = dict.fromkeys(p[i])
            for dist, holders in reference_belief_groups(base.worlds, p[i]):
                bad = set(dist) - wset
                if bad:
                    raise InputError(f"belief at {holders[0]!r} weights unknown worlds {sorted(bad)}")
                clean = exact_weights(dist)
                for w in holders:
                    per[w] = clean
            cleaned.append(per)
        object.__setattr__(self, "p", tuple(cleaned))


@dataclass(frozen=True)
class ReferenceOrderedKripkeModel(_ReferenceFramed):
    base: StandardKripkeModel
    lam: tuple[Mapping[str, tuple], Mapping[str, tuple]]

    def __post_init__(self) -> None:
        base, lam = self.base, self.lam
        wset = set(base.worlds)
        cleaned = []
        for i in (0, 1):
            if set(lam[i]) != wset:
                raise InputError(f"belief levels of player {base.game.players[i]!r} do not cover the worlds")
            # Worlds that share a level sequence object keep sharing the cleaned one.
            per = dict.fromkeys(lam[i])
            for levels, holders in reference_belief_groups(base.worlds, lam[i]):
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
        object.__setattr__(self, "lam", tuple(cleaned))


def _reference_belief_ids(worlds, beliefs, levels) -> dict[str, int]:
    ids: dict[tuple, int] = {}
    return _per_belief(worlds, beliefs, lambda belief: ids.setdefault(tuple(
        tuple(sorted((t, v.numerator, v.denominator) for t, v in dist.items()))
        for dist in levels(belief)), len(ids)))


def _one_level(dist):
    return (dist,)


def _as_levels(levels):
    return levels


def reference_validate_beliefs(model) -> list[Violation]:
    """Measure constraints and constancy of p_i, without the frame's axioms."""
    out = []
    for i in (0, 1):
        name = model.game.players[i]
        p = model.p[i]
        measure = _per_belief(model.worlds, p, lambda dist: (
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
        belief_id = _reference_belief_ids(model.worlds, p, _one_level)
        for w in model.worlds:
            for w1 in model.access[i][w]:
                if belief_id[w1] != belief_id[w]:
                    out.append(Violation(
                        "p-constancy", i, (w, w1),
                        f"player {name}: belief at {w1} differs from belief at {w} "
                        f"although {w1} is accessible from {w}"))
    return out


def reference_validate_levels(model) -> list[Violation]:
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


def reference_level_ids(model) -> tuple[dict[str, int], dict[str, int]]:
    """Per player, ids that two worlds share exactly when their level sequences are equal."""
    return (_reference_belief_ids(model.worlds, model.lam[0], _as_levels),
            _reference_belief_ids(model.worlds, model.lam[1], _as_levels))


def reference_check_lambda_constancy(
    model, ids: tuple[dict[str, int], dict[str, int]] | None = None
) -> list[Violation]:
    """Constancy of the level sequence on accessibility classes."""
    if ids is None:
        ids = reference_level_ids(model)
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


def reference_check_caution(model) -> list[Violation]:
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


def reference_check_prob_caution(model) -> list[Violation]:
    """Every opponent strategy must get positive weight in every belief."""
    out = []
    for i in (0, 1):
        j = other(i)
        name = model.game.players[i]
        strategy_of = model.sigma[j]
        strategies = model.game.strategies[j]

        def unweighted(dist) -> list[str]:
            seen = {strategy_of[w1] for w1 in dist}
            return [s_j for s_j in strategies if s_j not in seen]

        missing = _per_belief(model.worlds, model.p[i], unweighted)
        for w in model.worlds:
            for s_j in missing[w]:
                out.append(Violation(
                    "caution", i, (w, s_j),
                    f"player {name}: belief at {w} gives no weight to a world "
                    f"where the opponent plays {s_j!r}"))
    return out


def reference_types_from_kripke(model):
    """The type quotient with every belief summed world by world in ``Fraction``s."""
    from egk.epistemic import ProbEpistemicModel

    worlds = model.worlds
    classes = [{w: 0 for w in worlds}, {w: 0 for w in worlds}]
    while True:
        changed = False
        for i in (0, 1):
            j = other(i)
            sig_ids: dict[tuple, int] = {}

            def signature(dist) -> int:
                agg: dict[tuple[str, int], Fraction] = {}
                for w1, v in dist.items():
                    key = (model.sigma[j][w1], classes[j][w1])
                    agg[key] = agg.get(key, Fraction(0)) + v
                return sig_ids.setdefault(tuple(sorted(agg.items())), len(sig_ids))

            sig = _per_belief(worlds, model.p[i], signature)
            relabel: dict[tuple, int] = {}
            new = {w: relabel.setdefault((classes[i][w], sig[w]), len(relabel)) for w in worlds}
            if new != classes[i]:
                classes[i] = new
                changed = True
        if not changed:
            break

    labels = [tuple(f"t{i + 1}_{cid + 1}" for cid in range(len(set(classes[i].values()))))
              for i in (0, 1)]
    beliefs = []
    for i in (0, 1):
        j = other(i)
        per = {}
        for w in worlds:
            label = labels[i][classes[i][w]]
            if label in per:
                continue
            dist: dict[Pair, Fraction] = {}
            for w1, v in model.p[i][w].items():
                pair = (model.sigma[j][w1], labels[j][classes[j][w1]])
                dist[pair] = dist.get(pair, Fraction(0)) + v
            per[label] = dist
        beliefs.append(per)
    tmodel = ProbEpistemicModel(model.game, (labels[0], labels[1]), (beliefs[0], beliefs[1]))
    world_types = {
        w: (labels[0][classes[0][w]], labels[1][classes[1][w]]) for w in worlds}
    return tmodel, world_types


def reference_eps_permissible(model, eps: Fraction):
    """Strategies optimal for a type that survives common full belief in caution and eps-trembling.

    Each predicate and each type's optimal strategies are the reference loops above.
    """
    alive = [{t for t in model.types[i]
              if reference_type_caution(model, i, t) and reference_eps_trembling(model, i, t, eps)}
             for i in (0, 1)]
    changed = True
    while changed:
        changed = False
        for i in (0, 1):
            for t in sorted(alive[i]):
                if not _deems_possible(model, i, t) <= alive[other(i)]:
                    alive[i].discard(t)
                    changed = True
    return tuple(frozenset().union(*(reference_optimal_strategies(model, i, t) for t in alive[i]))
                 for i in (0, 1))
