"""The integer best-reply kernel against the per-candidate ``Fraction`` routines.

Games draw their payoffs from {0, 1} or from a four-value set, so level-1
ties that only a deeper level breaks are common; worlds draw their beliefs from a small
pool, so beliefs repeat across worlds and across classes; and in half of
the models a share of the pool is raw weights, so per-strategy totals may
be negative or not sum to 1, where both sides must raise the same
``InputError``.
"""

from fractions import Fraction as F
from pathlib import Path

from hypothesis import example, given, settings, strategies as st

from egk import modelio
from egk.epistemic import (
    LexEpistemicModel,
    ProbEpistemicModel,
    optimal_strategies,
)
from egk.errors import InputError
from egk.fixtures import myerson_ordered_model, myerson_prob_model
from egk.games import Game
from egk.kripke import ProbKripkeModel, StandardKripkeModel, best_reply_worlds, rat
from egk.ordered import OrderedKripkeModel, lrat
from oracles import (
    reference_lrat,
    reference_optimal_strategies,
    reference_rat,
)

PAYOFF_SETS = st.sampled_from([(F(0), F(1)), (F(0), F(1), F(1, 2), F(-2, 3))])


def outcome(fn, *args):
    try:
        return ("ok", fn(*args))
    except InputError as exc:
        return ("error", str(exc))


@st.composite
def games(draw) -> Game:
    rows = ("A", "B", "C")[: draw(st.integers(1, 3))]
    cols = ("X", "Y", "Z")[: draw(st.integers(1, 3))]
    values = st.sampled_from(draw(PAYOFF_SETS))
    payoffs = {(r, c): (draw(values), draw(values)) for r in rows for c in cols}
    return Game(("1", "2"), (rows, cols), payoffs)


@st.composite
def distributions(draw, members, raw: bool, max_support: int | None = None) -> dict:
    """A distribution over ``members``; ``raw`` draws unnormalized signed weights."""
    support = draw(st.lists(st.sampled_from(members), min_size=1,
                            max_size=max_support or len(members), unique=True))
    if raw:
        return {m: F(draw(st.integers(-2, 3)), draw(st.integers(1, 4))) for m in support}
    weights = [draw(st.integers(1, 4)) for _ in support]
    return {m: F(v, sum(weights)) for m, v in zip(support, weights)}


@st.composite
def kripke_frames(draw, max_levels: int):
    """A game, worlds, an assignment, and per player a belief per world from a pool."""
    game = draw(games())
    worlds = tuple(f"w{k}" for k in range(draw(st.integers(1, 5))))
    sigma = tuple({w: draw(st.sampled_from(game.strategies[i])) for w in worlds}
                  for i in (0, 1))
    access = tuple({w: frozenset(worlds) for w in worlds} for _ in (0, 1))
    base = StandardKripkeModel(game, worlds, access, sigma)
    noisy = draw(st.booleans())
    beliefs = []
    for _ in (0, 1):
        # A level 1 on one world often ties strategies that agree there.
        pool = [
            tuple(draw(distributions(list(worlds), noisy and draw(st.integers(0, 3)) == 0,
                                     1 if k == 0 and draw(st.booleans()) else None))
                  for k in range(draw(st.integers(1, max_levels))))
            for _ in range(draw(st.integers(1, 3)))
        ]
        beliefs.append({w: draw(st.sampled_from(pool)) for w in worlds})
    return base, beliefs


@st.composite
def prob_models(draw) -> ProbKripkeModel:
    base, beliefs = draw(kripke_frames(1))
    return ProbKripkeModel(base, tuple({w: levels[0] for w, levels in per.items()}
                                       for per in beliefs))


@st.composite
def ordered_models(draw) -> OrderedKripkeModel:
    base, beliefs = draw(kripke_frames(3))
    return OrderedKripkeModel(base, tuple(beliefs))


@st.composite
def type_models(draw):
    game = draw(games())
    types = tuple(tuple(f"t{i + 1}_{k}" for k in range(draw(st.integers(1, 2))))
                  for i in (0, 1))
    lex = draw(st.booleans())
    beliefs = []
    for i in (0, 1):
        pairs = [(s, t) for s in game.strategies[1 - i] for t in types[1 - i]]
        pool = [
            tuple(draw(distributions(pairs, False, 1 if k == 0 and draw(st.booleans()) else None))
                  for k in range(draw(st.integers(1, 3) if lex else st.just(1))))
            for _ in range(draw(st.integers(1, 2)))
        ]
        per = {t: draw(st.sampled_from(pool)) for t in types[i]}
        beliefs.append(per if lex else {t: levels[0] for t, levels in per.items()})
    cls = LexEpistemicModel if lex else ProbEpistemicModel
    return cls(game, types, tuple(beliefs))


def _with_belief(dist: dict) -> ProbKripkeModel:
    """The probabilistic fixture with player 1's belief at w1 replaced.

    The opponent plays C at w1 and w3 and D at w2 and w4.
    """
    good = myerson_prob_model(F(1, 4))
    return ProbKripkeModel(good.base, ({**good.p[0], "w1": dist}, good.p[1]))


NEGATIVE_TOTAL = _with_belief({"w1": F(3, 2), "w2": F(-1, 2)})
SHORT_SUM = _with_belief({"w1": F(1, 3), "w2": F(1, 3)})
NEGATIVE_WORLD_ONLY = _with_belief({"w1": F(3, 2), "w3": F(-1, 2)})


@settings(deadline=None)
@given(prob_models())
@example(myerson_prob_model(F(1, 4)))
@example(NEGATIVE_TOTAL)
@example(SHORT_SUM)
@example(NEGATIVE_WORLD_ONLY)
def test_rat_matches_reference(model):
    assert outcome(rat, model) == outcome(reference_rat, model)


@settings(deadline=None)
@given(ordered_models())
@example(myerson_ordered_model())
def test_lrat_matches_reference(model):
    assert outcome(lrat, model) == outcome(reference_lrat, model)


@settings(deadline=None)
@given(type_models())
def test_optimal_strategies_match_reference(model):
    for i in (0, 1):
        for t in model.types[i]:
            assert optimal_strategies(model, i, t) == reference_optimal_strategies(model, i, t)


def test_examples_reach_deep_ties_and_both_errors():
    # At w2 player 1 is indifferent at level 1 (the opponent plays D) and A
    # wins only at level 2; at w4 the same tie is broken against B.
    (lrat_1, _), _ = lrat(myerson_ordered_model())
    assert "w2" in lrat_1 and "w4" not in lrat_1
    assert outcome(rat, NEGATIVE_TOTAL) == ("error", "negative weight -1/2 on strategy 'D'")
    assert outcome(rat, SHORT_SUM) == ("error", "mixed-strategy weights sum to 2/3, expected 1")
    # A negative world weight is allowed when its strategy's total is not negative.
    assert outcome(rat, NEGATIVE_WORLD_ONLY)[0] == "ok"


def _player_2_sum_over_one() -> ProbKripkeModel:
    """``fixtures/myerson_prob.json`` with player 2's belief at w3 summing to 5/4."""
    data = modelio.load_file(str(Path(__file__).resolve().parent.parent / "fixtures"
                                 / "myerson_prob.json"))
    data["p"]["2"]["w3"] = {"w1": "1", "w3": "1/4"}
    return modelio.model_from_json(data)


def test_one_players_best_replies_push_none_of_the_others_beliefs():
    error = ("error", "mixed-strategy weights sum to 5/4, expected 1")
    assert outcome(rat, _player_2_sum_over_one()) == error
    model = _player_2_sum_over_one()
    assert best_reply_worlds(model, 0) == {"w1", "w2"}
    assert outcome(rat, model) == error
    assert outcome(best_reply_worlds, model, 1) == error
