"""The belief operators against the per-world loops and searches.

The single-player operators, built on ``kripke.box``, meet the per-world
loops; the common operators, built on ``kripke.common`` and the
greatest-fixed-point kernel, meet a reachability search from each world.

Models are drawn two ways: from the shared generators (valid standard,
probabilistic and ordered models over strategy clusters) and as wild
models, where accessibility, beliefs and levels are arbitrary subsets with
weights from a small pool, so empty views, weights equal to a threshold and
views reaching outside the accessible set all occur.  Events include the
empty set and the whole world set; thresholds include a weight of the
model, for the strict ``>``, and values outside (0, 1/2); events may name an
unknown world.  Both sides must return the same set or raise the same
``InputError``.
"""

import random
from fractions import Fraction as F

from hypothesis import given, strategies as st

from egk.errors import InputError
from egk.fixtures import myerson_prob_model
from egk.games import Game
from egk.kripke import ProbKripkeModel, StandardKripkeModel, belief, common_belief
from egk.epsilon import upper_belief, upper_common_belief, upper_view
from egk.ordered import OrderedKripkeModel, common_level1_belief, level1_belief, level1_view
from generators import random_game, random_ordered_model, random_prob_model
from oracles import (
    reference_belief,
    reference_common_belief,
    reference_common_level1_belief,
    reference_level1_access,
    reference_level1_belief,
    reference_upper_access,
    reference_upper_belief,
    reference_upper_common_belief,
)

WEIGHTS = (F(1, 8), F(1, 4), F(1, 3), F(1, 2), F(3, 4), F(-1, 4))
OUT_OF_RANGE = (F(0), F(1, 2), F(-1, 3), F(3, 4))


def outcome(fn, *args):
    try:
        return ("ok", fn(*args))
    except InputError as exc:
        return ("error", str(exc))


def subsets(worlds):
    return st.lists(st.sampled_from(worlds), unique=True).map(frozenset)


@st.composite
def wild_models(draw):
    game = Game(("1", "2"), (("A", "B"), ("C",)),
                {(r, "C"): (F(0), F(0)) for r in ("A", "B")})
    worlds = tuple(f"w{k}" for k in range(draw(st.integers(1, 5))))
    sigma = tuple({w: draw(st.sampled_from(game.strategies[i])) for w in worlds}
                  for i in (0, 1))
    access = tuple({w: draw(subsets(worlds)) for w in worlds} for _ in (0, 1))
    base = StandardKripkeModel(game, worlds, access, sigma)

    def dist():
        return {t: draw(st.sampled_from(WEIGHTS)) for t in draw(subsets(worlds))}

    flavor = draw(st.sampled_from(("standard", "prob", "ordered")))
    if flavor == "standard":
        return base
    if flavor == "prob":
        return ProbKripkeModel(base, tuple({w: dist() for w in worlds} for _ in (0, 1)))
    return OrderedKripkeModel(base, tuple(
        {w: tuple(dist() for _ in range(draw(st.integers(1, 3)))) for w in worlds}
        for _ in (0, 1)))


@st.composite
def generated_models(draw):
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    game = random_game(rng)
    flavor = draw(st.sampled_from(("standard", "prob", "ordered")))
    if flavor == "prob":
        return random_prob_model(rng, game)
    ordered = random_ordered_model(rng, game)
    return ordered.base if flavor == "standard" else ordered


@st.composite
def events(draw, worlds):
    event = draw(st.one_of(st.just(frozenset()), st.just(frozenset(worlds)), subsets(worlds)))
    if draw(st.integers(0, 9)) == 0:
        event |= {"unknown"}
    return event


@st.composite
def thresholds(draw, model):
    weights = sorted({v for per in model.p for dist in per.values() for v in dist.values()})
    choices = [st.sampled_from(OUT_OF_RANGE), st.sampled_from((F(1, 5), F(1, 4), F(1, 3)))]
    inside = [v for v in weights if 0 < v < F(1, 2)]
    if inside:
        choices.append(st.sampled_from(inside))
    return draw(st.one_of(*choices))


@given(st.one_of(wild_models(), generated_models()), st.data())
def test_box_operators_match_reference(model, data):
    event = data.draw(events(model.worlds))
    i = data.draw(st.sampled_from((0, 1)))
    pairs = [
        (outcome(belief, model, i, event), outcome(reference_belief, model, i, event)),
        (outcome(common_belief, model, event), outcome(reference_common_belief, model, event)),
    ]
    if isinstance(model, OrderedKripkeModel):
        w = data.draw(st.sampled_from(model.worlds))
        pairs += [
            (outcome(level1_belief, model, i, event),
             outcome(reference_level1_belief, model, i, event)),
            (outcome(common_level1_belief, model, event),
             outcome(reference_common_level1_belief, model, event)),
            (outcome(lambda: level1_view(model, i)(w)),
             outcome(reference_level1_access, model, i, w)),
        ]
    if isinstance(model, ProbKripkeModel):
        eps = data.draw(thresholds(model))
        w = data.draw(st.sampled_from(model.worlds))
        pairs += [
            (outcome(upper_belief, model, i, eps, event),
             outcome(reference_upper_belief, model, i, eps, event)),
            (outcome(upper_common_belief, model, eps, event),
             outcome(reference_upper_common_belief, model, eps, event)),
            (outcome(lambda: upper_view(model, i, eps)(w)),
             outcome(reference_upper_access, model, i, w, eps)),
        ]
    for got, want in pairs:
        assert got == want


def test_threshold_check_precedes_unknown_world_check():
    model = myerson_prob_model(F(1, 4))
    event = {"w1", "unknown"}
    for eps in (F(1, 2), F(1, 4)):
        want = outcome(reference_upper_common_belief, model, eps, event)
        assert outcome(upper_common_belief, model, eps, event) == want
        assert outcome(upper_belief, model, 0, eps, event) == \
            outcome(reference_upper_belief, model, 0, eps, event)
    assert outcome(upper_common_belief, model, F(1, 2), event) == (
        "error", "threshold must lie in (0, 1/2), got 1/2")
    assert outcome(upper_common_belief, model, F(1, 4), event) == (
        "error", "event contains unknown worlds ['unknown']")
