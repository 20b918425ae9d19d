import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from egk.epsilon import (
    TREMBLING_READINGS,
    check_prob_caution,
    check_trembling,
    upper_belief,
    upper_common_belief,
    upper_view,
)
from egk.errors import InputError
from egk.fixtures import myerson_game, myerson_prob_model
from egk.games import Game
from egk.kripke import ProbKripkeModel, StandardKripkeModel, rat

from generators import random_game, random_prob_model
from oracles import reference_check_trembling, reference_upper_mutual_belief


def test_fixture_is_cautious():
    for eps in (F(1, 4), F(1, 3)):
        assert check_prob_caution(myerson_prob_model(eps)) == []


def test_point_mass_beliefs_violate_caution():
    game = myerson_game()
    worlds = ("u", "v")
    cluster = frozenset(worlds)
    access = ({"u": cluster, "v": cluster},) * 2
    sigma = ({"u": "A", "v": "A"}, {"u": "C", "v": "D"})
    p = ({"u": {"u": F(1)}, "v": {"u": F(1)}},
         {"u": {"u": F(1)}, "v": {"u": F(1)}})
    model = ProbKripkeModel(StandardKripkeModel(game, worlds, access, sigma), p)
    violations = check_prob_caution(model)
    assert any(v.player == 0 and v.where == ("u", "D") for v in violations)


def test_caution_vacuous_for_single_strategy_opponent():
    game = Game(("1", "2"), (("A",), ("C", "D")),
                {("A", "C"): (F(0), F(1)), ("A", "D"): (F(0), F(0))})
    worlds = ("u",)
    access = ({"u": frozenset(worlds)},) * 2
    sigma = ({"u": "A"}, {"u": "C"})
    p = ({"u": {"u": F(1)}},) * 2
    model = ProbKripkeModel(StandardKripkeModel(game, worlds, access, sigma), p)
    violations = check_prob_caution(model)
    # Player 2 faces a one-strategy opponent: vacuously cautious.  Player 1
    # still misses D's side of the board.
    assert all(v.player == 0 for v in violations)
    assert any(v.where == ("u", "D") for v in violations)


def test_trembling_clean_at_own_eps_and_violated_at_half():
    for eps in (F(1, 4), F(1, 3)):
        model = myerson_prob_model(eps)
        assert check_trembling(model, eps) == []
        violations = check_trembling(model, eps / 2)
        assert violations
        # Exactly the eps-weighted mistake worlds are flagged.
        weights = {(v.player, v.where[0], v.where[1]) for v in violations}
        for i, w, w1 in weights:
            assert model.p[i][w][w1] == eps


def test_trembling_vacuous_when_everything_optimal():
    game = Game(("1", "2"), (("A",), ("C",)), {("A", "C"): (F(1), F(1))})
    worlds = ("u",)
    access = ({"u": frozenset(worlds)},) * 2
    sigma = ({"u": "A"}, {"u": "C"})
    p = ({"u": {"u": F(1)}},) * 2
    model = ProbKripkeModel(StandardKripkeModel(game, worlds, access, sigma), p)
    for eps in (F(1, 100), F(1, 3)):
        assert check_trembling(model, eps) == []


def test_trembling_readings_differ_on_the_fixture():
    # The believer-vs-pure-strategy reading flags the diagonal worlds the
    # rationality-based reading accepts; both stay available behind the flag.
    model = myerson_prob_model(F(1, 4))
    assert check_trembling(model, F(1, 4), "belief") == []
    assert check_trembling(model, F(1, 4), "pointwise") != []
    with pytest.raises(InputError):
        check_trembling(model, F(1, 4), "strict")


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from(TREMBLING_READINGS),
       st.fractions(min_value=0, max_value=1, max_denominator=12).filter(lambda e: 0 < e < 1),
       st.booleans())
def test_one_trembling_loop_matches_the_loop_per_reading(seed, reading, drawn, at_weight):
    # At a drawn weight the bound is tight: a weight equal to eps is no violation.
    rng = random.Random(seed)
    model = random_prob_model(rng, random_game(rng))
    weights = sorted({v for i in (0, 1) for dist in model.p[i].values()
                      for v in dist.values() if v < 1})
    eps = rng.choice(weights) if at_weight and weights else drawn
    assert check_trembling(model, eps, reading) == reference_check_trembling(model, eps, reading)


def test_upper_operator_sets_on_fixture():
    for eps in (F(1, 4), F(1, 3)):
        model = myerson_prob_model(eps)
        _, rat_event = rat(model)
        assert rat_event == {"w1"}
        assert upper_belief(model, 0, eps, rat_event) == {"w1", "w2"}
        assert upper_belief(model, 1, eps, rat_event) == {"w1", "w3"}
        assert upper_common_belief(model, eps, rat_event) == {"w1"}
        everything = set(model.worlds)
        assert upper_belief(model, 0, eps, everything) == everything
        assert upper_common_belief(model, eps, ()) == frozenset()


def test_upper_access_vacuous_when_all_weights_small():
    game = myerson_game()
    worlds = ("u", "v", "x")
    cluster = frozenset(worlds)
    access = ({w: cluster for w in worlds},) * 2
    sigma = ({w: "A" for w in worlds}, {"u": "C", "v": "D", "x": "C"})
    p_dist = {"u": F(1, 3), "v": F(1, 3), "x": F(1, 3)}
    p = ({w: dict(p_dist) for w in worlds}, {w: dict(p_dist) for w in worlds})
    model = ProbKripkeModel(StandardKripkeModel(game, worlds, access, sigma), p)
    for i in (0, 1):
        view = upper_view(model, i, F(2, 5))
        for w in worlds:
            assert view(w) == frozenset()
        assert upper_belief(model, i, F(2, 5), ()) == frozenset(worlds)


def test_upper_operator_rejects_out_of_range_threshold():
    model = myerson_prob_model(F(1, 4))
    for eps in (F(0), F(1, 2), F(3, 5), F(-1, 4)):
        with pytest.raises(InputError):
            upper_belief(model, 0, eps, {"w1"})
        with pytest.raises(InputError):
            upper_common_belief(model, eps, {"w1"})


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_upper_operator_laws(seed):
    rng = random.Random(seed)
    model = random_prob_model(rng, random_game(rng))
    e = frozenset(w for w in model.worlds if rng.random() < 0.5)
    f = frozenset(w for w in model.worlds if rng.random() < 0.5)
    small = F(1, 5)
    big = F(2, 5)
    for i in (0, 1):
        for w in model.worlds:
            assert upper_view(model, i, big)(w) <= upper_view(model, i, small)(w)
            # Below the smallest positive weight the threshold is invisible.
            floor = min(model.p[i][w].values()) / 2
            if 0 < floor < F(1, 2):
                assert upper_view(model, i, floor)(w) == frozenset(model.p[i][w])
        assert upper_belief(model, i, small, e) <= upper_belief(model, i, big, e)
    # Upper common belief is the closure of one-step upper mutual belief, bounded by it.
    mutual = upper_belief(model, 0, small, e) & upper_belief(model, 1, small, e)
    assert reference_upper_mutual_belief(model, small, e) == mutual
    cb = upper_common_belief(model, small, e)
    assert cb <= mutual
    assert cb == upper_belief(model, 0, small, e & cb) & upper_belief(model, 1, small, e & cb)
    assert upper_common_belief(model, small, e & f) <= cb
    assert upper_common_belief(model, small, e & f) == cb & upper_common_belief(model, small, f)
