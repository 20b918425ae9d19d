from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

from egk.errors import InputError
from egk.fixtures import myerson_game
from egk.games import Game, MixedStrategy, expected_utility
from oracles import lex_utility_vector, point_mass, reference_mixed_strategy


def test_expected_utility_half_half():
    game = myerson_game()
    mix = MixedStrategy(1, {"C": F(1, 2), "D": F(1, 2)})
    assert expected_utility(game, 0, "A", mix) == F(1, 2)


def test_expected_utility_point_mass_degenerates():
    game = myerson_game()
    for s1 in game.strategies[0]:
        for s2 in game.strategies[1]:
            assert expected_utility(game, 0, s1, point_mass(1, s2)) == game.payoff(0, s1, s2)
            assert expected_utility(game, 1, s2, point_mass(0, s1)) == game.payoff(1, s1, s2)


def test_expected_utility_d_always_zero():
    game = myerson_game()
    for mix in (point_mass(0, "A"), point_mass(0, "B"), MixedStrategy(0, {"A": F(1, 3), "B": F(2, 3)})):
        assert expected_utility(game, 1, "D", mix) == 0


def test_expected_utility_rejects_unknown_labels():
    game = myerson_game()
    with pytest.raises(InputError):
        expected_utility(game, 0, "Z", point_mass(1, "C"))
    with pytest.raises(InputError):
        expected_utility(game, 0, "A", point_mass(1, "A"))
    with pytest.raises(InputError):
        expected_utility(game, 0, "A", point_mass(0, "A"))


@given(st.fractions(min_value=0, max_value=1, max_denominator=24))
def test_expected_utility_linear_in_the_mixture(t):
    game = myerson_game()
    blend = MixedStrategy(1, {"C": t, "D": 1 - t})
    for s in game.strategies[0]:
        direct = expected_utility(game, 0, s, blend)
        split = (t * expected_utility(game, 0, s, point_mass(1, "C"))
                 + (1 - t) * expected_utility(game, 0, s, point_mass(1, "D")))
        assert direct == split


def test_lex_utility_vector_values():
    game = myerson_game()
    beliefs = (point_mass(1, "C"), point_mass(1, "D"))
    assert lex_utility_vector(game, 0, "A", beliefs) == (1, 0)
    assert lex_utility_vector(game, 0, "B", beliefs) == (0, 0)
    assert lex_utility_vector(game, 0, "A", beliefs[:1]) == (
        expected_utility(game, 0, "A", beliefs[0]),)


def test_lex_utility_vector_rejects_empty():
    with pytest.raises(InputError):
        lex_utility_vector(myerson_game(), 0, "A", ())


def test_mixed_strategy_validation():
    with pytest.raises(InputError):
        MixedStrategy(0, {"A": F(1, 2)})
    with pytest.raises(InputError):
        MixedStrategy(0, {"A": F(3, 2), "B": F(-1, 2)})
    mix = MixedStrategy(0, {"A": F(1), "B": F(0)})
    assert mix.weights == {"A": F(1)}


_WEIGHTS = st.one_of(st.just(0), st.integers(-2, 2),
                     st.fractions(min_value=-1, max_value=2, max_denominator=12))


@st.composite
def _weight_maps(draw):
    """Weight maps over a few labels in any key order, often closed to sum to 1."""
    labels = draw(st.permutations("ABCD"))[:draw(st.integers(0, 4))]
    weights = [draw(_WEIGHTS) for _ in labels]
    if labels and draw(st.booleans()):
        rest = 1 - sum(weights[:-1], F(0))
        weights[-1] = int(rest) if rest.denominator == 1 and draw(st.booleans()) else rest
    return dict(zip(labels, weights))


@settings(max_examples=200, deadline=None)
@given(_weight_maps())
@example({"B": F(1, 2), "A": 0, "C": F(1, 2)})           # a zero dropped, key order kept
@example({"C": 2, "B": -1, "A": F(-1, 2), "D": F(1, 2)})  # the first negative in item order
@example({"A": F(1, 3), "B": F(1, 3)})                   # a total short of 1
@example({})                                              # nothing to total
def test_mixed_strategy_matches_the_running_sum_reference(weights):
    try:
        expected = reference_mixed_strategy(weights)
    except InputError as error:
        with pytest.raises(InputError) as raised:
            MixedStrategy(1, weights)
        assert str(raised.value) == str(error)
        return
    mix = MixedStrategy(1, weights)
    assert list(mix.weights.items()) == list(expected.items())
    assert all(type(v) is F for v in mix.weights.values())


def test_game_validation():
    with pytest.raises(InputError):
        Game(("1", "2"), (("A", "A"), ("C",)), {("A", "C"): (F(0), F(0))})
    with pytest.raises(InputError):
        Game(("1", "2"), (("A", "B"), ("C",)), {("A", "C"): (F(0), F(0))})
