from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from egk.errors import InputError
from egk.fixtures import myerson_game
from egk.games import Game, MixedStrategy, expected_utility
from oracles import lex_utility_vector, point_mass


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


def test_game_validation():
    with pytest.raises(InputError):
        Game(("1", "2"), (("A", "A"), ("C",)), {("A", "C"): (F(0), F(0))})
    with pytest.raises(InputError):
        Game(("1", "2"), (("A", "B"), ("C",)), {("A", "C"): (F(0), F(0))})
