import random
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

from egk.errors import InputError
from egk.fixtures import myerson_game, myerson_prob_model
from egk.games import Game
from egk.kripke import (
    ProbKripkeModel,
    StandardKripkeModel,
    belief,
    check_iesds_inclusion,
    common_belief,
    iesds_witness_model,
    rat,
    validate_prob,
    validate_standard,
)

from generators import random_game, random_prob_model
from oracles import reference_frame_violations, reference_mutual_belief


def _tiny_model(access1, access2=None):
    game = myerson_game()
    worlds = tuple(sorted(access1))
    access2 = access2 or {w: frozenset({w}) for w in worlds}
    sigma = ({w: "A" for w in worlds}, {w: "C" for w in worlds})
    return StandardKripkeModel(game, worlds, (access1, access2), sigma)


def test_seriality_violation_names_world():
    model = _tiny_model({"u": frozenset(), "v": frozenset({"v"})})
    kinds = [(v.kind, v.where) for v in validate_standard(model)]
    assert ("seriality", ("u",)) in kinds


def test_transitivity_violation():
    model = _tiny_model({
        "u": frozenset({"v"}), "v": frozenset({"x"}), "x": frozenset({"x"})})
    kinds = {v.kind for v in validate_standard(model)}
    assert "transitivity" in kinds


def test_fixture_is_valid_and_oracle_agrees():
    model = myerson_prob_model(F(1, 4))
    assert validate_prob(model) == []
    assert reference_frame_violations(model.base) == []


@st.composite
def _random_frames(draw):
    """A frame on 1-6 worlds with arbitrary accessibility and strategies: rarely KD45."""
    game = myerson_game()
    worlds = tuple(f"w{k}" for k in range(draw(st.integers(1, 6))))
    subsets = st.frozensets(st.sampled_from(worlds))
    access = tuple({w: draw(subsets) for w in worlds} for _ in (0, 1))
    sigma = tuple({w: draw(st.sampled_from(game.strategies[i])) for w in worlds} for i in (0, 1))
    return StandardKripkeModel(game, worlds, access, sigma)


@settings(max_examples=120, deadline=None)
@given(_random_frames())
def test_frame_violations_match_the_triple_walk(model):
    assert validate_standard(model) == reference_frame_violations(model)


def test_the_triple_walk_finds_every_kind_on_random_frames():
    """The property above is not vacuous: random frames break every axiom."""
    rng = random.Random(12)
    game = myerson_game()
    kinds = set()
    for _ in range(60):
        worlds = tuple(f"w{k}" for k in range(rng.randint(2, 5)))
        access = tuple({w: frozenset(t for t in worlds if rng.random() < 0.5) for w in worlds}
                       for _ in (0, 1))
        sigma = tuple({w: rng.choice(game.strategies[i]) for w in worlds} for i in (0, 1))
        model = StandardKripkeModel(game, worlds, access, sigma)
        found = reference_frame_violations(model)
        assert validate_standard(model) == found
        kinds |= {v.kind for v in found}
    assert kinds == {"seriality", "transitivity", "euclideanness", "sigma-constancy"}


# Both players play A or B, so one access set object can hold worlds whose
# strategies agree for one player and differ for the other.
_SHARED_LABELS = Game(("1", "2"), (("A", "B"), ("A", "B")),
                      {(r, c): (F(0), F(0)) for r in "AB" for c in "AB"})


def _pooled_frame(access, sigma):
    return StandardKripkeModel(_SHARED_LABELS, tuple(access[0]), access, sigma)


@st.composite
def _pooled_frames(draw):
    """A frame on 1-5 worlds whose access sets come from a pool of 1-3 frozenset objects.

    Worlds share the pool's objects within and across players, and about one
    in four holds an equal but distinct copy instead.
    """
    worlds = tuple(f"w{k}" for k in range(draw(st.integers(1, 5))))
    pool = draw(st.lists(st.frozensets(st.sampled_from(worlds)), min_size=1, max_size=3))

    def pick():
        held = draw(st.sampled_from(pool))
        return frozenset(set(held)) if draw(st.integers(0, 3)) == 0 else held

    access = tuple({w: pick() for w in worlds} for _ in (0, 1))
    sigma = tuple({w: draw(st.sampled_from("AB")) for w in worlds} for _ in (0, 1))
    return _pooled_frame(access, sigma)


_UV = frozenset({"u", "v"})
_V = frozenset({"v"})


@settings(max_examples=120, deadline=None)
@given(_pooled_frames())
# One class object shared by both players: player 1 plays A throughout it,
# player 2 plays A at u and B at v.
@example(_pooled_frame(({"u": _UV, "v": _UV},) * 2,
                       ({"u": "A", "v": "A"}, {"u": "A", "v": "B"})))
# uRv with R(u) = {u, v} and R(v) = {v}: Euclideanness fails between two pool
# objects; player 2 holds {u, v} at u and an equal copy of it at v.
@example(_pooled_frame(({"u": _UV, "v": _V}, {"u": _UV, "v": frozenset(set(_UV))}),
                       ({"u": "A", "v": "A"}, {"u": "B", "v": "B"})))
def test_frame_violations_on_shared_access_sets_match_the_triple_walk(model):
    assert validate_standard(model) == reference_frame_violations(model)


def test_sigma_constancy_violation():
    game = myerson_game()
    worlds = ("u", "v")
    access = ({"u": frozenset(worlds), "v": frozenset(worlds)},) * 2
    sigma = ({"u": "A", "v": "B"}, {"u": "C", "v": "C"})
    model = StandardKripkeModel(game, worlds, access, sigma)
    assert any(v.kind == "sigma-constancy" and v.player == 0
               for v in validate_standard(model))


def test_prob_measure_violations():
    game = myerson_game()
    worlds = ("u", "v")
    access = ({"u": frozenset(worlds), "v": frozenset(worlds)},
              {"u": frozenset(worlds), "v": frozenset(worlds)})
    sigma = ({"u": "A", "v": "A"}, {"u": "C", "v": "C"})
    base = StandardKripkeModel(game, worlds, access, sigma)
    p_bad_sum = ({"u": {"u": F(1, 2)}, "v": {"u": F(1, 2)}},
                 {"u": {"u": F(1)}, "v": {"u": F(1)}})
    kinds = {v.kind for v in validate_prob(ProbKripkeModel(base, p_bad_sum))}
    assert "p-sum" in kinds
    p_bad_support = ({"u": {"u": F(1)}, "v": {"u": F(1)}},
                     {"u": {"u": F(1)}, "v": {"u": F(1)}})
    narrow = StandardKripkeModel(
        game, worlds,
        ({"u": frozenset({"v"}), "v": frozenset({"v"})}, access[1]), sigma)
    kinds = {v.kind for v in validate_prob(ProbKripkeModel(narrow, p_bad_support))}
    assert "p-support" in kinds


def test_belief_operator_edges():
    model = myerson_prob_model(F(1, 4))
    everything = set(model.worlds)
    for i in (0, 1):
        assert belief(model, i, everything) == everything
        assert belief(model, i, ()) == frozenset()
    assert common_belief(model, everything) == everything
    assert common_belief(model, ()) == frozenset()


def test_fixture_belief_in_rationality_is_empty():
    model = myerson_prob_model(F(1, 4))
    _, rat_event = rat(model)
    assert rat_event == {"w1"}
    for i in (0, 1):
        assert belief(model, i, rat_event) == frozenset()
    assert common_belief(model, rat_event) == frozenset()


def test_event_rejects_unknown_worlds():
    model = myerson_prob_model(F(1, 4))
    with pytest.raises(InputError):
        belief(model, 0, {"nope"})


def test_fixture_rationality_sets():
    model = myerson_prob_model(F(1, 3))
    (r1, r2), rat_event = rat(model)
    assert r1 == {"w1", "w2"}
    assert r2 == {"w1", "w3"}
    assert rat_event == {"w1"}


def test_single_profile_game_is_rational_everywhere():
    game = Game(("1", "2"), (("A",), ("C",)), {("A", "C"): (F(0), F(0))})
    worlds = ("u",)
    access = ({"u": frozenset(worlds)},) * 2
    sigma = ({"u": "A"}, {"u": "C"})
    model = ProbKripkeModel(
        StandardKripkeModel(game, worlds, access, sigma),
        ({"u": {"u": F(1)}}, {"u": {"u": F(1)}}))
    (r1, r2), rat_event = rat(model)
    assert r1 == r2 == rat_event == {"u"}


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_operator_laws_on_random_models(seed):
    rng = random.Random(seed)
    model = random_prob_model(rng, random_game(rng))
    worlds = list(model.worlds)
    e = frozenset(w for w in worlds if rng.random() < 0.5)
    f = frozenset(w for w in worlds if rng.random() < 0.5)
    for i in (0, 1):
        assert belief(model, i, e & f) == belief(model, i, e) & belief(model, i, f)
        if e <= f:
            assert belief(model, i, e) <= belief(model, i, f)
        # Positive introspection under KD45.
        be = belief(model, i, e)
        assert be <= belief(model, i, be)
    # Common belief is the closure of one-step mutual belief, bounded by it.
    mutual = belief(model, 0, e) & belief(model, 1, e)
    assert reference_mutual_belief(model, e) == mutual
    cb = common_belief(model, e)
    assert cb <= mutual
    assert cb == belief(model, 0, e & cb) & belief(model, 1, e & cb)
    # Idempotent on KD45 frames: a Euclidean R_i makes every accessible world see itself.
    assert common_belief(model, cb) == cb
    assert common_belief(model, e & f) <= cb
    assert common_belief(model, e & f) == cb & common_belief(model, f)
    (r1, r2), rat_event = rat(model)
    assert rat_event == r1 & r2


def test_iesds_inclusion_on_fixture_is_vacuous():
    report = check_iesds_inclusion(myerson_prob_model(F(1, 4)))
    assert report.holds
    assert report.cb_rat == ()


def test_witness_model_for_myerson_profiles():
    game = myerson_game()
    for profile in (("A", "C"), ("B", "D")):
        model, w = iesds_witness_model(game, profile)
        assert validate_standard(model.base) == []
        assert validate_prob(model) == []
        assert model.base.profile(w) == profile
        _, rat_event = rat(model)
        assert w in common_belief(model, rat_event)
        report = check_iesds_inclusion(model)
        assert report.holds and report.cb_rat != ()


def test_witness_model_dominant_solvable():
    game = Game(("1", "2"), (("A", "B"), ("C", "D")), {
        ("A", "C"): (F(2), F(2)), ("A", "D"): (F(0), F(3)),
        ("B", "C"): (F(3), F(0)), ("B", "D"): (F(1), F(1))})
    model, w = iesds_witness_model(game, ("B", "D"))
    assert model.worlds == ("B,D",)
    assert w == "B,D"


def test_witness_model_rejects_eliminated_profile():
    game = Game(("1", "2"), (("A", "B"), ("C", "D")), {
        ("A", "C"): (F(2), F(2)), ("A", "D"): (F(0), F(3)),
        ("B", "C"): (F(3), F(0)), ("B", "D"): (F(1), F(1))})
    with pytest.raises(InputError):
        iesds_witness_model(game, ("A", "C"))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6))
def test_iesds_inclusion_property(seed):
    rng = random.Random(seed)
    model = random_prob_model(rng, random_game(rng))
    assert check_iesds_inclusion(model).holds


def test_negative_weight_is_a_violation():
    good = myerson_prob_model(F(1, 4))
    tilted = {"w1": F(3, 2), "w2": F(-1, 2)}
    model = ProbKripkeModel(good.base, ({**good.p[0], "w1": tilted, "w2": tilted}, good.p[1]))
    found = validate_prob(model)
    assert [(v.kind, v.player, v.where) for v in found] == [
        ("p-negative", 0, ("w1", "w2")), ("p-negative", 0, ("w2", "w2"))]
    assert found[0].detail == "player 1: negative weight -1/2 at w1 on w2"
