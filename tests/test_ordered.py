import random
from fractions import Fraction as F
from pathlib import Path

from hypothesis import example, given, settings, strategies as st

from egk.dominance import dekel_fudenberg
from egk.fixtures import myerson_game, myerson_ordered_model
from egk.games import Game
from egk.kripke import StandardKripkeModel, belief, common_belief
from egk.modelio import load_file, model_from_json
from egk.ordered import (
    OrderedKripkeModel,
    check_caution,
    check_lambda_constancy,
    check_structural_conditions,
    common_level1_belief,
    level1_belief,
    level1_view,
    lrat,
    validate_ordered,
)

from generators import random_game, random_ordered_model
from oracles import reference_mutual_level1_belief, reference_structural_report

ONE = F(1)


def test_fixture_reproduces_all_expected_sets():
    model = myerson_ordered_model()
    assert validate_ordered(model) == []
    assert check_caution(model) == []
    (l1, l2), event = lrat(model)
    assert l1 == {"w1", "w2"} and l2 == {"w1", "w3"} and event == {"w1"}
    for i in (0, 1):
        assert level1_belief(model, i, event) == {"w1"}
        assert belief(model.base, i, event) == frozenset()
    assert common_level1_belief(model, event) == {"w1"}
    assert common_belief(model.base, event) == frozenset()
    report = check_structural_conditions(model)
    assert report.disjoint_supports and report.surjection


def test_fixture_primary_beliefs_vary_inside_clusters():
    # The per-world primary beliefs required by the expected operator sets
    # are not constant on clusters; the dedicated check reports that.
    model = myerson_ordered_model()
    assert check_lambda_constancy(model) != []


def test_caution_violation_names_missing_strategy():
    game = myerson_game()
    worlds = ("u", "v")
    cluster = frozenset(worlds)
    access = ({"u": cluster, "v": cluster},) * 2
    sigma = ({"u": "A", "v": "A"}, {"u": "C", "v": "C"})
    lam1 = {"u": ({"u": ONE},), "v": ({"u": ONE},)}
    lam2 = {"u": ({"v": ONE},), "v": ({"v": ONE},)}
    model = OrderedKripkeModel(
        StandardKripkeModel(game, worlds, access, sigma), (lam1, lam2))
    violations = check_caution(model)
    assert any(v.player == 0 and v.where == ("u", "D") for v in violations)


def test_caution_vacuous_for_single_strategy_opponent():
    game = Game(("1", "2"), (("A", "B"), ("C",)),
                {("A", "C"): (F(1), F(0)), ("B", "C"): (F(0), F(0))})
    worlds = ("u",)
    access = ({"u": frozenset(worlds)},) * 2
    sigma = ({"u": "A"}, {"u": "C"})
    lam = ({"u": ({"u": ONE},)}, {"u": ({"u": ONE},)})
    model = OrderedKripkeModel(StandardKripkeModel(game, worlds, access, sigma), lam)
    assert check_caution(model) == [] or all(v.player == 1 for v in check_caution(model))


def test_lrat_trivial_game():
    game = Game(("1", "2"), (("A",), ("C",)), {("A", "C"): (F(0), F(0))})
    worlds = ("u",)
    access = ({"u": frozenset(worlds)},) * 2
    sigma = ({"u": "A"}, {"u": "C"})
    lam = ({"u": ({"u": ONE},)}, {"u": ({"u": ONE},)})
    model = OrderedKripkeModel(StandardKripkeModel(game, worlds, access, sigma), lam)
    (l1, l2), event = lrat(model)
    assert l1 == l2 == event == {"u"}


def test_level1_operator_edges():
    model = myerson_ordered_model()
    everything = set(model.worlds)
    for i in (0, 1):
        assert level1_belief(model, i, everything) == everything
        assert level1_belief(model, i, ()) == frozenset()
    assert common_level1_belief(model, everything) == everything


def test_structural_violations_are_reported():
    game = myerson_game()
    worlds = ("u", "v")
    cluster = frozenset(worlds)
    access = ({"u": cluster, "v": cluster},) * 2
    sigma = ({"u": "A", "v": "A"}, {"u": "C", "v": "D"})
    # Level 1 misses v entirely: surjection fails, disjointness holds.
    lam1 = {"u": ({"u": ONE},), "v": ({"u": ONE},)}
    lam2 = {w: ({"u": F(1, 2), "v": F(1, 2)},) for w in worlds}
    model = OrderedKripkeModel(
        StandardKripkeModel(game, worlds, access, sigma), (lam1, lam2))
    report = check_structural_conditions(model)
    assert report.disjoint_supports
    assert not report.surjection
    assert any(v.kind == "surjection" and v.where == ("u", "v") for v in report.violations)
    # Overlapping supports across levels break disjointness.
    lam_overlap = {w: ({"u": ONE}, {"u": F(1, 2), "v": F(1, 2)}) for w in worlds}
    model2 = OrderedKripkeModel(
        StandardKripkeModel(game, worlds, access, sigma), (lam_overlap, lam2))
    report2 = check_structural_conditions(model2)
    assert not report2.disjoint_supports
    assert report2.surjection


# Player 1's levels overlap in one class and leave w5 unweighted in the other.
STRUCTURAL = Path(__file__).resolve().parent / "golden" / "ordered_structural.json"


def _subset(pool: tuple[str, ...], mask: int) -> tuple[str, ...]:
    """The members of ``pool`` whose bit is set in ``mask``."""
    return tuple(t for b, t in enumerate(pool) if mask >> b & 1)


def _levels(draw, pool: tuple[str, ...]) -> tuple[dict, ...]:
    """One to three levels, each uniform over a nonempty subset of ``pool``."""
    supports = [_subset(pool, draw(st.integers(1, 2 ** len(pool) - 1)))
                for _ in range(draw(st.integers(1, 3)))]
    return tuple({t: F(1, len(support)) for t in support} for support in supports)


@st.composite
def structural_models(draw):
    """Ordered models whose level supports may overlap and may miss accessible worlds.

    Each player's worlds fall into at most two classes; a class holds one
    access set object, which some worlds swap for an equal one of their
    own, and one level sequence over its worlds, which about a quarter of
    the worlds swap for a sequence of their own.  Subsets are drawn as bit
    masks, one draw each, to keep the draw cheap.
    """
    worlds = tuple(f"w{n}" for n in range(1, draw(st.integers(1, 5)) + 1))
    every = 2 ** len(worlds) - 1
    access, lam = [], []
    for _ in (0, 1):
        second = _subset(worlds, draw(st.integers(0, every)))
        classes = [c for c in (tuple(w for w in worlds if w not in second), second) if c]
        cls = {w: c for c in classes for w in c}
        shared = {c: frozenset(c) for c in classes}
        own_access = _subset(worlds, draw(st.integers(0, every)))
        access.append({w: frozenset(cls[w]) if w in own_access else shared[cls[w]]
                       for w in worlds})
        held = {c: _levels(draw, c) for c in classes}
        own_levels = _subset(worlds, draw(st.integers(0, every)) & draw(st.integers(0, every)))
        lam.append({w: _levels(draw, cls[w]) if w in own_levels else held[cls[w]]
                    for w in worlds})
    sigma = (dict.fromkeys(worlds, "A"), dict.fromkeys(worlds, "C"))  # the conditions ignore play
    base = StandardKripkeModel(myerson_game(), worlds, tuple(access), sigma)
    return OrderedKripkeModel(base, tuple(lam))


def _overlap_of_levels_1_and_3() -> OrderedKripkeModel:
    """Player 1's levels 1 and 3 both weight u, level 2 overlaps neither; player 2 misses x."""
    worlds = ("u", "v", "x")
    cluster = frozenset(worlds)
    sigma = (dict.fromkeys(worlds, "A"), {"u": "C", "v": "D", "x": "C"})
    lam1 = dict.fromkeys(worlds, ({"u": ONE}, {"v": ONE}, {"u": F(1, 2), "x": F(1, 2)}))
    lam2 = dict.fromkeys(worlds, ({"u": ONE}, {"v": ONE}))
    base = StandardKripkeModel(myerson_game(), worlds, (dict.fromkeys(worlds, cluster),) * 2, sigma)
    return OrderedKripkeModel(base, (lam1, lam2))


@settings(max_examples=60, deadline=None)
@given(structural_models())
@example(model_from_json(load_file(str(STRUCTURAL))))
@example(_overlap_of_levels_1_and_3())
def test_structural_conditions_match_the_walk_over_every_world(model):
    assert check_structural_conditions(model) == reference_structural_report(model)


def test_injectivity_violation_detected():
    game = myerson_game()
    worlds = ("u", "v")
    cluster = frozenset(worlds)
    access = ({"u": cluster, "v": cluster},) * 2
    sigma = ({"u": "A", "v": "A"}, {"u": "C", "v": "D"})
    lam_dup = {w: ({"u": ONE}, {"u": ONE}) for w in worlds}
    lam_ok = {w: ({"u": F(1, 2), "v": F(1, 2)},) for w in worlds}
    model = OrderedKripkeModel(
        StandardKripkeModel(game, worlds, access, sigma), (lam_dup, lam_ok))
    assert any(v.kind == "lambda-injectivity" for v in validate_ordered(model))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_level1_operator_laws(seed):
    rng = random.Random(seed)
    model = random_ordered_model(rng, random_game(rng))
    worlds = list(model.worlds)
    e = frozenset(w for w in worlds if rng.random() < 0.5)
    f = frozenset(w for w in worlds if rng.random() < 0.5)
    for i in (0, 1):
        assert level1_belief(model, i, e & f) == level1_belief(model, i, e) & level1_belief(model, i, f)
        if e <= f:
            assert level1_belief(model, i, e) <= level1_belief(model, i, f)
        # Primary supports refine accessibility, so plain belief implies level-1 belief.
        view = level1_view(model, i)
        for w in worlds:
            assert view(w) <= model.access[i][w]
        assert belief(model.base, i, e) <= level1_belief(model, i, e)
    # Common primary belief is the closure of one-step mutual primary belief, bounded by it.
    mutual = level1_belief(model, 0, e) & level1_belief(model, 1, e)
    assert reference_mutual_level1_belief(model, e) == mutual
    cb = common_level1_belief(model, e)
    assert cb <= mutual
    assert cb == level1_belief(model, 0, e & cb) & level1_belief(model, 1, e & cb)
    assert common_level1_belief(model, e & f) <= cb
    assert common_level1_belief(model, e & f) == cb & common_level1_belief(model, f)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6))
# Seeds where one-step mutual primary belief in LRAT holds a world playing a non-DF profile.
@example(476)
@example(1240)
@example(1642)
@example(1777)
@example(1943)
@example(2813)
def test_common_primary_belief_in_rationality_plays_df_survivors(seed):
    rng = random.Random(seed)
    game = random_game(rng)
    model = random_ordered_model(rng, game)
    survivors, _ = dekel_fudenberg(game)
    surviving = {(a, b) for a in survivors.sets[0] for b in survivors.sets[1]}
    _, event = lrat(model)
    for w in common_level1_belief(model, event):
        assert model.base.profile(w) in surviving


def test_mutual_primary_belief_outruns_df_but_common_primary_belief_does_not():
    # A hand-built model where a world is certified by one-step mutual
    # primary belief in LRAT although its profile dies in a later
    # elimination round.  The certified world's primary beliefs land on
    # lexicographically rational worlds whose own primary beliefs lean on a
    # strategy that only survives the first round; one step never looks
    # that far, but common primary belief, the closure, does.
    game = Game(("1", "2"), (("A", "B", "C"), ("X", "Y")), {
        ("A", "X"): (F(3), F(2)), ("A", "Y"): (F(0), F(0)),
        ("B", "X"): (F(0), F(2)), ("B", "Y"): (F(2), F(0)),
        ("C", "X"): (F(0), F(0)), ("C", "Y"): (F(0), F(3)),
    })
    survivors, _ = dekel_fudenberg(game)
    assert survivors.sets == (("A",), ("X",))
    worlds = ("w1", "w2", "w3", "w4", "w5", "w6")
    profiles = {"w1": ("B", "X"), "w2": ("B", "Y"), "w3": ("C", "Y"),
                "w4": ("A", "X"), "w5": ("A", "Y"), "w6": ("C", "X")}
    sigma = ({w: profiles[w][0] for w in worlds}, {w: profiles[w][1] for w in worlds})
    cluster1 = {"w4": {"w4", "w5"}, "w5": {"w4", "w5"},
                "w1": {"w1", "w2"}, "w2": {"w1", "w2"},
                "w3": {"w3", "w6"}, "w6": {"w3", "w6"}}
    cluster2 = {"w1": {"w1", "w4", "w6"}, "w4": {"w1", "w4", "w6"}, "w6": {"w1", "w4", "w6"},
                "w2": {"w2", "w3", "w5"}, "w3": {"w2", "w3", "w5"}, "w5": {"w2", "w3", "w5"}}
    access = ({w: frozenset(c) for w, c in cluster1.items()},
              {w: frozenset(c) for w, c in cluster2.items()})
    lam1 = {"w1": ({"w2": ONE}, {"w1": ONE}), "w2": ({"w2": ONE}, {"w1": ONE}),
            "w4": ({"w4": ONE}, {"w5": ONE}), "w5": ({"w4": ONE}, {"w5": ONE}),
            "w3": ({"w6": ONE}, {"w3": ONE}), "w6": ({"w6": ONE}, {"w3": ONE})}
    lam_x = ({"w4": ONE}, {"w1": ONE}, {"w6": ONE})
    lam_y = ({"w3": ONE}, {"w2": ONE}, {"w5": ONE})
    lam2 = {"w1": lam_x, "w4": lam_x, "w6": lam_x,
            "w2": lam_y, "w3": lam_y, "w5": lam_y}
    model = OrderedKripkeModel(
        StandardKripkeModel(game, worlds, access, sigma), (lam1, lam2))
    assert validate_ordered(model) == []
    assert check_caution(model) == []
    assert check_lambda_constancy(model) == []
    report = check_structural_conditions(model)
    assert report.disjoint_supports and report.surjection
    _, event = lrat(model)
    assert "w1" in reference_mutual_level1_belief(model, event)
    assert model.base.profile("w1") == ("B", "X")
    assert "B" not in survivors.sets[0]
    certified = common_level1_belief(model, event)
    assert "w1" not in certified
    assert {model.base.profile(w) for w in certified} <= {("A", "X")}


def test_negative_level_weight_is_a_violation():
    good = myerson_ordered_model()
    levels = ({"w1": ONE}, {"w2": F(3, 2), "w1": F(-1, 2)})
    model = OrderedKripkeModel(good.base, ({**good.lam[0], "w1": levels}, good.lam[1]))
    found = validate_ordered(model)
    assert [(v.kind, v.player, v.where) for v in found] == [("lambda-negative", 0, ("w1", "w1"))]
    assert found[0].detail == "player 1: level 2 at w1 gives w1 the negative weight -1/2"
