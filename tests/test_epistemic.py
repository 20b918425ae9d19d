import random
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

from egk.dominance import dekel_fudenberg
from egk.epistemic import (
    LexEpistemicModel,
    ProbEpistemicModel,
    TypeProperty,
    caution_property,
    common_full_belief,
    conjoin,
    deems_possible,
    df_witness_types,
    eps_permissible,
    eps_trembling,
    kripke_from_lex_types,
    kripke_from_prob_types,
    optimal_strategies,
    permissible,
    primary_belief_in_rationality,
    primary_rationality_property,
    trembling_property,
    type_caution,
    types_from_kripke,
)
from egk.epsilon import check_trembling
from egk.errors import InputError
from egk.fixtures import (
    myerson_game,
    myerson_lex_types,
    myerson_prob_model,
    myerson_prob_types,
)
from egk.games import Game
from egk.kripke import ProbKripkeModel, StandardKripkeModel, validate_prob
from egk.ordered import (
    check_caution,
    check_lambda_constancy,
    common_level1_belief,
    lrat,
    validate_ordered,
)

from generators import random_cautious_lex_model, random_game
from oracles import (
    ReferenceLexEpistemicModel,
    ReferenceProbEpistemicModel,
    reference_common_full_belief,
    reference_eps_permissible,
    reference_eps_trembling,
    reference_optimal_strategies,
    reference_primary_belief_in_rationality,
    reference_type_caution,
    reference_types_from_kripke,
)


def random_lex_model(rng, game, cautious=False):
    counts = [rng.randint(1, 2), rng.randint(1, 2)]
    types = tuple(tuple(f"t{i + 1}_{k + 1}" for k in range(counts[i])) for i in (0, 1))
    beliefs = []
    for i in (0, 1):
        j = 1 - i
        pairs = [(s, t) for s in game.strategies[j] for t in types[j]]
        per = {}
        for t in types[i]:
            levels = []
            for _ in range(rng.randint(1, 2)):
                for _attempt in range(8):
                    if cautious:
                        weights = {p: F(rng.randint(1, 4)) for p in pairs}
                    else:
                        chosen = [p for p in pairs if rng.random() < 0.7] or [rng.choice(pairs)]
                        weights = {p: F(rng.randint(1, 4)) for p in chosen}
                    total = sum(weights.values())
                    dist = {p: v / total for p, v in weights.items()}
                    if dist not in levels:
                        levels.append(dist)
                        break
            per[t] = tuple(levels)
        beliefs.append(per)
    return LexEpistemicModel(game, types, (beliefs[0], beliefs[1]))


def test_deems_possible_on_fixture():
    model = myerson_lex_types()
    assert deems_possible(model, 0, "th1") == {"th2"}
    assert deems_possible(model, 1, "th2") == {"th1"}
    with pytest.raises(InputError):
        deems_possible(model, 0, "th9")


def test_point_mass_type_and_split_type():
    game = myerson_game()
    types = (("u",), ("v", "w"))
    beliefs = (
        {"u": ({("C", "v"): F(1, 2), ("C", "w"): F(1, 2)},)},
        {"v": ({("A", "u"): F(1)},), "w": ({("A", "u"): F(1)},)},
    )
    model = LexEpistemicModel(game, types, beliefs)
    assert deems_possible(model, 0, "u") == {"v", "w"}
    assert deems_possible(model, 1, "v") == {"u"}
    assert type_caution(model, 0, "u") is False
    assert type_caution(model, 1, "v") is False


def test_fixture_caution_and_rationality():
    model = myerson_lex_types()
    assert type_caution(model, 0, "th1") is True
    assert type_caution(model, 1, "th2") is True
    assert optimal_strategies(model, 0, "th1") == {"A"}
    assert optimal_strategies(model, 1, "th2") == {"C"}
    assert primary_belief_in_rationality(model, 0, "th1") is True


def test_primary_belief_on_irrational_pair_fails():
    game = myerson_game()
    types = (("u",), ("v",))
    # Primary weight on D although D is never optimal for the cautious "v".
    beliefs = (
        {"u": ({("D", "v"): F(1)}, {("C", "v"): F(1)})},
        {"v": ({("A", "u"): F(1)}, {("B", "u"): F(1)})},
    )
    model = LexEpistemicModel(game, types, beliefs)
    assert optimal_strategies(model, 1, "v") == {"C"}
    assert primary_belief_in_rationality(model, 0, "u") is False
    assert primary_belief_in_rationality(model, 1, "v") is True


def test_indifferent_type_finds_everything_optimal():
    game = Game(("1", "2"), (("A", "B"), ("C",)),
                {("A", "C"): (F(1), F(0)), ("B", "C"): (F(1), F(0))})
    types = (("u",), ("v",))
    beliefs = ({"u": ({("C", "v"): F(1)},)}, {"v": ({("A", "u"): F(1)},)})
    model = LexEpistemicModel(game, types, beliefs)
    assert optimal_strategies(model, 0, "u") == {"A", "B"}


def test_common_full_belief_on_fixture():
    model = myerson_lex_types()
    prop = conjoin(caution_property(model), primary_rationality_property(model))
    assert common_full_belief(model, prop) == ({"th1"}, {"th2"})


def test_common_full_belief_empty_and_full():
    model = myerson_lex_types()
    nothing = conjoin(caution_property(model)).holds
    false_prop = type(caution_property(model))(
        "never", ({t: False for t in model.types[0]}, {t: False for t in model.types[1]}))
    assert common_full_belief(model, false_prop) == (frozenset(), frozenset())
    true_prop = type(caution_property(model))(
        "always", ({t: True for t in model.types[0]}, {t: True for t in model.types[1]}))
    assert common_full_belief(model, true_prop) == ({"th1"}, {"th2"})
    assert nothing  # caution holds for the fixture types


def test_permissible_on_fixture():
    assert permissible(myerson_lex_types()) == ({"A"}, {"C"})


def test_permissible_within_df_survivors_on_random_models():
    rng = random.Random(23)
    for _ in range(40):
        game = random_game(rng)
        model = random_lex_model(rng, game, cautious=rng.random() < 0.5)
        survivors, _ = dekel_fudenberg(game)
        result = permissible(model)
        for i in (0, 1):
            assert result[i] <= set(survivors.sets[i])


def test_eps_trembling_on_fixture():
    eps = F(1, 4)
    model = myerson_prob_types(eps)
    assert optimal_strategies(model, 0, "t1") == {"A"}
    assert eps_trembling(model, 0, "t1", eps) is True
    assert eps_trembling(model, 0, "t1", eps / 2) is False
    assert eps_trembling(model, 1, "t2", eps) is True


@pytest.mark.parametrize("eps", [F(0), F(1), F(2), F(-1)])
def test_trembling_bound_outside_the_unit_interval_is_rejected(eps):
    model = myerson_prob_types(F(1, 4))
    message = f"trembling bound must lie in (0, 1), got {eps}"
    for check in (lambda: eps_trembling(model, 0, "t1", eps),
                  lambda: trembling_property(model, eps),
                  lambda: eps_permissible(model, eps),
                  lambda: check_trembling(myerson_prob_model(F(1, 4)), eps)):
        with pytest.raises(InputError) as info:
            check()
        assert str(info.value) == message
    # Primary belief in rationality is the bound-0 case and stays allowed.
    assert primary_rationality_property(myerson_lex_types()).holds == ({"th1": True},
                                                                      {"th2": True})


def test_trembling_holds_when_only_optimal_pairs_weighted():
    game = myerson_game()
    types = (("u",), ("v",))
    beliefs = ({"u": {("C", "v"): F(1)}}, {"v": {("A", "u"): F(1)}})
    model = ProbEpistemicModel(game, types, beliefs)
    for eps in (F(1, 100), F(1, 3)):
        assert eps_trembling(model, 0, "u", eps) is True


def test_eps_permissible_on_fixture():
    for eps in (F(1, 4), F(1, 3)):
        assert eps_permissible(myerson_prob_types(eps), eps) == ({"A"}, {"C"})


def test_eps_permissible_empty_when_trembling_fails_everywhere():
    game = myerson_game()
    types = (("u",), ("v",))
    # Both types pile weight on the opponent's mistake.
    beliefs = (
        {"u": {("C", "v"): F(1, 2), ("D", "v"): F(1, 2)}},
        {"v": {("A", "u"): F(1, 2), ("B", "u"): F(1, 2)}},
    )
    model = ProbEpistemicModel(game, types, beliefs)
    assert eps_permissible(model, F(1, 4)) == (frozenset(), frozenset())


def test_eps_permissible_surviving_chain_only():
    game = myerson_game()
    eps = F(1, 5)
    types = (("good", "bad"), ("v",))
    beliefs = (
        {
            "good": {("C", "v"): 1 - eps, ("D", "v"): eps},
            # "bad" weighs the mistake D heavily, breaking its trembling bound.
            "bad": {("C", "v"): F(1, 2), ("D", "v"): F(1, 2)},
        },
        {"v": {("A", "good"): 1 - eps, ("B", "good"): eps}},
    )
    model = ProbEpistemicModel(game, types, beliefs)
    prop = conjoin(caution_property(model), trembling_property(model, eps))
    alive = common_full_belief(model, prop)
    assert alive == ({"good"}, {"v"})
    assert eps_permissible(model, eps) == ({"A"}, {"C"})


def test_common_full_belief_monotone_in_property():
    rng = random.Random(31)
    for _ in range(25):
        game = random_game(rng)
        model = random_lex_model(rng, game, cautious=True)
        weak = caution_property(model)
        strong = conjoin(weak, primary_rationality_property(model))
        weak_alive = common_full_belief(model, weak)
        strong_alive = common_full_belief(model, strong)
        for i in (0, 1):
            assert strong_alive[i] <= weak_alive[i]


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10**6))
def test_common_full_belief_matches_the_elimination_loop(seed):
    rng = random.Random(seed)
    game = random_game(rng)
    model = (random_cautious_lex_model(rng, game) if rng.random() < 0.5
             else random_lex_model(rng, game))
    holds = tuple({t: rng.random() < 0.8 for t in model.types[i]} for i in (0, 1))
    assert (common_full_belief(model, TypeProperty("drawn", holds))
            == reference_common_full_belief(model, holds))


def test_kripke_from_lex_types_on_fixture():
    model = myerson_lex_types()
    built = kripke_from_lex_types(model)
    assert len(built.worlds) == 4
    assert validate_ordered(built) == []
    assert check_caution(built) == []
    assert check_lambda_constancy(built) == []
    _, event = lrat(built)
    certified = common_level1_belief(built, event)
    assert any(built.base.profile(w) == ("A", "C") for w in certified)


def test_kripke_from_lex_types_trivial_model():
    game = Game(("1", "2"), (("A",), ("C",)), {("A", "C"): (F(1), F(1))})
    types = (("u",), ("v",))
    beliefs = ({"u": ({("C", "v"): F(1)},)}, {"v": ({("A", "u"): F(1)},)})
    built = kripke_from_lex_types(LexEpistemicModel(game, types, beliefs))
    assert len(built.worlds) == 1
    _, event = lrat(built)
    assert common_level1_belief(built, event) == frozenset(built.worlds)


def test_kripke_from_lex_types_rejects_incautious_source():
    game = myerson_game()
    types = (("u",), ("v",))
    beliefs = ({"u": ({("C", "v"): F(1)},)}, {"v": ({("A", "u"): F(1)},)})
    with pytest.raises(InputError):
        kripke_from_lex_types(LexEpistemicModel(game, types, beliefs))


def test_kripke_from_lex_types_merges_adjacent_duplicate_levels():
    game = myerson_game()
    types = (("u",), ("v",))
    level_u = {("C", "v"): F(1, 2), ("D", "v"): F(1, 2)}
    level_v = {("A", "u"): F(1, 2), ("B", "u"): F(1, 2)}
    beliefs = ({"u": (level_u, dict(level_u))}, {"v": (level_v,)})
    built = kripke_from_lex_types(LexEpistemicModel(game, types, beliefs))
    assert all(len(built.lam[0][w]) == 1 for w in built.worlds)


def test_kripke_from_lex_types_random_cautious_sources():
    rng = random.Random(37)
    for _ in range(20):
        game = random_game(rng)
        model = random_lex_model(rng, game, cautious=True)
        try:
            built = kripke_from_lex_types(model)
        except InputError:
            continue  # duplicated non-adjacent levels are rejected by contract
        assert validate_ordered(built) == []
        assert check_caution(built) == []


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10**6))
def test_permissible_strategies_are_played_at_common_primary_belief_in_lrat(seed):
    # The bridge from types to the ordered model: every permissible strategy is
    # played somewhere in CB1(LRAT) of the built model, and everything played
    # there survives DF.  Equality can fail: common full belief follows every
    # level's support, CB1 only the primary ones.
    rng = random.Random(seed)
    game = random_game(rng)
    types = random_cautious_lex_model(rng, game)
    built = kripke_from_lex_types(types)
    _, event = lrat(built)
    certified = common_level1_belief(built, event)
    survivors, _ = dekel_fudenberg(game)
    for i in (0, 1):
        played = {built.sigma[i][w] for w in certified}
        assert permissible(types)[i] <= played <= set(survivors.sets[i])


def test_types_from_kripke_on_fixture_merges_to_displayed_beliefs():
    eps = F(1, 4)
    extracted, world_types = types_from_kripke(myerson_prob_model(eps))
    assert len(extracted.types[0]) == 1 and len(extracted.types[1]) == 1
    t1, t2 = extracted.types[0][0], extracted.types[1][0]
    assert extracted.beliefs[0][t1] == {("C", t2): 1 - eps, ("D", t2): eps}
    assert extracted.beliefs[1][t2] == {("A", t1): 1 - eps, ("B", t1): eps}
    assert set(world_types.values()) == {(t1, t2)}


def test_types_from_kripke_quotient_is_representative_independent():
    model = myerson_prob_model(F(1, 3))
    extracted, world_types = types_from_kripke(model)
    for i in (0, 1):
        j = 1 - i
        for w in model.worlds:
            dist = {}
            for w1, v in model.p[i][w].items():
                pair = (model.sigma[j][w1], world_types[w1][j])
                dist[pair] = dist.get(pair, F(0)) + v
            assert dist == dict(extracted.beliefs[i][world_types[w][i]])


@st.composite
def quotient_models(draw):
    """Probabilistic models whose worlds have copies, with beliefs written over other denominators.

    A copy plays its original's strategies and holds its original's belief:
    the one object, an equal copy, or one that splits each weight between a
    world and its copies by drawn integer ratios, which changes the belief's
    common denominator but not what it gives each (strategy, class) pair.
    Some worlds hold a belief of their own.
    """
    game = draw(st.sampled_from((myerson_game(), random_game(random.Random(3), 3, 3))))
    originals = [f"w{n}" for n in range(1, draw(st.integers(1, 4)) + 1)]
    copies = {w: [w] + [f"{w}_{k}" for k in range(draw(st.integers(0, 2)))] for w in originals}
    worlds = tuple(w for o in originals for w in copies[o])
    origin = {w: o for o in originals for w in copies[o]}
    sigma = tuple({o: draw(st.sampled_from(game.strategies[i])) for o in originals}
                  for i in (0, 1))
    weights = st.integers(1, 4)

    def dist_over(targets):
        counts = {t: draw(weights) for t in targets}
        return {t: F(n, sum(counts.values())) for t, n in counts.items()}

    def split(dist):
        out = {}
        for t, v in dist.items():
            parts = {c: draw(weights) for c in copies[origin[t]] if c == t or draw(st.booleans())}
            out.update({c: v * n / sum(parts.values()) for c, n in parts.items()})
        return out

    p = []
    for _ in (0, 1):
        held = {o: dist_over(draw(st.lists(st.sampled_from(originals), min_size=1, max_size=3,
                                           unique=True))) for o in originals}
        per = {}
        for w in worlds:
            how = draw(st.sampled_from(("same", "equal", "split", "own")))
            belief = held[origin[w]]
            per[w] = {"same": belief, "equal": dict(belief), "split": split(belief),
                      "own": dist_over([draw(st.sampled_from(worlds))])}[how]
        p.append(per)
    everywhere = frozenset(worlds)
    base = StandardKripkeModel(game, worlds, ({w: everywhere for w in worlds},) * 2,
                               tuple({w: sigma[i][origin[w]] for w in worlds} for i in (0, 1)))
    return ProbKripkeModel(base, tuple(p))


@settings(max_examples=100, deadline=None)
@given(quotient_models(), st.sampled_from((F(1, 10), F(1, 4), F(1, 2))))
def test_type_quotient_matches_the_fraction_reference(model, eps):
    got, world_types = types_from_kripke(model)
    want, want_world_types = reference_types_from_kripke(model)
    assert got.types == want.types
    for i in (0, 1):
        assert list(got.beliefs[i]) == list(want.beliefs[i])
        for t, dist in got.beliefs[i].items():
            assert list(dist.items()) == list(want.beliefs[i][t].items())
    assert world_types == want_world_types
    assert eps_permissible(got, eps) == reference_eps_permissible(want, eps)


def test_round_trip_prob_types_to_kripke_and_back():
    eps = F(1, 4)
    source = myerson_prob_types(eps)
    built = kripke_from_prob_types(source)
    assert validate_prob(built) == []
    extracted, _ = types_from_kripke(built)
    assert len(extracted.types[0]) == 1
    t1, t2 = extracted.types[0][0], extracted.types[1][0]
    assert extracted.beliefs[0][t1] == {("C", t2): 1 - eps, ("D", t2): eps}


def test_df_witness_types_rationalize_the_df_set():
    rng = random.Random(41)
    games = [myerson_game()] + [random_game(rng) for _ in range(15)]
    for game in games:
        survivors, _ = dekel_fudenberg(game)
        model = df_witness_types(game)
        for i in (0, 1):
            for t in model.types[i]:
                assert type_caution(model, i, t)
                assert primary_belief_in_rationality(model, i, t)
        assert permissible(model) == (
            frozenset(survivors.sets[0]), frozenset(survivors.sets[1]))


# ---------------------------------------------------------------------------
# One type-model core against the constructors written out once per flavor.

_GAME = Game(("1", "2"), (("A", "B"), ("X", "Y")),
             {("A", "X"): (F(1), F(1)), ("A", "Y"): (F(0), F(0)),
              ("B", "X"): (F(0), F(1)), ("B", "Y"): (F(1), F(0))})


# True once in 16 draws; not at a bound of the range, where Hypothesis piles up.
_RARELY = st.integers(0, 15).map(lambda n: n == 9)


@st.composite
def _raw_level(draw, pairs, bad_pairs):
    """Weights over opponent pairs: mostly a distribution, possibly with zeros,
    sometimes an unknown pair, negative or non-summing weights."""
    support = draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=4, unique=True))
    if draw(_RARELY):
        support.append(draw(st.sampled_from(bad_pairs)))
    if draw(_RARELY):
        return {p: F(draw(st.integers(-1, 3)), draw(st.integers(1, 3))) for p in support}
    weights = [draw(st.integers(1 if k == 0 else 0, 3)) for k in range(len(support))]
    return {p: F(v, sum(weights)) for p, v in zip(support, weights)}


@st.composite
def _raw_type_models(draw):
    """Constructor arguments of either flavor, and a trembling bound."""
    lex = draw(st.booleans())
    types = []
    for _ in (0, 1):
        labels = draw(st.lists(st.sampled_from(("a", "b", "c")), min_size=1, max_size=3,
                               unique=True))
        if draw(_RARELY):
            labels.append(labels[0])
        types.append(tuple(labels))
    beliefs = []
    for i in (0, 1):
        j = 1 - i
        pairs = [(s, t) for s in _GAME.strategies[j] for t in dict.fromkeys(types[j])]
        # Player i's own strategy is unknown to the opponent, and so is "zz".
        bad = [(_GAME.strategies[i][0], types[j][0]), (_GAME.strategies[j][0], "zz")]
        per = {}
        for t in types[i]:
            if lex:
                count = 0 if draw(_RARELY) else draw(st.integers(1, 3))
                per[t] = [draw(_raw_level(pairs, bad)) for _ in range(count)]
            else:
                per[t] = draw(_raw_level(pairs, bad))
        if draw(_RARELY):  # a type without beliefs, or beliefs without a type
            extra = draw(st.booleans())
            per["x" if extra else types[i][0]] = per.pop(types[i][0])
        beliefs.append(per)
    eps = draw(st.sampled_from((F(1, 10), F(1, 4), F(1, 2))))
    return lex, tuple(types), tuple(beliefs), eps


def _built(cls, types, beliefs):
    try:
        return ("ok", cls(_GAME, types, beliefs))
    except InputError as exc:
        return ("error", str(exc))


_HALF = F(1, 2)
_LEX_OK = ({"a": [{("X", "a"): _HALF, ("Y", "a"): _HALF}]},
           {"a": [{("A", "a"): F(1)}, {("B", "a"): F(1)}]})


@settings(max_examples=200, deadline=None)
@given(_raw_type_models())
@example((True, (("a",), ("a",)), _LEX_OK, F(1, 4)))
# level 2 of a lexicographic type does not sum to 1
@example((True, (("a",), ("a",)), (_LEX_OK[0], {"a": [{("A", "a"): F(1)}, {("B", "a"): _HALF}]}),
          F(1, 4)))
# the same defect in a probabilistic type
@example((False, (("a",), ("a",)), ({"a": {("X", "a"): F(1)}}, {"a": {("A", "a"): _HALF}}),
          F(1, 4)))
# an unknown strategy with zero weight is dropped before pairs are checked
@example((False, (("a",), ("a",)),
          ({"a": {("X", "a"): F(1), ("Q", "a"): F(0)}}, {"a": {("A", "a"): F(1)}}), F(1, 2)))
# an unknown opponent type at level 2
@example((True, (("a",), ("a",)),
          (_LEX_OK[0], {"a": [{("A", "a"): F(1)}, {("B", "zz"): F(1)}]}), F(1, 4)))
# a lexicographic type without levels
@example((True, (("a",), ("a",)), (_LEX_OK[0], {"a": []}), F(1, 4)))
# duplicate labels, and beliefs that miss a type
@example((False, (("a", "a"), ("a",)), ({"a": {("X", "a"): F(1)}}, {"a": {("A", "a"): F(1)}}),
          F(1, 4)))
@example((False, (("a", "b"), ("a",)), ({"a": {("X", "a"): F(1)}}, {"a": {("A", "a"): F(1)}}),
          F(1, 4)))
def test_type_model_core_matches_reference_constructors(case):
    lex, types, beliefs, eps = case
    flavors = ((LexEpistemicModel, ReferenceLexEpistemicModel) if lex
               else (ProbEpistemicModel, ReferenceProbEpistemicModel))
    (kind, model), (ref_kind, ref) = (_built(cls, types, beliefs) for cls in flavors)
    if "error" in (kind, ref_kind):
        assert (kind, model) == (ref_kind, ref)
        return
    assert model.beliefs == ref.beliefs
    for i in (0, 1):
        for t in types[i]:
            assert type_caution(model, i, t) == reference_type_caution(ref, i, t)
            assert optimal_strategies(model, i, t) == reference_optimal_strategies(ref, i, t)
            if lex:
                assert (primary_belief_in_rationality(model, i, t)
                        == reference_primary_belief_in_rationality(ref, i, t))
            else:
                assert eps_trembling(model, i, t, eps) == reference_eps_trembling(ref, i, t, eps)
                assert model.levels(i, t) == (model.beliefs[i][t],)
