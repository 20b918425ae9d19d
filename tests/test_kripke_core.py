"""One belief core for both Kripke-model flavors, against the flavors written out apart.

A probabilistic model is the one-level case of an ordered model, so both
share one constructor, one validator and one caution, constancy and
best-reply check.  Each must give exactly what the per-flavor code in
``oracles`` gives, on models drawn wild enough to hit every message: errors
and cleaned beliefs (with their sharing), violations in order, and the
rationality events.
"""

import random
from collections import Counter
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from egk import kripke
from egk.convergence import EpsilonSchedule, build_epsilon_model, verify_convergence
from egk.epistemic import types_from_kripke
from egk.epsilon import check_prob_caution, upper_common_belief
from egk.errors import InputError
from egk.fixtures import myerson_game, myerson_ordered_model
from egk.kripke import (
    ProbKripkeModel,
    StandardKripkeModel,
    check_caution,
    check_constancy,
    rat,
    validate_beliefs,
    validate_prob,
    validate_standard,
)
from egk.ordered import (
    OrderedKripkeModel,
    check_lambda_constancy,
    check_structural_conditions,
    lrat,
    validate_ordered,
)

from generators import random_game
from oracles import (
    ReferenceOrderedKripkeModel,
    ReferenceProbKripkeModel,
    reference_belief_groups,
    reference_check_caution,
    reference_check_lambda_constancy,
    reference_check_prob_caution,
    reference_level_ids,
    reference_lrat,
    reference_rat,
    reference_validate_beliefs,
    reference_validate_levels,
)

GAMES = (myerson_game(), random_game(random.Random(3), 3, 3))


def _odds(n: int):
    """True about once in ``n`` draws (Hypothesis favors the ends of a range, so not 0)."""
    return st.integers(0, n - 1).map(lambda k: k == n // 2)


_SOMETIMES, _RARELY, _SELDOM = _odds(4), _odds(16), _odds(48)
_WILD_WEIGHTS = st.sampled_from((F(1), F(1, 2), F(1, 3), F(3, 2), F(0), F(-1, 2), 1, 0))


def _outcome(fn, *args):
    try:
        return ("ok", fn(*args))
    except InputError as exc:
        return ("error", str(exc))


@st.composite
def _level(draw, pool):
    """Weights over some of ``pool``: mostly a distribution, sometimes any weights."""
    support = draw(st.lists(st.sampled_from(pool), min_size=0 if draw(_RARELY) else 1,
                            max_size=4, unique=True))
    if draw(_SELDOM):
        support.append("zz")  # an unknown world
    if draw(_SOMETIMES):
        return {t: draw(_WILD_WEIGHTS) for t in support}
    counts = [draw(st.integers(1, 3)) for _ in support]
    return {t: F(n, sum(counts)) for t, n in zip(support, counts)}


@st.composite
def _belief(draw, lex, pool):
    if not lex:
        return draw(_level(pool))
    levels = [draw(_level(pool)) for _ in range(0 if draw(_SELDOM) else draw(st.integers(1, 3)))]
    if levels and draw(_RARELY):  # a repeated level: the same object or an equal copy
        levels.append(levels[0] if draw(st.booleans()) else dict(levels[0]))
    return levels if draw(st.booleans()) else tuple(levels)


@st.composite
def wild_models(draw):
    """Constructor arguments of either flavor over a drawn frame.

    Each player's worlds fall into classes that hold one belief object
    each; some worlds take another class's object (one belief shared by
    different access sets) or one of their own (a belief that varies
    inside a class), and some belief maps miss a world or name an extra one
    or list the worlds in reverse.  A world holds its class's one access
    set object or an equal one of its own.
    """
    lex = draw(st.booleans())
    game = draw(st.sampled_from(GAMES))
    worlds = tuple(f"w{n}" for n in range(1, draw(st.integers(1, 4)) + 1))
    sigma = tuple({w: draw(st.sampled_from(game.strategies[i])) for w in worlds}
                  for i in (0, 1))
    access, beliefs = [], []
    for _ in (0, 1):
        cls = {w: draw(st.integers(0, 1)) for w in worlds}
        members = {c: [w for w in worlds if cls[w] == c] for c in set(cls.values())}
        shared = {c: frozenset(m) for c, m in members.items()}
        access.append({w: shared[cls[w]] if draw(st.booleans()) else frozenset(members[cls[w]])
                       for w in worlds})
        held = {c: draw(_belief(lex, list(worlds) if draw(_SOMETIMES) else m))
                for c, m in members.items()}
        per = {}
        for w in worlds:
            per[w] = held[cls[w]]
            if draw(_RARELY):
                per[w] = held[draw(st.sampled_from(sorted(held)))]
            elif draw(_RARELY):
                per[w] = draw(_belief(lex, list(worlds)))
        if draw(_SOMETIMES):
            per = dict(reversed(per.items()))
        if draw(_RARELY):
            if draw(st.booleans()):
                del per[worlds[0]]
            else:
                per["zz"] = per[worlds[0]]
        beliefs.append(per)
    base = StandardKripkeModel(game, worlds, tuple(access), sigma)
    return lex, base, tuple(beliefs)


def _two_worlds(lex, beliefs):
    """Player 1 tells w1 and w2 apart, player 2 does not; the profiles are (A, C) and (B, D)."""
    both = {"w1", "w2"}
    base = StandardKripkeModel(GAMES[0], ("w1", "w2"),
                               ({"w1": {"w1"}, "w2": {"w2"}}, {"w1": both, "w2": both}),
                               ({"w1": "A", "w2": "B"}, {"w1": "C", "w2": "D"}))
    return lex, base, beliefs


_W1 = {"w1": F(1)}
_BOTH = {"w1": F(1, 2), "w2": F(1, 2)}
_SHARED = frozenset({"w1", "w2"})


@settings(max_examples=400, deadline=None)
@given(wild_models())
# player 1's belief at w1 sums to 1/2, in each flavor
@example(_two_worlds(False, ({"w1": {"w1": F(1, 2)}, "w2": {"w2": F(1)}},
                             {"w1": _BOTH, "w2": _BOTH})))
@example(_two_worlds(True, ({"w1": [{"w1": F(1, 2)}], "w2": [{"w2": F(1)}]},
                                {"w1": [_BOTH], "w2": [_BOTH]})))
# one belief object at w1 and w2, whose access sets differ: support fails at w2 only
@example(_two_worlds(False, ({"w1": _W1, "w2": _W1}, {"w1": _BOTH, "w2": _BOTH})))
# player 2's belief varies inside the class {w1, w2}
@example(_two_worlds(False, ({"w1": _W1, "w2": {"w2": F(1)}}, {"w1": _BOTH, "w2": {"w1": F(1)}})))
# one access set object held at w1 and w2, whose beliefs differ: constancy fails at each
@example((False, StandardKripkeModel(GAMES[0], ("w1", "w2"),
                                     ({"w1": _SHARED, "w2": _SHARED}, {"w1": _SHARED, "w2": _SHARED}),
                                     ({"w1": "A", "w2": "A"}, {"w1": "C", "w2": "D"})),
          ({"w2": {"w2": F(1)}, "w1": _W1}, {"w1": _BOTH, "w2": _BOTH})))
# player 2 sees the opponent's B only at level 2 of w1
@example(_two_worlds(True, ({"w1": [_W1], "w2": [{"w2": F(1)}]},
                                {"w1": [{"w1": F(1)}, {"w2": F(1)}], "w2": [_BOTH]})))
def test_belief_core_matches_the_flavors_written_apart(case):
    lex, base, beliefs = case
    cls, ref_cls = ((OrderedKripkeModel, ReferenceOrderedKripkeModel) if lex
                    else (ProbKripkeModel, ReferenceProbKripkeModel))
    got, want = _outcome(cls, base, beliefs), _outcome(ref_cls, base, beliefs)
    if "error" in (got[0], want[0]):
        assert got == want
        return
    model, ref = got[1], want[1]
    stored, ref_stored = (model.lam, ref.lam) if lex else (model.p, ref.p)
    assert stored == ref_stored
    for i in (0, 1):
        assert [(id(belief), holders) for belief, holders in model.groups(i)] == [
            (id(belief), tuple(holders)) for belief, holders in reference_belief_groups(base.worlds, stored[i])]
        for w in base.worlds:
            assert model.levels(i, w) == (ref_stored[i][w] if lex else (ref_stored[i][w],))
            for w2 in base.worlds:
                assert (stored[i][w] is stored[i][w2]) == (ref_stored[i][w] is ref_stored[i][w2])
    frame = validate_standard(base)
    if lex:
        violations = reference_validate_levels(ref)
        assert validate_beliefs(model) == violations
        assert validate_ordered(model) == frame + violations
        assert tuple(kripke._checks(model, i).ids for i in (0, 1)) == reference_level_ids(ref)
        assert check_lambda_constancy(model) == reference_check_lambda_constancy(ref)
        assert check_caution(model) == reference_check_caution(ref)
        assert _outcome(lrat, model) == _outcome(reference_lrat, ref)
    else:
        violations = reference_validate_beliefs(ref)
        assert validate_beliefs(model) == violations
        assert validate_prob(model) == frame + violations
        assert check_constancy(model) == [v for v in violations if v.kind == "p-constancy"]
        assert check_prob_caution(model) == reference_check_prob_caution(ref)
        assert _outcome(rat, model) == _outcome(reference_rat, ref)


def test_the_flavors_share_the_core_checks():
    assert check_prob_caution is check_caution
    assert check_lambda_constancy is check_constancy


def test_each_model_is_checked_once(monkeypatch):
    passes = Counter()
    check_beliefs = kripke._check_beliefs

    def counted_pass(model, i):
        passes[id(model), i] += 1
        return check_beliefs(model, i)

    monkeypatch.setattr(kripke, "_check_beliefs", counted_pass)
    source = myerson_ordered_model()
    models = [source]  # every model stays alive, so no id is reused
    # All five views of the source, each read twice, from one pass per player.
    for _ in range(2):
        assert validate_ordered(source) == []
        assert check_caution(source) == []
        assert check_structural_conditions(source).surjection
        assert len(check_lambda_constancy(source)) == 8
        assert set(kripke._checks(source, 0).ids.values()) == {0, 1, 2, 3}
    schedule = EpsilonSchedule(F(1, 2), 3)
    verify_convergence(source, schedule)
    models += [build_epsilon_model(source, eps) for eps in schedule.values()]
    built = build_epsilon_model(source, F(1, 16))
    models.append(built)
    # The source's levels vary inside its classes, and so does the member's belief.
    assert {v.kind for v in validate_prob(built)} == {"p-constancy"}
    assert len(models) == 5
    assert passes == Counter({(id(model), i): 1 for model in models for i in (0, 1)})


def test_each_model_is_grouped_once(monkeypatch):
    walks = []
    belief_groups = kripke.belief_groups

    def counted_walk(worlds, beliefs):
        walks.append(worlds)
        return belief_groups(worlds, beliefs)

    monkeypatch.setattr(kripke, "belief_groups", counted_walk)
    source = myerson_ordered_model()
    models = [source]
    assert validate_ordered(source) == [] and check_caution(source) == []
    lrat(source)
    schedule = EpsilonSchedule(F(1, 2), 3)
    verify_convergence(source, schedule)
    models += [build_epsilon_model(source, eps) for eps in schedule.values()]
    built = build_epsilon_model(source, F(1, 16))
    models.append(built)
    validate_prob(built)
    rat(built)
    upper_common_belief(built, F(1, 16), source.worlds)
    types_from_kripke(built)
    # Each constructor walks each player's worlds once; every reader uses the kept groups.
    assert len(models) == 5
    assert walks == [source.worlds] * (2 * len(models))


@pytest.mark.parametrize("check", [
    validate_standard, validate_beliefs, check_caution, check_constancy,
], ids=["validate_standard", "validate_beliefs", "check_caution", "check_constancy"])
@pytest.mark.parametrize("lex", [False, True], ids=["prob", "ordered"])
def test_changing_an_answer_leaves_the_next_one_alone(check, lex):
    # Player 2's belief varies inside the class {w1, w2} and never weights D;
    # player 1's belief at w1 sums to 1/2; w2 plays B, which player 1 cannot see.
    p1 = {"w1": {"w1": F(1, 2)}, "w2": {"w2": F(1)}}
    p2 = {"w1": {"w1": F(1)}, "w2": _BOTH}
    if lex:
        p1, p2 = ({w: (dist,) for w, dist in p.items()} for p in (p1, p2))
    _, base, beliefs = _two_worlds(lex, (p1, p2))
    cls = OrderedKripkeModel if lex else ProbKripkeModel
    model = cls(base, beliefs)
    first = check(model)
    first.append("zz")
    assert check(model) == check(cls(base, beliefs)) != first


@pytest.mark.parametrize("lex", [False, True], ids=["prob", "ordered"])
def test_validate_standard_checks_a_framed_model_on_its_frame(lex):
    # Player 2 cannot tell w1 from w2 but plays C at one and D at the other.
    beliefs = ({"w1": _W1, "w2": {"w2": F(1)}}, {"w1": _BOTH, "w2": _BOTH})
    if lex:
        beliefs = tuple({w: (dist,) for w, dist in per.items()} for per in beliefs)
    _, base, beliefs = _two_worlds(lex, beliefs)
    model = (OrderedKripkeModel if lex else ProbKripkeModel)(base, beliefs)
    found = validate_standard(model)
    assert found == validate_standard(model.base)
    assert [v.kind for v in found] == ["sigma-constancy"] * 2


@pytest.mark.parametrize("lex", [False, True], ids=["prob", "ordered"])
def test_equal_beliefs_held_as_distinct_objects_are_constant(lex):
    # Player 2's class {w1, w2} holds one value twice, as two objects.
    beliefs = ({"w1": _W1, "w2": {"w2": F(1)}}, {"w1": dict(_BOTH), "w2": dict(_BOTH)})
    if lex:
        beliefs = tuple({w: [dist] for w, dist in per.items()} for per in beliefs)
    _, base, beliefs = _two_worlds(lex, beliefs)
    model = (OrderedKripkeModel if lex else ProbKripkeModel)(base, beliefs)
    assert model.beliefs(1)["w1"] is not model.beliefs(1)["w2"]
    assert check_constancy(model) == []
    assert validate_beliefs(model) == []
    ids = [kripke._checks(model, i).ids for i in (0, 1)]
    assert ids[1]["w1"] == ids[1]["w2"]
    assert ids[0]["w1"] != ids[0]["w2"]


def test_only_a_probabilistic_model_requires_constancy():
    # Player 2's belief varies inside the class {w1, w2}.
    varied = ({"w1": _W1, "w2": {"w2": F(1)}}, {"w1": {"w1": F(1)}, "w2": _BOTH})
    prob = ProbKripkeModel(*_two_worlds(False, varied)[1:])
    lexed = tuple({w: (dist,) for w, dist in per.items()} for per in varied)
    lex = OrderedKripkeModel(*_two_worlds(True, lexed)[1:])
    assert [v.kind for v in check_constancy(prob)] == ["p-constancy"] * 2
    assert validate_beliefs(prob) == check_constancy(prob)
    assert [v.kind for v in check_constancy(lex)] == ["lambda-constancy"] * 2
    assert validate_beliefs(lex) == []
