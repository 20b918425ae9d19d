import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from egk import cli, modelio
from egk.convergence import (
    SCHEMES,
    EpsilonSchedule,
    build_epsilon_model,
    check_limit_conditions,
    check_proper_ratio,
    verify_convergence,
)
from egk.epistemic import types_from_kripke
from egk.epsilon import check_prob_caution, check_trembling, upper_common_belief
from egk.errors import InputError
from egk.fixtures import myerson_game, myerson_ordered_model, myerson_prob_model
from egk.games import Game
from egk.kripke import ProbKripkeModel, StandardKripkeModel, rat, validate_beliefs, validate_prob
from egk.ordered import OrderedKripkeModel, check_lambda_constancy

from generators import _random_dist, random_game, random_ordered_model
from oracles import reference_build_member

ONE = F(1)


def test_schedule_values_and_validation():
    sched = EpsilonSchedule(F(1, 2), 9)
    values = sched.values()
    assert values[0] == F(1, 4) and values[-1] == F(1, 1024)
    assert all(a > b for a, b in zip(values, values[1:]))
    assert all(0 < v < F(1, 2) for v in values)
    with pytest.raises(InputError):
        EpsilonSchedule(F(3, 4), 5)
    with pytest.raises(InputError):
        EpsilonSchedule(F(1, 2), 0)
    with pytest.raises(InputError):
        EpsilonSchedule(F(2, 1), 3)


def test_build_weights_on_fixture():
    model = myerson_ordered_model()
    eps = F(1, 4)
    built = build_epsilon_model(model, eps)
    # Two point-mass levels: primary keeps 1/(1+eps), secondary eps/(1+eps).
    assert built.p[0]["w1"] == {"w1": F(4, 5), "w2": F(1, 5)}
    assert built.p[1]["w1"] == {"w1": F(4, 5), "w3": F(1, 5)}
    # Same supports as the probabilistic fixture, primary world heavy.
    reference = myerson_prob_model(eps)
    for i in (0, 1):
        for w in model.worlds:
            assert set(built.p[i][w]) == set(reference.p[i][w])
            assert set(built.p[i][w]) <= model.access[i][w]
    assert check_prob_caution(built) == []


def test_build_single_level_copies_lambda():
    game = Game(("1", "2"), (("A",), ("C", "D")),
                {("A", "C"): (F(1), F(1)), ("A", "D"): (F(0), F(0))})
    worlds = ("u", "v")
    cluster = frozenset(worlds)
    access = ({"u": cluster, "v": cluster},
              {"u": frozenset({"u"}), "v": frozenset({"v"})})
    sigma = ({"u": "A", "v": "A"}, {"u": "C", "v": "D"})
    lam1 = {w: ({"u": F(2, 3), "v": F(1, 3)},) for w in worlds}
    lam2 = {"u": ({"u": ONE},), "v": ({"v": ONE},)}
    model = OrderedKripkeModel(
        StandardKripkeModel(game, worlds, access, sigma), (lam1, lam2))
    for eps in (F(1, 4), F(1, 10)):
        built = build_epsilon_model(model, eps)
        assert built.p[0]["u"] == {"u": F(2, 3), "v": F(1, 3)}


def test_build_preserves_within_level_proportions():
    game = Game(("1", "2"), (("A",), ("C", "D")),
                {("A", "C"): (F(1), F(1)), ("A", "D"): (F(0), F(0))})
    worlds = ("u", "v", "x", "y")
    cluster = frozenset(worlds)
    access1 = {w: cluster for w in worlds}
    access2 = {"u": frozenset({"u"}), "v": frozenset({"v"}),
               "x": frozenset({"x"}), "y": frozenset({"y"})}
    sigma = ({w: "A" for w in worlds}, {"u": "C", "v": "D", "x": "C", "y": "D"})
    lam1 = {w: ({"u": ONE}, {"v": F(1, 3), "x": F(1, 3), "y": F(1, 3)}) for w in worlds}
    lam2 = {w: ({w: ONE},) for w in worlds}
    model = OrderedKripkeModel(
        StandardKripkeModel(game, worlds, (access1, access2), sigma), (lam1, lam2))
    built = build_epsilon_model(model, F(1, 5))
    dist = built.p[0]["u"]
    assert dist["v"] == dist["x"] == dist["y"]
    assert dist["v"] <= F(1, 5)


def test_build_rejects_broken_hypotheses():
    game = myerson_game()
    worlds = ("u", "v")
    cluster = frozenset(worlds)
    access = ({"u": cluster, "v": cluster},) * 2
    sigma = ({"u": "A", "v": "A"}, {"u": "C", "v": "D"})
    # Not cautious: both levels sit on the C world for player 1.
    lam_bad = {w: ({"u": ONE},) for w in worlds}
    lam_ok = {w: ({"u": F(1, 2), "v": F(1, 2)},) for w in worlds}
    model = OrderedKripkeModel(
        StandardKripkeModel(game, worlds, access, sigma), (lam_bad, lam_ok))
    with pytest.raises(InputError):
        build_epsilon_model(model, F(1, 4))
    # Overlapping supports: disjointness fails.
    lam_overlap = {w: ({"u": F(1, 2), "v": F(1, 2)}, {"u": ONE}) for w in worlds}
    model2 = OrderedKripkeModel(
        StandardKripkeModel(game, worlds, access, sigma), (lam_overlap, lam_ok))
    with pytest.raises(InputError):
        build_epsilon_model(model2, F(1, 4))


def test_built_model_is_valid_for_class_constant_source():
    # A class-constant variant of the ordered fixture: each cluster's primary
    # belief points at its rational diagonal world, so the built model also
    # meets the trembling bound at its own eps.
    game = myerson_game()
    worlds = ("w1", "w2", "w3", "w4")
    profiles = {"w1": ("A", "C"), "w2": ("A", "D"), "w3": ("B", "C"), "w4": ("B", "D")}
    sigma = ({w: profiles[w][0] for w in worlds}, {w: profiles[w][1] for w in worlds})
    c1 = {"w1": frozenset({"w1", "w2"}), "w2": frozenset({"w1", "w2"}),
          "w3": frozenset({"w3", "w4"}), "w4": frozenset({"w3", "w4"})}
    c2 = {"w1": frozenset({"w1", "w3"}), "w3": frozenset({"w1", "w3"}),
          "w2": frozenset({"w2", "w4"}), "w4": frozenset({"w2", "w4"})}
    lam1 = {"w1": ({"w1": ONE}, {"w2": ONE}), "w2": ({"w1": ONE}, {"w2": ONE}),
            "w3": ({"w3": ONE}, {"w4": ONE}), "w4": ({"w3": ONE}, {"w4": ONE})}
    lam2 = {"w1": ({"w1": ONE}, {"w3": ONE}), "w3": ({"w1": ONE}, {"w3": ONE}),
            "w2": ({"w2": ONE}, {"w4": ONE}), "w4": ({"w2": ONE}, {"w4": ONE})}
    model = OrderedKripkeModel(
        StandardKripkeModel(game, worlds, (c1, c2), sigma), (lam1, lam2))
    eps = F(1, 4)
    built = build_epsilon_model(model, eps)
    assert validate_prob(built) == []
    assert check_prob_caution(built) == []
    assert check_trembling(built, eps) == []


def test_convergence_on_fixture():
    model = myerson_ordered_model()
    report = verify_convergence(model, EpsilonSchedule(F(1, 2), 9))
    assert all(row.upper_cb == ("w1",) for row in report.rows)
    assert report.stabilized == ("w1",)
    assert report.cb1_lrat == ("w1",)
    assert report.matches


def test_convergence_trivial_game():
    game = Game(("1", "2"), (("A",), ("C",)), {("A", "C"): (F(1), F(1))})
    worlds = ("u",)
    access = ({"u": frozenset(worlds)},) * 2
    sigma = ({"u": "A"}, {"u": "C"})
    lam = ({"u": ({"u": ONE},)},) * 2
    model = OrderedKripkeModel(StandardKripkeModel(game, worlds, access, sigma), lam)
    report = verify_convergence(model, EpsilonSchedule(F(1, 2), 5))
    assert all(row.rat == ("u",) and row.upper_cb == ("u",) for row in report.rows)
    assert report.matches


def test_convergence_on_random_models():
    rng = random.Random(43)
    for _ in range(10):
        game = random_game(rng)
        model = random_ordered_model(rng, game)
        report = verify_convergence(model, EpsilonSchedule(F(1, 2), 9))
        assert report.matches


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from(SCHEMES))
def test_main_theorem_on_random_models(seed, scheme):
    # Every ordered model is the limit of its family: the stabilized tail of
    # upper common belief in rationality is common primary belief in
    # lexicographic rationality.
    rng = random.Random(seed)
    model = random_ordered_model(rng, random_game(rng))
    assert verify_convergence(model, EpsilonSchedule(F(1, 2), 6), scheme).matches


def test_limit_conditions_on_fixture_family():
    model = myerson_ordered_model()
    sched = EpsilonSchedule(F(1, 2), 6)
    family = [build_epsilon_model(model, eps) for eps in sched.values()]
    report = check_limit_conditions(model, family, sched)
    assert report.holds


def test_limit_conditions_catch_broken_proportions():
    model = myerson_ordered_model()
    sched = EpsilonSchedule(F(1, 2), 3)
    family = [build_epsilon_model(model, eps) for eps in sched.values()]
    # Tamper with one member: move mass between two primary-support worlds
    # of the same level by swapping the weights at a single world.
    victim = family[1]
    p0 = {w: dict(victim.p[0][w]) for w in victim.worlds}
    p0["w1"] = {"w1": F(7, 10), "w2": F(3, 10)}
    p0["w2"] = dict(p0["w1"])
    tampered = type(victim)(victim.base, (p0, victim.p[1]))
    report = check_limit_conditions(model, [family[0], tampered, family[2]], sched)
    assert not report.holds
    assert report.vanishing or report.proportions


def test_limit_conditions_single_level_model_vacuous():
    game = Game(("1", "2"), (("A",), ("C", "D")),
                {("A", "C"): (F(1), F(1)), ("A", "D"): (F(0), F(0))})
    worlds = ("u", "v")
    cluster = frozenset(worlds)
    access = ({"u": cluster, "v": cluster},
              {"u": frozenset({"u"}), "v": frozenset({"v"})})
    sigma = ({"u": "A", "v": "A"}, {"u": "C", "v": "D"})
    lam1 = {w: ({"u": F(1, 2), "v": F(1, 2)},) for w in worlds}
    lam2 = {"u": ({"u": ONE},), "v": ({"v": ONE},)}
    model = OrderedKripkeModel(
        StandardKripkeModel(game, worlds, access, sigma), (lam1, lam2))
    sched = EpsilonSchedule(F(1, 2), 4)
    family = [build_epsilon_model(model, eps) for eps in sched.values()]
    assert check_limit_conditions(model, family, sched).holds


def _uneven_levels_model() -> OrderedKripkeModel:
    # Level 1 splits 3/4-1/4; the deep world under plain geometric masses
    # would outweigh eps times the light primary world.
    game = Game(("1", "2"), (("A",), ("C", "D")),
                {("A", "C"): (F(1), F(1)), ("A", "D"): (F(0), F(0))})
    worlds = ("u", "v", "x")
    cluster = frozenset(worlds)
    access1 = {w: cluster for w in worlds}
    access2 = {"u": frozenset({"u", "x"}), "x": frozenset({"u", "x"}),
               "v": frozenset({"v"})}
    sigma = ({w: "A" for w in worlds}, {"u": "C", "v": "D", "x": "C"})
    lam1 = {w: ({"u": F(3, 4), "v": F(1, 4)}, {"x": ONE}) for w in worlds}
    lam2 = {"u": ({"u": F(1, 2), "x": F(1, 2)},), "x": ({"u": F(1, 2), "x": F(1, 2)},),
            "v": ({"v": ONE},)}
    return OrderedKripkeModel(
        StandardKripkeModel(game, worlds, (access1, access2), sigma), (lam1, lam2))


def test_proper_scheme_enforces_cross_level_ratios():
    model = _uneven_levels_model()
    eps = F(1, 4)
    geometric = build_epsilon_model(model, eps, "perfect")
    assert check_proper_ratio(model, geometric, eps) != []
    proper = build_epsilon_model(model, eps, "proper")
    assert check_proper_ratio(model, proper, eps) == []
    assert validate_prob(proper) == []
    # The proper family still verifies the limit clauses.
    sched = EpsilonSchedule(F(1, 2), 4)
    family = [build_epsilon_model(model, eps_n, "proper") for eps_n in sched.values()]
    assert check_limit_conditions(model, family, sched).holds


def test_proper_scheme_on_random_models():
    rng = random.Random(47)
    for _ in range(10):
        game = random_game(rng)
        model = random_ordered_model(rng, game)
        eps = F(1, 8)
        built = build_epsilon_model(model, eps, "proper")
        assert check_proper_ratio(model, built, eps) == []
        report = verify_convergence(model, EpsilonSchedule(F(1, 2), 9), "proper")
        assert report.matches


def test_non_transitive_source_frame_is_rejected_before_any_member():
    # Cautious, disjoint and surjective levels; player 1's frame is not transitive.
    game = Game(("1", "2"), (("A",), ("C", "D")),
                {("A", "C"): (ONE, ONE), ("A", "D"): (F(0), F(0))})
    worlds = ("w1", "w2", "w3")
    sigma = ({w: "A" for w in worlds}, {"w1": "C", "w2": "D", "w3": "C"})
    access = ({"w1": {"w1", "w2"}, "w2": {"w2", "w3"}, "w3": {"w2", "w3"}},
              {"w1": {"w1", "w3"}, "w2": {"w2"}, "w3": {"w1", "w3"}})
    half = {"w1": F(1, 2), "w3": F(1, 2)}
    lam = ({"w1": ({"w1": ONE}, {"w2": ONE}), "w2": ({"w2": ONE}, {"w3": ONE}),
            "w3": ({"w3": ONE}, {"w2": ONE})},
           {"w1": (half,), "w2": ({"w2": ONE},), "w3": (half,)})
    model = OrderedKripkeModel(StandardKripkeModel(game, worlds, access, sigma), lam)
    message = "built model is invalid: player 1: w1Rw2 and w2Rw3 but not w1Rw3"
    for scheme in ("perfect", "proper"):
        with pytest.raises(InputError) as exc:
            build_epsilon_model(model, F(1, 4), scheme)
        assert str(exc.value) == message

        def on_member(n, member):
            raise AssertionError("no member may be built")

        with pytest.raises(InputError) as exc:
            verify_convergence(model, EpsilonSchedule(F(1, 2), 3), scheme, on_member)
        assert str(exc.value) == message


def _assert_source_rejected_before_any_member(data, message, tmp_path, capsys):
    """Both schemes reject the source through the library and ``egk converge``."""
    model = modelio.model_from_json(data)
    path = tmp_path / "source.json"
    path.write_text(modelio.dumps(data))

    def on_member(n, member):
        raise AssertionError("no member may be built")

    for scheme in ("perfect", "proper"):
        with pytest.raises(InputError) as exc:
            build_epsilon_model(model, F(1, 4), scheme)
        assert str(exc.value) == message
        with pytest.raises(InputError) as exc:
            verify_convergence(model, EpsilonSchedule(F(1, 2), 3), scheme, on_member)
        assert str(exc.value) == message
        argv = ["converge", str(path), "--schedule", "geometric:1/2,3", "--scheme", scheme]
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: {message}\n")


@pytest.mark.parametrize("empty", [{}, {"w1": "0"}], ids=["no-weights", "zero-weight"])
def test_empty_belief_level_is_rejected_before_any_member(empty, tmp_path, capsys):
    # Player 1 gets a third level at w1 and w2 that weights no world.
    data = modelio.model_to_json(myerson_ordered_model())
    for w in ("w1", "w2"):
        data["lambda"]["1"][w].append(empty)
    _assert_source_rejected_before_any_member(
        data, "empty belief level: player 1: level 3 at w1 gives no world positive weight",
        tmp_path, capsys)


@pytest.mark.parametrize("level,detail", [
    ({"w1": "5"}, "player 1: level 1 at w1 sums to 5"),
    ({"w1": "3/2", "w3": "-1/2"}, "player 1: level 1 at w1 gives w3 the negative weight -1/2"),
], ids=["sum", "negative"])
def test_source_level_that_is_not_a_probability_is_rejected_before_any_member(
        level, detail, tmp_path, capsys):
    # A member's weights would not sum to 1 either, but the source is at fault.
    data = modelio.model_to_json(myerson_ordered_model())
    data["lambda"]["1"]["w1"][0] = level
    _assert_source_rejected_before_any_member(
        data, f"ordered model is invalid: {detail}", tmp_path, capsys)


def test_source_level_off_access_is_rejected_before_any_member(tmp_path, capsys):
    # w3 is not accessible from w1 for player 1; a member would inherit the weight.
    data = modelio.model_to_json(myerson_ordered_model())
    data["lambda"]["1"]["w1"][0] = {"w1": "1/2", "w3": "1/2"}
    _assert_source_rejected_before_any_member(
        data, "ordered model is invalid: player 1: level 1 at w1 weights w3, not accessible",
        tmp_path, capsys)


def _wild_ordered_model(rng: random.Random) -> OrderedKripkeModel:
    """A valid source whose levels vary inside R_i classes.

    Starts from a class-constant model and redraws the levels of about half
    the worlds, giving each new sequence to some of the world's class-mates
    too, so classes split into several distinct beliefs.
    """
    model = random_ordered_model(rng, random_game(rng))
    lam = []
    for i in (0, 1):
        per = dict(model.lam[i])
        for w in model.worlds:
            if rng.random() < 0.5:
                continue
            members = sorted(model.access[i][w])
            rng.shuffle(members)
            n_levels = rng.randint(1, min(3, len(members)))
            cuts = sorted(rng.sample(range(1, len(members)), n_levels - 1))
            levels = tuple(_random_dist(rng, members[a:b])
                           for a, b in zip([0] + cuts, cuts + [len(members)]))
            for w2 in model.access[i][w]:
                if w2 == w or rng.random() < 0.4:
                    per[w2] = levels
        lam.append(per)
    return OrderedKripkeModel(model.base, (lam[0], lam[1]))


def _outcome(fn, *args):
    try:
        return ("ok", fn(*args))
    except InputError as exc:
        return ("error", str(exc))


def _readings(model: ProbKripkeModel, eps):
    """What every per-belief reader says about ``model``."""
    rat_outcome = _outcome(rat, model)
    event = rat_outcome[1][1] if rat_outcome[0] == "ok" else frozenset(model.worlds[::2])
    return (validate_beliefs(model), validate_prob(model), rat_outcome,
            _outcome(upper_common_belief, model, eps, event), check_prob_caution(model),
            _outcome(types_from_kripke, model))


def _with_beliefs(model: ProbKripkeModel, i: int, beliefs) -> ProbKripkeModel:
    p = [dict(model.p[0]), dict(model.p[1])]
    p[i].update(beliefs)
    return ProbKripkeModel(model.base, (p[0], p[1]))


def _invalid_shared_variants(member: ProbKripkeModel) -> list[ProbKripkeModel]:
    """Copies of ``member`` where one belief object, held by two worlds, is broken.

    The object gets a wrong sum, or a negative weight, or is also handed to
    a world with another access set.
    """
    for i in (0, 1):
        acc = member.access[i]
        pairs = [(a, b) for a in member.worlds for b in member.worlds
                 if a < b and acc[a] == acc[b] and len(acc[a]) > 1]
        if not pairs:
            continue
        a, b = pairs[0]
        outsiders = [x for x in member.worlds if acc[x] != acc[a]]
        if not outsiders:
            continue
        t1, t2 = sorted(acc[a])[:2]
        doubled = {t: 2 * v for t, v in member.p[i][a].items()}
        negative = {t1: F(3, 2), t2: F(-1, 2)}
        shared = dict(member.p[i][a])
        return [_with_beliefs(member, i, {a: doubled, b: doubled}),
                _with_beliefs(member, i, {a: negative, b: negative}),
                _with_beliefs(member, i, {a: shared, b: shared, outsiders[0]: shared})]
    return []


def _deep_copied(model: ProbKripkeModel) -> ProbKripkeModel:
    return ProbKripkeModel(model.base, tuple(
        {w: dict(model.p[i][w]) for w in model.worlds} for i in (0, 1)))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(("class-constant", "fixture", "wild")), st.integers(0, 10**6),
       st.sampled_from(SCHEMES), st.sampled_from(EpsilonSchedule(F(1, 2), 4).values()))
def test_member_built_per_belief_matches_the_per_world_build(kind, seed, scheme, eps):
    rng = random.Random(seed)
    if kind == "fixture":
        source = myerson_ordered_model()
    elif kind == "class-constant":
        source = random_ordered_model(rng, random_game(rng))
    else:
        source = _wild_ordered_model(rng)
    member = build_epsilon_model(source, eps, scheme)
    reference = reference_build_member(source, eps, scheme, not check_lambda_constancy(source))
    assert member.p == reference.p
    if kind == "class-constant":
        for i in (0, 1):
            for w in source.worlds:
                assert all(member.p[i][w1] is member.p[i][w] for w1 in source.access[i][w])
    # Readers evaluate once per belief object, yet answer world by world:
    # sharing must not change a result, a violation or its order.
    for shared in [member] + _invalid_shared_variants(member):
        assert _readings(shared, eps) == _readings(_deep_copied(shared), eps)


def _respelt(weight: str) -> str:
    """``weight`` written with numerator and denominator doubled: another spelling, one value."""
    num, _, den = weight.partition("/")
    return f"{2 * int(num)}/{2 * int(den or 1)}"


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from(SCHEMES))
def test_member_holds_one_belief_per_source_group(seed, scheme):
    rng = random.Random(seed)
    data = modelio.model_to_json(random_ordered_model(rng, random_game(rng)))
    # One world's levels respelt: equal in value to its class's, yet parsed
    # on their own, so the loaded source keeps them as a group of their own.
    name = rng.choice(data["game"]["players"])
    w = rng.choice(data["worlds"])
    data["lambda"][name][w] = [{t: _respelt(v) for t, v in level.items()}
                               for level in data["lambda"][name][w]]
    source = modelio.model_from_json(data)
    eps = EpsilonSchedule(F(1, 2), 2).values()[-1]
    member = build_epsilon_model(source, eps, scheme)
    for i in (0, 1):
        assert [holders for _, holders in member.groups(i)] == \
            [holders for _, holders in source.groups(i)]
    reference = reference_build_member(source, eps, scheme, not check_lambda_constancy(source))
    assert member.p == reference.p
