import argparse
import contextlib
import copy
import io
import json
import random
import re
import tempfile
from pathlib import Path
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from egk import cli, convergence, epsilon, modelio
from egk.epistemic import ProbEpistemicModel, df_witness_types
from egk.errors import FormatError, InputError
from egk.fixtures import (
    myerson_game,
    myerson_lex_types,
    myerson_ordered_model,
    myerson_prob_model,
    myerson_prob_types,
)
from egk.kripke import ProbKripkeModel, rat, validate_beliefs
from egk.ordered import OrderedKripkeModel, level_ids, lrat
from generators import random_game, random_ordered_model
from oracles import reference_model_from_json


# Digits in a number past Python's int/str conversion limit (4,300 by default,
# sys.get_int_max_str_digits); egk's rationals have no length limit.
_LONG = 5000


def write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(modelio.dumps(payload))
    return str(path)


def test_parse_rational():
    assert modelio.parse_rational("3/4", "x") == F(3, 4)
    assert modelio.parse_rational("2", "x") == F(2)
    assert modelio.parse_rational("-5/10", "x") == F(-1, 2)
    assert modelio.parse_rational("007/014", "x") == F(1, 2)
    assert modelio.parse_rational(-3, "x") == F(-3)
    # int() alone reads "1_000", "٣", "3/ 4", " 1" and "+1"; JSON true is an int in Python.
    for bad in ("1/0", "a", "1.5", "1/2/3", None, True, False, 1.0, "1_000", "\u0663",
                "3/ 4", " 1", "1 ", "1\n", "+1", "1/-2", "--1", "", "-", "/2", "2/", "\u00b2", [], {}):
        with pytest.raises(FormatError, match="^x: "):
            modelio.parse_rational(bad, "x")
    assert modelio.format_rational(F(4, 2)) == "2"
    assert modelio.format_rational(F(-3, 9)) == "-1/3"
    assert modelio.format_rational(3) == "3"
    # Past the digit limit, where int() and str() refuse a Python integer.
    long = 7 * (10 ** _LONG - 1) // 9
    for text, value in (("7" * _LONG, F(long)), (f"-1/{'7' * _LONG}", F(-1, long))):
        assert modelio.parse_rational(text, "x") == value
        assert modelio.format_rational(value) == text


def test_cli_game_with_a_payoff_past_the_digit_limit(tmp_path, capsys):
    data = modelio.game_to_json(myerson_game())
    reports = []
    for payoff in ("7", "7" * _LONG):
        data["payoffs"]["A,C"][0] = payoff
        assert cli.main(["game", "analyze", write(tmp_path, "game.json", data), "--json"]) == 0
        reports.append(json.loads(capsys.readouterr().out))
    assert reports[0] == reports[1]


@pytest.mark.parametrize("raw", [b"7" * _LONG, b"\xff{}"], ids=["long-integer", "not-utf-8"])
def test_cli_what_json_refuses_besides_syntax_is_invalid_json(raw, tmp_path, capsys):
    # json.load raises a ValueError that is not a JSONDecodeError for both.
    data = modelio.game_to_json(myerson_game())
    data["payoffs"]["A,C"][0] = "RAW"
    path = tmp_path / "game.json"
    path.write_bytes(json.dumps(data).encode().replace(b'"RAW"', raw))
    assert cli.main(["game", "analyze", str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {path}: invalid JSON (")


def test_cli_model_check_with_an_eps_past_the_digit_limit(capsys):
    path = str(_ROOT / "fixtures" / "myerson_prob.json")
    reports = []
    for digits in (4000, _LONG):
        assert cli.main(["model", "check", path, "--eps", "1/" + "3" * digits, "--json"]) == 1
        reports.append(json.loads(capsys.readouterr().out))
    assert reports[0] == reports[1] and reports[0]["violations"]


def test_cli_converge_past_the_digit_limit_reads_its_family_back(tmp_path, capsys):
    path = str(_ROOT / "fixtures" / "myerson_ordered.json")
    ratio = "1/" + "7" * 900
    family = tmp_path / "family"
    assert cli.main(["converge", path, "--schedule", f"geometric:{ratio},5", "--json",
                     "--emit-family", str(family)]) == 0
    report = json.loads(capsys.readouterr().out)
    schedule = convergence.EpsilonSchedule(modelio.parse_rational(ratio, "ratio"), 5)
    assert [modelio.parse_rational(row["eps"], "eps") for row in report["rows"]] == \
        list(schedule.values())
    member = family / "model_04.json"
    assert max(map(len, re.findall(r"[0-9]+", member.read_text()))) > 4300
    source = modelio.model_from_json(modelio.load_file(path))
    assert modelio.model_from_json(modelio.load_file(str(member))) == \
        convergence.build_epsilon_model(source, schedule.values()[-1])


def test_cli_a_boolean_weight_exits_2_located(tmp_path, capsys):
    data = modelio.model_to_json(myerson_prob_model(F(1, 4)))
    data["p"]["1"]["w2"] = {"w1": True}
    path = write(tmp_path, "bool.json", data)
    assert cli.main(["model", "check", path]) == 2
    assert capsys.readouterr().err == (
        f"error: {path}.p.1.w2.w1: expected a rational string, got True\n")


@pytest.mark.parametrize("strategy,shown", [("Z", "'Z'"), (["A"], "['A']"), (5, "5")],
                         ids=["string", "list", "number"])
def test_cli_an_unknown_sigma_strategy_exits_2_at_its_node(tmp_path, capsys, strategy, shown):
    data = modelio.model_to_json(myerson_prob_model(F(1, 4)))
    data["sigma"]["1"]["w3"] = strategy
    path = write(tmp_path, "sigma.json", data)
    assert cli.main(["model", "check", path]) == 2
    assert capsys.readouterr().err == (
        f"error: {path}.sigma.1.w3: unknown strategy {shown} for player '1'\n")


@pytest.mark.parametrize("flavor,node,value,message", [
    ("p", ("access", "1", "w1"), ["w1", "zz"],
     "access.1.w1: player 1: accessibility from 'w1' points at unknown worlds ['zz']"),
    ("p", ("p", "1", "w1"), {"w1": "1/2", "zz": "1/2"},
     "p.1.w1: player 1: belief at 'w1' weights unknown worlds ['zz']"),
    ("lambda", ("lambda", "2", "w3"), [{"w1": "1"}, {"zz": "1", "yy": "0"}],
     "lambda.2.w3[1]: player 2: level belief at 'w3' weights unknown worlds ['yy', 'zz']"),
], ids=["access", "p", "lambda"])
def test_an_unknown_world_in_an_access_list_or_a_belief_exits_2_at_its_node(
        flavor, node, value, message, tmp_path, capsys):
    model = myerson_prob_model(F(1, 4)) if flavor == "p" else myerson_ordered_model()
    path = write(tmp_path, "case.json", _replace(modelio.model_to_json(model), node, value))
    assert cli.main(["model", "check", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {path}.{message}\n"


@pytest.mark.parametrize("flavor,key,player,value", [
    ("p", "access", "1", 5),
    ("p", "sigma", "1", 7),
    ("p", "p", "2", "junk"),
    ("lambda", "lambda", "2", [{"w1": "1"}]),
], ids=["access", "sigma", "p", "lambda"])
def test_an_entry_for_a_world_not_under_worlds_exits_2_at_its_node(
        flavor, key, player, value, tmp_path, capsys):
    model = myerson_prob_model(F(1, 4)) if flavor == "p" else myerson_ordered_model()
    data = modelio.model_to_json(model)
    data[key][player]["ghost"] = value
    path = write(tmp_path, "case.json", data)
    assert cli.main(["model", "check", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: {path}.{key}.{player}.ghost: world 'ghost' is not listed under 'worlds'\n")


@pytest.mark.parametrize("flavor", ["p", "lambda"])
def test_a_bad_value_held_by_many_worlds_is_reported_at_the_first(flavor):
    model = myerson_prob_model(F(1, 4)) if flavor == "p" else myerson_ordered_model()
    data = modelio.model_to_json(model)
    for w in ("w2", "w3", "w4"):
        data["access"]["2"][w] = ["w1", 7]
        data[flavor]["1"][w] = {"w1": "1/x"} if flavor == "p" else [{"w1": "1/x"}]
    with pytest.raises(FormatError, match=r"^model\.access\.2\.w2\[1\]: expected a string label"):
        modelio.model_from_json(data)
    for w in ("w2", "w3", "w4"):
        data["access"]["2"][w] = data["access"]["2"]["w1"]
    spot = "model.p.1.w2" if flavor == "p" else r"model\.lambda\.1\.w2\[0\]"
    with pytest.raises(FormatError, match=rf"^{spot}\.w1: malformed rational '1/x'"):
        modelio.model_from_json(data)


def test_worlds_with_equal_access_lists_share_one_set():
    data = modelio.model_to_json(myerson_ordered_model())
    data["access"]["1"]["w2"] = list(data["access"]["1"]["w1"])  # equal, not the same list
    model = modelio.model_from_json(json.loads(json.dumps(data)))
    assert model.access[0]["w1"] is model.access[0]["w2"]
    assert model.access[0]["w3"] is model.access[0]["w4"]
    assert model.access[1]["w1"] is model.access[1]["w3"]
    assert model.access[0]["w1"] == frozenset({"w1", "w2"})
    assert model.access[0]["w1"] is not model.access[0]["w3"]


@pytest.mark.parametrize("flavor", ["p", "lambda"])
@pytest.mark.parametrize("first", ["1", 1], ids=["string", "integer"])
def test_one_and_true_and_one_point_zero_are_read_apart(flavor, first):
    """Equal in Python, so never one parse: only ``1`` and ``"1"`` are rationals."""
    model = myerson_prob_model(F(1, 4)) if flavor == "p" else myerson_ordered_model()
    for later, error in [(1, None), ("1", None), (True, "expected a rational string, got True"),
                         (1.0, "expected a rational string, got 1.0")]:
        data = modelio.model_to_json(model)
        for w, weight in (("w1", first), ("w2", later)):
            dist = {"w1": weight, "w2": 0}
            data[flavor]["1"][w] = dist if flavor == "p" else [dist]
        if error is None:
            loaded = modelio.model_from_json(data)
            assert loaded.levels(0, "w1") == loaded.levels(0, "w2") == ({"w1": F(1)},)
        else:
            spot = "p.1.w2" if flavor == "p" else "lambda.1.w2[0]"
            with pytest.raises(FormatError) as caught:
                modelio.model_from_json(data)
            assert str(caught.value) == f"model.{spot}.w1: {error}"


_TEXT = st.text(st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f\u00e9\u2028\U0001f600 ab') | st.characters(),
               max_size=6)
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | _TEXT,
    lambda kids: st.lists(kids, max_size=4) | st.lists(kids, max_size=4).map(tuple)
    | st.dictionaries(_TEXT, kids, max_size=4),
    max_leaves=12)


@st.composite
def _values_sharing_one_container(draw):
    """A value in which one non-empty list or dict object sits at depths 1, 3, 4 and 1."""
    shared = draw(st.lists(_JSON, min_size=1, max_size=4)
                  | st.dictionaries(_TEXT, _JSON, min_size=1, max_size=4))
    return {draw(_TEXT): shared,
            "nested": [draw(_JSON), (shared, {draw(_TEXT): shared})],
            "again": shared}


_SHARED = ["s", {"t": [1, None, True]}]


@settings(max_examples=100, deadline=None)
@given(_JSON | _values_sharing_one_container())
@example([])
@example({"a": {}, "b": ((),)})
@example({"x": _SHARED, "y": [_SHARED], "z": _SHARED})
def test_dumps_equals_json_dumps_with_indent_2(value):
    assert modelio.dumps(value) == json.dumps(value, indent=2) + "\n"


def test_game_roundtrip_and_errors():
    game = myerson_game()
    data = modelio.game_to_json(game)
    assert modelio.game_from_json(data) == game
    broken = json.loads(json.dumps(data))
    del broken["payoffs"]["A,D"]
    with pytest.raises(FormatError, match="A,D"):
        modelio.game_from_json(broken)
    extra = json.loads(json.dumps(data))
    extra["payoffs"]["A,Q"] = ["0", "0"]
    with pytest.raises(FormatError, match="A,Q"):
        modelio.game_from_json(extra)
    zero_den = json.loads(json.dumps(data))
    zero_den["payoffs"]["A,C"] = ["1/0", "1"]
    with pytest.raises(FormatError, match="zero denominator"):
        modelio.game_from_json(zero_den)


def test_model_roundtrips():
    for model in (myerson_prob_model(F(1, 4)), myerson_ordered_model()):
        data = modelio.model_to_json(model)
        again = modelio.model_from_json(json.loads(json.dumps(data)))
        assert type(again) is type(model)
        assert again == model
    base = myerson_prob_model(F(1, 4)).base
    data = modelio.model_to_json(base)
    assert modelio.model_from_json(data) == base


def _loaded_models():
    yield modelio.model_from_json(modelio.load_file(str(_ROOT / "fixtures" / "myerson_prob.json")))
    yield modelio.model_from_json(
        modelio.load_file(str(_ROOT / "fixtures" / "myerson_ordered.json")))
    for seed in range(6):
        rng = random.Random(seed)
        source = random_ordered_model(rng, random_game(rng, 3, 3))
        yield modelio.model_from_json(json.loads(modelio.dumps(modelio.model_to_json(source))))


def _per_world_copy(model):
    """``model`` with every world's beliefs deep-copied on their own: nothing shared."""
    if isinstance(model, OrderedKripkeModel):
        return OrderedKripkeModel(model.base, tuple(
            {w: copy.deepcopy(model.lam[i][w]) for w in model.worlds} for i in (0, 1)))
    return ProbKripkeModel(model.base, tuple(
        {w: copy.deepcopy(model.p[i][w]) for w in model.worlds} for i in (0, 1)))


def test_loaded_worlds_with_equal_beliefs_share_one_object():
    shared = 0
    for model in _loaded_models():
        beliefs = model.lam if isinstance(model, OrderedKripkeModel) else model.p
        for i in (0, 1):
            for w in model.worlds:
                for w2 in model.worlds:
                    same = beliefs[i][w] is beliefs[i][w2]
                    assert same == (beliefs[i][w] == beliefs[i][w2]), (i, w, w2)
                    shared += same and w != w2
        alone = _per_world_copy(model)
        assert alone == model
        if isinstance(model, OrderedKripkeModel):
            assert len({id(alone.lam[0][w]) for w in model.worlds}) == len(model.worlds)
            assert lrat(alone) == lrat(model)
            assert level_ids(alone) == level_ids(model)
            assert validate_beliefs(alone) == validate_beliefs(model)
        else:
            assert rat(alone) == rat(model)
            assert validate_beliefs(alone) == validate_beliefs(model)
    assert shared


# Weight spellings equal in Python (1, 1.0, True) or as rationals ("1", "2/4"),
# so a parse cache that keys them too loosely shows; _BAD_WEIGHTS are malformed.
_WEIGHTS = (1, "1", "1/2", "2/4", "0")
_BAD_WEIGHTS = (1.0, True, "1/0", "x", None)
_MISSING = object()


def _reordered(raw):
    """``raw`` with its items, or each level's items, in reverse order."""
    if isinstance(raw, dict):
        return dict(reversed(raw.items()))
    if raw and isinstance(raw[0], dict):
        return [_reordered(level) for level in raw]
    return raw[::-1]


@st.composite
def _respelt_model_files(draw):
    """The Myerson model's frame over three worlds, each world's access list and
    belief drawn, with repeats, from a small pool of raw spellings: drawn values
    and their items reordered, and in half the pools also their ``repr`` as a
    string and malformed values."""
    # Repeats in a sampled tuple make its usual values come up more often.
    labels = st.sampled_from(("w1", "w2", "w3") * 3 + ("zz",))
    dists = st.dictionaries(labels, st.sampled_from(_WEIGHTS * 3 + _BAD_WEIGHTS),
                            min_size=1, max_size=3)
    kind = draw(st.sampled_from(("p", "lambda")))

    def pool(values, malformed):
        drawn = draw(st.lists(values, min_size=1, max_size=3))
        usual = drawn + [_reordered(v) for v in drawn]
        if not draw(st.booleans()):
            return usual
        return usual + [repr(v) for v in drawn] + list(malformed)

    # A missing access list reads as [], a missing belief is an error.
    pools = {"access": pool(st.lists(labels, max_size=3), ([1], "w1", None)) + [_MISSING],
             kind: pool(dists if kind == "p" else st.lists(dists, min_size=1, max_size=3),
                        ([], 1, None, _MISSING) + (({"w1": 1},) if kind == "lambda" else ()))}
    data = modelio.model_to_json(myerson_prob_model(F(1, 4)).base)
    data["worlds"] = ["w1", "w2", "w3"]
    data["sigma"] = {name: {w: s for w, s in per.items() if w in data["worlds"]}
                     for name, per in data["sigma"].items()}
    for key, values in pools.items():
        data[key] = {name: {} for name in data["game"]["players"]}
        for per in data[key].values():
            for w in data["worlds"]:
                raw = draw(st.sampled_from(values))
                if raw is not _MISSING:
                    per[w] = raw
    return data


@settings(max_examples=150, deadline=None)
@given(_respelt_model_files())
def test_parse_cache_matches_a_per_world_parse(data):
    try:
        expected = reference_model_from_json(data)
    except FormatError as exc:
        with pytest.raises(FormatError) as got:
            modelio.model_from_json(data)
        assert str(got.value) == str(exc)
        return
    model = modelio.model_from_json(data)
    assert model == expected
    assert modelio.dumps(modelio.model_to_json(model)) == \
        modelio.dumps(modelio.model_to_json(expected))
    # Two worlds hold one parsed object exactly when their raw values are spelt alike.
    beliefs = model.lam if isinstance(model, OrderedKripkeModel) else model.p
    for key, held in (("access", model.access), (model.KIND, beliefs)):
        default = [] if key == "access" else {}
        for i, name in enumerate(model.game.players):
            spelt = {w: repr(data[key][name].get(w, default)) for w in model.worlds}
            for w in model.worlds:
                for w2 in model.worlds:
                    assert (held[i][w] is held[i][w2]) == (spelt[w] == spelt[w2]), (key, i, w, w2)


def test_types_roundtrips():
    for model in (myerson_lex_types(), myerson_prob_types(F(1, 4))):
        data = modelio.types_to_json(model)
        again = modelio.types_from_json(json.loads(json.dumps(data)))
        assert again == model


def test_model_with_both_p_and_lambda_is_rejected():
    data = modelio.model_to_json(myerson_prob_model(F(1, 4)))
    data["lambda"] = modelio.model_to_json(myerson_ordered_model())["lambda"]
    with pytest.raises(FormatError, match="both"):
        modelio.model_from_json(data)


def _leaf(parser, *words):
    """The subparser that ``words`` (a command path) select in ``parser``."""
    for word in words:
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        parser = sub.choices[word]
    return parser


def _choices(parser, dest):
    return tuple(next(a for a in parser._actions if a.dest == dest).choices)


def test_parser_choices_are_the_library_constants():
    parser = cli.build_parser()
    assert (_choices(_leaf(parser, "model", "check"), "trembling_reading")
            == epsilon.TREMBLING_READINGS)
    assert _choices(_leaf(parser, "converge"), "scheme") == convergence.SCHEMES


def test_cli_game_analyze(tmp_path, capsys):
    path = write(tmp_path, "game.json", modelio.game_to_json(myerson_game()))
    assert cli.main(["game", "analyze", path, "--procedure", "df"]) == 0
    out = capsys.readouterr().out
    assert "survivors 1: A" in out and "survivors 2: C" in out
    assert "weak" in out
    assert cli.main(["game", "analyze", path, "--procedure", "iesds", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["survivors"] == {"1": ["A", "B"], "2": ["C", "D"]}
    assert payload["rounds"] == []


def test_cli_model_check_clean_and_dirty(tmp_path, capsys):
    clean = write(tmp_path, "ok.json", modelio.model_to_json(myerson_prob_model(F(1, 4))))
    assert cli.main(["model", "check", clean, "--eps", "1/4"]) == 0
    assert "ok" in capsys.readouterr().out
    dirty_data = modelio.model_to_json(myerson_prob_model(F(1, 4)))
    dirty_data["access"]["1"]["w1"] = ["w1"]  # breaks euclideanness from w2
    dirty = write(tmp_path, "bad.json", dirty_data)
    assert cli.main(["model", "check", dirty, "--json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    kinds = {v["kind"] for v in payload["violations"]}
    assert kinds  # at least one axiom or measure complaint


def test_cli_ordered_check_reports_constancy_advisory(tmp_path, capsys):
    path = write(tmp_path, "om.json", modelio.model_to_json(myerson_ordered_model()))
    assert cli.main(["model", "check", path]) == 0
    out = capsys.readouterr().out
    assert "advisory" in out and "lambda-constancy" in out


def test_cli_operator_pipeline(tmp_path, capsys):
    path = write(tmp_path, "om.json", modelio.model_to_json(myerson_ordered_model()))
    event_path = str(tmp_path / "lrat.json")
    assert cli.main(["model", "lrat", path, "--event-out", event_path]) == 0
    out = capsys.readouterr().out
    assert "lrat_1: w1 w2" in out and "lrat_2: w1 w3" in out and "lrat: w1" in out
    assert json.loads(open(event_path).read()) == {"worlds": ["w1"]}
    assert cli.main(["model", "operators", path, "--op", "cb1",
                     "--event", event_path]) == 0
    assert capsys.readouterr().out.strip() == "w1"
    assert cli.main(["model", "operators", path, "--op", "b",
                     "--player", "1", "--event", event_path]) == 0
    assert capsys.readouterr().out.strip() == "(empty)"


def test_cli_rat_and_upper_operators(tmp_path, capsys):
    path = write(tmp_path, "pm.json", modelio.model_to_json(myerson_prob_model(F(1, 4))))
    event_path = str(tmp_path / "rat.json")
    assert cli.main(["model", "rat", path, "--event-out", event_path, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == {"per_player": {"1": ["w1", "w2"], "2": ["w1", "w3"]},
                       "rat": ["w1"]}
    assert cli.main(["model", "operators", path, "--op", "cbeps", "--eps", "1/4",
                     "--event", event_path]) == 0
    assert capsys.readouterr().out.strip() == "w1"
    assert cli.main(["model", "operators", path, "--op", "cb",
                     "--event", event_path]) == 0
    assert capsys.readouterr().out.strip() == "(empty)"


def test_cli_types_analyze(tmp_path, capsys):
    lex_path = write(tmp_path, "lex.json", modelio.types_to_json(myerson_lex_types()))
    assert cli.main(["types", "analyze", lex_path, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["flavor"] == "lexicographic"
    assert payload["strategies"] == {"1": ["A"], "2": ["C"]}
    prob_path = write(tmp_path, "prob.json",
                      modelio.types_to_json(myerson_prob_types(F(1, 4))))
    assert cli.main(["types", "analyze", prob_path, "--eps", "1/4"]) == 0
    out = capsys.readouterr().out
    assert "eps-permissible at 1/4 1: A" in out


@pytest.mark.parametrize("eps", ["2", "1", "0", "-1"])
@pytest.mark.parametrize("fmt", [[], ["--json"]])
def test_cli_types_analyze_rejects_a_trembling_bound_outside_the_unit_interval(eps, fmt, capsys):
    code = cli.main(["types", "analyze", "fixtures/myerson_prob_types.json", "--eps", eps, *fmt])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: trembling bound must lie in (0, 1), got {eps}\n"


def test_cli_types_to_kripke_and_back(tmp_path, capsys):
    lex_path = write(tmp_path, "lex.json", modelio.types_to_json(myerson_lex_types()))
    out_path = str(tmp_path / "ordered.json")
    assert cli.main(["types", "to-kripke", lex_path, "--out", out_path]) == 0
    capsys.readouterr()
    built = modelio.model_from_json(json.load(open(out_path)))
    assert len(built.worlds) == 4
    pm_path = write(tmp_path, "pm.json", modelio.model_to_json(myerson_prob_model(F(1, 4))))
    assert cli.main(["model", "to-types", pm_path, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["types"] == [["t1_1"], ["t2_1"]]
    assert payload["beliefs"]["1"]["t1_1"] == {"C,t2_1": "3/4", "D,t2_1": "1/4"}
    assert payload["world_types"]["w1"] == ["t1_1", "t2_1"]


def test_cli_converge(tmp_path, capsys):
    path = write(tmp_path, "om.json", modelio.model_to_json(myerson_ordered_model()))
    family_dir = str(tmp_path / "family")
    assert cli.main(["converge", path, "--schedule", "geometric:1/2,9",
                     "--scheme", "perfect", "--emit-family", family_dir,
                     "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["matches"] is True
    assert payload["stabilized"] == ["w1"]
    assert len(payload["rows"]) == 9
    member = modelio.model_from_json(json.load(open(f"{family_dir}/model_00.json")))
    assert member.p[0]["w1"]["w1"] == F(4, 5)


def test_cli_export_dot(tmp_path, capsys):
    for payload in (modelio.model_to_json(myerson_ordered_model()),
                    modelio.model_to_json(myerson_prob_model(F(1, 4)))):
        path = write(tmp_path, "m.json", payload)
        assert cli.main(["export", "dot", path]) == 0
        text = capsys.readouterr().out
        assert text.startswith("digraph")
        assert text.count("{") == text.count("}")
        body = text[text.index("{") + 1: text.rindex("}")]
        node_re = re.compile(r'^\s*"[^"]+" \[label="[^"]*"\];$')
        edge_re = re.compile(r'^\s*"[^"]+" -> "[^"]+" \[[^\]]*\];$')
        for line in body.strip().splitlines():
            line = line.rstrip()
            if not line or line.endswith("rankdir=LR;"):
                continue
            assert node_re.match(line) or edge_re.match(line), line


def test_cli_exit_codes_on_bad_input(tmp_path, capsys):
    assert cli.main(["game", "analyze", str(tmp_path / "missing.json")]) == 2
    assert "error:" in capsys.readouterr().err
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli.main(["game", "analyze", str(bad)]) == 2
    game_path = write(tmp_path, "game.json", modelio.game_to_json(myerson_game()))
    # A game file is not a model file.
    assert cli.main(["model", "rat", game_path]) == 2


def test_cli_output_is_deterministic(tmp_path, capsys):
    path = write(tmp_path, "om.json", modelio.model_to_json(myerson_ordered_model()))
    cli.main(["converge", path, "--schedule", "geometric:1/2,5", "--json"])
    first = capsys.readouterr().out
    cli.main(["converge", path, "--schedule", "geometric:1/2,5", "--json"])
    second = capsys.readouterr().out
    assert first == second
    emitted = modelio.dumps(modelio.model_to_json(myerson_ordered_model()))
    assert emitted == modelio.dumps(modelio.model_to_json(myerson_ordered_model()))


def test_cli_color_toggle(tmp_path, capsys, monkeypatch):
    path = write(tmp_path, "pm.json", modelio.model_to_json(myerson_prob_model(F(1, 4))))
    monkeypatch.setenv("EGK_COLOR", "1")
    cli.main(["model", "check", path])
    colored = capsys.readouterr().out
    assert "\x1b[32m" in colored
    monkeypatch.delenv("EGK_COLOR")
    cli.main(["model", "check", path])
    plain = capsys.readouterr().out
    assert "\x1b[" not in plain


def test_cli_model_check_rejects_negative_beliefs(tmp_path, capsys):
    data = modelio.model_to_json(myerson_prob_model(F(1, 4)))
    for w in ("w1", "w2"):
        data["p"]["1"][w] = {"w1": "3/2", "w2": "-1/2"}
    path = write(tmp_path, "negative.json", data)
    assert cli.main(["model", "check", path]) == 1
    out = capsys.readouterr().out
    assert "[p-negative] player 1: negative weight -1/2 at w1 on w2" in out
    assert "ok" not in out.split()


def _edited_fixture(tmp_path, fixture, node, value):
    """A file holding ``fixture`` with the node at key path ``node`` replaced."""
    data = _replace(json.loads((_ROOT / "fixtures" / fixture).read_text()), node, value)
    return write(tmp_path, "edited.json", data)


def _run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("flag", [[], ["--json"]], ids=["text", "json"])
def test_model_check_eps_lists_beliefs_that_are_not_probabilities(flag, tmp_path, capsys):
    # Beliefs summing to 5/4 leave rationality, and so the belief reading of
    # the trembling bound, undefined; the check reports them as without --eps.
    path = _edited_fixture(tmp_path, "myerson_prob.json", ("p", "1", "w1"),
                           {"w1": "1", "w2": "1/4"})
    plain = _run(capsys, ["model", "check", path, *flag])
    assert plain[0] == 1
    assert "player 1: weights at w1 sum to 5/4" in plain[1]
    assert "p-constancy" in plain[1]
    assert _run(capsys, ["model", "check", path, "--eps", "1/4", *flag]) == plain
    # The pointwise reading needs no rationality and adds its own violations.
    code, out, err = _run(capsys, ["model", "check", path, "--eps", "1/4",
                                   "--trembling-reading", "pointwise", *flag])
    assert (code, err) == (1, "") and "trembling" in out and len(out) > len(plain[1])
    # A threshold outside (0, 1) is still the complaint.
    assert _run(capsys, ["model", "check", path, "--eps", "2", *flag]) == (
        2, "", "error: trembling bound must lie in (0, 1), got 2\n")


_SUM = ("p", "1", "w1"), {"w1": "1", "w2": "1/4"}, "player 1: weights at w1 sum to 5/4"
_NEGATIVE = (("p", "1", "w1"), {"w1": "3/2", "w2": "-1/2"},
             "player 1: negative weight -1/2 at w1 on w2")
_LEVEL_SUM = ("lambda", "1", "w1", 0), {"w1": "5"}, "player 1: level 1 at w1 sums to 5"


@pytest.mark.parametrize("flag", [[], ["--json"]], ids=["text", "json"])
@pytest.mark.parametrize("command,fixture,edit", [
    ("rat", "myerson_prob.json", _SUM),
    ("to-types", "myerson_prob.json", _SUM),
    ("rat", "myerson_prob.json", _NEGATIVE),
    ("to-types", "myerson_prob.json", _NEGATIVE),
    ("lrat", "myerson_ordered.json", _LEVEL_SUM),
], ids=["rat-sum", "to-types-sum", "rat-negative", "to-types-negative", "lrat-sum"])
def test_beliefs_that_are_not_probabilities_are_located(
        command, fixture, edit, flag, tmp_path, capsys):
    node, value, detail = edit
    path = _edited_fixture(tmp_path, fixture, node, value)
    assert _run(capsys, ["model", command, path, *flag]) == (2, "", f"error: {path}: {detail}\n")


def test_negative_world_weight_with_nonnegative_strategy_total_still_has_rat(tmp_path, capsys):
    # The opponent plays C at w1 and w3, so the strategy totals are 1 and 0.
    path = _edited_fixture(tmp_path, "myerson_prob.json", ("p", "1", "w1"),
                           {"w1": "3/2", "w3": "-1/2"})
    code, out, err = _run(capsys, ["model", "rat", path])
    assert (code, err) == (0, "") and out.startswith("rat_1:")


def _shape_cases():
    game = modelio.game_to_json(myerson_game())
    model = modelio.model_to_json(myerson_prob_model(F(1, 4)))
    cell = json.loads(json.dumps(game))
    cell["payoffs"]["A,C"] = "12"
    strategies = json.loads(json.dumps(game))
    strategies["strategies"] = "AB"
    one_player = json.loads(json.dumps(game))
    one_player["strategies"][0] = "AB"
    worlds = json.loads(json.dumps(model))
    worlds["worlds"] = "w"
    return [
        ("game", cell, "game.payoffs.A,C"),
        ("game", strategies, "game.strategies"),
        ("game", one_player, "game.strategies[0]"),
        ("model", worlds, "model.worlds"),
        ("event", {"worlds": "w"}, "event.worlds"),
    ]


@pytest.mark.parametrize("kind,data,where", _shape_cases())
def test_strings_where_lists_belong_are_located_format_errors(
        kind, data, where, tmp_path, capsys):
    load = {"game": modelio.game_from_json, "model": modelio.model_from_json,
            "event": modelio.event_from_json}[kind]
    with pytest.raises(FormatError, match=re.escape(f"{where}: expected a list")):
        load(data)
    path = write(tmp_path, "input.json", data)
    if kind == "game":
        argv = ["game", "analyze", path]
    elif kind == "model":
        argv = ["model", "check", path]
    else:
        model = write(tmp_path, "pm.json", modelio.model_to_json(myerson_prob_model(F(1, 4))))
        argv = ["model", "operators", model, "--op", "cb", "--event", path]
    assert cli.main(argv) == 2
    # The CLI names locations after the file: game.x becomes <path>.x.
    located = f"{path}.{where.split('.', 1)[1]}"
    assert capsys.readouterr().err.startswith(f"error: {located}: expected a list")



def _object_cases():
    """(kind, document, location, keys) with a list or string where an object belongs."""
    prob = modelio.model_to_json(myerson_prob_model(F(1, 4)))
    ordered = modelio.model_to_json(myerson_ordered_model())
    lex = modelio.types_to_json(myerson_lex_types())
    prob_types = modelio.types_to_json(myerson_prob_types(F(1, 4)))
    lex_type = lex["types"][0][0]
    prob_type = prob_types["types"][0][0]
    edits = [
        ("model", prob, ("game", "payoffs"), ["x"], "model.game.payoffs", "cell"),
        ("model", prob, ("game", "payoffs"), "A,C", "model.game.payoffs", "cell"),
        ("model", prob, ("access",), ["1"], "model.access", "player"),
        ("model", prob, ("p",), ["1"], "model.p", "player"),
        ("model", prob, ("access", "1"), ["w1"], "model.access.1", "world"),
        ("model", prob, ("sigma", "1"), ["A"], "model.sigma.1", "world"),
        ("model", prob, ("p", "1"), ["w1"], "model.p.1", "world"),
        ("model", prob, ("p", "1", "w1"), ["w1"], "model.p.1.w1", "world"),
        ("model", ordered, ("lambda", "1"), ["w1"], "model.lambda.1", "world"),
        ("model", ordered, ("lambda", "1", "w1", 0), ["w1"], "model.lambda.1.w1[0]", "world"),
        ("types", lex, ("beliefs",), ["1"], "types.beliefs", "player"),
        ("types", lex, ("beliefs", "1"), ["x"], "types.beliefs.1", "type"),
        ("types", lex, ("beliefs", "1", lex_type, 0), ["x"],
         f"types.beliefs.1.{lex_type}[0]", "'strategy,type' pair"),
        ("types", prob_types, ("beliefs", "1", prob_type), "x",
         f"types.beliefs.1.{prob_type}[0]", "'strategy,type' pair"),
    ]
    cases = []
    for kind, doc, path, value, where, keys in edits:
        data = json.loads(json.dumps(doc))
        target = data
        for step in path[:-1]:
            target = target[step]
        target[path[-1]] = value
        cases.append(pytest.param(kind, data, where, keys, id=where))
    return cases


@pytest.mark.parametrize("kind,data,where,keys", _object_cases())
def test_lists_where_objects_belong_are_located_format_errors(
        kind, data, where, keys, tmp_path, capsys):
    load = {"model": modelio.model_from_json, "types": modelio.types_from_json}[kind]
    expected = f"expected an object keyed by {keys}"
    with pytest.raises(FormatError, match=re.escape(f"{where}: {expected}")):
        load(data)
    path = write(tmp_path, "input.json", data)
    argv = ["model", "check", path] if kind == "model" else ["types", "analyze", path]
    assert cli.main(argv) == 2
    located = f"{path}.{where.split('.', 1)[1]}"
    assert capsys.readouterr().err.startswith(f"error: {located}: {expected}")

def test_cli_unwritable_outputs_exit_2(tmp_path, capsys):
    ordered = write(tmp_path, "om.json", modelio.model_to_json(myerson_ordered_model()))
    lex = write(tmp_path, "lex.json", modelio.types_to_json(myerson_lex_types()))
    event = write(tmp_path, "event.json", {"worlds": ["w1"]})
    missing = tmp_path / "missing" / "out.json"
    write(tmp_path, "plain_file", {"not": "a directory"})
    family = str(tmp_path / "plain_file" / "family")
    commands = [
        (["types", "to-kripke", lex, "--out", str(missing)], str(missing)),
        (["model", "lrat", ordered, "--event-out", str(missing)], str(missing)),
        (["model", "operators", ordered, "--op", "cb1", "--event", event,
          "--event-out", str(missing)], str(missing)),
        (["export", "dot", ordered, "--out", str(missing)], str(missing)),
        (["converge", ordered, "--schedule", "geometric:1/2,2", "--emit-family", family],
         family),
    ]
    for argv, path in commands:
        assert cli.main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {path}: "), captured.err
        assert captured.out == ""
    assert not missing.parent.exists()



_ROOT = Path(__file__).resolve().parent.parent
_PROB = str(_ROOT / "fixtures" / "myerson_prob.json")
_ORDERED = str(_ROOT / "fixtures" / "myerson_ordered.json")


@pytest.mark.parametrize("model,args,worlds,message", [
    (_PROB, ["--op", "b"], ["w1"], "operator 'b' needs --player"),
    (_PROB, ["--op", "b1", "--player", "1"], ["w1"], "operator 'b1' needs an ordered model"),
    (_ORDERED, ["--op", "beps", "--player", "1", "--eps", "1/4"], ["w1"],
     "operator 'beps' needs a probabilistic model"),
    (_PROB, ["--op", "cbeps"], ["w1"], "operator 'cbeps' needs --eps"),
    (_PROB, ["--op", "cbeps", "--eps", "1/2"], ["w1", "w9"],
     "threshold must lie in (0, 1/2), got 1/2"),
    (_PROB, ["--op", "cb"], ["w1", "w9"], "event contains unknown worlds ['w9']"),
])
def test_cli_operator_preconditions_exit_2(model, args, worlds, message, tmp_path, capsys):
    event = write(tmp_path, "event.json", {"worlds": worlds})
    assert cli.main(["model", "operators", model, *args, "--event", event]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""


def _json_kind(value) -> str:
    return {list: "an array", str: "a string", int: "a number", type(None): "null"}[type(value)]


@pytest.mark.parametrize("value", [5, None, [], "x"], ids=["number", "null", "array", "string"])
@pytest.mark.parametrize("command", [
    pytest.param(["game", "analyze", "@"], id="game-analyze"),
    pytest.param(["model", "check", "@"], id="model-check"),
    pytest.param(["model", "check", _PROB, "--game", "@"], id="model-check-game"),
    pytest.param(["model", "operators", "@", "--op", "cb", "--event", "@event"],
                 id="model-operators-model"),
    pytest.param(["model", "operators", _PROB, "--op", "cb", "--event", "@"],
                 id="model-operators-event"),
    pytest.param(["model", "rat", "@"], id="model-rat"),
    pytest.param(["model", "lrat", "@"], id="model-lrat"),
    pytest.param(["model", "to-types", "@"], id="model-to-types"),
    pytest.param(["types", "analyze", "@"], id="types-analyze"),
    pytest.param(["types", "to-kripke", "@"], id="types-to-kripke"),
    pytest.param(["converge", "@", "--schedule", "geometric:1/2,2"], id="converge"),
    pytest.param(["export", "dot", "@"], id="export-dot"),
])
def test_documents_that_are_not_objects_exit_2(command, value, tmp_path, capsys):
    path = write(tmp_path, "doc.json", value)
    event = write(tmp_path, "event.json", {"worlds": ["w1"]})
    argv = [path if a == "@" else event if a == "@event" else a for a in command]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {path}: expected a JSON object, got {_json_kind(value)}\n"


def _label_cases():
    """(kind, document, node path, location) with a non-string where a label belongs."""
    game = modelio.game_to_json(myerson_game())
    prob = modelio.model_to_json(myerson_prob_model(F(1, 4)))
    lex = modelio.types_to_json(myerson_lex_types())
    cases = [
        ("game", game, ("players", 0), "players[0]"),
        ("game", game, ("strategies", 1, 0), "strategies[1][0]"),
        ("model", prob, ("game", "players", 1), "game.players[1]"),
        ("model", prob, ("worlds", 0), "worlds[0]"),
        ("model", prob, ("access", "2", "w3", 1), "access.2.w3[1]"),
        ("types", lex, ("types", 0, 0), "types[0][0]"),
        ("event", {"worlds": ["w1", "w2"]}, ("worlds", 1), "worlds[1]"),
    ]
    return [pytest.param(*case, id=f"{case[0]}.{case[3]}") for case in cases]


@pytest.mark.parametrize("bad", [[], {}, 5, None], ids=["array", "object", "number", "null"])
@pytest.mark.parametrize("kind,doc,node,where", _label_cases())
def test_labels_must_be_strings(kind, doc, node, where, bad, tmp_path, capsys):
    data = _replace(doc, node, bad)
    path = write(tmp_path, "input.json", data)
    argv = {
        "game": ["game", "analyze", path],
        "model": ["model", "check", path],
        "types": ["types", "analyze", path],
        "event": ["model", "operators", _PROB, "--op", "cb", "--event", path],
    }[kind]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {path}.{where}: expected a string label, got {bad!r}\n"


@pytest.mark.parametrize("flag", [[], ["--json"]], ids=["text", "json"])
def test_player_names_must_be_distinct(flag, tmp_path, capsys):
    game = modelio.game_to_json(myerson_game())
    game["players"] = ["X", "X"]
    path = write(tmp_path, "game.json", game)
    assert cli.main(["game", "analyze", path, *flag]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {path}.players: duplicate player name 'X'\n"
    with pytest.raises(FormatError, match=re.escape("game.players: duplicate player name 'X'")):
        modelio.game_from_json(game)


def _comma_game(rows, cols):
    """A game document over labels that may contain commas; every payoff is 0."""
    return {"players": ["1", "2"], "strategies": [rows, cols],
            "payoffs": {f"{a},{b}": ["0", "0"] for a in rows for b in cols}}


@pytest.mark.parametrize("flag", [[], ["--json"]], ids=["text", "json"])
@pytest.mark.parametrize("embedded", [False, True], ids=["game", "model"])
def test_two_profiles_with_one_cell_key_exit_2(embedded, flag, tmp_path, capsys):
    # (a,b | x) and (a | b,x) both read the cell "a,b,x".
    game = _comma_game(["a,b", "a"], ["x", "b,x"])
    if embedded:
        doc = {"game": game, "worlds": ["w"], "access": {"1": {"w": ["w"]}, "2": {"w": ["w"]}},
               "sigma": {"1": {"w": "a"}, "2": {"w": "x"}}}
        argv, where = ["model", "check"], "game.payoffs"
    else:
        doc, argv, where = game, ["game", "analyze"], "payoffs"
    path = write(tmp_path, "input.json", doc)
    assert cli.main([*argv, path, *flag]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: {path}.{where}: cell key 'a,b,x' names two profiles, "
                            f"('a,b', 'x') and ('a', 'b,x')\n")


def test_labels_with_commas_load_when_every_cell_key_is_distinct(tmp_path, capsys):
    data = _comma_game(["a,b", "c"], ["x", "y,z"])
    data["payoffs"]["a,b,y,z"] = ["1", "1"]
    game = modelio.game_from_json(data)
    assert game.payoff(0, "a,b", "y,z") == 1
    assert game.payoff(0, "c", "y,z") == 0
    assert modelio.game_to_json(game) == data
    assert cli.main(["game", "analyze", write(tmp_path, "game.json", data)]) == 0
    assert "survivors 1: a,b" in capsys.readouterr().out


def test_witness_types_over_labels_with_commas_round_trip():
    data = _comma_game(["a,b", "c"], ["x", "y,z"])
    data["payoffs"]["a,b,y,z"] = ["1", "1"]
    types = df_witness_types(modelio.game_from_json(data))
    written = modelio.types_to_json(types)
    assert written["beliefs"]["2"]["th_y,z"][0] == {"a,b,th_a,b": "1"}
    assert modelio.types_from_json(json.loads(json.dumps(written))) == types


def test_types_extracted_over_labels_with_commas_read_back(tmp_path, capsys):
    model = {"game": _comma_game(["a,b", "c"], ["x", "y,z"]), "worlds": ["w1", "w2"],
             "access": {"1": {"w1": ["w1"], "w2": ["w2"]}, "2": {"w1": ["w1"], "w2": ["w2"]}},
             "sigma": {"1": {"w1": "a,b", "w2": "c"}, "2": {"w1": "y,z", "w2": "x"}},
             "p": {"1": {"w1": {"w1": "1"}, "w2": {"w2": "1"}},
                   "2": {"w1": {"w1": "1"}, "w2": {"w2": "1"}}}}
    out = tmp_path / "types.json"
    assert cli.main(["model", "to-types", write(tmp_path, "model.json", model),
                     "--out", str(out)]) == 0
    assert json.loads(out.read_text())["beliefs"]["2"]["t2_1"] == {"a,b,t1_1": "1"}
    assert cli.main(["types", "analyze", str(out)]) == 0
    capsys.readouterr()


def _ambiguous_types(belief_key: str) -> dict:
    # Player 2's strategies a and a,b with types b,t and t: "a,b,t" reads as
    # (a, b,t) and as (a,b, t).
    return {"game": _comma_game(["c"], ["a", "a,b"]), "types": [["u"], ["b,t", "t"]],
            "beliefs": {"1": {"u": {belief_key: "1"}},
                        "2": {"b,t": {"c,u": "1"}, "t": {"c,u": "1"}}}}


@pytest.mark.parametrize("flag", [[], ["--json"]], ids=["text", "json"])
def test_a_belief_key_with_two_readings_exits_2(flag, tmp_path, capsys):
    path = write(tmp_path, "types.json", _ambiguous_types("a,b,t"))
    assert cli.main(["types", "analyze", path, *flag]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: {path}.beliefs.1.u[0]: key 'a,b,t' splits into more "
                            f"than one 'strategy,type' pair\n")
    path = write(tmp_path, "missing.json", _ambiguous_types("a,b,u"))
    assert cli.main(["types", "analyze", path, *flag]) == 2
    assert capsys.readouterr().err == (
        f"error: {path}.beliefs.1.u[0]: expected 'strategy,type', got 'a,b,u'\n")


@pytest.mark.parametrize("pair", [("a", "b,t"), ("a,b", "t")])
def test_a_belief_key_that_would_read_back_as_another_pair_is_not_written(pair):
    data = _ambiguous_types("a,t")
    game = modelio.game_from_json(data["game"])
    types = ProbEpistemicModel(game, (("u",), ("b,t", "t")), (
        {"u": {pair: F(1)}}, {"b,t": {("c", "u"): F(1)}, "t": {("c", "u"): F(1)}}))
    with pytest.raises(InputError, match=re.escape(
            "type 'u': key 'a,b,t' splits into more than one 'strategy,type' pair")):
        modelio.types_to_json(types)
    ok = ProbEpistemicModel(game, types.types, ({"u": {("a", "t"): F(1)}}, types.beliefs[1]))
    assert modelio.types_from_json(modelio.types_to_json(ok)) == ok


# ---------------------------------------------------------------------------
# Loader fuzzing: one node of a fixture document replaced by a pool value.

_FIXTURES = _ROOT / "fixtures"
# Document name -> (document, the command that reads it; "@" is its path).
_FUZZ_TARGETS = {
    "game": (json.loads((_FIXTURES / "myerson_game.json").read_text()),
             ["game", "analyze", "@"]),
    "prob": (json.loads((_FIXTURES / "myerson_prob.json").read_text()),
             ["model", "check", "@"]),
    "ordered": (json.loads((_FIXTURES / "myerson_ordered.json").read_text()),
                ["model", "check", "@"]),
    "lex_types": (json.loads((_FIXTURES / "myerson_lex_types.json").read_text()),
                  ["types", "analyze", "@"]),
    "prob_types": (json.loads((_FIXTURES / "myerson_prob_types.json").read_text()),
                   ["types", "analyze", "@"]),
    "event": ({"worlds": ["w1", "w2"]},
              ["model", "operators", _PROB, "--op", "cb", "--event", "@"]),
}
_POOL = [None, True, 0, 5, -1, 1.5, "", "x", "1", "1/0", [], {}, ["x"], {"x": "1"}]


def _node_paths(node, here=()):
    """Every node of a JSON document, the root included, as a key path."""
    yield here
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield from _node_paths(child, here + (key,))


def _replace(doc, path, value):
    if not path:
        return value
    doc = json.loads(json.dumps(doc))
    target = doc
    for step in path[:-1]:
        target = target[step]
    target[path[-1]] = value
    return doc


@st.composite
def _one_node_edits(draw):
    name = draw(st.sampled_from(sorted(_FUZZ_TARGETS)))
    doc = _FUZZ_TARGETS[name][0]
    path = draw(st.sampled_from(list(_node_paths(doc))))
    return name, path, draw(st.sampled_from(_POOL)), draw(st.booleans())


@settings(max_examples=150, deadline=None)
@given(_one_node_edits())
@example(("game", (), 5, False))                              # a number as the document
@example(("prob", (), None, True))                            # null as the document
@example(("event", (), 5, False))                             # a number as the --event file
@example(("prob", ("game",), 5, True))                        # a number as the embedded game
@example(("prob", ("worlds", 0), [], False))                  # a list as a world label
@example(("lex_types", ("game", "players", 0), {}, True))     # an object as a player name
@example(("game", ("players", 1), ["x"], False))              # text report on a list player
@example(("ordered", ("sigma", "1", "w1"), "x", False))       # the constructor's complaint
@example(("prob_types", ("beliefs", "1", "t1", "C,t2"), 5, True))  # ... of a type model
def test_one_node_edits_exit_cleanly(edit):
    name, path, value, as_json = edit
    doc, command = _FUZZ_TARGETS[name]
    with tempfile.TemporaryDirectory() as tmp:
        file = str(Path(tmp) / "input.json")
        Path(file).write_text(json.dumps(_replace(doc, path, value)))
        argv = [file if a == "@" else a for a in command] + (["--json"] if as_json else [])
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    assert code in (0, 1, 2)
    if code == 2:
        message = err.getvalue()
        assert message.startswith("error: ") and message.count("\n") == 1, message
        # An event that parses but names worlds the model lacks is the
        # operator's complaint about the pair, not about the file.
        assert file in message or (
            name == "event" and message.startswith("error: event contains unknown worlds")), \
            message
