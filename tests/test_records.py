"""The package's records: plain ``NamedTuple``s, and validated classes on ``egk.frozen.Frozen``.

Both kinds compare, hash and print field by field, and neither lets a field
be assigned after construction.
"""

import copy
import pickle
import random
from fractions import Fraction as F

import pytest

from egk.convergence import ConvergenceReport, ConvergenceRow, EpsilonSchedule
from egk.dominance import Elimination, EliminationRound, Restriction
from egk.epistemic import TypeProperty, df_witness_types
from egk.fixtures import (
    myerson_game,
    myerson_lex_types,
    myerson_ordered_model,
    myerson_prob_model,
    myerson_prob_types,
)
from egk.games import Game, MixedStrategy, lex_best_replies
from egk.kripke import (
    FramedModel,
    IesdsInclusionReport,
    ProbKripkeModel,
    StandardKripkeModel,
    Violation,
    check_caution,
    validate_beliefs,
    validate_standard,
)
from egk.lp import LPResult
from egk.ordered import OrderedKripkeModel, StructuralReport, check_structural_conditions
from generators import random_ordered_model
from oracles import point_mass


def _one_world(strategy: str) -> StandardKripkeModel:
    return StandardKripkeModel(myerson_game(), ("w",), ({"w": {"w"}}, {"w": {"w"}}),
                               ({"w": strategy}, {"w": "C"}))


def _elimination(strategy: str) -> Elimination:
    return Elimination(0, strategy, point_mass(0, "A"))


# Per record class: a builder of fresh instances, and one instance that differs.
RECORDS = {
    "Game": (myerson_game, lambda: Game(("x", "y"), myerson_game().strategies,
                                        myerson_game().payoffs)),
    "MixedStrategy": (lambda: MixedStrategy(1, {"C": F(1, 2), "D": F(1, 2)}),
                      lambda: point_mass(1, "C")),
    "Restriction": (lambda: Restriction((("A", "B"), ("C",))),
                    lambda: Restriction((("A",), ("C",)))),
    "StandardKripkeModel": (lambda: _one_world("A"), lambda: _one_world("B")),
    "FramedModel": (lambda: FramedModel(_one_world("A")), lambda: FramedModel(_one_world("B"))),
    "ProbKripkeModel": (lambda: myerson_prob_model(F(1, 4)), lambda: myerson_prob_model(F(1, 3))),
    "OrderedKripkeModel": (myerson_ordered_model,
                           lambda: random_ordered_model(random.Random(0), myerson_game())),
    "LexEpistemicModel": (myerson_lex_types, lambda: df_witness_types(myerson_game())),
    "ProbEpistemicModel": (lambda: myerson_prob_types(F(1, 4)),
                           lambda: myerson_prob_types(F(1, 3))),
    "EpsilonSchedule": (lambda: EpsilonSchedule(F(1, 2), 3), lambda: EpsilonSchedule(F(1, 2), 4)),
    "Violation": (lambda: Violation("seriality", 0, ("w",), "no world"),
                  lambda: Violation("seriality", 1, ("w",), "no world")),
    "LPResult": (lambda: LPResult("optimal", F(1), (F(1), F(0))), lambda: LPResult("infeasible")),
    "Elimination": (lambda: _elimination("B"), lambda: _elimination("A")),
    "EliminationRound": (lambda: EliminationRound("weak", (_elimination("B"),)),
                         lambda: EliminationRound("strict", (_elimination("B"),))),
    "IesdsInclusionReport": (
        lambda: IesdsInclusionReport(("w1",), Restriction((("A",), ("C",))), (), True),
        lambda: IesdsInclusionReport(("w1",), Restriction((("A",), ("C",))), ("w1",), False)),
    "StructuralReport": (lambda: StructuralReport(True, True, ()),
                         lambda: StructuralReport(False, True, ())),
    "ConvergenceRow": (lambda: ConvergenceRow(0, F(1, 4), ("w1",), ("w1",)),
                       lambda: ConvergenceRow(1, F(1, 4), ("w1",), ("w1",))),
    "ConvergenceReport": (
        lambda: ConvergenceReport((), ("w1",), ((-1, ("w1",)),), -1, ("w1",), True),
        lambda: ConvergenceReport((), ("w1",), ((-1, ("w1",)),), -1, ("w1",), False)),
    "TypeProperty": (lambda: TypeProperty("caution", ({"t": True}, {"u": True})),
                     lambda: TypeProperty("caution", ({"t": True}, {"u": False}))),
}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_records_compare_hash_and_print_field_by_field(name):
    build, build_other = RECORDS[name]
    record, again, other = build(), build(), build_other()
    assert type(record).__name__ == type(other).__name__ == name
    assert record is not again
    assert record == again
    assert record != other
    values = tuple(getattr(record, field) for field in record._fields)
    try:
        expected = hash(values)
    except TypeError:
        # A field that cannot be hashed (a dict) makes the record unhashable.
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == hash(again) == expected
    fields = ", ".join(f"{field}={value!r}" for field, value in zip(record._fields, values))
    assert repr(record) == f"{name}({fields})"


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_assigning_a_record_attribute_raises(name):
    record = RECORDS[name][0]()
    for field in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))
        with pytest.raises(AttributeError):
            delattr(record, field)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert record == RECORDS[name][0]()


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_records_copy_and_pickle_to_equal_records(name):
    record = RECORDS[name][0]()
    for again in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(again) is type(record)
        assert again == record


def test_validated_records_are_unequal_across_classes():
    base = _one_world("A")
    assert FramedModel(base) != base
    assert Restriction((("A",), ("C",))) != ((("A",), ("C",)),)


def test_equal_games_stay_equal_after_one_is_compiled():
    game, again = myerson_game(), myerson_game()
    assert lex_best_replies(game, 0, ((1, 0),)) == {"A"}
    assert game._compiled is not None
    assert getattr(again, "_compiled", None) is None
    assert game == again
    assert repr(game) == repr(again)
    assert game._fields == ("players", "strategies", "payoffs")


def _hash_or_error(record):
    try:
        return hash(record)
    except TypeError as error:
        return type(error)


def test_equal_frames_stay_equal_after_one_is_validated():
    frame, again = _one_world("A"), _one_world("A")
    found = validate_standard(frame)
    assert found == [] and frame._violations == ()
    assert getattr(again, "_violations", None) is None
    assert frame._fields == ("game", "worlds", "access", "sigma")
    for copied in (frame, copy.copy(frame), copy.deepcopy(frame),
                   pickle.loads(pickle.dumps(frame))):
        assert copied == again
        assert _hash_or_error(copied) == _hash_or_error(again)
        assert repr(copied) == repr(again)


def _one_world_model(cls):
    # One world, so every set prints alike however a copy rebuilt it.
    belief = {"w": F(1)}
    return cls(_one_world("A"), ({"w": belief}, {"w": belief}) if cls is ProbKripkeModel
               else ({"w": (belief,)}, {"w": (belief,)}))


@pytest.mark.parametrize("cls, check, slot", [
    (ProbKripkeModel, check_caution, "_checked"),
    (OrderedKripkeModel, validate_beliefs, "_checked"),
    (OrderedKripkeModel, check_structural_conditions, "_checked"),
], ids=["prob-checked", "ordered-checked", "ordered-structural"])
def test_checked_models_stay_equal_to_fresh_ones(cls, check, slot):
    model, fresh = _one_world_model(cls), _one_world_model(cls)
    check(model)
    assert getattr(model, slot) is not None
    assert getattr(fresh, slot, None) is None
    for copied in (model, copy.copy(model), copy.deepcopy(model),
                   pickle.loads(pickle.dumps(model))):
        assert copied == fresh
        assert _hash_or_error(copied) == _hash_or_error(fresh)
        assert repr(copied) == repr(fresh)
        assert copied is model or getattr(copied, slot, None) is None


def test_validated_frame_returns_a_fresh_list_each_call():
    game = myerson_game()
    frame = StandardKripkeModel(game, ("w",), ({"w": set()}, {"w": {"w"}}),
                                ({"w": "A"}, {"w": "C"}))
    first = validate_standard(frame)
    assert [v.kind for v in first] == ["seriality"]
    first.clear()
    assert validate_standard(frame) == validate_standard(StandardKripkeModel(
        game, ("w",), ({"w": set()}, {"w": {"w"}}), ({"w": "A"}, {"w": "C"})))
    assert len(validate_standard(frame)) == 1
