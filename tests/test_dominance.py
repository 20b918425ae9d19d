import random
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from egk import dominance
from egk.dominance import (
    Restriction,
    dekel_fudenberg,
    iesds,
    justifying_belief,
    strictly_dominated,
    weakly_dominated,
)
from egk.errors import InputError
from egk.fixtures import myerson_game
from egk.games import Game

from generators import random_game
from oracles import (
    oracle_strictly_dominated,
    oracle_weakly_dominated,
    reference_elimination,
    reference_justifying_belief,
    reference_strictly_dominated,
    reference_weakly_dominated,
    verify_dominator,
    verify_justifier,
)


def _game(rows, cols, table):
    payoffs = {}
    for r_idx, r in enumerate(rows):
        for c_idx, c in enumerate(cols):
            u1, u2 = table[r_idx][c_idx]
            payoffs[(r, c)] = (F(u1), F(u2))
    return Game(("1", "2"), (tuple(rows), tuple(cols)), payoffs)


def test_myerson_b_not_strictly_dominated():
    game = myerson_game()
    full = Restriction.full(game)
    assert strictly_dominated(game, full, 0, "B") is None
    assert oracle_strictly_dominated(game, full, 0, "B") is False


def test_uniform_gap_row_is_strictly_dominated():
    game = _game(("A", "B"), ("C", "D"), [[(2, 0), (3, 0)], [(1, 0), (2, 0)]])
    full = Restriction.full(game)
    dom = strictly_dominated(game, full, 0, "B")
    assert dom is not None and dom.weights == {"A": F(1)}
    assert verify_dominator(game, full, 0, "B", dom, strict=True)


def test_mixture_dominator_found():
    # Row "C" is beaten only by the even mixture of "A" and "B".
    game = _game(
        ("A", "B", "C"), ("X", "Y"),
        [[(3, 0), (0, 0)], [(0, 0), (3, 0)], [(1, 0), (1, 0)]],
    )
    full = Restriction.full(game)
    dom = strictly_dominated(game, full, 0, "C")
    assert dom is not None
    assert dom.weights == {"A": F(1, 2), "B": F(1, 2)}
    assert oracle_strictly_dominated(game, full, 0, "C") is True


def test_myerson_weak_dominators():
    game = myerson_game()
    full = Restriction.full(game)
    dom_b = weakly_dominated(game, full, 0, "B")
    assert dom_b is not None and dom_b.weights == {"A": F(1)}
    dom_d = weakly_dominated(game, full, 1, "D")
    assert dom_d is not None and dom_d.weights == {"C": F(1)}
    assert verify_dominator(game, full, 0, "B", dom_b, strict=False)


def test_identical_rows_are_not_weakly_dominated():
    game = _game(("A", "B"), ("C", "D"), [[(1, 0), (2, 0)], [(1, 0), (2, 0)]])
    full = Restriction.full(game)
    for s in ("A", "B"):
        assert weakly_dominated(game, full, 0, s) is None


def test_dominance_rejects_foreign_strategy():
    game = myerson_game()
    sub = Restriction((("A",), ("C", "D")))
    with pytest.raises(InputError):
        strictly_dominated(game, sub, 0, "B")
    with pytest.raises(InputError):
        weakly_dominated(game, sub, 0, "B")
    with pytest.raises(InputError):
        justifying_belief(game, sub, 0, "B")


def test_dekel_fudenberg_on_myerson():
    game = myerson_game()
    survivors, rounds = dekel_fudenberg(game)
    assert survivors.sets == (("A",), ("C",))
    assert len(rounds) == 1 and rounds[0].phase == "weak"
    eliminated = {(e.player, e.strategy) for e in rounds[0].eliminations}
    assert eliminated == {(0, "B"), (1, "D")}
    for e in rounds[0].eliminations:
        assert verify_dominator(game, Restriction.full(game), e.player, e.strategy,
                                e.dominator, strict=False)


def test_matching_pennies_has_no_eliminations():
    game = _game(("A", "B"), ("C", "D"),
                 [[(1, 0), (0, 1)], [(0, 1), (1, 0)]])
    survivors, rounds = dekel_fudenberg(game)
    assert survivors.sets == (("A", "B"), ("C", "D"))
    assert rounds == ()
    full = Restriction.full(game)
    for i, s in ((0, "A"), (0, "B"), (1, "C"), (1, "D")):
        assert oracle_weakly_dominated(game, full, i, s) is False


def test_one_by_one_game():
    game = _game(("A",), ("C",), [[(1, 1)]])
    assert dekel_fudenberg(game)[0].sets == (("A",), ("C",))
    assert iesds(game)[0].sets == (("A",), ("C",))


def test_iesds_on_myerson_keeps_everything():
    game = myerson_game()
    survivors, rounds = iesds(game)
    assert survivors.sets == (("A", "B"), ("C", "D"))
    assert rounds == ()


def test_iesds_solves_prisoners_dilemma():
    game = _game(("A", "B"), ("C", "D"),
                 [[(2, 2), (0, 3)], [(3, 0), (1, 1)]])
    survivors, rounds = iesds(game)
    assert survivors.sets == (("B",), ("D",))
    assert len(rounds) == 1


def test_justifying_belief_on_myerson():
    game = myerson_game()
    full = Restriction.full(game)
    bel_a = justifying_belief(game, full, 0, "A")
    assert bel_a is not None and bel_a("C") > 0
    assert verify_justifier(game, full, 0, "A", bel_a)
    bel_b = justifying_belief(game, full, 0, "B")
    assert bel_b is not None and bel_b("C") == 0
    assert verify_justifier(game, full, 0, "B", bel_b)


def test_justifying_belief_absent_for_strictly_dominated():
    game = _game(("A", "B"), ("C", "D"), [[(2, 0), (3, 0)], [(1, 0), (2, 0)]])
    assert justifying_belief(game, Restriction.full(game), 0, "B") is None


def test_duality_on_random_games():
    rng = random.Random(7)
    for _ in range(60):
        game = random_game(rng)
        full = Restriction.full(game)
        for i in (0, 1):
            for s in game.strategies[i]:
                dom = strictly_dominated(game, full, i, s)
                bel = justifying_belief(game, full, i, s)
                assert (dom is None) != (bel is None)
                if dom is not None:
                    assert verify_dominator(game, full, i, s, dom, strict=True)
                if bel is not None:
                    assert verify_justifier(game, full, i, s, bel)


def test_iesds_is_order_independent():
    rng = random.Random(11)
    for _ in range(25):
        game = random_game(rng)
        simultaneous, _ = iesds(game)
        # One-at-a-time elimination in a random order.
        r = Restriction.full(game)
        while True:
            options = [
                (i, s) for i in (0, 1) for s in r.sets[i]
                if strictly_dominated(game, r, i, s) is not None
            ]
            if not options:
                break
            i, s = options[rng.randrange(len(options))]
            r = r.remove({i: {s}})
        assert r.sets == simultaneous.sets


def test_df_is_subset_of_iesds():
    rng = random.Random(13)
    for _ in range(40):
        game = random_game(rng)
        df, _ = dekel_fudenberg(game)
        ie, _ = iesds(game)
        for i in (0, 1):
            assert set(df.sets[i]) <= set(ie.sets[i])


def test_trace_dominators_verify():
    rng = random.Random(17)
    for _ in range(25):
        game = random_game(rng)
        r = Restriction.full(game)
        _, rounds = dekel_fudenberg(game)
        for rnd in rounds:
            for e in rnd.eliminations:
                assert verify_dominator(
                    game, r, e.player, e.strategy, e.dominator,
                    strict=rnd.phase == "strict")
            r = r.remove({0: {e.strategy for e in rnd.eliminations if e.player == 0},
                          1: {e.strategy for e in rnd.eliminations if e.player == 1}})


# ---------------------------------------------------------------------------
# The pure best-reply screen: same answers as the LP-only tests, fewer LPs.

_BINARY = (F(0), F(1))
_WIDE = (F(-2), F(-1), F(0), F(1, 3), F(1, 2), F(1), F(3, 2), F(2), F(7, 3), F(3))


@st.composite
def _games_with_restrictions(draw):
    """A game of 1-6 x 1-6 strategies, and a random non-empty sub-restriction."""
    values = draw(st.sampled_from((_BINARY, _WIDE)))
    rows = tuple(f"r{k}" for k in range(draw(st.integers(1, 6))))
    cols = tuple(f"c{k}" for k in range(draw(st.integers(1, 6))))
    payoffs = {(a, b): (draw(st.sampled_from(values)), draw(st.sampled_from(values)))
               for a in rows for b in cols}
    sub = tuple(tuple(draw(st.lists(st.sampled_from(labels), min_size=1, unique=True)))
                for labels in (rows, cols))
    return Game(("1", "2"), (rows, cols), payoffs), Restriction(sub)


def _along(r, rounds):
    """``r`` and every restriction its elimination rounds reach."""
    yield r
    for rnd in rounds:
        r = r.remove({i: {e.strategy for e in rnd.eliminations if e.player == i}
                      for i in (0, 1)})
        yield r


def _travelers_dilemma(claims: int, reward: int = 2, scale=(1, 1), shift=(0, 0)) -> Game:
    """Claims 2..claims+1, player i's payoffs rescaled and shifted.

    Player i's payoff is ``scale[i]`` times the dilemma's plus ``shift[i]``
    times the opponent's claim.  A positive rescale and a shift that depends
    only on the opponent's strategy keep every dominance relation, so the
    game takes claims - 1 rounds under DF and IESDS whatever the two.
    """
    labels = tuple(f"c{v}" for v in range(2, claims + 2))

    def u(i: int, x: int, y: int) -> F:
        base = x if x == y else (x + reward if x < y else y - reward)
        return F(scale[i] * base + shift[i] * y)

    payoffs = {(a, b): (u(0, int(a[1:]), int(b[1:])), u(1, int(b[1:]), int(a[1:])))
               for a in labels for b in labels}
    return Game(("1", "2"), (labels, labels), payoffs)


@settings(max_examples=60, deadline=None)
@given(_games_with_restrictions())
# A tied best reply can be weakly dominated: (1, 1) beats (1, 0) weakly.
@example((_game(("A", "B"), ("C", "D"), [[(1, 0), (1, 0)], [(1, 0), (0, 0)]]),
          Restriction((("A", "B"), ("C", "D")))))
# B is the unique best reply to D only, which the restriction removes.
@example((_game(("A", "B"), ("C", "D"), [[(1, 0), (0, 0)], [(0, 0), (1, 0)]]),
          Restriction((("A", "B"), ("C",)))))
# Player 2's payoffs over the denominators 2 and 10: the weak test of c0
# (first game) and the strict test of c0 (second) find another dominator if
# the sum-to-one row is not scaled by that denominator like the margin rows,
# since phase 1 then weights the artificials unevenly.
@example((_game(("r0", "r1"), ("c0", "c1", "c2"),
                [[("2/3", 0), ("-2/5", 1), ("-3/5", "3/2")],
                 [("-1/3", "-3/2"), ("3/2", 1), (-1, "1/2")]]),
          Restriction((("r0", "r1"), ("c0", "c1", "c2")))))
@example((_game(("r0", "r1", "r2"), ("c0", "c1", "c2", "c3"),
                [[("-3/5", -3), ("-2/3", "-2/5"), (-1, 0), ("1/5", -1)],
                 [("-3/5", "3/5"), ("1/5", "-1/2"), ("-1/3", 1), ("-1/2", 1)],
                 [(0, "-2/5"), ("2/5", "-2/5"), (-1, "3/5"), (1, "-3/5")]]),
          Restriction((("r0", "r1", "r2"), ("c0", "c1", "c2", "c3")))))
# Fractional payoffs over the denominators 6 and 35, all positive, so each
# LP on the full 8 x 8 game runs phase 1 on 9 artificials; 7 rounds.
@example((_travelers_dilemma(8, scale=(F(3, 2), F(2, 5)), shift=(F(1, 3), F(1, 7))),
          Restriction((("c2", "c5", "c9"), ("c3", "c4")))))
def test_screened_tests_match_the_lp_only_references(case):
    game, sub = case
    answers = {}

    def reference(test, r, i, s, *args):
        # The rounds and the loop below ask for many of the same reference LPs.
        key = (test, r, i, s, args)
        if key not in answers:
            answers[key] = test(game, r, i, s, *args)
        return answers[key]

    df = dekel_fudenberg(game)
    ie = iesds(game)
    assert df == reference_elimination(game, "df", reference)
    assert ie == reference_elimination(game, "iesds", reference)
    full = Restriction.full(game)
    restrictions = {sub, *_along(full, df[1]), *_along(full, ie[1])}
    for r in restrictions:
        for i in (0, 1):
            for s in r.sets[i]:
                assert strictly_dominated(game, r, i, s) == \
                    reference(reference_strictly_dominated, r, i, s)
                assert weakly_dominated(game, r, i, s) == \
                    reference(reference_weakly_dominated, r, i, s)
                for full_support in (False, True):
                    assert justifying_belief(game, r, i, s, full_support) == \
                        reference_justifying_belief(game, r, i, s, full_support)


def _planted_game(n: int) -> Game:
    """Each strategy the unique best reply to the opponent's strategy of the same index."""
    rows = tuple(f"r{k}" for k in range(n))
    cols = tuple(f"c{k}" for k in range(n))
    payoffs = {(a, b): (F(n if a[1:] == b[1:] else (3 * int(a[1:]) + int(b[1:])) % n),
                        F(n if a[1:] == b[1:] else (int(a[1:]) + 2 * int(b[1:])) % n))
               for a in rows for b in cols}
    return Game(("1", "2"), (rows, cols), payoffs)


def _count_lps(monkeypatch) -> list:
    """Patch the dominance tests' LP solver to log one entry per call."""
    calls = []
    solve = dominance.maximize

    def counting(*args, **kwargs):
        calls.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(dominance, "maximize", counting)
    return calls


@pytest.mark.parametrize("build,eliminations", [
    # Two procedures, each 7 rounds that remove one claim per player.
    (lambda: _travelers_dilemma(8), 2 * 7 * 2),
    (lambda: _planted_game(6), 0),
], ids=["travelers-dilemma", "planted"])
def test_only_eliminations_run_an_lp(build, eliminations, monkeypatch):
    calls = _count_lps(monkeypatch)
    game = build()
    found = 0
    for procedure in (dekel_fudenberg, iesds):
        _, rounds = procedure(game)
        found += sum(len(rnd.eliminations) for rnd in rounds)
    assert found == eliminations
    assert len(calls) == eliminations


def test_a_best_reply_within_the_restriction_runs_no_lp(monkeypatch):
    # C beats A and B everywhere, but the restriction leaves C out.
    game = _game(("A", "B", "C"), ("X", "Y"),
                 [[(1, 0), (0, 0)], [(0, 0), (1, 0)], [(2, 0), (2, 0)]])
    r = Restriction((("A", "B"), ("X", "Y")))
    calls = _count_lps(monkeypatch)
    for s in ("A", "B"):
        assert strictly_dominated(game, r, 0, s) is None
        assert weakly_dominated(game, r, 0, s) is None
    assert calls == []
