"""Built-in Myerson-game fixtures used by the test suite and the docs.

The game has a payoff of (1, 1) at (A, C) and (0, 0) elsewhere, so B and D
are weakly but not strictly dominated.  The two Kripke fixtures are
reconstructions over four worlds, one per profile.  The tests assert the
solution sets each one exhibits, and that the written files match
``fixtures/``.

Run ``python -m egk.fixtures OUTDIR`` to write them as JSON files.
"""

from __future__ import annotations

from fractions import Fraction

from .epistemic import LexEpistemicModel, ProbEpistemicModel
from .games import Game
from .kripke import ProbKripkeModel, StandardKripkeModel
from .ordered import OrderedKripkeModel

_W = ("w1", "w2", "w3", "w4")
_PROFILES = {"w1": ("A", "C"), "w2": ("A", "D"), "w3": ("B", "C"), "w4": ("B", "D")}


def myerson_game() -> Game:
    one = Fraction(1)
    zero = Fraction(0)
    payoffs = {
        ("A", "C"): (one, one),
        ("A", "D"): (zero, zero),
        ("B", "C"): (zero, zero),
        ("B", "D"): (zero, zero),
    }
    return Game(("1", "2"), (("A", "B"), ("C", "D")), payoffs)


def _clusters():
    # Player 1 clusters worlds by its own strategy, player 2 likewise.
    c1 = {"w1": frozenset({"w1", "w2"}), "w2": frozenset({"w1", "w2"}),
          "w3": frozenset({"w3", "w4"}), "w4": frozenset({"w3", "w4"})}
    c2 = {"w1": frozenset({"w1", "w3"}), "w3": frozenset({"w1", "w3"}),
          "w2": frozenset({"w2", "w4"}), "w4": frozenset({"w2", "w4"})}
    return c1, c2


def _base() -> StandardKripkeModel:
    c1, c2 = _clusters()
    sigma1 = {w: _PROFILES[w][0] for w in _W}
    sigma2 = {w: _PROFILES[w][1] for w in _W}
    return StandardKripkeModel(myerson_game(), _W, (c1, c2), (sigma1, sigma2))


def myerson_ordered_model() -> OrderedKripkeModel:
    """Ordered model whose primary belief at each world is the world itself.

    The fallback level points at the other world of the cluster, so every
    player stays cautious and the level supports partition each cluster.
    """
    one = Fraction(1)
    partner1 = {"w1": "w2", "w2": "w1", "w3": "w4", "w4": "w3"}
    partner2 = {"w1": "w3", "w3": "w1", "w2": "w4", "w4": "w2"}
    lam1 = {w: ({w: one}, {partner1[w]: one}) for w in _W}
    lam2 = {w: ({w: one}, {partner2[w]: one}) for w in _W}
    return OrderedKripkeModel(_base(), (lam1, lam2))


def myerson_prob_model(eps: Fraction) -> ProbKripkeModel:
    """Probabilistic model believing the cluster diagonal with weight 1 - eps."""
    eps = Fraction(eps)
    if not 0 < eps < Fraction(1, 2):
        raise ValueError(f"fixture needs eps in (0, 1/2), got {eps}")
    keep = 1 - eps
    p1 = {"w1": {"w1": keep, "w2": eps}, "w2": {"w1": keep, "w2": eps},
          "w3": {"w3": keep, "w4": eps}, "w4": {"w3": keep, "w4": eps}}
    p2 = {"w1": {"w1": keep, "w3": eps}, "w3": {"w1": keep, "w3": eps},
          "w2": {"w2": keep, "w4": eps}, "w4": {"w2": keep, "w4": eps}}
    return ProbKripkeModel(_base(), (p1, p2))


def myerson_lex_types() -> LexEpistemicModel:
    """One cautious lexicographic type per player; A and C are permissible."""
    one = Fraction(1)
    types = (("th1",), ("th2",))
    beliefs = (
        {"th1": ({("C", "th2"): one}, {("D", "th2"): one})},
        {"th2": ({("A", "th1"): one}, {("B", "th1"): one})},
    )
    return LexEpistemicModel(myerson_game(), types, beliefs)


def myerson_prob_types(eps: Fraction) -> ProbEpistemicModel:
    """One probabilistic type per player believing mistakes with weight eps."""
    eps = Fraction(eps)
    if not 0 < eps < 1:
        raise ValueError(f"fixture needs eps in (0, 1), got {eps}")
    types = (("t1",), ("t2",))
    beliefs = (
        {"t1": {("C", "t2"): 1 - eps, ("D", "t2"): eps}},
        {"t2": {("A", "t1"): 1 - eps, ("B", "t1"): eps}},
    )
    return ProbEpistemicModel(myerson_game(), types, beliefs)


def _main(argv) -> int:
    import pathlib
    import sys

    from . import modelio

    if len(argv) != 1:
        print("usage: python -m egk.fixtures OUTDIR", file=sys.stderr)
        return 2
    outdir = pathlib.Path(argv[0])
    outdir.mkdir(parents=True, exist_ok=True)
    eps = Fraction(1, 4)
    files = {
        "myerson_game.json": modelio.game_to_json(myerson_game()),
        "myerson_ordered.json": modelio.model_to_json(myerson_ordered_model()),
        "myerson_prob.json": modelio.model_to_json(myerson_prob_model(eps)),
        "myerson_lex_types.json": modelio.types_to_json(myerson_lex_types()),
        "myerson_prob_types.json": modelio.types_to_json(myerson_prob_types(eps)),
    }
    for name, payload in files.items():
        path = outdir / name
        path.write_text(modelio.dumps(payload))
        print(path)
    return 0


if __name__ == "__main__":  # pragma: no cover
    import sys

    raise SystemExit(_main(sys.argv[1:]))
