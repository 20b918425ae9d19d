"""Byte-for-byte CLI output on the fixtures, against stored golden files.

Each case runs one ``egk`` command on ``fixtures/``, or on a game, model or
event kept beside the golden files, and compares its exit code and standard
output with ``tests/golden/<name>.out``, in ``--json`` mode and, for the
``*_text`` cases, in text mode with ``EGK_COLOR`` unset
(set to ``1`` for the ``*_color`` cases); ``converge --emit-family`` also
compares the written member files with ``tests/golden/family/`` (the
``perfect`` scheme) or ``tests/golden/family_proper/`` (``proper``), and a
command given ``--out``/``--event-out`` compares the file it wrote with
``tests/golden/written/<name>.out``.  The ``help_*`` cases pin ``--help``
of every parser at ``COLUMNS=80`` (argparse wraps to the terminal width;
the layout is that of Python 3.11's argparse).  Regenerate the files, after
a deliberate change of output, with ``PYTHONPATH=src python tests/test_golden.py``.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from egk import cli

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"

GAME = "fixtures/myerson_game.json"
PROB = "fixtures/myerson_prob.json"
ORDERED = "fixtures/myerson_ordered.json"
LEX_TYPES = "fixtures/myerson_lex_types.json"
PROB_TYPES = "fixtures/myerson_prob_types.json"
EVENT = "tests/golden/event_w1_w2.json"
# Overlapping level supports and an unweighted accessible world, both for player 1.
STRUCTURAL = "tests/golden/ordered_structural.json"
# A world whose primary beliefs reach, in two steps, a world outside LRAT, and its LRAT event:
# one-step mutual primary belief keeps the world, common primary belief does not.
CROSS_CLUSTER = "tests/golden/ordered_cross_cluster.json"
CROSS_CLUSTER_LRAT = "tests/golden/event_cross_cluster_lrat.json"
# A 3x3 game whose weak round (M) is followed by a strict round (R), each strategy
# dominated only by a mixture; IESDS takes M with a different mixture.
MIXED_ROUNDS = "tests/golden/game_mixed_rounds.json"
# A 3x3 game whose r1 is strictly dominated by r0 alone and by mixtures of r0 and r2
# with the same least margin: the dominator is the sum-to-one LP's, 7/9 r0 + 2/9 r2.
RIVAL_TIE = "tests/golden/game_rival_tie.json"
# A standard model (no beliefs) breaking transitivity, Euclideanness and sigma-constancy
# for player 1 and seriality for player 2, once each, so the report's order is fixed.
STANDARD = "tests/golden/standard_frame.json"
FAMILY = "family"
FAMILY_PROPER = "family_proper"
FAMILIES = (FAMILY, FAMILY_PROPER)
OUT = "out"
WRITTEN = "written"

# name -> (argv, exit code); paths are relative to the repository root.
CASES = {
    "game_analyze_df": (["game", "analyze", GAME, "--procedure", "df", "--json"], 0),
    "game_analyze_iesds": (["game", "analyze", GAME, "--procedure", "iesds", "--json"], 0),
    "game_analyze_mixed_rounds_df": (
        ["game", "analyze", MIXED_ROUNDS, "--procedure", "df", "--json"], 0),
    "game_analyze_mixed_rounds_iesds": (
        ["game", "analyze", MIXED_ROUNDS, "--procedure", "iesds", "--json"], 0),
    "game_analyze_rival_tie_iesds": (
        ["game", "analyze", RIVAL_TIE, "--procedure", "iesds", "--json"], 0),
    "model_check_prob": (["model", "check", PROB, "--json"], 0),
    "model_check_prob_eps": (
        ["model", "check", PROB, "--eps", "1/4", "--show-upper", "--json"], 0),
    "model_check_prob_pointwise": (
        ["model", "check", PROB, "--eps", "1/4", "--trembling-reading", "pointwise",
         "--json"], 1),
    "model_check_ordered": (["model", "check", ORDERED, "--json"], 0),
    "model_check_structural": (["model", "check", STRUCTURAL, "--json"], 1),
    "model_check_standard": (["model", "check", STANDARD, "--json"], 1),
    "model_operators_b": (
        ["model", "operators", PROB, "--op", "b", "--player", "1", "--event", EVENT,
         "--json"], 0),
    "model_operators_cb": (["model", "operators", PROB, "--op", "cb", "--event", EVENT,
                            "--json"], 0),
    "model_operators_b1": (
        ["model", "operators", ORDERED, "--op", "b1", "--player", "2", "--event", EVENT,
         "--json"], 0),
    "model_operators_cb1": (["model", "operators", ORDERED, "--op", "cb1", "--event", EVENT,
                             "--json"], 0),
    "model_operators_cb1_cross_cluster": (
        ["model", "operators", CROSS_CLUSTER, "--op", "cb1", "--event", CROSS_CLUSTER_LRAT,
         "--json"], 0),
    "model_operators_beps": (
        ["model", "operators", PROB, "--op", "beps", "--player", "1", "--eps", "1/4",
         "--event", EVENT, "--json"], 0),
    "model_operators_cbeps": (
        ["model", "operators", PROB, "--op", "cbeps", "--eps", "1/4", "--event", EVENT,
         "--json"], 0),
    "model_rat": (["model", "rat", PROB, "--json"], 0),
    "model_lrat": (["model", "lrat", ORDERED, "--json"], 0),
    "model_to_types": (["model", "to-types", PROB, "--json"], 0),
    "types_analyze_lex": (["types", "analyze", LEX_TYPES, "--json"], 0),
    "types_analyze_prob": (["types", "analyze", PROB_TYPES, "--json"], 0),
    "types_analyze_prob_eps": (["types", "analyze", PROB_TYPES, "--eps", "1/3", "--json"], 0),
    "types_to_kripke": (["types", "to-kripke", LEX_TYPES, "--json"], 0),
    "converge_perfect": (
        ["converge", ORDERED, "--schedule", "geometric:1/2,5", "--emit-family", FAMILY,
         "--json"], 0),
    "converge_proper": (
        ["converge", ORDERED, "--schedule", "geometric:1/3,4", "--scheme", "proper",
         "--json"], 0),
    "converge_proper_family": (
        ["converge", ORDERED, "--schedule", "geometric:1/3,4", "--scheme", "proper",
         "--emit-family", FAMILY_PROPER, "--json"], 0),
    "export_dot_ordered": (["export", "dot", ORDERED], 0),
    "export_dot_prob": (["export", "dot", PROB], 0),
    "model_operators_b_ordered": (
        ["model", "operators", ORDERED, "--op", "b", "--player", "1", "--event", EVENT,
         "--json"], 0),
    "model_operators_cb_ordered": (["model", "operators", ORDERED, "--op", "cb", "--event",
                                    EVENT, "--json"], 0),
    # Commands that write a file: the file, and what they print besides.
    "model_operators_cbeps_event_out": (
        ["model", "operators", PROB, "--op", "cbeps", "--eps", "1/4", "--event", EVENT,
         "--event-out", OUT, "--json"], 0),
    "model_rat_event_out": (["model", "rat", PROB, "--event-out", OUT, "--json"], 0),
    "model_lrat_event_out": (["model", "lrat", ORDERED, "--event-out", OUT, "--json"], 0),
    "model_to_types_out": (["model", "to-types", PROB, "--out", OUT, "--json"], 0),
    "types_to_kripke_out": (["types", "to-kripke", LEX_TYPES, "--out", OUT, "--json"], 0),
    "export_dot_out": (["export", "dot", ORDERED, "--out", OUT], 0),
}

# Text-mode cases: the same commands without --json.
_TEXT = (
    "game_analyze_df", "game_analyze_iesds", "game_analyze_mixed_rounds_df",
    "game_analyze_mixed_rounds_iesds", "model_check_prob", "model_check_prob_eps",
    "model_check_prob_pointwise", "model_check_ordered", "model_check_structural",
    "model_check_standard",
    "model_operators_b", "model_operators_cb", "model_operators_b1", "model_operators_cb1",
    "model_operators_beps", "model_operators_cbeps", "model_operators_b_ordered",
    "model_operators_cb_ordered",
    "model_rat", "model_lrat", "model_to_types", "types_analyze_lex", "types_analyze_prob",
    "types_analyze_prob_eps", "types_to_kripke", "converge_proper",
    "model_operators_cbeps_event_out", "model_rat_event_out", "model_lrat_event_out",
    "model_to_types_out", "types_to_kripke_out",
)
CASES.update({
    f"{name}_text": ([arg for arg in CASES[name][0] if arg != "--json"], CASES[name][1])
    for name in _TEXT
})
CASES["converge_perfect_text"] = (["converge", ORDERED, "--schedule", "geometric:1/2,5"], 0)
# Colored text: bold, red and green.
CASES.update({
    f"{name}_color": CASES[f"{name}_text"]
    for name in ("game_analyze_df", "model_check_prob_pointwise", "converge_proper")
})
# --help of every parser: the program, its four groups and its ten commands.
CASES.update({
    "_".join(["help", *(words or ["egk"])]).replace("-", "_"): ([*words, "--help"], 0)
    for words in ([], ["game"], ["game", "analyze"], ["model"], ["model", "check"],
                  ["model", "operators"], ["model", "rat"], ["model", "lrat"],
                  ["model", "to-types"], ["types"], ["types", "analyze"],
                  ["types", "to-kripke"], ["converge"], ["export"], ["export", "dot"])
})


def _argv(argv: list[str], families: Path, written: Path) -> list[str]:
    out = []
    for arg in argv:
        if arg in FAMILIES:
            out.append(str(families / arg))
        elif arg == OUT:
            out.append(str(written))
        elif arg.startswith(("fixtures/", "tests/")):
            out.append(str(ROOT / arg))
        else:
            out.append(arg)
    return out


def _run(argv: list[str]) -> int:
    """``cli.main``'s exit code; ``--help`` exits through ``SystemExit(0)``."""
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name, tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    if name.endswith("_color"):
        monkeypatch.setenv("EGK_COLOR", "1")
    else:
        monkeypatch.delenv("EGK_COLOR", raising=False)
    argv, code = CASES[name]
    assert _run(_argv(argv, tmp_path, tmp_path / OUT)) == code
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out == (GOLDEN / f"{name}.out").read_text()
    if OUT in argv:
        assert (tmp_path / OUT).read_text() == (GOLDEN / WRITTEN / f"{name}.out").read_text()
    for family in FAMILIES:
        if family in argv:
            expected = sorted(p.name for p in (GOLDEN / family).iterdir())
            assert sorted(os.listdir(tmp_path / family)) == expected
            for member in expected:
                assert ((tmp_path / family / member).read_text()
                        == (GOLDEN / family / member).read_text())


def test_fixture_generator_reproduces_fixtures(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run([sys.executable, "-m", "egk.fixtures", str(tmp_path)],
                   cwd=ROOT, env=env, capture_output=True, check=True)
    expected = sorted(p.name for p in (ROOT / "fixtures").iterdir())
    assert len(expected) == 5
    assert sorted(os.listdir(tmp_path)) == expected
    for name in expected:
        assert (tmp_path / name).read_bytes() == (ROOT / "fixtures" / name).read_bytes(), name


def _regenerate() -> None:
    import contextlib
    import io

    (GOLDEN / WRITTEN).mkdir(exist_ok=True)
    os.environ["COLUMNS"] = "80"
    for name, (argv, code) in sorted(CASES.items()):
        if name.endswith("_color"):
            os.environ["EGK_COLOR"] = "1"
        else:
            os.environ.pop("EGK_COLOR", None)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            got = _run(_argv(argv, GOLDEN, GOLDEN / WRITTEN / f"{name}.out"))
        if got != code:
            raise SystemExit(f"{name}: exit {got}, expected {code}")
        (GOLDEN / f"{name}.out").write_text(out.getvalue())


if __name__ == "__main__":
    sys.exit(_regenerate())
