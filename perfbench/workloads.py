"""The four benchmark workloads: their inputs, items, and correctness checks.

An item is one unit of user-visible work: a solved game, a checked model or
a CLI command.  ``Item.run`` is the timed part; ``Item.check`` runs after it,
outside the timed region, and records every check it makes in a ``Checks``.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from statistics import median
from typing import Any, Callable

from egk import convergence, dominance, dot, epistemic, epsilon, kripke, modelio, ordered
from egk.modelio import format_rational

import gen

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# Sized so that one pass takes a few seconds and a run holds several passes:
# the metrics are medians over passes, which a short slow spell of the host
# does not move.
DEEP_CLAIMS, DEEP_VARIANTS = 8, 3
WIDE_GAMES, WIDE_N = 2, 10
MODEL_SIZES = (8, 10)                      # n x n games: 64 and 100 worlds
SCHEDULE = convergence.EpsilonSchedule(Fraction(1, 2), 5)
CLI_EPS = "1/4"


class Checks:
    """Counts checks attempted and failed; keeps the first failures for the report."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def __call__(self, what: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)


@dataclass
class Item:
    name: str
    run: Callable[[Any], Any]              # takes the pass's tracer (or None)
    check: Callable[[Any, Checks], None]
    prepare: Callable[[], None] = lambda: None


@dataclass
class Workload:
    items: list[Item]
    sizes: str
    # Items that run in a child process: where the child writes its probe
    # times; peak RSS then comes from the children.
    child_probes: Path | None = None
    startup_costs: Callable[[], dict] = field(default=lambda: {})


# ---------------------------------------------------------------------------
# games-deep and games-wide


def _pay(game, i: int, own: str, opp: str) -> Fraction:
    return game.payoffs[(own, opp) if i == 0 else (opp, own)][i]


def _check_solution(inp: gen.GameInput, proc: str, result, checks: Checks) -> None:
    """Replay the audit trail, re-verifying every dominator by exact arithmetic."""
    game = inp.game
    survivors, rounds = result
    alive = [list(game.strategies[0]), list(game.strategies[1])]
    for n, rnd in enumerate(rounds):
        weak = rnd.phase == "weak"
        for e in rnd.eliminations:
            i, s, mix = e.player, e.strategy, e.dominator
            opps = alive[1 - i]
            margins = [
                sum((w * _pay(game, i, t, o) for t, w in mix.weights.items()), Fraction(0))
                - _pay(game, i, s, o)
                for o in opps
            ]
            dominates = (min(margins) >= 0 and max(margins) > 0) if weak else min(margins) > 0
            checks(f"{inp.name}.{proc} round {n + 1}: {s} dominated by {dict(mix.weights)}",
                   s in alive[i] and s not in mix.weights
                   and set(mix.weights) <= set(alive[i]) and dominates)
        for e in rnd.eliminations:
            if e.strategy in alive[e.player]:
                alive[e.player].remove(e.strategy)
    checks(f"{inp.name}.{proc}: survivors follow from the audit trail",
           [list(survivors.sets[0]), list(survivors.sets[1])] == alive)
    checks(f"{inp.name}.{proc}: {len(rounds)} rounds, expected {inp.rounds}",
           len(rounds) == inp.rounds)
    checks(f"{inp.name}.{proc}: survivors {survivors.sets}, expected {inp.survivors}",
           tuple(map(tuple, survivors.sets)) == inp.survivors)


def _games_workload(inputs: list[gen.GameInput], sizes: str) -> Workload:
    """One item per game: solved by DF, then by IESDS."""

    def item(inp: gen.GameInput) -> Item:
        def check(result, checks: Checks) -> None:
            df, ie = result
            _check_solution(inp, "df", df, checks)
            _check_solution(inp, "iesds", ie, checks)
            checks(f"{inp.name}: DF survivors within IESDS survivors",
                   all(set(df[0].sets[i]) <= set(ie[0].sets[i]) for i in (0, 1)))

        return Item(inp.name, lambda tracer: (dominance.dekel_fudenberg(inp.game),
                                              dominance.iesds(inp.game)), check)

    return Workload([item(inp) for inp in inputs], sizes)


def games_deep(rng: random.Random, workdir: Path) -> Workload:
    # One size, so the median item is a typical game rather than the boundary
    # between two sizes.
    inputs = [gen.travelers_dilemma(rng, DEEP_CLAIMS, f"td{DEEP_CLAIMS}.{v}")
              for v in range(DEEP_VARIANTS)]
    return _games_workload(
        inputs, f"{DEEP_VARIANTS} seeded variants of the traveler's dilemma with "
                f"{DEEP_CLAIMS} claims; DF and IESDS")


def games_wide(rng: random.Random, workdir: Path) -> Workload:
    inputs = [gen.planted_game(rng, WIDE_N, f"wide{k}") for k in range(WIDE_GAMES)]
    return _games_workload(
        inputs, f"{WIDE_GAMES} random {WIDE_N}x{WIDE_N} integer games; DF and IESDS")


# ---------------------------------------------------------------------------
# models


@dataclass
class PipelineResult:
    text: str
    loaded: Any
    ordered_violations: list
    cb1_lrat: tuple
    report: Any
    prob_violations: list
    upper_cb: tuple


def _pipeline(model, path: Path) -> PipelineResult:
    """The paper's pipeline on one ordered model, as a user would run it."""
    text = modelio.dumps(modelio.model_to_json(model))
    path.write_text(text)
    loaded = modelio.model_from_json(modelio.load_file(str(path)))
    violations = (ordered.validate_ordered(loaded) + ordered.check_caution(loaded)
                  + list(ordered.check_structural_conditions(loaded).violations))
    _, lrat_event = ordered.lrat(loaded)
    cb1 = ordered.common_level1_belief(loaded, lrat_event)
    report = convergence.verify_convergence(loaded, SCHEDULE)
    eps = SCHEDULE.values()[-1]
    built = convergence.build_epsilon_model(loaded, eps)
    prob_violations = kripke.validate_prob(built)
    _, rat_event = kripke.rat(built)
    upper_cb = epsilon.upper_common_belief(built, eps, rat_event)
    tmodel, _ = epistemic.types_from_kripke(built)
    epistemic.eps_permissible(tmodel, eps)
    return PipelineResult(text, loaded, violations, loaded.order(cb1), report,
                          prob_violations, loaded.order(upper_cb))


def models(rng: random.Random, workdir: Path) -> Workload:
    def item(n: int) -> Item:
        model = gen.cautious_ordered_model(rng, n)
        path = workdir / f"model{n * n}.json"

        def check(res: PipelineResult, checks: Checks) -> None:
            name = f"{n * n} worlds"
            checks(f"{name}: generated model is a valid cautious ordered model",
                   not res.ordered_violations)
            checks(f"{name}: JSON dump -> load -> dump is byte-identical",
                   modelio.dumps(modelio.model_to_json(res.loaded)) == res.text)
            checks(f"{name}: verify_convergence matches", res.report.matches)
            checks(f"{name}: report's cb1(lrat) equals the direct computation",
                   res.report.cb1_lrat == res.cb1_lrat)
            checks(f"{name}: built model passes validate_prob", not res.prob_violations)
            checks(f"{name}: upper common belief in rat equals the report's last row",
                   res.report.rows[-1].upper_cb == res.upper_cb)

        return Item(f"models{n * n}", lambda tracer: _pipeline(model, path), check)

    items = [item(n) for n in MODEL_SIZES]
    sizes = " and ".join(f"{n * n}" for n in MODEL_SIZES)
    return Workload(items, f"cautious ordered models with {sizes} worlds; "
                           f"{SCHEDULE.count} thresholds")


# ---------------------------------------------------------------------------
# cli

IMPORT_TIMER = ("import time; t = time.perf_counter(); import egk.cli; "
                "print(time.perf_counter() - t)")


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.pop("EGK_COLOR", None)
    return env


def _mix_json(mix) -> dict:
    return {s: format_rational(v) for s, v in mix.weights.items()}


def _violations_json(model, violations) -> list:
    return [{"kind": v.kind,
             "player": None if v.player is None else model.game.players[v.player],
             "where": list(v.where), "detail": v.detail} for v in violations]


def _load(path: Path) -> Any:
    return modelio.model_from_json(modelio.load_file(str(path)))


def _load_types(path: Path) -> Any:
    return modelio.types_from_json(modelio.load_file(str(path)))


def _event_file(members) -> str:
    return modelio.dumps(modelio.event_to_json(members))


# In-process library results for the CLI commands, each as
# (exit code, expected --json fields or None for empty stdout, {file: text}).


def _expect_analyze(path: Path, proc: str):
    game = modelio.game_from_json(modelio.load_file(str(path)))
    survivors, rounds = (dominance.dekel_fudenberg if proc == "df" else dominance.iesds)(game)
    payload = {
        "procedure": proc,
        "survivors": {game.players[i]: list(survivors.sets[i]) for i in (0, 1)},
        "rounds": [{"phase": rnd.phase, "eliminations": [
            {"player": game.players[e.player], "strategy": e.strategy,
             "dominator": _mix_json(e.dominator)} for e in rnd.eliminations]}
            for rnd in rounds],
    }
    return 0, payload, {}


def _expect_check_prob(path: Path):
    model = _load(path)
    found = (kripke.validate_prob(model) + epsilon.check_prob_caution(model)
             + epsilon.check_trembling(model, Fraction(CLI_EPS)))
    return int(bool(found)), {"violations": _violations_json(model, found)}, {}


def _expect_check_ordered(path: Path):
    model = _load(path)
    found = (ordered.validate_ordered(model) + ordered.check_caution(model)
             + list(ordered.check_structural_conditions(model).violations))
    advisories = [{"kind": v.kind, "detail": v.detail}
                  for v in ordered.check_lambda_constancy(model)]
    return int(bool(found)), {"violations": _violations_json(model, found),
                              "advisories": advisories}, {}


def _expect_rationality(path: Path, label: str, out: Path | None):
    model = _load(path)
    per, event = (kripke.rat if label == "rat" else ordered.lrat)(model)
    members = list(model.order(event))
    payload = {"per_player": {model.game.players[i]: list(model.order(per[i])) for i in (0, 1)},
               label: members}
    return 0, payload, ({out: _event_file(members)} if out else {})


def _expect_operator(path: Path, op: str, event_path: Path, out: Path | None):
    model = _load(path)
    event = modelio.event_from_json(modelio.load_file(str(event_path)))
    if op == "cb1":
        result = ordered.common_level1_belief(model, event)
    elif op == "cbeps":
        result = epsilon.upper_common_belief(model, Fraction(CLI_EPS), event)
    else:
        result = kripke.belief(model, 0, event)
    members = list(model.order(result))
    return 0, {"worlds": members}, ({out: _event_file(members)} if out else {})


def _expect_to_types(path: Path, out: Path):
    model = _load(path)
    tmodel, world_types = epistemic.types_from_kripke(model)
    payload = modelio.types_to_json(tmodel)
    payload["world_types"] = {w: list(world_types[w]) for w in model.worlds}
    return 0, None, {out: modelio.dumps(payload)}


def _expect_types_analyze(path: Path, eps: str | None):
    model = _load_types(path)
    game = model.game
    if eps is None:
        prop = epistemic.conjoin(epistemic.caution_property(model),
                                 epistemic.primary_rationality_property(model))
        chosen = epistemic.permissible(model)
    else:
        prop = epistemic.conjoin(epistemic.caution_property(model),
                                 epistemic.trembling_property(model, Fraction(eps)))
        chosen = epistemic.eps_permissible(model, Fraction(eps))
    alive = epistemic.common_full_belief(model, prop)
    payload = {
        "common_full_belief": {game.players[i]: [t for t in model.types[i] if t in alive[i]]
                               for i in (0, 1)},
        "strategies": {game.players[i]: [s for s in game.strategies[i] if s in chosen[i]]
                       for i in (0, 1)},
    }
    return 0, payload, {}


def _expect_to_kripke(path: Path, out: Path):
    built = epistemic.kripke_from_lex_types(_load_types(path))
    return 0, None, {out: modelio.dumps(modelio.model_to_json(built))}


def _expect_converge(path: Path, family: Path | None):
    model = _load(path)
    report = convergence.verify_convergence(model, SCHEDULE)
    payload = {
        "rows": [{"n": r.n, "eps": format_rational(r.eps), "rat": list(r.rat),
                  "upper_cb": list(r.upper_cb)} for r in report.rows],
        "stabilization_index": report.stabilization_index,
        "stabilized": list(report.stabilized),
        "cb1_lrat": list(report.cb1_lrat),
        "matches": report.matches,
    }
    files = {}
    if family:
        for r in report.rows:
            built = convergence.build_epsilon_model(model, r.eps)
            files[family / f"model_{r.n:02d}.json"] = modelio.dumps(modelio.model_to_json(built))
    return (0 if report.matches else 1), payload, files


def _expect_dot(path: Path, out: Path):
    return 0, None, {out: dot.export_dot(_load(path))}


def cli(rng: random.Random, workdir: Path) -> Workload:
    fx = ROOT / "fixtures"
    game, prob, ordm = fx / "myerson_game.json", fx / "myerson_prob.json", fx / "myerson_ordered.json"
    lex_types, prob_types = fx / "myerson_lex_types.json", fx / "myerson_prob_types.json"
    generated = workdir / "generated_ordered.json"
    generated.write_text(modelio.dumps(modelio.model_to_json(gen.cautious_ordered_model(rng, 3))))
    rat_in, lrat_in = workdir / "rat_in.json", workdir / "lrat_in.json"
    for path, source, rationality in ((rat_in, prob, kripke.rat), (lrat_in, ordm, ordered.lrat)):
        model = _load(source)
        path.write_text(_event_file(model.order(rationality(model)[1])))
    out = {name: workdir / name for name in (
        "rat_out.json", "lrat_out.json", "cb1_out.json", "types_out.json",
        "kripke_out.json", "model.dot", "family")}
    schedule = f"geometric:{SCHEDULE.ratio},{SCHEDULE.count}"
    commands = [
        ("analyze-df", ["game", "analyze", game, "--procedure", "df", "--json"],
         lambda: _expect_analyze(game, "df")),
        ("analyze-iesds", ["game", "analyze", game, "--procedure", "iesds", "--json"],
         lambda: _expect_analyze(game, "iesds")),
        ("check-prob", ["model", "check", prob, "--eps", CLI_EPS, "--json"],
         lambda: _expect_check_prob(prob)),
        ("check-ordered", ["model", "check", ordm, "--json"],
         lambda: _expect_check_ordered(ordm)),
        ("check-generated", ["model", "check", generated, "--json"],
         lambda: _expect_check_ordered(generated)),
        ("rat", ["model", "rat", prob, "--event-out", out["rat_out.json"], "--json"],
         lambda: _expect_rationality(prob, "rat", out["rat_out.json"])),
        ("lrat", ["model", "lrat", ordm, "--event-out", out["lrat_out.json"], "--json"],
         lambda: _expect_rationality(ordm, "lrat", out["lrat_out.json"])),
        ("lrat-generated", ["model", "lrat", generated, "--json"],
         lambda: _expect_rationality(generated, "lrat", None)),
        ("op-cb1", ["model", "operators", ordm, "--op", "cb1", "--event", lrat_in,
                    "--event-out", out["cb1_out.json"], "--json"],
         lambda: _expect_operator(ordm, "cb1", lrat_in, out["cb1_out.json"])),
        ("op-cbeps", ["model", "operators", prob, "--op", "cbeps", "--eps", CLI_EPS,
                      "--event", rat_in, "--json"],
         lambda: _expect_operator(prob, "cbeps", rat_in, None)),
        ("op-b", ["model", "operators", prob, "--op", "b", "--player", "1",
                  "--event", rat_in, "--json"],
         lambda: _expect_operator(prob, "b", rat_in, None)),
        ("to-types", ["model", "to-types", prob, "--out", out["types_out.json"]],
         lambda: _expect_to_types(prob, out["types_out.json"])),
        ("types-lex", ["types", "analyze", lex_types, "--json"],
         lambda: _expect_types_analyze(lex_types, None)),
        ("types-prob", ["types", "analyze", prob_types, "--eps", CLI_EPS, "--json"],
         lambda: _expect_types_analyze(prob_types, CLI_EPS)),
        ("to-kripke", ["types", "to-kripke", lex_types, "--out", out["kripke_out.json"]],
         lambda: _expect_to_kripke(lex_types, out["kripke_out.json"])),
        ("converge", ["converge", ordm, "--schedule", schedule,
                      "--emit-family", out["family"], "--json"],
         lambda: _expect_converge(ordm, out["family"])),
        ("converge-generated", ["converge", generated, "--schedule", schedule, "--json"],
         lambda: _expect_converge(generated, None)),
        ("dot", ["export", "dot", ordm, "--out", out["model.dot"]],
         lambda: _expect_dot(ordm, out["model.dot"])),
    ]
    rng.shuffle(commands)
    env = _child_env()
    spans_path = workdir / "child_spans.json"
    probes_path = workdir / "child_probes.json"

    def item(name: str, args: list, expected: Callable) -> Item:
        args = [str(a.relative_to(ROOT)) if isinstance(a, Path) else a for a in args]
        cache: list = []

        def run(tracer):
            spans = "-" if tracer is None else str(spans_path)
            argv = [sys.executable, str(HERE / "cli_child.py"), str(probes_path), spans, *args]
            proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True)
            if tracer is not None:
                recorded = json.loads(spans_path.read_text())
                tracer.adopt(recorded["spans"], recorded["counts"])
            return proc

        def prepare() -> None:
            for path in out.values():
                if path.is_dir():
                    shutil.rmtree(path)
                elif path.exists():
                    path.unlink()

        def check(proc, checks: Checks) -> None:
            if not cache:
                cache.append(expected())
            code, payload, files = cache[0]
            checks(f"cli {name}: exit {proc.returncode} (expected {code}), stderr {proc.stderr!r}",
                   proc.returncode == code and not proc.stderr)
            if payload is None:
                checks(f"cli {name}: no output on stdout", proc.stdout == "")
            else:
                try:
                    got = json.loads(proc.stdout)
                except ValueError:
                    got = {}
                checks(f"cli {name}: --json output equals the library result",
                       all(got.get(k) == v for k, v in payload.items()))
            for path, text in files.items():
                checks(f"cli {name}: {path.name} equals the library result",
                       path.is_file() and path.read_text() == text)

        return Item(f"cli.{name}", run, check, prepare)

    def startup_costs() -> dict:
        interp, imports = [], []
        for _ in range(3):
            start = time.perf_counter()
            subprocess.run([sys.executable, "-c", "pass"], env=env, check=True)
            interp.append(time.perf_counter() - start)
            proc = subprocess.run([sys.executable, "-c", IMPORT_TIMER], cwd=ROOT, env=env,
                                  capture_output=True, text=True, check=True)
            imports.append(float(proc.stdout))
        return {"cli.interp_start_s": median(interp), "cli.import_s": median(imports)}

    return Workload([item(*c) for c in commands],
                    f"{len(commands)} egk CLI commands over fixtures/ and a generated "
                    "9-world model", child_probes=probes_path, startup_costs=startup_costs)


WORKLOADS = {"games-deep": games_deep, "games-wide": games_wide, "models": models, "cli": cli}
