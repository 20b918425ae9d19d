"""Command-line front end.

Exit codes: 0 on success, 1 when a check found violations (or a convergence
mismatch), 2 on malformed files or invalid arguments.  ``--json`` switches
every report to machine-readable output with rationals as strings; the
environment variable ``EGK_COLOR`` turns on ANSI colors in text output.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from . import convergence, dot, epistemic, epsilon, kripke, modelio, ordered
from .dominance import dekel_fudenberg, iesds
from .epistemic import LexEpistemicModel
from .errors import EgkError, InputError
from .kripke import ProbKripkeModel, StandardKripkeModel
from .modelio import format_rational, parse_rational
from .ordered import OrderedKripkeModel


def _color_enabled() -> bool:
    return os.environ.get("EGK_COLOR", "").lower() in ("1", "true", "yes", "on")


def _paint(text: str, code: str) -> str:
    if _color_enabled():
        return f"\x1b[{code}m{text}\x1b[0m"
    return text


def _red(text: str) -> str:
    return _paint(text, "31")


def _green(text: str) -> str:
    return _paint(text, "32")


def _bold(text: str) -> str:
    return _paint(text, "1")


def _player_index(game, text: str) -> int:
    if text in game.players:
        return game.players.index(text)
    if text in ("1", "2"):
        return int(text) - 1
    raise InputError(f"unknown player {text!r}")


def _load_model(path: str, game_path: str | None = None):
    data = modelio.load_file(path)
    game = None
    if game_path:
        game = modelio.game_from_json(modelio.load_file(game_path), game_path)
    elif "game" not in data:
        raise InputError(f"{path}: no embedded game; pass --game")
    return modelio.model_from_json(data, game, path)


def _emit(payload: dict, out_path: str | None, as_json: bool) -> None:
    text = modelio.dumps(payload)
    if out_path:
        modelio.write_file(out_path, text)
    if as_json:
        sys.stdout.write(text)


def _mixture_json(mix) -> dict:
    return {s: format_rational(v) for s, v in mix.weights.items()}


def _mixture_text(mix) -> str:
    return " + ".join(f"{format_rational(v)}*{s}" for s, v in mix.weights.items())


# ---------------------------------------------------------------------------
# game analyze


def _cmd_game_analyze(args) -> int:
    game = modelio.game_from_json(modelio.load_file(args.file), args.file)
    run = dekel_fudenberg if args.procedure == "df" else iesds
    survivors, rounds = run(game)
    if args.json:
        payload = {
            "procedure": args.procedure,
            "survivors": {game.players[i]: list(survivors.sets[i]) for i in (0, 1)},
            "rounds": [
                {
                    "phase": rnd.phase,
                    "eliminations": [
                        {
                            "player": game.players[e.player],
                            "strategy": e.strategy,
                            "dominator": _mixture_json(e.dominator),
                        }
                        for e in rnd.eliminations
                    ],
                }
                for rnd in rounds
            ],
        }
        sys.stdout.write(modelio.dumps(payload))
        return 0
    print(_bold(f"procedure: {args.procedure}"))
    for i in (0, 1):
        print(f"survivors {game.players[i]}: {' '.join(survivors.sets[i])}")
    if rounds:
        print(f"{'round':<6} {'phase':<7} {'player':<7} {'strategy':<9} dominator")
        for n, rnd in enumerate(rounds, start=1):
            for e in rnd.eliminations:
                print(f"{n:<6} {rnd.phase:<7} {game.players[e.player]:<7} "
                      f"{e.strategy:<9} {_mixture_text(e.dominator)}")
    else:
        print("no eliminations")
    return 0


# ---------------------------------------------------------------------------
# model check


def _cmd_model_check(args) -> int:
    model = _load_model(args.file, args.game)
    violations = []
    advisories = []
    if isinstance(model, StandardKripkeModel):
        violations += kripke.validate_standard(model)
    elif isinstance(model, ProbKripkeModel):
        violations += kripke.validate_prob(model)
        violations += epsilon.check_prob_caution(model)
        if args.eps is not None:
            eps = parse_rational(args.eps, "--eps")
            violations += epsilon.check_trembling(model, eps, args.trembling_reading)
    else:
        violations += ordered.validate_ordered(model)
        violations += ordered.check_caution(model)
        structural = ordered.check_structural_conditions(model)
        violations += list(structural.violations)
        advisories += ordered.check_lambda_constancy(model)
    if args.json:
        payload = {
            "violations": [
                {"kind": v.kind,
                 "player": None if v.player is None else model.game.players[v.player],
                 "where": list(v.where), "detail": v.detail}
                for v in violations
            ],
            "advisories": [{"kind": v.kind, "detail": v.detail} for v in advisories],
        }
        if args.show_upper and isinstance(model, ProbKripkeModel) and args.eps is not None:
            eps = parse_rational(args.eps, "--eps")
            payload["upper_access"] = {
                model.game.players[i]: {
                    w: model.order(epsilon.upper_access(model, i, w, eps))
                    for w in model.worlds}
                for i in (0, 1)}
        sys.stdout.write(modelio.dumps(payload))
    else:
        for v in violations:
            print(f"{_red('violation')} [{v.kind}] {v.detail}")
        for v in advisories:
            print(f"advisory [{v.kind}] {v.detail}")
        if args.show_upper and isinstance(model, ProbKripkeModel) and args.eps is not None:
            eps = parse_rational(args.eps, "--eps")
            print(_bold(f"accessibility above {args.eps}"))
            for i in (0, 1):
                for w in model.worlds:
                    members = " ".join(model.order(epsilon.upper_access(model, i, w, eps)))
                    print(f"player {model.game.players[i]} at {w}: {members}")
        if not violations:
            print(_green("ok"))
    return 1 if violations else 0


# ---------------------------------------------------------------------------
# model operators / rat / lrat


def _cmd_model_operators(args) -> int:
    model = _load_model(args.file, args.game)
    event = modelio.event_from_json(modelio.load_file(args.event), args.event)
    op = args.op
    if op in ("b", "b1", "beps") and not args.player:
        raise InputError(f"operator {op!r} needs --player")
    if op in ("b1", "cb1") and not isinstance(model, OrderedKripkeModel):
        raise InputError(f"operator {op!r} needs an ordered model")
    if op in ("beps", "cbeps"):
        if not isinstance(model, ProbKripkeModel):
            raise InputError(f"operator {op!r} needs a probabilistic model")
        if args.eps is None:
            raise InputError(f"operator {op!r} needs --eps")
    game = model.game
    if op == "b":
        result = kripke.belief(model, _player_index(game, args.player), event)
    elif op == "cb":
        result = kripke.common_belief(model, event)
    elif op == "b1":
        result = ordered.level1_belief(model, _player_index(game, args.player), event)
    elif op == "cb1":
        result = ordered.common_level1_belief(model, event)
    elif op == "beps":
        eps = parse_rational(args.eps, "--eps")
        result = epsilon.upper_belief(model, _player_index(game, args.player), eps, event)
    else:
        eps = parse_rational(args.eps, "--eps")
        result = epsilon.upper_common_belief(model, eps, event)
    members = model.order(result)
    _emit(modelio.event_to_json(members), args.event_out, args.json)
    if not args.json:
        print(" ".join(members) if members else "(empty)")
    return 0


def _cmd_model_rat(args) -> int:
    model = _load_model(args.file, args.game)
    if not isinstance(model, ProbKripkeModel):
        raise InputError("rationality needs a probabilistic model")
    (r1, r2), event = kripke.rat(model)
    return _report_rationality(args, model, (r1, r2), event, "rat")


def _cmd_model_lrat(args) -> int:
    model = _load_model(args.file, args.game)
    if not isinstance(model, OrderedKripkeModel):
        raise InputError("lexicographic rationality needs an ordered model")
    (r1, r2), event = ordered.lrat(model)
    return _report_rationality(args, model, (r1, r2), event, "lrat")


def _report_rationality(args, model, per_player, event, label) -> int:
    game = model.game
    members = model.order(event)
    _emit(modelio.event_to_json(members), args.event_out, False)
    if args.json:
        payload = {
            "per_player": {game.players[i]: model.order(per_player[i]) for i in (0, 1)},
            label: members,
        }
        sys.stdout.write(modelio.dumps(payload))
    else:
        for i in (0, 1):
            print(f"{label}_{game.players[i]}: {' '.join(model.order(per_player[i]))}")
        print(f"{label}: {' '.join(members) if members else '(empty)'}")
    return 0


# ---------------------------------------------------------------------------
# types


def _cmd_types_analyze(args) -> int:
    data = modelio.load_file(args.file)
    model = modelio.types_from_json(data, None, args.file)
    game = model.game
    lex = isinstance(model, LexEpistemicModel)
    props = [epistemic.caution_property(model)]
    eps = None
    if lex:
        props.append(epistemic.primary_rationality_property(model))
    else:
        eps = parse_rational(args.eps, "--eps") if args.eps is not None else Fraction(1, 4)
        props.append(epistemic.trembling_property(model, eps))
    prop = epistemic.conjoin(*props)
    alive = epistemic.common_full_belief(model, prop)
    strategies = (epistemic.permissible(model) if lex
                  else epistemic.eps_permissible(model, eps))
    label = "permissible" if lex else f"eps-permissible at {format_rational(eps)}"
    if args.json:
        payload = {
            "flavor": "lexicographic" if lex else "probabilistic",
            "properties": {
                p.name: {game.players[i]: {t: p.holds[i][t] for t in model.types[i]}
                         for i in (0, 1)}
                for p in props
            },
            "common_full_belief": {
                game.players[i]: [t for t in model.types[i] if t in alive[i]] for i in (0, 1)},
            "optimal": {
                game.players[i]: {t: sorted(epistemic.optimal_strategies(model, i, t))
                                  for t in model.types[i]}
                for i in (0, 1)},
            "strategies": {game.players[i]: [s for s in game.strategies[i] if s in strategies[i]]
                           for i in (0, 1)},
            "notion": label,
        }
        sys.stdout.write(modelio.dumps(payload))
        return 0
    print(_bold(f"flavor: {'lexicographic' if lex else 'probabilistic'}"))
    for i in (0, 1):
        for t in model.types[i]:
            flags = " ".join(f"{p.name}={'yes' if p.holds[i][t] else 'no'}" for p in props)
            opt = " ".join(sorted(epistemic.optimal_strategies(model, i, t)))
            print(f"player {game.players[i]} type {t}: {flags} optimal={{{opt}}}")
    for i in (0, 1):
        survivors = " ".join(t for t in model.types[i] if t in alive[i])
        print(f"common full belief survivors {game.players[i]}: {survivors or '(none)'}")
    for i in (0, 1):
        chosen = " ".join(s for s in game.strategies[i] if s in strategies[i])
        print(f"{label} {game.players[i]}: {chosen or '(none)'}")
    return 0


def _cmd_types_to_kripke(args) -> int:
    model = modelio.types_from_json(modelio.load_file(args.file), None, args.file)
    if not isinstance(model, LexEpistemicModel):
        raise InputError("to-kripke expects a lexicographic type model")
    built = epistemic.kripke_from_lex_types(model)
    payload = modelio.model_to_json(built)
    _emit(payload, args.out, args.json or args.out is None)
    return 0


def _cmd_model_to_types(args) -> int:
    model = _load_model(args.file, args.game)
    if not isinstance(model, ProbKripkeModel):
        raise InputError("to-types expects a probabilistic model")
    tmodel, world_types = epistemic.types_from_kripke(model)
    payload = modelio.types_to_json(tmodel)
    payload["world_types"] = {w: list(world_types[w]) for w in model.worlds}
    _emit(payload, args.out, args.json or args.out is None)
    return 0


# ---------------------------------------------------------------------------
# converge


def _parse_schedule(text: str) -> convergence.EpsilonSchedule:
    if not text.startswith("geometric:"):
        raise InputError(f"unknown schedule {text!r}; expected geometric:RATIO,COUNT")
    body = text[len("geometric:"):]
    parts = body.split(",")
    if len(parts) != 2:
        raise InputError(f"malformed schedule {text!r}; expected geometric:RATIO,COUNT")
    ratio = parse_rational(parts[0], "--schedule ratio")
    try:
        count = int(parts[1])
    except ValueError:
        raise InputError(f"malformed schedule count {parts[1]!r}")
    return convergence.EpsilonSchedule(ratio, count)


def _cmd_converge(args) -> int:
    model = _load_model(args.file, args.game)
    if not isinstance(model, OrderedKripkeModel):
        raise InputError("converge expects an ordered model")
    schedule = _parse_schedule(args.schedule)

    def emit(n: int, member: ProbKripkeModel) -> None:
        try:
            os.makedirs(args.emit_family, exist_ok=True)
        except OSError as exc:
            raise InputError(f"{args.emit_family}: {exc.strerror or exc}")
        path = os.path.join(args.emit_family, f"model_{n:02d}.json")
        modelio.write_file(path, modelio.dumps(modelio.model_to_json(member)))

    report = convergence.verify_convergence(
        model, schedule, args.scheme, emit if args.emit_family else None)
    if args.json:
        payload = {
            "rows": [
                {"n": row.n, "eps": format_rational(row.eps),
                 "rat": list(row.rat), "upper_cb": list(row.upper_cb)}
                for row in report.rows
            ],
            "tails": [{"after": m, "intersection": list(t)} for m, t in report.tails],
            "stabilization_index": report.stabilization_index,
            "stabilized": list(report.stabilized),
            "cb1_lrat": list(report.cb1_lrat),
            "matches": report.matches,
        }
        sys.stdout.write(modelio.dumps(payload))
    else:
        print(f"{'n':<3} {'eps':<10} {'rat':<18} upper-cb")
        for row in report.rows:
            print(f"{row.n:<3} {format_rational(row.eps):<10} "
                  f"{' '.join(row.rat):<18} {' '.join(row.upper_cb)}")
        for m, t in report.tails:
            print(f"tail after {m}: {' '.join(t) if t else '(empty)'}")
        print(f"stabilization index: {report.stabilization_index}")
        print(f"stabilized: {' '.join(report.stabilized) if report.stabilized else '(empty)'}")
        print(f"common primary belief in lexicographic rationality: "
              f"{' '.join(report.cb1_lrat) if report.cb1_lrat else '(empty)'}")
        print(_green("match") if report.matches else _red("mismatch"))
    return 0 if report.matches else 1


# ---------------------------------------------------------------------------
# export dot


def _cmd_export_dot(args) -> int:
    model = _load_model(args.file, args.game)
    text = dot.export_dot(model)
    if args.out:
        modelio.write_file(args.out, text)
    else:
        sys.stdout.write(text)
    return 0


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="egk",
        description="Exact dominance solver and epistemic Kripke model checker "
                    "for finite two-player games.")
    sub = parser.add_subparsers(dest="command", required=True)

    game_p = sub.add_parser("game", help="strategic-form game analyses")
    game_sub = game_p.add_subparsers(dest="subcommand", required=True)
    analyze = game_sub.add_parser("analyze", help="run an elimination procedure")
    analyze.add_argument("file")
    analyze.add_argument("--procedure", choices=("df", "iesds"), default="df",
                         help="df = one weak round then iterated strict; iesds = strict only")
    analyze.add_argument("--json", action="store_true")
    analyze.set_defaults(func=_cmd_game_analyze)

    model_p = sub.add_parser("model", help="Kripke model checks and operators")
    model_sub = model_p.add_subparsers(dest="subcommand", required=True)

    check = model_sub.add_parser("check", help="validate a model file")
    check.add_argument("file")
    check.add_argument("--game", help="game file overriding the embedded game")
    check.add_argument("--eps", help="also check the trembling bound at this threshold")
    check.add_argument("--trembling-reading", choices=epsilon.TREMBLING_READINGS,
                       default="belief")
    check.add_argument("--show-upper", action="store_true",
                       help="with --eps, print accessibility above the threshold")
    check.add_argument("--json", action="store_true")
    check.set_defaults(func=_cmd_model_check)

    operators = model_sub.add_parser("operators", help="apply a belief operator to an event")
    operators.add_argument("file")
    operators.add_argument("--game")
    operators.add_argument("--op", required=True,
                           choices=("b", "cb", "b1", "cb1", "beps", "cbeps"))
    operators.add_argument("--player")
    operators.add_argument("--eps")
    operators.add_argument("--event", required=True, help="event JSON file")
    operators.add_argument("--event-out", help="write the resulting event here")
    operators.add_argument("--json", action="store_true")
    operators.set_defaults(func=_cmd_model_operators)

    rat_p = model_sub.add_parser("rat", help="rationality events of a probabilistic model")
    rat_p.add_argument("file")
    rat_p.add_argument("--game")
    rat_p.add_argument("--event-out")
    rat_p.add_argument("--json", action="store_true")
    rat_p.set_defaults(func=_cmd_model_rat)

    lrat_p = model_sub.add_parser("lrat", help="lexicographic rationality of an ordered model")
    lrat_p.add_argument("file")
    lrat_p.add_argument("--game")
    lrat_p.add_argument("--event-out")
    lrat_p.add_argument("--json", action="store_true")
    lrat_p.set_defaults(func=_cmd_model_lrat)

    to_types = model_sub.add_parser("to-types", help="extract a type model from beliefs")
    to_types.add_argument("file")
    to_types.add_argument("--game")
    to_types.add_argument("--out")
    to_types.add_argument("--json", action="store_true")
    to_types.set_defaults(func=_cmd_model_to_types)

    types_p = sub.add_parser("types", help="epistemic type model analyses")
    types_sub = types_p.add_subparsers(dest="subcommand", required=True)

    tanalyze = types_sub.add_parser("analyze", help="properties, survivors, permissibility")
    tanalyze.add_argument("file")
    tanalyze.add_argument("--eps", help="trembling threshold for probabilistic models")
    tanalyze.add_argument("--json", action="store_true")
    tanalyze.set_defaults(func=_cmd_types_analyze)

    tok = types_sub.add_parser("to-kripke", help="build the ordered model of a lexicographic model")
    tok.add_argument("file")
    tok.add_argument("--out")
    tok.add_argument("--json", action="store_true")
    tok.set_defaults(func=_cmd_types_to_kripke)

    conv = sub.add_parser("converge", help="threshold-family convergence report")
    conv.add_argument("file")
    conv.add_argument("--game")
    conv.add_argument("--schedule", required=True, help="geometric:RATIO,COUNT")
    conv.add_argument("--scheme", choices=convergence.SCHEMES, default="perfect")
    conv.add_argument("--emit-family", help="directory for the built model files")
    conv.add_argument("--json", action="store_true")
    conv.set_defaults(func=_cmd_converge)

    export_p = sub.add_parser("export", help="export a model")
    export_sub = export_p.add_subparsers(dest="subcommand", required=True)
    dotp = export_sub.add_parser("dot", help="Graphviz DOT")
    dotp.add_argument("file")
    dotp.add_argument("--game")
    dotp.add_argument("--out")
    dotp.set_defaults(func=_cmd_export_dot)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except EgkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
