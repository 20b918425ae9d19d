"""Command-line front end.

Exit codes: 0 on success, 1 when a check found violations (or a convergence
mismatch), 2 on malformed files, invalid arguments, or a standard output
that cannot take the output.  Each command's
``_cmd_*`` builder returns its exit code and one report, the ``--json``
output with rationals as strings; without ``--json`` the command's
``_text_*`` renderer prints that same report, and the environment variable
``EGK_COLOR`` turns on ANSI colors in it.  Only ``main`` picks the mode.

Every command runs in a fresh process, so a builder imports the layers it
runs in its own body: a command loads only what it executes.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import os
import sys
from fractions import Fraction
from functools import partial
from typing import TYPE_CHECKING

from . import modelio
from .errors import EgkError, InputError
from .modelio import format_rational, parse_rational

if TYPE_CHECKING:
    from .convergence import EpsilonSchedule


def _paint(text: str, code: str) -> str:
    if os.environ.get("EGK_COLOR", "").lower() in ("1", "true", "yes", "on"):
        return f"\x1b[{code}m{text}\x1b[0m"
    return text


_red = partial(_paint, code="31")
_green = partial(_paint, code="32")
_bold = partial(_paint, code="1")


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


_MEASURE_KINDS = ("p-negative", "p-sum", "lambda-negative", "lambda-sum")


def _on_measures(path: str, model, run):
    """``run(model)``; if it fails, the first belief that is not a probability, located."""
    try:
        return run(model)
    except InputError:
        from .kripke import validate_beliefs

        for v in validate_beliefs(model):
            if v.kind in _MEASURE_KINDS:
                raise InputError(f"{path}: {v.detail}") from None
        raise


def _members(labels) -> str:
    return " ".join(labels) if labels else "(empty)"


def _save(path: str | None, payload: dict) -> None:
    if path:
        modelio.write_file(path, modelio.dumps(payload))


# ---------------------------------------------------------------------------
# game analyze


def _cmd_game_analyze(args) -> tuple[int, dict]:
    from .dominance import dekel_fudenberg, iesds

    game = modelio.game_from_json(modelio.load_file(args.file), args.file)
    run = dekel_fudenberg if args.procedure == "df" else iesds
    survivors, rounds = run(game)
    return 0, {
        "procedure": args.procedure,
        "survivors": {game.players[i]: list(survivors.sets[i]) for i in (0, 1)},
        "rounds": [
            {"phase": rnd.phase,
             "eliminations": [
                 {"player": game.players[e.player], "strategy": e.strategy,
                  "dominator": {s: format_rational(v) for s, v in e.dominator.weights.items()}}
                 for e in rnd.eliminations]}
            for rnd in rounds
        ],
    }


def _text_game_analyze(args, report) -> None:
    print(_bold(f"procedure: {report['procedure']}"))
    for player, survivors in report["survivors"].items():
        print(f"survivors {player}: {' '.join(survivors)}")
    if report["rounds"]:
        print(f"{'round':<6} {'phase':<7} {'player':<7} {'strategy':<9} dominator")
        for n, rnd in enumerate(report["rounds"], start=1):
            for e in rnd["eliminations"]:
                dominator = " + ".join(f"{v}*{s}" for s, v in e["dominator"].items())
                print(f"{n:<6} {rnd['phase']:<7} {e['player']:<7} "
                      f"{e['strategy']:<9} {dominator}")
    else:
        print("no eliminations")


# ---------------------------------------------------------------------------
# model check


def _cmd_model_check(args) -> tuple[int, dict]:
    from . import kripke

    model = _load_model(args.file, args.game)
    players = model.game.players
    for option, given in (("--eps", args.eps is not None),
                          ("--trembling-reading", args.trembling_reading is not None),
                          ("--show-upper", args.show_upper)):
        if given and not isinstance(model, kripke.ProbKripkeModel):
            raise InputError(f"{option} needs a probabilistic model")
        if given and args.eps is None:
            raise InputError(f"{option} needs --eps")
    violations = []
    advisories = []
    upper = None
    if isinstance(model, kripke.StandardKripkeModel):
        violations += kripke.validate_standard(model)
    elif isinstance(model, kripke.ProbKripkeModel):
        from . import epsilon

        violations += kripke.validate_prob(model)
        violations += epsilon.check_prob_caution(model)
        if args.eps is not None:
            eps = parse_rational(args.eps, "--eps")
            if args.show_upper and 0 < eps < 1:
                # First, so that a threshold the upper view refuses costs no trembling check.
                views = [epsilon.upper_view(model, i, eps) for i in (0, 1)]
                upper = {players[i]: {w: model.order(views[i](w)) for w in model.worlds}
                         for i in (0, 1)}
            try:
                violations += epsilon.check_trembling(
                    model, eps, args.trembling_reading or "belief")
            except InputError:
                # The belief reading needs rationality, which beliefs that are
                # not probabilities leave undefined; those are listed already.
                if not (0 < eps < 1 and any(v.kind in _MEASURE_KINDS for v in violations)):
                    raise
    else:
        from . import ordered

        violations += ordered.validate_ordered(model)
        violations += ordered.check_caution(model)
        violations += ordered.check_structural_conditions(model).violations
        advisories += ordered.check_lambda_constancy(model)
    report = {
        "violations": [
            {"kind": v.kind, "player": None if v.player is None else players[v.player],
             "where": list(v.where), "detail": v.detail}
            for v in violations
        ],
        "advisories": [{"kind": v.kind, "detail": v.detail} for v in advisories],
    }
    if upper is not None:
        report["upper_access"] = upper
    return (1 if violations else 0), report


def _text_model_check(args, report) -> None:
    for v in report["violations"]:
        print(f"{_red('violation')} [{v['kind']}] {v['detail']}")
    for v in report["advisories"]:
        print(f"advisory [{v['kind']}] {v['detail']}")
    if "upper_access" in report:
        print(_bold(f"accessibility above {args.eps}"))
        for player, access in report["upper_access"].items():
            for w, members in access.items():
                print(f"player {player} at {w}: {' '.join(members)}")
    if not report["violations"]:
        print(_green("ok"))


# ---------------------------------------------------------------------------
# model operators / rat / lrat


def _cmd_model_operators(args) -> tuple[int, dict]:
    model = _load_model(args.file, args.game)
    event = modelio.event_from_json(modelio.load_file(args.event), args.event)
    op = args.op
    if op in ("b", "b1", "beps") and not args.player:
        raise InputError(f"operator {op!r} needs --player")
    if op in ("cb", "cb1", "cbeps") and args.player is not None:
        raise InputError(f"operator {op!r} takes no --player")
    if op in ("b", "cb", "b1", "cb1") and args.eps is not None:
        raise InputError(f"operator {op!r} takes no --eps")
    game = model.game
    if op in ("b", "cb"):
        from . import kripke

        result = (kripke.belief(model, _player_index(game, args.player), event) if op == "b"
                  else kripke.common_belief(model, event))
    elif op in ("b1", "cb1"):
        from . import ordered

        if not isinstance(model, ordered.OrderedKripkeModel):
            raise InputError(f"operator {op!r} needs an ordered model")
        result = (ordered.level1_belief(model, _player_index(game, args.player), event)
                  if op == "b1" else ordered.common_level1_belief(model, event))
    else:
        from . import epsilon, kripke

        if not isinstance(model, kripke.ProbKripkeModel):
            raise InputError(f"operator {op!r} needs a probabilistic model")
        if args.eps is None:
            raise InputError(f"operator {op!r} needs --eps")
        eps = parse_rational(args.eps, "--eps")
        result = (epsilon.upper_belief(model, _player_index(game, args.player), eps, event)
                  if op == "beps" else epsilon.upper_common_belief(model, eps, event))
    report = modelio.event_to_json(model.order(result))
    _save(args.event_out, report)
    return 0, report


def _text_model_operators(args, report) -> None:
    print(_members(report["worlds"]))


# Per rationality command: its help, and the complaint at a model of another flavor.
_RATIONALITY = {
    "rat": ("rationality events of a probabilistic model",
            "rationality needs a probabilistic model"),
    "lrat": ("lexicographic rationality of an ordered model",
             "lexicographic rationality needs an ordered model"),
}


def _cmd_model_rationality(args) -> tuple[int, dict]:
    _, complaint = _RATIONALITY[args.subcommand]
    model = _load_model(args.file, args.game)
    if args.subcommand == "rat":
        from .kripke import ProbKripkeModel as flavor, rat as events
    else:
        from .ordered import OrderedKripkeModel as flavor, lrat as events
    if not isinstance(model, flavor):
        raise InputError(complaint)
    per_player, event = _on_measures(args.file, model, events)
    members = model.order(event)
    _save(args.event_out, modelio.event_to_json(members))
    return 0, {
        "per_player": {model.game.players[i]: model.order(per_player[i]) for i in (0, 1)},
        args.subcommand: members,
    }


def _text_rationality(args, report) -> None:
    label = args.subcommand
    for player, worlds in report["per_player"].items():
        print(f"{label}_{player}: {' '.join(worlds)}")
    print(f"{label}: {_members(report[label])}")


# ---------------------------------------------------------------------------
# types


def _cmd_types_analyze(args) -> tuple[int, dict]:
    from . import epistemic

    model = modelio.types_from_json(modelio.load_file(args.file), args.file)
    players = model.game.players
    lex = isinstance(model, epistemic.LexEpistemicModel)
    eps = None
    if lex:
        if args.eps is not None:
            raise InputError("--eps needs a probabilistic type model")
        rationality = epistemic.primary_rationality_property(model)
    else:
        eps = parse_rational(args.eps, "--eps") if args.eps is not None else Fraction(1, 4)
        rationality = epistemic.trembling_property(model, eps)
    props, alive, strategies = epistemic.permissibility(model, rationality)
    return 0, {
        "flavor": "lexicographic" if lex else "probabilistic",
        "properties": {
            p.name: {players[i]: {t: p.holds[i][t] for t in model.types[i]} for i in (0, 1)}
            for p in props
        },
        "common_full_belief": {
            players[i]: [t for t in model.types[i] if t in alive[i]] for i in (0, 1)},
        "optimal": {
            players[i]: {t: sorted(epistemic.optimal_strategies(model, i, t))
                         for t in model.types[i]}
            for i in (0, 1)},
        "strategies": {players[i]: [s for s in model.game.strategies[i] if s in strategies[i]]
                       for i in (0, 1)},
        "notion": "permissible" if lex else f"eps-permissible at {format_rational(eps)}",
    }


def _text_types_analyze(args, report) -> None:
    print(_bold(f"flavor: {report['flavor']}"))
    for player, optimal in report["optimal"].items():
        for t, strategies in optimal.items():
            flags = " ".join(f"{name}={'yes' if holds[player][t] else 'no'}"
                             for name, holds in report["properties"].items())
            print(f"player {player} type {t}: {flags} optimal={{{' '.join(strategies)}}}")
    for player, survivors in report["common_full_belief"].items():
        print(f"common full belief survivors {player}: {' '.join(survivors) or '(none)'}")
    for player, chosen in report["strategies"].items():
        print(f"{report['notion']} {player}: {' '.join(chosen) or '(none)'}")


def _cmd_types_to_kripke(args) -> tuple[int, dict]:
    from . import epistemic

    model = modelio.types_from_json(modelio.load_file(args.file), args.file)
    if not isinstance(model, epistemic.LexEpistemicModel):
        raise InputError("to-kripke expects a lexicographic type model")
    report = modelio.model_to_json(epistemic.kripke_from_lex_types(model))
    _save(args.out, report)
    return 0, report


def _cmd_model_to_types(args) -> tuple[int, dict]:
    from . import epistemic, kripke

    model = _load_model(args.file, args.game)
    if not isinstance(model, kripke.ProbKripkeModel):
        raise InputError("to-types expects a probabilistic model")
    tmodel, world_types = _on_measures(args.file, model, epistemic.types_from_kripke)
    report = modelio.types_to_json(tmodel)
    report["world_types"] = {w: list(world_types[w]) for w in model.worlds}
    _save(args.out, report)
    return 0, report


def _text_document(args, report) -> None:
    """A built model goes to stdout unless ``--out`` took it."""
    if args.out is None:
        sys.stdout.write(modelio.dumps(report))


# ---------------------------------------------------------------------------
# converge


def _parse_schedule(text: str) -> EpsilonSchedule:
    from .convergence import EpsilonSchedule

    if not text.startswith("geometric:"):
        raise InputError(f"unknown schedule {text!r}; expected geometric:RATIO,COUNT")
    body = text[len("geometric:"):]
    parts = body.split(",")
    if len(parts) != 2:
        raise InputError(f"malformed schedule {text!r}; expected geometric:RATIO,COUNT")
    ratio = parse_rational(parts[0], "--schedule ratio")
    # ASCII digits and an optional minus, as in parse_rational: int() alone
    # would also take "1_0", " 3", "+2" and other scripts' digits.
    digits = parts[1].removeprefix("-")
    if not (digits.isascii() and digits.isdigit()):
        raise InputError(f"malformed schedule count {parts[1]!r}")
    try:
        count = int(parts[1])
    except ValueError:  # past sys.get_int_max_str_digits()
        raise InputError(f"malformed schedule count {parts[1]!r}")
    return EpsilonSchedule(ratio, count)


def _cmd_converge(args) -> tuple[int, dict]:
    from . import convergence, ordered

    model = _load_model(args.file, args.game)
    if not isinstance(model, ordered.OrderedKripkeModel):
        raise InputError("converge expects an ordered model")
    result = convergence.verify_convergence(model, _parse_schedule(args.schedule), args.scheme)
    if args.emit_family:
        try:
            os.makedirs(args.emit_family, exist_ok=True)
        except OSError as exc:
            raise InputError(f"{args.emit_family}: {exc.strerror or exc}")
        for row in result.rows:
            member = convergence.build_epsilon_model(model, row.eps, args.scheme)
            _save(os.path.join(args.emit_family, f"model_{row.n:02d}.json"),
                  modelio.model_to_json(member))
    return (0 if result.matches else 1), {
        "rows": [
            {"n": row.n, "eps": format_rational(row.eps),
             "rat": list(row.rat), "upper_cb": list(row.upper_cb)}
            for row in result.rows
        ],
        "tails": [{"after": m, "intersection": list(t)} for m, t in result.tails],
        "stabilization_index": result.stabilization_index,
        "stabilized": list(result.stabilized),
        "cb1_lrat": list(result.cb1_lrat),
        "matches": result.matches,
    }


def _text_converge(args, report) -> None:
    print(f"{'n':<3} {'eps':<10} {'rat':<18} upper-cb")
    for row in report["rows"]:
        print(f"{row['n']:<3} {row['eps']:<10} "
              f"{' '.join(row['rat']):<18} {' '.join(row['upper_cb'])}")
    for tail in report["tails"]:
        print(f"tail after {tail['after']}: {_members(tail['intersection'])}")
    print(f"stabilization index: {report['stabilization_index']}")
    print(f"stabilized: {_members(report['stabilized'])}")
    print(f"common primary belief in lexicographic rationality: "
          f"{_members(report['cb1_lrat'])}")
    print(_green("match") if report["matches"] else _red("mismatch"))


# ---------------------------------------------------------------------------
# export dot


def _cmd_export_dot(args) -> tuple[int, str]:
    from . import dot

    text = dot.export_dot(_load_model(args.file, args.game))
    if args.out:
        modelio.write_file(args.out, text)
    return 0, text


def _text_export_dot(args, text: str) -> None:
    if not args.out:
        sys.stdout.write(text)


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
    analyze.set_defaults(build=_cmd_game_analyze, text=_text_game_analyze)

    model_p = sub.add_parser("model", help="Kripke model checks and operators")
    model_sub = model_p.add_subparsers(dest="subcommand", required=True)

    check = model_sub.add_parser("check", help="validate a model file")
    check.add_argument("file")
    check.add_argument("--game", help="game file overriding the embedded game")
    check.add_argument("--eps", help="also check the trembling bound at this threshold")
    # epsilon.TREMBLING_READINGS, spelled out so that parsing imports no model layer.
    # No default, so that an explicit reading without --eps can be refused; None is belief.
    check.add_argument("--trembling-reading", choices=("belief", "pointwise"))
    check.add_argument("--show-upper", action="store_true",
                       help="with --eps, print accessibility above the threshold")
    check.set_defaults(build=_cmd_model_check, text=_text_model_check)

    operators = model_sub.add_parser("operators", help="apply a belief operator to an event")
    operators.add_argument("file")
    operators.add_argument("--game")
    operators.add_argument("--op", required=True,
                           choices=("b", "cb", "b1", "cb1", "beps", "cbeps"))
    operators.add_argument("--player")
    operators.add_argument("--eps")
    operators.add_argument("--event", required=True, help="event JSON file")
    operators.add_argument("--event-out", help="write the resulting event here")
    operators.set_defaults(build=_cmd_model_operators, text=_text_model_operators)

    rationality = [model_sub.add_parser(name, help=spec[0]) for name, spec in _RATIONALITY.items()]
    for leaf in rationality:
        leaf.add_argument("file")
        leaf.add_argument("--game")
        leaf.add_argument("--event-out")
        leaf.set_defaults(build=_cmd_model_rationality, text=_text_rationality)

    to_types = model_sub.add_parser("to-types", help="extract a type model from beliefs")
    to_types.add_argument("file")
    to_types.add_argument("--game")
    to_types.add_argument("--out")
    to_types.set_defaults(build=_cmd_model_to_types, text=_text_document)

    types_p = sub.add_parser("types", help="epistemic type model analyses")
    types_sub = types_p.add_subparsers(dest="subcommand", required=True)

    tanalyze = types_sub.add_parser("analyze", help="properties, survivors, permissibility")
    tanalyze.add_argument("file")
    tanalyze.add_argument("--eps", help="trembling threshold for probabilistic models")
    tanalyze.set_defaults(build=_cmd_types_analyze, text=_text_types_analyze)

    tok = types_sub.add_parser("to-kripke", help="build the ordered model of a lexicographic model")
    tok.add_argument("file")
    tok.add_argument("--out")
    tok.set_defaults(build=_cmd_types_to_kripke, text=_text_document)

    conv = sub.add_parser("converge", help="threshold-family convergence report")
    conv.add_argument("file")
    conv.add_argument("--game")
    conv.add_argument("--schedule", required=True, help="geometric:RATIO,COUNT")
    # convergence.SCHEMES, spelled out for the same reason.
    conv.add_argument("--scheme", choices=("perfect", "proper"), default="perfect")
    conv.add_argument("--emit-family", help="directory for the built model files")
    conv.set_defaults(build=_cmd_converge, text=_text_converge)

    export_p = sub.add_parser("export", help="export a model")
    export_sub = export_p.add_subparsers(dest="subcommand", required=True)
    dotp = export_sub.add_parser("dot", help="Graphviz DOT")
    dotp.add_argument("file")
    dotp.add_argument("--game")
    dotp.add_argument("--out")
    dotp.set_defaults(build=_cmd_export_dot, text=_text_export_dot, json=False)

    for leaf in (analyze, check, operators, *rationality, to_types, tanalyze, tok, conv):
        leaf.add_argument("--json", action="store_true")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code, report = args.build(args)
        if args.json:
            out = modelio.dumps(report)
        else:
            # Rendered whole first, so a stdout that cannot encode it gets nothing.
            with contextlib.redirect_stdout(io.StringIO()) as text:
                args.text(args, report)
            out = text.getvalue()
    except EgkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        sys.stdout.write(out)
        sys.stdout.flush()
    except UnicodeEncodeError:
        print(f"error: standard output's encoding {sys.stdout.encoding!r} cannot write this "
              f"output; use --json, or --out where the command has it", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The null device takes what is still buffered, so the interpreter's last flush is silent.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: standard output was closed before the output was written", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
