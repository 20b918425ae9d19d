"""JSON formats for games, Kripke models, type models, and events.

Rationals are strings, either an integer like ``"2"`` or ``"p/q"`` in
lowest terms; nothing is ever serialized as a float.  Model and type files
embed their game under the ``"game"`` key so a single file is
self-contained.  All dumps preserve file order, so identical inputs produce
byte-identical output.

The worlds of one accessibility class share an access set and usually a
belief, so the model functions read, build and write each distinct one
once: the loader parses each distinct raw access list and belief once, the
payload shares one list or object between the worlds that hold it, and
:func:`dumps` encodes each shared object once per depth.

The model and type layers are imported by the functions that build or read
them, so loading a game pulls in none of them.
"""

from __future__ import annotations

import json
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import TYPE_CHECKING, Any, Mapping

from .errors import FormatError, InputError
from .games import Game, other

if TYPE_CHECKING:
    from .epistemic import LexEpistemicModel, ProbEpistemicModel
    from .kripke import ProbKripkeModel, StandardKripkeModel
    from .ordered import OrderedKripkeModel

    KripkeModel = StandardKripkeModel | ProbKripkeModel | OrderedKripkeModel
    TypeModel = LexEpistemicModel | ProbEpistemicModel


def parse_rational(text: Any, where: str) -> Fraction:
    """A JSON integer (not a boolean), or a string ``"n"`` or ``"n/d"`` of ASCII
    digits with an optional minus on ``n``, as a ``Fraction``."""
    if isinstance(text, int) and not isinstance(text, bool):
        return Fraction(text)
    if not isinstance(text, str):
        raise FormatError(f"{where}: expected a rational string, got {text!r}")
    # ASCII digits only: int() alone would also take "1_000", " 1", "+1" and other scripts.
    parts = text.removeprefix("-").split("/")
    if len(parts) > 2 or not all(part.isascii() and part.isdigit() for part in parts):
        raise FormatError(f"{where}: malformed rational {text!r}")
    num, den = text.split("/") if len(parts) == 2 else (text, "1")
    try:
        num, den = int(num), int(den)
    except ValueError:  # past sys.get_int_max_str_digits(); Decimal has no limit
        from decimal import Decimal

        num, den = int(Decimal(num)), int(Decimal(den))
    if den == 0:
        raise FormatError(f"{where}: zero denominator in {text!r}")
    return Fraction(num, den)


def format_rational(value: Fraction) -> str:
    if type(value) is not Fraction:
        value = Fraction(value)
    num, den = value.numerator, value.denominator
    try:
        return str(num) if den == 1 else f"{num}/{den}"
    except ValueError:  # past sys.get_int_max_str_digits(); Decimal has no limit
        from decimal import Decimal

        return str(Decimal(num)) if den == 1 else f"{Decimal(num)}/{Decimal(den)}"


def _expect(data: Mapping, key: str, where: str):
    if key not in data:
        raise FormatError(f"{where}: missing key {key!r}")
    return data[key]


def _only(data: Mapping, where: str, keys: tuple[str, ...]) -> None:
    """Refuse a key of the object ``data`` that is not one of ``keys``, at its node."""
    for key in data:
        if key not in keys:
            raise FormatError(f"{where}.{key}: unknown key {key!r}")


def _list(value: Any, where: str, what: str) -> list:
    """``value`` itself, which must be a JSON list (a string is not one)."""
    if not isinstance(value, list):
        raise FormatError(f"{where}: expected a list of {what}, got {value!r}")
    return value


def _labels(value: Any, where: str, what: str) -> list:
    """``value`` itself, which must be a JSON list of string labels."""
    for k, label in enumerate(_list(value, where, what)):
        if not isinstance(label, str):
            raise FormatError(f"{where}[{k}]: expected a string label, got {label!r}")
    return value


def _map(value: Any, where: str, keys: str) -> Mapping:
    """``value`` itself, which must be a JSON object (keyed by ``keys``)."""
    if not isinstance(value, dict):
        raise FormatError(f"{where}: expected an object keyed by {keys}, got {value!r}")
    return value


def _construct(where: str, cls, *args):
    """``cls(*args)``, with the constructor's complaint located at ``where``."""
    try:
        return cls(*args)
    except InputError as exc:
        raise FormatError(f"{where}: {exc}") from None


def game_from_json(data: Mapping, where: str = "game") -> Game:
    _map(data, where, "'players', 'strategies' and 'payoffs'")
    _only(data, where, ("players", "strategies", "payoffs"))
    players = _labels(_expect(data, "players", where), f"{where}.players", "player names")
    strategies = _list(_expect(data, "strategies", where), f"{where}.strategies",
                       "strategy lists")
    payoffs_raw = _map(_expect(data, "payoffs", where), f"{where}.payoffs", "cell")
    if len(players) != 2 or len(strategies) != 2:
        raise FormatError(f"{where}: exactly two players are supported")
    if players[0] == players[1]:
        raise FormatError(f"{where}.players: duplicate player name {players[0]!r}")
    strategies = tuple(
        tuple(_labels(strategies[i], f"{where}.strategies[{i}]", "strategy labels"))
        for i in (0, 1))
    # A cell key joins the profile's labels with a comma, so labels that
    # contain commas can make two profiles read one cell.
    profiles: dict[str, tuple[str, str]] = {}
    for s1 in strategies[0]:
        for s2 in strategies[1]:
            key = f"{s1},{s2}"
            if key in profiles:
                raise FormatError(
                    f"{where}.payoffs: cell key {key!r} names two profiles, "
                    f"{profiles[key]!r} and {(s1, s2)!r}")
            profiles[key] = (s1, s2)
    payoffs = {}
    for key, profile in profiles.items():
        if key not in payoffs_raw:
            raise FormatError(f"{where}.payoffs: missing cell {key!r}")
        cell = _list(payoffs_raw[key], f"{where}.payoffs.{key}", "two payoffs")
        if len(cell) != 2:
            raise FormatError(f"{where}.payoffs.{key}: expected two payoffs")
        payoffs[profile] = (
            parse_rational(cell[0], f"{where}.payoffs.{key}[0]"),
            parse_rational(cell[1], f"{where}.payoffs.{key}[1]"),
        )
    extra = set(payoffs_raw) - set(profiles)
    if extra:
        raise FormatError(f"{where}.payoffs: unknown cell {sorted(extra)[0]!r}")
    return _construct(where, Game, (players[0], players[1]), strategies, payoffs)


def game_to_json(game: Game) -> dict:
    return {
        "players": list(game.players),
        "strategies": [list(game.strategies[0]), list(game.strategies[1])],
        "payoffs": {
            f"{s1},{s2}": [format_rational(game.payoffs[(s1, s2)][0]),
                           format_rational(game.payoffs[(s1, s2)][1])]
            for s1 in game.strategies[0] for s2 in game.strategies[1]
        },
    }


def _player_maps(data: Mapping, key: str, game: Game, where: str, keys: str = "world"):
    raw = _map(_expect(data, key, where), f"{where}.{key}", "player")
    out = []
    for i in (0, 1):
        name = game.players[i]
        if name not in raw:
            raise FormatError(f"{where}.{key}: missing player {name!r}")
        out.append(_map(raw[name], f"{where}.{key}.{name}", keys))
    for name in raw:
        if name not in game.players:
            raise FormatError(f"{where}.{key}.{name}: unknown player {name!r}")
    return out


def _world_maps(data: Mapping, key: str, game: Game, known: frozenset, where: str):
    """:func:`_player_maps` for a model map keyed by world.

    An entry whose world is not under ``worlds`` is an error, located at
    the entry, rather than an entry no reader looks up.
    """
    maps = _player_maps(data, key, game, where)
    for name, raw in zip(game.players, maps):
        if not raw.keys() <= known:
            w = next(w for w in raw if w not in known)
            raise FormatError(f"{where}.{key}.{name}.{w}: world {w!r} is not listed under 'worlds'")
    return maps


def _unknown(spot: str, what: str, labels, known: frozenset) -> FormatError:
    """The error for ``labels`` that name worlds outside ``known``, located at ``spot``."""
    return FormatError(f"{spot}: {what} unknown worlds {sorted(set(labels) - known)}")


def _read_once(cache: dict, read, raw: Any, where: str):
    """``read(raw, where)``, kept in ``cache`` for every later raw value spelt as ``raw``.

    The key is ``repr(raw)``, which keeps item order and tells ``1``,
    ``1.0``, ``true`` and ``"1"`` apart, so only a value written the same
    way finds a kept read.  Only a read that succeeds is kept, so an error
    is raised at the first place that holds the bad value.
    """
    key = repr(raw)
    value = cache.get(key)
    if value is None:
        value = cache[key] = read(raw, where)
    return value


def _by_value(kept: dict, levels: tuple, make):
    """``make()`` once per distinct value of ``levels``, kept in ``kept``.

    Equal beliefs list the same worlds in the same order, so they are told
    apart by their supports first and their weights second, with no
    ``Fraction`` hashed.
    """
    same = kept.setdefault(tuple(map(tuple, levels)), [])
    for held, value in same:
        if held == levels:
            return value
    value = make()
    same.append((levels, value))
    return value


def _access_set(raw: Any, where: str) -> frozenset:
    return frozenset(_labels(raw, where, "world labels"))


def _dist(raw: Any, where: str) -> dict:
    """A JSON object of rational weights read as ``{world: Fraction}``."""
    return {t: parse_rational(v, f"{where}.{t}") for t, v in _map(raw, where, "world").items()}


def _levels(raw: Any, where: str) -> tuple:
    """A JSON list of belief levels read as a tuple of :func:`_dist` maps."""
    return tuple(_dist(level, f"{where}[{k}]")
                 for k, level in enumerate(_list(raw, where, "belief levels")))


def model_from_json(data: Mapping, game: Game | None = None, where: str = "model") -> KripkeModel:
    """Load a standard, probabilistic, or ordered model, by the keys present.

    Each distinct raw access list and belief is read once (see
    :func:`_read_once`), and every world that holds it gets the one
    frozenset or belief object, so the model's readers evaluate it once.
    Errors are raised at the first offending world in file order; an entry
    for a world not under ``worlds``, and an access list or belief that
    names one, are errors located at their node.
    """
    from .kripke import ProbKripkeModel, StandardKripkeModel

    _only(data, where, ("game", "worlds", "access", "sigma", "p", "lambda"))
    if game is None:
        game = game_from_json(_expect(data, "game", where), f"{where}.game")
    worlds = tuple(_labels(_expect(data, "worlds", where), f"{where}.worlds", "world labels"))
    known = frozenset(worlds)
    access_raw = _world_maps(data, "access", game, known, where)
    sigma_raw = _world_maps(data, "sigma", game, known, where)
    sets: dict[str, frozenset] = {}
    access = ({}, {})
    for i in (0, 1):
        name = game.players[i]
        for w in worlds:
            spot = f"{where}.access.{name}.{w}"
            targets = access[i][w] = _read_once(sets, _access_set, access_raw[i].get(w, []), spot)
            if not targets <= known:
                raise _unknown(spot, f"player {name}: accessibility from {w!r} points at",
                               targets, known)
    sigma = ({}, {})
    for i in (0, 1):
        name = game.players[i]
        for w in worlds:
            if w not in sigma_raw[i]:
                raise FormatError(f"{where}.sigma: missing world {w!r} for player {name!r}")
            s = sigma_raw[i][w]
            if s not in game.strategies[i]:
                raise FormatError(
                    f"{where}.sigma.{name}.{w}: unknown strategy {s!r} for player {name!r}")
            sigma[i][w] = s
    base = _construct(where, StandardKripkeModel, game, worlds, access, sigma)
    if "p" in data and "lambda" in data:
        raise FormatError(f"{where}: both 'p' and 'lambda' present; split the file")
    parsed: dict[str, Any] = {}
    if "p" in data:
        p_raw = _world_maps(data, "p", game, known, where)
        p = ({}, {})
        for i in (0, 1):
            name = game.players[i]
            for w in worlds:
                spot = f"{where}.p.{name}.{w}"
                dist = p[i][w] = _read_once(parsed, _dist, p_raw[i].get(w, {}), spot)
                if not dist.keys() <= known:
                    raise _unknown(spot, f"player {name}: belief at {w!r} weights", dist, known)
        return _construct(where, ProbKripkeModel, base, p)
    if "lambda" in data:
        from .ordered import OrderedKripkeModel

        lam_raw = _world_maps(data, "lambda", game, known, where)
        lam = ({}, {})
        for i in (0, 1):
            name = game.players[i]
            for w in worlds:
                if w not in lam_raw[i]:
                    raise FormatError(f"{where}.lambda: missing world {w!r} for player {name!r}")
                spot = f"{where}.lambda.{name}.{w}"
                levels = lam[i][w] = _read_once(parsed, _levels, lam_raw[i][w], spot)
                for k, level in enumerate(levels):
                    if not level.keys() <= known:
                        what = f"player {name}: level belief at {w!r} weights"
                        raise _unknown(f"{spot}[{k}]", what, level, known)
        return _construct(where, OrderedKripkeModel, base, lam)
    return base


def model_to_json(model: KripkeModel) -> dict:
    """``model`` as a JSON payload, worlds and belief items in model order.

    Worlds with equal access sets share one access list, and worlds with
    equal beliefs (the same items in the same order) share one formatted
    belief, so each is built once and :func:`dumps` writes each once.
    """
    from .kripke import FramedModel, ProbKripkeModel

    game, worlds, access = model.game, model.worlds, model.access
    lists: dict[frozenset, list] = {}
    for i in (0, 1):
        for targets in access[i].values():
            if targets not in lists:
                lists[targets] = [t for t in worlds if t in targets]
    out: dict = {
        "game": game_to_json(game),
        "worlds": list(worlds),
        "access": {
            game.players[i]: {w: lists[access[i][w]] for w in worlds} for i in (0, 1)
        },
        "sigma": {
            game.players[i]: {w: model.sigma[i][w] for w in worlds} for i in (0, 1)
        },
    }
    if isinstance(model, FramedModel):
        single = isinstance(model, ProbKripkeModel)
        written: dict[tuple, list] = {}

        def write(levels: tuple) -> Any:
            text = [{t: format_rational(v) for t, v in level.items()} for level in levels]
            return text[0] if single else text

        beliefs: dict = {}
        for i in (0, 1):
            per = {}
            for w in worlds:
                levels = model.levels(i, w)
                per[w] = _by_value(written, levels, lambda: write(levels))
            beliefs[game.players[i]] = per
        out[model.KIND] = beliefs
    return out


def _parse_pair(key: str, strategies, types, where: str, error=FormatError) -> tuple[str, str]:
    """``key`` read as ``strategy,type``: split at its only comma, or else at the
    one comma between one of ``strategies`` and one of ``types``."""
    parts = key.split(",")
    pairs = [(",".join(parts[:k]), ",".join(parts[k:])) for k in range(1, len(parts))]
    if len(pairs) > 1:
        pairs = [(s, t) for s, t in pairs if s in strategies and t in types]
    if not pairs:
        raise error(f"{where}: expected 'strategy,type', got {key!r}")
    if len(pairs) > 1:
        raise error(f"{where}: key {key!r} splits into more than one 'strategy,type' pair")
    return pairs[0]


def types_from_json(data: Mapping, where: str = "types") -> TypeModel:
    """Load a type model; a belief given as a list of levels is lexicographic."""
    from .epistemic import LexEpistemicModel, ProbEpistemicModel

    # "world_types" is the world-to-types map that `model to-types` adds; no
    # reader needs it, so a written file reads back.
    _only(data, where, ("game", "types", "beliefs", "world_types"))
    game = game_from_json(_expect(data, "game", where), f"{where}.game")
    types_raw = _list(_expect(data, "types", where), f"{where}.types", "type lists")
    if len(types_raw) != 2:
        raise FormatError(f"{where}.types: expected two type lists")
    types = tuple(
        tuple(_labels(types_raw[i], f"{where}.types[{i}]", "type labels")) for i in (0, 1))
    beliefs_raw = _player_maps(data, "beliefs", game, where, "type")
    for i, name in enumerate(game.players):
        for t in beliefs_raw[i]:
            if t not in types[i]:
                raise FormatError(
                    f"{where}.beliefs.{name}.{t}: type {t!r} is not listed under 'types'")
    lex = None
    parsed = []
    for i in (0, 1):
        j = other(i)
        per = {}
        for t in types[i]:
            if t not in beliefs_raw[i]:
                raise FormatError(f"{where}.beliefs: missing type {t!r}")
            entry = beliefs_raw[i][t]
            entry_is_lex = isinstance(entry, list)
            if lex is None:
                lex = entry_is_lex
            elif lex != entry_is_lex:
                raise FormatError(f"{where}.beliefs: mixing single and level-list beliefs")
            node = f"{where}.beliefs.{game.players[i]}.{t}"
            # A lexicographic belief's levels sit at list indices; a single belief is the node.
            located = ([(f"{node}[{k}]", level) for k, level in enumerate(entry)]
                       if entry_is_lex else [(node, entry)])
            fixed = []
            for spot, level in located:
                fixed.append({
                    _parse_pair(pair, game.strategies[j], types[j], spot):
                        parse_rational(v, f"{spot}.{pair}")
                    for pair, v in _map(level, spot, "'strategy,type' pair").items()})
            per[t] = tuple(fixed) if entry_is_lex else fixed[0]
        parsed.append(per)
    flavor = LexEpistemicModel if lex else ProbEpistemicModel
    return _construct(where, flavor, game, types, (parsed[0], parsed[1]))


def types_to_json(model: TypeModel) -> dict:
    from .epistemic import LexEpistemicModel

    game = model.game
    lex = isinstance(model, LexEpistemicModel)
    beliefs: dict = {}
    for i in (0, 1):
        j = other(i)
        per = {}
        for t in model.types[i]:
            levels = [{f"{s},{tj}": format_rational(v) for (s, tj), v in level.items()}
                      for level in model.levels(i, t)]
            for key in (written for level in levels for written in level):
                _parse_pair(key, game.strategies[j], model.types[j], f"type {t!r}", InputError)
            per[t] = levels if lex else levels[0]
        beliefs[game.players[i]] = per
    return {
        "game": game_to_json(game),
        "types": [list(model.types[0]), list(model.types[1])],
        "beliefs": beliefs,
    }


def event_from_json(data: Mapping, where: str = "event") -> tuple[str, ...]:
    _only(data, where, ("worlds",))
    return tuple(_labels(_expect(data, "worlds", where), f"{where}.worlds", "world labels"))


def event_to_json(worlds) -> dict:
    return {"worlds": list(worlds)}


def dumps(payload: Any) -> str:
    """``json.dumps(payload, indent=2) + "\\n"``, byte for byte, for string keys.

    Each list or dict object is encoded once per depth, and its text is
    reused wherever the object appears again at that depth; a model's
    payload shares access lists and beliefs between worlds.
    """
    memo: dict[tuple[int, int], str] = {}

    def encode(value: Any, depth: int) -> str:
        if isinstance(value, str):
            return encode_basestring_ascii(value)
        if not isinstance(value, (list, tuple, dict)):
            return json.dumps(value)
        text = memo.get((id(value), depth))
        if text is None:
            step = "\n" + "  " * (depth + 1)
            if isinstance(value, dict):
                parts = [f"{encode_basestring_ascii(k)}: {encode(v, depth + 1)}"
                         for k, v in value.items()]
                ends = "{}"
            else:
                parts = [encode(v, depth + 1) for v in value]
                ends = "[]"
            inner = step + ("," + step).join(parts) + step[:-2] if parts else ""
            text = memo[(id(value), depth)] = ends[0] + inner + ends[1]
        return text

    return encode(payload, 0) + "\n"


_JSON_KINDS = {list: "an array", str: "a string", bool: "a boolean", int: "a number",
               float: "a number", type(None): "null"}


def _unique_keys(pairs: list) -> dict:
    """A JSON object's ``(key, value)`` pairs as a dict; a repeated key is a ``ValueError``."""
    data = dict(pairs)
    if len(data) < len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise ValueError(f"duplicate key {key!r}")
            seen.add(key)
    return data


def load_file(path: str) -> dict:
    """The JSON object in the UTF-8 file ``path``; every file egk reads is one.

    A key repeated within one object is an error: ``json`` alone keeps its
    last value.
    """
    try:
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle, object_pairs_hook=_unique_keys)
    except FileNotFoundError:
        raise FormatError(f"{path}: no such file")
    except OSError as exc:
        raise FormatError(f"{path}: {exc.strerror or exc}")
    except ValueError as exc:  # bad syntax or bytes, a repeated key, an int past the digit limit
        raise FormatError(f"{path}: invalid JSON ({exc})")
    except RecursionError:
        raise FormatError(f"{path}: invalid JSON (nested too deeply)")
    if not isinstance(data, dict):
        raise FormatError(f"{path}: expected a JSON object, got {_JSON_KINDS[type(data)]}")
    return data


def write_file(path: str, text: str) -> None:
    """Write ``text`` to ``path`` as UTF-8; an unwritable path is an ``InputError``."""
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise InputError(f"{path}: {exc.strerror or exc}")
