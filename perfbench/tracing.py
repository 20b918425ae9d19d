"""Spans around egk's public functions, recorded from outside the package.

``Tracer.install`` replaces each target function under every name an egk
module binds it to (``egk.dominance.maximize``, ``egk.convergence.rat``,
``egk.cli.iesds``, ...), so calls are caught at the name the caller
resolves.  Spans stay in memory as tuples and are written out once, at the
end of a run.  ``layer_metrics`` turns one pass's spans into the per-layer
metrics named in BENCHMARK.json.
"""

from __future__ import annotations

import json
import os
import sys
import time
from collections import Counter
from statistics import median

# span name -> (module, function); "load"/"dump" group modelio's JSON functions.
SPANS = {
    "lp.maximize": ("egk.lp", "maximize"),
    "dominance.strictly_dominated": ("egk.dominance", "strictly_dominated"),
    "dominance.weakly_dominated": ("egk.dominance", "weakly_dominated"),
    "dominance.justifying_belief": ("egk.dominance", "justifying_belief"),
    "dominance.dekel_fudenberg": ("egk.dominance", "dekel_fudenberg"),
    "dominance.iesds": ("egk.dominance", "iesds"),
    "kripke.rat": ("egk.kripke", "rat"),
    "kripke.validate_prob": ("egk.kripke", "validate_prob"),
    "ordered.lrat": ("egk.ordered", "lrat"),
    "ordered.validate_ordered": ("egk.ordered", "validate_ordered"),
    "ordered.check_caution": ("egk.ordered", "check_caution"),
    "ordered.check_structural_conditions": ("egk.ordered", "check_structural_conditions"),
    "ordered.common_level1_belief": ("egk.ordered", "common_level1_belief"),
    "convergence.verify_convergence": ("egk.convergence", "verify_convergence"),
    "convergence.build_epsilon_model": ("egk.convergence", "build_epsilon_model"),
    "epsilon.upper_common_belief": ("egk.epsilon", "upper_common_belief"),
    "epistemic.types_from_kripke": ("egk.epistemic", "types_from_kripke"),
    "epistemic.eps_permissible": ("egk.epistemic", "eps_permissible"),
    "modelio.load.load_file": ("egk.modelio", "load_file"),
    "modelio.load.game_from_json": ("egk.modelio", "game_from_json"),
    "modelio.load.model_from_json": ("egk.modelio", "model_from_json"),
    "modelio.load.types_from_json": ("egk.modelio", "types_from_json"),
    "modelio.load.event_from_json": ("egk.modelio", "event_from_json"),
    "modelio.dump.dumps": ("egk.modelio", "dumps"),
    "modelio.dump.game_to_json": ("egk.modelio", "game_to_json"),
    "modelio.dump.model_to_json": ("egk.modelio", "model_to_json"),
    "modelio.dump.types_to_json": ("egk.modelio", "types_to_json"),
    "modelio.dump.event_to_json": ("egk.modelio", "event_to_json"),
}

# Called tens of thousands of times per pass: counted, not spanned.
COUNTED = {"games.expected_utility": ("egk.games", "expected_utility")}


def _lp_cells(args, kwargs, result):
    c = args[0] if args else kwargs["c"]
    rows = sum(len(args[k] if len(args) > k else kwargs.get(key, ()))
               for k, key in ((1, "a_ub"), (3, "a_eq")))
    return rows * len(c)


def _dominator_found(args, kwargs, result):
    return int(result is not None)


def _rounds(args, kwargs, result):
    return len(result[1])


def _bytes_dumped(args, kwargs, result):
    return len(result.encode())


def _bytes_loaded(args, kwargs, result):
    return os.path.getsize(args[0])


# Per-span-name value recorded with the span (LP size, test outcome, ...).
NOTES = {
    "lp.maximize": _lp_cells,
    "dominance.strictly_dominated": _dominator_found,
    "dominance.weakly_dominated": _dominator_found,
    "dominance.dekel_fudenberg": _rounds,
    "dominance.iesds": _rounds,
    "modelio.dump.dumps": _bytes_dumped,
    "modelio.load.load_file": _bytes_loaded,
}


class Tracer:
    """Collects spans ``(id, parent, item, name, start, end, note)`` and counts."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._item = 0
        self._patched: list[tuple] = []

    def _next_id(self) -> int:
        return len(self.spans) + 1

    def _span_wrapper(self, name, fn):
        note = NOTES.get(name)

        def wrapper(*args, **kwargs):
            sid = self._next_id()
            self.spans.append(None)          # reserve the id; filled on exit
            parent = self._stack[-1] if self._stack else 0
            self._stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
            value = note(args, kwargs, result) if note else None
            self.spans[sid - 1] = (sid, parent, self._item, name, start, end, value)
            return result

        return wrapper

    def _count_wrapper(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Wrap every target under every egk module attribute bound to it."""
        modules = [m for k, m in list(sys.modules.items()) if k == "egk" or k.startswith("egk.")]
        for table, make in ((SPANS, self._span_wrapper), (COUNTED, self._count_wrapper)):
            for name, (module, attr) in table.items():
                if module not in sys.modules:
                    continue
                fn = getattr(sys.modules[module], attr)
                wrapper = make(name, fn)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is fn:
                            setattr(mod, key, wrapper)
                            self._patched.append((mod, key, fn))

    def uninstall(self) -> None:
        for mod, key, fn in reversed(self._patched):
            setattr(mod, key, fn)
        self._patched.clear()

    def item(self, name: str, run):
        """Run one benchmark item under a root span; returns its result."""
        sid = self._next_id()
        self.spans.append(None)
        self._item = sid
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            result = run()
        finally:
            end = time.perf_counter()
            self._stack.pop()
        self.spans[sid - 1] = (sid, 0, sid, "item." + name, start, end, None)
        return result

    def adopt(self, spans: list, counts: dict) -> None:
        """Attach spans recorded by a child process under the current item."""
        offset = len(self.spans)
        parent = self._item
        for sid, par, _, name, start, end, value in spans:
            self.spans.append((sid + offset, par + offset if par else parent,
                               self._item, name, start, end, value))
        self.counts.update(counts)

    def dump(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump({"spans": self.spans, "counts": self.counts}, handle)


def layer_metrics(spans: list, counts: dict) -> dict[str, float]:
    """Per-layer metrics of one pass: counts, summed self time, and notes."""
    child_time: Counter = Counter()
    for _, parent, _, _, start, end, _ in spans:
        if parent:
            child_time[parent] += end - start
    calls: Counter = Counter()
    self_s: Counter = Counter()
    notes: Counter = Counter()
    for sid, _, _, name, start, end, value in spans:
        calls[name] += 1
        self_s[name] += end - start - child_time[sid]
        if value is not None:
            notes[name] += value

    def group(prefix):
        return sum(v for k, v in self_s.items() if k.startswith(prefix))

    tests = calls["dominance.strictly_dominated"] + calls["dominance.weakly_dominated"]
    hits = notes["dominance.strictly_dominated"] + notes["dominance.weakly_dominated"]
    out = {
        "lp.maximize.calls": calls["lp.maximize"],
        "lp.maximize.self_s": self_s["lp.maximize"],
        "lp.maximize.cells": notes["lp.maximize"],
        "dominance.tests": tests,
        "dominance.eliminations": hits,
        "dominance.hit_ratio": hits / tests if tests else 0.0,
        "dominance.rounds": notes["dominance.dekel_fudenberg"] + notes["dominance.iesds"],
        "dominance.self_s": group("dominance."),
        "games.expected_utility.calls": counts.get("games.expected_utility", 0),
        "convergence.build_epsilon_model.calls": calls["convergence.build_epsilon_model"],
        "ordered.check_caution.calls": calls["ordered.check_caution"],
        "ordered.check_structural_conditions.calls": calls["ordered.check_structural_conditions"],
        "modelio.load.self_s": group("modelio.load."),
        "modelio.dump.self_s": group("modelio.dump."),
        "modelio.bytes": notes["modelio.dump.dumps"] + notes["modelio.load.load_file"],
    }
    for name in ("kripke.rat", "ordered.lrat", "convergence.verify_convergence",
                 "convergence.build_epsilon_model", "kripke.validate_prob",
                 "ordered.validate_ordered", "epsilon.upper_common_belief",
                 "ordered.common_level1_belief", "epistemic.types_from_kripke",
                 "epistemic.eps_permissible"):
        out[f"{name}.self_s"] = self_s[name]
    return out


def median_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    return {k: median(p[k] for p in per_pass) for k in per_pass[0]}
