"""Graphviz DOT export for the three model flavors.

Worlds become nodes labeled ``w:(s1,s2)``.  Player 1 edges are solid,
player 2 edges dashed; probabilistic edges carry their weight, ordered
edges the 1-based levels weighting the target, with primary-support edges
drawn bold.
"""

from __future__ import annotations

from .kripke import ProbKripkeModel
from .modelio import format_rational
from .ordered import OrderedKripkeModel

_EDGE_STYLE = ("solid", "dashed")


def _quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _no_labels(i: int, w: str, w1: str) -> list[str]:
    return []


def export_dot(model) -> str:
    if isinstance(model, ProbKripkeModel):
        def labels(i: int, w: str, w1: str) -> list[str]:
            weight = model.p[i][w].get(w1)
            return [] if weight is None else [f"label={_quote(format_rational(weight))}"]
    elif isinstance(model, OrderedKripkeModel):
        def labels(i: int, w: str, w1: str) -> list[str]:
            held = model.lam[i][w]
            levels = [str(k + 1) for k, dist in enumerate(held) if w1 in dist]
            attrs = [f"label={_quote(','.join(levels))}"] if levels else []
            return attrs + ["penwidth=2"] if w1 in held[0] else attrs
    else:
        labels = _no_labels
    lines = ["digraph model {", "  rankdir=LR;"]
    for w in model.worlds:
        s1, s2 = model.profile(w)
        lines.append(f"  {_quote(w)} [label={_quote(f'{w}:({s1},{s2})')}];")
    for i in (0, 1):
        for w in model.worlds:
            for w1 in model.order(model.access[i][w]):
                attrs = " ".join([f"style={_EDGE_STYLE[i]}", *labels(i, w, w1)])
                lines.append(f"  {_quote(w)} -> {_quote(w1)} [{attrs}];")
    lines.append("}")
    return "\n".join(lines) + "\n"
