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


def export_dot(model) -> str:
    lines = ["digraph model {", "  rankdir=LR;"]
    for w in model.worlds:
        s1, s2 = model.profile(w)
        lines.append(f"  {_quote(w)} [label={_quote(f'{w}:({s1},{s2})')}];")
    for i in (0, 1):
        for w in model.worlds:
            for w1 in model.worlds:
                if w1 not in model.access[i][w]:
                    continue
                attrs = [f"style={_EDGE_STYLE[i]}"]
                if isinstance(model, ProbKripkeModel):
                    weight = model.p[i][w].get(w1)
                    if weight is not None:
                        attrs.append(f"label={_quote(format_rational(weight))}")
                elif isinstance(model, OrderedKripkeModel):
                    levels = [str(k + 1) for k, dist in enumerate(model.lam[i][w]) if w1 in dist]
                    if levels:
                        attrs.append(f"label={_quote(','.join(levels))}")
                    if w1 in model.lam[i][w][0]:
                        attrs.append("penwidth=2")
                lines.append(f"  {_quote(w)} -> {_quote(w1)} [{' '.join(attrs)}];")
    lines.append("}")
    return "\n".join(lines) + "\n"
