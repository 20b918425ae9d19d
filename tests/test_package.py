"""The package keeps only what egk runs.

Every public top-level function and class in ``src/egk`` must have a user
outside the tests: code in ``src/egk`` other than its own definition, code
in the benchmark ``perfbench/``, or a ``SPANS``/``COUNTED`` target of
``perfbench/tracing.py``.  A reference is an import, a name or an attribute
as ``ast`` reads them, so a docstring is none.  Checks that only tests
assert belong in ``tests/``.  ``perfbench/`` is read and left as it is.
"""

import ast
from pathlib import Path

from test_trace_targets import _load_tracing

ROOT = Path(__file__).resolve().parent.parent

# Constructive certificates of survivors, kept for the planned certify command
# (ROADMAP item 3), which will call them; until then only tests do.
WITNESSES = {
    "df_witness_types": "a type model whose types rationalize every DF survivor",
    "iesds_witness_model": "a model putting an IESDS survivor under common belief in rationality",
    "check_iesds_inclusion": "whether common belief in rationality plays only IESDS survivors",
    "kripke_from_prob_types": "the Kripke model of a probabilistic type model",
}


def _references(tree: ast.Module):
    """``(name, owner)`` per reference; owner names the enclosing top-level definition."""
    for top in tree.body:
        owner = getattr(top, "name", None)
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                yield node.id, owner
            elif isinstance(node, ast.Attribute):
                yield node.attr, owner
            elif isinstance(node, ast.ImportFrom):
                yield from ((alias.name, owner) for alias in node.names)


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"))


def test_every_public_name_has_a_caller_outside_the_tests():
    tracing = _load_tracing()
    used = {name for path in (ROOT / "perfbench").glob("*.py")
            for name, _ in _references(_tree(path))}
    used |= {name for _, name in {**tracing.SPANS, **tracing.COUNTED}.values()}
    defined, referenced = set(), set()
    for path in (ROOT / "src" / "egk").glob("*.py"):
        tree = _tree(path)
        defined |= {(path.stem, top.name) for top in tree.body
                    if isinstance(top, (ast.FunctionDef, ast.ClassDef)) and top.name[0] != "_"}
        referenced |= {(path.stem, owner, name) for name, owner in _references(tree)}
    unused = {name for module, name in defined if name not in used and not any(
        ref == name and (where, owner) != (module, name) for where, owner, ref in referenced)}
    assert unused == set(WITNESSES)
