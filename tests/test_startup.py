"""What a command loads at start-up: each CLI command imports only what it runs.

Every ``egk`` command runs in a fresh process, where compiling and building
modules that the command never calls is most of its time.  Each check runs
in a fresh interpreter, started with ``-S`` so that no site hook loads
modules of its own, and reads ``sys.modules`` at the end.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODEL_LAYERS = {"egk.kripke", "egk.ordered", "egk.epsilon", "egk.convergence",
                "egk.epistemic", "egk.dot"}


def _loaded(code: str) -> set[str]:
    """The modules loaded after ``code`` runs in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", f"{code}\nimport sys\nprint(*sorted(sys.modules))"],
        cwd=ROOT, env=env, capture_output=True, text=True, check=True)
    return set(proc.stdout.splitlines()[-1].split())


def test_importing_the_cli_loads_no_model_layer_and_no_dataclasses():
    loaded = _loaded("import egk.cli")
    assert "egk.modelio" in loaded
    assert not loaded & (MODEL_LAYERS | {"egk.dominance", "egk.lp", "dataclasses"})


def test_game_analyze_loads_no_model_layer():
    loaded = _loaded("from egk import cli\n"
                     "assert cli.main(['game', 'analyze', 'fixtures/myerson_game.json']) == 0")
    assert {"egk.dominance", "egk.lp"} <= loaded
    assert not loaded & MODEL_LAYERS


def test_importing_kripke_loads_no_dominance():
    loaded = _loaded("import egk.kripke")
    assert not loaded & {"egk.dominance", "egk.lp"}


def test_no_egk_module_imports_dataclasses():
    modules = sorted(p.stem for p in (ROOT / "src" / "egk").glob("*.py") if p.stem != "__init__")
    loaded = _loaded("\n".join(f"import egk.{name}" for name in modules))
    assert {f"egk.{name}" for name in modules} <= loaded
    assert "dataclasses" not in loaded


def test_types_analyze_loads_no_kripke_model():
    for name in ("myerson_lex_types", "myerson_prob_types"):
        loaded = _loaded("from egk import cli\n"
                         f"assert cli.main(['types', 'analyze', 'fixtures/{name}.json']) == 0")
        assert "egk.epistemic" in loaded
        assert not loaded & {"egk.kripke", "egk.ordered"}
