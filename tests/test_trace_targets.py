"""The benchmark's trace targets must all name functions egk still defines.

``perfbench/tracing.py`` resolves every ``SPANS`` and ``COUNTED`` target with
``getattr``, so renaming or deleting a traced function would crash a traced
benchmark run.  The file is loaded by path and left as it is.
"""

import importlib
import importlib.util
from pathlib import Path

_TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_resolves():
    tracing = _load_tracing()
    targets = {**tracing.SPANS, **tracing.COUNTED}
    assert len(targets) == 29
    for name, (module, attr) in targets.items():
        assert callable(getattr(importlib.import_module(module), attr, None)), name
