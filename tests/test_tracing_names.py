"""Every ddlab name that the benchmark's tracer wraps must exist.

`perfbench/tracing.py` binds functions by (module, attribute) in `SPANS` and
`COUNTERS`; a traced run fails when one of them is renamed or deleted. This
test loads that file by path (it imports only the standard library) and
checks the names, so such a change fails here too.
"""
import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_exists_in_ddlab():
    tracing = _tracing()
    names = [entry[:2] for entry in tracing.SPANS] + [entry[:2] for entry in tracing.COUNTERS]
    assert len(names) > 30
    missing = [(mod, attr) for mod, attr in names
               if not callable(getattr(importlib.import_module("ddlab." + mod), attr, None))]
    assert missing == []
