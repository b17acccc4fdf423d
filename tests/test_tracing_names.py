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



def test_every_family_builds_through_the_traced_zoo():
    # the family tables look zoo up when a spec is resolved, so the tracer's
    # patched zoo functions record one root span per resolve; a table that
    # stored zoo's function objects would record none
    import ddlab.kernels  # noqa: F401 - the Tracer reads every module it binds
    from ddlab.experiments import _FUNCTIONS, resolve
    from test_experiments import FAMILY_EXAMPLES

    tracing = _tracing()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        roots = []
        for spec in FAMILY_EXAMPLES:
            start = len(tracer.spans)
            resolve(spec)
            roots.append([rec[tracing.NAME] for rec in tracer.spans[start:]
                          if rec[tracing.PARENT] == -1])
    finally:
        tracer.uninstall()
    # tree: builds the program from its function's table
    tables = set(_FUNCTIONS) | {"tree"}
    assert roots == [["zoo.table" if spec.split(":", 1)[0] in tables else "zoo.program"]
                     for spec in FAMILY_EXAMPLES]
