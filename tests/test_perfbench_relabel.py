"""The benchmark's `relabel_program` keeps working on every base it relabels.

`perfbench/workloads.py` rebuilds each base program with its variables
relabelled: it reads a classical base's `.steps` as dense per-node rows and
passes a quantum base's `.steps` back into the constructor. This test loads
that file by path (with `perfbench/` on the path for its `checks` import)
and checks every relabelled base of the `programs` and `lifted-q8` workloads
against the permuted table of its base, so a change to how programs store
their operators that breaks the benchmark fails here too.
"""
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from ddlab import fixtures, zoo
from ddlab.diagrams import _all_inputs, _whole_table

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def workloads():
    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(str(PERFBENCH))
        spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                      PERFBENCH / "workloads.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    return module


def _bases():
    """The bases that the programs (q = 4) and lifted-q8 workloads relabel."""
    yield "eq-obdd:4", zoo.eq_weighted_obdd(4)
    yield "or-nobdd:4", zoo.or_guess_nobdd(4)
    yield "eq-pobdd:4", zoo.eq_geometric_pobdd(4)
    yield "eq-qobdd:4", zoo.fingerprint_eq_qobdd(4, fixtures.eq_multipliers(4)["multipliers"])
    for k in (1, 2, 3):
        yield "pj-2k:%d,2" % k, zoo.pj_2k_obdd(k, 2)
    yield "rpj-2k:1,2", zoo.rpj_2k_obdd(1, zoo.RpjLayout(2))
    yield "eq-obdd:8", zoo.eq_weighted_obdd(8)
    yield "or-nobdd:8", zoo.or_guess_nobdd(8)
    yield "eq-pobdd:8", zoo.eq_geometric_pobdd(8)
    ks = fixtures.recombined_eq_multipliers(8)["multipliers"]
    yield "eq-qobdd-recombined:8", zoo.fingerprint_eq_qobdd(8, ks, recombine=True)


@pytest.mark.parametrize("name, base", list(_bases()), ids=[name for name, _ in _bases()])
def test_relabel_program_computes_the_permuted_table(workloads, name, base):
    table, bits = _whole_table(base), _all_inputs(base.n)
    weights = 1 << np.arange(base.n - 1, -1, -1)
    rng = np.random.default_rng(base.n)
    for _ in range(3):
        perm = workloads.draw_perm(rng, base.n)
        relabelled = workloads.relabel_program(base, perm)
        assert type(relabelled) is type(base)
        # relabelled(x) = base(y) with y_v = x_perm[v]
        expected = table[bits[:, np.array(perm) - 1] @ weights]
        got = _whole_table(relabelled)
        if got.dtype.kind == "f":
            np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12, err_msg=name)
        else:
            assert np.array_equal(got, expected), name
