"""The library names the benchmark calls, exercised once per stratum.

``perfbench/workloads.py`` builds its inputs and oracles from the public
``twinbuild`` API (``AffineWeylElt.identity``, ``.compose``, ``.inverse``,
``.length``, ``word_to_affine``, ``weyl_matrix``, ...).  This test imports
it unchanged and runs one instance of every in-process stratum, so that a
break in one of those names fails here instead of as failed benchmark
operations.
"""

import pathlib
import sys

import pytest

BENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(BENCH))
try:
    import workloads  # noqa: E402
finally:
    sys.path.remove(str(BENCH))

CASES = [
    (name, stratum)
    for name in ("twin-gates", "dense-distances", "projectors")
    for stratum in workloads.WORKLOADS[name]().strata
]


@pytest.mark.parametrize(
    "workload, stratum", CASES, ids=[f"{w}:{s.name}" for w, s in CASES]
)
def test_workload_stratum_runs_and_passes_its_oracle(workload, stratum):
    inst = stratum.make(workloads.rng_for(0, workload, stratum.name))
    result = stratum.call(inst)
    assert stratum.check(inst, result) is None
    assert isinstance(stratum.digest(result), str)
