"""The library names the benchmark calls and traces.

``perfbench/workloads.py`` builds its inputs and oracles from the public
``twinbuild`` API (``AffineWeylElt.identity``, ``.compose``, ``.inverse``,
``.length``, ``word_to_affine``, ``weyl_matrix``, ...).  This test imports
it unchanged and runs one instance of every in-process stratum, so that a
break in one of those names fails here instead of as failed benchmark
operations.

``perfbench/spans.py`` resolves its traced targets by name and reports a
missing one as absent, so a renamed library function would silently drop
its per-layer metrics from a traced run; the last test catches that.

The runner's last line is its machine-readable result, so one short
traced run checks that it is strict JSON (no NaN or Infinity) and that
the timed path builds no panel chart and reads no vertex class: both
traced metrics are present and read 0.
"""

import json
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
sys.path.insert(0, str(BENCH))
try:
    import spans  # noqa: E402
    import workloads  # noqa: E402
finally:
    sys.path.remove(str(BENCH))

# Per-layer metrics that perfbench/run.py derives itself instead of
# reading them from the tracer's table.
DERIVED = {
    "building.project_twin.codelta_per_call",
    "cli.import_s",
    "cli.import_modules",
    "trace.overhead_ratio",
}

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


def test_every_declared_layer_metric_has_a_traced_target():
    declared = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
    tracer = spans.Tracer()
    try:
        tracer.install()
        traced = set(tracer.table())
    finally:
        tracer.uninstall()
    missing = [name for name in declared if name not in traced | DERIVED]
    assert not missing, f"no traced target for {missing}; absent spans: {tracer.absent}"


def _reject_constant(name):
    raise ValueError(f"non-strict JSON constant {name} in the runner's summary")


def test_traced_twin_gates_run_ends_in_a_strict_json_summary():
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "twin-gates", "--seed", "1",
         "--seconds", "1", "--trace", "1", "--size", "tiny"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    last = proc.stdout.rstrip("\n").split("\n")[-1]
    summary = json.loads(last, parse_constant=_reject_constant)
    assert summary["correct"] is True
    assert summary["failed"] == 0
    # Coordinates are root-group coordinates and twin gates come from one
    # engine run, so the timed path builds no panel chart and reads no
    # vertex class.
    assert summary["metrics"]["lattice.panel_chart.calls"]["value"] == 0
    assert summary["metrics"]["lattice.vertex_classes.calls"]["value"] == 0
