"""twinbuild benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from its
``src/``.  Workloads, metrics and their reasons are in NOTES.md; the
metric names and units are read from BENCHMARK.json.

With ``--trace 0`` the run measures the end-to-end metrics with tracing
off.  With ``--trace 1`` it replays a fixed list of operations untraced
and then traced, and reports the per-layer metrics.  Both print one JSON
report line (environment header, per-stratum figures, failures, absent
spans) and then, as the last line, the summary
``{"correct", "attempted", "failed", "metrics"}``.

``--ops K`` runs exactly K operations instead of a timed loop and
``--size tiny`` shrinks the instance pools; both exist for the
benchmark's own tests.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
OUT_DIR = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

from hostspeed import start_reference  # noqa: E402
from worker import SETUP_REFERENCES, cli_env, pin_to_one_cpu  # noqa: E402

REQUIRED = ("BENCHMARK.json", "src/twinbuild/__init__.py", "docs/envelope.schema.json")
IMPORT_PROBES = 3
WORKER_TIMEOUT_S = 150
SETUP_TIMEOUT_S = 60


class BenchError(Exception):
    pass


def _spawn(args, timeout):
    # Process-start reference timings just before the launch, on the CPU
    # the worker inherits, for the host-speed correction of its start.
    before = ",".join(repr(start_reference()) for _ in range(SETUP_REFERENCES))
    launch = time.time()
    try:
        proc = subprocess.run(
            [sys.executable, WORKER, "--launch", repr(launch), "--ref-before", before] + args,
            capture_output=True, text=True, env=cli_env(), cwd=ROOT, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {args} exceeded {timeout} s")
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"worker {args} failed ({proc.returncode}):\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _python(code, timeout=60):
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env=cli_env(), cwd=ROOT, timeout=timeout,
    )
    if proc.returncode != 0:
        raise BenchError(f"python -c failed ({proc.returncode}):\n{proc.stderr[-3000:]}")
    return proc.stdout


def import_probes(count):
    """(seconds, modules loaded, sympy loaded) of `import twinbuild.cli`
    in a fresh interpreter, count times."""
    code = (
        "import json, sys, time\n"
        "m = len(sys.modules)\n"
        "t = time.perf_counter()\n"
        "import twinbuild.cli\n"
        "t = time.perf_counter() - t\n"
        "print(json.dumps([t, len(sys.modules) - m, 'sympy' in sys.modules]))\n"
    )
    return [json.loads(_python(code)) for _ in range(count)]


def environment(args, wkernel, names):
    rev = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            rev = subprocess.run(
                ["git", "rev-parse", "HEAD"], capture_output=True, text=True, cwd=ROOT, timeout=30,
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            rev = None
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src", "twinbuild")
    for name in sorted(os.listdir(src)):
        if name.endswith((".py", ".pyx")):
            digest.update(name.encode())
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(fh.read())
    try:
        sympy_version = metadata.version("sympy")
    except metadata.PackageNotFoundError:
        sympy_version = None
    return {
        "git_rev": rev,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "sympy": sympy_version,
        "wkernel_imported": wkernel,
        "seed": args.seed,
        "workload": args.workload,
        "workloads": names,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def _ms(xs):
    return [1000 * x for x in xs if x is not None]


def tail(lat_ms, pct):
    """The pct-th percentile, with the count of samples beyond it."""
    if len(lat_ms) < 2:
        value = lat_ms[0]
    else:
        value = statistics.quantiles(lat_ms, n=100, method="inclusive")[pct - 1]
    return value, sum(1 for x in lat_ms if x > value)


def typical_ms(strata, lat_s):
    """Geometric mean over operation kinds of each kind's median latency.

    A workload mixes kinds whose latencies differ up to tenfold, so the
    median of the pooled latencies sits on the edge between two kinds and
    moves with the instances drawn; the median within each kind does not.
    """
    medians = [v["p50_ms"] for v in per_stratum(strata, lat_s).values()]
    return math.exp(sum(math.log(m) for m in medians) / len(medians))


def throughput(strata, lat_s, completed):
    """Operations per second of call time if every call took its kind's
    median time.

    The plain ratio, operations over summed call time, followed the few
    slowest instances a seed happened to draw (spread 0.11 on
    `dense-distances`, where about nine calls of each kind run); those
    show in op_tail_ms instead.
    """
    groups = per_stratum(strata, lat_s).values()
    return completed / sum(v["ops"] * v["p50_ms"] / 1000 for v in groups)


def per_stratum(strata, lat_s):
    groups = {}
    for name, t in zip(strata, lat_s):
        if t is not None:
            groups.setdefault(name, []).append(1000 * t)
    return {name: {"ops": len(v), "p50_ms": statistics.median(v)} for name, v in groups.items()}


def layer_shares(layers, wall):
    """Each layer group's self time, and the figures that show how the
    workloads separate the layers, as shares of the traced calls' time
    (oracles excluded)."""
    groups = {}
    for key, value in layers.items():
        if key.endswith(".self_s"):
            group = key.split(".")[0]
            groups[group] = groups.get(group, 0.0) + value
    shares = {g + ".self_frac": v / wall for g, v in sorted(groups.items())}
    shares["self_s_sum"] = sum(groups.values())
    shares["traced_call_s"] = wall
    shares["building.project_twin.total_frac"] = layers.get("building.project_twin.total_s", 0.0) / wall
    shares["exactalg.det_inv.self_frac"] = (
        layers.get("exactalg.det.self_s", 0.0) + layers.get("exactalg.inv.self_s", 0.0)
    ) / wall
    shares["coxeter_cells.self_frac"] = (
        layers.get("coxeter.self_s", 0.0) + layers.get("cells.series.self_s", 0.0)
    ) / wall
    return shares


def measure(args, spec, names):
    """Returns (report, metrics, attempted, failed)."""
    extra = ["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--size", args.size]
    if args.ops is not None:
        extra += ["--ops", str(args.ops)]
    report = {}
    if not args.trace:
        samples = [_spawn(extra + ["--setup-only"], SETUP_TIMEOUT_S)
                   for _ in range(spec.setup_samples - 1)]
        res = _spawn(extra, WORKER_TIMEOUT_S)
        failed_ops = {e["op"] for e in res["errors"]}
        samples.append(res)
        setups = [r["setup_s"] for r in samples]
        lat_s = res["corrected_latency_s"]
        if spec.in_process:
            starts = [1000 * t for t in res["cli_probe_s"]]
        else:
            starts = [1000 * t for name, t in zip(res["strata"], lat_s)
                      if name == "trivial" and t is not None]
        lat_ms = _ms(lat_s)
        attempted = len(res["latency_s"])
        completed = attempted - len(failed_ops)
        pct = spec.tail_pct
        tail_ms, beyond = tail(lat_ms, pct) if lat_ms else (float("nan"), 0)
        metrics = {
            "setup_s": statistics.median(setups),
            "ops_per_s": throughput(res["strata"], lat_s, completed),
            "op_p50_ms": typical_ms(res["strata"], lat_s) if lat_ms else float("nan"),
            "op_tail_ms": tail_ms,
            "peak_rss_mib": res["peak_rss_kib"] / 1024,
            "cli_start_ms": statistics.median(starts) if starts else float("nan"),
        }
        report.update({
            "setup_samples_s": setups,
            "setup_samples_raw_s": [r["raw_setup_s"] for r in samples],
            "cli_start_samples_ms": starts,
            "tail": {"percentile": pct, "samples": len(lat_ms), "beyond": beyond},
            "pooled_p50_ms": statistics.median(lat_ms) if lat_ms else None,
            "wall_s": res["wall_s"],
        })
        raw_ms = _ms(res["latency_s"])
        report["uncorrected"] = {
            "setup_s": statistics.median(r["raw_setup_s"] for r in samples),
            "ops_per_s": throughput(res["strata"], res["latency_s"], completed),
            "op_p50_ms": typical_ms(res["strata"], res["latency_s"]) if raw_ms else None,
            "op_tail_ms": tail(raw_ms, pct)[0] if raw_ms else None,
        }
        report["reference_s"] = {
            key: {
                "samples": len(res[key]),
                "median": statistics.median(res[key]),
                "min": min(res[key]),
                "max": max(res[key]),
            }
            for key in ("reference_s", "probe_reference_s") if res[key]
        }
    else:
        os.makedirs(OUT_DIR, exist_ok=True)
        spans_out = os.path.join(OUT_DIR, f"spans-{args.workload}-{args.seed}.json")
        res = _spawn(extra + ["--trace", "--spans-out", spans_out], WORKER_TIMEOUT_S)
        layers = dict(res["layers"])
        probes = import_probes(IMPORT_PROBES)
        twin_calls = layers.get("building.project_twin.calls")
        if twin_calls is not None and "building.project_twin.codelta_calls" in layers:
            # 0 (and listed as not exercised) where no twin gate ran
            layers["building.project_twin.codelta_per_call"] = (
                layers["building.project_twin.codelta_calls"] / twin_calls if twin_calls else 0.0
            )
        layers["cli.import_s"] = statistics.median(p[0] for p in probes)
        layers["cli.import_modules"] = statistics.median(p[1] for p in probes)
        layers["trace.overhead_ratio"] = res["overhead_ratio"]
        attempted = len(res["latency_s"])
        metrics = layers
        report.update({
            "layers": layers,
            "absent": res["absent"],
            "shares": layer_shares(layers, res["call_s"]),
            "sympy_loaded": any(p[2] for p in probes),
            "spans_file": os.path.relpath(spans_out, ROOT),
            "spans_recorded": res["spans_recorded"],
            "spans_dropped": res["spans_dropped"],
            "untraced_strata": per_stratum(res["strata"], res["untraced_latency_s"]),
        })
    failed_ops = {e["op"] for e in res["errors"]}
    report.update({
        "env": environment(args, res["wkernel"], names),
        "attempted": attempted,
        "failed": len(failed_ops),
        "failed_frac": len(failed_ops) / attempted if attempted else 1.0,
        "errors": res["errors"][:20],
        "results_sha256": res["results_sha256"],
        "strata": per_stratum(res["strata"], res.get("corrected_latency_s", res["latency_s"])),
    })
    return report, metrics, attempted, len(failed_ops)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--ops", type=int, default=None)
    p.add_argument("--size", choices=("full", "tiny"), default="full")
    args = p.parse_args(argv)

    missing = [f for f in REQUIRED if not os.path.exists(os.path.join(ROOT, f))]
    if missing:
        print(f"perfbench: not a twinbuild checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    declared = bench["per_layer"] if args.trace else bench["end_to_end"]

    sys.path.insert(0, os.path.join(ROOT, "src"))
    from workloads import WORKLOADS

    # The workers, and the commands they start, inherit this CPU, so that
    # the host-speed reference runs where the timed work runs.
    pin_to_one_cpu()
    try:
        # Compile the library's bytecode once, untimed, so that no
        # run's set-up pays for it.
        _python("import twinbuild.cli")
        if args.workload not in WORKLOADS:
            raise BenchError(f"unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}")
        spec = WORKLOADS[args.workload]()
        report, values, attempted, failed = measure(args, spec, list(WORKLOADS))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    metrics = {}
    for m in declared:
        if m["name"] in values:
            metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        elif m["name"] not in report.get("absent", []):
            report.setdefault("absent", []).append(m["name"])
    if args.trace:
        # Layers this workload never reaches read 0; they are named here
        # so that a 0 is not read as a measurement of the layer.
        report["not_exercised"] = [m for m in metrics if metrics[m]["value"] == 0]
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
