"""One workload process: set up, run the timed loop, print one JSON line.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S
        --launch T [--ref-before T1,T2,...] [--setup-only] [--trace] [--ops K] [--size tiny]

``--launch`` is the wall-clock time at which the parent started this
process; set-up time runs from there to the first timed operation.
``--ref-before`` gives the process-start reference times (see
hostspeed) the parent took just before the launch, on the same CPU.  With
``--trace`` the worker replays a fixed list of operations twice, first
untraced and then traced, and reports both walls, the span table and any
operation whose result differs between the two passes.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path[:0] = [HERE, SRC]

from hostspeed import IN_PROCESS, PROCESS_START, START_REF_S, Clock, start_reference  # noqa: E402

CLI_TIMEOUT_S = 60
TRIVIAL = ["coxeter", "length", "--type", "A3", "--word", "1,2,1"]
PROBES = 8  # cold CLI start-up probes before and again after the timed loop
SETUP_REFERENCES = 3


def cli_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_cli(argv):
    """One cold ``python -m twinbuild ... --format json``; returns
    (exit code, stdout)."""
    proc = subprocess.run(
        [sys.executable, "-m", "twinbuild"] + list(argv) + ["--format", "json"],
        capture_output=True, text=True, env=cli_env(), cwd=ROOT, timeout=CLI_TIMEOUT_S,
    )
    return proc.returncode, proc.stdout


def cli_in_process(argv):
    import twinbuild.cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = twinbuild.cli.main(list(argv) + ["--format", "json"])
        except SystemExit as exc:  # argparse rejects the arguments
            code = exc.code
    return code, out.getvalue()


class Runner:
    """Builds the instance pools and runs operation i of the fixed
    round-robin order."""

    def __init__(self, workload, seed, tiny, step=lambda: None):
        from workloads import rng_for

        self.tracer = None  # paused while an oracle checks a result
        self.w = workload
        self.strata = workload.strata
        pool = 2 if tiny else workload.pool
        self.pools = []
        self.warm = []
        for k, st in enumerate(self.strata):
            # The warm-up instances are the same for every seed, so that
            # set-up does the same warm-up work in every run.
            self.warm.append(st.make(rng_for("warm-up", workload.name, k, st.name)))
            rng = rng_for(seed, workload.name, k, st.name)
            step()
            self.pools.append([])
            for _ in range(pool):
                self.pools[-1].append(st.make(rng))
                step()
        self.validator = None
        if not workload.in_process:
            import jsonschema

            with open(os.path.join(ROOT, "docs", "envelope.schema.json")) as fh:
                self.validator = jsonschema.Draft7Validator(json.load(fh))
            step()

    def instance(self, i):
        k = i % len(self.strata)
        pool = self.pools[k]
        return k, pool[(i // len(self.strata)) % len(pool)]

    def timed(self, k, inst, cli_call):
        """Run one operation; returns (latency_s, error or None, digest)."""
        st = self.strata[k]
        try:
            if self.w.in_process:
                t0 = time.perf_counter()
                result = st.call(inst)
                lat = time.perf_counter() - t0
                with self.oracle():
                    return lat, st.check(inst, result), st.digest(result)
            argv, oracle = inst
            t0 = time.perf_counter()
            code, out = cli_call(argv)
            lat = time.perf_counter() - t0
            with self.oracle():
                return lat, self.check_envelope(code, out, oracle), out.strip()
        except Exception as exc:  # counted as a failed operation, never dropped
            return float("nan"), f"{type(exc).__name__}: {exc}", None

    @contextlib.contextmanager
    def oracle(self):
        """Library calls made by an oracle are not traced."""
        if self.tracer is None:
            yield
            return
        self.tracer.paused = True
        try:
            yield
        finally:
            self.tracer.paused = False

    def check_envelope(self, code, out, oracle):
        if code != 0:
            return f"exit code {code}"
        lines = out.strip().splitlines()
        if len(lines) != 1:
            return f"expected one JSON line, got {len(lines)}"
        env = json.loads(lines[0])
        errors = list(self.validator.iter_errors(env))
        if errors:
            return f"envelope fails the schema: {errors[0].message}"
        return oracle(env["result"])

    def warm_up(self, cli_call, step=lambda: None):
        """One untimed call of each operation kind, at its first size.
        For the CLI every call is a fresh process, so one call warms the
        file cache for all kinds."""
        seen = set()
        for k, st in enumerate(self.strata):
            kind = st.name.split(".")[0]
            if kind not in seen:
                seen.add(kind)
                self.timed(k, self.warm[k], cli_call)
                step()
            if not self.w.in_process:
                break


class SetupTimer:
    """Set-up time, host-corrected step by step.

    The interpreter start and ``import twinbuild`` come before this
    process can time anything.  That first step runs from the launch to
    the timer's creation and is corrected with the process-start
    reference times the parent took just before the launch and the ones
    taken here right after.  After it, the reference of the workload's
    kind is timed between steps (one input instance, one warm-up call)
    as between timed operations, each step is corrected like an
    operation, and the reference's own time is left out."""

    def __init__(self, launch, ref_before, kind):
        first = time.time() - launch
        near = ref_before + [start_reference() for _ in range(SETUP_REFERENCES)]
        self.raw = first
        self.corrected = first * START_REF_S / statistics.median(near)
        self.clock = Clock(kind)
        self.clock.reference()  # warms the reference task; not counted
        self.clock.tick(force=True)
        self.spans = []
        self.last = time.perf_counter()

    def step(self):
        self.spans.append((self.last, time.perf_counter()))
        self.clock.tick()
        self.last = time.perf_counter()

    def finish(self):
        """(raw, corrected) set-up seconds."""
        self.step()
        self.clock.tick(force=True)
        self.clock.tick(force=True)
        raw = self.raw + sum(b - a for a, b in self.spans)
        corrected = self.corrected + sum((b - a) * self.clock.factor(a, b) for a, b in self.spans)
        return raw, corrected


def probe_cli(clock, count, probes, errors):
    """Time `count` cold trivial CLI commands, with the host-speed
    reference around each; append host-corrected durations to probes."""
    for _ in range(count):
        clock.tick(force=True)
        t0 = time.perf_counter()
        code, out = run_cli(TRIVIAL)
        t1 = time.perf_counter()
        clock.tick(force=True)
        probes.append((t1 - t0) * clock.factor(t0, t1))
        if code != 0 or json.loads(out)["result"] != {"length": 3}:
            errors.append({"op": -1, "stratum": "cli-probe", "error": f"exit code {code}"})


def loop(runner, cli_call, stop, clock=None):
    """Run operations 0, 1, 2, ... until stop(i, elapsed) is true.

    With a clock, also time the host-speed reference between operations
    and return host-corrected latencies (see hostspeed)."""
    lat, strata, errors, digests, spans = [], [], [], [], []
    start = time.perf_counter()
    i = 0
    while not stop(i, time.perf_counter() - start):
        if clock:
            clock.tick()
        k, inst = runner.instance(i)
        if runner.tracer is not None:
            runner.tracer.op = i
        t0 = time.perf_counter()
        t, err, dig = runner.timed(k, inst, cli_call)
        spans.append((t0, time.perf_counter()))
        lat.append(t)
        strata.append(runner.strata[k].name)
        digests.append(dig)
        if err is not None:
            errors.append({"op": i, "stratum": runner.strata[k].name, "error": err})
        i += 1
    out = {"wall_s": time.perf_counter() - start, "call_s": sum(t for t in lat if t == t),
           "latency_s": lat, "strata": strata, "errors": errors, "digests": digests}
    if clock:
        clock.tick(force=True)
        corrected = [t * clock.factor(a, b) for t, (a, b) in zip(lat, spans)]
        out["corrected_latency_s"] = corrected
        out["corrected_call_s"] = sum(t for t in corrected if t == t)
    return out


def pin_to_one_cpu():
    """Keep this process and the commands it starts on the CPU it is
    running on, so that the host-speed reference runs where the timed
    work runs.  (Unpinned, correcting the CLI timings made them noisier,
    not steadier.)"""
    if not hasattr(os, "sched_setaffinity"):
        return
    allowed = os.sched_getaffinity(0)
    try:
        with open("/proc/self/stat") as fh:
            cpu = int(fh.read().rsplit(")", 1)[1].split()[36])
    except (OSError, ValueError, IndexError):
        cpu = min(allowed)
    os.sched_setaffinity(0, {cpu if cpu in allowed else min(allowed)})


def main(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--launch", type=float, required=True)
    p.add_argument("--ref-before", default="")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--trace", action="store_true")
    p.add_argument("--ops", type=int, default=None)
    p.add_argument("--size", choices=("full", "tiny"), default="full")
    p.add_argument("--spans-out", default=None)
    args = p.parse_args(argv)
    pin_to_one_cpu()

    import twinbuild  # noqa: F401  (part of set-up)
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]()
    # Timings of cold CLI commands are corrected with the process-start
    # reference, timings of in-process calls with the in-process one.
    kind = PROCESS_START if not workload.in_process and not args.trace else IN_PROCESS
    timer = SetupTimer(args.launch, [float(t) for t in args.ref_before.split(",") if t], kind)
    runner = Runner(workload, args.seed, args.size == "tiny", timer.step)
    cli_call = None if workload.in_process else (cli_in_process if args.trace else run_cli)
    runner.warm_up(cli_call, timer.step)
    raw_setup_s, setup_s = timer.finish()
    out = {"setup_s": setup_s, "raw_setup_s": raw_setup_s}
    try:
        import twinbuild._wkernel  # noqa: F401

        out["wkernel"] = True
    except ImportError:
        out["wkernel"] = False
    if args.setup_only:
        print(json.dumps(out))
        return 0

    if not args.trace:
        if args.ops is not None:
            stop = lambda i, t: i >= args.ops  # noqa: E731
        else:
            stop = lambda i, t: t >= args.seconds  # noqa: E731
        clock = Clock(kind)
        probe_clock = Clock(PROCESS_START)
        probes, probe_errors = [], []
        if workload.in_process:
            probe_cli(probe_clock, PROBES, probes, probe_errors)
        res = loop(runner, cli_call, stop, clock=clock)
        if workload.in_process:
            probe_cli(probe_clock, PROBES, probes, probe_errors)
        out.update(res)
        out["errors"] += probe_errors
        out["cli_probe_s"] = probes
        out["reference_s"] = clock.ref
        out["probe_reference_s"] = probe_clock.ref
    else:
        from spans import Tracer

        count = args.ops if args.ops is not None else max(
            len(runner.strata), round(workload.trace_rate * args.seconds))
        stop = lambda i, t: i >= count  # noqa: E731
        loop(runner, cli_call, stop)  # fills the caches the first pass fills
        untraced = loop(runner, cli_call, stop, clock=Clock())
        tracer = Tracer()
        tracer.install()
        runner.tracer = tracer
        traced = loop(runner, cli_call, stop, clock=Clock())
        runner.tracer = None
        tracer.uninstall()
        mismatch = [
            {"op": i, "stratum": traced["strata"][i], "error": "traced result differs from untraced"}
            for i in range(count)
            if traced["digests"][i] != untraced["digests"][i]
        ]
        out.update(traced)
        out["errors"] = untraced["errors"] + traced["errors"] + mismatch
        out["overhead_ratio"] = traced["corrected_call_s"] / untraced["corrected_call_s"]
        out["untraced_latency_s"] = untraced["corrected_latency_s"]
        out["layers"] = tracer.table()
        out["absent"] = tracer.absent
        out["spans_recorded"] = len(tracer.spans)
        out["spans_dropped"] = tracer.dropped
        if args.spans_out:
            tracer.dump(args.spans_out, {"workload": args.workload, "seed": args.seed})
    out["results_sha256"] = hashlib.sha256(json.dumps(out.pop("digests")).encode()).hexdigest()
    usage = resource.RUSAGE_SELF if workload.in_process else resource.RUSAGE_CHILDREN
    out["peak_rss_kib"] = resource.getrusage(usage).ru_maxrss
    for key in ("latency_s", "untraced_latency_s", "corrected_latency_s"):
        if key in out:
            out[key] = [None if t != t else t for t in out[key]]
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
