"""Interleaved A/B timing of two checkouts of the library in one process.

Run by hand from the repository root (pytest does not collect it):

    python tests/interleave.py BASE [--workload NAME ...] [--seed S]
                               [--instances K] [--rounds R]

BASE is a checkout of the commit to compare against, made with
``git archive`` or ``git clone``.  Its ``src/`` and this tree's ``src/``
are imported into one process, one after the other; ``twinbuild*`` and
the benchmark's own modules are cleared from ``sys.modules`` between the
two loads, so each side keeps module objects of its own.  Each side then
builds its pools through ``perfbench/workloads.py``, imported unchanged
from this tree, from the same seed: K instances of every stratum of the
in-process workloads (twin-gates, dense-distances and projectors by
default).

Every instance runs on both sides, R rounds, the side that goes first
alternating from one call to the next, and each side keeps its least
time per instance.  The script prints, per operation kind (the stratum
name before its size, e.g. ``delta``) and per workload, the summed
minima of the two sides and their ratio tree/base (below 1: the tree is
faster), then whether every result's digest matched across the sides.
It exits 1 when a digest differs.

Separate processes of one unchanged commit can differ by tens of percent
on a shared host, while interleaved ratios repeat within a few points.
This is a development aid: the benchmark's verdict is perfbench's.
"""

import argparse
import gc
import math
import pathlib
import sys
import time
from collections import defaultdict

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
IN_PROCESS = ("twin-gates", "dense-distances", "projectors")


def load(src):
    """perfbench's workloads module over the library in ``src``, with
    twinbuild and the benchmark modules imported afresh.  The package
    loads its submodules on first use (PEP 562), by name through
    ``sys.modules``, so every exported name is resolved here, before the
    next load replaces those entries."""
    for name in list(sys.modules):
        if name.startswith("twinbuild") or name in ("workloads", "affine"):
            del sys.modules[name]
    sys.path[:0] = [str(src), str(BENCH)]
    try:
        import workloads
    finally:
        del sys.path[:2]
    for name in workloads.tb.__all__:
        getattr(workloads.tb, name)
    return workloads


def pool(workloads, names, seed, count):
    """[(workload, stratum, instance)]: ``count`` instances per stratum."""
    out = []
    for name in names:
        for stratum in workloads.WORKLOADS[name]().strata:
            rng = workloads.rng_for(seed, name, stratum.name)
            out += [(name, stratum, stratum.make(rng)) for _ in range(count)]
    return out


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("base", type=pathlib.Path, help="checkout to compare against")
    p.add_argument("--workload", nargs="+", choices=IN_PROCESS, default=list(IN_PROCESS))
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--instances", type=int, default=6)
    p.add_argument("--rounds", type=int, default=5)
    args = p.parse_args(argv)

    sides = ("base", "tree")
    pools = [
        pool(load(root / "src"), args.workload, args.seed, args.instances)
        for root in (args.base.resolve(), ROOT)
    ]
    best = [[math.inf] * len(pools[0]) for _ in sides]
    differ = set()
    for r in range(args.rounds):
        gc.collect()
        for k in range(len(pools[0])):
            digests = [None, None]
            for side in (0, 1) if (r + k) % 2 == 0 else (1, 0):
                _, stratum, inst = pools[side][k]
                t = time.perf_counter()
                result = stratum.call(inst)
                best[side][k] = min(best[side][k], time.perf_counter() - t)
                digests[side] = stratum.digest(result)
            if digests[0] != digests[1]:
                differ.add(k)

    kinds, totals = defaultdict(lambda: [0.0, 0.0]), defaultdict(lambda: [0.0, 0.0])
    for k, (name, stratum, _) in enumerate(pools[0]):
        for side in (0, 1):
            kinds[f"{name}:{stratum.name.split('.')[0]}"][side] += best[side][k]
            totals[name][side] += best[side][k]
    print(f"{'kind':<28} {'base ms':>10} {'tree ms':>10} {'tree/base':>10}")
    for label, (b, t) in list(kinds.items()) + list(totals.items()):
        print(f"{label:<28} {b * 1e3:10.2f} {t * 1e3:10.2f} {t / b:10.3f}")
    if differ:
        for k in sorted(differ):
            name, stratum, _ = pools[0][k]
            print(f"digest differs: {name}:{stratum.name} instance {k}")
        return 1
    print(f"digests match on all {len(pools[0])} instances")
    return 0


if __name__ == "__main__":
    sys.exit(main())
