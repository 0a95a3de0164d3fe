"""Spans and counters around the library's layer boundaries.

The table below names every boundary the benchmark traces.  Each target
is "module:attribute.path"; it is resolved by name when tracing starts,
and a target missing at the commit under test is reported as absent, not
as zero and not as an error.  Tracing replaces the resolved function or
method in this process only: in its defining module or class and in
every loaded ``twinbuild`` module that imported the same object by name.
Nothing under ``src/`` is edited.

A span records its name, start, end, the span that caused it and the
benchmark operation it belongs to.  Spans are kept in memory (up to
``MAX_SPANS`` of them) and written out when the run ends.  A span's self
time is its duration minus the time covered by its child spans, so the
self times of all spans never sum to more than the traced wall time.
"""

import functools
import importlib
import json
import sys
import time

MAX_SPANS = 100_000

# (metric name, targets).  Several targets may share one metric name;
# their calls and self times are summed.
SPANS = [
    ("exactalg.det", ["twinbuild.exactalg:LMat.det"]),
    ("exactalg.inv", ["twinbuild.exactalg:LMat.inv"]),
    ("exactalg.matmul", ["twinbuild.exactalg:LMat.__matmul__"]),
    ("exactalg.rref", ["twinbuild.exactalg:rref"]),
    ("exactalg.charpoly", ["twinbuild.exactalg:charpoly"]),
    ("exactalg.qi_roots", ["twinbuild.exactalg:qi_roots"]),
    ("lattice.vertex_classes", ["twinbuild.lattice:vertex_classes_of_basis"]),
    ("lattice.member", ["twinbuild.lattice:_member_plus", "twinbuild.lattice:member"]),
    (
        "lattice.panel_chart",
        [
            "twinbuild.lattice:PanelChart.__init__",
            "twinbuild.lattice:PanelChart.chamber_basis",
            "twinbuild.lattice:PanelChart.gap_class",
            "twinbuild.lattice:PanelChart.parameter_of",
        ],
    ),
    ("building.relpos", ["twinbuild.building:_relpos"]),
    ("building.chamber", ["twinbuild.building:Chamber.__init__"]),
    ("building.delta", ["twinbuild.building:delta"]),
    ("building.codelta", ["twinbuild.building:codelta"]),
    ("building.project", ["twinbuild.building:project"]),
    ("building.project_twin", ["twinbuild.building:project_twin"]),
    ("building.panel_candidates", ["twinbuild.building:_panel_candidates"]),
    ("building.encode_coords", ["twinbuild.building:encode_coords"]),
    ("building.decode_coords", ["twinbuild.building:decode_coords"]),
    ("veronese.gauge", ["twinbuild.veronese:gauge"]),
    ("veronese.spherical_veronese", ["twinbuild.veronese:spherical_veronese"]),
    ("veronese.recover_flag", ["twinbuild.veronese:recover_flag"]),
    ("veronese.caveat_check", ["twinbuild.veronese:caveat_check"]),
    (
        "coxeter",
        [
            "twinbuild.coxeter:" + name
            for name in (
                "coxeter_matrix",
                "reduce_word",
                "word_length",
                "generalized_length",
                "bruhat_leq",
                "bruhat_leq_subword",
                "min_coset_reps",
                "longest_element",
                "word_to_affine",
                "affine_to_word",
                "word_to_window",
                "window_to_word",
                "coset_min_split",
                "min_double_coset_rep",
            )
        ],
    ),
    (
        "cells.series",
        [
            "twinbuild.cells:" + name
            for name in (
                "cell_dim",
                "schubert_poincare",
                "loop_poincare",
                "bott_equivalence_check",
            )
        ],
    ),
    ("cli.main", ["twinbuild.cli:main"]),
]

# (counter name, targets): counts only, never timed.
_GAUSSRAT_OPS = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__neg__", "__pow__", "inverse",
)
COUNTS = [
    ("exactalg.gaussrat.ops", ["twinbuild.exactalg:GaussRat." + m for m in _GAUSSRAT_OPS]),
    (
        "exactalg.laurent.mul_calls",
        ["twinbuild.exactalg:LaurentPoly.__mul__", "twinbuild.exactalg:LaurentPoly.__rmul__"],
    ),
    ("building.reduce.lead_scans", ["twinbuild.building:_lead"]),
]


def _nonlinear(args, kwargs):
    """qi_roots on a polynomial of degree >= 2: the path that needs sympy."""
    poly = args[0] if args else kwargs.get("poly")
    try:
        return poly.degree() >= 2
    except (AttributeError, TypeError):
        return False


class _Stat:
    __slots__ = ("calls", "self_s", "total_s", "active")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.total_s = 0.0
        self.active = 0


def _resolve(spec):
    """(owner, attribute, original) for "module:Attr.path", or None."""
    modname, _, path = spec.partition(":")
    try:
        owner = importlib.import_module(modname)
    except ImportError:
        return None
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    name = parts[-1]
    if isinstance(owner, type):
        if name not in owner.__dict__:
            return None
        return owner, name, owner.__dict__[name]
    if not hasattr(owner, name):
        return None
    return owner, name, getattr(owner, name)


class Tracer:
    """Installs spans and counters by name and aggregates them."""

    def __init__(self):
        self.stats = {}
        self.counts = {}
        self.absent = []
        self.spans = []
        self.dropped = 0
        self.op = -1
        self._next_id = 0
        self._stack = []
        self._patches = []
        self._wrappers = set()
        # While paused (an oracle checking a result), calls run unrecorded.
        self.paused = False

    # -- installation -------------------------------------------------

    def install(self):
        for name, targets in SPANS:
            self.stats[name] = _Stat()
            found = [self._patch(t, self._span_wrapper(name)) for t in targets]
            if not any(found):
                self.absent.append(name)
        # qi_roots calls of degree >= 2, and codelta calls made inside a
        # twin gate (candidate tries); see _span_wrapper.
        self.counts["exactalg.qi_roots.nonlinear_calls"] = 0
        self.counts["building.project_twin.codelta_calls"] = 0
        if "exactalg.qi_roots" in self.absent:
            self.absent.append("exactalg.qi_roots.nonlinear_calls")
        if "building.codelta" in self.absent or "building.project_twin" in self.absent:
            self.absent.append("building.project_twin.codelta_calls")
        for name, targets in COUNTS:
            self.counts[name] = 0
            found = [self._patch(t, self._count_wrapper(name)) for t in targets]
            if not any(found):
                self.absent.append(name)

    def _patch(self, spec, make):
        hit = _resolve(spec)
        if hit is None:
            return False
        owner, name, original = hit
        if original in self._wrappers:
            return True  # an alias of a target already wrapped
        wrapped = make(original)
        self._wrappers.add(wrapped)
        if isinstance(owner, type):
            for key, value in list(owner.__dict__.items()):
                if value is original:
                    self._patches.append((owner, key, value))
                    setattr(owner, key, wrapped)
            return True
        for mod in list(sys.modules.values()):
            modname = getattr(mod, "__name__", "")
            if modname != "twinbuild" and not modname.startswith("twinbuild."):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, value))
                    setattr(mod, key, wrapped)
        return True

    def uninstall(self):
        for owner, key, value in reversed(self._patches):
            setattr(owner, key, value)
        self._patches.clear()

    # -- wrappers -----------------------------------------------------

    def _span_wrapper(self, name):
        stat_of = self.stats
        counts = self.counts
        stack = self._stack
        clock = time.perf_counter

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if self.paused:
                    return fn(*args, **kwargs)
                if name == "building.codelta" and stat_of["building.project_twin"].active:
                    counts["building.project_twin.codelta_calls"] += 1
                elif name == "exactalg.qi_roots" and _nonlinear(args, kwargs):
                    counts["exactalg.qi_roots.nonlinear_calls"] += 1
                stat = stat_of[name]
                stat.active += 1
                parent = stack[-1][1] if stack else -1
                self._next_id += 1
                frame = [0.0, self._next_id]
                stack.append(frame)
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    end = clock()
                    stack.pop()
                    stat.active -= 1
                    dur = end - start
                    stat.calls += 1
                    stat.self_s += dur - frame[0]
                    if not stat.active:
                        stat.total_s += dur
                    if stack:
                        stack[-1][0] += dur
                    self._record(frame[1], name, start, end, parent)

            return wrapper

        return make

    def _count_wrapper(self, name):
        counts = self.counts

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if not self.paused:
                    counts[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        return make

    def _record(self, span_id, name, start, end, parent):
        if len(self.spans) < MAX_SPANS:
            self.spans.append((span_id, name, start, end, parent, self.op))
        else:
            self.dropped += 1

    # -- results ------------------------------------------------------

    def table(self):
        """Per-name calls, self and total seconds, plus the counters."""
        out = {}
        for name, stat in self.stats.items():
            if name in self.absent:
                continue
            out[name + ".calls"] = stat.calls
            out[name + ".self_s"] = stat.self_s
            out[name + ".total_s"] = stat.total_s
        for name, value in self.counts.items():
            if name not in self.absent:
                out[name] = value
        return out

    def dump(self, path, header):
        """Write the recorded spans, each as [id, name, start_s, end_s,
        parent id (-1 at the top), benchmark operation]."""
        with open(path, "w") as fh:
            json.dump(
                {
                    "header": header,
                    "dropped": self.dropped,
                    "spans": [list(s) for s in self.spans],
                },
                fh,
            )
