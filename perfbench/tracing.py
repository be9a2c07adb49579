"""Span tracing of mgridopt from outside the package.

The package imports names directly (`from .solver import solve_lp`), so
each wrapper replaces the attribute that the *calling* module looks up.
`Tracer.install` patches those attributes, `Tracer.restore` puts the
originals back.  Spans live in memory as
(name, start, end, parent, run id, attrs) and are written out once, at
the end, by `Tracer.write`.  The return value of every unit call
(`run_experiment`) is kept in `Tracer.results`; a call that raised gets
an `error` attribute instead.

A span's self time is its duration minus the time its child spans
cover; calls are single-threaded and nested, so children never overlap.
"""

from __future__ import annotations

import functools
import json
import math
import statistics
import time
from pathlib import Path

# (module, attribute, span name) of every wrapped call site
CALL_SITES = [
    ("mgridopt.experiment", "run_experiment", "experiment.run_experiment"),
    ("mgridopt.experiment", "build_problem", "config.build_problem"),
    ("mgridopt.experiment", "run", "dialgo.run"),
    ("mgridopt.experiment", "violation_certificate", "analysis.certificate"),
    ("mgridopt.experiment", "distributed_certificate", "analysis.consensus"),
    ("mgridopt.experiment", "write_trace_csv", "experiment.artifacts"),
    ("mgridopt.experiment", "write_solution", "experiment.artifacts"),
    ("mgridopt.experiment", "write_reports", "experiment.artifacts"),
    ("mgridopt.dialgo", "local_multiplier_step", "dialgo.alloc_step"),
    ("mgridopt.dialgo", "finalize_mixed_integer", "dialgo.finalize"),
    ("mgridopt.dialgo", "exchange_and_update", "dialgo.exchange"),
    ("mgridopt.dialgo", "solve_lp", "simplex.alloc"),
    ("mgridopt.dialgo", "solve_milp", "bnb.finalize"),
    ("mgridopt.solver.branch_bound", "solve_lp", "simplex.node"),
    ("mgridopt.analysis", "solve_lp", "simplex.cert"),
    ("mgridopt.analysis", "solve_milp", "bnb.cert_aux"),
    ("mgridopt.model", "solve_lp", "simplex.box"),
]

UNIT_SPAN = "experiment.run_experiment"
LAYERS = ("experiment", "config", "dialgo", "analysis", "simplex", "bnb")
AGENT_KINDS = ("storage", "generator", "controllable_load", "critical_load",
               "grid")


class Span:
    __slots__ = ("name", "start", "end", "parent", "run", "attrs")

    def __init__(self, name, start, parent, run):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.run = run
        self.attrs = {}

    @property
    def duration(self):
        return self.end - self.start

    def to_dict(self, index):
        return {"id": index, "name": self.name, "start": self.start,
                "end": self.end, "parent": self.parent, "run": self.run,
                **self.attrs}


class Tracer:
    """Records spans around the wrapped call sites while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._saved: list = []
        self._run = -1
        self._runs = 0
        self.results: list = []   # (unit span, ExperimentResult)

    # -- span bookkeeping ------------------------------------------------

    def open(self, name: str, new_run: bool = False) -> Span:
        if new_run:
            self._run = self._runs
            self._runs += 1
        parent = self._stack[-1] if self._stack else -1
        span = Span(name, time.perf_counter(), parent, self._run)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def close(self, span: Span):
        span.end = time.perf_counter()
        self._stack.pop()
        if not self._stack:
            self._run = -1

    def wrap(self, fn, name, before=None, after=None, new_run=False):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = tracer.open(name, new_run)
            if before is not None:
                before(span, args)
            try:
                out = fn(*args, **kwargs)
                if after is not None:
                    after(span, args, out)
            except Exception as e:
                span.attrs["error"] = type(e).__name__
                raise
            finally:
                tracer.close(span)
            return out
        return wrapper

    # -- patching --------------------------------------------------------

    def install(self, names=None):
        """Wrap every call site, or only those whose span is in `names`."""
        import importlib

        for mod_name, attr, name in CALL_SITES:
            if names is not None and name not in names:
                continue
            mod = importlib.import_module(mod_name)
            fn = getattr(mod, attr)
            self._saved.append((mod, attr, fn))
            before, after = _HOOKS.get(name, (None, None))
            if name == UNIT_SPAN:
                after = self._keep_result
            setattr(mod, attr, self.wrap(fn, name, before, after,
                                         new_run=name == UNIT_SPAN))

    def _keep_result(self, span, args, result):
        self.results.append((span, result))

    def restore(self):
        while self._saved:
            mod, attr, fn = self._saved.pop()
            setattr(mod, attr, fn)

    def write(self, path: Path):
        with open(path, "w") as fh:
            for i, span in enumerate(self.spans):
                fh.write(json.dumps(span.to_dict(i)) + "\n")


# -- per-call-site hooks: counters recorded where the work happens -------


def _lp_after(span, args, sol):
    span.attrs["pivots"] = int(sol.pivots)


def _finalize_before(span, args):
    span.attrs["kind"] = args[0].lifted.base.kind


def _milp_after(span, args, sol):
    span.attrs["nodes"] = int(sol.node_count)
    span.attrs["status"] = sol.status


def _cert_after(span, args, cert):
    span.attrs["nonintegral"] = sum(not f for f in cert.in_integral_set)
    span.attrs["bound_max"] = float(max(cert.bound))


def _artifact_after(span, args, out):
    target = Path(args[0])
    files = sorted(target.glob("report_*.csv")) if target.is_dir() \
        else [target]
    span.attrs["bytes"] = sum(f.stat().st_size for f in files)


def _run_after(span, args, result):
    from mgridopt import dialgo

    # the coordinate boxes are cached on the blocks by now: no LP solves
    cap0 = dialgo.recourse_cap(args[0], args[1])
    span.attrs["cap_doublings"] = math.log2(result.eta_cap / cap0)
    span.attrs["rounds"] = len(result.trace.alloc_residual_all)
    span.attrs["finalize_rounds"] = len(result.trace.iters)
    span.attrs["incumbent_cost"] = result.incumbent_cost()
    span.attrs["relaxed_cost"] = result.trace.relax_cost_all[-1]


_HOOKS = {
    "simplex.alloc": (None, _lp_after),
    "simplex.node": (None, _lp_after),
    "simplex.cert": (None, _lp_after),
    "simplex.box": (None, _lp_after),
    "dialgo.finalize": (_finalize_before, None),
    "bnb.finalize": (None, _milp_after),
    "bnb.cert_aux": (None, _milp_after),
    "analysis.certificate": (None, _cert_after),
    "experiment.artifacts": (None, _artifact_after),
    "dialgo.run": (None, _run_after),
}


# -- reduction of one traced unit to per-layer metrics --------------------


def children(spans):
    kids = {i: [] for i in range(len(spans))}
    for i, s in enumerate(spans):
        if s.parent >= 0:
            kids[s.parent].append(i)
    return kids


def _rounds(spans, kids, run_index):
    """Per-round (ms, had_finalize) from the children of one dialgo.run.

    A round opens at the first allocation step after the previous
    exchange and closes when its exchange ends; the last round has no
    exchange and closes with its last child.
    """
    out = []
    start = None
    finalize = False
    last_end = None
    for c in kids[run_index]:
        s = spans[c]
        if s.name == "dialgo.alloc_step" and start is None:
            start, finalize = s.start, False
        elif s.name == "dialgo.finalize":
            finalize = True
        if start is not None:
            last_end = s.end
        if s.name == "dialgo.exchange":
            out.append((1e3 * (s.end - start), finalize))
            start = None
    if start is not None:
        out.append((1e3 * (last_end - start), finalize))
    return out


def unit_metrics(spans: list[Span], kids: dict, root: int) -> dict:
    """Counters, busy and self times of the spans under one unit span.

    `kids` maps a span index to its children's indices (`children`).
    """
    members = []
    todo = [root]
    while todo:
        i = todo.pop()
        members.append(i)
        todo.extend(kids[i])

    m = {}

    def add(key, value):
        m[key] = m.get(key, 0) + value

    self_by_layer = dict.fromkeys(LAYERS, 0.0)
    rounds = []
    for i in members:
        s = spans[i]
        dur = s.duration
        self_t = dur - sum(spans[c].duration for c in kids[i])
        self_by_layer[s.name.split(".")[0]] += self_t
        a = s.attrs
        if s.name.startswith("simplex."):
            add(f"{s.name}.solves", 1)
            add(f"{s.name}.pivots", a["pivots"])
            add(f"{s.name}.busy_s", dur)
        elif s.name == "bnb.finalize":
            kind = spans[s.parent].attrs["kind"]
            for key in ("bnb.finalize", f"bnb.finalize.{kind}"):
                add(f"{key}.solves", 1)
                add(f"{key}.nodes", a["nodes"])
                add(f"{key}.busy_s", dur)
        elif s.name == "bnb.cert_aux":
            add("bnb.cert_aux.solves", 1)
            add("bnb.cert_aux.nodes", a["nodes"])
            add("bnb.cert_aux.infeasible", int(a["status"] != "optimal"))
            add("bnb.cert_aux.busy_s", dur)
        elif s.name == "dialgo.run":
            add("dialgo.rounds", a["rounds"])
            add("dialgo.finalize_rounds", a["finalize_rounds"])
            add("dialgo.cap_doublings", a["cap_doublings"])
            add("dialgo.incumbent_cost_eur", a["incumbent_cost"])
            add("dialgo.relaxed_cost_eur", a["relaxed_cost"])
            rounds.extend(_rounds(spans, kids, i))
        elif s.name == "dialgo.exchange":
            add("dialgo.exchange.busy_s", dur)
        elif s.name == "analysis.certificate":
            add("analysis.certificate.busy_s", dur)
            add("analysis.certificate.nonintegral_agents", a["nonintegral"])
        elif s.name == "analysis.consensus":
            add("analysis.consensus.busy_s", dur)
        elif s.name == "experiment.artifacts":
            add("experiment.artifacts.busy_s", dur)
            add("experiment.artifacts.bytes", a["bytes"])
        elif s.name == "config.build_problem":
            add("config.build_problem.busy_s", dur)
    for kind in AGENT_KINDS:
        for field in ("solves", "nodes", "busy_s"):
            m.setdefault(f"bnb.finalize.{kind}.{field}", 0)
    attempted = m.get("bnb.cert_aux.solves", 0)
    m["bnb.cert_aux.useful_ratio"] = (
        (attempted - m.get("bnb.cert_aux.infeasible", 0)) / attempted
        if attempted else 1.0)
    alloc_only = [ms for ms, fin in rounds if not fin]
    if alloc_only:
        m["dialgo.round_ms.p50"] = statistics.median(alloc_only)
        m["dialgo.round_ms.p95"] = _percentile(alloc_only, 95)
    for layer, t in self_by_layer.items():
        m[f"{layer}.self_s"] = t
    m["trace.unit_s"] = spans[root].duration
    return m


def _percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    k = max(0, math.ceil(q / 100 * len(ordered)) - 1)
    return ordered[k]
