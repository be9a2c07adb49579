"""mgridopt benchmark: end-to-end metrics, or per-layer metrics when traced.

    python3 perfbench/run.py --workload desk --seed 2025 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
`src/`.  The program is measured from outside: the benchmark generates
a config from `configs/desk.yaml` and the seed, hands it to the public
entry points (`ExperimentConfig.from_yaml`, `run_experiment`,
`run_montecarlo`, `recertify`) and, when traced, wraps the functions
each layer exposes (see tracing.py).

Workloads (all on the desk roster, one process, BLAS pinned to one
thread):

    desk        shipped schedule, finalize every 10 rounds, first
                DESK_ROUNDS rounds: finalize MILPs (B&B) dominate
    allocation  the shipped rounds (300), finalize only at rounds 0, 1
                and the last: cold-start allocation LPs dominate
    montecarlo  run_montecarlo, MC_TRIALS trials of MC_ROUNDS rounds,
                4 scenarios, the acceptance suite's piecewise schedule

The seed is the scenario seed (desk, allocation) or the Monte Carlo
base seed; 2025, the default, is the shipped one.  A run first sets up
SETUP_REPEATS times, then repeats the workload until `--seconds` would
be exceeded, checks every output, and prints one JSON object as the
last line of standard output.  With `--trace 1` repetitions alternate
untraced and traced; the traced ones give the per-layer metrics, the
difference of the two medians is the tracing overhead, and the spans
are written to `.perfbench_out/<workload>/spans.jsonl` (an untraced
repetition records only its unit spans).  Whether repetitions give
identical outputs is checked only when at least two fit in
`--seconds`: a montecarlo repetition (two trials) takes 20-30 s and
an allocation one 15-25 s, so on those two workloads only traced runs,
which always make two, are sure to check it.

`setup_s` and `run_s` are host-speed corrected: see HOST_PERIOD_S.
The wall times they come from are printed as samples, and a traced run
reports them (less the kernel's time) as `trace.untraced_run_s`.

Metric names, units and directions come from BENCHMARK.json; spec.json
maps each per-layer metric to the end-to-end metric it should move.
"""

import argparse
import copy
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import time
import traceback
from pathlib import Path

from tracing import UNIT_SPAN, Tracer, children, unit_metrics

# numpy is first imported with mgridopt, inside run(): pin BLAS before that
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

DESK_ROUNDS = 10
MC_ROUNDS = 20
MC_TRIALS = 2
MC_SCENARIOS = 4
SETUP_REPEATS = 5
DEFAULT_SEED = 2025

# The host's speed flips between states up to 1.6x apart within seconds
# (2-core shared VM, Xeon at 2.1 GHz), so wall times of one unit spread by
# 20-35% over a set of runs.  During set-up and untraced repetitions a
# timer runs a fixed kernel every HOST_PERIOD_S on the same thread (about
# 2% of the time), which measures the speed the code around it ran at;
# setup_s and run_s are wall times less the kernel's, scaled to the speed
# of the host's fast state, where the kernel takes HOST_QUIET_S.
HOST_PERIOD_S = 0.25
HOST_PIVOTS = 250
HOST_QUIET_S = 0.0055

RESIDUAL_TOL = 1e-9
COUPLING_TOL = 1e-6


class BenchError(RuntimeError):
    """The benchmark cannot run here, or no repetition completed."""


def workload_config(base: dict, workload: str, seed: int) -> dict:
    """The generated program input: the desk config, resized and reseeded."""
    raw = copy.deepcopy(base)
    raw["seeds"]["scenario"] = seed
    algo = raw["algorithm"]
    if workload == "desk":
        algo["iterations"] = DESK_ROUNDS
    elif workload == "allocation":
        algo["finalize_every"] = algo["iterations"]
    elif workload == "montecarlo":
        algo["iterations"] = MC_ROUNDS
        algo["finalize_every"] = MC_ROUNDS
        algo["step_size"] = {"kind": "piecewise", "initial": 3.0,
                             "factor": 0.5, "period": 50}
        raw["scenarios"]["count"] = MC_SCENARIOS
    else:
        raise BenchError(f"unknown workload {workload!r}")
    return raw


def check_result(res) -> list:
    """The per-run correctness gate; returns the failed checks."""
    r = res.result
    bad = []
    if max(r.trace.alloc_residual_all) > RESIDUAL_TOL:
        bad.append("allocation conservation")
    if any(float(c.max()) > COUPLING_TOL for c in r.trace.coupling_vectors):
        bad.append("lifted coupling")
    if not res.certificate.holds:
        bad.append("certificate.holds")
    if not all(a.lifted.base.contains(a.x_mi) for a in r.agents):
        bad.append("finalized point outside its block")
    return bad


def fingerprint(res):
    """(incumbent cost, relaxed cost at the last round, certificate bound)."""
    r = res.result
    return (r.incumbent_cost(), r.trace.relax_cost_all[-1],
            tuple(float(v) for v in res.certificate.bound))


def environment(workload, seed):
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas = "unknown"
    return {"workload": workload, "seed": seed, "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas,
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"]}


def host_kernel_s() -> float:
    """Seconds for a fixed series of dense tableau pivots.

    The simplex's kind of work (small numpy operations and interpreter
    overhead), kept in the benchmark so that it does not change with the
    program.
    """
    import numpy as np

    tab0 = (np.random.default_rng(0).standard_normal((40, 80))
            + 5.0 * np.eye(40, 80))
    tab = tab0.copy()
    rows = np.arange(40)
    t0 = time.perf_counter()
    for k in range(HOST_PIVOTS):
        if k % 200 == 0:
            tab[:] = tab0
        j = int(np.argmin(tab[0, 1:])) + 1
        col = tab[:, j]
        ratio = np.where(col > 1e-9,
                         np.abs(tab[:, 0]) / np.maximum(col, 1e-9), np.inf)
        r = int(np.argmin(ratio))
        if abs(tab[r, j]) > 1e-12:
            tab[r] /= tab[r, j]
        tab -= np.outer(tab[:, j], tab[r]) * (rows != r)[:, None]
    return time.perf_counter() - t0


class HostSampler:
    """Runs the kernel on a timer while installed: (start, end, kernel s)."""

    def __init__(self):
        self.ticks = []

    def _tick(self, signum=None, frame=None):
        start = time.perf_counter()
        k = host_kernel_s()
        self.ticks.append((start, time.perf_counter(), k))

    def __enter__(self):
        self._tick()   # so that every interval has a sample near it
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, HOST_PERIOD_S, HOST_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def measure(self, start, end):
        """(seconds less the kernel's, the same at the quiet speed).

        The speed is the mean of the samples taken inside the interval,
        or of the nearest one when it is shorter than HOST_PERIOD_S.
        """
        inside = [t for t in self.ticks if start <= t[0] and t[1] <= end]
        net = end - start - sum(b - a for a, b, _ in inside)
        near = inside or [min(self.ticks,
                              key=lambda t: max(start - t[1], t[0] - end))]
        speed = statistics.fmean(k for _, _, k in near)
        return net, net * HOST_QUIET_S / speed


def measure_setup(cfg_path, host) -> list:
    """Config parse and validation, build_problem, recourse-cap boxes.

    Returns the host-speed scaled seconds of each set-up.
    """
    from mgridopt import dialgo
    from mgridopt.config import ExperimentConfig, build_problem

    times = []
    with host:
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            cfg = ExperimentConfig.from_yaml(cfg_path)
            problem = build_problem(cfg)
            dialgo.recourse_cap(problem.blocks, problem.scen)
            times.append(host.measure(t0, time.perf_counter())[1])
    return times


def run(workload: str, seed: int, seconds: float, traced: bool):
    import yaml

    desk = ROOT / "configs" / "desk.yaml"
    spec_path = ROOT / "BENCHMARK.json"
    if not (desk.is_file() and spec_path.is_file()):
        raise BenchError("run from the root of an mgridopt checkout")
    from mgridopt import experiment
    from mgridopt.config import ExperimentConfig

    spec = json.loads(spec_path.read_text())
    out = ROOT / ".perfbench_out" / workload
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    print(json.dumps({"env": environment(workload, seed)}), flush=True)

    cfg_path = out / "input.yaml"
    base = yaml.safe_load(desk.read_text())
    with open(cfg_path, "w") as fh:
        yaml.safe_dump(workload_config(base, workload, seed), fh,
                       sort_keys=True)
    host = HostSampler()
    host_kernel_s()                # warm-up
    setup_times = measure_setup(cfg_path, host)
    cfg = ExperimentConfig.from_yaml(cfg_path)

    rep_dir = out / "rep"
    per_rep = MC_TRIALS if workload == "montecarlo" else 1
    if workload == "montecarlo":
        def rep():
            experiment.run_montecarlo(cfg, MC_TRIALS, out_dir=rep_dir)
    else:
        def rep():
            experiment.run_experiment(cfg, out_dir=rep_dir)

    # untraced repetitions wrap only the unit call, to time it and keep
    # its result; traced ones wrap every call site
    tracer = Tracer()
    attempted = failed = 0
    reference = None
    wall = {False: [], True: []}   # wall times less the kernel's
    scaled = []                    # run_s samples
    layer_reps = []
    t_start = time.perf_counter()
    rep_times = []
    while True:
        trace_this = traced and len(rep_times) % 2 == 1
        first_span = len(tracer.spans)
        tracer.install(None if trace_this else [UNIT_SPAN])
        t0 = time.perf_counter()
        try:
            if trace_this:
                rep()
            else:
                with host:
                    rep()
        except Exception:
            traceback.print_exc(file=sys.stderr)
        finally:
            tracer.restore()
        rep_times.append(time.perf_counter() - t0)

        raised = sum(1 for s in tracer.spans[first_span:]
                     if s.name == UNIT_SPAN and "error" in s.attrs)
        units, tracer.results = tracer.results, []
        attempted += len(units) + raised
        failed += raised
        prints = [fingerprint(res) for _, res in units]
        if reference is None and len(prints) == per_rep:
            reference = prints
        for j, (span, res) in enumerate(units):
            bad = check_result(res)
            if reference is None or prints[j] != reference[j]:
                bad.append("output differs from the first repetition")
            if bad:
                failed += 1
                print(f"check failed: {', '.join(bad)}", file=sys.stderr)
            if trace_this:
                wall[True].append(span.duration)
            else:
                net, at_quiet = host.measure(span.start, span.end)
                wall[False].append(net)
                scaled.append(at_quiet)
        if trace_this and units:
            layer_reps.append(_rep_layers(tracer.spans, first_span))

        # a traced run needs both an untraced and a traced sample,
        # unless repetitions keep failing
        elapsed = time.perf_counter() - t_start
        enough = (not traced or (wall[False] and wall[True])
                  or elapsed > 4 * seconds)
        if enough and elapsed + statistics.median(rep_times) > seconds:
            break

    # outside the timed region, counted as one more attempt: the stored
    # certificate must be reproducible from the artifacts
    if workload != "montecarlo" and reference is not None:
        attempted += 1
        try:
            if not experiment.recertify(rep_dir)["matches_stored_bound"]:
                raise BenchError("recertify does not match the stored bound")
        except Exception:
            failed += 1
            traceback.print_exc(file=sys.stderr)

    if traced:
        tracer.write(out / "spans.jsonl")
    if reference is None or (traced and not (layer_reps and wall[False])):
        raise BenchError("no repetition completed")

    if traced:
        values, drifted = _layer_values(layer_reps, wall)
        if drifted:
            failed += 1
            print(f"counters differ between repetitions: {drifted}",
                  file=sys.stderr)
        wanted = spec["per_layer"]
    else:
        values = {
            "setup_s": statistics.median(setup_times),
            "run_s": statistics.median(scaled),
            "recovery_gap_eur": statistics.fmean(p[0] - p[1]
                                                 for p in reference),
            "cert_bound_max_kw": statistics.fmean(max(p[2])
                                                  for p in reference),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_frac": (attempted - failed) / attempted,
        }
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    for name, m in metrics.items():
        print(f"{workload:>10}  {name:<44} {m['value']:>14.6g} {m['unit']}")
    for label, xs in (("wall untraced", wall[False]),
                      ("wall traced", wall[True]), ("run_s", scaled),
                      ("setup_s", setup_times)):
        if xs:
            print(f"{workload:>10}  {label} samples ({len(xs)}): "
                  + " ".join(f"{x:.3f}" for x in xs))
    kernel = [k for _, _, k in host.ticks]
    print(f"{workload:>10}  host kernel ({len(kernel)} samples): median "
          f"{statistics.median(kernel):.5f} s, quiet {HOST_QUIET_S} s")
    return {"correct": failed == 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def _rep_layers(spans, first_span):
    """Per-layer metrics of one traced repetition, averaged over its units."""
    kids = children(spans)
    per_unit = [unit_metrics(spans, kids, i)
                for i in range(first_span, len(spans))
                if spans[i].name == UNIT_SPAN and spans[i].parent == -1]
    keys = set().union(*per_unit)
    return {k: statistics.fmean(u.get(k, 0) for u in per_unit) for k in keys}


COUNTER_SUFFIXES = ("busy_s", "self_s", "p50", "p95", "unit_s")


def _layer_values(layer_reps, wall):
    """Medians over traced repetitions, and the counters that differ.

    Counters are deterministic, so they must agree exactly.
    """
    first = layer_reps[0]
    drifted = sorted({k for other in layer_reps[1:] for k, v in first.items()
                      if not k.endswith(COUNTER_SUFFIXES) and other.get(k) != v})
    values = {k: statistics.median(r[k] for r in layer_reps) for k in first}
    values["trace.run_s"] = statistics.median(wall[True])
    values["trace.untraced_run_s"] = statistics.median(wall[False])
    values["trace.overhead_s"] = (values["trace.run_s"]
                                  - values["trace.untraced_run_s"])
    return values, drifted


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("desk", "allocation", "montecarlo"))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds,
                        bool(args.trace))
    except (BenchError, ImportError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
