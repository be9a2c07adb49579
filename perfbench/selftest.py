"""Self-tests of the benchmark; run from the root of a source checkout.

    python3 perfbench/selftest.py    # about two minutes

1. Two traced runs of a shortened desk workload report identical counters.
2. Traced and untraced runs write byte-identical artifacts.
3. The correctness gate rejects a broken result.
4. Every per-layer metric in BENCHMARK.json is produced by a traced run.
5. A traced run of the shipped configs/desk.yaml reproduces the anchor
   counts in spec.json exactly.

Exits 0 when every check passes, 1 otherwise.
"""

import copy
import json
import shutil
import sys
from pathlib import Path

import run as bench  # pins BLAS threads and puts src/ on sys.path
import tracing

HERE = Path(__file__).resolve().parent
OUT = bench.ROOT / ".perfbench_out" / "selftest"
SHORT_ROUNDS = 3


def traced_unit(cfg, out_dir):
    """One traced run_experiment: (result, per-layer metrics)."""
    from mgridopt import experiment

    tracer = tracing.Tracer()
    tracer.install()
    try:
        res = experiment.run_experiment(cfg, out_dir=out_dir)
    finally:
        tracer.restore()
    kids = tracing.children(tracer.spans)
    return res, tracing.unit_metrics(tracer.spans, kids, 0)


def counters(metrics):
    return {k: v for k, v in metrics.items()
            if not k.endswith(bench.COUNTER_SUFFIXES)}


def files_of(path):
    return {p.name: p.read_bytes() for p in sorted(path.iterdir())}


def main():
    import yaml
    from mgridopt import experiment
    from mgridopt.config import ExperimentConfig

    shutil.rmtree(OUT, ignore_errors=True)
    OUT.mkdir(parents=True)
    desk = yaml.safe_load((bench.ROOT / "configs" / "desk.yaml").read_text())
    raw = copy.deepcopy(desk)
    raw["algorithm"]["iterations"] = SHORT_ROUNDS
    short = ExperimentConfig.from_dict(raw)
    failures = []

    def report(name, ok, detail=""):
        print(f"{'PASS' if ok else 'FAIL'}  {name}  {detail}".rstrip())
        if not ok:
            failures.append(name)

    res_a, m_a = traced_unit(short, OUT / "traced_a")
    _, m_b = traced_unit(short, OUT / "traced_b")
    report("traced counters repeat", counters(m_a) == counters(m_b),
           f"{len(counters(m_a))} counters")

    experiment.run_experiment(short, out_dir=OUT / "untraced")
    same = files_of(OUT / "untraced") == files_of(OUT / "traced_a")
    report("traced and untraced artifacts byte-identical", same)

    report("gate passes a good result", bench.check_result(res_a) == [])
    broken = copy.deepcopy(res_a)
    broken.result.trace.alloc_residual_all[-1] = 1.0
    broken.result.agents[0].x_mi = broken.result.agents[0].x_mi + 1e3
    bad = bench.check_result(broken)
    report("gate rejects a broken result",
           "allocation conservation" in bad
           and "finalized point outside its block" in bad, ", ".join(bad))

    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    m_a.update({"trace.run_s": 0.0, "trace.untraced_run_s": 0.0,
                "trace.overhead_s": 0.0})
    missing = [m["name"] for m in spec["per_layer"] if m["name"] not in m_a]
    report("every per-layer metric is produced", not missing,
           ", ".join(missing))

    anchors = json.loads((HERE / "spec.json").read_text())["anchors"]
    _, m = traced_unit(ExperimentConfig.from_dict(desk), OUT / "desk_full")
    diff = {k: (m.get(k), want) for k, want in anchors["counts"].items()
            if m.get(k) != want}
    report("full desk run reproduces the anchor counts", not diff,
           json.dumps(diff) if diff else "")
    total = m["trace.unit_s"]
    parts = " + ".join(f"{layer} {m[f'{layer}.self_s']:.2f}"
                       for layer in tracing.LAYERS)
    print(f"      full desk run {total:.2f} s = self times {parts} s")
    shares = ", ".join(f"{key} {m[key] / total:.0%}" for key in (
        "bnb.finalize.busy_s", "simplex.alloc.busy_s",
        "analysis.certificate.busy_s", "simplex.box.busy_s"))
    print(f"      shares of the run: {shares}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
