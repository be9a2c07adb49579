"""The traced benchmark in perfbench/ reaches into the package by name:
every wrapped call site must still resolve, and the run trace must still
carry every field the benchmark reads."""

import dataclasses
import importlib
import importlib.util
import re
from pathlib import Path

from mgridopt.dialgo import RunTrace

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_tracing():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", PERFBENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_call_site_resolves_to_a_callable():
    for module, attr, span in load_tracing().CALL_SITES:
        fn = getattr(importlib.import_module(module), attr, None)
        assert callable(fn), f"{module}.{attr} (span {span}) is gone"


def test_run_trace_keeps_the_fields_the_benchmark_reads():
    read = set()
    for path in PERFBENCH.glob("*.py"):
        read |= set(re.findall(r"\.trace\.(\w+)", path.read_text()))
    assert {"iters", "coupling_vectors", "alloc_residual_all",
            "relax_cost_all"} <= read
    fields = {f.name for f in dataclasses.fields(RunTrace)}
    assert read <= fields, f"RunTrace lost {sorted(read - fields)}"
