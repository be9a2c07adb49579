"""Recompute every value the desk and golden tests pin, and report those
that moved.

Run from the repository root; the script puts `src` on `sys.path`, as
the pytest `pythonpath` setting in pyproject.toml does, and `tests`:

    python tests/repin.py

It prints `name: old -> new` for each value that differs from the one
written in its test module and exits 1 if any does, 0 if none does.
Each value comes from the function its test calls, so the script and
the test cannot disagree on how it is computed.  The values stay
written in the test modules: a change that moves one on purpose pastes
the new value there and this script's output into CHANGES.md.
"""

import sys
import tempfile
from pathlib import Path

TESTS = Path(__file__).resolve().parent
sys.path[:0] = [str(TESTS.parent / "src"), str(TESTS)]

import test_desk_digests as desk  # noqa: E402
import test_solver_golden as golden  # noqa: E402


def pinned_and_computed(tmp: Path):
    """Yield (name, pinned value, computed value) for each pinned value."""
    written, work = desk.run_desk(tmp / "desk")
    for name in sorted(desk.ARTIFACT_SHA256.keys() | written.keys()):
        yield (f"ARTIFACT_SHA256[{name}]", desk.ARTIFACT_SHA256.get(name),
               written.get(name))
    for layer in sorted(desk.DESK_WORK.keys() | work.keys()):
        yield f"DESK_WORK[{layer}]", desk.DESK_WORK.get(layer), work.get(layer)
    seen = desk.run_path_solves(tmp / "run_path")
    for key in sorted(desk.RUN_PATH_SOLVES.keys() | seen.keys()):
        yield (f"RUN_PATH_SOLVES[{key}]", desk.RUN_PATH_SOLVES.get(key),
               seen.get(key))
    yield ("BUILD_LP_SHA256", desk.BUILD_LP_SHA256,
           desk.build_lp_digest(tmp / "build"))
    computed = {
        "random_lps_and_their_warm_children":
            golden.random_lps_and_their_warm_children(),
        "special_lps": golden.solved_special_lps()[1],
        "warm_starts_that_go_cold": golden.warm_starts_that_go_cold()[1],
        "enumeration_milps_and_their_node_lps":
            golden.enumeration_milps_and_their_node_lps(),
    }
    for name, value in computed.items():
        yield f"DIGESTS[{name}]", golden.DIGESTS[name], value


def main() -> int:
    moved = 0
    with tempfile.TemporaryDirectory() as tmp:
        for name, old, new in pinned_and_computed(Path(tmp)):
            if old != new:
                print(f"{name}: {old} -> {new}")
                moved += 1
    print(f"{moved} pinned value{'' if moved == 1 else 's'} moved")
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
