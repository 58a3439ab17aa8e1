"""Time two source trees item by item on one benchmark workload, in one interpreter.

Usage::

    python tools/ab_items.py PARENT_SRC CHANGE_SRC WORKLOAD [ROUNDS]

Each SRC is a directory that holds the ``thurston_willmore`` package (a
checkout's ``src``).  Both trees are loaded into this one interpreter as
distinct packages, ``tw_parent`` and ``tw_change``.  WORKLOAD is one of
the benchmark's workloads: ``sweep``, ``verify``, ``descent`` or ``cli``
(``cli.main`` called in process, in a temporary directory per tree, not
a child process).  The items are those ``perfbench/workloads.py`` builds
for seed 0, ``ROUND_BLOCKS`` blocks of them, the same in every round.

Within a round each item runs once on each tree, back to back, and the
tree that runs first alternates from item to item and from round to
round, so drift of the host's speed cancels within a round.  Per round
the script prints each tree's mean item time and their ratio (change over
parent), then the median ratio, its range and how many rounds each tree
won (ROUNDS defaults to 12).  It also counts the items whose gate verdict
(the workload runner's return value) differs between the trees; the exit
status is 1 if there is any, else 0.  Pin the interpreter to one core
(``taskset -c N python ...``) for steady figures.  A companion of
``compare_numerics.py``, not a test.
"""

from __future__ import annotations

import contextlib
import importlib
import importlib.util
import io
import os
import statistics
import sys
import tempfile
import time
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
ROUND_BLOCKS = {"sweep": 10, "verify": 5, "descent": 1, "cli": 1}
ROUNDS = 12


def load_tree(name: str, src: Path) -> types.SimpleNamespace:
    """The package under ``src`` imported as ``name``, in the shape the workload runners take."""
    root = src.resolve() / "thurston_willmore"
    spec = importlib.util.spec_from_file_location(
        name, root / "__init__.py", submodule_search_locations=[str(root)]
    )
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    modules = {
        module: importlib.import_module(f"{name}.{module}")
        for module in ("profile", "functional", "numerics", "experiments", "cli")
    }
    return types.SimpleNamespace(
        package=package,
        **modules,
        GeometryParams=package.GeometryParams,
        PerturbationSpec=package.PerturbationSpec,
        FunctionalCoefficients=package.FunctionalCoefficients,
    )


def load_workloads():
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules["workloads"] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def item_call(workloads, workload: str, tw, workdir: Path):
    """One item on ``tw``: its gate verdict, None when it passes."""
    if workload != "cli":
        runner = workloads.RUNNERS[workload]
        return lambda item: runner(tw, item)

    def call(item):
        previous = os.getcwd()
        os.chdir(workdir)
        try:
            sink = io.StringIO()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = tw.cli.main(list(item.params[0]))
        finally:
            os.chdir(previous)
        return workloads.check_cli_output(workdir, item, code)

    return call


def main(argv: list[str]) -> int:
    if len(argv) not in (3, 4) or argv[2] not in ROUND_BLOCKS:
        print(__doc__, file=sys.stderr)
        return 2
    workload = argv[2]
    rounds = int(argv[3]) if len(argv) == 4 else ROUNDS
    workloads = load_workloads()
    items = workloads.build_items(workload, 0, ROUND_BLOCKS[workload])
    with tempfile.TemporaryDirectory() as work:
        calls = []
        for name, src in (("tw_parent", argv[0]), ("tw_change", argv[1])):
            workdir = Path(work) / name
            workdir.mkdir()
            calls.append(item_call(workloads, workload, load_tree(name, Path(src)), workdir))
        for call in calls:  # warm-up: caches filled on first use
            call(items[0])
        ratios, disagree = [], 0
        for r in range(rounds):
            totals = [0.0, 0.0]
            for i, item in enumerate(items):
                verdicts = [None, None]
                for side in ((0, 1) if (r + i) % 2 == 0 else (1, 0)):
                    start = time.perf_counter()
                    verdicts[side] = calls[side](item)
                    totals[side] += time.perf_counter() - start
                disagree += verdicts[0] != verdicts[1]
            ratios.append(totals[1] / totals[0])
            parent_ms, change_ms = (1e3 * t / len(items) for t in totals)
            print(
                f"round {r + 1}: parent {parent_ms:.4f} ms/item, change {change_ms:.4f} ms/item, "
                f"ratio {ratios[-1]:.4f}"
            )
    wins = sum(ratio < 1.0 for ratio in ratios)
    print(
        f"{workload}: {len(items)} items x {rounds} rounds; change/parent item time median "
        f"{statistics.median(ratios):.4f}, range {min(ratios):.4f}-{max(ratios):.4f}; "
        f"change faster in {wins} of {rounds} rounds, parent in {rounds - wins}; "
        f"{disagree} item runs with differing verdicts"
    )
    return 1 if disagree else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
