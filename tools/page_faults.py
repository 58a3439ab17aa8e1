"""Count the page-fault test's minor faults with the package loaded from source and from .pyc.

Usage::

    python tools/page_faults.py SRC [RUNS]

SRC is a directory that holds the ``thurston_willmore`` package (the
``src`` of a fresh ``git archive`` copy; the verdict moves with the
checkout path, so name the copy the test is to be judged at).  The script
runs the measuring script of ``tests/test_page_faults.py`` (its
``_SCRIPT`` in its environment, by the test's own ``_run``) on that tree
RUNS times (default 1) in each of two ways: from source, with no
``__pycache__`` in the package, and after ``compileall`` has written one,
so that the package loads from ``.pyc``, as it does in a Tier-1 run with
``PYTHONDONTWRITEBYTECODE`` unset.  Per run it prints the window's total
faults, whether the test's bound (fewer than one per sweep row) holds, and
the split by sweep row, criticality call, minimality call and height
read.  It removes the ``__pycache__`` it made, and refuses a package that
already has one.  A companion of ``compare_numerics.py``, not a test.
"""

from __future__ import annotations

import compileall
import json
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tests"))

from test_page_faults import ROWS, _run  # noqa: E402


def caches(package: Path) -> list[Path]:
    return sorted(package.rglob("__pycache__"))


def window(src: Path) -> dict:
    """One run of the test's script on ``src``: the window's faults and their split."""
    done = _run(src)
    if done.returncode:
        sys.exit(done.stderr)
    return json.loads(done.stdout.splitlines()[-1])


def report(label: str, result: dict) -> None:
    faults, split = result["faults"], result["split"]
    verdict = "pass" if faults / ROWS < 1.0 else "FAIL"
    rows = {i: n for i, n in enumerate(split["sweep rows"]) if n}
    print(
        f"{label}: {faults} faults ({verdict}); sweep rows {rows}, "
        f"criticality calls {split['criticality calls']}, "
        f"minimality calls {split['minimality calls']}, height reads {split['height reads']}"
    )


def main(argv: list[str]) -> None:
    if len(argv) not in (2, 3):
        sys.exit(__doc__)
    src = Path(argv[1]).resolve()
    runs = int(argv[2]) if len(argv) == 3 else 1
    package = src / "thurston_willmore"
    if not (package / "__init__.py").is_file():
        sys.exit(f"{src} holds no thurston_willmore package")
    if caches(package):
        sys.exit(f"{package} already has a __pycache__; give a fresh copy")
    try:
        for _ in range(runs):
            report("source", window(src))
            for cache in caches(package):  # written by a run with PYTHONDONTWRITEBYTECODE unset
                shutil.rmtree(cache)
        compileall.compile_dir(package, quiet=1)
        for _ in range(runs):
            report(".pyc", window(src))
    finally:
        for cache in caches(package):
            shutil.rmtree(cache)


if __name__ == "__main__":
    main(sys.argv)
