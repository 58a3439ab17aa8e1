"""Write the sweep layout control of a change: the parent tree, padded to the change's sizes.

Usage::

    python tools/layout_control.py PARENT_SRC CHANGE_SRC OUT_SRC

Each SRC is a directory that holds the ``thurston_willmore`` package (a
checkout's ``src``).  The script copies PARENT_SRC to OUT_SRC, which must
not exist yet, then appends comment lines to each file that the change
grew, exactly as many bytes as the change added to it.  Files the change
shrank, left level or added are copied as the parent has them, and
``__pycache__`` directories are not copied.  It prints one line per padded
file and one per file it left unpadded for another reason.

Source bytes alone move sweep throughput by about 3%, so a throughput
claim on the sweep is read against this tree as well as the parent: run
the benchmark on a checkout whose ``src`` is OUT_SRC.  A companion of
``ab_items.py``, not a test.
"""

from __future__ import annotations

import shutil
import sys
from pathlib import Path

# Width of a padding line, newline included.
LINE = 72


def padding(nbytes: int) -> bytes:
    """Comment lines of exactly ``nbytes`` bytes; a lone newline stands for one byte."""
    lines = []
    while nbytes > 0:
        width = min(nbytes, LINE)
        lines.append(b"#" * (width - 1) + b"\n")
        nbytes -= width
    return b"".join(lines)


def files(src: Path) -> dict[Path, int]:
    """Every file under ``src`` outside ``__pycache__``, by relative path, with its size."""
    return {
        p.relative_to(src): p.stat().st_size
        for p in sorted(src.rglob("*"))
        if p.is_file() and "__pycache__" not in p.parts
    }


def main(argv: list[str]) -> None:
    if len(argv) != 4:
        sys.exit(__doc__)
    parent, change, out = (Path(a).resolve() for a in argv[1:])
    for src in (parent, change):
        if not (src / "thurston_willmore" / "__init__.py").is_file():
            sys.exit(f"{src} holds no thurston_willmore package")
    if out.exists():
        sys.exit(f"{out} exists; name a new directory")
    shutil.copytree(parent, out, ignore=shutil.ignore_patterns("__pycache__"))
    before, after = files(parent), files(change)
    for name, size in after.items():
        if name not in before:
            print(f"{name}: added by the change, not in the control")
            continue
        growth = size - before[name]
        if growth <= 0:
            continue
        path = out / name
        text = path.read_bytes()
        if text and not text.endswith(b"\n"):
            sys.exit(f"{name}: the parent's file does not end in a newline")
        path.write_bytes(text + padding(growth))
        print(f"{name}: +{growth} bytes of comment lines")
    for name in sorted(before.keys() - after.keys()):
        print(f"{name}: removed by the change, kept in the control")


if __name__ == "__main__":
    main(sys.argv)
