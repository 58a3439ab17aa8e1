"""Compare the ``tw`` outputs of two source trees byte for byte.

Usage::

    python tools/compare_outputs.py PARENT_SRC CHANGE_SRC

Each argument is a directory that holds the ``thurston_willmore`` package
(a checkout's ``src``).  For each tree, in a temporary directory of its
own, the script runs the README's command block in order, then
``EXTRA_RUNS``: 57 ``tw`` runs in all, as ``python -m
thurston_willmore.cli`` with that tree first on ``PYTHONPATH``.  Every
path is relative to the temporary directory, so no output names it.
After each run it reads every file in the directory.  It prints each
difference between the trees in a run's exit code, stdout or stderr, and
in the name set or the bytes of the files after it, with the key paths
at which two JSON files differ; the exit status is 1 if there is any,
else 0.
"""

from __future__ import annotations

import json
import os
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"

# The runs after the README block: more formats, sample counts and
# geometries (at the least count, 21, the edge formulas write 16 of the 21
# samples of each stride-4 stencil), each suite passing and failing, a
# configuration error, a profile whose name does not match its format,
# profile files with no rows, a NaN sample or an infinite last s, a config
# file with the retired generator and integrator tolerances (its profile
# must equal the README's sphere.csv), a retired generator tolerance flag,
# spheres far from unit size (generated, and radius 1e-7 and 1e-3 in the
# minimality suite), spheres whose apex reaches the domain radius to within
# the apex margin (k = -4 and k = -1e6: nonexistence, exit 2; also in the
# minimality suite), one whose samples next to sigma = pi round to pi
# (exit 5), and every command's help.
EXTRA_RUNS = [
    "tw generate --k 0 --tau 0.5 --H 1 --format json -o sphere.json",
    "tw generate --k 0 --tau 0.5 --H 1 --epsilon 0.1 --mode 2 --format json -o mode2.json",
    "tw generate --k 0.25 --tau 0.3 --H -0.8 --samples 257 -o negative.csv",
    "tw energy bumpy.csv --out energy_bumpy.json",
    "tw energy mode2.json --out energy_mode2.json",
    "tw energy sphere.json --out energy_sphere_json.json",
    "tw verify minimality --k 0 --tau 0.5 --H 1 --out min.json",
    "tw verify minimality --k -1 --tau -0.5 --H 0.8 --alpha 1 --beta 0 --out min_plain.json",
    "tw verify minimality --k 1 --tau 0.3 --H 0.6 --samples 1025 --out min_1025.json",
    "tw verify descent --k 0 --tau 0.5 --H 1 --family-dims 1 --out descent1.json",
    "tw verify descent --k -1 --tau -0.5 --H 0.8 --family-dims 3 --out descent3.json",
    "tw verify descent --k -1 --tau -0.5 --H 0.5001 --out descent_edge.json",
    "tw verify identities --k -1 --tau -0.5 --H 0.8 --epsilon 0.05 --mode 2 --out ident.json",
    "tw verify criticality --k -1 --tau -0.5 --H 0.8 --samples 8193 --out crit_8193.json",
    "tw verify criticality --k -1 --tau -0.5 --H 0.8 --samples 21"
    " --trace trace_21.csv --out crit_21.json",
    "tw sweep spec.json --samples 1025 --out table_1025.csv",
    "tw generate --k 0 --tau 0.5 --H 1 --samples 20 -o even.csv",
    "tw generate --k 0 --tau 0.5 --H 1 --format json -o json_named.csv",
    "tw generate --k 0 --tau 0.5 --H 1 --format csv -o csv_named.json",
    "tw energy json_named.csv",
    "tw energy csv_named.json",
    ": > empty.csv",
    "printf 's,u,v,sigma\\n' > header_only.csv",
    "tw energy empty.csv",
    "tw energy header_only.csv",
    "tw generate --k 0 --tau 0.5 --H 1 -o nan_u.csv",
    "awk -F, -v OFS=, 'NR == 101 {$2 = \"nan\"} 1' nan_u.csv > edited.csv"
    " && mv edited.csv nan_u.csv",
    "tw energy nan_u.csv",
    "tw generate --k 0 --tau 0.5 --H 1 -o inf_s.csv",
    "awk -F, -v OFS=, 'NR == 2050 {$1 = \"inf\"} 1' inf_s.csv > edited.csv"
    " && mv edited.csv inf_s.csv",
    "tw energy inf_s.csv",
    "printf '{\"k\": 0, \"tau\": 0.5, \"H\": 1, \"tolerances\": {\"conservation\": 1e-08,"
    " \"closure-identity\": 1e-08, \"axis-epsilon\": 1e-05, \"rtol\": 1e-12,"
    " \"atol\": 1e-14}}' > retired.json",
    "tw generate --config retired.json -o retired.csv",
    "cmp sphere.csv retired.csv",
    "tw generate --k 0 --tau 0.5 --H 1 --tol-closure-identity 1e-8 -o retired_flag.csv",
    "tw generate --k 0 --tau 0 --H 2000 -o big.csv",
    "tw generate --k 0 --tau 0 --H 1e-6 -o huge.csv",
    "tw generate --k 1e-30 --tau 0 --H 1e-9 -o huge_positive_k.csv",
    "tw generate --k -4 --tau 0 --H 1.0000000000008 -o edge.csv",
    "tw generate --k -1000000 --tau 0 --H 500.00000000000006 -o edge_small.csv",
    "tw generate --k 4 --tau 0 --H 1e-14 -o flat_turn.csv",
    "tw verify minimality --k 0 --tau 0 --H 902 --out min_902.json",
    "tw verify minimality --k 0 --tau 0 --H 1e7 --out min_1e7.json",
    "tw verify minimality --k -4 --tau 0 --H 1.0000000001 --out min_edge.json",
    "tw --help",
    "tw verify --help",
    "tw generate --help",
    "tw energy --help",
    "tw sweep --help",
    "tw verify criticality --help",
    "tw verify minimality --help",
    "tw verify descent --help",
    "tw verify identities --help",
]


def readme_runs() -> list[str]:
    """The non-comment lines of the README's command block, in order."""
    text = README.read_text()
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line and not line.startswith("#")]


def run_all(src: Path, runs: list[str]) -> list[tuple]:
    """Per run: the command, exit code, stdout, stderr and every file's bytes after it."""
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    results = []
    with tempfile.TemporaryDirectory() as work:
        for line in runs:
            if line.startswith("tw "):
                words = shlex.split(line, comments=True)[1:]
                argv = [sys.executable, "-m", "thurston_willmore.cli", *words]
                done = subprocess.run(argv, cwd=work, env=env, capture_output=True)
            else:
                done = subprocess.run(line, shell=True, cwd=work, env=env, capture_output=True)
            files = {p.name: p.read_bytes() for p in sorted(Path(work).iterdir()) if p.is_file()}
            results.append((line, done.returncode, done.stdout, done.stderr, files))
    return results


def _key_paths(a, b, path: str) -> list[str]:
    """The key paths at which JSON values ``a`` and ``b`` differ, a key on one side marked so."""
    if isinstance(a, dict) and isinstance(b, dict):
        found = []
        for key in sorted(a.keys() | b.keys()):
            where = f"{path}.{key}" if path else key
            if key not in b:
                found.append(f"{where} (parent only)")
            elif key not in a:
                found.append(f"{where} (change only)")
            else:
                found += _key_paths(a[key], b[key], where)
        return found
    return [] if a == b else [path or "(top level)"]


def _json_differences(x: bytes | None, y: bytes | None) -> str:
    """For two JSON files, ``" at "`` and the key paths where they differ; else nothing."""
    try:
        return " at " + ", ".join(_key_paths(json.loads(x), json.loads(y), ""))
    except (TypeError, ValueError):
        return ""


def differences(parent: list[tuple], change: list[tuple]) -> list[str]:
    """Each run's differences; a file is compared after the runs that write it."""
    out = []
    before_a, before_b = {}, {}
    for (line, *a), (_, *b) in zip(parent, change, strict=True):
        for name, x, y in zip(("exit code", "stdout", "stderr"), a[:3], b[:3]):
            if x != y:
                out.append(f"{line}\n  {name}: {x!r} -> {y!r}")
        files_a, files_b = a[3], b[3]
        written = {n for files, before in ((files_a, before_a), (files_b, before_b))
                   for n in files if files[n] != before.get(n)}
        for name in sorted(written):
            x, y = files_a.get(name), files_b.get(name)
            if x != y:
                state = "differs" if x is not None and y is not None else "exists on one side"
                out.append(f"{line}\n  {name} {state}{_json_differences(x, y)}")
        before_a, before_b = files_a, files_b
    return out


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    runs = readme_runs() + EXTRA_RUNS
    parent, change = (run_all(Path(root).resolve(), runs) for root in argv)
    found = differences(parent, change)
    for text in found:
        print(text)
    count = sum(line.startswith("tw ") for line in runs)
    print(f"{count} tw runs, {len(found)} differences")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
