"""Steady-state sphere construction faults in no new memory pages.

The sphere generators evaluate their Gauss panels left of the equator
only, so their (panels, 8) node arrays are 64 KiB at 2049 samples, below
glibc's 128 KiB mmap threshold, and the heap reuses them from call to
call.  (panels, 8) arrays over every panel are 128 KiB: allocating and
freeing them on every call had glibc hand the pages back and fault them
in again, about 120 minor faults per sweep row and 1900 per
``verify_minimality`` call.  The first variation of
``verify_criticality`` linearizes one velocity at a time, on 1-D tangent
arrays of 16 KiB at 2049 samples, also below that threshold.  A CMC
sphere sums its panels for v only when v is read, which the suites do in
the first variation only, and a mode sphere sums s and v when it is
built, which no suite does; so each suite iteration also builds a mode
sphere and reads v of a CMC sphere.  The check runs in a fresh
interpreter with glibc's default allocator settings, so that no other
test's heap state leaks into it.  A failure names the window's faults per
sweep row, criticality call, minimality call and height read.
"""

import json
import os
import platform
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
ROWS = 50

_SCRIPT = textwrap.dedent(
    """
    import json, resource, sys

    from thurston_willmore.experiments import (
        SweepSpec, default_acceptance_grid, sweep, verify_criticality, verify_minimality,
    )
    from thurston_willmore.profile import generate_cmc_sphere, sphere_from_modes

    cases = default_acceptance_grid()

    def minflt():
        return resource.getrusage(resource.RUSAGE_SELF).ru_minflt

    def run(rows, suites):
        # the window's faults by call: each sweep row, each criticality and minimality
        # call, and each suite iteration's height reads
        split = {"sweep rows": [], "criticality calls": [], "minimality calls": [], "height reads": []}
        for i in range(rows):
            g, H = cases[i % len(cases)]
            start = minflt()
            sweep(SweepSpec((g.k,), (g.tau,), (H,)))
            split["sweep rows"].append(minflt() - start)
        for i in range(suites):
            g, H = cases[7 * i % len(cases)]
            start = minflt()
            assert verify_criticality(g, H).passed
            middle = minflt()
            assert verify_minimality(g, H).passed
            end = minflt()
            modes = sphere_from_modes(g, H, [0.05])
            modes.s, modes.v, generate_cmc_sphere(g, H).v
            split["criticality calls"].append(middle - start)
            split["minimality calls"].append(end - middle)
            split["height reads"].append(minflt() - end)
        return split

    run(5, 1)  # warm-up: first calls build caches and grow the heap
    before = minflt()
    split = run(int(sys.argv[1]), 3)
    faults = minflt() - before
    print(json.dumps({"faults": faults, "split": split}))
    """
)


def _run(src: Path) -> subprocess.CompletedProcess:
    """``_SCRIPT`` over ``ROWS`` sweep rows on the package under ``src``, in a fresh interpreter."""
    # glibc's defaults: allocator tunables in the environment would hide the faults
    env = {
        key: value
        for key, value in os.environ.items()
        if not key.startswith("MALLOC_") and key != "GLIBC_TUNABLES"
    }
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", _SCRIPT, str(ROWS)],
        capture_output=True, text=True, env=env, timeout=300,
    )


@pytest.mark.skipif(
    platform.system() != "Linux" or platform.libc_ver()[0] != "glibc",
    reason="page-fault counts of glibc's allocator",
)
def test_steady_state_rows_fault_in_no_pages():
    done = _run(SRC)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    rows = {i: n for i, n in enumerate(result["split"]["sweep rows"]) if n}
    assert result["faults"] / ROWS < 1.0, (
        f"{result['faults']} minor faults in the window: sweep rows {rows} (row: faults, "
        f"nonzero only), criticality calls {result['split']['criticality calls']}, "
        f"minimality calls {result['split']['minimality calls']}, "
        f"height reads {result['split']['height reads']}"
    )
