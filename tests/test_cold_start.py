"""Cold start and public surface: the package runs on numpy alone.

The closed-form spheres, the mode family and the sampled energies need
numpy only, and nothing in the package imports scipy: the shooting
cross-check lives in the tests (``shooting_oracle.py``).  The suites module
``experiments`` is loaded by ``tw verify`` and ``tw sweep`` only, not by
``tw generate`` or ``tw energy``.  The check runs in a fresh interpreter, so
no other test's imports leak into it.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import thurston_willmore
from thurston_willmore import profile

SRC = Path(__file__).resolve().parents[1] / "src"

_SCRIPT = textwrap.dedent(
    """
    import importlib, json, pkgutil, sys
    from pathlib import Path

    import thurston_willmore
    from thurston_willmore import cli, profile

    grids_at_import = profile._turning_angle_grid.cache_info().currsize
    work = Path(sys.argv[1])
    geo = ["--k", "0", "--tau", "0.5", "--H", "1"]
    runs = [
        ["generate", *geo, "-o", str(work / "s.csv")],
        ["generate", *geo, "--format", "json", "-o", str(work / "s.json")],
        ["energy", str(work / "s.csv"), "--out", str(work / "e.json")],
        ["verify", "criticality", *geo, "--out", str(work / "c.json")],
        ["verify", "identities", *geo, "--out", str(work / "i.json")],
    ]
    codes = [cli.main(argv) for argv in runs[:3]]
    suites = ["thurston_willmore.experiments" in sys.modules]
    codes += [cli.main(argv) for argv in runs[3:]]
    suites.append("thurston_willmore.experiments" in sys.modules)
    submodules = sorted(m.name for m in pkgutil.iter_modules(thurston_willmore.__path__))
    for name in submodules:
        importlib.import_module(f"thurston_willmore.{name}")
    loaded = sorted(m for m in sys.modules if m.startswith("scipy"))
    print(json.dumps({"codes": codes, "scipy": loaded, "submodules": submodules,
                      "grids_at_import": grids_at_import, "suites": suites}))
    """
)

# Public names of the shooting integrator, now in the tests' shooting oracle.
REMOVED = (
    "ProfileState", "StopCondition", "cmc_sigma_rate", "first_integral", "integrate", "ode_rhs"
)
REMOVED_CONSTANTS = ("AXIS_SERIES_S0", "SIGMA_STOP_MARGIN", "DEFAULT_RTOL", "DEFAULT_ATOL")


def test_tw_paths_do_not_import_scipy(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", _SCRIPT, str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["codes"] == [0, 0, 0, 0, 0]
    assert result["submodules"] == [
        "cli", "experiments", "functional", "geometry", "numerics", "profile"
    ]
    assert result["scipy"] == []
    # experiments is loaded by the verify runs, not by generate or energy
    assert result["suites"] == [False, True]
    # the turning-angle grid of sphere_from_modes is built on its first call
    assert result["grids_at_import"] == 0


def test_public_names_resolve_and_the_shooting_names_are_gone():
    for module in (thurston_willmore, profile):
        for name in module.__all__:
            getattr(module, name)
        assert not [name for name in REMOVED if hasattr(module, name)]
    assert not [name for name in REMOVED_CONSTANTS if hasattr(profile, name)]
