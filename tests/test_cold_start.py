"""Cold start: no ``tw`` path but ``integrate`` imports scipy.

The closed-form spheres, the mode family and the sampled energies need
numpy only; scipy (about 0.9 s to import) is loaded on the first call of
``profile.solve_ivp``, the shim :func:`thurston_willmore.profile.integrate`
calls.  The check runs in a fresh interpreter, so no other test's imports
leak into it.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

_SCRIPT = textwrap.dedent(
    """
    import json, sys
    from pathlib import Path

    from thurston_willmore import GeometryParams, ProfileState, StopCondition, cli, profile

    work = Path(sys.argv[1])
    geo = ["--k", "0", "--tau", "0.5", "--H", "1"]
    runs = [
        ["generate", *geo, "-o", str(work / "s.csv")],
        ["generate", *geo, "--format", "json", "-o", str(work / "s.json")],
        ["energy", str(work / "s.csv"), "--out", str(work / "e.json")],
        ["verify", "criticality", *geo, "--out", str(work / "c.json")],
        ["verify", "identities", *geo, "--out", str(work / "i.json")],
    ]
    codes = [cli.main(argv) for argv in runs]
    loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

    import scipy.integrate

    real, calls = scipy.integrate.solve_ivp, []

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    scipy.integrate.solve_ivp = counting
    axis = ProfileState(0.0, 0.0, 0.0, 0.0)
    shot = profile.integrate(GeometryParams(0.0, 0.5), 1.0, axis, StopCondition.sphere_closure(10.0))
    print(json.dumps({"codes": codes, "scipy": loaded, "solve_ivp_calls": len(calls),
                      "samples": len(shot)}))
    """
)


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
    assert result["scipy"] == []
    # integrate still shoots through the real scipy solver, once
    assert result["solve_ivp_calls"] == 1
    assert result["samples"] == 2049
