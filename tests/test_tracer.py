"""The traced benchmark run wraps names bound in the package's namespaces.

``perfbench/tracer.py`` finds each traced function by identity in the module
namespaces and fails when no namespace binds it, so a refactor that stops
binding one of them (``profile.solve_ivp``, ``profile.brentq``, the
``numerics`` names in ``functional`` and ``experiments``, ...) breaks the
traced run.  This test installs the tracer, runs one call through each
layer, and uninstalls it again.
"""

import importlib.util
import json
import sys
import types
from pathlib import Path

import thurston_willmore
from thurston_willmore import GeometryParams, cli, experiments, functional, numerics, profile

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations through it
    spec.loader.exec_module(module)
    return module


NAMESPACES = (thurston_willmore, profile, functional, numerics, experiments, cli)
TW = types.SimpleNamespace(
    package=thurston_willmore,
    profile=profile,
    functional=functional,
    numerics=numerics,
    experiments=experiments,
    cli=cli,
)


def test_tracer_installs_runs_and_uninstalls():
    tracing = _load_tracer()
    before = [dict(vars(m)) for m in NAMESPACES]
    tracer = tracing.Tracer()
    tracing.install(tracer, TW)
    try:
        assert profile.solve_ivp is not before[1]["solve_ivp"]
        assert profile.brentq is not before[1]["brentq"]
        g = GeometryParams(0.0, 0.5)
        experiments.verify_criticality(g, 1.0)
        experiments.mode_family_energy(g, 1.0, [0.05])
    finally:
        tracer.uninstall()
    assert [dict(vars(m)) for m in NAMESPACES] == before

    metrics = tracing.layer_metrics(tracer.spans)
    # the sphere is generated in closed form; the package calls neither scipy shim
    assert metrics["profile.generate_cmc_sphere.calls"] == 1
    assert metrics["profile.solve_ivp.calls"] == 0
    assert metrics["profile.brentq.calls"] == 0
    # one linearized pass for the three velocity profiles, one on the stride-2 subgrid
    assert metrics["experiments.deformed_curve_energy.calls"] == 2
    assert metrics["functional.energy.calls"] == 1
    assert metrics["functional.max_interior_residual.calls"] == 1
    assert metrics["experiments.mode_family_energy.calls"] == 1
    for name in ("derivative1", "derivative2", "sample_quadrature"):
        assert metrics[f"numerics.{name}.calls"] > 0


def test_descent_energies_are_traced_under_the_descent():
    # the descent evaluates every trial point through the experiments
    # namespace, so its energies are mode_family_energy spans under it
    tracing = _load_tracer()
    tracer = tracing.Tracer()
    tracing.install(tracer, TW)
    try:
        report = experiments.descend_energy(
            GeometryParams(0.0, 0.5), 1.0, 1, start=profile.PerturbationSpec(0.1, 1)
        )
    finally:
        tracer.uninstall()
    metrics = tracing.layer_metrics(tracer.spans)
    assert report.converged
    assert metrics["experiments.descend_energy.iterations"] == report.iterations > 0
    assert metrics["experiments.descend_energy.evals_per_iteration"] > 0
    assert metrics["experiments.mode_family_energy.calls"] > report.iterations


def test_cli_suites_are_traced(tmp_path):
    # tw verify looks each suite up by name when it runs, so the tracer's
    # rebinding of the suite names reaches the CLI path too
    tracing = _load_tracer()
    tracer = tracing.Tracer()
    tracing.install(tracer, TW)
    sphere = ["--k", "0", "--tau", "0.5", "--H", "1"]
    try:
        crit = cli.main(["verify", "criticality", *sphere, "--out", str(tmp_path / "crit.json")])
        out = tmp_path / "descent.json"
        descent = cli.main(["verify", "descent", *sphere, "--family-dims", "1", "--out", str(out)])
    finally:
        tracer.uninstall()
    assert crit == descent == cli.EXIT_OK
    assert [s.name for s in tracer.spans].count("experiments.verify_criticality") == 1
    report = json.loads(out.read_text())["report"]
    metrics = tracing.layer_metrics(tracer.spans)
    assert metrics["experiments.descend_energy.iterations"] == report["iterations"] > 0
