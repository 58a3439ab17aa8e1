import json
import math
import re
import shlex
import subprocess
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from thurston_willmore import (
    GeometryParams,
    IntegrationError,
    Tolerances,
    energy,
    generate_cmc_sphere,
    sphere_from_modes,
)
from thurston_willmore import cli, experiments, functional, profile
from thurston_willmore.cli import load_profile, main

from shooting_oracle import ProfileState, StopCondition, integrate


def run(args):
    return main([str(a) for a in args])


class TestGenerate:
    def test_generate_writes_profile_and_sidecar(self, tmp_path, capsys):
        out = tmp_path / "sphere.csv"
        assert run(["generate", "--k", 0, "--tau", 0.5, "--H", 1, "-o", out]) == 0
        assert out.exists()
        sidecar = json.loads((tmp_path / "sphere.csv.json").read_text())
        assert sidecar["closure"] == "ClosedSphere"
        # the generator's fixed bounds are echoed with the profile, not as settings
        assert sidecar["tolerances"]["conservation"] == 1e-8
        assert sidecar["config"]["tolerances"] == {}
        prof = load_profile(out)
        assert prof.sigma[0] < 1e-3
        assert abs(prof.sigma[-1] - math.pi) < 1e-3

    def test_existence_violation_exits_2(self, tmp_path, capsys):
        out = tmp_path / "bad.csv"
        assert run(["generate", "--k", -1, "--tau", 0, "--H", 0.5, "-o", out]) == 2
        err = capsys.readouterr().err
        assert "H^2 > -k/4" in err

    def test_zero_H_positive_k_exits_2(self, tmp_path, capsys):
        assert run(["generate", "--k", 1, "--tau", 0.3, "--H", 0, "-o", tmp_path / "m.csv"]) == 2
        assert "H != 0" in capsys.readouterr().err

    def test_flat_round_sphere(self, tmp_path):
        out = tmp_path / "round.csv"
        assert run(["generate", "--k", 0, "--tau", 0, "--H", 1, "-o", out]) == 0
        prof = load_profile(out)
        assert prof.u.max() == pytest.approx(1.0, abs=1e-9)

    def test_perturbed_generation(self, tmp_path):
        out = tmp_path / "pert.csv"
        code = run(
            ["generate", "--k", 0, "--tau", 0.5, "--H", 1,
             "--epsilon", 0.1, "--mode", 1, "-o", out]
        )
        assert code == 0
        prof = load_profile(out)
        assert prof.mean_curvature is None

    def test_inadmissible_perturbation_exits_1(self, tmp_path):
        code = run(
            ["generate", "--k", 0, "--tau", 0.5, "--H", 1,
             "--epsilon", 0.2, "--mode", 1, "-o", tmp_path / "x.csv"]
        )
        assert code == 1

    def test_missing_H_exits_1(self, tmp_path, capsys):
        assert run(["generate", "--k", 0, "--tau", 0.5, "-o", tmp_path / "x.csv"]) == 1

    def test_unwritable_output_exits_3(self, tmp_path):
        target = tmp_path / "no_such_dir" / "sphere.csv"
        assert run(["generate", "--k", 0, "--tau", 0.5, "--H", 1, "-o", target]) == 3

    def test_json_format_round_trip(self, tmp_path, sphere):
        out = tmp_path / "sphere.json"
        csv_out = tmp_path / "sphere.csv"
        assert run(["generate", "--k", 0, "--tau", 0.5, "--H", 1,
                    "--format", "json", "-o", out]) == 0
        assert run(["generate", "--k", 0, "--tau", 0.5, "--H", 1, "-o", csv_out]) == 0
        prof = load_profile(out)
        expected = sphere(0.0, 0.5, 1.0)
        for name in ("s", "u", "v", "sigma"):
            assert np.array_equal(getattr(prof, name), getattr(expected, name))
        # same metadata as the CSV sidecar, apart from the echoed output options
        profile_doc = json.loads(out.read_text())["profile"]
        sidecar = json.loads((tmp_path / "sphere.csv.json").read_text())
        assert sidecar.pop("config")["format"] == "csv"
        assert profile_doc.pop("samples").keys() == {"s", "u", "v", "sigma"}
        assert profile_doc == sidecar

    def test_samples_flag_controls_resolution(self, tmp_path):
        out = tmp_path / "coarse.csv"
        assert run(["generate", "--k", 0, "--tau", 0.5, "--H", 1,
                    "--samples", 1025, "-o", out]) == 0
        assert len(out.read_text().splitlines()) == 1026  # header + samples

    def test_rerun_from_echoed_config_is_bit_identical(self, tmp_path):
        first = tmp_path / "a.csv"
        rerun = tmp_path / "b.csv"
        assert run(["generate", "--k", 0.25, "--tau", -0.5, "--H", 0.8, "-o", first]) == 0
        assert run(["generate", "--config", tmp_path / "a.csv.json", "-o", rerun]) == 0
        assert first.read_bytes() == rerun.read_bytes()

    def test_config_with_retired_integrator_tolerances_loads(self, tmp_path, capsys):
        # sidecars of earlier versions echoed integrator rtol/atol; they load,
        # and the rerun neither uses nor echoes them
        first = tmp_path / "a.csv"
        rerun = tmp_path / "b.csv"
        assert run(["generate", "--k", 0.25, "--tau", -0.5, "--H", 0.8, "-o", first]) == 0
        sidecar = tmp_path / "a.csv.json"
        old = json.loads(sidecar.read_text())
        old["config"]["tolerances"].update(rtol=1e-12, atol=1e-14)
        old["tolerances"].update(rtol=1e-12, atol=1e-14)
        sidecar.write_text(json.dumps(old))
        assert run(["generate", "--config", sidecar, "-o", rerun]) == 0
        assert first.read_bytes() == rerun.read_bytes()
        echoed = json.loads((tmp_path / "b.csv.json").read_text())
        assert not {"rtol", "atol"} & echoed["config"]["tolerances"].keys()
        assert not {"rtol", "atol"} & echoed["tolerances"].keys()
        capsys.readouterr()
        assert run(["generate", "--k", 0, "--tau", 0.5, "--H", 1, "-o", rerun,
                    "--tol-rtol", 1e-3]) == 1
        assert "unrecognized arguments: --tol-rtol" in capsys.readouterr().err

    def test_sidecar_with_retired_generator_tolerances_reproduces_the_profile(self, tmp_path):
        # sidecars of earlier versions echoed the generator's three tolerances
        # and the integrator's rtol/atol under config; all five load and are dropped
        first = tmp_path / "a.csv"
        rerun = tmp_path / "b.csv"
        assert run(["generate", "--k", 0.25, "--tau", -0.5, "--H", 0.8, "-o", first]) == 0
        sidecar = tmp_path / "a.csv.json"
        old = json.loads(sidecar.read_text())
        retired = {"conservation": 1e-8, "closure-identity": 1e-8, "axis-epsilon": 1e-5,
                   "rtol": 1e-12, "atol": 1e-14}
        old["config"]["tolerances"] = retired
        sidecar.write_text(json.dumps(old))
        assert run(["generate", "--config", sidecar, "-o", rerun]) == 0
        assert first.read_bytes() == rerun.read_bytes()
        echoed = json.loads((tmp_path / "b.csv.json").read_text())
        assert echoed["config"]["tolerances"] == {}
        assert echoed["tolerances"] == old["tolerances"]


def _set_column(rows, i, column, value):
    """``rows`` (profile CSV lines) with ``column`` of row ``i`` set to ``value``."""
    cells = rows[i].split(",")
    cells[column] = value
    return [*rows[:i], ",".join(cells), *rows[i + 1:]]


def _scaled_sigma(row):
    """A profile CSV line with sigma halved: the profile turns from 0 to pi/2."""
    s, u, v, sigma, *rest = row.split(",")
    return ",".join([s, u, v, repr(0.5 * float(sigma)), *rest])


class TestEnergy:
    def test_round_trip_energy_matches_in_memory(self, tmp_path, capsys, sphere):
        out = tmp_path / "sphere.csv"
        run(["generate", "--k", 0, "--tau", 0.5, "--H", 1, "-o", out])
        prof = load_profile(out)
        in_memory = energy(prof).E
        report_path = tmp_path / "energy.json"
        assert run(["energy", out, "--out", report_path]) == 0
        payload = json.loads(report_path.read_text())
        assert abs(payload["report"]["E"] - in_memory) < 1e-9
        stdout = capsys.readouterr().out
        assert "E - 4*pi" in stdout

    @pytest.mark.parametrize("suffix", ["csv", "json"])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_every_generated_file_reloads_exactly(self, tmp_path, capsys, sphere, fmt, suffix):
        # the format is read from the file itself, not from its name
        out = tmp_path / f"x.{suffix}"
        assert run(["generate", "--k", 0, "--tau", 0.5, "--H", 1, "--format", fmt, "-o", out]) == 0
        capsys.readouterr()
        assert run(["energy", out]) == 0
        expected = energy(sphere(0.0, 0.5, 1.0)).E
        assert capsys.readouterr().out.splitlines()[0] == f"E = {expected!r}"

    def test_cmc_energy_close_to_4pi(self, tmp_path):
        out = tmp_path / "sphere.csv"
        run(["generate", "--k", -1, "--tau", -0.5, "--H", 0.8, "-o", out])
        report_path = tmp_path / "energy.json"
        run(["energy", out, "--out", report_path])
        payload = json.loads(report_path.read_text())
        assert payload["report"]["E"] == pytest.approx(12.566370614359172, abs=1e-6)
        assert payload["report"]["second_summand"] == pytest.approx(4 * math.pi, abs=1e-6)

    def test_perturbed_energy_exceeds_4pi(self, tmp_path):
        out = tmp_path / "pert.csv"
        run(["generate", "--k", 0, "--tau", 0.5, "--H", 1,
             "--epsilon", 0.1, "--mode", 1, "-o", out])
        report_path = tmp_path / "energy.json"
        run(["energy", out, "--out", report_path])
        payload = json.loads(report_path.read_text())
        assert payload["report"]["E"] > 4 * math.pi + 1e-7

    def test_open_profile_rejected_with_exit_1(self, tmp_path, capsys):
        # a profile whose closure is Open must be refused
        g = GeometryParams(0.0, 0.5)
        p = integrate(g, 0.8, ProfileState(0.0, 0.5, 0.0, 0.3), StopCondition.arclength(2.0))
        path = tmp_path / "open.csv"
        p.to_csv(path)
        assert run(["energy", path]) == 1
        assert "open profile" in capsys.readouterr().err

    def test_missing_profile_exits_3(self, tmp_path):
        assert run(["energy", tmp_path / "nope.csv"]) == 3

    def test_malformed_profile_exits_1(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("s,u\n0.0,0.0\n")
        (tmp_path / "bad.csv.json").write_text("{}")
        assert run(["energy", bad]) == 1

    @pytest.mark.parametrize(
        "text, message",
        [
            ("", "profile CSV is empty"),
            ("\n  \n", "profile CSV is empty"),
            ("s,u,v,sigma\n", "profile CSV has a header but no sample rows"),
        ],
        ids=["empty", "blank", "header-only"],
    )
    def test_profile_without_rows_exits_1_without_warning(self, tmp_path, capsys, text, message):
        # np.loadtxt would warn "input contained no data" before the error line
        path = tmp_path / "rows.csv"
        path.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["energy", path]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err == f"error: malformed profile file {path}: {message}\n"

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda rows: rows[:4], "profile needs at least 5 samples"),
            (lambda rows: _set_column(rows, 10, 1, "-0.5"), "u must be nonnegative"),
            (
                lambda rows: _set_column(rows, 10, 1, "3.0"),
                "profile leaves the domain of the geometry",
            ),
            (
                lambda rows: [_scaled_sigma(row) for row in rows],
                "closed sphere must turn from sigma=0 to sigma=pi",
            ),
        ],
        ids=["four-samples", "negative-u", "u-beyond-domain", "sigma-to-half-pi"],
    )
    def test_invalid_profile_samples_exit_1(self, tmp_path, capsys, sphere, edit, message):
        # k = -1: the domain radius is 2
        path = tmp_path / "sphere.csv"
        sphere(-1.0, -0.5, 0.8).to_csv(path)
        header, *rows = path.read_text().splitlines()
        path.write_text("\n".join([header, *edit(rows)]) + "\n")
        assert run(["energy", path]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err == f"error: malformed profile file {path}: {message}\n"

    @pytest.mark.parametrize(
        "row, column, value", [(100, 1, "nan"), (100, 2, "nan"), (-1, 0, "inf")],
        ids=["u", "v", "last-s-inf"],
    )
    def test_non_finite_sample_exits_1(self, tmp_path, capsys, row, column, value):
        # one error line, no warning: a NaN passes the checks that test for a
        # violation, and an infinite last s would warn in the spacing check
        path = tmp_path / "sphere.csv"
        assert run(["generate", "--k", 0, "--tau", 0.5, "--H", 1, "-o", path]) == 0
        capsys.readouterr()
        header, *rows = path.read_text().splitlines()
        rows = _set_column(rows, row % len(rows), column, value)
        path.write_text("\n".join([header, *rows]) + "\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["energy", path]) == cli.EXIT_CONFIG
        out, err = capsys.readouterr()
        name = header.split(",")[column]
        assert out == ""
        assert err == f"error: malformed profile file {path}: {name} samples must be finite\n"

    def test_missing_sidecar_exits_3(self, tmp_path, capsys, sphere):
        path = tmp_path / "sphere.csv"
        sphere(0.0, 0.5, 1.0).to_csv(path)
        path.with_name("sphere.csv.json").unlink()
        assert run(["energy", path]) == cli.EXIT_IO == 3
        assert capsys.readouterr().err == f"error: missing profile sidecar {path}.json\n"

    def test_non_uniform_profile_exits_1(self, tmp_path, capsys, sphere):
        path = tmp_path / "sphere.csv"
        sphere(0.0, 0.5, 1.0).to_csv(path)
        lines = path.read_text().splitlines(keepends=True)
        s, rest = lines[5].split(",", 1)
        step = float(lines[2].split(",")[0]) - float(lines[1].split(",")[0])
        lines[5] = f"{float(s) + 0.3 * step!r},{rest}"
        path.write_text("".join(lines))
        assert run(["energy", path]) == cli.EXIT_CONFIG == 1
        assert "not uniformly spaced in arclength" in capsys.readouterr().err


class TestVerify:
    def test_criticality_passes_and_writes_report(self, tmp_path):
        out = tmp_path / "crit.json"
        code = run(["verify", "criticality", "--k", 0, "--tau", 0.5, "--H", 1, "--out", out])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["experiment"] == "criticality"
        assert doc["passed"] is True
        assert doc["report"]["max_residual"] < 1e-4

    def test_negative_control_exits_4_and_names_failure(self, tmp_path, capsys):
        out = tmp_path / "neg.json"
        code = run(
            ["verify", "criticality", "--k", 0, "--tau", 0.5, "--H", 1,
             "--alpha", 1, "--beta", 0, "--out", out]
        )
        assert code == 4
        assert "max residual" in capsys.readouterr().err
        doc = json.loads(out.read_text())  # report written even on failure
        assert doc["passed"] is False

    def test_nan_max_residual_is_the_named_failure(self, tmp_path, capsys, monkeypatch):
        # the variations pass; the NaN residual is the check that missed
        monkeypatch.setattr(experiments, "max_interior_residual", lambda *args: math.nan)
        out = tmp_path / "crit.json"
        code = run(["verify", "criticality", "--k", 0, "--tau", 0.5, "--H", 1, "--out", out])
        assert code == cli.EXIT_VERIFICATION
        assert capsys.readouterr().err == "FAILED: max residual nan\n"
        assert json.loads(out.read_text())["passed"] is False

    def test_failing_identity_is_named(self, tmp_path, capsys):
        out = tmp_path / "ids.json"
        code = run(["verify", "identities", *_SPHERE, "--tol-gauss-bonnet", 0, "--out", out])
        assert code == cli.EXIT_VERIFICATION
        doc = json.loads(out.read_text())
        assert doc["passed"] is doc["report"]["passed"] is False
        assert capsys.readouterr().err == f"FAILED: identity check {doc['report']['failed'][0]}\n"

    def test_trace_export(self, tmp_path):
        out = tmp_path / "crit.json"
        trace = tmp_path / "trace.csv"
        run(["verify", "criticality", "--k", 0, "--tau", 0.5, "--H", 1,
             "--out", out, "--trace", trace])
        header = trace.read_text().splitlines()[0]
        assert header == "s,u,sigma,H,K,nu,residual"
        data = np.loadtxt(trace, delimiter=",", skiprows=1)
        assert data.shape[1] == 7
        # the trace is taken along the sphere the suite checked
        assert np.array_equal(data[:, 0], generate_cmc_sphere(GeometryParams(0.0, 0.5), 1.0).s)

    def test_minimality(self, tmp_path):
        out = tmp_path / "min.json"
        code = run(["verify", "minimality", "--k", 1, "--tau", 0, "--H", 1, "--out", out])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["passed"] is True
        entries = doc["report"]["entries"]
        assert len(entries) == 12
        inadmissible = [e for e in entries if not e["admissible"]]
        assert len(inadmissible) == 3
        assert all(e["error"] for e in inadmissible)

    def test_minimality_of_a_small_round_sphere(self, tmp_path):
        # the R^3 sphere of radius 1/902: its energy is 4 pi at any size
        out = tmp_path / "min.json"
        assert run(["verify", "minimality", "--k", 0, "--tau", 0, "--H", 902, "--out", out]) == 0
        report = json.loads(out.read_text())["report"]
        assert abs(report["baseline_E"] - 4.0 * math.pi) < 1e-12

    def test_minimality_plain_willmore_is_a_negative_control(self, tmp_path, capsys):
        # --alpha/--beta reach the suite: plain Willmore misses 4 pi off the space forms
        out = tmp_path / "min.json"
        code = run(["verify", "minimality", "--k", 0, "--tau", 0.5, "--H", 1,
                    "--alpha", 1, "--beta", 0, "--out", out])
        assert code == cli.EXIT_VERIFICATION
        report = json.loads(out.read_text())["report"]
        assert (report["alpha"], report["beta"]) == (1.0, 0.0)
        assert abs(report["baseline_E"] - 4.0 * math.pi) > 0.1
        assert report["baseline_second_summand"] == pytest.approx(4.0 * math.pi, abs=1e-9)
        miss = abs(report["baseline_E"] - 4.0 * math.pi)
        assert capsys.readouterr().err == (
            f"FAILED: baseline |E - 4 pi| {miss:.3e} not below {Tolerances.energy:.3e}\n"
        )

    def test_identities(self, tmp_path):
        out = tmp_path / "ids.json"
        code = run(["verify", "identities", "--k", 0, "--tau", 0.5, "--H", 1, "--out", out])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["report"]["checks"]["h_squared_identity"] < 1e-12

    def test_descent(self, tmp_path):
        out = tmp_path / "descent.json"
        code = run(["verify", "descent", "--k", 0, "--tau", 0.5, "--H", 1, "--out", out])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["report"]["converged"] is True

    def test_descent_builds_final_sphere_with_samples_flag(self, tmp_path, monkeypatch):
        built = []

        def spy(*args, **kwargs):
            profile = sphere_from_modes(*args, **kwargs)
            built.append(len(profile))
            return profile

        monkeypatch.setattr(experiments, "sphere_from_modes", spy)
        out = tmp_path / "descent.json"
        code = run(
            ["verify", "descent", "--k", 0, "--tau", 0.5, "--H", 1,
             "--family-dims", 1, "--samples", 1025, "--out", out]
        )
        assert code == 0
        assert built == [1025]
        assert json.loads(out.read_text())["config"]["samples"] == 1025

    def test_descent_start_outside_the_domain_is_pulled_in(self, tmp_path):
        # apex (1 + 0.2)/0.6 is the domain radius 2: an infinite start energy
        out = tmp_path / "descent.json"
        code = run(
            ["verify", "descent", "--k", -1, "--tau", 0, "--H", 0.6,
             "--epsilon", -0.2, "--mode", 1, "--out", out]
        )
        assert code == 0
        report = json.loads(out.read_text())["report"]
        assert report["converged"] is True
        assert report["start_adjusted"] is True
        assert report["stop_reason"] == "converged"
        eigenvalues = report["hessian_eigenvalues"]
        assert len(eigenvalues) == 3
        assert 0.0 < eigenvalues[0] <= eigenvalues[1] <= eigenvalues[2]

    def test_descent_start_that_cannot_be_pulled_in_exits_1(self, tmp_path, capsys):
        code = run(
            ["verify", "descent", "--k", 0, "--tau", 0.5, "--H", 1,
             "--epsilon", 100, "--mode", 1, "--out", tmp_path / "descent.json"]
        )
        assert code == cli.EXIT_CONFIG
        assert "pulled into the family" in capsys.readouterr().err

    def test_near_boundary_descent_fails_its_final_shape_check(self, tmp_path, capsys):
        out = tmp_path / "descent.json"
        code = run(["verify", "descent", "--k", -1, "--tau", -0.5, "--H", 0.5001, "--out", out])
        assert code == cli.EXIT_VERIFICATION
        assert "final shape check failed after 11 iterations" in capsys.readouterr().err
        assert json.loads(out.read_text())["report"]["stop_reason"] == "final shape check failed"

    def test_descent_failure_names_the_stop_reason(self, tmp_path, capsys):
        code = run(
            ["verify", "descent", "--k", 0, "--tau", 0.5, "--H", 1,
             "--max-iterations", 2, "--out", tmp_path / "descent.json"]
        )
        assert code == cli.EXIT_VERIFICATION
        assert "iteration budget used up after 2 iterations" in capsys.readouterr().err

    @pytest.mark.parametrize("suite, default", [("identities", 0.1), ("descent", 0.2)])
    def test_echoed_epsilon_is_the_one_used(self, tmp_path, suite, default):
        # without --epsilon the suite runs at its default amplitude and echoes
        # no epsilon; given that amplitude, it runs the same and echoes it
        docs = {}
        for name, extra in (("default", []), ("given", ["--epsilon", default])):
            out = tmp_path / f"{name}.json"
            assert run(["verify", suite, *_SPHERE, "--out", out, *extra]) == 0
            docs[name] = json.loads(out.read_text())
        assert "epsilon" not in docs["default"]["config"]
        assert docs["given"]["config"]["epsilon"] == default
        assert docs["default"]["report"] == docs["given"]["report"]

    def test_descent_starts_in_the_echoed_mode(self, tmp_path):
        out = tmp_path / "descent.json"
        assert run(["verify", "descent", *_SPHERE, "--mode", 2, "--out", out]) == 0
        doc = json.loads(out.read_text())
        assert doc["config"]["mode"] == 2
        assert doc["report"]["start_coefficients"] == [0.0, 0.2, 0.0]
        argv = ["verify", "descent", *_SPHERE, "--mode", 2, "--family-dims", 1, "--out", out]
        assert run(argv) == cli.EXIT_CONFIG

    def test_unknown_suite_exits_1(self, tmp_path):
        assert run(["verify", "nonsense", "--k", 0, "--tau", 0.5]) == 1


class TestSweep:
    def test_sweep_writes_table(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "k_values": [-1.0, 0.0], "tau_values": [0.0], "H_values": [0.5, 1.0],
        }))
        out = tmp_path / "table.csv"
        assert run(["sweep", spec, "--out", out]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "k,tau,H,exists,E,max_residual,second_summand,u_max,area,error"
        assert len(lines) == 5
        assert "ExistenceViolation" in lines[1]

    def test_empty_spec(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"k_values": [], "tau_values": [], "H_values": []}))
        out = tmp_path / "empty.csv"
        assert run(["sweep", spec, "--out", out]) == 0
        assert out.read_text().splitlines() == [
            "k,tau,H,exists,E,max_residual,second_summand,u_max,area,error"
        ]

    def test_repeated_runs_bit_identical(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "k_values": [0.0, 1.0], "tau_values": [0.5], "H_values": [0.8],
        }))
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run(["sweep", spec, "--out", a])
        run(["sweep", spec, "--out", b])
        assert a.read_bytes() == b.read_bytes()

    def test_invalid_spec_exits_1(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text("not json")
        assert run(["sweep", spec, "--out", tmp_path / "x.csv"]) == 1

    @pytest.mark.parametrize("text", ["[1, 2]", '"x"', "3"])
    def test_spec_that_is_not_an_object_exits_1(self, tmp_path, capsys, text):
        spec = tmp_path / "spec.json"
        spec.write_text(text)
        out = tmp_path / "x.csv"
        assert run(["sweep", spec, "--out", out]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err == "error: sweep spec must be a JSON object\n"
        assert not out.exists()

    @pytest.mark.parametrize("missing", ["k_values", "tau_values", "H_values"])
    def test_spec_missing_a_list_exits_1_and_names_it(self, tmp_path, capsys, missing):
        # a misspelled key ("H_value") leaves its list missing: no header-only table
        data = {"k_values": [0.0], "tau_values": [0.5], "H_values": [1.0]}
        data[missing[:-1]] = data.pop(missing)
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(data))
        out = tmp_path / "x.csv"
        assert run(["sweep", spec, "--out", out]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err == f"error: sweep spec lacks '{missing}'\n"
        assert not out.exists()

    def test_spec_with_an_unknown_key_exits_1_and_names_it(self, tmp_path, capsys):
        # a misspelled extra key beside the right ones would otherwise be ignored
        data = {"k_values": [0.0], "tau_values": [0.5], "H_values": [1.0], "H_value": [2.0]}
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(data))
        out = tmp_path / "x.csv"
        assert run(["sweep", spec, "--out", out]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err == "error: invalid sweep spec: unknown key 'H_value'\n"
        assert not out.exists()

    def test_missing_spec_exits_1(self, tmp_path):
        assert run(["sweep", tmp_path / "nope.json", "--out", tmp_path / "x.csv"]) == 1


# Every subcommand that generates CMC spheres, with (k, tau, H) = (0, 0.5, 0.7).
_GENERATING = {
    "generate": ["generate"],
    "verify criticality": ["verify", "criticality"],
    "verify minimality": ["verify", "minimality"],
    "verify identities": ["verify", "identities"],
    "sweep": ["sweep"],
}


def _generating_run(command, tmp_path, *flags):
    """Run ``command`` on the test case: exit code, output file, file echoing the config."""
    words = [*_GENERATING[command], "--k", 0, "--tau", 0.5, "--H", 0.7]
    if command == "sweep":
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"k_values": [0], "tau_values": [0.5], "H_values": [0.7]}))
        words = ["sweep", spec]
    out = tmp_path / ("out.csv" if command in ("generate", "sweep") else "out.json")
    code = run([*words, "-o", out, *flags])
    return code, out, out.with_name(out.name + ".json") if out.suffix == ".csv" else out



class TestToleranceFlags:
    def test_tolerance_override_is_echoed(self, tmp_path):
        out = tmp_path / "crit.json"
        assert run(["verify", "criticality", "--k", 0, "--tau", 0.5, "--H", 1, "--out", out,
                    "--tol-residual", 1e-3]) == 0
        assert json.loads(out.read_text())["config"]["tolerances"]["residual"] == 1e-3

    def test_threshold_override_flips_verdict(self, tmp_path):
        out = tmp_path / "crit.json"
        # an absurdly tight residual tolerance turns the passing case red
        code = run(["verify", "criticality", "--k", 0, "--tau", 0.5, "--H", 1,
                    "--out", out, "--tol-residual", 1e-12])
        assert code == 4

    def test_config_file_overridden_by_flags(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"k": 0.0, "tau": 0.5, "H": 0.5}))
        out = tmp_path / "sphere.csv"
        assert run(["generate", "--config", cfg, "--H", 1, "-o", out]) == 0
        sidecar = json.loads((tmp_path / "sphere.csv.json").read_text())
        assert sidecar["config"]["H"] == 1.0

    @pytest.mark.parametrize("command", list(_GENERATING))
    def test_generator_bounds_are_fixed(self, command, tmp_path, capsys, monkeypatch):
        # no command sets the generator's bounds: their former flags are unknown
        for flag in ("--tol-conservation", "--tol-closure-identity", "--tol-axis-epsilon"):
            code, out, _ = _generating_run(command, tmp_path, flag, 1e-30)
            assert code == cli.EXIT_CONFIG, flag
            assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
            assert not out.exists()

        # every sphere generated records the fixed bounds; the echo holds none of them
        used = []
        real = generate_cmc_sphere

        def spy(*args, **kwargs):
            sphere = real(*args, **kwargs)
            used.append(sphere.tolerances)
            return sphere

        monkeypatch.setattr(cli, "generate_cmc_sphere", spy)
        monkeypatch.setattr(experiments, "generate_cmc_sphere", spy)
        code, _, doc = _generating_run(command, tmp_path)
        assert code == 0
        echoed = json.loads(doc.read_text())["config"]["tolerances"]
        assert not echoed.keys() & {"conservation", "closure-identity", "axis-epsilon"}
        assert used and all(recorded == profile._GENERATOR_BOUNDS for recorded in used)

    def test_every_tolerance_is_read_by_some_command(self):
        # each gate has a command that sets it, and every name a command reads is a gate
        read = {name for _, tolerances in cli._READS.values() for name in tolerances}
        assert read == {f.name for f in fields(Tolerances)}
        assert len(fields(Tolerances)) == 10


# Every leaf command on (k, tau, H) = (0, 0.5, 0.7), with the suffix of its output.
_SPHERE = ["--k", "0", "--tau", "0.5", "--H", "0.7"]
_LEAVES = {
    "generate": (["generate", *_SPHERE], ".csv"),
    "energy": (["energy", "sphere.csv"], ".json"),
    "sweep": (["sweep", "spec.json"], ".csv"),
    **{
        f"verify {suite}": (["verify", suite, *_SPHERE], ".json")
        for suite in ("criticality", "minimality", "descent", "identities")
    },
}
_EVERY_FLAG = {
    *(f"--{f.name.replace('_', '-')}" for f in fields(cli.RunConfig) if f.metadata),
    *(f"--tol-{f.name.replace('_', '-')}" for f in fields(Tolerances)),
}


@pytest.fixture(scope="module")
def leaf_docs(tmp_path_factory):
    """A directory with one default run of every leaf command, and the files echoing configs."""
    root = tmp_path_factory.mktemp("leaves")
    assert run(["generate", *_SPHERE, "-o", root / "sphere.csv"]) == 0
    spec = {"k_values": [0], "tau_values": [0.5], "H_values": [0.7]}
    (root / "spec.json").write_text(json.dumps(spec))
    docs = {}
    for leaf in _LEAVES:
        out = root / (leaf.replace(" ", "-") + _LEAVES[leaf][1])
        assert run([*_leaf_argv(root, leaf), "-o", out]) == 0, leaf
        docs[leaf] = _echo_file(out)
    return root, docs


def _leaf_argv(root, leaf):
    return [root / a if a in ("sphere.csv", "spec.json") else a for a in _LEAVES[leaf][0]]


def _echo_file(out):
    return out.with_name(out.name + ".json") if out.suffix == ".csv" else out


class TestReadTable:
    @pytest.mark.parametrize("leaf", list(_LEAVES))
    def test_leaf_takes_and_echoes_only_what_it_reads(self, leaf, leaf_docs, capsys):
        root, docs = leaf_docs
        settings, tolerances = cli._READS[leaf]
        flags = {f"--{name.replace('_', '-')}" for name in settings} | {
            f"--tol-{name.replace('_', '-')}" for name in tolerances
        }
        # --help lists the table's flags, --config and --help, and --trace for criticality
        with pytest.raises(SystemExit) as exc:
            main([*leaf.split(), "--help"])
        assert exc.value.code == 0
        listed = set(re.findall(r"--[A-Za-z](?:[A-Za-z-]*[A-Za-z])?", capsys.readouterr().out))
        extra = {"--trace"} if leaf == "verify criticality" else set()
        assert listed == flags | {"--config", "--help"} | extra

        # the echoed configuration is the table, tolerances at their defaults;
        # a suite run at its default amplitude echoes no epsilon
        echoed = json.loads(docs[leaf].read_text())["config"]
        defaulted = {"epsilon"} if leaf in cli._DEFAULT_EPSILON else set()
        assert echoed.keys() == {*settings, "tolerances"} - defaulted
        assert echoed["tolerances"] == {
            name.replace("_", "-"): getattr(Tolerances, name) for name in tolerances
        }

        # a flag outside the table is a configuration error
        argv = _leaf_argv(root, leaf)
        for flag in sorted(_EVERY_FLAG - flags):
            capsys.readouterr()
            assert run([*argv, flag, "1", "-o", root / "unused.json"]) == cli.EXIT_CONFIG, flag
            assert "unrecognized arguments" in capsys.readouterr().err

        # the config echoed by any command loads into this one and changes nothing here
        for source, doc in docs.items():
            out = root / f"rerun-{leaf}-{source}{_LEAVES[leaf][1]}".replace(" ", "-")
            assert run([*argv, "--config", doc, "-o", out]) == 0, source
            rerun_config = json.loads(_echo_file(out).read_text())["config"]
            assert {**rerun_config, "out": None} == {**echoed, "out": None}, source


    def test_config_file_never_sets_the_output_path(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert run(["generate", *_SPHERE, "-o", "P.csv"]) == 0
        profile, sidecar = (tmp_path / "P.csv").read_bytes(), (tmp_path / "P.csv.json").read_bytes()
        assert json.loads(sidecar)["config"]["out"] == "P.csv"
        assert run(["energy", "P.csv", "--config", "P.csv.json"]) == 0
        assert run(["generate", "--config", "P.csv.json"]) == cli.EXIT_CONFIG  # requires --out
        assert run(["verify", "criticality", "--config", "P.csv.json"]) == 0
        assert (tmp_path / "verify_criticality.json").exists()
        assert (tmp_path / "P.csv").read_bytes() == profile
        assert (tmp_path / "P.csv.json").read_bytes() == sidecar


class TestExitCodes:
    @pytest.mark.parametrize("samples", [7, 10])
    def test_bad_sample_count_is_a_config_error(self, tmp_path, capsys, samples):
        out = tmp_path / "s.csv"
        code = run(["generate", "--k", 0, "--tau", 0.5, "--H", 1, "--samples", samples, "-o", out])
        assert code == 1
        assert capsys.readouterr().err == "error: samples must be odd and at least 21\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", [["verify", "criticality"], ["verify", "identities"], ["sweep"]])
    @pytest.mark.parametrize("samples", [9, 19])
    def test_samples_below_the_stencil_floor_are_a_config_error(
        self, tmp_path, capsys, command, samples
    ):
        # the spacing-FD_STRIDE stencils need 5 * FD_STRIDE samples: 21 is the least odd count
        assert cli._LEAST_SAMPLES == 5 * functional.FD_STRIDE + 1 == 21
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"k_values": [0], "tau_values": [0.5], "H_values": [1]}))
        words = [*command, spec] if command == ["sweep"] else [*command, *_SPHERE]
        out = tmp_path / "out.json"
        assert run([*words, "--samples", samples, "-o", out]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err == "error: samples must be odd and at least 21\n"
        assert not out.exists()
        # at the floor the command runs; so coarse a sphere may miss the suite's thresholds
        assert run([*words, "--samples", 21, "-o", out]) in (cli.EXIT_OK, cli.EXIT_VERIFICATION)

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["generate", "--epsilon", 0.1, "--mode", 0], "mode must be at least 1"),
            (["generate", "--epsilon", "nan"], "epsilon must be finite"),
            (["verify", "descent", "--family-dims", 0], "family_dims must be at least 1"),
            (["verify", "descent", "--epsilon", 0.05, "--mode", 4], "mode 4 exceeds family_dims 3"),
            (["verify", "descent", "--max-iterations", -3], "max_iterations must be at least 0"),
            (["verify", "identities", "--seed", -1], "seed must be at least 0"),
            (["verify", "identities", "--tol-identity", "nan"], "tol-identity must be finite"),
        ],
        ids=[
            "mode-0", "epsilon-nan", "family-dims-0", "mode-beyond-dims", "negative-budget",
            "negative-seed", "tolerance-nan",
        ],
    )
    def test_bad_setting_is_a_config_error(self, tmp_path, capsys, argv, message):
        out = tmp_path / "out.json"
        code = run([*argv, "--k", 0, "--tau", 0.5, "--H", 1, "-o", out])
        assert code == cli.EXIT_CONFIG == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, name",
        [
            (["verify", "minimality", "--tol-min-excess", -5], "min-excess"),
            (["verify", "criticality", "--tol-residual", -1], "residual"),
            (["verify", "descent", "--tol-descent-coeff", -1], "descent-coeff"),
        ],
    )
    def test_negative_tolerance_is_a_config_error(self, tmp_path, capsys, argv, name):
        # a competitor 5 below the sphere's energy would pass as the minimum
        out = tmp_path / "out.json"
        code = run([*argv, "--k", 0, "--tau", 0.5, "--H", 1, "-o", out])
        assert code == cli.EXIT_CONFIG == 1
        value = float(argv[-1])
        assert capsys.readouterr().err == (
            f"error: tol-{name} must be finite and at least 0, got {value}\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, entry, message",
        [
            (["generate"], {"samples": "many"}, "samples in config file must be int, got 'many'"),
            (
                ["verify", "minimality"],
                {"tolerances": {"energy": "abc"}},
                "tol-energy in config file must be float, got 'abc'",
            ),
        ],
    )
    def test_non_numeric_config_value_is_a_config_error(
        self, tmp_path, capsys, command, entry, message
    ):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"k": 0.0, "tau": 0.5, "H": 1.0, **entry}))
        out = tmp_path / "out.json"
        assert run([*command, "--config", cfg, "-o", out]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("config_key", [None, "config"])
    def test_unknown_config_key_is_a_config_error(self, tmp_path, capsys, config_key):
        # bare, or unwrapped from an output's "config" echo
        settings = {"k": 0.0, "tau": 0.5, "H": 1.0, "sampels": 1025}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({config_key: settings} if config_key else settings))
        out = tmp_path / "out.csv"
        assert run(["generate", "--config", cfg, "-o", out]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err == "error: unknown setting 'sampels' in config file\n"
        assert not out.exists()

    def test_setting_another_command_reads_is_not_unknown(self, tmp_path):
        # one config file may serve several commands: each drops what it does not read
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"k": 0.0, "tau": 0.5, "H": 1.0, "seed": 3, "family_dims": 2}))
        assert run(["generate", "--config", cfg, "-o", tmp_path / "out.csv"]) == cli.EXIT_OK

    def test_negative_tolerance_in_config_file_is_a_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"k": 0.0, "tau": 0.5, "H": 1.0, "tolerances": {"energy": -1}}))
        out = tmp_path / "out.json"
        assert run(["verify", "minimality", "--config", cfg, "-o", out]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err.startswith("error: tol-energy must be finite and at least 0")
        assert not out.exists()

    def test_generate_without_geometry_is_a_config_error(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        assert run(["generate", "--H", 1, "-o", out]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err == (
            "error: k and tau are required (flags --k/--tau or config file)\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        "entry, message",
        [
            ({"tolerances": 5}, "config file must be a JSON object, its tolerances one too"),
            ({"tolerances": {"bogus": 1}}, "unknown tolerance 'bogus' in config file"),
            ({"format": "xml"}, "format must be csv or json, got 'xml'"),
        ],
        ids=["tolerances-not-object", "unknown-tolerance", "unknown-format"],
    )
    def test_bad_config_file_entry_is_a_config_error(self, tmp_path, capsys, entry, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"k": 0.0, "tau": 0.5, "H": 1.0, **entry}))
        out = tmp_path / "x.csv"
        assert run(["generate", "--config", cfg, "-o", out]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", [["generate"], ["verify", "criticality"]])
    @pytest.mark.parametrize("H", ["nan", "inf"])
    def test_non_finite_H_is_a_config_error(self, tmp_path, capsys, command, H):
        # not a nonexistence verdict (exit 2): no sphere was asked for
        out = tmp_path / "out.json"
        code = run([*command, "--k", 0, "--tau", 0.5, "--H", H, "-o", out])
        assert code == cli.EXIT_CONFIG == 1
        assert capsys.readouterr().err == f"error: H must be finite, got {H}\n"
        assert not out.exists()

    @pytest.mark.parametrize("k, H", [(-4, "1.0000000000008"), (-1000000, "500.00000000000006")])
    def test_apex_at_the_domain_radius_is_nonexistence(self, tmp_path, capsys, k, H):
        # the existence check decides it, not a generator post-condition (exit 5)
        out = tmp_path / "edge.csv"
        code = run(["generate", "--k", k, "--tau", 0, "--H", H, "-o", out])
        assert code == cli.EXIT_EXISTENCE == 2
        assert "apex 1/|H| reaches the domain radius" in capsys.readouterr().err
        assert not out.exists()

    def test_integration_error_has_its_own_code(self, tmp_path, capsys, monkeypatch):
        def failing(*args, **kwargs):
            raise IntegrationError("sphere failed to close")

        monkeypatch.setattr(cli, "generate_cmc_sphere", failing)
        out = tmp_path / "s.csv"
        code = run(["generate", "--k", 0, "--tau", 0.5, "--H", 0.7, "-o", out])
        assert code == cli.EXIT_INTEGRATION == 5
        assert capsys.readouterr().err == "error: sphere failed to close\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "command",
        [["generate"], ["generate", "--epsilon", 0.05, "--mode", 1], ["verify", "minimality"]],
    )
    def test_non_finite_heights_are_an_integration_error(self, tmp_path, capsys, command):
        # A(u) overflows at tau = 1e200: the generated heights are not finite
        out = tmp_path / "out"
        flag = "-o" if command[0] == "generate" else "--out"
        code = run([*command, "--k", 0, "--tau", 1e200, "--H", 1, flag, out])
        assert code == cli.EXIT_INTEGRATION == 5
        err = capsys.readouterr().err
        assert err == "error: v samples of the generated sphere are not finite\n"
        assert not out.exists()

    def test_uncaught_exception_is_one_error_line(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "s.csv"
        assert run(["generate", "--k", 0, "--tau", 0.5, "--H", 1, "-o", path]) == 0
        capsys.readouterr()

        def broken(*args, **kwargs):
            raise ZeroDivisionError("division by zero")

        monkeypatch.setattr(cli, "energy", broken)
        assert run(["energy", path]) == cli.EXIT_INTERNAL == 6
        assert capsys.readouterr().err == "error: ZeroDivisionError: division by zero\n"


def test_readme_command_block_runs(tmp_path, monkeypatch, capsys):
    # every line of the README's command block, in order, in one directory
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line for line in block.splitlines() if line and not line.startswith("#")]
    assert sum(line.startswith("tw ") for line in lines) == 10
    monkeypatch.chdir(tmp_path)
    for line in lines:
        if line.startswith("tw "):
            expected = cli.EXIT_VERIFICATION if "# exits 4" in line else 0
            assert main(shlex.split(line, comments=True)[1:]) == expected, line
        else:
            subprocess.run(line, shell=True, check=True)


def test_readme_exit_code_table_lists_every_exit_code():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    table = readme.split("Exit codes:", 1)[1].split("\n\n", 2)[1]
    listed = [int(code) for code in re.findall(r"^\| `(\d+)` \|", table, flags=re.M)]
    codes = sorted(value for name, value in vars(cli).items() if name.startswith("EXIT_"))
    assert listed == codes
