import json
import math
import re
from dataclasses import fields

import numpy as np
import pytest

from thurston_willmore import (
    GeometryParams,
    Tolerances,
    energy,
    generate_cmc_sphere,
    sphere_from_modes,
)
from thurston_willmore import cli, experiments
from thurston_willmore.cli import load_profile, main


def run(args):
    return main([str(a) for a in args])


class TestGenerate:
    def test_generate_writes_profile_and_sidecar(self, tmp_path, capsys):
        out = tmp_path / "sphere.csv"
        assert run(["generate", "--k", 0, "--tau", 0.5, "--H", 1, "-o", out]) == 0
        assert out.exists()
        sidecar = json.loads((tmp_path / "sphere.csv.json").read_text())
        assert sidecar["closure"] == "ClosedSphere"
        assert sidecar["config"]["tolerances"]["conservation"] == 1e-8
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
        import thurston_willmore as tw

        g = tw.GeometryParams(0.0, 0.5)
        p = tw.integrate(
            g, 0.8, tw.ProfileState(0.0, 0.5, 0.0, 0.3), tw.StopCondition.arclength(2.0)
        )
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
        assert "FAILED: minimality thresholds" in capsys.readouterr().err

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

    def test_missing_spec_exits_1(self, tmp_path):
        assert run(["sweep", tmp_path / "nope.json", "--out", tmp_path / "x.csv"]) == 1


# Every subcommand that generates CMC spheres, with (k, tau, H) = (0, 0.5, 0.7):
# there the sphere identity sin(sigma) = H u holds to one rounding, 1.1e-16.
_GENERATING = {
    "generate": ["generate"],
    "verify criticality": ["verify", "criticality"],
    "verify minimality": ["verify", "minimality"],
    "verify identities": ["verify", "identities"],
    "sweep": ["sweep"],
}


def _generating_run(command, tmp_path, *flags):
    """Run ``command`` on the test case: exit code, output file, file echoing the config."""
    words = list(_GENERATING[command])
    if command == "sweep":
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"k_values": [0], "tau_values": [0.5], "H_values": [0.7]}))
        words.append(spec)
    out = tmp_path / ("out.csv" if command in ("generate", "sweep") else "out.json")
    code = run([*words, "--k", 0, "--tau", 0.5, "--H", 0.7, "-o", out, *flags])
    return code, out, out.with_name(out.name + ".json") if out.suffix == ".csv" else out



class TestToleranceFlags:
    def test_tolerance_override_is_echoed(self, tmp_path):
        out = tmp_path / "sphere.csv"
        run(["generate", "--k", 0, "--tau", 0.5, "--H", 1, "-o", out,
             "--tol-conservation", 1e-6])
        sidecar = json.loads((tmp_path / "sphere.csv.json").read_text())
        assert sidecar["config"]["tolerances"]["conservation"] == 1e-6

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
    def test_generator_runs_with_the_echoed_tolerances(
        self, command, tmp_path, capsys, monkeypatch
    ):
        # a tightened generator tolerance reaches the generator
        code, out, doc = _generating_run(command, tmp_path, "--tol-closure-identity", 1e-30)
        if command == "sweep":
            assert code == 0
            error = out.read_text().splitlines()[1].split(",", 9)[9]
            assert error.startswith("IntegrationError: sphere identity residual")
            echoed = json.loads(doc.read_text())["config"]["tolerances"]
            assert echoed["closure-identity"] == 1e-30
        else:
            assert code == cli.EXIT_INTEGRATION
            assert "identity residual 1.110e-16 exceeds 1.0e-30" in capsys.readouterr().err

        # with passing overrides, every sphere generated records the echoed values
        used = []
        real = generate_cmc_sphere

        def spy(*args, **kwargs):
            profile = real(*args, **kwargs)
            used.append(profile.tolerances)
            return profile

        monkeypatch.setattr(cli, "generate_cmc_sphere", spy)
        monkeypatch.setattr(experiments, "generate_cmc_sphere", spy)
        code, _, doc = _generating_run(
            command, tmp_path,
            "--tol-conservation", 1e-7,
            "--tol-closure-identity", 1e-15,
            "--tol-axis-epsilon", 2e-5,
        )
        assert code == 0
        echoed = json.loads(doc.read_text())["config"]["tolerances"]
        assert (echoed["conservation"], echoed["closure-identity"], echoed["axis-epsilon"]) == (
            1e-7, 1e-15, 2e-5,
        )
        assert used
        for recorded in used:
            assert recorded == {
                "conservation": echoed["conservation"],
                "closure_identity": echoed["closure-identity"],
                "axis_epsilon": echoed["axis-epsilon"],
            }

    @pytest.mark.parametrize("command", ["generate", "energy", "verify", "sweep"])
    def test_tol_flags_are_the_tolerances_fields(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        flags = set(re.findall(r"--tol-[a-z-]*[a-z]", capsys.readouterr().out))
        assert flags == {"--tol-" + f.name.replace("_", "-") for f in fields(Tolerances)}

    def test_echo_lists_every_default(self, tmp_path):
        out = tmp_path / "sphere.csv"
        assert run(["generate", "--k", 0, "--tau", 0.5, "--H", 1, "-o", out]) == 0
        echoed = json.loads((tmp_path / "sphere.csv.json").read_text())["config"]["tolerances"]
        assert echoed == {
            "conservation": 1e-8, "closure-identity": 1e-8, "axis-epsilon": 1e-5,
            "residual": 1e-4, "variation": 1e-5, "energy": 1e-6, "min-excess": 1e-7,
            "second-summand": 1e-6, "identity": 1e-12, "relation": 1e-8,
            "gauss-bonnet": 1e-3, "derivative-check": 1e-5, "descent-coeff": 1e-4,
        }


class TestExitCodes:
    @pytest.mark.parametrize("samples", [7, 10])
    def test_bad_sample_count_is_a_config_error(self, tmp_path, capsys, samples):
        out = tmp_path / "s.csv"
        code = run(["generate", "--k", 0, "--tau", 0.5, "--H", 1, "--samples", samples, "-o", out])
        assert code == 1
        assert capsys.readouterr().err == "error: samples must be odd and at least 9\n"
        assert not out.exists()

    def test_integration_error_has_its_own_code(self, tmp_path, capsys):
        out = tmp_path / "s.csv"
        code = run(["generate", "--k", 0, "--tau", 0.5, "--H", 0.7, "-o", out,
                    "--tol-closure-identity", 1e-30])
        assert code == cli.EXIT_INTEGRATION == 5
        err = capsys.readouterr().err
        assert err.startswith("error: sphere identity residual") and err.count("\n") == 1

    def test_uncaught_exception_is_one_error_line(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "s.csv"
        assert run(["generate", "--k", 0, "--tau", 0.5, "--H", 1, "-o", path]) == 0
        capsys.readouterr()

        def broken(*args, **kwargs):
            raise ZeroDivisionError("division by zero")

        monkeypatch.setattr(cli, "energy", broken)
        assert run(["energy", path]) == cli.EXIT_INTERNAL == 6
        assert capsys.readouterr().err == "error: ZeroDivisionError: division by zero\n"
