"""Command-line front end.

Subcommands: ``generate`` (CMC or perturbed sphere profiles), ``energy``
(evaluate a stored profile), ``verify`` (criticality, minimality, descent,
identities suites), ``sweep`` (parameter tables).  Configuration comes
from flags, optionally merged over a JSON config file; every output embeds
the effective configuration so a run can be reproduced bit for bit from
its own artifacts.

Exit codes: 0 success, 1 invalid configuration or malformed input,
2 sphere nonexistence, 3 I/O failure, 4 verification threshold failure,
5 sphere generation failed a post-condition (``IntegrationError``),
6 any other error (one ``error:`` line, no traceback).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from .experiments import (
    PerturbationSpec,
    SweepSpec,
    descend_energy,
    sweep,
    verify_criticality,
    verify_minimality,
    write_sweep_csv,
)
from .functional import (
    FunctionalCoefficients,
    canonical_coefficients,
    energy,
    gauss_bonnet_total,
    h_squared_identity_check,
    residual_trace,
    second_summand_derivative_check,
    willmore_relation_check,
)
from .geometry import GeometryParams
from .profile import (
    DEFAULT_SAMPLES,
    ExistenceViolation,
    InadmissiblePerturbation,
    IntegrationError,
    Profile,
    Tolerances,
    generate_cmc_sphere,
    perturbed_sphere,
    _write_json,
)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_EXISTENCE = 2
EXIT_IO = 3
EXIT_VERIFICATION = 4
EXIT_INTEGRATION = 5
EXIT_INTERNAL = 6

# Settings read from flags or a config file, each with its type.
_SETTINGS = {
    **dict.fromkeys(("k", "tau", "H", "alpha", "beta", "epsilon"), float),
    **dict.fromkeys(("mode", "samples", "seed", "family_dims", "max_iterations"), int),
    "out": str,
    "format": str,
}
# Each Tolerances field is the flag --tol-<name>, its name hyphenated; config
# files and the echoed configuration key tolerances by the same name.
_TOL_FIELDS = {f.name.replace("_", "-"): f.name for f in fields(Tolerances)}
# Integrator tolerances that earlier versions echoed into their configs;
# nothing the command runs integrates, so config files drop them silently.
_RETIRED_TOLERANCES = ("rtol", "atol")


class ConfigError(ValueError):
    """Invalid command line or configuration file."""


class VerificationFailure(RuntimeError):
    """A verification suite missed its thresholds."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); 2 means nonexistence here
        raise ConfigError(message)


@dataclass
class RunConfig:
    """Effective configuration of one command invocation."""

    k: float | None = None
    tau: float | None = None
    H: float | None = None
    alpha: float | None = None
    beta: float | None = None
    epsilon: float | None = None
    mode: int = 1
    samples: int = DEFAULT_SAMPLES
    out: str | None = None
    format: str = "csv"
    seed: int = 20260810
    family_dims: int = 3
    max_iterations: int = 200
    tolerances: Tolerances = Tolerances()

    def geometry(self) -> GeometryParams:
        if self.k is None or self.tau is None:
            raise ConfigError("k and tau are required (flags --k/--tau or config file)")
        return GeometryParams(self.k, self.tau)

    def coefficients(self, g: GeometryParams) -> FunctionalCoefficients:
        canonical = canonical_coefficients(g)
        return FunctionalCoefficients(
            alpha=canonical.alpha if self.alpha is None else self.alpha,
            beta=canonical.beta if self.beta is None else self.beta,
        )

    def effective(self) -> dict:
        data = {key: getattr(self, key) for key in _SETTINGS}
        data["tolerances"] = {
            name: getattr(self.tolerances, attr) for name, attr in _TOL_FIELDS.items()
        }
        return data


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON config file; flags override its values")
    parser.add_argument("--k", type=float, help="base curvature")
    parser.add_argument("--tau", type=float, help="bundle curvature")
    parser.add_argument("--H", type=float, help="mean curvature of the CMC sphere")
    parser.add_argument("--alpha", type=float, help="energy coefficient alpha")
    parser.add_argument("--beta", type=float, help="energy coefficient beta")
    parser.add_argument("--epsilon", type=float, help="shape perturbation amplitude")
    parser.add_argument("--mode", type=int, help="shape perturbation mode (default 1)")
    parser.add_argument("--samples", type=int, help="profile sample count, odd and >= 9")
    parser.add_argument("--out", "-o", help="output path")
    parser.add_argument("--format", choices=("csv", "json"), help="output format")
    parser.add_argument("--seed", type=int, help="seed for randomized identity checks")
    for name, attr in _TOL_FIELDS.items():
        parser.add_argument(
            f"--tol-{name}",
            type=float,
            dest=f"tol_{attr}",
            help=f"override tolerance {name} (default {getattr(Tolerances, attr):g})",
        )


def _build_config(args: argparse.Namespace) -> RunConfig:
    config = RunConfig()
    tolerances = {}
    if getattr(args, "config", None):
        path = Path(args.config)
        try:
            with path.open() as fh:
                data = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}") from exc
        if "config" in data and isinstance(data["config"], dict):
            data = data["config"]
        for key, cast in _SETTINGS.items():
            if data.get(key) is not None:
                setattr(config, key, cast(data[key]))
        for name, value in data.get("tolerances", {}).items():
            if name in _RETIRED_TOLERANCES:
                continue
            if name not in _TOL_FIELDS:
                raise ConfigError(f"unknown tolerance {name!r} in config file")
            tolerances[_TOL_FIELDS[name]] = float(value)
    for key in _SETTINGS:
        value = getattr(args, key, None)
        if value is not None:
            setattr(config, key, value)
    for attr in _TOL_FIELDS.values():
        value = getattr(args, f"tol_{attr}", None)
        if value is not None:
            tolerances[attr] = value
    config.tolerances = replace(config.tolerances, **tolerances)
    if config.samples < 9 or config.samples % 2 == 0:
        raise ConfigError("samples must be odd and at least 9")
    if config.format not in ("csv", "json"):
        raise ConfigError(f"format must be csv or json, got {config.format!r}")
    return config


def load_profile(path) -> Profile:
    """Read a profile written by ``generate`` (CSV plus sidecar, or JSON)."""
    path = Path(path)
    if path.suffix == ".json" and not path.name.endswith(".csv.json"):
        return Profile.from_json(path)
    return Profile.from_csv(path)


def cmd_generate(config: RunConfig) -> int:
    if config.H is None:
        raise ConfigError("generate requires --H")
    if config.out is None:
        raise ConfigError("generate requires --out")
    g = config.geometry()
    if config.epsilon is not None and config.epsilon != 0.0:
        spec = PerturbationSpec(config.epsilon, config.mode)
        result = perturbed_sphere(g, config.H, spec, n_samples=config.samples)
    else:
        result = generate_cmc_sphere(
            g, config.H, n_samples=config.samples, tolerances=config.tolerances
        )
    out = Path(config.out)
    if config.format == "json":
        result.to_json(out, metadata={"config": config.effective()})
    else:
        result.to_csv(out, metadata={"config": config.effective()})
    print(f"wrote {out} ({result.closure.value}, {len(result)} samples)")
    return EXIT_OK


def cmd_energy(config: RunConfig, profile_path: str) -> int:
    try:
        prof = load_profile(profile_path)
    except (ValueError, KeyError, json.JSONDecodeError) as exc:
        raise ConfigError(f"malformed profile file {profile_path}: {exc}") from exc
    g = prof.geometry
    coeffs = config.coefficients(g)
    try:
        report = energy(prof, coeffs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    print(f"E = {report.E!r}")
    print(f"E - 4*pi = {report.E - 4.0 * math.pi!r}")
    if config.out:
        doc = {
            "config": config.effective(),
            "profile_file": str(profile_path),
            "coefficients": coeffs.to_dict(),
            "report": report.to_dict(),
        }
        _write_json(Path(config.out), doc)
        print(f"wrote {config.out}")
    return EXIT_OK


def _identities_report(config: RunConfig) -> dict:
    g = config.geometry()
    H = config.H if config.H is not None else 1.0
    rng = np.random.default_rng(config.seed)
    n_random = 10_000
    u_hi = min(3.0, 0.9 * g.domain_radius)
    u = rng.uniform(0.05, u_hi, n_random)
    sigma = rng.uniform(0.0, math.pi, n_random)
    sigma_dot = rng.uniform(-2.0, 2.0, n_random)
    identity_max = float(np.max(h_squared_identity_check(g, u, sigma, sigma_dot)))

    cmc = generate_cmc_sphere(g, H, n_samples=config.samples, tolerances=config.tolerances)
    spec = PerturbationSpec(config.epsilon if config.epsilon is not None else 0.1, config.mode)
    perturbed = perturbed_sphere(g, H, spec, n_samples=config.samples)
    checks = {
        "h_squared_identity": identity_max,
        "willmore_relation_cmc": willmore_relation_check(cmc),
        "willmore_relation_perturbed": willmore_relation_check(perturbed),
        "gauss_bonnet_cmc": abs(gauss_bonnet_total(cmc) - 4.0 * math.pi),
        "gauss_bonnet_perturbed": abs(gauss_bonnet_total(perturbed) - 4.0 * math.pi),
        "second_summand_derivative_cmc": second_summand_derivative_check(cmc),
        "second_summand_derivative_perturbed": second_summand_derivative_check(perturbed),
    }
    tol = config.tolerances
    thresholds = {
        "h_squared_identity": tol.identity,
        "willmore_relation_cmc": tol.relation,
        "willmore_relation_perturbed": tol.relation,
        "gauss_bonnet_cmc": tol.gauss_bonnet,
        "gauss_bonnet_perturbed": tol.gauss_bonnet,
        "second_summand_derivative_cmc": tol.derivative_check,
        "second_summand_derivative_perturbed": tol.derivative_check,
    }
    failed = [name for name, value in checks.items() if value > thresholds[name]]
    return {
        "checks": checks,
        "thresholds": thresholds,
        "failed": failed,
        "passed": not failed,
    }


def cmd_verify(config: RunConfig, which: str, trace_path: str | None = None) -> int:
    g = config.geometry()
    doc: dict = {"experiment": which, "config": config.effective()}
    failure: str | None = None

    if which == "criticality":
        if config.H is None:
            raise ConfigError("verify criticality requires --H")
        coeffs = config.coefficients(g)
        report = verify_criticality(
            g, config.H, coeffs, tolerances=config.tolerances, n_samples=config.samples
        )
        doc["report"] = report.to_dict()
        doc["passed"] = report.passed
        if trace_path:
            _write_trace(Path(trace_path), report.profile, coeffs)
        if not report.passed:
            if report.max_residual >= report.residual_tol:
                failure = f"max residual {report.max_residual:.3e}"
            else:
                worst = max(report.variations, key=lambda v: abs(v.dE_dt))
                failure = f"first variation {worst.dE_dt:.3e} ({worst.velocity_profile_id})"
    elif which == "minimality":
        if config.H is None:
            raise ConfigError("verify minimality requires --H")
        report = verify_minimality(
            g,
            config.H,
            coeffs=config.coefficients(g),
            tolerances=config.tolerances,
            n_samples=config.samples,
        )
        doc["report"] = report.to_dict()
        doc["passed"] = report.passed
        if not report.passed:
            failure = "minimality thresholds"
    elif which == "descent":
        if config.H is None:
            raise ConfigError("verify descent requires --H")
        start = None
        if config.epsilon is not None:
            start = PerturbationSpec(config.epsilon, config.mode)
        report = descend_energy(
            g,
            config.H,
            config.family_dims,
            start=start,
            max_iterations=config.max_iterations,
            tolerances=config.tolerances,
            n_samples=config.samples,
        )
        doc["report"] = report.to_dict()
        doc["passed"] = report.converged
        if not report.converged:
            failure = f"descent stagnation (gradient norm {report.gradient_norm:.3e})"
    elif which == "identities":
        report = _identities_report(config)
        doc["report"] = report
        doc["passed"] = report["passed"]
        if not report["passed"]:
            failure = f"identity check {report['failed'][0]}"
    else:
        raise ConfigError(f"unknown verification suite {which!r}")

    out = Path(config.out) if config.out else Path(f"verify_{which}.json")
    _write_json(out, doc)
    print(f"wrote {out}")
    if failure is not None:
        print(f"FAILED: {failure}", file=sys.stderr)
        raise VerificationFailure(failure)
    print("passed")
    return EXIT_OK


def _write_trace(path: Path, prof: Profile, coeffs: FunctionalCoefficients) -> None:
    trace = residual_trace(prof, coeffs)
    columns = ["s", "u", "sigma", "H", "K", "nu", "residual"]
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in zip(*(trace[c] for c in columns)):
            writer.writerow([repr(float(x)) for x in row])


def cmd_sweep(config: RunConfig, spec_path: str) -> int:
    try:
        with Path(spec_path).open() as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read sweep spec: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"sweep spec is not valid JSON: {exc}") from exc
    try:
        spec = SweepSpec.from_dict(data)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"invalid sweep spec: {exc}") from exc
    rows = sweep(spec, n_samples=config.samples, tolerances=config.tolerances)
    out = Path(config.out) if config.out else Path("sweep.csv")
    with out.open("w", newline="") as fh:
        write_sweep_csv(rows, fh)
    _write_json(
        out.with_name(out.name + ".json"),
        {"config": config.effective(), "spec": data, "rows": len(rows)},
    )
    print(f"wrote {out} ({len(rows)} rows)")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="tw", description=__doc__, add_help=True)
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("generate", help="generate a CMC or perturbed sphere profile")
    _add_common(p_gen)

    p_energy = sub.add_parser("energy", help="evaluate the energy of a stored profile")
    p_energy.add_argument("profile", help="profile file written by generate")
    _add_common(p_energy)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument(
        "which", choices=("criticality", "minimality", "descent", "identities")
    )
    p_verify.add_argument("--trace", help="write per-sample residual trace CSV (criticality)")
    _add_common(p_verify)
    p_verify.add_argument("--family-dims", type=int, dest="family_dims")
    p_verify.add_argument("--max-iterations", type=int, dest="max_iterations")

    p_sweep = sub.add_parser("sweep", help="run a parameter sweep from a spec file")
    p_sweep.add_argument("spec", help="JSON sweep specification")
    _add_common(p_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        config = _build_config(args)
        if args.command == "generate":
            return cmd_generate(config)
        if args.command == "energy":
            return cmd_energy(config, args.profile)
        if args.command == "verify":
            return cmd_verify(config, args.which, trace_path=args.trace)
        if args.command == "sweep":
            return cmd_sweep(config, args.spec)
        raise ConfigError(f"unknown command {args.command!r}")
    except (ConfigError, InadmissiblePerturbation) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ExistenceViolation as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_EXISTENCE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except VerificationFailure:
        return EXIT_VERIFICATION
    except IntegrationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTEGRATION
    except Exception as exc:  # anything else: one line, not a traceback
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
