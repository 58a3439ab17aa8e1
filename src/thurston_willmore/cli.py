"""Command-line front end.

Subcommands: ``generate`` (CMC or perturbed sphere profiles), ``energy``
(evaluate a stored profile), ``verify criticality|minimality|descent|identities``
(the verification suites), ``sweep`` (parameter tables).  Each command takes
flags for exactly the settings and tolerances it reads, optionally merged
over a JSON config file, and every output embeds those values so a run can
be reproduced bit for bit from its own artifacts.

Exit codes: 0 success, 1 invalid configuration or malformed input,
2 sphere nonexistence, 3 I/O failure, 4 verification threshold failure, 5 a sphere
that float64 cannot hold or that failed a post-condition (``IntegrationError``),
6 any other error (one ``error:`` line, no traceback).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

from .functional import (
    LEAST_SAMPLES as _LEAST_SAMPLES,
    FunctionalCoefficients,
    canonical_coefficients,
    el_residual,
    energy,
    surface_fields,
)
from .geometry import GeometryParams
from .profile import (
    DEFAULT_SAMPLES,
    Closure,
    ExistenceViolation,
    InadmissiblePerturbation,
    IntegrationError,
    PerturbationSpec,
    Profile,
    Tolerances,
    generate_cmc_sphere,
    perturbed_sphere,
    _require_sphere_exists,
    _sidecar_path,
    _write_csv,
    _write_json,
)


class ConfigError(ValueError):
    """Invalid command line or configuration file."""


EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_EXISTENCE = 2
EXIT_IO = 3
EXIT_VERIFICATION = 4
EXIT_INTEGRATION = 5
EXIT_INTERNAL = 6
# An error's exit code is that of the first type here it is an instance of.
_EXIT_CODES = {
    ConfigError: EXIT_CONFIG,
    InadmissiblePerturbation: EXIT_CONFIG,
    ExistenceViolation: EXIT_EXISTENCE,
    OSError: EXIT_IO,
    IntegrationError: EXIT_INTEGRATION,
    Exception: EXIT_INTERNAL,  # printed with its type
}

# What each leaf command reads: its settings (RunConfig fields), then its
# Tolerances fields.  This table alone gives a command's flags, the
# config-file keys it applies (it drops every other known key) and the
# configuration it echoes.
_READS = {
    "generate": (("k", "tau", "H", "epsilon", "mode", "samples", "out", "format"), ()),
    "energy": (("alpha", "beta", "out"), ()),
    "sweep": (("samples", "out"), ()),
    "verify criticality": (
        ("k", "tau", "H", "alpha", "beta", "samples", "out"),
        ("residual", "variation"),
    ),
    "verify minimality": (
        ("k", "tau", "H", "alpha", "beta", "samples", "out"),
        ("energy", "min_excess", "second_summand"),
    ),
    "verify descent": (
        ("k", "tau", "H", "epsilon", "mode", "family_dims", "max_iterations", "samples", "out"),
        ("energy", "descent_coeff"),
    ),
    "verify identities": (
        ("k", "tau", "H", "epsilon", "mode", "seed", "samples", "out"),
        ("identity", "relation", "gauss_bonnet", "derivative_check"),
    ),
}
# Every Tolerances field by its hyphenated name: a command that reads it has the
# flag --tol-<name>, and config files and echoed configurations key it so.
_TOL_FIELDS = {f.name.replace("_", "-"): f.name for f in fields(Tolerances)}
# Tolerances that earlier versions echoed into their configs: the integrator's,
# and the sphere generator's, whose bounds are now fixed; config files drop them
# silently, so those files still load and reproduce their runs.
_RETIRED_TOLERANCES = ("rtol", "atol", "conservation", "closure-identity", "axis-epsilon")
# The perturbation amplitude a suite runs with when no epsilon is given; its
# echo then leaves epsilon out, since a null would read as no perturbation.
_DEFAULT_EPSILON = {"verify descent": 0.2, "verify identities": 0.1}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); 2 means nonexistence here
        raise ConfigError(message)


def _setting(default, cast, help, short=(), **flag):
    """A setting's default, and its flag's type (which casts config-file values too) and help."""
    return field(default=default, metadata={"type": cast, "help": help, "short": short, **flag})


@dataclass
class RunConfig:
    """Effective configuration of one invocation of the leaf ``command``."""

    command: str
    k: float | None = _setting(None, float, "base curvature")
    tau: float | None = _setting(None, float, "bundle curvature")
    H: float | None = _setting(None, float, "mean curvature of the CMC sphere")
    alpha: float | None = _setting(None, float, "energy coefficient alpha (default 1/4)")
    beta: float | None = _setting(None, float, "energy coefficient beta (default k/4 - tau^2/4)")
    epsilon: float | None = _setting(
        None, float, "shape perturbation amplitude (descent default 0.2, identities 0.1)"
    )
    mode: int = _setting(1, int, "shape perturbation mode (default 1)")
    samples: int = _setting(DEFAULT_SAMPLES, int, f"profile sample count, odd, >= {_LEAST_SAMPLES}")
    out: str | None = _setting(None, str, "output path", short=("-o",))
    format: str = _setting("csv", str, "output format", choices=("csv", "json"))
    seed: int = _setting(20260810, int, "seed for randomized identity checks")
    family_dims: int = _setting(3, int, "mode coefficients the descent varies (default 3)")
    max_iterations: int = _setting(200, int, "Newton step budget of the descent (default 200)")
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

    def amplitude(self) -> float | None:
        """The perturbation amplitude run with: ``epsilon``, else the suite's default."""
        return _DEFAULT_EPSILON.get(self.command) if self.epsilon is None else self.epsilon

    def start(self) -> PerturbationSpec:
        """The shape perturbation run with, at :meth:`amplitude` in ``mode``."""
        return PerturbationSpec(self.amplitude(), self.mode)

    def effective(self) -> dict:
        settings, tolerances = _READS[self.command]
        data = {key: getattr(self, key) for key in settings}
        if self.amplitude() != self.epsilon:
            del data["epsilon"]
        data["tolerances"] = {
            name.replace("_", "-"): getattr(self.tolerances, name) for name in tolerances
        }
        return data


_SETTING_FLAGS = {f.name: f.metadata for f in fields(RunConfig) if f.metadata}


def _cast(name: str, cast, value):
    """A config-file value cast from its text, as the flag's type casts the flag's text."""
    try:
        return cast(str(value))
    except ValueError as exc:
        raise ConfigError(f"{name} in config file must be {cast.__name__}, got {value!r}") from exc


def _read_json_object(path: str, what: str) -> dict:
    """The JSON object in the file at ``path``; ``what`` names the file in errors."""
    try:
        with Path(path).open() as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {what}: {exc}") from exc
    except ValueError as exc:  # also not UTF-8, or an integer past int's digit limit
        raise ConfigError(f"{what} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"{what} must be a JSON object")
    return data


def _build_config(args: argparse.Namespace) -> RunConfig:
    settings, tolerance_names = _READS[args.leaf]
    config = RunConfig(args.leaf)
    tolerances = {}
    if args.config:
        data = _read_json_object(args.config, "config file")
        if isinstance(data.get("config"), dict):
            data = data["config"]
        # a misspelled setting would otherwise run, and echo, its default
        for key in data:
            if key != "tolerances" and key not in _SETTING_FLAGS:
                raise ConfigError(f"unknown setting {key!r} in config file")
        if not isinstance(data.get("tolerances", {}), dict):
            raise ConfigError("config file must be a JSON object, its tolerances one too")
        # a config file never sets the output path: the sidecar echoed next
        # to an output would otherwise redirect the next run onto that output
        for key in settings:
            if key != "out" and data.get(key) is not None:
                setattr(config, key, _cast(key, _SETTING_FLAGS[key]["type"], data[key]))
        for name, value in data.get("tolerances", {}).items():
            if name in _RETIRED_TOLERANCES:
                continue
            if name not in _TOL_FIELDS:
                raise ConfigError(f"unknown tolerance {name!r} in config file")
            if _TOL_FIELDS[name] in tolerance_names:
                tolerances[_TOL_FIELDS[name]] = _cast(f"tol-{name}", float, value)
    for key in settings:
        value = getattr(args, key)
        if value is not None:
            setattr(config, key, value)
    for attr in tolerance_names:
        value = getattr(args, f"tol_{attr}")
        if value is not None:
            tolerances[attr] = value
    if config.samples < _LEAST_SAMPLES or config.samples % 2 == 0:
        raise ConfigError(f"samples must be odd and at least {_LEAST_SAMPLES}")
    for key in ("k", "tau", "H", "alpha", "beta", "epsilon"):
        value = getattr(config, key)
        if value is not None and not math.isfinite(value):
            raise ConfigError(f"{key} must be finite, got {value}")
    try:
        config.tolerances = replace(config.tolerances, **tolerances)
    except ValueError as exc:  # the message starts with the field's name
        attr, _, reason = str(exc).partition(" ")
        raise ConfigError(f"tol-{attr.replace('_', '-')} {reason}") from exc
    for key, least in (("mode", 1), ("family_dims", 1), ("max_iterations", 0), ("seed", 0)):
        if getattr(config, key) < least:
            raise ConfigError(f"{key} must be at least {least}, got {getattr(config, key)}")
    if "H" in settings and config.H is None:
        raise ConfigError(f"{config.command} requires --H")
    if config.command == "verify descent" and config.mode > config.family_dims:
        raise ConfigError(f"mode {config.mode} exceeds family_dims {config.family_dims}")
    if config.format not in ("csv", "json"):
        raise ConfigError(f"format must be csv or json, got {config.format!r}")
    return config


def load_profile(path) -> Profile:
    """Read a profile written by ``generate``, whatever its name.

    A file whose first non-blank byte is ``{`` is the JSON form; any other is
    the CSV form, read with its sidecar.
    """
    with Path(path).open("rb") as fh:
        first = next(filter(None, map(bytes.strip, fh)), b"")[:1]
    return Profile.from_json(path) if first == b"{" else Profile.from_csv(path)


def cmd_generate(config: RunConfig) -> int:
    if config.out is None:
        raise ConfigError("generate requires --out")
    g = config.geometry()
    if config.epsilon is not None and config.epsilon != 0.0:
        result = perturbed_sphere(g, config.H, config.start(), n_samples=config.samples)
    else:
        result = generate_cmc_sphere(g, config.H, n_samples=config.samples)
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
    if prof.closure is Closure.CLOSED_SPHERE and prof.mean_curvature is not None:
        # the rule of every command that builds a sphere: the energy of one
        # that float64 cannot hold reads NaN
        _require_sphere_exists(g, prof.mean_curvature)
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


# Each suite of the experiments module ex on a configuration c, its geometry g and kw
# (tolerances, sample count).  ``experiments`` is imported only by the commands that run a
# suite or a sweep, and each suite is looked up on that module at call time, so a rebinding
# of its name there reaches the run.
_SUITES = {
    "criticality": lambda ex, c, g, **kw: ex.verify_criticality(g, c.H, c.coefficients(g), **kw),
    "minimality": lambda ex, c, g, **kw: ex.verify_minimality(
        g, c.H, coeffs=c.coefficients(g), **kw
    ),
    "descent": lambda ex, c, g, **kw: ex.descend_energy(
        g, c.H, c.family_dims, start=c.start(), max_iterations=c.max_iterations, **kw
    ),
    "identities": lambda ex, c, g, **kw: ex.verify_identities(g, c.H, c.start(), seed=c.seed, **kw),
}


def cmd_verify(config: RunConfig, which: str, trace_path: str | None = None) -> int:
    from . import experiments

    g = config.geometry()
    report = _SUITES[which](
        experiments, config, g, tolerances=config.tolerances, n_samples=config.samples
    )
    if trace_path:
        _write_trace(Path(trace_path), report.profile, report.coefficients)
    out = Path(config.out) if config.out else Path(f"verify_{which}.json")
    doc = {"experiment": which, "config": config.effective(), "report": report.to_dict()}
    doc["passed"] = report.failure is None
    _write_json(out, doc)
    print(f"wrote {out}")
    if report.failure is not None:
        print(f"FAILED: {report.failure}", file=sys.stderr)
        return EXIT_VERIFICATION
    print("passed")
    return EXIT_OK


def _write_trace(path: Path, prof: Profile, coeffs: FunctionalCoefficients) -> None:
    surface = surface_fields(prof)
    columns = {"s": prof.s, "u": prof.u, "sigma": prof.sigma}
    columns.update((name, surface[name]) for name in ("H", "K", "nu"))
    columns["residual"] = el_residual(prof, coeffs)
    _write_csv(path, list(columns), list(columns.values()))


def cmd_sweep(config: RunConfig, spec_path: str) -> int:
    from .experiments import SweepSpec, sweep, write_sweep_csv

    data = _read_json_object(spec_path, "sweep spec")
    try:
        spec = SweepSpec.from_dict(data)
    except KeyError as exc:
        raise ConfigError(f"sweep spec lacks {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid sweep spec: {exc}") from exc
    rows = sweep(spec, n_samples=config.samples)
    out = Path(config.out) if config.out else Path("sweep.csv")
    with out.open("w", newline="") as fh:
        write_sweep_csv(rows, fh)
    _write_json(_sidecar_path(out), {"config": config.effective(), "spec": data, "rows": len(rows)})
    print(f"wrote {out} ({len(rows)} rows)")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="tw", description=__doc__, add_help=True)
    sub = parser.add_subparsers(dest="command", required=True)
    leaves = {
        "generate": sub.add_parser("generate", help="generate a CMC or perturbed sphere profile"),
        "energy": sub.add_parser("energy", help="evaluate the energy of a stored profile"),
    }
    suites = sub.add_parser("verify", help="run a verification suite")
    suites = suites.add_subparsers(dest="suite", required=True)
    for suite in _SUITES:
        leaves[f"verify {suite}"] = suites.add_parser(suite, help=f"run the {suite} suite")
    leaves["sweep"] = sub.add_parser("sweep", help="run a parameter sweep from a spec file")
    leaves["energy"].add_argument("profile", help="profile file written by generate")
    leaves["sweep"].add_argument("spec", help="JSON sweep specification")
    leaves["verify criticality"].add_argument("--trace", help="write per-sample residual trace CSV")
    for leaf, p in leaves.items():
        p.set_defaults(leaf=leaf)
        p.add_argument("--config", help="JSON config file; flags override its values")
        settings, tolerances = _READS[leaf]
        for name in settings:
            flag = dict(_SETTING_FLAGS[name])
            p.add_argument(f"--{name.replace('_', '-')}", *flag.pop("short"), dest=name, **flag)
        for name in tolerances:
            p.add_argument(
                f"--tol-{name.replace('_', '-')}",
                type=float,
                dest=f"tol_{name}",
                help=f"override tolerance {name} (default {getattr(Tolerances, name):g})",
            )
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
            return cmd_verify(config, args.suite, trace_path=getattr(args, "trace", None))
        return cmd_sweep(config, args.spec)
    except Exception as exc:  # one line, not a traceback
        code = next(c for kind, c in _EXIT_CODES.items() if isinstance(exc, kind))
        detail = f"{type(exc).__name__}: {exc}" if code == EXIT_INTERNAL else exc
        print(f"error: {detail}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
