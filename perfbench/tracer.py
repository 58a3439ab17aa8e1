"""Spans and exact work counters for the traced run.

The tracer replaces the names that callers look up in the package's module
namespaces with wrappers that record a span (name, start, end, parent) and,
where the layer exposes one, a work count.  Nothing inside ``src/`` is
edited: a function reached through a namespace is wrapped wherever that
namespace binds it, and calls made through a name bound elsewhere (for
example ``numerics`` calling itself) stay inside their caller's span.
Spans are kept in memory and written out when the run ends.
"""

from __future__ import annotations

import math
import statistics
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    parent: int | None
    root: int  # the item's top-level span; shared by every span of one item
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------------

    def call(self, name, fn, args, kwargs, on_result=None):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        root = index if parent is None else self.spans[parent].root
        span = Span(name, parent, root, time.perf_counter())
        self.spans.append(span)
        self._stack.append(index)
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            span.attrs["error"] = type(exc).__name__
            raise
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
        if on_result is not None:
            on_result(span, args, result)
        return result

    # -- installing wrappers ---------------------------------------------------

    def wrap(self, name: str, original, namespaces, on_result=None) -> None:
        """Rebind ``original`` in every namespace that binds it to a traced wrapper."""
        def traced(*args, **kwargs):
            return self.call(name, original, args, kwargs, on_result)

        traced.__wrapped__ = original
        bound = False
        for module in namespaces:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, traced)
                    self._restore.append((module, attr, original))
                    bound = True
        if not bound:
            raise RuntimeError(f"{name}: no namespace binds the traced function")

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def to_json(self) -> list[dict]:
        return [
            {"id": i, "name": s.name, "parent": s.parent, "root": s.root, "start": s.start, "end": s.end, **s.attrs}
            for i, s in enumerate(self.spans)
        ]


def _solve_ivp_counts(span, args, sol):
    span.attrs["nfev"] = int(sol.nfev)
    span.attrs["steps"] = int(sol.t.size)


def _samples(span, args, result):
    span.attrs["samples"] = len(args[0])


def _inf_return(span, args, value):
    span.attrs["inf"] = math.isinf(value)


def _iterations(span, args, report):
    span.attrs["iterations"] = int(report.iterations)


def install(tracer: Tracer, tw) -> None:
    """Wrap every traced layer boundary of the imported package ``tw``."""
    pkg, prof, fun, num, ex, cli = tw.package, tw.profile, tw.functional, tw.numerics, tw.experiments, tw.cli
    everywhere = (pkg, prof, fun, ex, cli)
    tracer.wrap("profile.generate_cmc_sphere", prof.generate_cmc_sphere, everywhere)
    tracer.wrap("profile.sphere_from_modes", prof.sphere_from_modes, everywhere)
    tracer.wrap("profile.solve_ivp", prof.solve_ivp, (prof,), _solve_ivp_counts)
    tracer.wrap("profile.brentq", prof.brentq, (prof,))
    tracer.wrap("functional.energy", fun.energy, everywhere, _samples)
    tracer.wrap("functional.max_interior_residual", fun.max_interior_residual, everywhere, _samples)
    for name in ("derivative1", "derivative2", "sample_quadrature"):
        tracer.wrap(f"numerics.{name}", getattr(num, name), (fun, ex))
    tracer.wrap("experiments.mode_family_energy", ex.mode_family_energy, (ex,), _inf_return)
    tracer.wrap("experiments.descend_energy", ex.descend_energy, (ex, cli), _iterations)
    tracer.wrap("experiments.deformed_curve_energy", ex.deformed_curve_energy, (ex,))
    for name in ("sweep", "verify_criticality", "verify_minimality"):
        tracer.wrap(f"experiments.{name}", getattr(ex, name), (ex, cli))
    tracer.wrap("cli.main", cli.main, (cli,))


# -- per-layer metrics ---------------------------------------------------------------

# (metric name, unit) in output order; the names are ``<module>.<function>.<quantity>``.
PER_LAYER = [
    ("profile.generate_cmc_sphere.calls", "count"),
    ("profile.generate_cmc_sphere.busy_ms", "ms"),
    ("profile.generate_cmc_sphere.p50_ms", "ms"),
    ("profile.generate_cmc_sphere.errors", "count"),
    ("profile.solve_ivp.calls", "count"),
    ("profile.solve_ivp.nfev", "count"),
    ("profile.solve_ivp.steps", "count"),
    ("profile.brentq.calls", "count"),
    ("profile.sphere_from_modes.calls", "count"),
    ("profile.sphere_from_modes.busy_ms", "ms"),
    ("profile.sphere_from_modes.inadmissible_ratio", "ratio"),
    ("functional.energy.calls", "count"),
    ("functional.energy.busy_ms", "ms"),
    ("functional.energy.self_ms", "ms"),
    ("functional.max_interior_residual.calls", "count"),
    ("functional.max_interior_residual.busy_ms", "ms"),
    ("functional.max_interior_residual.self_ms", "ms"),
    ("functional.samples_per_s", "1/s"),
    ("numerics.derivative1.calls", "count"),
    ("numerics.derivative1.busy_ms", "ms"),
    ("numerics.derivative2.calls", "count"),
    ("numerics.derivative2.busy_ms", "ms"),
    ("numerics.sample_quadrature.calls", "count"),
    ("numerics.sample_quadrature.busy_ms", "ms"),
    ("experiments.mode_family_energy.calls", "count"),
    ("experiments.mode_family_energy.busy_ms", "ms"),
    ("experiments.mode_family_energy.inf_ratio", "ratio"),
    ("experiments.descend_energy.iterations", "count"),
    ("experiments.descend_energy.evals_per_iteration", "ratio"),
    ("experiments.deformed_curve_energy.calls", "count"),
    ("experiments.deformed_curve_energy.busy_ms", "ms"),
    ("experiments.sweep.self_ms", "ms"),
    ("experiments.verify_criticality.self_ms", "ms"),
    ("experiments.verify_minimality.self_ms", "ms"),
    ("cli.main.busy_ms", "ms"),
    ("cli.startup_ms", "ms"),
    ("cli.bytes_written", "bytes"),
    ("import.scipy_integrate_ms", "ms"),
    ("import.scipy_interpolate_ms", "ms"),
    ("import.scipy_optimize_ms", "ms"),
    ("import.thurston_willmore_ms", "ms"),
    ("trace.items", "count"),
    ("trace.overhead_ms", "ms"),
    ("gate.known_defects", "count"),
]


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Calls, busy time, self time and work counts per span name.

    Busy time is the sum of a name's span durations; self time subtracts the
    durations of its direct children.  A name that never ran reports zero.
    """
    durations: dict[str, list[float]] = {}
    child_time = [0.0] * len(spans)
    for span in spans:
        durations.setdefault(span.name, []).append(span.end - span.start)
        if span.parent is not None:
            child_time[span.parent] += span.end - span.start
    self_ms: dict[str, float] = {}
    for i, span in enumerate(spans):
        self_ms[span.name] = self_ms.get(span.name, 0.0) + 1e3 * (span.end - span.start - child_time[i])

    def calls(name):
        return len(durations.get(name, ()))

    def busy_ms(name):
        return 1e3 * sum(durations.get(name, ()))

    def attr_sum(name, key):
        return sum(s.attrs.get(key, 0) for s in spans if s.name == name)

    def ratio(num, den):
        return num / den if den else 0.0

    out = {}
    gen = "profile.generate_cmc_sphere"
    out[f"{gen}.calls"] = calls(gen)
    out[f"{gen}.busy_ms"] = busy_ms(gen)
    out[f"{gen}.p50_ms"] = 1e3 * statistics.median(durations[gen]) if calls(gen) else 0.0
    out[f"{gen}.errors"] = sum(1 for s in spans if s.name == gen and "error" in s.attrs)
    out["profile.solve_ivp.calls"] = calls("profile.solve_ivp")
    out["profile.solve_ivp.nfev"] = attr_sum("profile.solve_ivp", "nfev")
    out["profile.solve_ivp.steps"] = attr_sum("profile.solve_ivp", "steps")
    out["profile.brentq.calls"] = calls("profile.brentq")
    sfm = "profile.sphere_from_modes"
    out[f"{sfm}.calls"] = calls(sfm)
    out[f"{sfm}.busy_ms"] = busy_ms(sfm)
    inadmissible = sum(1 for s in spans if s.name == sfm and s.attrs.get("error") == "InadmissiblePerturbation")
    out[f"{sfm}.inadmissible_ratio"] = ratio(inadmissible, calls(sfm))
    samples = 0
    functional_busy = 0.0
    for name in ("functional.energy", "functional.max_interior_residual"):
        out[f"{name}.calls"] = calls(name)
        out[f"{name}.busy_ms"] = busy_ms(name)
        out[f"{name}.self_ms"] = self_ms.get(name, 0.0)
        samples += attr_sum(name, "samples")
        functional_busy += busy_ms(name)
    out["functional.samples_per_s"] = ratio(samples, functional_busy / 1e3)
    for name in ("derivative1", "derivative2", "sample_quadrature"):
        out[f"numerics.{name}.calls"] = calls(f"numerics.{name}")
        out[f"numerics.{name}.busy_ms"] = busy_ms(f"numerics.{name}")
    mfe = "experiments.mode_family_energy"
    out[f"{mfe}.calls"] = calls(mfe)
    out[f"{mfe}.busy_ms"] = busy_ms(mfe)
    out[f"{mfe}.inf_ratio"] = ratio(attr_sum(mfe, "inf"), calls(mfe))
    iterations = attr_sum("experiments.descend_energy", "iterations")
    descent_ids = {i for i, s in enumerate(spans) if s.name == "experiments.descend_energy"}
    descent_evals = sum(1 for s in spans if s.name == mfe and s.parent in descent_ids)
    out["experiments.descend_energy.iterations"] = iterations
    out["experiments.descend_energy.evals_per_iteration"] = ratio(descent_evals, iterations)
    dce = "experiments.deformed_curve_energy"
    out[f"{dce}.calls"] = calls(dce)
    out[f"{dce}.busy_ms"] = busy_ms(dce)
    for name in ("sweep", "verify_criticality", "verify_minimality"):
        out[f"experiments.{name}.self_ms"] = self_ms.get(f"experiments.{name}", 0.0)
    out["cli.main.busy_ms"] = busy_ms("cli.main")
    return out


# Exact work counts and their ratios: two traced runs on one seed must agree on them.
COUNT_METRICS = [name for name, unit in PER_LAYER if unit in ("count", "bytes", "ratio")]


def import_times(stderr: str) -> dict[str, float]:
    """Cumulative import time in ms per module from ``python -X importtime`` output."""
    wanted = {
        "scipy.integrate": "import.scipy_integrate_ms",
        "scipy.interpolate": "import.scipy_interpolate_ms",
        "scipy.optimize": "import.scipy_optimize_ms",
        "thurston_willmore": "import.thurston_willmore_ms",
    }
    out = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3:
            continue
        module = parts[2].strip()
        if module in wanted and parts[1].strip().isdigit():
            out[wanted[module]] = int(parts[1]) / 1e3
    return out
