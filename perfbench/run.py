#!/usr/bin/env python3
"""Closed-loop benchmark of the thurston_willmore package.

    python3 perfbench/run.py --workload {sweep,verify,descent,cli} \
        --seed N --seconds S --trace {0,1}

Run from the repository root; the package is imported from ``src/``.  One
client starts the next item only after the previous one has returned; the
in-process workloads run in a few fresh interpreters one after another
(``segment.py``), and the ``cli`` workload runs one child at a time.  With
``--trace 0`` the run measures end-to-end metrics for ``--seconds``
seconds; with ``--trace 1`` it runs a fixed item list in alternating
untraced and traced passes and reports per-layer metrics.  End-to-end
times are scaled to a reference host speed read alongside the items (see
``reference.py``); the unscaled figures are in the report.  The last line
of standard output is the result object; the line before it is a report
with the run's metadata.  Both, and the spans of a traced run, are also
written to ``.perfbench_out/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.metadata
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import types
from pathlib import Path

import reference
import tracer as tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
# One BLAS thread, set before numpy loads and inherited by child processes.
BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# Tail percentile per workload, fixed so that runs compare: it leaves at
# least ten items beyond it at the smallest item count a 20 s run completed
# at the seed state (about 400, 108, 450 and 21 items).  On descent p90
# stays inside the dims-1 cluster, below the few far slower dims-2 and
# dims-3 items.
TAIL_PERCENTILE = {"sweep": 95, "verify": 90, "descent": 90, "cli": 54}
# (stratum, reason) pairs seen failing at the seed state: sweep cases near
# the existence boundary (IntegrationError or a missed tolerance); verify
# cases in the corner k near -1, |tau| near 0.6, H near 0.6, where a
# strongly deformed competitor's second summand misses SECOND_SUMMAND_TOL
# (its energy excess still passes); and default-start descents that use up
# the 200-iteration budget without converging.  These known defects are
# counted apart (``known_defect_ratio`` in the report line, and
# ``gate.known_defects`` in a traced run), not in ``failed``.  Any other
# failure, including any item that raises, counts in ``failed`` and makes
# the run incorrect.
KNOWN_FAILURES = {
    ("near_boundary", "IntegrationError"),
    ("near_boundary", "ENERGY_TOL"),
    ("near_boundary", "SECOND_SUMMAND_TOL"),
    ("near_boundary", "RESIDUAL_TOL"),
    ("canonical", "minimality SECOND_SUMMAND_TOL"),
    ("negative_control", "minimality SECOND_SUMMAND_TOL"),
    ("dims3", "not converged"),
}

# In-process runs are split over this many fresh interpreters, so that the
# figures average over as many memory layouts; see README.md.  A set-up
# probe runs before, between and after them (SEGMENTS + 1 in all).
SEGMENTS = 3
IMPORTTIME_REPEATS = 3
TRACE_PAIRS = 3
CHILD_TIMEOUT_S = 120


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


def run_child(argv: list[str], cwd: Path = ROOT) -> tuple[float, subprocess.CompletedProcess]:
    t0 = time.perf_counter()
    proc = subprocess.run(
        argv, cwd=cwd, env=child_env(), capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
    )
    return time.perf_counter() - t0, proc


def warm_up() -> None:
    """Fill ``__pycache__`` and the file cache before anything is timed."""
    _, proc = run_child([sys.executable, "-c", "import thurston_willmore.cli"])
    if proc.returncode != 0:
        sys.exit(f"cannot import thurston_willmore from {SRC}:\n{proc.stderr}")


def import_package():
    sys.path.insert(0, str(SRC))
    import thurston_willmore as package
    from thurston_willmore import cli, experiments, functional, numerics, profile

    if Path(package.__file__).resolve().parent != SRC / "thurston_willmore":
        sys.exit(f"imported thurston_willmore from {package.__file__}, not from {SRC}")
    return types.SimpleNamespace(
        package=package,
        profile=profile,
        functional=functional,
        numerics=numerics,
        experiments=experiments,
        cli=cli,
        GeometryParams=package.GeometryParams,
        PerturbationSpec=package.PerturbationSpec,
        FunctionalCoefficients=package.FunctionalCoefficients,
    )


def setup_probe(workload: str, seed: int) -> None:
    """One fresh interpreter that imports the package and builds the inputs."""
    probe = [sys.executable, str(Path(__file__).with_name("setup_probe.py")), workload, str(seed)]
    _, proc = run_child(probe)
    if proc.returncode != 0:
        sys.exit(f"setup probe failed:\n{proc.stderr}")


# -- running items ------------------------------------------------------------------


class Outcomes:
    """Per-item latency, scaled latency and gate verdict of a run.

    ``indices`` are positions in the item list (cycled), so a run made of
    several segments keeps each item's stratum.
    """

    def __init__(self, items):
        self.items = items
        self.indices: list[int] = []
        self.latencies: list[float] = []
        self.midpoints: list[float] = []
        self.scaled: list[float] = []
        self.reasons: list[str | None] = []

    def extend(self, segment: dict) -> None:
        start = self.indices[-1] + 1 if self.indices else 0
        self.indices += range(start, start + len(segment["latencies"]))
        self.latencies += segment["latencies"]
        self.scaled += segment["scaled"]
        self.reasons += segment["reasons"]

    def stratum(self, i: int) -> str:
        return self.items[self.indices[i] % len(self.items)].stratum

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def failures(self) -> list[tuple[int, str, str]]:
        return [(self.indices[i], self.stratum(i), r) for i, r in enumerate(self.reasons) if r is not None]

    @property
    def known(self) -> list[tuple[int, str, str]]:
        return [f for f in self.failures if f[1:] in KNOWN_FAILURES]

    @property
    def unexpected(self) -> list[tuple[int, str, str]]:
        return [f for f in self.failures if f[1:] not in KNOWN_FAILURES]

    @property
    def correct(self) -> bool:
        return not self.unexpected


def call_item(call, item) -> str | None:
    try:
        return call(item)
    except Exception as exc:  # an item that raises is a failed item, not a crashed run
        return f"raised {type(exc).__name__}: {exc}"


def closed_loop(call, items, seconds: float | None, block: int = 1, between=None, start: int = 0) -> Outcomes:
    """Run items one after another, each once the previous has returned.

    With ``seconds``, cycle the list from item ``start`` and stop at the
    first multiple of ``block`` items after ``seconds`` of item time, so a
    run never ends part way through a block; without, run the list exactly
    once.  ``between(item_time, at_block_end)`` is called after every
    other item and is not timed.
    """
    out = Outcomes(items)
    elapsed = 0.0
    index = start
    while seconds is not None or index < len(items):
        item = items[index % len(items)]
        t0 = time.perf_counter()
        reason = call_item(call, item)
        end = time.perf_counter()
        elapsed += end - t0
        index += 1
        out.indices.append(index - 1)
        out.latencies.append(end - t0)
        out.midpoints.append(0.5 * (t0 + end))
        out.reasons.append(reason)
        at_block_end = index % block == 0
        if seconds is not None and at_block_end and elapsed >= seconds:
            return out
        if between is not None:
            between(elapsed, at_block_end)
    return out


def in_process_call(workload: str, tw):
    runner = workloads.RUNNERS[workload]
    return lambda item: runner(tw, item)


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def child_cli_call(workdir: Path, walls: list[float] | None = None):
    def call(item):
        argv = [sys.executable, "-m", "thurston_willmore.cli", *item.params[0]]
        wall, proc = run_child(argv, cwd=workdir)
        if walls is not None:
            walls.append(wall)
        return workloads.check_cli_output(workdir, item, proc.returncode)

    return call


def in_process_cli_call(tw, workdir: Path, walls: list[float] | None = None):
    def call(item):
        previous = os.getcwd()
        sink = io.StringIO()
        os.chdir(workdir)
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                t0 = time.perf_counter()
                code = tw.cli.main(list(item.params[0]))
                if walls is not None:
                    walls.append(time.perf_counter() - t0)
        finally:
            os.chdir(previous)
        return workloads.check_cli_output(workdir, item, code)

    return call


# -- metrics --------------------------------------------------------------------


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux; children covers the cli workload's tw calls.
    self_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(self_kib, children_kib) / 1024.0


def tail(latencies: list[float], percentile: int) -> tuple[float, int]:
    """Latency at ``percentile`` and the number of items beyond it."""
    value = statistics.quantiles(latencies, n=100, method="inclusive")[percentile - 1]
    return value, sum(1 for x in latencies if x > value)


def git_commit() -> str | None:
    """HEAD of the checkout, or None when it is not a git work tree."""
    if not (ROOT / ".git").exists():
        return None
    try:
        _, proc = run_child(["git", "rev-parse", "HEAD"])
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def metadata(args, tw_threads_given: str | None) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": git_commit(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "nproc": os.cpu_count(),
        "blas_pin": BLAS_PIN,
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "tw_threads": "unset" if tw_threads_given is None else f"unset (was {tw_threads_given!r})",
    }


def run_segment(args, start: int, seconds: float, block: int) -> dict:
    """One segment of an in-process run, in a fresh interpreter (``segment.py``)."""
    argv = [
        sys.executable, str(Path(__file__).with_name("segment.py")),
        args.workload, str(args.seed), str(start), repr(seconds), str(block),
    ]
    _, proc = run_child(argv)
    if proc.returncode != 0:
        sys.exit(f"segment from item {start} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(args) -> tuple[dict, dict, Outcomes]:
    """A closed loop over the workload's items for ``--seconds`` of item time.

    In-process workloads run in ``SEGMENTS`` fresh interpreters one after
    another, each continuing the item list where the last one stopped; the
    last ends on a block boundary.  The ``cli`` workload runs its loop here,
    one child per item.  Set-up probes run before, between and after.
    """
    host = reference.HostSpeed(args.workload)
    setup: list[tuple[float, float]] = []  # (wall, midpoint) per probe

    def probe() -> None:
        setup.append(host.timed(lambda: setup_probe(args.workload, args.seed)))

    probe()
    items = workloads.build_items(args.workload, args.seed)
    block = workloads.BLOCK_SIZE[args.workload]
    reference_ms: list[float] = []
    if args.workload == "cli":
        workdir = fresh_dir(OUT / f"cli-{os.getpid()}")
        call = child_cli_call(workdir)
        call_item(call, items[0])  # warm-up, untimed

        def between(item_time: float, at_block_end: bool) -> None:
            host.tick()
            if at_block_end and item_time >= len(setup) * args.seconds / SEGMENTS:
                probe()

        out = closed_loop(call, items, args.seconds, block, between)
        host.sample()
        out.scaled = host.scale(out.latencies, out.midpoints)
        shutil.rmtree(workdir, ignore_errors=True)
    else:
        out = Outcomes(items)
        for k in range(SEGMENTS):
            last = k == SEGMENTS - 1
            remaining = args.seconds * (k + 1) / SEGMENTS - sum(out.latencies)
            segment = run_segment(args, out.attempted, remaining, block if last else 1)
            out.extend(segment)
            reference_ms += segment["reference_ms"]
            if not last:
                probe()
    while len(setup) < SEGMENTS + 1:
        probe()
    reference_ms += [1e3 * t for t in host.seconds]

    setup_scaled = host.scale(*zip(*setup))
    percentile = TAIL_PERCENTILE[args.workload]
    tail_value, beyond = tail(out.scaled, percentile)
    metrics = {
        "throughput_per_s": metric(out.attempted / sum(out.scaled), "1/s"),
        "latency_p50_ms": metric(1e3 * statistics.median(out.scaled), "ms"),
        "latency_tail_ms": metric(1e3 * tail_value, "ms"),
        "setup_s": metric(statistics.median(setup_scaled), "s"),
        "peak_rss_mb": metric(peak_rss_mb(), "MB"),
    }
    strata: dict[str, list[float]] = {}
    for i, latency in enumerate(out.scaled):
        strata.setdefault(out.stratum(i), []).append(latency)
    raw_tail, _ = tail(out.latencies, percentile)
    report = {
        "items": out.attempted,
        "item_time_s": sum(out.latencies),
        "known_defect_ratio": len(out.known) / out.attempted,
        "tail_percentile": percentile,
        "tail_items_beyond": beyond,
        "reference_ms": reference_ms,
        "unscaled": {
            "throughput_per_s": out.attempted / sum(out.latencies),
            "latency_p50_ms": 1e3 * statistics.median(out.latencies),
            "latency_tail_ms": 1e3 * raw_tail,
            "setup_s": statistics.median(t for t, _ in setup),
        },
        "setup_runs_s": setup_scaled,
        "strata_p50_ms": {k: [len(v), 1e3 * statistics.median(v)] for k, v in strata.items()},
        "failures_by_stratum": _count_failures(out),
        "unexpected_failures": out.unexpected[:20],
    }
    return metrics, report, out


def _count_failures(out: Outcomes) -> dict:
    counts: dict[str, dict[str, int]] = {}
    for _, stratum, reason in out.failures:
        key = reason.split(":", 1)[0]
        counts.setdefault(stratum, {}).setdefault(key, 0)
        counts[stratum][key] += 1
    return counts


def traced(args) -> tuple[dict, dict, Outcomes, list[dict]]:
    imports: dict[str, list[float]] = {}
    for _ in range(IMPORTTIME_REPEATS):
        _, proc = run_child([sys.executable, "-X", "importtime", "-c", "import thurston_willmore"])
        for name, value in tracing.import_times(proc.stderr).items():
            imports.setdefault(name, []).append(value)

    tw = import_package()
    items = workloads.build_items(args.workload, args.seed, workloads.TRACE_BLOCKS[args.workload])
    values = {"cli.startup_ms": 0.0, "cli.bytes_written": 0}
    dirs = []
    if args.workload == "cli":
        child_walls: list[float] = []
        main_walls: list[float] = []
        dirs = [OUT / f"cli-{kind}-{os.getpid()}" for kind in ("child", "plain", "traced")]
        closed_loop(child_cli_call(fresh_dir(dirs[0]), child_walls), items, None)
        values["cli.bytes_written"] = sum(p.stat().st_size for p in dirs[0].iterdir())
        untraced_call = in_process_cli_call(tw, fresh_dir(dirs[1]), main_walls)
        traced_call = in_process_cli_call(tw, fresh_dir(dirs[2]))
    else:
        untraced_call = traced_call = in_process_call(args.workload, tw)
        call_item(untraced_call, items[0])  # warm-up, untimed

    # Untraced and traced passes alternate; spans and counts come from the
    # first traced pass, the overhead from the medians of all passes.
    walls: dict[str, list[float]] = {"untraced": [], "traced": []}
    first = None
    for _ in range(TRACE_PAIRS):
        walls["untraced"].append(sum(closed_loop(untraced_call, items, None).latencies))
        tracer = tracing.Tracer()
        tracing.install(tracer, tw)
        try:
            out = closed_loop(traced_call, items, None)
        finally:
            tracer.uninstall()
        walls["traced"].append(sum(out.latencies))
        first = first or (tracer, out)
    tracer, out = first
    if args.workload == "cli":
        startup = [c - m for c, m in zip(child_walls, main_walls[: len(items)])]
        values["cli.startup_ms"] = 1e3 * statistics.median(startup)
    for path in dirs:
        shutil.rmtree(path, ignore_errors=True)

    values.update(tracing.layer_metrics(tracer.spans))
    values.update({name: statistics.median(v) for name, v in imports.items()})
    values["trace.items"] = len(items)
    values["gate.known_defects"] = len(out.known)
    values["trace.overhead_ms"] = 1e3 * (
        statistics.median(walls["traced"]) - statistics.median(walls["untraced"])
    )
    metrics = {name: metric(values.get(name, 0), unit) for name, unit in tracing.PER_LAYER}
    report = {
        "items": len(items),
        "pass_walls_s": walls,
        "spans": len(tracer.spans),
        "failures_by_stratum": _count_failures(out),
        "counts": {name: values.get(name, 0) for name in tracing.COUNT_METRICS},
    }
    return metrics, report, out, tracer.to_json()


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "thurston_willmore" / "__init__.py").is_file():
        print(f"error: package source {SRC / 'thurston_willmore'} not found", file=sys.stderr)
        return 2
    os.environ.update(BLAS_PIN)
    # One CPU for this process and every child it starts, so the reference
    # samples taken here read the speed of the CPU the children run on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    # Unset, so the serial sweep path is the one measured.
    tw_threads_given = os.environ.pop("TW_THREADS", None)
    OUT.mkdir(exist_ok=True)
    warm_up()
    spans = None
    if args.trace:
        metrics, report, out, spans = traced(args)
    else:
        metrics, report, out = end_to_end(args)
    report["meta"] = metadata(args, tw_threads_given)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with (OUT / f"{stem}.json").open("w") as fh:
        json.dump({"report": report, "metrics": metrics}, fh, indent=1)
    if spans is not None:
        with (OUT / f"{stem}.spans.json").open("w") as fh:
            json.dump(spans, fh)
    print(json.dumps({"report": report}))
    result = {
        "correct": out.correct,
        "attempted": out.attempted,
        "failed": len(out.unexpected),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
