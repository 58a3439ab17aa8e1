"""Seeded inputs, item runners and the correctness gate of each workload.

An item is one unit of user work.  Inputs come only from the workload seed
(``random.Random``, stable across Python versions) and are laid out in
blocks of fixed composition: every block holds the same number of items of
each stratum, and continuous parameters inside a stratum are drawn from
bins that rotate from block to block (stratified sampling).  Any run that
completes a few blocks therefore sees the same mix whatever the seed, which
keeps the end-to-end figures steady across seeds.

The gate uses the package's own named constants; the benchmark adds no
tolerance of its own.
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

FOUR_PI = 4.0 * math.pi
# Default profile size of the package (``profile.DEFAULT_SAMPLES``); the cli
# outputs are checked to hold exactly this many samples.
CLI_SAMPLES = 2049


@dataclass(frozen=True)
class Item:
    """One unit of work: its stratum and the plain inputs handed to the package."""

    stratum: str
    params: tuple


# -- seeded cases --------------------------------------------------------------


def _regular_case(rng: random.Random) -> tuple[float, float, float]:
    """(k, tau, H) well inside the existence region: H^2 + k/4 >= 0.1."""
    k = rng.uniform(-1.0, 1.0)
    tau = rng.uniform(-0.6, 0.6)
    h_low = max(0.6, math.sqrt(max(0.0, 0.1 - 0.25 * k)))
    return k, tau, rng.uniform(h_low, 1.5)


NEAR_BOUNDARY_BINS = 3


def _near_boundary_case(rng: random.Random, bin_index: int) -> tuple[float, float, float]:
    """k < 0 with existence margin H^2 + k/4 log-uniform in [1e-6, 1e-1].

    The decade range is cut into ``NEAR_BOUNDARY_BINS`` bins and the caller
    rotates through them, so each block holds one case per bin.
    """
    k = rng.uniform(-1.0, -0.25)
    tau = rng.uniform(-0.6, 0.6)
    log_margin = -6.0 + 5.0 * (bin_index + rng.random()) / NEAR_BOUNDARY_BINS
    return k, tau, math.sqrt(10.0**log_margin - 0.25 * k)


def _nonexistent_case(rng: random.Random, flavour: int) -> tuple[float, float, float]:
    """H = 0 with k > 0, or H^2 < -k/4 with k < 0 (alternating by ``flavour``)."""
    tau = rng.uniform(-0.6, 0.6)
    if flavour % 2 == 0:
        return rng.uniform(0.1, 1.0), tau, 0.0
    k = rng.uniform(-1.0, -0.25)
    return k, tau, rng.uniform(0.0, 0.95) * math.sqrt(-0.25 * k)


# -- sweep ------------------------------------------------------------------------

SWEEP_BLOCK = 20  # 16 regular, 3 near-boundary (one per bin), 1 nonexistent
_SWEEP_NEAR = {4: 0, 10: 1, 16: 2}


def sweep_items(rng: random.Random, blocks: int) -> list[Item]:
    items = []
    for b in range(blocks):
        for pos in range(SWEEP_BLOCK):
            if pos in _SWEEP_NEAR:
                items.append(Item("near_boundary", _near_boundary_case(rng, _SWEEP_NEAR[pos])))
            elif pos == SWEEP_BLOCK - 1:
                items.append(Item("nonexistent", _nonexistent_case(rng, b)))
            else:
                items.append(Item("regular", _regular_case(rng)))
    return items


# -- verify -----------------------------------------------------------------------

VERIFY_BLOCK = 6  # 5 canonical, 1 plain-Willmore negative control


def _negative_control_case(rng: random.Random) -> tuple[float, float, float]:
    """A regular case away from the space forms: |k - 4 tau^2| >= 0.1."""
    while True:
        k, tau, H = _regular_case(rng)
        if abs(k - 4.0 * tau * tau) >= 0.1:
            return k, tau, H


def verify_items(rng: random.Random, blocks: int) -> list[Item]:
    items = []
    for _ in range(blocks):
        for pos in range(VERIFY_BLOCK):
            if pos == VERIFY_BLOCK - 1:
                items.append(Item("negative_control", _negative_control_case(rng)))
            else:
                items.append(Item("canonical", _regular_case(rng)))
    return items


# -- descent ----------------------------------------------------------------------

# family_dims of the items in one block.  The dims-3 item is the user
# path: ``tw verify descent`` runs family_dims 3 from the package's default
# start (amplitude 0.2 in mode 1), and so does this item.  It costs 2-5 s
# at the seed state, depending on the geometry, and is about 30% of a
# block's item time.  The other 70% is 224 dims-1 descents (about 30 ms
# each, nearly the same work for every start) spread over the block, so
# the median and the tail fall well inside their tight cluster and sample
# the host over the whole run.  A larger dims-3 share would leave a 20 s
# run with a handful of dims-3 items whose cost varies by 2x from geometry
# to geometry; the throughput then followed the seed.  The dims-2 cost
# varies sixfold with the start; one per block keeps it in the mix.  The
# weights have no usage data behind them beyond the user path.
DESCENT_BLOCK_DIMS = (1,) * 112 + (2,) + (1,) * 112 + (3,)
# Start amplitude caps per (mode, sign): below the single-mode amplitude at
# which the family's regularity numerator falls to 0.03, the margin
# ``descend_energy`` pulls starts back to, and never above the default
# start amplitude 0.2.
_AMPLITUDE_CAP = {
    (1, 1): 0.19, (1, -1): 0.2,
    (2, 1): 0.2, (2, -1): 0.05,
}
_AMPLITUDE_BINS = 4


def descent_items(rng: random.Random, blocks: int) -> list[Item]:
    """Seeded geometries; modes, signs and amplitude bins rotate per dimension."""
    items = []
    seen = {1: 0, 2: 0}
    for _ in range(blocks):
        for dims in DESCENT_BLOCK_DIMS:
            k, tau, H = _regular_case(rng)
            if dims == 3:
                items.append(Item("dims3", (k, tau, H, dims, None, None)))
                continue
            n = seen[dims]
            seen[dims] += 1
            mode = 1 + n % dims
            sign = 1 if (n // dims) % 2 == 0 else -1
            bin_index = (n // (2 * dims)) % _AMPLITUDE_BINS
            fraction = 0.2 + 0.7 * (bin_index + rng.random()) / _AMPLITUDE_BINS
            epsilon = sign * fraction * _AMPLITUDE_CAP[(mode, sign)]
            items.append(Item(f"dims{dims}", (k, tau, H, dims, mode, epsilon)))
    return items


# -- cli --------------------------------------------------------------------------


def _fmt(x: float) -> str:
    return repr(float(x))


def _geometry_flags(k: float, tau: float, H: float) -> list[str]:
    return ["--k", _fmt(k), "--tau", _fmt(tau), "--H", _fmt(H)]


CLI_BLOCK = 7  # two cases of three calls each, then one nonexistent call


def cli_items(rng: random.Random, blocks: int) -> list[Item]:
    """``tw`` invocations; one block is two cases and one nonexistent call.

    A case runs generate -> energy -> verify on one (k, tau, H): the first
    writes csv and verifies criticality, the second writes json and runs
    the identities suite.  The nonexistent call alternates between generate
    and verify criticality and must exit 2.  Paths are relative to the
    working directory.
    """
    items = []
    for b in range(blocks):
        for fmt, suite in (("csv", "criticality"), ("json", "identities")):
            geo = _geometry_flags(*_regular_case(rng))
            name = f"b{b}{fmt}"
            prof = f"{name}.{fmt}"
            energy_out = f"{name}.energy.json"
            verify_out = f"{name}.verify.json"
            items += [
                Item("generate", (["generate", *geo, "--format", fmt, "-o", prof], 0, ("profile", prof))),
                Item("energy", (["energy", prof, "--out", energy_out], 0, ("energy", energy_out))),
                Item(f"verify_{suite}", (["verify", suite, *geo, "--out", verify_out], 0, ("verify", verify_out))),
            ]
        geo = _geometry_flags(*_nonexistent_case(rng, b // 2))
        if b % 2 == 0:
            argv = ["generate", *geo, "-o", f"b{b}none.csv"]
        else:
            argv = ["verify", "criticality", *geo, "--out", f"b{b}none.json"]
        items.append(Item("nonexistent", (argv, 2, None)))
    return items


GENERATORS = {
    "sweep": sweep_items,
    "verify": verify_items,
    "descent": descent_items,
    "cli": cli_items,
}
WORKLOADS = tuple(GENERATORS)
# Items per block; a timed run always ends on a block boundary, so every
# run holds the same mix of strata.
BLOCK_SIZE = {"sweep": SWEEP_BLOCK, "verify": VERIFY_BLOCK, "descent": len(DESCENT_BLOCK_DIMS), "cli": CLI_BLOCK}
# Blocks generated per run: more than a run at the seed state completes, so
# the list is cycled only once the program has become several times faster.
BLOCKS = {"sweep": 60, "verify": 60, "descent": 8, "cli": 12}
# Blocks in the fixed list of a traced run, so work counts repeat exactly.
TRACE_BLOCKS = {"sweep": 2, "verify": 2, "descent": 1, "cli": 1}


def build_items(workload: str, seed: int, blocks: int | None = None) -> list[Item]:
    """The workload's item list for ``seed``; the same seed gives the same list."""
    rng = random.Random(f"{workload}:{seed}")
    return GENERATORS[workload](rng, BLOCKS[workload] if blocks is None else blocks)


# -- running one item and applying the gate ------------------------------------


def run_sweep_item(tw, item: Item) -> str | None:
    """Returns None when the item passes the gate, else the reason it failed."""
    ex = tw.experiments
    k, tau, H = item.params
    row = ex.sweep(ex.SweepSpec((k,), (tau,), (H,)))[0]
    if item.stratum == "nonexistent":
        if row.exists or not row.error.startswith("ExistenceViolation"):
            return f"expected ExistenceViolation row, got exists={row.exists} {row.error!r}"
        return None
    if not row.exists:
        return row.error.split(":", 1)[0] or "no sphere"
    if not abs(row.E - FOUR_PI) < ex.ENERGY_TOL:
        return "ENERGY_TOL"
    if not abs(row.second_summand - FOUR_PI) < ex.SECOND_SUMMAND_TOL:
        return "SECOND_SUMMAND_TOL"
    if not row.max_residual < ex.RESIDUAL_TOL:
        return "RESIDUAL_TOL"
    return None


def run_verify_item(tw, item: Item) -> str | None:
    ex = tw.experiments
    k, tau, H = item.params
    g = tw.GeometryParams(k, tau)
    negative = item.stratum == "negative_control"
    coeffs = tw.FunctionalCoefficients(1.0, 0.0) if negative else None
    crit = ex.verify_criticality(g, H, coeffs)
    mini = ex.verify_minimality(g, H)
    if crit.passed == negative:
        return f"criticality passed={crit.passed}"
    if not mini.passed:
        return "minimality " + _minimality_miss(ex, mini)
    return None


def _minimality_miss(ex, report) -> str:
    """Which of ``verify_minimality``'s checks failed, the energy excess first."""
    admissible = [e for e in report.entries if e.admissible]
    if any(e.epsilon != 0.0 and not e.E > report.baseline_E + ex.MIN_EXCESS for e in admissible):
        return "MIN_EXCESS"
    if not abs(report.baseline_E - FOUR_PI) < ex.ENERGY_TOL:
        return "baseline ENERGY_TOL"
    if not abs(report.baseline_second_summand - FOUR_PI) < ex.SECOND_SUMMAND_TOL:
        return "baseline SECOND_SUMMAND_TOL"
    if any(abs(e.second_summand - FOUR_PI) > ex.SECOND_SUMMAND_TOL for e in admissible):
        return "SECOND_SUMMAND_TOL"
    return "passed=False"


def run_descent_item(tw, item: Item) -> str | None:
    ex = tw.experiments
    k, tau, H, dims, mode, epsilon = item.params
    start = None if mode is None else tw.PerturbationSpec(epsilon, mode)
    report = ex.descend_energy(tw.GeometryParams(k, tau), H, dims, start=start)
    if not report.converged:
        return "not converged"
    if not report.energy_final - FOUR_PI < ex.ENERGY_TOL:
        return "ENERGY_TOL"
    return None


RUNNERS = {
    "sweep": run_sweep_item,
    "verify": run_verify_item,
    "descent": run_descent_item,
}


def check_cli_output(workdir: Path, item: Item, returncode: int) -> str | None:
    """Expected exit code, and outputs that parse."""
    argv, expected, output = item.params
    if returncode != expected:
        return f"exit {returncode}, expected {expected}"
    if output is None:
        return None
    kind, name = output
    path = workdir / name
    try:
        if kind == "profile" and name.endswith(".csv"):
            with path.open(newline="") as fh:
                rows = list(csv.reader(fh))
            if rows[0] != ["s", "u", "v", "sigma"] or len(rows) != CLI_SAMPLES + 1:
                return "malformed profile csv"
            [float(x) for row in rows[1:] for x in row]
            with path.with_name(path.name + ".json").open() as fh:
                json.load(fh)["config"]
        elif kind == "profile":
            with path.open() as fh:
                samples = json.load(fh)["profile"]["samples"]
            columns = [[float(x) for x in samples[c]] for c in ("s", "u", "v", "sigma")]
            if any(len(column) != CLI_SAMPLES for column in columns):
                return "malformed profile json"
        elif kind == "energy":
            with path.open() as fh:
                if not math.isfinite(json.load(fh)["report"]["E"]):
                    return "energy not finite"
        else:
            with path.open() as fh:
                if json.load(fh)["passed"] is not True:
                    return "verify passed is not true"
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return f"unreadable output {name}: {type(exc).__name__}"
    return None
