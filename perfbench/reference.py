"""Host speed, read from a fixed reference computation run alongside the items.

The benchmark's host shares its processors with other tenants, and its
speed drifts by up to a factor of two over seconds to minutes while the
process keeps its CPU (CPU time stays within 2% of wall time).  A fixed
computation that never touches the package, timed every ``INTERVAL``
seconds between items, reads that drift.  Each measured time is scaled by
``REFERENCE_MS`` over the median of the reference times taken nearest to
it, which gives the time the same work takes on a host where the
reference computation takes ``REFERENCE_MS``.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

# Reference computation time that defines the reported scale; about what it
# takes on the 2-core host the benchmark was built on.
REFERENCE_MS = 7.5
INTERVAL = 0.1  # seconds of run time between reference samples
NEAREST = 3  # reference samples per scale factor

_GRID = np.linspace(0.0, np.pi, 2049)
# 1024 panels of 8 Gauss-Legendre nodes on [0, pi], the quadrature that
# ``mode_family_energy`` integrates on.
_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(8)
_EDGES = np.linspace(0.0, np.pi, 1025)
_SIG = (0.5 * np.diff(_EDGES)[:, None] * (_NODES[None, :] + 1.0) + _EDGES[:-1, None]).ravel()
_W = (0.5 * np.diff(_EDGES)[:, None] * _WEIGHTS[None, :]).ravel()


def grid_work() -> float:
    """Array work on a 2049-sample grid, the size of a profile: products of
    transcendental functions, a finite-difference derivative, reductions.
    Each array is 16 KiB, so the working set stays in the core's caches."""
    acc = 0.0
    for j in range(1, 41):
        u = np.sin(j * _GRID) * np.cos(_GRID)
        du = np.gradient(u, _GRID)
        v = np.sqrt(1.0 + 0.1 * j * u * u) / (1.0 + 0.25 * _GRID * _GRID)
        acc += float(np.sum(du * du + u * u) + np.dot(v, _GRID))
    return acc


def quadrature_work() -> float:
    """A closed-form energy integrand on 8192 quadrature nodes, shaped like
    ``mode_family_energy``: a dozen 64 KiB temporaries per evaluation, a
    working set that reaches past the core's own caches."""
    acc = 0.0
    sin_sig, cos_sig = np.sin(_SIG), np.cos(_SIG)
    for j in range(1, 17):
        c = 0.01 * j
        p = 1.0 + c * np.cos(j * _SIG)
        n = 1.0 + c * np.sin(2.0 * _SIG)
        u = sin_sig / p
        A = np.sqrt(1.0 + 0.25 * u * u)
        B = 1.0 + 0.1 * u * u
        ds = n / B
        hm = 0.5 * (1.0 / ds + 1.0 / p - 0.1 * u * sin_sig)
        nu = cos_sig / A
        mu = u * A / B
        acc += float(np.dot(_W, (hm * hm + 0.3 * nu * nu + 0.5) * mu * ds))
    return acc


# The reference computation per workload: the kind of array work its items
# do.  ``descent`` items are ``mode_family_energy`` evaluations on 8192
# nodes; the other workloads work on 2049-sample profiles.
REFERENCE = {"sweep": grid_work, "verify": grid_work, "cli": grid_work, "descent": quadrature_work}


class HostSpeed:
    """Reference samples over a run and the scale factors they give."""

    def __init__(self, workload: str):
        self.computation = REFERENCE[workload]
        self.times: list[float] = []  # midpoint of each sample, perf_counter seconds
        self.seconds: list[float] = []
        self.computation()  # warm-up, not recorded
        self.sample()

    def sample(self) -> None:
        t0 = time.perf_counter()
        self.computation()
        t1 = time.perf_counter()
        self.times.append(0.5 * (t0 + t1))
        self.seconds.append(t1 - t0)

    def tick(self) -> None:
        """Take a sample if ``INTERVAL`` has passed since the last one."""
        if time.perf_counter() - self.times[-1] >= INTERVAL:
            self.sample()

    def timed(self, fn) -> tuple[float, float]:
        """Call ``fn`` between reference samples; its wall time and midpoint."""
        self.sample()
        t0 = time.perf_counter()
        fn()
        t1 = time.perf_counter()
        self.sample()
        return t1 - t0, 0.5 * (t0 + t1)

    def scale(self, seconds, midpoints) -> list[float]:
        """Each time scaled to the reference speed around its midpoint."""
        return [t * self.factor(at) for t, at in zip(seconds, midpoints)]

    def factor(self, at: float) -> float:
        """``REFERENCE_MS`` over the median of the samples nearest to ``at``."""
        i = bisect.bisect_left(self.times, at)
        lo = max(0, min(i - NEAREST // 2, len(self.times) - NEAREST))
        nearest = self.seconds[lo : lo + NEAREST]
        return REFERENCE_MS / (1e3 * statistics.median(nearest))
