"""The sample checks of :class:`Profile` as first written, the oracle of ``profile._check_samples``.

This copy decides each column's finiteness with one ``np.isfinite`` pass
before the other checks, and reads min and max of u anew for them.  The
package decides finiteness from each column's min and max and reuses them;
the tests require both to raise the same type and text, and to return the
same step.  Its closure bound is the absolute ``AXIS_EPSILON``, the
package's bound wherever max u is at least 1.
"""

import math

import numpy as np

from thurston_willmore.profile import _SPEED_COLUMN, ARCLENGTH, AXIS_EPSILON


def check_samples(columns: dict, n: int, g=None, closed=False, uniform_in=None) -> float | None:
    if any(arr.size != n for arr in columns.values()):
        raise ValueError("sample arrays must have equal length")
    # first, since NaN passes the checks below and inf warns in them
    for name, arr in columns.items():
        if not np.isfinite(arr).all():
            raise ValueError(f"{name} samples must be finite")
    if _SPEED_COLUMN in columns and not columns[_SPEED_COLUMN].min() > 0.0:
        raise ValueError(f"{_SPEED_COLUMN} must be positive")
    s_steps = np.diff(columns["s"]) if "s" in columns else None
    if s_steps is not None and not s_steps.min() > 0.0:
        raise ValueError("samples must be strictly increasing in s")
    u, sigma = columns.get("u"), columns.get("sigma")
    if u is not None:
        if u.min() < 0.0:
            raise ValueError("u must be nonnegative")
        if u[1:-1].min() <= 0.0:
            raise ValueError("interior samples must have u > 0")
        if u.max() >= g.domain_radius:
            raise ValueError("profile leaves the domain of the geometry")
        if closed and (u[0] > AXIS_EPSILON or u[-1] > AXIS_EPSILON):
            raise ValueError("closed sphere must start and end on the axis")
    if closed and sigma is not None and (abs(sigma[0]) > 1e-3 or abs(sigma[-1] - math.pi) > 1e-3):
        raise ValueError("closed sphere must turn from sigma=0 to sigma=pi")
    if uniform_in is not None:
        d = s_steps if uniform_in == ARCLENGTH else np.diff(columns["sigma"])
        h = float(d.mean())
        if not (np.abs(d - h) <= 1e-8 * abs(h)).all():
            raise ValueError(f"profile samples are not uniformly spaced in {uniform_in}")
        return h
