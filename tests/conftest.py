"""Shared fixtures: geometries and cached generated profiles; the hypothesis profile."""

from functools import lru_cache

import pytest
from hypothesis import settings

from thurston_willmore import (
    GeometryParams,
    PerturbationSpec,
    generate_cmc_sphere,
    perturbed_sphere,
)

# Property tests are deterministic and bounded in time: a fixed example
# sequence, no deadline (timings vary across hosts) and no example database.
settings.register_profile("tier1", derandomize=True, deadline=None, max_examples=50, database=None)
settings.load_profile("tier1")


@lru_cache(maxsize=None)
def cached_sphere(k: float, tau: float, H: float):
    return generate_cmc_sphere(GeometryParams(k, tau), H)


@lru_cache(maxsize=None)
def cached_perturbed(k: float, tau: float, H: float, epsilon: float, mode: int):
    return perturbed_sphere(GeometryParams(k, tau), H, PerturbationSpec(epsilon, mode))


@pytest.fixture
def sphere():
    return cached_sphere


@pytest.fixture
def perturbed():
    return cached_perturbed


@pytest.fixture
def nil_geometry():
    return GeometryParams(0.0, 0.5)


@pytest.fixture
def flat_geometry():
    return GeometryParams(0.0, 0.0)
