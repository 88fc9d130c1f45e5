"""Shared fixtures: scaled-down boxes that keep every paper behaviour."""

from __future__ import annotations

import pytest
from hypothesis import settings

from repro.config import DGXSpec
from repro.core.timing import characterize_timing
from repro.runtime.api import Runtime

#: Opt-in deep run, ``pytest --hypothesis-profile=nightly``: ten times the
#: default profile's example budget.  Properties that pin no
#: ``max_examples`` take it directly; the stateful lockstep suite scales
#: its own budget by the same factor.  Tier-1 keeps the default profile.
settings.register_profile("nightly", max_examples=1000)


@pytest.fixture
def small_spec() -> DGXSpec:
    """64-set, 4-way, 2-GPU box with 4 KiB pages (2 cache colors)."""
    return DGXSpec.small()


@pytest.fixture
def runtime(small_spec) -> Runtime:
    return Runtime(small_spec, seed=7)


@pytest.fixture
def eight_gpu_runtime() -> Runtime:
    """Small caches but the full 8-GPU hybrid cube-mesh."""
    return Runtime(DGXSpec.small(num_gpus=8), seed=7)


@pytest.fixture(scope="session")
def small_thresholds():
    """Calibrated thresholds for the small spec (timing is spec-determined,
    so one calibration serves every test)."""
    calibration_runtime = Runtime(DGXSpec.small(), seed=123)
    return characterize_timing(calibration_runtime).thresholds()


@pytest.fixture
def spy_setup(runtime, small_thresholds):
    """A spy process on GPU 1 with a probe buffer homed on GPU 0."""
    process = runtime.create_process("spy")
    runtime.enable_peer_access(process, 1, 0)
    spec = runtime.system.spec.gpu
    pages = 2 * (2 * spec.cache.associativity + 2)
    buffer = runtime.malloc(process, 0, pages * spec.page_size, name="probe")
    return runtime, process, buffer, small_thresholds
