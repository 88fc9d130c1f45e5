"""The host-speed sampler and its normalisation arithmetic."""

import math
import signal
import time

import pytest

from hostspeed import KINDS, NOMINAL_SLICE_S, SpeedSampler

RESIDENT, SCATTERED = KINDS


def test_normalised_takes_out_only_the_slices_inside_the_phase():
    sampler = SpeedSampler()
    sampler.samples = [
        (RESIDENT, 1.0, 0.002), (SCATTERED, 1.5, 0.008), (RESIDENT, 5.0, 1.0),
    ]
    norm, slice_s = sampler.normalised(0.5, 2.0)
    assert slice_s == pytest.approx(math.sqrt(0.002 * 0.008))
    assert norm == pytest.approx((2.0 - 0.010) * NOMINAL_SLICE_S / slice_s)


def test_a_phase_without_both_kinds_is_set_against_every_sample():
    sampler = SpeedSampler()
    sampler.samples = [
        (RESIDENT, 1.0, 0.002), (SCATTERED, 1.5, 0.008), (RESIDENT, 5.0, 0.004),
    ]
    norm, slice_s = sampler.normalised(4.0, 2.0)
    assert slice_s == pytest.approx(math.sqrt(0.003 * 0.008))
    assert norm == pytest.approx((2.0 - 0.004) * NOMINAL_SLICE_S / slice_s)


def test_sampler_samples_both_kinds_and_restores_the_alarm_handler():
    previous = signal.getsignal(signal.SIGALRM)
    with SpeedSampler(period=0.01) as sampler:
        deadline = time.perf_counter() + 0.2
        while time.perf_counter() < deadline:
            pass
    assert signal.getsignal(signal.SIGALRM) == previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert {kind for kind, _, _ in sampler.samples} == set(KINDS)
