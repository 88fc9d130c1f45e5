"""The spy (receiver) kernel and its decoder -- Section IV-B/C.

The spy block continuously probes its (remote) eviction set and timestamps
every traversal.  Samples are staged into shared memory exactly as in the
paper ("storing the access cycles temporarily on the shared buffer ...
reduces memory pressure"), and decoded offline: binarize against the remote
hit/miss threshold, lock onto the preamble, then majority-vote each slot.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ...errors import ChannelError
from ...sim.ops import AccessEpoch, EpochBurst, EpochIdle, SharedStore
from ..eviction import EvictionSet
from ..timing import TimingThresholds
from .encoding import PREAMBLE

__all__ = [
    "spy_probe_kernel",
    "SpyTrace",
    "decode_trace",
]


@dataclass
class SpyTrace:
    """Raw probe record from one spy block: (timestamp, mean latency)."""

    times: List[float]
    latencies: List[float]

    def binarized(self, threshold: float) -> List[int]:
        return [1 if lat > threshold else 0 for lat in self.latencies]


def spy_probe_kernel(
    eviction_set: EvictionSet,
    num_probes: int,
    shared_times,
    stage_base: int = 0,
):
    """Probe the set ``num_probes`` times, staging (time, latency) pairs.

    The whole probe train is one :class:`AccessEpoch` advanced in bulk by
    the engine's cursor.  Each round reads the clock, traverses the set
    in parallel and pays for two shared-memory staging stores (two idle
    windows, not one doubled one: float addition is not associative and
    the clock must match the per-op expansion bit-for-bit).

    Each sample is stamped with the probe's *start* time: a probe
    straddling a slot boundary observes the state left by the earlier
    slot, so it must be attributed to the slot it started in.  The
    traversal is summarized by its *median* per-line latency: a prime
    leaves all lines missing (median ~ remote miss), while transient
    port/NVLink queueing inflates only a few lines and cannot drag the
    median of a hit traversal over the threshold.

    The shared-memory staging region is a ring: the paper drains it to
    global memory with helper threads; here the host reads the returned
    trace, which models the same data path without the copy traffic.  The
    ring is replayed from the recorded outcome after the epoch completes
    -- shared memory is private to the block, so only its final contents
    are observable.
    """
    stage_slots = len(shared_times.data) - stage_base
    stage_slots = max(2, stage_slots - stage_slots % 2)
    burst = EpochBurst(
        eviction_set.buffer,
        (tuple(eviction_set.indices),),
        parallel=True,
    )
    store = EpochIdle(cycles=SharedStore.cost_cycles)
    outcome = yield AccessEpoch((burst, store, store), rounds=num_probes)
    times = outcome.starts.tolist()
    latencies = outcome.medians().tolist()
    data = shared_times.data
    cursor = 0
    for now, median in zip(times, latencies):
        data[stage_base + cursor % stage_slots] = now
        data[stage_base + (cursor + 1) % stage_slots] = median
        cursor = (cursor + 2) % stage_slots
    return SpyTrace(times=times, latencies=latencies)


def adaptive_threshold(latencies: Sequence[float], half_gap: float) -> float:
    """Per-trace hit/miss threshold re-anchored on the observed hit level.

    Under multi-set transmission, interconnect queueing shifts *both* the
    hit and miss latency clusters upward, so a threshold calibrated in a
    quiet box drifts toward the hit cluster.  The physical hit-to-miss gap
    (the DRAM round trip) is load-independent, so the decoder re-anchors:
    hit level is estimated as the 25th percentile of this trace's samples
    (hits are never the minority -- every '0' slot is all-hits and each '1'
    slot ends with a flush back to hits), and the threshold sits ``half_gap``
    (from the quiet-box calibration) above it.
    """
    values = sorted(latencies)
    if not values:
        return half_gap
    hit_level = values[len(values) // 4]
    return hit_level + half_gap


def _vote_slot(
    times: Sequence[float],
    raw: Sequence[int],
    lo: float,
    hi: float,
) -> Tuple[int, float]:
    """Vote one slot window by miss *count*; returns (bit, confidence).

    During a '1' slot the trojan re-primes continuously, so every probe
    misses (2-3 samples per slot).  During a '0' slot, at most the single
    probe that flushes the previous prime misses.  The decision boundary
    is therefore "two or more misses", which tolerates one stray sample in
    either direction.
    """
    votes = [raw[i] for i, t in enumerate(times) if lo < t <= hi]
    return _vote_votes(votes)


def _vote_votes(votes: Sequence[int]) -> Tuple[int, float]:
    if not votes:
        return 0, 0.0
    misses = sum(votes)
    if misses >= 2:
        return 1, 1.0
    if misses == 0:
        return 0, 1.0
    # Exactly one miss: a lone flush (=> 0) unless it is the only sample.
    if len(votes) == 1:
        return 1, 0.4
    return 0, 0.6


def _decode_with_start(
    trace: SpyTrace,
    raw: Sequence[int],
    start: float,
    slot_cycles: float,
    num_slots: int,
) -> Tuple[List[int], float]:
    """Decode all slots for one candidate phase; returns (bits, score).

    The score is the preamble agreement weighted by vote confidence, which
    disambiguates phases that happen to reproduce the alternating preamble
    through half-slot straddling.
    """
    bits: List[int] = []
    score = 0.0
    times = trace.times
    # Probe stamps are monotone within one spy trace, so each slot's
    # ``lo < t <= hi`` window is a contiguous slice found by bisection --
    # same votes as the linear scan in :func:`_vote_slot`, without the
    # O(samples x slots) rescans.
    for slot in range(num_slots):
        lo = start + slot * slot_cycles
        hi = lo + slot_cycles
        votes = raw[bisect_right(times, lo) : bisect_right(times, hi)]
        bit, confidence = _vote_votes(votes)
        bits.append(bit)
        if slot < len(PREAMBLE):
            score += confidence if bit == PREAMBLE[slot] else -confidence
    return bits, score


def _refine_phase(
    trace: SpyTrace,
    raw: Sequence[int],
    start: float,
    slot_cycles: float,
    period: float,
) -> float:
    """Self-clocking phase refinement from the trace's own edges.

    Every hit/miss transition the spy observes sits just after a true slot
    boundary (the first sample to see the new state lags the boundary by
    up to one probe period, half a period on average).  The circular mean
    of the transition residuals modulo the slot therefore estimates the
    boundary phase; preamble-only scoring can lock half a slot off when
    the preamble's own edges are sparse, and this pass pulls it back using
    the *whole* trace.
    """
    import math

    midpoints = [
        0.5 * (trace.times[i] + trace.times[i - 1])
        for i in range(1, len(raw))
        if raw[i] != raw[i - 1]
    ]
    if len(midpoints) < 4:
        return start
    angles = [2.0 * math.pi * ((t - start) % slot_cycles) / slot_cycles
              for t in midpoints]
    cos_mean = sum(math.cos(a) for a in angles) / len(angles)
    sin_mean = sum(math.sin(a) for a in angles) / len(angles)
    if cos_mean == 0.0 and sin_mean == 0.0:
        return start
    mean_residual = (
        math.atan2(sin_mean, cos_mean) * slot_cycles / (2.0 * math.pi)
    )
    # Observed transitions lag the true boundary by ~half a probe period.
    return start + mean_residual - 0.5 * period


def decode_trace(
    trace: SpyTrace,
    thresholds: "TimingThresholds",
    slot_cycles: float,
    payload_bits: int,
    probe_period_hint: Optional[float] = None,
    rolling: bool = False,
) -> Tuple[List[int], float]:
    """Recover the payload share from one spy trace.

    Locks slot phase on the preamble: the first contention sample after the
    quiet lead-in anchors a fine grid of candidate phases, each scored by
    how confidently it reproduces the alternating preamble.  Returns
    ``(payload_bits_list, start_time_used)``.

    ``thresholds`` is the quiet-box calibration; the decoder self-calibrates
    to this trace's load level with :func:`adaptive_threshold`, or -- with
    ``rolling=True`` -- with a :class:`repro.core.timing.RollingThreshold`
    that tracks *mid-trace* drift (DVFS excursions rescale the clusters
    partway through a trace, where any single per-trace threshold splits
    the difference).
    """
    if rolling:
        from ..timing import RollingThreshold

        tracker = RollingThreshold(thresholds.remote_half_gap)
        raw = tracker.classify(trace.latencies)
    else:
        threshold = adaptive_threshold(trace.latencies, thresholds.remote_half_gap)
        raw = trace.binarized(threshold)
    # The spy's very first probes are cold misses (its lines are not yet
    # cached), which binarize to spurious '1's.  Anchor on the first '1'
    # that follows a run of quiet samples instead.
    first_one = None
    quiet_run = 0
    for index, bit in enumerate(raw):
        if bit == 0:
            quiet_run += 1
        else:
            if quiet_run >= 3:
                first_one = index
                break
            quiet_run = 0
    if first_one is None:
        raise ChannelError("no contention observed: preamble never detected")
    anchor = trace.times[first_one]
    period = probe_period_hint
    if period is None:
        period = (trace.times[-1] - trace.times[0]) / max(1, len(trace.times) - 1)
    num_slots = len(PREAMBLE) + payload_bits

    # The anchoring probe started somewhere inside the first preamble slot,
    # so the true slot-0 start lies in (anchor - period, anchor].  Sweep a
    # fine phase grid across that interval (padded by half a period each
    # side for timing noise).
    best_bits: List[int] = []
    best_score = float("-inf")
    best_start = anchor
    steps = 25
    span = 2.0 * period
    for step in range(steps + 1):
        start = anchor - 1.5 * period + span * step / steps
        bits, score = _decode_with_start(trace, raw, start, slot_cycles, num_slots)
        if score > best_score:
            best_bits, best_score, best_start = bits, score, start
    # Self-clocking refinement: re-anchor the slot grid on the trace's own
    # transition edges and keep the refined decode when it scores at least
    # as well on the preamble.
    refined_start = _refine_phase(trace, raw, best_start, slot_cycles, period)
    if abs(refined_start - best_start) > 1e-9:
        refined_bits, refined_score = _decode_with_start(
            trace, raw, refined_start, slot_cycles, num_slots
        )
        if refined_score >= best_score:
            best_bits, best_score, best_start = (
                refined_bits,
                refined_score,
                refined_start,
            )
    preamble_hits = sum(
        1 for got, want in zip(best_bits[: len(PREAMBLE)], PREAMBLE) if got == want
    )
    if preamble_hits < len(PREAMBLE) - 1:
        raise ChannelError(
            f"preamble lock failed: best match {preamble_hits}/{len(PREAMBLE)}"
        )
    return best_bits[len(PREAMBLE) :], best_start
