"""Host speed, sampled while a phase runs, to take host contention out of its time.

The benchmark runs on a few vCPUs of a shared host.  As other tenants
load that host, the same work takes up to 1.6x longer, in regimes that
last from seconds to minutes, and identical iterations of a workload
spread by more than any useful bound.  So each timed phase runs under a
:class:`SpeedSampler`: an interval timer fires every ``PERIOD_S`` and the
handler times one :func:`reference_slice`, a fixed piece of interpreter
work shaped like the simulator's own.  A phase's *normalised* time is its
wall time, less the slices that ran inside it, scaled by
``NOMINAL_SLICE_S`` over the host slice time: the seconds the phase would
take on a host that runs one slice in ``NOMINAL_SLICE_S``.  The slices
never change with the program, so a faster program still reads faster.

Only the standard library is imported here, so a probe can start the
sampler before it times ``import repro`` (and numpy with it).
"""

from __future__ import annotations

import os
import random
import signal
import statistics
import time
from typing import List, Tuple

__all__ = ["KINDS", "NOMINAL_SLICE_S", "PERIOD_S", "SpeedSampler", "footprint_mb", "reference_slice"]

#: Seconds between two samples.
PERIOD_S = 0.1
#: The slice time that normalised times are expressed at (a typical
#: in-workload host slice on a 2-vCPU Xeon KVM guest).
NOMINAL_SLICE_S = 2.0e-3
#: The two reference slices, sampled in turn.
KINDS = ("resident", "scattered")
#: Resident memory the scattered objects took when built, so that a peak
#: RSS can leave them out.
footprint_mb = 0.0


class _Probe:
    __slots__ = ("scale", "offset")

    def __init__(self, scale: int, offset: int) -> None:
        self.scale = scale
        self.offset = offset

    def apply(self, x: int) -> int:
        return self.scale * x + self.offset


#: The resident slice's objects fit in the L1 cache.
_RESIDENT = [_Probe(i, i + 1) for i in range(64)]
#: The scattered slice's objects, shuffled over about 6 MB, miss in the L2.
_SCATTERED_N = 100_003
_scattered: List[_Probe] = []


def _rss_mb() -> float:
    with open("/proc/self/statm") as statm:
        return int(statm.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 2**20


def _scattered_probes() -> List[_Probe]:
    global footprint_mb
    if not _scattered:
        before = _rss_mb()
        probes = [_Probe(i & 255, (i >> 8) & 255) for i in range(_SCATTERED_N)]
        random.Random(0).shuffle(probes)
        _scattered.extend(probes)
        footprint_mb = _rss_mb() - before
    return _scattered


def reference_slice(kind: str) -> float:
    """Time one fixed slice of method calls and attribute reads on small objects.

    ``resident`` calls on 64 objects and measures the core; ``scattered``
    calls on objects spread over megabytes and also measures the shared
    cache and memory.  Of the slices tried (dict updates, small numpy
    calls, a streaming numpy pass, each of these two alone), the
    geometric mean of these two tracked the workloads' own slow-downs
    most closely: the simulator's time is such interpreter work, on data
    both hot and cold.
    """
    if kind == "resident":
        probes, stride, count = _RESIDENT, 1, 12000
    else:
        probes, stride, count = _scattered_probes(), 104729, 6000
    size = len(probes)
    started = time.perf_counter()
    acc = 0
    for i in range(count):
        acc += probes[(i * stride) % size].apply(i)
    return time.perf_counter() - started


class SpeedSampler:
    """Times a reference slice every ``period`` seconds while entered.

    The kinds of :data:`KINDS` take turns.  Each sample is
    ``(kind, perf_counter at its start, its duration)``.  The handler runs
    between bytecodes of the main thread, so the phase's own outputs do
    not change; only its wall time grows by the slices, which
    :meth:`normalised` takes back out.
    """

    def __init__(self, period: float = PERIOD_S) -> None:
        self.period = period
        self.samples: List[Tuple[str, float, float]] = []
        self._previous = None
        _scattered_probes()

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _sample(self, signum, frame) -> None:
        kind = KINDS[len(self.samples) % len(KINDS)]
        started = time.perf_counter()
        self.samples.append((kind, started, reference_slice(kind)))

    def normalised(self, start: float, wall: float) -> Tuple[float, float]:
        """``(normalised seconds, host slice)`` of the phase ``[start, start + wall)``.

        The host slice is the geometric mean of each kind's median slice
        inside the phase; a phase too short to hold both kinds is set
        against every sample so far.
        """
        inside = [s for s in self.samples if start <= s[1] < start + wall]
        pool = inside if {k for k, _, _ in inside} == set(KINDS) else self.samples
        slice_s = statistics.geometric_mean(
            statistics.median(d for k, _, d in pool if k == kind) for kind in KINDS
        )
        work = wall - sum(d for _, _, d in inside)
        return work * NOMINAL_SLICE_S / slice_s, slice_s
