"""Epoch cursor: bulk advancement of :class:`~repro.sim.ops.AccessEpoch`.

The engine's batch-native execution core.  A kernel that yields an
``AccessEpoch`` hands the engine its whole access plan -- bursts, idle
windows, repeat-until-deadline prime loops, round pacing -- and the
engine parks a cursor on the stream instead of bouncing one heap event
per probe.  Each time the stream reaches the head of the event heap the
cursor *resumes*: it services consecutive bursts through the vectorized
hardware cores until the next foreign event (another stream's op, the
``run(until=...)`` horizon, or a scheduled fault) would interleave, then
suspends with the stream re-queued at its advanced clock.

Ordering stays identical to per-op dispatch because bursts execute
atomically at their start time (the atomic-probe convention): the cursor
services a burst only while its start precedes every other pending
event, so the global op-start order -- the only order the convention
defines -- is unchanged.  Chaos faults are fences: the resume deadline
is capped at the injector's next due time, so a burst starting after a
scheduled fault is serviced only after the fault lands.  Telemetry fires
once per resume (epoch boundaries), not per access.

:func:`unroll` is the differential oracle: it expands each plan into the
per-op stream (``ReadClock``, ``ProbeSet``/``ProbeEpoch``, ``LinkProbe``,
``Compute``/``Sleep``) whose event order the cursors reproduce, and runs
every kernel of a runtime launched with per-op dispatch.
"""

from __future__ import annotations

from typing import Any, Generator, List, Optional, TYPE_CHECKING

import numpy as np

from ..errors import PeerAccessError, SimulationError
from ..hw.interconnect import SMALL_BATCH, FabricFlow
from ..hw.occupancy import multi_server_waits_scalar
from .ops import (
    AccessEpoch,
    Compute,
    EpochBurst,
    EpochIdle,
    EpochOutcome,
    EpochRepeat,
    LinkBurst,
    LinkEpoch,
    LinkFlood,
    LinkOutcome,
    LinkPad,
    LinkProbe,
    ProbeEpoch,
    ProbeSet,
    ReadClock,
    Sleep,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..hw.system import MultiGPUSystem
    from .engine import Engine, StreamHandle
    from .process import Process

__all__ = ["EpochCursor", "LinkEpochCursor", "epochify", "unroll"]

_INF = float("inf")

_LAYOUT_MISMATCH = (
    "recorded epoch bursts must share one set layout; "
    "use record=False for heterogeneous plans"
)


class EpochCursor:
    """Resumable execution state of one in-flight :class:`AccessEpoch`."""

    __slots__ = (
        "op", "handle", "system", "begin", "clock",
        "round_index", "round_start", "in_round", "seg_index", "stop_at",
        "idle_pause", "lead", "last_advance", "key_lead", "key_since",
        "bursts", "accesses", "scalar_bursts", "remote",
        "resumed_accesses", "resumed_bursts",
        "service_cycles", "suspends",
        "_layout", "_starts", "_lats", "_hits", "_totals",
    )

    def __init__(
        self,
        op: AccessEpoch,
        handle: "StreamHandle",
        system: "MultiGPUSystem",
        begin: float,
    ) -> None:
        self.op = op
        self.handle = handle
        self.system = system
        self.begin = begin
        self.clock = begin
        self.round_index = 0
        self.round_start = begin
        self.in_round = False
        self.seg_index = 0
        self.stop_at: Optional[float] = None
        #: Marks the (round, segment) of a chunked idle whose final chunk
        #: already suspended once, so the resume completes it (progress
        #: guarantee) instead of pausing again.
        self.idle_pause = None
        #: Zero-latency clock reads the unrolled stream has pending before
        #: its next resource op, and the start time of its last
        #: clock-advancing op -- together the FIFO tie key per-op dispatch
        #: would have assigned this stream's queued event (see
        #: Engine._push).
        self.lead = 0
        self.last_advance = begin
        self.key_lead = 0
        self.key_since = begin
        self.bursts = 0
        self.accesses = 0
        self.scalar_bursts = 0
        self.remote = False
        #: Work serviced by the latest resume (per-resume stats/telemetry).
        self.resumed_accesses = 0
        self.resumed_bursts = 0
        #: Pure observers for the epoch profiler: sim-cycles spent inside
        #: burst service, and how many times the cursor suspended.  Never
        #: read by the clock arithmetic.
        self.service_cycles = 0.0
        self.suspends = 0
        self._layout = None
        self._starts: List[float] = []
        self._lats: List[np.ndarray] = []
        self._hits: List[np.ndarray] = []
        self._totals: List[float] = []

    # ------------------------------------------------------------------
    def resume(self, now: float, deadline: float) -> bool:
        """Advance until the epoch finishes or ``deadline`` interleaves.

        ``now`` is the heap time the stream was popped at (adopted if the
        cursor's clock lags it -- e.g. after a preemption fault rewrote
        the queued clock).  Returns ``True`` when the epoch is complete;
        otherwise the cursor's clock is where the stream must re-queue.

        A burst may start exactly at ``deadline`` only if nothing was
        serviced yet this resume: the stream was popped first at that
        time, so it owns the tie -- exactly the per-op engine's FIFO
        tie-break, where the re-pushed op would get a later sequence
        number than the already-queued foreign event.
        """
        op = self.op
        clock = self.clock
        if now > clock:
            clock = now
        entry = clock
        serviced = False
        self.resumed_accesses = 0
        self.resumed_bursts = 0
        segments = op.segments
        num_segments = len(segments)
        service = self._service
        # ``lead``/``last_advance`` mirror the unrolled stream's event-queue
        # footprint: how many zero-latency clock reads it has pending, and
        # when its last clock-advancing op started (= when its queued heap
        # entry was pushed).  They become the suspension tie key so that
        # streams parked at the same instant pop in the oracle's order.
        lead = self.lead
        last_advance = self.last_advance
        while True:
            if not self.in_round:
                # Round-start checks observe externally mutated state (the
                # stop flag), so they run only while this stream still owns
                # the simulation clock -- past the deadline the cursor
                # suspends and re-checks after the foreign event has landed,
                # exactly when the unrolled loop would re-check.
                if clock >= deadline and (serviced or clock > entry):
                    return self._suspend(
                        clock, lead, lead + op.round_reads, last_advance
                    )
                if op.rounds is not None and self.round_index >= op.rounds:
                    break
                if op.end_time is not None and clock >= op.end_time:
                    break
                if (
                    op.stop_flag is not None
                    and self.stop_at is None
                    and len(op.stop_flag)
                ):
                    self.stop_at = clock + op.grace_cycles
                if self.stop_at is not None and clock >= self.stop_at:
                    break
                self.in_round = True
                self.seg_index = 0
                self.round_start = clock
                lead += op.round_reads
            while self.seg_index < num_segments:
                seg = segments[self.seg_index]
                kind = type(seg)
                if kind is EpochBurst:
                    if clock >= deadline and (serviced or clock > entry):
                        return self._suspend(clock, lead, lead, last_advance)
                    start = clock
                    clock = start + service(seg, start)
                    last_advance = start
                    lead = 0
                    serviced = True
                elif kind is EpochIdle:
                    if seg.cycles:
                        last_advance = clock
                        clock += seg.cycles
                        lead = 0
                    if seg.until is not None:
                        target = self.round_start + seg.until
                        chunk = seg.chunk
                        if chunk is None:
                            if target > clock:
                                last_advance = clock
                                clock += target - clock
                                lead = 0
                        else:
                            # Step like the per-op wait loop so the two
                            # dispatch modes' clocks agree bit-for-bit; each
                            # evaluation is one clock read when unrolled.
                            here = (self.round_index, self.seg_index)
                            while True:
                                lead += 1
                                remaining = target - clock
                                if remaining <= 0:
                                    break
                                if remaining <= chunk and self.idle_pause != here:
                                    # Final chunk: the unroll pushes its last
                                    # wait Compute here, and that push's FIFO
                                    # slot is what decides pop order when
                                    # several streams re-converge on a common
                                    # grid (trojans padded to one slot edge).
                                    # Suspend once so this cursor's re-push
                                    # lands in the same relative order.
                                    self.idle_pause = here
                                    return self._suspend(
                                        clock, lead - 1, lead, last_advance
                                    )
                                last_advance = clock
                                clock += remaining if remaining < chunk else chunk
                                lead = 0
                            if self.idle_pause == here:
                                self.idle_pause = None
                elif kind is EpochRepeat:
                    burst = seg.burst
                    target = self.round_start + seg.until
                    while True:
                        lead += 1  # the margin-check clock read
                        if clock + seg.margin > target:
                            break
                        if clock >= deadline and (serviced or clock > entry):
                            # ``lead - 1``: the margin check re-runs on
                            # resume; the key still counts it.
                            return self._suspend(clock, lead - 1, lead, last_advance)
                        start = clock
                        clock = start + service(burst, start)
                        last_advance = start
                        lead = 0
                        serviced = True
                else:
                    raise SimulationError(
                        f"AccessEpoch segment {seg!r} is not a burst/idle/repeat"
                    )
                self.seg_index += 1
            if op.period is not None:
                # ``period - elapsed`` then add: the unrolled pacing
                # arithmetic, kept verbatim for bitwise clock equality.  A
                # round-read kernel reads the clock to compute the pad.
                if op.round_reads:
                    lead += 1
                remaining = op.period - (clock - self.round_start)
                if remaining > 0:
                    last_advance = clock
                    clock += remaining
                    lead = 0
            self.round_index += 1
            self.in_round = False
        self.clock = clock
        self.lead = lead
        self.last_advance = last_advance
        return True

    def _suspend(
        self, clock: float, lead: int, key_lead: int, last_advance: float
    ) -> bool:
        self.clock = clock
        self.lead = lead
        self.key_lead = key_lead
        self.key_since = last_advance
        self.last_advance = last_advance
        self.suspends += 1
        return False

    def _service(self, burst: EpochBurst, clock: float) -> float:
        latencies, hits, total, remote, scalar = self.system.service_burst(
            self.handle.process,
            burst.buffer,
            burst.sets,
            self.handle.gpu_id,
            clock,
            parallel=burst.parallel,
            issue_gap=burst.issue_gap,
        )
        self.bursts += 1
        self.resumed_bursts += 1
        # ``latencies`` is a numpy row from the vector core or a plain
        # list from the fused small-burst core; rows are kept as-is and
        # stacked once in :meth:`take_outcome`.
        count = len(latencies)
        self.accesses += count
        self.resumed_accesses += count
        self.service_cycles += total
        if scalar:
            self.scalar_bursts += 1
        if remote:
            self.remote = True
        if self.op.record:
            if self._layout is None:
                self._layout = self.system.epoch_layout(
                    burst.buffer, burst.sets, burst.parallel, burst.issue_gap
                )
            elif count != (len(self._lats[0]) if self._lats else count):
                raise SimulationError(_LAYOUT_MISMATCH)
            self._starts.append(clock)
            self._lats.append(latencies)
            self._hits.append(hits)
            self._totals.append(total)
        return total

    def take_outcome(self) -> EpochOutcome:
        """Assemble the columnar result (call once, after completion)."""
        return _epoch_outcome(
            self._layout, self._starts, self._lats, self._hits, self._totals,
            self.remote, self.bursts, self.accesses, self.begin, self.clock,
        )


class LinkEpochCursor:
    """Resumable execution state of one in-flight :class:`LinkEpoch`.

    The fabric-channel sibling of :class:`EpochCursor`: same suspension
    machinery (deadline fences, ``lead``/``last_advance`` FIFO tie keys,
    one-shot pad pauses), but the serviced resource is the NVLink fabric
    via :meth:`~repro.hw.system.MultiGPUSystem.service_link_burst` over a
    cached :class:`~repro.hw.interconnect.FabricFlow`.  Peer access is
    validated once at construction; the flow itself is re-fetched per
    burst through :meth:`~repro.hw.interconnect.Interconnect.route_state`
    so link flaps, degradations and lane reassignments landing between
    resumes are picked up (chaos events cap the resume deadline, so no
    fabric mutation can land *inside* a resume).
    """

    __slots__ = (
        "op", "handle", "system", "begin", "clock",
        "round_index", "round_start", "in_round", "seg_index", "stop_time",
        "idle_pause", "lead", "last_advance", "key_lead", "key_since",
        "bursts", "accesses", "scalar_bursts", "remote",
        "resumed_accesses", "resumed_bursts",
        "service_cycles", "suspends",
        "_width", "_steps", "_fast", "_fast_seg", "_starts", "_lats",
    )

    def __init__(
        self,
        op: LinkEpoch,
        handle: "StreamHandle",
        system: "MultiGPUSystem",
        begin: float,
    ) -> None:
        self.op = op
        self.handle = handle
        self.system = system
        self.begin = begin
        self.clock = begin
        self.round_index = 0
        self.round_start = begin
        self.in_round = False
        self.seg_index = 0
        #: Absolute stop time resolved once: the begin plus
        #: ``duration_cycles`` (the flooder's horizon).
        self.stop_time: Optional[float] = (
            None if op.duration_cycles is None else begin + op.duration_cycles
        )
        self.idle_pause = None
        self.lead = 0
        self.last_advance = begin
        self.key_lead = 0
        self.key_since = begin
        self.bursts = 0
        #: Transfers serviced (the link analogue of epoch accesses).
        self.accesses = 0
        self.scalar_bursts = 0
        self.remote = True
        self.resumed_accesses = 0
        self.resumed_bursts = 0
        self.service_cycles = 0.0
        self.suspends = 0
        self._width: Optional[int] = None
        #: ``arange(count) * gap`` issue-offset arrays, keyed by
        #: (count, gap) -- stable across rounds for fixed-size bursts.
        self._steps = {}
        #: Fused small-burst closures keyed by
        #: (dst, count, gap, wait, record); see :meth:`_build_fast_burst`.
        #: Used by the flood path, whose burst size varies per round.
        self._fast = {}
        #: Per-segment closure cache for :class:`LinkBurst` segments,
        #: whose shape is static: ``False`` marks an ineligible (wide)
        #: burst, ``None`` an unbuilt one.
        self._fast_seg: List = [None] * len(op.segments)
        self._starts: List[float] = []
        self._lats: List[np.ndarray] = []
        _check_link_peers(op, handle.gpu_id, handle.process)

    # ------------------------------------------------------------------
    def resume(self, now: float, deadline: float) -> bool:
        """Advance until the epoch finishes or ``deadline`` interleaves.

        Same contract as :meth:`EpochCursor.resume`: returns ``True`` on
        completion, otherwise the cursor clock is the re-queue time and
        ``key_lead``/``key_since`` carry the unrolled stream's FIFO tie key.
        """
        op = self.op
        clock = self.clock
        if now > clock:
            clock = now
        entry = clock
        serviced = False
        self.resumed_accesses = 0
        self.resumed_bursts = 0
        segments = op.segments
        num_segments = len(segments)
        service = self._service
        fast_seg = self._fast_seg
        lead = self.lead
        last_advance = self.last_advance
        while True:
            if not self.in_round:
                if clock >= deadline and (serviced or clock > entry):
                    return self._suspend(
                        clock, lead, lead + op.round_reads, last_advance
                    )
                if op.rounds is not None and self.round_index >= op.rounds:
                    break
                if self.stop_time is not None and clock >= self.stop_time:
                    break
                self.in_round = True
                self.seg_index = 0
                self.round_start = clock
                lead += op.round_reads
            while self.seg_index < num_segments:
                seg = segments[self.seg_index]
                kind = type(seg)
                if kind is LinkBurst:
                    if clock >= deadline and (serviced or clock > entry):
                        return self._suspend(clock, lead, lead, last_advance)
                    start = clock
                    seg_at = self.seg_index
                    fast = fast_seg[seg_at]
                    if fast is None:
                        count = int(seg.num_transfers)
                        fast = False
                        if count < SMALL_BATCH:
                            fast = self._build_fast_burst(
                                seg.dst_gpu, count, float(seg.gap_cycles),
                                seg.wait, seg.record,
                            )
                        fast_seg[seg_at] = fast
                    outcome = fast(start) if fast is not False else None
                    if outcome is None:
                        clock = start + service(
                            seg.dst_gpu, seg.num_transfers, seg.gap_cycles,
                            seg.wait, seg.record, start,
                        )
                    else:
                        latencies, total = outcome
                        count = seg.num_transfers
                        self.bursts += 1
                        self.resumed_bursts += 1
                        self.accesses += count
                        self.resumed_accesses += count
                        self.service_cycles += total
                        if seg.record:
                            self._width = _check_width(self._width, count)
                            self._starts.append(start)
                            self._lats.append(latencies)
                        clock = start + total
                    last_advance = start
                    lead = 0
                    serviced = True
                elif kind is LinkFlood:
                    if clock >= deadline and (serviced or clock > entry):
                        return self._suspend(clock, lead, lead, last_advance)
                    count, hold = _flood_shape(seg, self.stop_time, clock)
                    start = clock
                    clock = start + service(
                        seg.dst_gpu, count, seg.gap_cycles, False, False, start
                    )
                    last_advance = start
                    lead = 0
                    serviced = True
                    if hold > 0.0:
                        last_advance = clock
                        clock += hold
                        lead = 0
                elif kind is LinkPad:
                    # The trojan's slot alignment: one clock read, one
                    # sleep of the remainder, no re-check read after it.
                    target = self.round_start + seg.until
                    here = (self.round_index, self.seg_index)
                    lead += 1
                    if target > clock:
                        if self.idle_pause != here:
                            # The unrolled stream pushes its pad Sleep here;
                            # suspend once so this cursor's re-push takes the
                            # same FIFO slot when streams converge on a
                            # common slot grid (see EpochIdle's chunked wait).
                            self.idle_pause = here
                            return self._suspend(
                                clock, lead - 1, lead, last_advance
                            )
                        last_advance = clock
                        clock += target - clock
                        lead = 0
                    if self.idle_pause == here:
                        self.idle_pause = None
                elif kind is EpochIdle:
                    if seg.cycles:
                        last_advance = clock
                        clock += seg.cycles
                        lead = 0
                    if seg.until is not None:
                        target = self.round_start + seg.until
                        if target > clock:
                            last_advance = clock
                            clock += target - clock
                            lead = 0
                else:
                    raise SimulationError(
                        f"LinkEpoch segment {seg!r} is not a "
                        "burst/flood/pad/idle"
                    )
                self.seg_index += 1
            self.round_index += 1
            self.in_round = False
        self.clock = clock
        self.lead = lead
        self.last_advance = last_advance
        return True

    def _suspend(
        self, clock: float, lead: int, key_lead: int, last_advance: float
    ) -> bool:
        self.clock = clock
        self.lead = lead
        self.key_lead = key_lead
        self.key_since = last_advance
        self.last_advance = last_advance
        self.suspends += 1
        return False

    def _build_fast_burst(
        self, dst_gpu: int, count: int, gap: float, wait: bool, record: bool
    ):
        """Fused small-burst service closure for one burst shape.

        Inlines the whole ``service_link_burst`` + ``advance_batch_small``
        stack -- route revalidation, lane walk, jitter, latency math, byte
        counters -- into one call frame with every constant pre-bound, the
        link analogue of the fused L2 small-burst core.  The closure
        returns ``(latencies, total)``, or ``None`` to fall back to the
        generic path whenever a hook is attached (tracer, metrics, DVFS
        latency scaling) or the flow is not a plain :class:`FabricFlow`
        (lane-partitioned fabrics shape per burst) -- exactly the cases
        that need per-burst emission or extra arithmetic.  Each float
        expression mirrors the generic path, so results stay bitwise.
        """
        system = self.system
        handle = self.handle
        exec_gpu = handle.gpu_id
        pid = handle.process.pid
        timing = system.spec.timing
        link_rtt = timing.remote_l2_hit - timing.local_l2_hit
        jitter_amp = timing.jitter_remote_hit
        burst_bytes = count * system.spec.gpu.cache.line_size
        counters_exec = system.gpus[exec_gpu].counters
        counters_dst = system.gpus[dst_gpu].counters
        pool = system._jitter
        steps = [index * gap for index in range(count)]
        indices = range(count)
        lane_walk = multi_server_waits_scalar
        two = count == 2

        def run(now: float):
            inter = system.interconnect
            if (
                system.tracer is not None
                or inter.tracer is not None
                or inter.metrics is not None
                or system._latency_scale is not None
            ):
                return None
            flow = inter.route_state(exec_gpu, dst_gpu, pid)
            if type(flow) is not FabricFlow:
                return None
            transfers = inter._transfers
            queued = inter._queued_cycles
            busy_cycles = inter._busy_cycles
            if two and flow.hops == 1:
                lane_state = flow.lanes[0]
                if len(lane_state) == 2:
                    # Pair-probe shape (the linkgram sweep): unroll the
                    # 2-lane/2-request least-busy walk.  Expressions track
                    # multi_server_waits_scalar exactly: lane sort, consume
                    # vs chain branch, pairwise exit sort.
                    edge = flow.edges[0]
                    serialization = flow.serialization[0]
                    lane0 = lane_state[0]
                    lane1 = lane_state[1]
                    if lane0 > lane1:
                        lane0, lane1 = lane1, lane0
                    stamp1 = now + gap
                    start = now if now >= lane0 else lane0
                    wait0 = start - now
                    depart0 = start + serialization
                    if lane1 <= depart0:
                        start = stamp1 if stamp1 >= lane1 else lane1
                        wait1 = start - stamp1
                        depart1 = start + serialization
                        if depart0 > depart1:
                            lane_state[0] = depart1
                            lane_state[1] = depart0
                        else:
                            lane_state[0] = depart0
                            lane_state[1] = depart1
                    else:
                        wait1 = depart0 - stamp1
                        if wait1 < 0.0:
                            wait1 = 0.0
                        depart1 = stamp1 + wait1 + serialization
                        if lane1 > depart1:
                            lane_state[0] = depart1
                            lane_state[1] = lane1
                        else:
                            lane_state[0] = lane1
                            lane_state[1] = depart1
                    transfers[edge] += 2
                    queued[edge] += wait0 + wait1
                    busy_cycles[edge] += serialization * 2
                    pad = flow.hop_pad
                    if pad:
                        wait0 += pad
                        wait1 += pad
                    position = pool._pos
                    if position + 2 <= pool._block:
                        draws = pool._buf[position : position + 2].tolist()
                        pool._pos = position + 2
                    else:
                        draws = pool.take_list(2)
                    latencies = None
                    if wait or record:
                        lat0 = link_rtt + wait0 + jitter_amp * draws[0]
                        lat1 = link_rtt + wait1 + jitter_amp * draws[1]
                        latencies = [
                            lat0 if lat0 > 1.0 else 1.0,
                            lat1 if lat1 > 1.0 else 1.0,
                        ]
                    if wait:
                        total = latencies[0]
                        candidate = gap + latencies[1]
                        if candidate > total:
                            total = candidate
                    else:
                        total = 2 * gap
                        if total < 1.0:
                            total = 1.0
                    counters_exec.nvlink_bytes_in += burst_bytes
                    counters_dst.nvlink_bytes_out += burst_bytes
                    return latencies, total
            stamps = [now + step for step in steps]
            if flow.hops == 1:
                # Direct link: the per-hop waits ARE the extras, so the
                # next-hop stamp roll and the extras accumulator drop out.
                edge = flow.edges[0]
                serialization = flow.serialization[0]
                lane_state = flow.lanes[0]
                extras, new_busy = lane_walk(lane_state, stamps, serialization)
                lane_state[:] = new_busy
                transfers[edge] += count
                hop_wait = 0.0
                for wait_cycles in extras:
                    hop_wait += wait_cycles
                queued[edge] += hop_wait
                busy_cycles[edge] += serialization * count
            else:
                extras = [0.0] * count
                edges = flow.edges
                serialization_by_hop = flow.serialization
                lanes_by_hop = flow.lanes
                for hop in range(flow.hops):
                    edge = edges[hop]
                    serialization = serialization_by_hop[hop]
                    waits, new_busy = lane_walk(
                        lanes_by_hop[hop], stamps, serialization
                    )
                    lanes_by_hop[hop][:] = new_busy
                    transfers[edge] += count
                    hop_wait = 0.0
                    for index in indices:
                        wait_cycles = waits[index]
                        hop_wait += wait_cycles
                        extras[index] += wait_cycles
                        stamps[index] += wait_cycles + serialization
                    queued[edge] += hop_wait
                    busy_cycles[edge] += serialization * count
            pad = flow.hop_pad
            if pad:
                for index in indices:
                    extras[index] += pad
            position = pool._pos
            if position + count <= pool._block:
                draws = pool._buf[position : position + count].tolist()
                pool._pos = position + count
            else:
                draws = pool.take_list(count)
            latencies = None
            if wait or record:
                latencies = [0.0] * count
                for index in indices:
                    latency = link_rtt + extras[index] + jitter_amp * draws[index]
                    latencies[index] = latency if latency > 1.0 else 1.0
            if wait:
                total = steps[0] + latencies[0]
                for index in indices:
                    candidate = steps[index] + latencies[index]
                    if candidate > total:
                        total = candidate
            else:
                total = count * gap
                if total < 1.0:
                    total = 1.0
            counters_exec.nvlink_bytes_in += burst_bytes
            counters_dst.nvlink_bytes_out += burst_bytes
            return latencies, total

        return run

    def _service(
        self,
        dst_gpu: int,
        num_transfers: int,
        gap_cycles: float,
        wait: bool,
        record: bool,
        clock: float,
    ) -> float:
        system = self.system
        count = int(num_transfers)
        gap = float(gap_cycles)
        serviced = None
        if count < SMALL_BATCH:
            key = (dst_gpu, count, gap, wait, record)
            fast = self._fast.get(key)
            if fast is None:
                fast = self._build_fast_burst(dst_gpu, count, gap, wait, record)
                self._fast[key] = fast
            serviced = fast(clock)
        if serviced is None:
            handle = self.handle
            steps = self._steps.get((count, gap))
            if steps is None:
                # Plain-list offsets below the small-batch threshold steer
                # service_link_burst down the pure-Python fabric walk.
                if count < SMALL_BATCH:
                    steps = [index * gap for index in range(count)]
                else:
                    steps = np.arange(count, dtype=np.float64) * gap
                self._steps[(count, gap)] = steps
            flow = system.interconnect.route_state(
                handle.gpu_id, dst_gpu, owner=handle.process.pid
            )
            serviced = system.service_link_burst(
                handle.process, dst_gpu, handle.gpu_id, clock,
                count, gap, wait, record, flow, steps=steps,
            )
        latencies, total = serviced
        self.bursts += 1
        self.resumed_bursts += 1
        self.accesses += count
        self.resumed_accesses += count
        self.service_cycles += total
        if record:
            self._width = _check_width(self._width, count)
            self._starts.append(clock)
            self._lats.append(latencies)
        return total

    def take_outcome(self) -> LinkOutcome:
        """Assemble the columnar result (call once, after completion)."""
        return _link_outcome(
            self._starts, self._lats, self._width,
            self.bursts, self.accesses, self.begin, self.clock,
        )


# ----------------------------------------------------------------------
# Result assembly and validation shared with the per-op unroll
# ----------------------------------------------------------------------
def _epoch_outcome(
    layout, starts, lats, hits, totals, remote, bursts, accesses, begin, end
) -> EpochOutcome:
    if layout is not None:
        counts, offsets, set_starts = layout
    else:
        counts = np.empty(0, dtype=np.int64)
        offsets = np.empty(0, dtype=np.int64)
        set_starts = np.empty(0, dtype=np.float64)
    if starts:
        starts_array = np.asarray(starts, dtype=np.float64)
        latencies = np.vstack(lats)
        hits_array = np.vstack(hits)
        totals_array = np.asarray(totals, dtype=np.float64)
    else:
        width = int(counts.sum())
        starts_array = np.empty(0, dtype=np.float64)
        latencies = np.empty((0, width), dtype=np.float64)
        hits_array = np.empty((0, width), dtype=bool)
        totals_array = np.empty(0, dtype=np.float64)
    return EpochOutcome(
        starts=starts_array,
        latencies=latencies,
        hits=hits_array,
        totals=totals_array,
        set_counts=counts,
        set_offsets=offsets,
        set_starts=set_starts,
        remote=remote,
        bursts=bursts,
        accesses=accesses,
        begin=begin,
        end=end,
    )


def _link_outcome(starts, lats, width, bursts, transfers, begin, end) -> LinkOutcome:
    if starts:
        starts_array = np.asarray(starts, dtype=np.float64)
        latencies = np.vstack(lats)
    else:
        starts_array = np.empty(0, dtype=np.float64)
        latencies = np.empty((0, width or 0), dtype=np.float64)
    return LinkOutcome(starts_array, latencies, bursts, transfers, begin, end)


def _check_width(width: Optional[int], count: int) -> int:
    """Recorded link bursts of one epoch share a width; returns it."""
    if width is not None and count != width:
        raise SimulationError(
            "recorded link-epoch bursts must share one width; "
            "use record=False for heterogeneous plans"
        )
    return count


def _flood_shape(seg: LinkFlood, stop_time: Optional[float], clock: float):
    """One flooder iteration: the posted burst sized to the remaining
    window, and the paced remainder of its lane reservation to hold."""
    window = seg.burst_cycles
    if stop_time is not None:
        window = min(window, stop_time - clock)
    count = max(1, int(window / seg.occupancy_per_transfer))
    hold = max(
        count * seg.occupancy_per_transfer - count * seg.gap_cycles, 0.0
    )
    return count, hold


def _check_link_peers(op: LinkEpoch, exec_gpu: int, process) -> None:
    """Validate every segment's destination before any burst runs."""
    for seg in op.segments:
        dst = getattr(seg, "dst_gpu", None)
        if dst is None:
            continue
        if dst == exec_gpu:
            raise PeerAccessError("link probes need a remote destination GPU")
        if not process.has_peer_access(exec_gpu, dst):
            raise PeerAccessError(
                f"process {process.name!r} has no peer access from GPU "
                f"{exec_gpu} to GPU {dst}"
            )


# ----------------------------------------------------------------------
# Trace-kernel adapter
# ----------------------------------------------------------------------
def _as_segment(op: Any):
    kind = type(op)
    if kind is ProbeSet:
        return EpochBurst(
            op.buffer,
            (tuple(op.indices),),
            parallel=op.parallel,
            issue_gap=op.issue_gap,
        )
    if kind is ProbeEpoch:
        return EpochBurst(
            op.buffer,
            tuple(tuple(s) for s in op.sets),
            parallel=op.parallel,
            issue_gap=op.issue_gap,
        )
    if kind is Compute or kind is Sleep:
        return EpochIdle(cycles=float(op.cycles))
    return None


def epochify(kernel: Generator[Any, Any, Any]) -> Generator[Any, Any, Any]:
    """Wrap a result-blind trace kernel into a single unrecorded epoch.

    Drains ``kernel`` (sending ``None``, which trace workloads ignore)
    and re-expresses its probe/compute stream as one
    ``AccessEpoch(record=False)`` -- the victim's whole run becomes a
    handful of cursor resumes instead of one heap event per 16-line
    batch.  Idle segments are kept one-per-op (not coalesced): float
    addition is not associative, and summing them would nudge the clock
    off the per-op path's bit pattern.

    The moment the kernel yields an op with no epoch equivalent (a
    store, fence or clock read), the collected prefix replays verbatim
    on the per-op path and the wrapper turns into a transparent
    passthrough: every later op is forwarded as yielded and its real
    engine result sent back in.  Eagerly draining past that point would
    be wrong, not just slow -- a result-*dependent* kernel (e.g. the
    composite victim's join loop, which polls a flag that only flips
    once its sibling streams run) may never terminate when fed ``None``.
    """
    segments: List[Any] = []
    while True:
        try:
            op = next(kernel)
        except StopIteration as stop:
            if segments:
                # round_reads=0: trace kernels never read the clock, so
                # the plan has no zero-latency lead-in ops.
                yield AccessEpoch(
                    tuple(segments), rounds=1, record=False, round_reads=0
                )
            return stop.value
        seg = _as_segment(op)
        if seg is not None:
            segments.append(seg)
            continue
        # Replay the epochable prefix (those ops already received None,
        # so their engine results are discarded), then go transparent.
        for prefix in segments:
            if type(prefix) is EpochIdle:
                yield Compute(prefix.cycles)
            else:
                yield ProbeSet(
                    prefix.buffer,
                    [index for group in prefix.sets for index in group],
                    parallel=prefix.parallel,
                    issue_gap=prefix.issue_gap,
                )
        result = yield op
        while True:
            try:
                op = kernel.send(result)
            except StopIteration as stop:
                return stop.value
            result = yield op


# ----------------------------------------------------------------------
# Per-op unroll: the differential oracle
# ----------------------------------------------------------------------
def unroll(
    kernel: Generator[Any, Any, Any],
    engine: "Engine",
    gpu_id: int,
    process: "Process",
) -> Generator[Any, Any, Any]:
    """Expand every epoch plan ``kernel`` yields into per-op dispatch.

    The inverse of :func:`epochify` and the oracle behind a
    :class:`~repro.runtime.api.Runtime` built for per-op dispatch, which
    wraps every kernel it launches.  Ordinary ops pass through.  Each
    :class:`AccessEpoch` / :class:`LinkEpoch` becomes the per-op stream
    whose event order its cursor reproduces -- ``round_reads`` clock reads
    opening every round (the round-start checks see the last one), one
    ``ProbeSet`` per one-set burst, ``ProbeEpoch`` per multi-set burst and
    ``LinkProbe`` per link burst or flood window, a clock read before
    every repeat margin check, chunked idle step and pad, and
    ``Compute`` (L2 plans) or ``Sleep`` (link plans) for idles, pads,
    flood holds and period padding -- and the kernel is sent the
    :class:`EpochOutcome` / :class:`LinkOutcome` assembled from the
    per-op results.  Clock values the plan declares no read for come from
    ``engine.now``, the stream's own clock whenever the engine resumes
    it.  A link plan's destinations are validated before its first op,
    as the cursor does.
    """
    result = None
    while True:
        try:
            op = kernel.send(result)
        except StopIteration as stop:
            return stop.value
        kind = type(op)
        if kind is AccessEpoch:
            result = yield from _unroll_access(op, engine)
        elif kind is LinkEpoch:
            _check_link_peers(op, gpu_id, process)
            result = yield from _unroll_link(op, engine)
        else:
            result = yield op


def _unroll_access(op: AccessEpoch, engine: "Engine"):
    begin = engine.now
    layout = None
    starts: List[float] = []
    lats: List[np.ndarray] = []
    hits: List[np.ndarray] = []
    totals: List[float] = []
    bursts = 0
    accesses = 0
    remote = False

    def burst_ops(burst: EpochBurst):
        nonlocal layout, bursts, accesses, remote
        start = engine.now
        if len(burst.sets) == 1:
            probe = yield ProbeSet(
                burst.buffer, burst.sets[0], burst.parallel, burst.issue_gap
            )
            latencies, hit_flags = probe.latencies, probe.hits
            total, burst_remote = probe.total_latency, probe.remote
        else:
            epoch = yield ProbeEpoch(
                burst.buffer, burst.sets, burst.parallel, burst.issue_gap
            )
            latencies = [lat for row in epoch.set_latencies for lat in row]
            hit_flags = [hit for row in epoch.set_hits for hit in row]
            total, burst_remote = epoch.total_latency, epoch.remote
        bursts += 1
        accesses += len(latencies)
        remote = remote or burst_remote
        if not op.record:
            return
        if layout is None:
            layout = engine.system.epoch_layout(
                burst.buffer, burst.sets, burst.parallel, burst.issue_gap
            )
        elif len(latencies) != len(lats[0]):
            raise SimulationError(_LAYOUT_MISMATCH)
        starts.append(start)
        lats.append(np.asarray(latencies, dtype=np.float64))
        hits.append(np.asarray(hit_flags, dtype=bool))
        totals.append(total)

    stop_at = None
    round_index = 0
    while op.rounds is None or round_index < op.rounds:
        clock = engine.now
        for _ in range(op.round_reads):
            clock = yield ReadClock()
        if op.end_time is not None and clock >= op.end_time:
            break
        if op.stop_flag is not None and stop_at is None and len(op.stop_flag):
            stop_at = clock + op.grace_cycles
        if stop_at is not None and clock >= stop_at:
            break
        round_start = clock
        for seg in op.segments:
            kind = type(seg)
            if kind is EpochBurst:
                yield from burst_ops(seg)
            elif kind is EpochIdle:
                if seg.cycles:
                    yield Compute(seg.cycles)
                if seg.until is None:
                    continue
                target = round_start + seg.until
                if seg.chunk is None:
                    if target > engine.now:
                        yield Compute(target - engine.now)
                    continue
                while True:
                    now = yield ReadClock()
                    remaining = target - now
                    if remaining <= 0:
                        break
                    yield Compute(min(remaining, seg.chunk))
            elif kind is EpochRepeat:
                target = round_start + seg.until
                while True:
                    now = yield ReadClock()
                    if now + seg.margin > target:
                        break
                    yield from burst_ops(seg.burst)
            else:
                raise SimulationError(
                    f"AccessEpoch segment {seg!r} is not a burst/idle/repeat"
                )
        if op.period is not None:
            now = (yield ReadClock()) if op.round_reads else engine.now
            remaining = op.period - (now - round_start)
            if remaining > 0:
                yield Compute(remaining)
        round_index += 1
    return _epoch_outcome(
        layout, starts, lats, hits, totals, remote, bursts, accesses,
        begin, engine.now,
    )


def _unroll_link(op: LinkEpoch, engine: "Engine"):
    begin = engine.now
    stop_time = None if op.duration_cycles is None else begin + op.duration_cycles
    starts: List[float] = []
    lats: List[np.ndarray] = []
    width: Optional[int] = None
    bursts = 0
    transfers = 0
    round_index = 0
    while op.rounds is None or round_index < op.rounds:
        clock = engine.now
        for _ in range(op.round_reads):
            clock = yield ReadClock()
        if stop_time is not None and clock >= stop_time:
            break
        round_start = clock
        for seg in op.segments:
            kind = type(seg)
            if kind is LinkBurst:
                start = engine.now
                count = int(seg.num_transfers)
                probe = yield LinkProbe(
                    seg.dst_gpu, count, seg.gap_cycles, seg.wait
                )
                bursts += 1
                transfers += count
                if seg.record:
                    width = _check_width(width, count)
                    starts.append(start)
                    lats.append(np.asarray(probe.latencies, dtype=np.float64))
            elif kind is LinkFlood:
                count, hold = _flood_shape(seg, stop_time, engine.now)
                yield LinkProbe(seg.dst_gpu, count, seg.gap_cycles, wait=False)
                bursts += 1
                transfers += count
                if hold > 0.0:
                    yield Sleep(hold)
            elif kind is LinkPad:
                now = yield ReadClock()
                target = round_start + seg.until
                if target > now:
                    yield Sleep(target - now)
            elif kind is EpochIdle:
                if seg.cycles:
                    yield Sleep(seg.cycles)
                if seg.until is not None:
                    target = round_start + seg.until
                    if target > engine.now:
                        yield Sleep(target - engine.now)
            else:
                raise SimulationError(
                    f"LinkEpoch segment {seg!r} is not a "
                    "burst/flood/pad/idle"
                )
        round_index += 1
    return _link_outcome(
        starts, lats, width, bursts, transfers, begin, engine.now
    )
