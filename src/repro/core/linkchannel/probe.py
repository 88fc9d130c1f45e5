"""Link-probe primitives and per-link latency calibration.

A link probe times a small burst of peer-to-peer transfers across one
NVLink route.  Idle, the burst costs the link round trip (the remote-hit
minus local-hit component of the timing model) plus jitter; when another
tenant's transfers occupy the route, the burst queues behind their lane
reservations and the wait is directly visible in the latency.  Nothing
here touches an L2 set on either GPU -- the channel lives entirely in the
fabric.

Two kernel shapes:

* :func:`link_probe_kernel` -- the receiver/monitor: short dependent
  bursts (``wait=True``) at a fixed cadence, recording (time, median
  latency) samples like the L2 spy does.
* :func:`link_flood_kernel` -- the sender/victim: oversubscribed posted
  writes (``wait=False``) that reserve the route's lanes far ahead of the
  issue window, which is what the probes then collide with.

:func:`calibrate_link` runs both against each other to measure one link's
idle and contended latency distributions; the resulting
:class:`LinkCalibration` carries the decision threshold the covert decoder
and the linkgram both use.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, Optional, Tuple

from ...config import DGXSpec
from ...sim.ops import EpochIdle, LinkBurst, LinkEpoch, LinkFlood
from ..covert.spy import SpyTrace

__all__ = [
    "LinkCalibration",
    "calibrate_link",
    "flood_gap",
    "link_flood_kernel",
    "link_probe_kernel",
]


def flood_gap(spec: DGXSpec, pair: Optional[Tuple[int, int]] = None) -> float:
    """Effective lane-occupancy cycles per transfer on one link.

    ``serialization / lanes``: issuing one transfer per this many cycles
    keeps every lane of a link exactly busy, so a flood sized as
    ``window / flood_gap`` transfers reserves the link for ``window``
    cycles.

    On fabrics with asymmetric per-link widths (the ``dgx_a100``
    preset) a flood paced for the uniform default undershoots wider
    uplinks and the contended latency band collapses toward the idle
    floor.  When the contended ``pair`` of endpoints is known, the
    widest link touching either endpoint sets the pace instead --
    saturating the widest hop of a route saturates every hop.  Uniform
    fabrics resolve to the same gap either way.
    """
    lanes = spec.nvlink.lanes
    if pair is not None and spec.nvlink_lane_widths:
        endpoints = set(pair)
        for edge in spec.nvlink_edges:
            if endpoints & set(edge):
                lanes = max(lanes, spec.lane_width(edge))
    return spec.nvlink.serialization_cycles / max(1, lanes)


def link_probe_kernel(
    dst_gpu: int,
    num_probes: int,
    burst: int = 4,
    spacing_cycles: float = 400.0,
) -> Generator:
    """Time ``num_probes`` link bursts toward ``dst_gpu`` at a fixed cadence.

    The whole probe sweep is one :class:`~repro.sim.ops.LinkEpoch`: each
    round reads the clock, times one dependent burst and sleeps
    ``spacing_cycles``.  Returns a :class:`~repro.core.covert.spy.SpyTrace`
    of (start time, median transfer latency) samples -- the same record
    shape the L2 spy produces, so downstream tooling (waveforms, decoders)
    is shared.
    """
    outcome = yield LinkEpoch(
        (
            LinkBurst(dst_gpu, num_transfers=burst, wait=True, record=True),
            EpochIdle(cycles=spacing_cycles),
        ),
        rounds=num_probes,
        round_reads=1,
    )
    return SpyTrace(
        times=[float(t) for t in outcome.starts],
        latencies=[float(m) for m in outcome.medians()],
    )


def link_flood_kernel(
    dst_gpu: int,
    duration_cycles: float,
    occupancy_per_transfer: float,
    burst_cycles: float = 2500.0,
) -> Generator:
    """Keep the route to ``dst_gpu`` saturated for ``duration_cycles``.

    One :class:`~repro.sim.ops.LinkFlood` round per iteration: post one
    oversubscribed write burst (``wait=False``) sized to reserve the link
    for ``burst_cycles``, then hold off the difference between the
    reservation horizon and the issue window so the backlog never grows
    beyond one burst (unbounded backlog would smear contention far past
    the flood's end).
    """
    yield LinkEpoch(
        (
            LinkFlood(
                dst_gpu,
                occupancy_per_transfer,
                burst_cycles=burst_cycles,
                gap_cycles=1.0,
            ),
        ),
        rounds=None,
        duration_cycles=duration_cycles,
        round_reads=1,
    )


@dataclass(frozen=True)
class LinkCalibration:
    """Idle vs contended latency statistics for one probed link."""

    probe_gpu: int
    far_gpu: int
    hops: int
    idle_mean: float
    idle_std: float
    idle_p25: float
    idle_max: float
    contended_mean: float
    contended_std: float
    #: Cycles above the idle floor a sample must sit to count as contended.
    noise_margin: float

    @property
    def threshold(self) -> float:
        """Fixed binarization threshold anchored on the idle noise floor.

        Contended waits are *uniformly* spread over the remaining flood
        reservation (anywhere from ~0 to the full burst horizon), so a
        midpoint between the idle and contended means would miss every
        sample in the lower quarter of that range.  Anchoring just above
        the idle distribution's upper edge instead catches any wait that
        clears the noise.
        """
        return self.idle_p25 + self.noise_margin

    @property
    def remote_half_gap(self) -> float:
        """Adapter for decoders written against TimingThresholds."""
        return self.noise_margin

    @property
    def separation(self) -> float:
        """Contended-minus-idle mean gap in cycles (channel quality)."""
        return self.contended_mean - self.idle_mean

    def summary(self) -> str:
        return (
            f"link {self.probe_gpu}<->{self.far_gpu} ({self.hops} hop"
            f"{'s' if self.hops != 1 else ''}): idle "
            f"{self.idle_mean:.0f}±{self.idle_std:.0f} cyc, contended "
            f"{self.contended_mean:.0f}±{self.contended_std:.0f} cyc, "
            f"threshold {self.threshold:.0f}"
        )


def calibrate_link(
    runtime,
    probe_gpu: int,
    far_gpu: int,
    probes: int = 48,
    burst: int = 4,
    spacing_cycles: float = 400.0,
) -> LinkCalibration:
    """Measure one link's idle and contended latency distributions.

    Runs the probe kernel alone (idle pass), then again concurrently with
    a flood from ``far_gpu`` toward ``probe_gpu`` (contended pass), using
    throwaway processes so the caller's channel state is untouched.
    """
    import numpy as np

    spec = runtime.system.spec
    prober = runtime.create_process("link_cal_probe")
    flooder = runtime.create_process("link_cal_flood")
    runtime.enable_peer_access(prober, probe_gpu, far_gpu)
    runtime.enable_peer_access(flooder, far_gpu, probe_gpu)

    idle_handle = runtime.launch(
        link_probe_kernel(
            far_gpu, probes, burst=burst, spacing_cycles=spacing_cycles
        ),
        probe_gpu,
        prober,
        name="link_cal_idle",
    )
    runtime.synchronize()
    idle: SpyTrace = idle_handle.result

    occupancy = flood_gap(spec, (probe_gpu, far_gpu))
    duration = probes * (spacing_cycles + 4000.0)
    contended_handle = runtime.launch(
        link_probe_kernel(
            far_gpu, probes, burst=burst, spacing_cycles=spacing_cycles
        ),
        probe_gpu,
        prober,
        name="link_cal_probe",
    )
    runtime.launch(
        link_flood_kernel(probe_gpu, duration, occupancy),
        far_gpu,
        flooder,
        name="link_cal_flood",
    )
    runtime.synchronize()
    contended: SpyTrace = contended_handle.result

    idle_lat = np.asarray(idle.latencies)
    cont_lat = np.asarray(contended.latencies)
    idle_p25 = float(np.percentile(idle_lat, 25))
    idle_std = float(idle_lat.std())
    # The threshold must clear the *entire* idle distribution with slack:
    # its upper spread above the 25th-percentile anchor, four sigmas of
    # jitter, and a small constant floor for near-zero-variance cases.
    noise_margin = (float(idle_lat.max()) - idle_p25) + 4.0 * idle_std + 5.0
    return LinkCalibration(
        probe_gpu=probe_gpu,
        far_gpu=far_gpu,
        hops=runtime.system.topology.hops(probe_gpu, far_gpu),
        idle_mean=float(idle_lat.mean()),
        idle_std=idle_std,
        idle_p25=idle_p25,
        idle_max=float(idle_lat.max()),
        contended_mean=float(cont_lat.mean()),
        contended_std=float(cont_lat.std()),
        noise_margin=noise_margin,
    )
