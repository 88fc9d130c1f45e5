"""The linkgram: per-link occupancy over time (fabric side channel).

The L2 memorygram asks *which cache sets* a victim touches; the linkgram
asks *which NVLink* its traffic crosses and *when*.  A monitor process
probes every peer GPU pair at a fixed cadence and bins the excess latency
(observed minus idle baseline) into a (pair x time) matrix:

* **Locating the victim pair.**  On a cube-mesh only the probe row that
  shares the victim's link heats up.  On a switched topology every route
  through the victim's uplinks heats up, so single-row argmax ties; the
  per-GPU *endpoint heat* (mean excess over the rows containing a GPU)
  still peaks exactly at the victim's two endpoints, on both fabrics.
* **Fingerprinting cadence.**  A bursty victim (iterative all-reduce,
  pipelined transfer) leaves a periodic stripe; the autocorrelation of
  the hottest row recovers the burst period, the fabric analog of the
  memorygram's temporal fingerprint.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from ...runtime.api import Runtime
from ...sim.ops import LinkBurst, LinkEpoch, LinkPad, LinkProbe, ReadClock, Sleep
from ..covert.spy import SpyTrace
from ..sidechannel.memorygram import _block_reduce
from .probe import flood_gap, link_probe_kernel

__all__ = [
    "Linkgram",
    "LinkgramRecorder",
    "victim_traffic_epoch_kernel",
    "victim_traffic_kernel",
]


def victim_traffic_kernel(
    dst_gpu: int,
    duration_cycles: float,
    period_cycles: float,
    burst_cycles: float,
    occupancy_per_transfer: float,
):
    """A bursty NVLink workload: one posted-write burst per period.

    Models the transfer phase of an iterative multi-GPU kernel (gradient
    exchange, halo swap): ``burst_cycles`` of saturated link traffic at
    the top of every ``period_cycles`` window.
    """
    start = yield ReadClock()
    end = start + duration_cycles
    count = max(1, int(burst_cycles / occupancy_per_transfer))
    cycle = 0
    now = start
    while now < end:
        yield LinkProbe(dst_gpu, num_transfers=count, gap_cycles=1.0, wait=False)
        cycle += 1
        now = yield ReadClock()
        target = start + cycle * period_cycles
        if target > now:
            yield Sleep(target - now)
            now = target


def victim_traffic_epoch_kernel(
    dst_gpu: int,
    duration_cycles: float,
    period_cycles: float,
    burst_cycles: float,
    occupancy_per_transfer: float,
):
    """:func:`victim_traffic_kernel`'s workload as one link plan.

    The whole workload is one :class:`~repro.sim.ops.LinkEpoch` built the
    same way as the covert trojan's: a single round of posted bursts plus
    :class:`~repro.sim.ops.LinkPad` segments whose ``until`` offsets are
    the per-op kernel's own ``cycle * period_cycles`` grid products, so
    every pad lands on the identical absolute slot edge.  The burst count
    replays the per-op loop's ``now < end`` checks, which reduce to
    ``cycle * period_cycles < duration_cycles`` whenever no burst overruns
    its period -- the builder therefore requires ``count * gap`` to fit
    inside a period (with a cycle of slack for float edges) and the
    launcher keeps the per-op kernel otherwise.
    """
    count = max(1, int(burst_cycles / occupancy_per_transfer))
    if count * 1.0 + 1.0 >= period_cycles:
        raise ValueError(
            "victim burst issue window must fit inside one period; "
            "use victim_traffic_kernel for saturating victims"
        )
    segments: List = []
    cycle = 0
    while cycle * period_cycles < duration_cycles:
        segments.append(
            LinkBurst(dst_gpu, num_transfers=count, gap_cycles=1.0, wait=False)
        )
        cycle += 1
        segments.append(LinkPad(until=cycle * period_cycles))
    yield LinkEpoch(tuple(segments), rounds=1, round_reads=1)


@dataclass
class Linkgram:
    """(GPU pair x time bin) excess-latency matrix from one recording."""

    #: Probed GPU pairs, one matrix row each.
    probe_pairs: Tuple[Tuple[int, int], ...]
    bin_cycles: float
    #: Mean probe latency per (pair, bin); NaN-free (empty bins are 0).
    latency: np.ndarray
    #: Idle median latency per pair (the calibration floor).
    baseline: np.ndarray
    #: Probe samples landing in each (pair, bin).
    counts: np.ndarray

    @property
    def num_bins(self) -> int:
        return self.latency.shape[1]

    def excess(self) -> np.ndarray:
        """Per-(pair, bin) latency above the pair's idle baseline, >= 0.

        Bins without samples read as zero excess: the probe was parked on
        a contended route, which neighbouring bins already show.
        """
        excess = self.latency - self.baseline[:, None]
        excess[self.counts == 0] = 0.0
        return np.maximum(excess, 0.0)

    def row_heat(self) -> np.ndarray:
        """Mean excess per probed pair over the whole recording."""
        return self.excess().mean(axis=1)

    def endpoint_heat(self) -> np.ndarray:
        """Mean excess over the rows containing each GPU.

        Robust to switched fabrics, where every row sharing one of the
        victim's uplinks heats up and row-level argmax ties.
        """
        num_gpus = max(max(pair) for pair in self.probe_pairs) + 1
        heat = np.zeros(num_gpus)
        rows = np.zeros(num_gpus)
        row_heat = self.row_heat()
        for row, (a, b) in enumerate(self.probe_pairs):
            for gpu in (a, b):
                heat[gpu] += row_heat[row]
                rows[gpu] += 1
        return heat / np.maximum(rows, 1)

    def as_image(
        self, shape: Tuple[int, int] = (8, 16), log_scale: bool = True
    ) -> np.ndarray:
        """Downsampled [0, 1] excess image (rows = pairs, cols = time)."""
        rows, cols = shape
        grid = self.excess().astype(np.float64)
        grid = _block_reduce(grid, rows, axis=0)
        grid = _block_reduce(grid, cols, axis=1)
        if log_scale:
            grid = np.log1p(grid)
        top = grid.max()
        if top > 0:
            grid = grid / top
        return grid

    def to_ascii(self, width: int = 64) -> str:
        """Terminal rendering, one row per probed pair."""
        image = self.as_image((len(self.probe_pairs), width), log_scale=True)
        shades = " .:-=+*#%@"
        lines: List[str] = []
        for row, (a, b) in enumerate(self.probe_pairs):
            cells = "".join(
                shades[min(int(v * (len(shades) - 1)), len(shades) - 1)]
                for v in image[row]
            )
            lines.append(f"{a}-{b} |{cells}|")
        return "\n".join(lines)


class LinkgramRecorder:
    """Probes every peer GPU pair concurrently and bins the latencies."""

    def __init__(
        self,
        runtime: Runtime,
        probe_pairs: Optional[Sequence[Tuple[int, int]]] = None,
        bin_cycles: float = 2000.0,
        burst: int = 2,
        spacing_cycles: float = 600.0,
    ) -> None:
        self.runtime = runtime
        topology = runtime.system.topology
        if probe_pairs is None:
            probe_pairs = [
                (a, b)
                for a in range(topology.num_gpus)
                for b in range(a + 1, topology.num_gpus)
                if topology.are_peers(a, b)
            ]
        self.probe_pairs: Tuple[Tuple[int, int], ...] = tuple(
            (int(a), int(b)) for a, b in probe_pairs
        )
        self.bin_cycles = bin_cycles
        self.burst = burst
        self.spacing_cycles = spacing_cycles
        self.monitor = None
        self._baseline: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    def setup(self) -> None:
        """One monitor process with peer access across every probed pair."""
        runtime = self.runtime
        self.monitor = runtime.create_process("link_monitor")
        for a, b in self.probe_pairs:
            runtime.enable_peer_access(self.monitor, a, b)

    def _launch_probes(self, duration_cycles: float, start: float) -> List:
        # The idle probe period is the spacing plus one burst's round trip;
        # oversize slightly so the probes outlast the window even when some
        # park on contended routes.
        period = self.spacing_cycles + 380.0
        num_probes = int(duration_cycles / period) + 4
        handles = []
        for index, (a, b) in enumerate(self.probe_pairs):
            handles.append(
                self.runtime.launch(
                    link_probe_kernel(
                        b,
                        num_probes,
                        burst=self.burst,
                        spacing_cycles=self.spacing_cycles,
                    ),
                    a,
                    self.monitor,
                    name=f"linkmon_{index}",
                    start=start,
                )
            )
        return handles

    def calibrate(self, duration_cycles: float = 30_000.0) -> np.ndarray:
        """Per-pair idle baseline: the probes running with no victim.

        On switched fabrics the monitor's own probes share uplinks and
        raise each other's floor; measuring the baseline with the full
        probe array running folds that self-interference in.
        """
        if self.monitor is None:
            raise RuntimeError("recorder not set up: call setup() first")
        start = self.runtime.engine.now
        handles = self._launch_probes(duration_cycles, start)
        self.runtime.synchronize()
        baseline = np.zeros(len(self.probe_pairs))
        for row, handle in enumerate(handles):
            trace: SpyTrace = handle.result
            ordered = sorted(trace.latencies)
            baseline[row] = ordered[len(ordered) // 2] if ordered else 0.0
        self._baseline = baseline
        return baseline

    def record(
        self,
        duration_cycles: float,
        victim_launcher: Optional[Callable[[float], object]] = None,
    ) -> Linkgram:
        """Record one linkgram window.

        ``victim_launcher(start_cycles)`` queues the victim's kernels
        (via ``runtime.launch``) so victim and monitor run concurrently.
        """
        if self.monitor is None:
            raise RuntimeError("recorder not set up: call setup() first")
        if self._baseline is None:
            self.calibrate()
        runtime = self.runtime
        start = runtime.engine.now
        handles = self._launch_probes(duration_cycles, start)
        if victim_launcher is not None:
            victim_launcher(start)
        runtime.synchronize()

        num_bins = max(1, int(np.ceil(duration_cycles / self.bin_cycles)))
        latency = np.zeros((len(self.probe_pairs), num_bins))
        counts = np.zeros((len(self.probe_pairs), num_bins))
        for row, handle in enumerate(handles):
            trace: SpyTrace = handle.result
            for when, value in zip(trace.times, trace.latencies):
                bin_index = int((when - start) / self.bin_cycles)
                if 0 <= bin_index < num_bins:
                    latency[row, bin_index] += value
                    counts[row, bin_index] += 1
        filled = counts > 0
        latency[filled] /= counts[filled]
        assert self._baseline is not None
        return Linkgram(
            probe_pairs=self.probe_pairs,
            bin_cycles=self.bin_cycles,
            latency=latency,
            baseline=self._baseline.copy(),
            counts=counts,
        )

    # ------------------------------------------------------------------
    # Analysis
    # ------------------------------------------------------------------
    def locate(self, gram: Linkgram) -> Tuple[int, int]:
        """The GPU pair the victim's traffic crosses (endpoint-heat top 2)."""
        heat = gram.endpoint_heat()
        top_two = sorted(np.argsort(heat)[-2:])
        return int(top_two[0]), int(top_two[1])

    def burst_period(self, gram: Linkgram) -> Optional[float]:
        """Victim burst period in cycles via hottest-row autocorrelation.

        Returns ``None`` when the recording shows no periodic structure
        (fewer than two bursts, or a flat row).
        """
        excess = gram.excess()
        row = excess[int(np.argmax(gram.row_heat()))]
        centered = row - row.mean()
        if not centered.any():
            return None
        corr = np.correlate(centered, centered, mode="full")[len(row) - 1:]
        if len(corr) < 3 or corr[0] <= 0:
            return None
        corr = corr / corr[0]
        # First local maximum after the zero-lag peak's decay.
        for lag in range(1, len(corr) - 1):
            if corr[lag] >= corr[lag - 1] and corr[lag] > corr[lag + 1]:
                if corr[lag] > 0.2:
                    return lag * gram.bin_cycles
        return None

    def victim_launcher(
        self,
        victim_gpu: int,
        dst_gpu: int,
        duration_cycles: float,
        period_cycles: float = 12_000.0,
        burst_cycles: float = 3_000.0,
    ) -> Callable[[float], object]:
        """Build a launcher for the canonical bursty victim workload."""
        runtime = self.runtime
        victim = runtime.create_process("link_victim")
        runtime.enable_peer_access(victim, victim_gpu, dst_gpu)
        occupancy = flood_gap(
            runtime.system.spec, (victim_gpu, dst_gpu)
        )
        # Bursty victims whose issue window fits inside the period are one
        # link plan; saturating ones keep the per-op kernel (their loop
        # pacing reads back their own true clock).
        kernel = victim_traffic_kernel
        count = max(1, int(burst_cycles / occupancy))
        if count * 1.0 + 1.0 < period_cycles:
            kernel = victim_traffic_epoch_kernel

        def launch(start: float):
            return runtime.launch(
                kernel(
                    dst_gpu, duration_cycles, period_cycles, burst_cycles, occupancy
                ),
                victim_gpu,
                victim,
                name="link_victim",
                start=start,
            )

        return launch
