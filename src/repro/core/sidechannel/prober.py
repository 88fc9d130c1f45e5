"""The remote memorygram prober -- the spy side of both §V attacks.

The spy sits on one GPU, allocates its probe buffer on the *victim's* GPU
(Fig 3), derives eviction sets for a block of L2 sets, and then cycles
Prime+Probe over all of them while the victim runs.  Each traversal yields
a per-set miss count that lands in one time bin of the memorygram.

The paper monitors 256 sets for fingerprinting and 1024 for the MLP attack
("to balance sampling coverage and the speed of the attack"); both are a
parameter here.
"""

from __future__ import annotations

from typing import Generator, List, Optional, Sequence, Tuple

import numpy as np

from ...errors import AttackError
from ...runtime.api import Runtime
from ...sim.epoch import epochify
from ...sim.ops import AccessEpoch, Compute, EpochBurst, EpochOutcome
from ...sim.process import Process
from ..eviction import (
    EvictionSet,
    EvictionSetHealth,
    PageColoring,
    build_eviction_sets,
    discover_page_coloring,
    repair_eviction_sets,
)
from ..timing import TimingThresholds, measure_access_classes
from ...workloads.base import Workload
from .memorygram import Memorygram

__all__ = ["MemorygramProber"]


def _prober_block_kernel(
    sets_chunk: Sequence[Tuple[int, EvictionSet]],
    end_time: float,
    records: List[Tuple[List[int], EpochOutcome]],
    victim_done: List[object],
    grace_cycles: float,
    sweep_period: float,
    phase_offset: float,
) -> Generator:
    """One spy thread block cycling Prime+Probe over its chunk of sets.

    The block pipelines its sets back-to-back and syncs once per sweep,
    so one sweep is one multi-set burst and the whole sweep loop is one
    unbounded :class:`AccessEpoch` advanced in bulk by the engine's
    cursor.  Each round reads the clock and stops at ``end_time``, or
    ``grace_cycles`` after it first sees ``victim_done`` set.
    ``sweep_period`` paces the sampling: probing flat-out would sample
    each set several times per memorygram bin for no extra information
    (the bin only keeps a count), so the block idles in dummy compute
    between sweeps -- the "balance sampling coverage and the speed of the
    attack" knob of Section V-B.  The recorded outcome lands in
    ``records`` for columnar assembly; per-set sample times come from the
    burst starts plus the layout's set offsets.
    """
    burst = EpochBurst(
        sets_chunk[0][1].buffer,
        tuple(tuple(eviction_set.indices) for _row, eviction_set in sets_chunk),
        parallel=True,
    )
    # Warm-up prime: fill every monitored set with spy lines.  No clock
    # read precedes it.
    yield AccessEpoch((burst,), rounds=1, record=False, round_reads=0)
    if phase_offset > 0:
        # Stagger the blocks' sweep phases so their probe bursts do not
        # all hit the NVLink at the same instant.
        yield Compute(phase_offset)
    outcome = yield AccessEpoch(
        (burst,),
        rounds=None,
        period=sweep_period,
        end_time=end_time,
        stop_flag=victim_done,
        grace_cycles=grace_cycles,
        record=True,
    )
    records.append(([row for row, _eviction_set in sets_chunk], outcome))


def _victim_wrapper(kernel: Generator, done_flag: List[object]) -> Generator:
    result = yield from kernel
    done_flag.append(True)
    return result


class MemorygramProber:
    """Spy on ``spy_gpu`` recording memorygrams of activity on ``victim_gpu``."""

    def __init__(
        self,
        runtime: Runtime,
        victim_gpu: int = 0,
        spy_gpu: int = 1,
    ) -> None:
        self.runtime = runtime
        self.victim_gpu = victim_gpu
        self.spy_gpu = spy_gpu
        self.process: Optional[Process] = None
        self.thresholds: Optional[TimingThresholds] = None
        self.eviction_sets: List[EvictionSet] = []
        #: Page-coloring provenance, retained for in-place set repair.
        self._coloring: Optional[PageColoring] = None
        #: Rot monitor over the monitored sets (populated by setup()).
        self.health: Optional[EvictionSetHealth] = None

    # ------------------------------------------------------------------
    def setup(
        self,
        num_sets: int = 256,
        thresholds: Optional[TimingThresholds] = None,
        buffer_pages_per_color: Optional[int] = None,
        cache=None,
    ) -> None:
        """Allocate the probe buffer remotely and derive the eviction sets.

        With an artifact cache active (``cache`` argument, or the ambient
        one from :func:`repro.cache.set_active_cache`) the calibration and
        discovery prologue is checkpointed: a warm run restores the exact
        post-setup simulator state instead of re-deriving it.  Memoization
        only engages on a pristine, untraced runtime -- anything else
        falls through to the plain path below.
        """
        from ...cache import SetupMemo

        runtime = self.runtime
        spec = runtime.system.spec.gpu
        memo = SetupMemo.for_runtime(runtime, cache)
        discovery_key = dict(
            role="memorygram",
            victim_gpu=self.victim_gpu,
            spy_gpu=self.spy_gpu,
            num_sets=num_sets,
            thresholds=repr(thresholds),
            pages=buffer_pages_per_color,
        )
        if memo is not None:
            restored = memo.load("discovery", **discovery_key)
            if restored is not None:
                (
                    self.process,
                    self.thresholds,
                    self.eviction_sets,
                    self._coloring,
                ) = restored
                self.health = EvictionSetHealth(len(self.eviction_sets))
                return
        calibration_key = dict(
            role="memorygram",
            victim_gpu=self.victim_gpu,
            spy_gpu=self.spy_gpu,
        )
        calibrated = (
            memo.load("calibration", **calibration_key)
            if memo is not None and thresholds is None
            else None
        )
        if calibrated is not None:
            self.process, thresholds = calibrated
        else:
            self.process = runtime.create_process("memorygram_spy")
            runtime.enable_peer_access(self.process, self.spy_gpu, self.victim_gpu)
            if thresholds is None:
                report = measure_access_classes(
                    runtime, self.process, self.spy_gpu, self.victim_gpu
                )
                thresholds = report.thresholds()
                if memo is not None:
                    memo.store(
                        "calibration", (self.process, thresholds), **calibration_key
                    )
        self.thresholds = thresholds

        colors = max(1, spec.cache.set_stride // spec.page_size)
        per_color = buffer_pages_per_color
        if per_color is None:
            per_color = 2 * spec.cache.associativity + 2
        buf = runtime.malloc(
            self.process,
            self.victim_gpu,
            colors * per_color * spec.page_size,
            name="memorygram_probe",
        )
        coloring = discover_page_coloring(
            runtime,
            self.process,
            self.spy_gpu,
            buf,
            spec.cache.associativity,
            thresholds.remote,
        )
        self.eviction_sets = build_eviction_sets(
            runtime,
            self.process,
            self.spy_gpu,
            buf,
            num_sets=num_sets,
            associativity=spec.cache.associativity,
            miss_threshold=thresholds.remote,
            deduplicate=False,
            coloring=coloring,
            spread=True,
        )
        self._coloring = coloring
        self.health = EvictionSetHealth(len(self.eviction_sets))
        if memo is not None:
            memo.store(
                "discovery",
                (self.process, self.thresholds, self.eviction_sets, coloring),
                **discovery_key,
            )

    # ------------------------------------------------------------------
    def heal(self, max_retries: int = 3) -> List[int]:
        """Verify every monitored set and rebuild the rotted ones in place.

        Returns the rows that were repaired.  Healthy sets keep their
        exact index tuples (same objects), so a page-migration fault only
        costs the rediscovery of the sets it actually invalidated -- never
        a full re-setup.  Raises
        :class:`repro.errors.EvictionSetStaleError` when a set stays
        unrecoverable past its retry budget.
        """
        if not self.eviction_sets:
            raise AttackError("prober not set up: call setup() first")
        assert self.process is not None and self.thresholds is not None
        assert self._coloring is not None and self.health is not None
        spec = self.runtime.system.spec.gpu
        before = list(self.eviction_sets)
        self.eviction_sets = repair_eviction_sets(
            self.runtime,
            self.process,
            self.spy_gpu,
            before,
            self._coloring,
            spec.cache.associativity,
            self.thresholds.remote,
            health=self.health,
            max_retries=max_retries,
        )
        repaired = [
            row
            for row, (old, new) in enumerate(zip(before, self.eviction_sets))
            if old is not new
        ]
        metrics = getattr(self.runtime, "metrics", None)
        if metrics is not None:
            metrics.count_prober_heals(len(repaired))
        return repaired

    # ------------------------------------------------------------------
    def record(
        self,
        victim: Optional[Workload] = None,
        victim_process_name: str = "victim",
        max_duration_cycles: float = 20_000_000.0,
        bin_cycles: float = 25_000.0,
        sets_per_block: int = 16,
        grace_cycles: float = 100_000.0,
        sweep_period_bins: float = 0.6,
        trim_quiet_tail: bool = True,
        victim_start_delay: float = 50_000.0,
    ) -> Memorygram:
        """Run the victim under observation and return its memorygram.

        The spy's blocks start first (priming their sets), the victim is
        launched after ``victim_start_delay`` cycles, and probing continues
        for ``grace_cycles`` past the victim's completion (or until
        ``max_duration_cycles``).
        """
        if not self.eviction_sets:
            raise AttackError("prober not set up: call setup() first")
        assert self.process is not None and self.thresholds is not None
        chunks = [
            list(enumerate(self.eviction_sets))[at : at + sets_per_block]
            for at in range(0, len(self.eviction_sets), sets_per_block)
        ]
        # One block's sweep is one burst over one probe buffer (the
        # prober allocates exactly one).
        for chunk in chunks:
            if len({id(eviction_set.buffer) for _row, eviction_set in chunk}) > 1:
                raise AttackError(
                    "a prober block's eviction sets must share one probe buffer"
                )
        runtime = self.runtime
        metrics = getattr(runtime, "metrics", None)
        if metrics is not None:
            metrics.count_prober_record(len(self.eviction_sets))

        start = runtime.engine.now
        end_time = start + max_duration_cycles
        records: List[Tuple[List[int], EpochOutcome]] = []
        victim_done: List[object] = []
        sweep_period = sweep_period_bins * bin_cycles
        for block_index, chunk in enumerate(chunks):
            phase_offset = block_index * sweep_period / max(1, len(chunks))
            runtime.launch(
                _prober_block_kernel(
                    chunk,
                    end_time,
                    records,
                    victim_done,
                    grace_cycles,
                    sweep_period,
                    phase_offset=phase_offset,
                ),
                self.spy_gpu,
                self.process,
                name=f"memorygram_block_{block_index}",
                start=start,
            )

        if victim is not None:
            victim_process = runtime.create_process(victim_process_name)
            victim.allocate(runtime, victim_process, self.victim_gpu)
            # Result-blind trace victims collapse into one unrecorded
            # epoch; kernels yielding richer ops replay verbatim.
            runtime.launch(
                _victim_wrapper(epochify(victim.kernel()), victim_done),
                self.victim_gpu,
                victim_process,
                name=f"victim_{victim.name}",
                start=start + victim_start_delay,
            )
        else:
            victim_done.append(True)  # idle recording: stop after grace

        runtime.synchronize()
        return self._assemble_epochs(
            records, start, bin_cycles, trim_quiet_tail=trim_quiet_tail
        )

    # ------------------------------------------------------------------
    def _adaptive_threshold(self, pooled: np.ndarray) -> float:
        """Trace-adaptive hit/miss boundary from the pooled latencies.

        The spy's own load inflates all latencies, so the hit level is
        re-estimated from this trace's low percentile and the physical DRAM
        gap from the quiet-box calibration sits on top.  The estimate is
        clamped to a band above the calibrated hit mean: below it the trace
        is quiet (use the calibration), far above it the low percentile is
        itself made of misses (a victim saturating every monitored set) and
        must not drag the threshold past the miss cluster.
        """
        assert self.thresholds is not None
        low = float(np.percentile(pooled, 5.0))
        hit_mean = self.thresholds.remote_hit_mean
        half_gap = self.thresholds.remote_half_gap
        hit_level = min(max(low, hit_mean), hit_mean + 1.2 * half_gap)
        return hit_level + half_gap

    def _assemble_epochs(
        self,
        records: Sequence[Tuple[List[int], EpochOutcome]],
        start: float,
        bin_cycles: float,
        trim_quiet_tail: bool,
    ) -> Memorygram:
        """Bin the blocks' recorded outcomes into a memorygram.

        A set's sample time is its burst start plus its issue offset in
        the burst.  Hit/miss classification happens here, against a
        *trace-adaptive* threshold: the spy's own probe traffic inflates
        every latency under load, so a quiet-box threshold would misread
        loaded hits as misses (the same drift the covert-channel decoder
        corrects).
        """
        live = [
            (rows, outcome)
            for rows, outcome in records
            if outcome.num_recorded
        ]
        if not live:
            raise AttackError("no probe samples recorded")
        pooled = np.concatenate(
            [outcome.latencies.ravel() for _rows, outcome in live]
        )
        threshold = self._adaptive_threshold(pooled)
        block_times = [
            outcome.starts[:, None] + outcome.set_starts[None, :]
            for _rows, outcome in live
        ]
        last = max(float(times.max()) for times in block_times)
        num_bins = int((last - start) / bin_cycles) + 1
        grid = np.zeros((len(self.eviction_sets), num_bins), dtype=np.int64)
        for (rows, outcome), times in zip(live, block_times):
            miss_counts = np.add.reduceat(
                (outcome.latencies > threshold).astype(np.int64),
                outcome.set_offsets,
                axis=1,
            )
            bins = ((times - start) / bin_cycles).astype(np.int64)
            row_grid = np.broadcast_to(
                np.asarray(rows, dtype=np.int64)[None, :], bins.shape
            )
            np.add.at(grid, (row_grid, bins), miss_counts)
        if trim_quiet_tail:
            activity = grid.sum(axis=0)
            alive = np.nonzero(activity > 0)[0]
            if alive.size:
                grid = grid[:, : int(alive[-1]) + 1]
        return Memorygram(data=grid, bin_cycles=bin_cycles, start_time=start)
