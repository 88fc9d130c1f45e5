"""Which public entry points the traced run wraps, and the per-layer metrics.

Each :class:`~spans.Target` charges its span to one slot; a layer's
``_s`` metric is the self time of its slots.  Counts come from span counts
(by nearest wrapped ancestor where a path needs telling apart) and from the
state of every runtime built during the run, read after each experiment.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Tuple

from spans import SpanRecorder, Target

__all__ = ["PER_LAYER", "RuntimeLog", "layer_metrics", "targets"]

EXPERIMENT_SLOT = "exp"

#: ``slot -> metric`` for the self-time metrics (slot names are the
#: metric names without ``_s``).
TIME_SLOTS = (
    "engine.run",
    "epoch.resume",
    "link_epoch.resume",
    "system.service_burst",
    "system.access_batch",
    "system.access_epoch",
    "system.service_link_burst",
    "l2.wide",
    "l2.tagstore",
    "l2.scalar_access",
    "occupancy.bank",
    "occupancy.hbm",
    "fabric.transfer_batch",
    "fabric.transfer",
    "fabric.flow_advance",
    "runtime.build",
    "runtime.launch",
    "core.discovery",
    "core.align",
    "core.calibrate",
    "covert.transmit",
    "prober.record",
    "linkchannel.transmit",
    "linkchannel.decode",
    "linkchannel.record",
    "workloads.trace",
    "analysis.fit",
    "analysis.features",
    "manifest.build",
)

COUNT_METRICS: Tuple[Tuple[str, str], ...] = (
    ("engine.events", "count"),
    ("engine.epochs", "count"),
    ("engine.accesses_per_epoch", "accesses/epoch"),
    ("engine.scalar_fallbacks", "count"),
    ("epoch.resumes", "count"),
    ("epoch.bursts_per_resume", "bursts/resume"),
    ("link_epoch.resumes", "count"),
    ("system.small_bursts", "count"),
    ("system.wide_bursts", "count"),
    ("system.access_batch_calls", "count"),
    ("system.link_bursts", "count"),
    ("l2.wide_lines", "count"),
    ("l2.scalar_accesses", "count"),
    ("l2.hit_ratio", "ratio"),
    ("l2.evictions", "count"),
    ("occupancy.calls", "count"),
    ("fabric.transfers", "count"),
    ("fabric.queued_cycles", "cycles"),
    ("runtime.builds", "count"),
    ("runtime.kernel_launches", "count"),
    ("core.discovery_kernels", "count"),
    ("prober.records", "count"),
)

TRACE_METRICS: Tuple[Tuple[str, str], ...] = (
    ("trace.other_s", "s"),
    ("trace.unattributed_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.untraced_wall_s", "s"),
    ("trace.reconcile_pct", "%"),
    ("trace_overhead_pct", "%"),
)

#: Every experiment a workload can run (``report_small`` runs them all).
EXPERIMENT_NAMES = (
    "fig4", "table1", "fig5", "fig6", "fig7", "fig9", "fig10", "fig11",
    "fig12", "table2", "fig14", "fig15", "sec6-noise", "sec7-defense",
    "ext-link-covert", "ext-link-locate", "ext-chaos-covert",
)

PER_LAYER: Tuple[Tuple[str, str], ...] = (
    tuple((f"{slot}_s", "s") for slot in TIME_SLOTS)
    + COUNT_METRICS
    + TRACE_METRICS
    + tuple((f"exp.{name}_s", "s") for name in EXPERIMENT_NAMES)
)


class RuntimeLog:
    """Runtimes built while tracing; their counters are summed per experiment."""

    def __init__(self) -> None:
        self.live: List[object] = []
        self.totals: Counter = Counter()

    def observe(self, args) -> None:
        self.live.append(args[0])

    def harvest(self) -> None:
        for runtime in self.live:
            stats = runtime.engine.stats
            self.totals.update(
                events=stats.events,
                epochs=stats.epochs,
                epoch_accesses=stats.epoch_accesses,
                scalar_fallbacks=stats.scalar_fallbacks,
            )
            for gpu in runtime.system.gpus:
                counters = gpu.counters
                self.totals.update(
                    l2_hits=counters.l2_hits,
                    l2_misses=counters.l2_misses,
                    l2_evictions=counters.l2_evictions,
                )
            for key, value in runtime.system.interconnect.counters_snapshot().items():
                self.totals[key.rsplit(":", 1)[1]] += value
        self.live.clear()


def _lines(position: int):
    return lambda args: len(args[position])


def targets(runtimes: RuntimeLog) -> List[Target]:
    """The wrapped entry points, layer by layer (module names under src/repro)."""
    eviction = (
        "discover_page_coloring", "build_eviction_sets", "find_eviction_set",
        "run_algorithm1", "reduce_to_minimal", "measure_associativity",
        "validate_eviction_set", "sets_alias", "deduplicate_eviction_sets",
        "verify_set_health", "repair_eviction_set", "repair_eviction_sets",
    )
    kernels = (
        ("repro.workloads.vectoradd", "VectorAdd"),
        ("repro.workloads.histogram", "Histogram"),
        ("repro.workloads.blackscholes", "BlackScholes"),
        ("repro.workloads.matmul", "MatrixMultiply"),
        ("repro.workloads.quasirandom", "QuasiRandom"),
        ("repro.workloads.walsh", "WalshTransform"),
        ("repro.workloads.mlp", "MLPTraining"),
        ("repro.workloads.composite", "CompositeWorkload"),
    )
    return [
        # sim.engine / runtime
        Target("engine.run", "repro.sim.engine", "Engine.run"),
        Target("runtime.launch", "repro.sim.engine", "Engine.launch"),
        Target("runtime.build", "repro.runtime.api", "Runtime.__init__",
               observe=runtimes.observe),
        # sim.epoch
        Target("epoch.resume", "repro.sim.epoch", "EpochCursor.resume"),
        Target("link_epoch.resume", "repro.sim.epoch", "LinkEpochCursor.resume"),
        # hw.system
        Target("system.service_burst", "repro.hw.system", "MultiGPUSystem.service_burst"),
        Target("system.access_batch", "repro.hw.system", "MultiGPUSystem.access_batch"),
        Target("system.access_epoch", "repro.hw.system", "MultiGPUSystem.access_epoch"),
        Target("system.service_link_burst", "repro.hw.system",
               "MultiGPUSystem.service_link_burst"),
        # hw.cache / hw.tagstore
        Target("l2.wide", "repro.hw.cache", "VectorL2Cache.access_lines",
               weight=_lines(1)),
        Target("l2.wide", "repro.hw.cache", "VectorL2Cache.access_lines_planned",
               weight=_lines(2)),
        Target("l2.tagstore", "repro.hw.tagstore", "LruTagStore.access_lines"),
        Target("l2.tagstore", "repro.hw.tagstore", "LruTagStore.access_lines_planned"),
        Target("l2.scalar_access", "repro.hw.cache", "VectorL2Cache.access"),
        Target("l2.scalar_access", "repro.hw.cache", "L2Cache.access"),
        # hw.occupancy / hw.dram: the L2 banks' queue walk, charged where the
        # cache calls it; the HBM channels' walk stays inside occupancy.hbm.
        Target("occupancy.bank", "repro.hw.cache", "single_server_waits",
               everywhere=False),
        Target("occupancy.hbm", "repro.hw.dram", "HBMStack.occupy"),
        Target("occupancy.hbm", "repro.hw.dram", "HBMStack.occupy_batch"),
        # hw.interconnect
        Target("fabric.transfer_batch", "repro.hw.interconnect",
               "Interconnect.transfer_batch"),
        Target("fabric.transfer", "repro.hw.interconnect", "Interconnect.transfer"),
        Target("fabric.flow_advance", "repro.hw.interconnect", "FabricFlow.advance_batch"),
        Target("fabric.flow_advance", "repro.hw.interconnect",
               "FabricFlow.advance_batch_small"),
        # core: discovery, alignment, calibration
        *(Target("core.discovery", "repro.core.eviction", name) for name in eviction),
        Target("core.align", "repro.core.alignment", "align_eviction_sets"),
        Target("core.align", "repro.core.alignment", "check_pair"),
        Target("core.calibrate", "repro.core.timing", "measure_access_classes"),
        Target("core.calibrate", "repro.core.timing", "characterize_timing"),
        Target("core.calibrate", "repro.core.linkchannel.probe", "calibrate_link"),
        # core.covert / core.sidechannel / core.linkchannel
        Target("covert.transmit", "repro.core.covert.channel", "CovertChannel.transmit"),
        Target("covert.transmit", "repro.core.covert.channel",
               "CovertChannel.launch_transmission"),
        Target("covert.transmit", "repro.core.covert.channel",
               "CovertChannel.decode_transmission"),
        Target("covert.transmit", "repro.core.covert.resilient",
               "ResilientCovertChannel.transmit"),
        Target("prober.record", "repro.core.sidechannel.prober", "MemorygramProber.record"),
        Target("linkchannel.transmit", "repro.core.linkchannel.covert",
               "LinkCovertChannel.transmit"),
        Target("linkchannel.transmit", "repro.core.linkchannel.covert",
               "LinkCovertChannel.launch_transmission"),
        Target("linkchannel.decode", "repro.core.linkchannel.covert",
               "LinkCovertChannel.decode_transmission"),
        Target("linkchannel.decode", "repro.core.linkchannel.covert", "decode_link_trace"),
        Target("linkchannel.record", "repro.core.linkchannel.sidechannel",
               "LinkgramRecorder.record"),
        # workloads, analysis, telemetry.manifest
        *(Target("workloads.trace", module, f"{cls}.kernel", generator=True)
          for module, cls in kernels),
        Target("analysis.fit", "repro.analysis.classifier", "MLPClassifier.fit"),
        Target("analysis.features", "repro.analysis.features", "memorygram_features"),
        Target("analysis.features", "repro.analysis.features", "linkgram_features"),
        Target("manifest.build", "repro.telemetry.manifest", "build_manifest"),
    ]


def layer_metrics(
    recorder: SpanRecorder,
    runtimes: RuntimeLog,
    traced_wall: float,
    outer_wall: float,
    untraced_wall: float,
    exp_walls: Dict[str, float],
) -> Dict[str, float]:
    """Every :data:`PER_LAYER` metric from one traced iteration.

    ``traced_wall``/``untraced_wall`` are the timed phases of the traced and
    untraced iterations; ``outer_wall`` is the whole traced pass, including
    the benchmark's own bookkeeping, which the spans must reconcile with.
    """
    self_s = recorder.self_s
    totals = runtimes.totals
    metrics: Dict[str, float] = {f"{slot}_s": self_s.get(slot, 0.0) for slot in TIME_SLOTS}

    bursts = recorder.count("system.service_burst")
    wide = recorder.count("l2.wide", parent="system.service_burst")
    resumes = recorder.count("epoch.resume")
    hits, misses = totals["l2_hits"], totals["l2_misses"]
    metrics.update({
        "engine.events": totals["events"],
        "engine.epochs": totals["epochs"],
        "engine.accesses_per_epoch": _ratio(totals["epoch_accesses"], totals["epochs"]),
        "engine.scalar_fallbacks": totals["scalar_fallbacks"],
        "epoch.resumes": resumes,
        "epoch.bursts_per_resume": _ratio(
            recorder.count("system.service_burst", parent="epoch.resume"), resumes
        ),
        "link_epoch.resumes": recorder.count("link_epoch.resume"),
        "system.small_bursts": bursts - wide - totals["scalar_fallbacks"],
        "system.wide_bursts": wide,
        "system.access_batch_calls": recorder.count("system.access_batch"),
        "system.link_bursts": recorder.count("system.service_link_burst"),
        "l2.wide_lines": recorder.weights["l2.wide"],
        "l2.scalar_accesses": recorder.count("l2.scalar_access"),
        "l2.hit_ratio": _ratio(hits, hits + misses),
        "l2.evictions": totals["l2_evictions"],
        "occupancy.calls": recorder.count("occupancy.bank") + recorder.count("occupancy.hbm"),
        "fabric.transfers": totals["transfers"],
        "fabric.queued_cycles": totals["queued_cycles"],
        "runtime.builds": recorder.count("runtime.build"),
        "runtime.kernel_launches": recorder.count("runtime.launch"),
        "core.discovery_kernels": recorder.count("runtime.launch", parent="core.discovery"),
        "prober.records": recorder.count("prober.record"),
    })

    layers = sum(value for slot, value in self_s.items() if slot != EXPERIMENT_SLOT)
    other = self_s.get(EXPERIMENT_SLOT, 0.0)
    unattributed = outer_wall - recorder.root_s
    metrics.update({
        "trace.other_s": other,
        "trace.unattributed_s": unattributed,
        "trace.wall_s": traced_wall,
        "trace.untraced_wall_s": untraced_wall,
        "trace.reconcile_pct": 100.0
        * abs(layers + other + unattributed - outer_wall)
        / outer_wall,
        "trace_overhead_pct": 100.0 * (traced_wall - untraced_wall) / untraced_wall,
    })
    for name in EXPERIMENT_NAMES:
        metrics[f"exp.{name}_s"] = exp_walls.get(name, 0.0)
    return metrics


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
