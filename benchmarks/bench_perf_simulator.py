"""Simulator performance harness: epoch engine vs scalar reference.

Measures end-to-end simulator throughput (simulated memory accesses
serviced per wall-clock second, from ``Engine.stats``) on attack-shaped
scenarios.  The two arms compare the whole dispatch stack, not just the
cache backend:

* ``vectorized`` -- the columnar epoch engine: vectorized L2 backend
  *and* epoch dispatch (attack kernels yield ``AccessEpoch`` plans that
  the engine advances in bulk).  Every L2 burst -- ``ProbeSet``,
  ``ProbeEpoch`` or ``EpochBurst`` -- goes through one router that picks
  the wide vector core or the fused small core by ``WIDE_BURST``.
* ``scalar``     -- the pre-epoch reference: scalar L2 backend (the
  router's per-access reference loop), per-op dispatch
  (``epoch_dispatch=False`` unrolls every plan), and the per-element
  Python fabric walk (the scalar backend flips
  ``Interconnect.vectorized``, which ``FabricFlow.advance_batch``
  reads), the differential-test oracle.

Scenarios:

* ``probe_storm``   -- a 256-set x 16-way memorygram probe storm on the
  full DGX-1, the memorygram probing hot path.  The acceptance bar is a
  >= 5x accesses/sec speedup; the epoch engine records ~10x.
* ``memorygram``    -- a full remote memorygram capture of a victim
  workload on the paper-scale small box (setup excluded, capture phase
  timed), probing 64 monitored sets per epoch block.
* ``covert_frames`` -- quick covert-channel frames on the tiny box.
* ``covert_stream`` -- a paper-scale covert transmission (16-way sets,
  8 pairs, long 12k-cycle slots).  Covert bursts are one eviction set
  wide by construction, so this scenario bounds the *fused scalar loop*
  advantage rather than the wide vector path; expect ~1.5-2x, not 10x.
* ``link_covert``   -- NVLink fabric covert channel (no L2 traffic):
  wide LinkFlood slots against the columnar fabric core vs the scalar
  per-transfer lane walk.
* ``linkgram``      -- linkgram localization sweep: 2-transfer probe
  pairs riding the fused fabric closure while a bursty victim floods
  one link through the numpy lane scan.

Each run appends one record to ``benchmarks/perf_trajectory.json`` so
throughput can be tracked across revisions.

Run standalone (``make perf``)::

    PYTHONPATH=src python benchmarks/bench_perf_simulator.py

the CI perf-smoke gate (memorygram + covert + fabric scenarios, median
of 3)::

    PYTHONPATH=src python benchmarks/bench_perf_simulator.py --smoke

or as a benchmark::

    pytest benchmarks/bench_perf_simulator.py --benchmark-only
"""

from __future__ import annotations

import json
import os
import pathlib
import random
import statistics
import tempfile
import time
from collections import defaultdict
from typing import Dict, List, Optional

import pytest

from repro.config import DGXSpec
from repro.core.covert.channel import CovertChannel
from repro.core.sidechannel.prober import MemorygramProber
from repro.runtime.api import Runtime
from repro.sim.ops import ProbeEpoch
from repro.telemetry import attach_metrics, attach_tracer
from repro.workloads.vectoradd import VectorAdd

TRAJECTORY_PATH = pathlib.Path(__file__).parent / "perf_trajectory.json"

BACKENDS = ("vectorized", "scalar")

#: Arm name -> (L2 backend, epoch dispatch).  The fast arm exercises the
#: whole columnar stack; the slow arm is the scalar differential oracle.
ARM_CONFIG = {"vectorized": ("vectorized", True), "scalar": ("scalar", False)}

#: Per-arm sweep counts for the probe storm: the scalar reference is
#: given fewer sweeps so the comparison stays quick; throughput is
#: normalized per second, so the counts do not bias the ratio.
STORM_SWEEPS = {"vectorized": 24, "scalar": 3}


def _runtime(spec: DGXSpec, arm: str, seed: int) -> Runtime:
    backend, epochs = ARM_CONFIG[arm]
    return Runtime(
        spec.with_l2_backend(backend), seed=seed, epoch_dispatch=epochs
    )


def _stats_record(stats, **extra) -> Dict:
    record = {
        "events": stats.events,
        "accesses": stats.accesses,
        "wall_seconds": round(stats.wall_seconds, 6),
        "events_per_sec": round(stats.events_per_sec),
        "accesses_per_sec": round(stats.accesses_per_sec),
    }
    record.update(extra)
    return record


# ----------------------------------------------------------------------
# Scenario: 256-set probe storm on the full DGX-1
# ----------------------------------------------------------------------
def _ground_truth_sets(
    rt: Runtime, proc, home_gpu: int, num_sets: int, ways: int
):
    """Group buffer lines by their physical L2 set (ground truth) and
    return ``num_sets`` word-index groups of ``ways`` lines each."""
    spec = rt.system.spec.gpu
    words_per_line = spec.cache.line_size // 8
    colors = max(1, spec.cache.set_stride // spec.page_size)
    pages = colors * (ways + 8)  # headroom so enough sets fill up
    buf = rt.malloc_lines(
        proc, home_gpu, pages * spec.page_size // spec.cache.line_size, name="storm"
    )
    groups: Dict[int, List[int]] = defaultdict(list)
    for line in range(buf.num_words // words_per_line):
        word = line * words_per_line
        groups[rt.system.set_index_of(buf, word)].append(word)
    # One tuple, built once and re-yielded verbatim: the system caches
    # the epoch's flatten/translate plan by (buffer token, sets identity),
    # the same idiom the prober uses for its sweep blocks.
    sets = tuple(
        tuple(words[:ways]) for words in groups.values() if len(words) >= ways
    )
    if len(sets) < num_sets:
        raise RuntimeError(
            f"ground truth covered only {len(sets)}/{num_sets} sets; "
            "increase the allocation headroom"
        )
    return buf, sets[:num_sets]


def run_probe_storm(
    backend: str,
    num_sets: int = 256,
    seed: int = 7,
    traced: bool = False,
    metered: bool = False,
) -> Dict:
    spec = DGXSpec.dgx1()
    rt = _runtime(spec, backend, seed)
    proc = rt.create_process("storm_spy")
    rt.enable_peer_access(proc, 1, 0)
    buf, sets = _ground_truth_sets(
        rt, proc, home_gpu=0, num_sets=num_sets, ways=spec.gpu.cache.associativity
    )
    sweeps = STORM_SWEEPS[backend]

    def storm():
        for _ in range(sweeps):
            yield ProbeEpoch(buf, sets, parallel=True)

    if traced:
        attach_tracer(rt, sample_cadence=50_000.0)
    if metered:
        attach_metrics(rt)
    rt.engine.stats.reset()
    rt.run_kernel(storm(), 1, proc)
    return _stats_record(rt.engine.stats, sweeps=sweeps, num_sets=num_sets)


def run_tracing_overhead(num_sets: int = 256, seed: int = 7) -> Dict:
    """Tracing-off vs tracing-on throughput on the vectorized probe storm.

    'off' is the plain engine (the nullable hook costs one branch per
    dispatched op); 'on' attaches the full tracer (event ring + counter
    sampler).  The overhead record lands in ``perf_trajectory.json`` so
    telemetry regressions are visible across revisions.
    """
    off = run_probe_storm("vectorized", num_sets=num_sets, seed=seed)
    on = run_probe_storm("vectorized", num_sets=num_sets, seed=seed, traced=True)
    overhead = (
        1.0 - on["accesses_per_sec"] / off["accesses_per_sec"]
        if off["accesses_per_sec"]
        else None
    )
    return {
        "off": off,
        "on": on,
        "overhead_pct": round(overhead * 100.0, 2) if overhead is not None else None,
    }


def run_metrics_overhead(num_sets: int = 256, seed: int = 7) -> Dict:
    """Metrics-off vs metrics-on throughput on the vectorized probe storm.

    Same shape as :func:`run_tracing_overhead`, but 'on' attaches the
    :class:`~repro.telemetry.metrics.AttackMetrics` registry instead of
    the tracer.  Metrics updates land at epoch granularity (never per
    access), so the overhead should sit far below the tracing figure --
    the CI gate holds it under :data:`METRICS_OVERHEAD_GATE`.
    """
    off = run_probe_storm("vectorized", num_sets=num_sets, seed=seed)
    on = run_probe_storm("vectorized", num_sets=num_sets, seed=seed, metered=True)
    overhead = (
        1.0 - on["accesses_per_sec"] / off["accesses_per_sec"]
        if off["accesses_per_sec"]
        else None
    )
    return {
        "off": off,
        "on": on,
        "overhead_pct": round(overhead * 100.0, 2) if overhead is not None else None,
    }


# ----------------------------------------------------------------------
# Scenario: memorygram capture on the small box
# ----------------------------------------------------------------------
def run_memorygram(backend: str, seed: int = 3) -> Dict:
    """Paper-scale capture: 16-way small box, 64 monitored sets.

    ``sets_per_block=64`` probes the whole monitored range in one epoch
    per sweep, so the vector core services 1024-line bursts in one
    tag-store pass each; the scalar arm walks the identical stream per
    access.  Block width is the
    amortization lever -- at the old 16-set blocks the epoch arm leaves
    most of its batching on the table (see docs/performance.md).
    """
    spec = DGXSpec.small(num_sets=256, associativity=16)
    rt = _runtime(spec, backend, seed)
    prober = MemorygramProber(rt, victim_gpu=0, spy_gpu=1)
    prober.setup(num_sets=64)
    rt.engine.stats.reset()
    gram = prober.record(
        VectorAdd(scale=0.05, seed=seed, passes=2),
        bin_cycles=10_000.0,
        sets_per_block=64,
    )
    return _stats_record(rt.engine.stats, total_misses=int(gram.total_misses()))


# ----------------------------------------------------------------------
# Scenario: covert-channel frames on the small box
# ----------------------------------------------------------------------
def run_covert_frames(backend: str, num_bits: int = 64, seed: int = 5) -> Dict:
    spec = DGXSpec.small(num_sets=64, associativity=4)
    rt = _runtime(spec, backend, seed)
    channel = CovertChannel(rt, trojan_gpu=0, spy_gpu=1)
    channel.setup(num_sets=4)
    bits = [random.Random(seed).randrange(2) for _ in range(num_bits)]
    rt.engine.stats.reset()
    outcome = channel.transmit(bits, strict=False)
    return _stats_record(
        rt.engine.stats, error_rate=round(outcome.error_rate, 4)
    )


# ----------------------------------------------------------------------
# Scenario: paper-scale covert stream (16-way sets, long slots)
# ----------------------------------------------------------------------
def run_covert_stream(
    backend: str, num_bits: int = 32, seed: int = 5, slot_cycles: float = 12_000.0
) -> Dict:
    """Covert transmission at paper scale: 8 pairs of 16-way eviction sets.

    Every prime/probe burst is one eviction set (16 accesses) by
    construction, far below the vector core's width cutoff, so the epoch
    arm's win comes from the fused small-burst loop plus epoch-granular
    event dispatch -- a bounded ~1.5-2x, not the wide-path 10x.  The
    scenario exists to pin that floor: a regression here means the fused
    loop (not the vector path) broke.
    """
    spec = DGXSpec.small(num_sets=256, associativity=16)
    rt = _runtime(spec, backend, seed)
    channel = CovertChannel(rt, trojan_gpu=0, spy_gpu=1)
    channel.setup(num_sets=8)
    bits = [random.Random(seed).randrange(2) for _ in range(num_bits)]
    rt.engine.stats.reset()
    outcome = channel.transmit(bits, strict=False, slot_cycles=slot_cycles)
    return _stats_record(
        rt.engine.stats,
        error_rate=round(outcome.error_rate, 4),
        slot_cycles=slot_cycles,
    )


# ----------------------------------------------------------------------
# Scenario: NVLink fabric covert channel on the small box
# ----------------------------------------------------------------------
def run_link_covert(
    backend: str,
    num_bits: int = 64,
    seed: int = 9,
    slot_cycles: float = 24_000.0,
) -> Dict:
    """Fabric-channel frames: LinkFlood slots + probe sweeps, no L2 traffic.

    Exercises the interconnect lane model rather than the cache fast
    path.  Wide slots make each one-bit flood thousands of transfers, so
    the epoch arm rides the vectorized lane scan while the scalar oracle
    walks every transfer through the Python least-busy-lane loop; the
    spy's small probe bursts stay on the fused scalar closure on both
    arms.  Received bits are bit-identical across arms by construction
    (the differential suite enforces it), so the accesses/sec ratio is a
    pure wall-clock ratio.
    """
    from repro.core.linkchannel.covert import LinkCovertChannel

    spec = DGXSpec.small(num_gpus=4)
    rt = _runtime(spec, backend, seed)
    channel = LinkCovertChannel.auto(rt, num_links=1)
    channel.setup()
    bits = [random.Random(seed).randrange(2) for _ in range(num_bits)]
    rt.engine.stats.reset()
    outcome = channel.transmit(bits, strict=False, slot_cycles=slot_cycles)
    return _stats_record(
        rt.engine.stats,
        error_rate=round(outcome.error_rate, 4),
        slot_cycles=slot_cycles,
    )


# ----------------------------------------------------------------------
# Scenario: linkgram localization sweep against a bursty victim
# ----------------------------------------------------------------------
def run_linkgram(backend: str, seed: int = 3) -> Dict:
    """Linkgram capture: pair probes sweep the fabric, one link floods.

    The recorder's 2-transfer probe bursts hit the fused pair-probe
    closure (the unrolled 2-lane walk) on the epoch arm; the high-duty
    victim bursts (58k of every 60k cycles) go down the numpy lane scan
    in one LinkEpoch per victim kernel.  The scalar oracle services the
    identical stream one transfer at a time.  Localization and the
    recovered burst period must match across arms bit-for-bit.
    """
    from repro.core.linkchannel.sidechannel import LinkgramRecorder

    spec = DGXSpec.small(num_gpus=4)
    rt = _runtime(spec, backend, seed)
    recorder = LinkgramRecorder(
        rt, bin_cycles=15_000.0, burst=2, spacing_cycles=6_000.0
    )
    recorder.setup()
    victim = recorder.victim_launcher(
        1,
        2,
        duration_cycles=1_200_000.0,
        period_cycles=60_000.0,
        burst_cycles=58_000.0,
    )
    rt.engine.stats.reset()
    gram = recorder.record(
        duration_cycles=1_200_000.0, victim_launcher=victim
    )
    endpoints = recorder.locate(gram)
    return _stats_record(
        rt.engine.stats,
        located=list(endpoints),
        burst_period=recorder.burst_period(gram),
    )


# ----------------------------------------------------------------------
# Scenario: the whole small-box evaluation report (executor + cache)
# ----------------------------------------------------------------------
def run_report_small(
    jobs: int = 1, seed: int = 0, cache_dir: Optional[str] = None
) -> Dict:
    """One ``gpu-spy report --small`` run; wall clock of the whole report."""
    from repro.experiments.report import generate_report

    start = time.perf_counter()
    text = generate_report(
        seed=seed,
        small=True,
        jobs=jobs,
        cache_dir=pathlib.Path(cache_dir) if cache_dir else None,
    )
    wall = time.perf_counter() - start
    return {
        "jobs": jobs,
        "cache": "warm" if cache_dir and any(os.scandir(cache_dir)) else (
            "cold" if cache_dir else "off"
        ),
        "wall_seconds": round(wall, 3),
        "sections_ok": text.count(" ok]"),
        "sections_failed": text.count(": FAILED =="),
    }


def run_report_small_suite(seed: int = 0) -> Dict:
    """Sequential vs parallel vs warm-cache report runs.

    ``parallel_speedup`` (jobs=1 cold over jobs=4 cold) is only
    meaningful on a multi-core host; ``cpu_count`` is recorded so
    trajectory entries from starved runners read as what they are.
    """
    results: Dict[str, Dict] = {"jobs1_cold": run_report_small(jobs=1, seed=seed)}
    with tempfile.TemporaryDirectory(prefix="repro-report-cache-") as cache_dir:
        # Same dir both times: first run populates, second run hits.
        results["jobs4_cold"] = run_report_small(jobs=4, seed=seed, cache_dir=cache_dir)
        results["jobs4_warm"] = run_report_small(jobs=4, seed=seed, cache_dir=cache_dir)
    parallel = results["jobs4_cold"]["wall_seconds"]
    results["parallel_speedup"] = (
        round(results["jobs1_cold"]["wall_seconds"] / parallel, 2) if parallel else None
    )
    results["cpu_count"] = os.cpu_count()
    return results


SCENARIOS = {
    "probe_storm": run_probe_storm,
    "memorygram": run_memorygram,
    "covert_frames": run_covert_frames,
    "covert_stream": run_covert_stream,
    "link_covert": run_link_covert,
    "linkgram": run_linkgram,
}

#: CI perf-smoke gates: scenario -> minimum epoch/scalar speedup (median
#: of three runs).  The probing scenarios carry the 3x bar; the covert
#: stream's bursts are one 16-way eviction set wide by construction, so
#: its dispatch-level win is structurally bounded (see the scenario
#: docstring) and its gate is a regression tripwire for the fused loop,
#: not a vector-path bar.  The fabric scenarios measure ~11-12x against
#: the scalar fabric walk on a quiet host (recorded in the trajectory);
#: their 8x floors are the columnar-fabric acceptance bar with headroom
#: for noisy shared runners.
SMOKE_GATES = {
    "probe_storm": 3.0,
    "memorygram": 3.0,
    "covert_stream": 1.3,
    "link_covert": 8.0,
    "linkgram": 8.0,
}

#: CI observability gate: metrics-on probe storm may run at most this
#: factor slower than metrics-off (median of three interleaved rounds).
METRICS_OVERHEAD_GATE = 1.10


def run_metrics_gate(rounds: int = 3) -> Dict:
    """Median-of-N metrics-on slowdown on the probe storm (CI gate).

    Interleaves off/on rounds so host-load drift hits both arms alike;
    ``ok`` iff the median slowdown stays under
    :data:`METRICS_OVERHEAD_GATE`.
    """
    off, on = [], []
    for _ in range(rounds):
        off.append(run_probe_storm("vectorized")["accesses_per_sec"])
        on.append(
            run_probe_storm("vectorized", metered=True)["accesses_per_sec"]
        )
    slowdown = statistics.median(off) / statistics.median(on)
    return {
        "off": statistics.median(off),
        "on": statistics.median(on),
        "slowdown": round(slowdown, 3),
        "ceiling": METRICS_OVERHEAD_GATE,
        "ok": slowdown <= METRICS_OVERHEAD_GATE,
    }


def run_smoke(rounds: int = 3) -> Dict:
    """Median-of-N speedups for the gated scenarios (CI perf-smoke job).

    Interleaves the arms (fast, slow, fast, slow, ...) so host-load drift
    hits both arms alike, then gates the median ratio per scenario.
    """
    results: Dict[str, Dict] = {}
    failures = []
    for name, floor in SMOKE_GATES.items():
        scenario = SCENARIOS[name]
        fast, slow = [], []
        for _ in range(rounds):
            fast.append(scenario("vectorized")["accesses_per_sec"])
            slow.append(scenario("scalar")["accesses_per_sec"])
        speedup = statistics.median(fast) / statistics.median(slow)
        results[name] = {
            "vectorized": statistics.median(fast),
            "scalar": statistics.median(slow),
            "speedup": round(speedup, 2),
            "floor": floor,
            "ok": speedup >= floor,
        }
        if speedup < floor:
            failures.append(f"{name}: {speedup:.2f}x < {floor}x floor")
    gate = run_metrics_gate(rounds)
    results["metrics_overhead"] = gate
    if not gate["ok"]:
        failures.append(
            f"metrics_overhead: {gate['slowdown']:.3f}x > "
            f"{gate['ceiling']}x ceiling"
        )
    results["failures"] = failures
    return results


# ----------------------------------------------------------------------
# Harness
# ----------------------------------------------------------------------
def run_all() -> Dict:
    results: Dict[str, Dict] = {}
    for name, scenario in SCENARIOS.items():
        results[name] = {}
        for backend in BACKENDS:
            results[name][backend] = scenario(backend)
        fast = results[name]["vectorized"]["accesses_per_sec"]
        slow = results[name]["scalar"]["accesses_per_sec"]
        results[name]["speedup"] = round(fast / slow, 2) if slow else None
    results["tracing"] = run_tracing_overhead()
    results["metrics"] = run_metrics_overhead()
    results["report_small"] = run_report_small_suite()
    return results


def append_trajectory(results: Dict) -> None:
    trajectory = []
    if TRAJECTORY_PATH.exists():
        trajectory = json.loads(TRAJECTORY_PATH.read_text())
    trajectory.append(
        {"timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"), "scenarios": results}
    )
    TRAJECTORY_PATH.write_text(json.dumps(trajectory, indent=2) + "\n")


def format_results(results: Dict) -> str:
    lines = [
        f"{'scenario':<14}  {'backend':<10}  {'accesses/s':>12}  "
        f"{'events/s':>10}  {'wall s':>8}"
    ]
    for name, entry in results.items():
        if name == "report_small":
            for mode in ("jobs1_cold", "jobs4_cold", "jobs4_warm"):
                record = entry[mode]
                lines.append(
                    f"{name:<14}  {mode:<10}  "
                    f"{record['sections_ok']:>9} ok  "
                    f"{record['sections_failed']:>8} bad  "
                    f"{record['wall_seconds']:>8.3f}"
                )
            lines.append(
                f"{name:<14}  {'speedup':<10}  {entry['parallel_speedup']:>11}x"
                f"  (on {entry['cpu_count']} cpus)"
            )
            continue
        if name in ("tracing", "metrics"):
            for mode in ("off", "on"):
                record = entry[mode]
                lines.append(
                    f"{name:<14}  {mode:<10}  "
                    f"{record['accesses_per_sec']:>12,}  "
                    f"{record['events_per_sec']:>10,}  "
                    f"{record['wall_seconds']:>8.3f}"
                )
            lines.append(
                f"{name:<14}  {'overhead':<10}  {entry['overhead_pct']:>11}%"
            )
            continue
        for backend in BACKENDS:
            record = entry[backend]
            lines.append(
                f"{name:<14}  {backend:<10}  {record['accesses_per_sec']:>12,}  "
                f"{record['events_per_sec']:>10,}  {record['wall_seconds']:>8.3f}"
            )
        lines.append(f"{name:<14}  {'speedup':<10}  {entry['speedup']:>11}x")
    return "\n".join(lines)


def main() -> None:
    import argparse
    import sys

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="run only the gated scenarios (memorygram, covert, fabric; "
        "median of 3) and exit nonzero if any speedup drops below its "
        "floor",
    )
    options = parser.parse_args()
    if options.smoke:
        results = run_smoke()
        for name, entry in results.items():
            if name == "failures":
                continue
            if name == "metrics_overhead":
                print(
                    f"{name:<14}  off {entry['off']:>14,.0f}/s  "
                    f"on {entry['on']:>16,.0f}/s  "
                    f"{entry['slowdown']:>6}x  (ceiling {entry['ceiling']}x)  "
                    f"{'ok' if entry['ok'] else 'FAIL'}"
                )
                continue
            print(
                f"{name:<14}  epoch {entry['vectorized']:>12,.0f}/s  "
                f"scalar {entry['scalar']:>12,.0f}/s  "
                f"{entry['speedup']:>6}x  (floor {entry['floor']}x)  "
                f"{'ok' if entry['ok'] else 'FAIL'}"
            )
        append_trajectory({"perf_smoke": results})
        if results["failures"]:
            print("\nperf-smoke FAILED: " + "; ".join(results["failures"]))
            sys.exit(1)
        print("\nperf-smoke ok")
        return
    results = run_all()
    print(format_results(results))
    append_trajectory(results)
    print(f"\ntrajectory appended to {TRAJECTORY_PATH}")


# ----------------------------------------------------------------------
# Benchmark-suite entry point
# ----------------------------------------------------------------------
@pytest.mark.paper
def test_perf_probe_storm_speedup(benchmark, print_result):
    """The vectorized backend must clear 5x scalar throughput on the
    256-set memorygram probe storm (the PR's acceptance bar)."""
    results = benchmark.pedantic(
        lambda: {"probe_storm": {b: run_probe_storm(b) for b in BACKENDS}},
        rounds=1,
        iterations=1,
    )
    storm = results["probe_storm"]
    speedup = (
        storm["vectorized"]["accesses_per_sec"]
        / storm["scalar"]["accesses_per_sec"]
    )
    storm["speedup"] = round(speedup, 2)
    print_result(format_results(results))
    append_trajectory(results)
    assert speedup >= 5.0, f"vectorized speedup {speedup:.1f}x below the 5x bar"


@pytest.mark.paper
def test_perf_memorygram_speedup(benchmark, print_result):
    """The epoch arm must clear 3x on the end-to-end memorygram capture.

    The capture includes the victim's own (epoch-less) execution on both
    arms, so this sits well below the probing-only storm ratio; with
    64-set epoch blocks the measured median is ~7-8x, and 3x is the
    regression floor (the same bar the CI perf-smoke job enforces).
    Median of three seeds to keep scheduler noise out."""

    def measure():
        return {
            backend: [
                run_memorygram(backend, seed=3 + i)["accesses_per_sec"]
                for i in range(3)
            ]
            for backend in BACKENDS
        }

    rates = benchmark.pedantic(measure, rounds=1, iterations=1)
    ratio = statistics.median(rates["vectorized"]) / statistics.median(
        rates["scalar"]
    )
    print_result(
        f"memorygram epoch/scalar = {ratio:.2f}x "
        f"(epoch {rates['vectorized']}, scalar {rates['scalar']})"
    )
    assert ratio >= 3.0, (
        f"epoch engine dropped to {ratio:.2f}x scalar on memorygram"
    )


@pytest.mark.paper
def test_perf_covert_stream_no_regression(benchmark, print_result):
    """The epoch arm must not lose to scalar on the paper-scale covert
    stream.  Covert bursts are one 16-way eviction set wide, so the win
    is the fused small-burst loop's (~1.5-2x measured); parity is the
    hard floor -- below it the fused loop is a pessimization."""

    def measure():
        return {
            backend: [
                run_covert_stream(backend, seed=5 + i)["accesses_per_sec"]
                for i in range(3)
            ]
            for backend in BACKENDS
        }

    rates = benchmark.pedantic(measure, rounds=1, iterations=1)
    ratio = statistics.median(rates["vectorized"]) / statistics.median(
        rates["scalar"]
    )
    print_result(
        f"covert_stream epoch/scalar = {ratio:.2f}x "
        f"(epoch {rates['vectorized']}, scalar {rates['scalar']})"
    )
    assert ratio >= 1.0, (
        f"epoch engine regressed to {ratio:.2f}x scalar on the covert stream"
    )


@pytest.mark.paper
def test_perf_report_parallel_speedup(benchmark, print_result):
    """`report --small --jobs 4` must be >= 3x the sequential run and keep
    every section healthy.  The wall-clock bar only applies on hosts with
    at least 4 CPUs -- on starved runners the suite still runs (pinning
    correctness of the parallel path) and records the timings."""
    results = benchmark.pedantic(
        lambda: {"report_small": run_report_small_suite()}, rounds=1, iterations=1
    )
    suite = results["report_small"]
    print_result(format_results(results))
    append_trajectory(results)
    for mode in ("jobs1_cold", "jobs4_cold", "jobs4_warm"):
        assert suite[mode]["sections_failed"] == 0, f"{mode} had failed sections"
        assert suite[mode]["sections_ok"] == suite["jobs1_cold"]["sections_ok"]
    if (os.cpu_count() or 1) >= 4:
        assert suite["parallel_speedup"] >= 3.0, (
            f"jobs=4 speedup {suite['parallel_speedup']}x below the 3x bar "
            f"on a {os.cpu_count()}-cpu host"
        )


if __name__ == "__main__":
    main()
