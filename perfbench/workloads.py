"""The benchmark's workloads: which experiments run, and how outputs are checked.

Every workload runs the program's seeded experiment runners in this
process, with no artifact cache, so eviction discovery and calibration
are paid for as a user pays for them.  One *iteration* runs every
experiment of the workload once; its outputs are reduced to one digest per
experiment (rendered ``summary()`` plus the deterministic fields of every
run manifest) and compared with the digests recorded in ``golden.json``.
"""

from __future__ import annotations

import hashlib
import json
import re
import shutil
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

__all__ = ["WORKLOADS", "GOLDEN_SEEDS", "Outcome", "Iteration", "Workload", "facts"]

#: Golden digests exist for experiment seeds ``0 .. GOLDEN_SEEDS - 1``; the
#: command-line seed is reduced modulo this, so every run is checked.
GOLDEN_SEEDS = 16

#: Engine-stat fields that are host time, not simulation.
_HOST_TIME_FIELDS = ("wall_seconds", "events_per_sec", "accesses_per_sec")


@dataclass
class Outcome:
    """One experiment of one iteration."""

    name: str
    wall: float
    summary: Optional[str] = None
    #: Deterministic facts of every box the experiment ran on (see
    #: :func:`facts` and :func:`runtime_facts`).
    facts: List[dict] = field(default_factory=list)
    error: Optional[str] = None
    #: The result object, dropped once the iteration's observables are read.
    result: object = None

    def digest(self) -> str:
        payload = json.dumps(self.facts, sort_keys=True)
        return _sha(f"{self.summary}\n{payload}")

    def accesses(self) -> int:
        return sum(f["engine"]["accesses"] for f in self.facts)


@dataclass
class Iteration:
    """Everything one pass over a workload produced."""

    wall: float
    outcomes: List[Outcome]
    #: Extra checked items (``report`` for the whole rendered report).
    extra_digests: Dict[str, str] = field(default_factory=dict)
    observables: Dict[str, float] = field(default_factory=dict)
    #: ``time.perf_counter()`` when the timed phase began.
    started: float = 0.0

    def digests(self) -> Dict[str, Optional[str]]:
        out = {o.name: (o.digest() if o.error is None else None) for o in self.outcomes}
        out.update(self.extra_digests)
        return out

    def accesses(self) -> int:
        return sum(o.accesses() for o in self.outcomes)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: ``run(seed, scratch_dir, around) -> Iteration``; ``around()`` is a
    #: context manager entered around each experiment (a span when traced).
    run: Callable[[int, Path, Callable], Iteration]
    #: ``default_runtime`` keyword arguments of the workload's first runtime.
    first_runtime: Tuple[Tuple[str, object], ...] = ()


def facts(manifest) -> dict:
    """The deterministic part of a run manifest (no host time, revision or date)."""
    raw = manifest.to_dict()
    for key in ("git_rev", "created", "wall_seconds"):
        raw.pop(key, None)
    raw["engine"] = _sim_stats(raw["engine"])
    return raw


def runtime_facts(seed: int, runtime) -> dict:
    """The same simulated facts, read from a box that carries no manifest."""
    return {
        "seed": seed,
        "sim_cycles": runtime.engine.stats.sim_cycles,
        "engine": _sim_stats(runtime.engine.stats.snapshot()),
        "counters": [gpu.counters.snapshot() for gpu in runtime.system.gpus],
    }


def _sim_stats(engine: dict) -> dict:
    return {key: value for key, value in engine.items() if key not in _HOST_TIME_FIELDS}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:32]


def _timed(name: str, body: Callable[[], Tuple[object, List[dict]]]) -> Outcome:
    """Run one experiment; an exception becomes a failed outcome."""
    started = time.perf_counter()
    try:
        result, box_facts = body()
    except Exception:  # counted as a failed experiment; the run goes on
        return Outcome(name, time.perf_counter() - started, error=traceback.format_exc(limit=-3))
    wall = time.perf_counter() - started
    manifest = result.extras.get("manifest")
    if manifest is not None:
        box_facts = [facts(manifest)] + box_facts
    return Outcome(name, wall, summary=result.summary(), facts=box_facts, result=result)


def _registry(name: str, seed: int):
    from repro.experiments.report import run_experiment

    return lambda: (run_experiment(name, seed=seed, small=False), [])


def _fig9(seed: int):
    """The registry's paper-scale fig9, reading the facts of each box it builds.

    fig9 builds one box per set count in turn and attaches no manifest; a
    box is finished when the next is requested, so its facts are read then
    and no more boxes stay alive than in the registry's run.
    """
    from repro.experiments import fig09_bandwidth
    from repro.experiments.common import default_runtime

    def body():
        box_facts, current = [], []

        def factory(run_seed):
            if current:
                box_facts.append(runtime_facts(*current.pop()))
            runtime = default_runtime(run_seed)
            current.append((run_seed, runtime))
            return runtime

        result = fig09_bandwidth.run(
            runtime_factory=factory, seed=seed, set_counts=(1, 2, 4, 8), payload_bits=256
        )
        if current:
            box_facts.append(runtime_facts(*current.pop()))
        return result, box_facts

    return body


def _fig9_observables(result_rows) -> Dict[str, float]:
    for row in result_rows:
        if int(row[0]) == 4:
            return {"covert_bw_kbps": float(row[1]), "covert_err_pct": float(row[2])}
    return {}


def _run_sequence(bodies: List[Tuple[str, Callable]], around: Callable) -> Iteration:
    started = time.perf_counter()
    outcomes = []
    for name, body in bodies:
        with around():
            outcomes.append(_timed(name, body))
    iteration = Iteration(wall=time.perf_counter() - started, outcomes=outcomes, started=started)
    for outcome in outcomes:
        if outcome.name == "fig9" and outcome.error is None:
            iteration.observables.update(_fig9_observables(outcome.result.rows))
        outcome.result = None
    return iteration


def memorygram_paper(seed: int, scratch: Path, around: Callable) -> Iteration:
    return _run_sequence([("fig11", _registry("fig11", seed))], around)


def covert_paper(seed: int, scratch: Path, around: Callable) -> Iteration:
    return _run_sequence([
        ("fig9", _fig9(seed)),
        ("fig10", _registry("fig10", seed)),
        ("ext-chaos-covert", _registry("ext-chaos-covert", seed)),
    ], around)


def link_paper(seed: int, scratch: Path, around: Callable) -> Iteration:
    """The two fabric experiments, sized up through their public parameters.

    At registry sizes (192 payload bits, 120k cycles) they run about a
    second; 512 bits and 2.4M cycles make each last seconds.
    """
    from repro.experiments import ext_link_covert, ext_link_locate

    def covert():
        return ext_link_covert.run(
            seed=seed, small=False, link_counts=(1, 2, 4), payload_bits=512
        ), []

    def locate():
        return ext_link_locate.run(
            seed=seed, small=False, topologies=("dgx1", "dgx2"),
            duration_cycles=2_400_000.0,
        ), []

    return _run_sequence([("ext-link-covert", covert), ("ext-link-locate", locate)], around)


_MARKER = re.compile(r"^\[(\S+) (ok|failed|timeout)\b.*\]$")


def split_sections(report: str) -> Dict[str, str]:
    """Each successful experiment's section of a rendered report.

    A section runs from the first ``== ...`` line after the previous
    section's closing ``[name ok]`` / ``[name failed ...]`` marker up to its
    own marker; only ``ok`` sections are returned.
    """
    sections: Dict[str, str] = {}
    lines: Optional[List[str]] = None
    for line in report.splitlines():
        match = _MARKER.match(line)
        if match:
            if match.group(2) == "ok" and lines is not None:
                sections[match.group(1)] = "\n".join(lines).rstrip("\n")
            lines = None
        elif lines is not None:
            lines.append(line)
        elif line.startswith("== "):
            lines = [line]
    return sections


def report_small(seed: int, scratch: Path, around: Callable) -> Iteration:
    """``generate_report(small=True, jobs=1)``: the north-star command."""
    from repro.analysis.persistence import load_result
    from repro.experiments.report import EXPERIMENTS, generate_report
    from repro.telemetry.manifest import RunManifest

    json_dir = scratch / "report"
    shutil.rmtree(json_dir, ignore_errors=True)
    starts: Dict[str, float] = {}
    ends: Dict[str, float] = {}

    def progress(line: str) -> None:
        now = time.perf_counter()
        if line.startswith("running "):
            starts[line.split()[1]] = now
        else:
            ends[line.split()[0]] = now

    started = time.perf_counter()
    with around():
        text = generate_report(
            seed=seed, small=True, jobs=1, json_dir=json_dir, progress=progress
        )
    wall = time.perf_counter() - started

    sections = split_sections(text)
    outcomes = []
    for name in EXPERIMENTS:
        elapsed = ends.get(name, started) - starts.get(name, started)
        if name not in sections:
            outcomes.append(Outcome(name, elapsed, error="no ok section in report"))
            continue
        manifest = json_dir / f"{name}.manifest.json"
        box_facts = [facts(RunManifest.load(manifest))] if manifest.exists() else []
        outcomes.append(Outcome(name, elapsed, summary=sections[name], facts=box_facts))
    iteration = Iteration(
        wall=wall, outcomes=outcomes, extra_digests={"report": _sha(text)}, started=started
    )
    if (json_dir / "fig9.json").exists():
        iteration.observables.update(_fig9_observables(load_result(json_dir / "fig9.json").rows))
    if (json_dir / "fig12.json").exists():
        for row in load_result(json_dir / "fig12.json").rows:
            if row[0] == "overall":
                iteration.observables["fingerprint_acc_pct"] = float(row[1])
    shutil.rmtree(json_dir, ignore_errors=True)
    return iteration


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "memorygram_paper",
            "paper-scale fig11 memorygrams: the wide LRU burst path, fabric batches "
            "and bank/HBM occupancy carry the run",
            memorygram_paper,
        ),
        Workload(
            "covert_paper",
            "paper-scale fig9+fig10+chaos covert channel: per-access eviction "
            "discovery and narrow bursts through the fused small core",
            covert_paper,
        ),
        Workload(
            "report_small",
            "the full report --small registry: all 17 experiments, the classifier "
            "and the manifests; the north-star command",
            report_small,
            first_runtime=(("small", True),),
        ),
        Workload(
            "link_paper",
            "NVLink-only covert and linkgram experiments sized to seconds: fabric "
            "flows, link epoch cursor and trace decoding, no L2 traffic",
            link_paper,
            first_runtime=(("topology", "dgx1"),),
        ),
    )
}
