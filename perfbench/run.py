"""Benchmark entry point: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload covert_paper --seed 3 --seconds 24 --trace 0

``--trace 0`` repeats the workload untraced until ``--seconds`` is spent
(always at least once) and reports the end-to-end metrics.  Their times
are normalised to a nominal host speed sampled while they run (see
``hostspeed.py``), because the host's own speed moves more than any bound.
``--trace 1`` runs it once untraced and once with spans around each
layer's public entry points (see ``layers.py``) and reports the per-layer
metrics.
``--workload all`` runs every workload in turn.  Every run checks each
experiment's output digest against ``golden.json``; the last line of
standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path
from typing import Dict, List, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".perfbench_out"
SETUP_PROBES = 7

END_TO_END: Tuple[Tuple[str, str], ...] = (
    ("norm_wall_s", "s"),
    ("setup_s", "s"),
    ("norm_accesses_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)


class BenchmarkError(Exception):
    """The benchmark cannot produce a trustworthy result."""


def import_program():
    """Import the simulator from ``src/``, refusing a warm artifact cache."""
    if os.environ.get("REPRO_CACHE_DIR", "").strip():
        raise BenchmarkError(
            "REPRO_CACHE_DIR is set: cached discovery/calibration would make the "
            "run warm; unset it"
        )
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import repro
        from repro.cache import get_active_cache
    except ImportError as exc:
        raise BenchmarkError(f"cannot import the program from {ROOT / 'src'}: {exc}")
    if not Path(repro.__file__).resolve().is_relative_to(ROOT / "src"):
        raise BenchmarkError(f"imported repro from {repro.__file__}, not {ROOT / 'src'}")
    if get_active_cache() is not None:
        raise BenchmarkError("an ArtifactCache is active: the run would be warm")


def measure_setup(first_runtime: Dict[str, object], seed: int) -> List[Tuple[float, float]]:
    """``(normalised seconds, host slice)`` per fresh interpreter importing repro and building a runtime."""
    kwargs = json.dumps(dict(first_runtime, seed=seed))
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), kwargs],
            capture_output=True, text=True, timeout=120, cwd=ROOT,
        )
        if proc.returncode != 0:
            raise BenchmarkError(f"setup probe failed: {proc.stderr.strip()[-500:]}")
        setup, slice_s = proc.stdout.strip().splitlines()[-2:]
        samples.append((float(setup), float(slice_s)))
    return samples


def check(iteration, golden: Dict[str, str]) -> Tuple[int, int, List[str]]:
    """``(attempted, failed, problems)`` against the recorded digests."""
    digests = iteration.digests()
    problems = []
    for name, digest in digests.items():
        if digest is None:
            error = next(o.error for o in iteration.outcomes if o.name == name)
            problems.append(f"{name}: raised {error}")
        elif golden.get(name) != digest:
            problems.append(f"{name}: digest {digest} != recorded {golden.get(name)}")
    missing = sorted(set(golden) - set(digests))
    problems.extend(f"{name}: not run" for name in missing)
    return len(digests) + len(missing), len(problems), problems


def stamp(workload: str, seed: int, trace: int) -> dict:
    import hashlib

    import numpy

    try:
        rev = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        rev = None
    source = hashlib.sha256()
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        source.update(path.relative_to(ROOT).as_posix().encode())
        source.update(path.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "git_rev": rev,
        "source_sha256": source.hexdigest()[:16],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "host": platform.machine(),
    }


def run_untraced(workload, seed: int, seconds: float) -> Tuple[list, list, float]:
    """Repeat the workload until ``seconds`` is about spent; at least once.

    Another iteration starts while it would end at most half an iteration
    past ``seconds``.  Iteration ``k`` runs experiment seed
    ``(seed + k) % GOLDEN_SEEDS``, so a run's median covers several inputs.
    Returns the ``(seed, iteration)`` pairs, each iteration's
    ``(normalised wall, host slice)`` and the peak RSS in MB after the
    first iteration, less the reference slices' objects: the allocator
    does not hand freed memory back, so later iterations would make the
    peak depend on how many fit.
    """
    import hostspeed
    from workloads import GOLDEN_SEEDS

    runs, speeds = [], []
    peak_mb = 0.0
    started = time.perf_counter()
    with hostspeed.SpeedSampler() as sampler:
        while True:
            exp_seed = (seed + len(runs)) % GOLDEN_SEEDS
            iteration = workload.run(exp_seed, SCRATCH, nullcontext)
            runs.append((exp_seed, iteration))
            speeds.append(sampler.normalised(iteration.started, iteration.wall))
            if len(runs) == 1:
                peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                peak_mb = peak_kb / 1024.0 - hostspeed.footprint_mb
            elapsed = time.perf_counter() - started
            typical = statistics.median(it.wall for _, it in runs)
            if elapsed + typical / 2 > seconds:
                return runs, speeds, peak_mb


def run_traced(workload, exp_seed: int):
    """One untraced then one traced iteration; returns both and the metrics."""
    from layers import EXPERIMENT_SLOT, RuntimeLog, layer_metrics, targets
    from spans import SpanRecorder, instrumented

    untraced = workload.run(exp_seed, SCRATCH, nullcontext)
    recorder, runtimes = SpanRecorder(), RuntimeLog()

    @contextmanager
    def experiment_span():
        with recorder.span(EXPERIMENT_SLOT):
            yield
        runtimes.harvest()

    with instrumented(recorder, targets(runtimes)):
        started = time.perf_counter()
        traced = workload.run(exp_seed, SCRATCH, experiment_span)
        outer_wall = time.perf_counter() - started
    runtimes.harvest()
    metrics = layer_metrics(
        recorder, runtimes, traced.wall, outer_wall, untraced.wall,
        {o.name: o.wall for o in untraced.outcomes},
    )
    return untraced, traced, metrics


def measure(name: str, seed: int, seconds: float, trace: int) -> dict:
    from layers import PER_LAYER
    from workloads import GOLDEN_SEEDS, WORKLOADS

    workload = WORKLOADS[name]
    golden = json.loads((HERE / "golden.json").read_text()).get(name, {})
    exp_seed = seed % GOLDEN_SEEDS
    problems: List[str] = []
    notes: Dict[str, object] = {}
    if trace:
        untraced, traced, values = run_traced(workload, exp_seed)
        runs = [(exp_seed, untraced), (exp_seed, traced)]
        units = dict(PER_LAYER)
        problems.extend(
            f"{key}: traced digest differs from untraced"
            for key, digest in untraced.digests().items()
            if traced.digests().get(key) != digest
        )
        if values["trace.reconcile_pct"] > 3.0:
            problems.append(f"spans reconcile only to {values['trace.reconcile_pct']:.1f}%")
    else:
        setups = measure_setup(dict(workload.first_runtime), exp_seed)
        runs, speeds, peak_mb = run_untraced(workload, seed, seconds)
        values = {
            "norm_wall_s": statistics.median(norm for norm, _ in speeds),
            "setup_s": statistics.median(norm for norm, _ in setups),
            "norm_accesses_per_s": statistics.median(
                it.accesses() / norm for (_, it), (norm, _) in zip(runs, speeds)
            ),
            "peak_rss_mb": peak_mb,
        }
        units = dict(END_TO_END)
        notes["setup_probes"] = [{"norm_setup_s": t, "slice_s": sl} for t, sl in setups]
        notes["iterations"] = [
            {
                "experiment_seed": s,
                "wall_s": it.wall,
                "norm_wall_s": norm,
                "slice_s": slice_s,
                "experiments_s": {o.name: o.wall for o in it.outcomes},
            }
            for (s, it), (norm, slice_s) in zip(runs, speeds)
        ]

    attempted = failed = 0
    for run_seed, iteration in runs:
        recorded = golden.get(str(run_seed))
        if not recorded:
            raise BenchmarkError(f"no recorded digests for {name} seed {run_seed}")
        a, f, p = check(iteration, recorded)
        attempted, failed = attempted + a, failed + f
        problems.extend(f"seed {run_seed}: {line}" for line in p)
    notes["observables"] = runs[0][1].observables
    notes["problems"] = problems
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": values[key], "unit": unit} for key, unit in units.items()},
        "stamp": dict(stamp(name, seed, trace), **notes),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(HERE))
    try:
        import_program()
        from workloads import WORKLOADS

        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        unknown = [name for name in names if name not in WORKLOADS]
        if unknown:
            raise BenchmarkError(f"unknown workload {unknown[0]!r}; choose from {list(WORKLOADS)}")
        results = {name: measure(name, args.seed, args.seconds, args.trace) for name in names}
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    for name, result in results.items():
        print(f"== {name} (seed {args.seed}, trace {args.trace})")
        for key, metric in result["metrics"].items():
            print(f"  {key:<32} {metric['value']:>16.6g} {metric['unit']}")
        for problem in result["stamp"]["problems"]:
            print(f"  FAILED {problem}")
        print(json.dumps({"stamp": result.pop("stamp")}, sort_keys=True))
    if len(results) == 1:
        final = next(iter(results.values()))
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}.{key}": metric
                for name, r in results.items()
                for key, metric in r["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
