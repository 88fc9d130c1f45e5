"""The per-op unroll: epoch plans expanded into ordinary engine ops.

``Runtime(epoch_dispatch=False)`` launches every kernel through
:func:`repro.sim.epoch.unroll`.  These tests pin the per-op stream it
yields for each piece of plan grammar, that it assembles the same
outcome the cursors do (same backend on both arms, so only the dispatch
differs), and that it rejects the same faulty plans with the same typed
errors.  The end-to-end attack differentials live in
``tests/test_epoch_engine.py`` and ``tests/test_link_epoch.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import DGXSpec
from repro.core.sidechannel.prober import MemorygramProber
from repro.core.eviction import EvictionSet
from repro.errors import AttackError, PeerAccessError, SimulationError, TranslationError
from repro.runtime.api import Runtime
from repro.sim.ops import (
    Access,
    AccessEpoch,
    EpochBurst,
    EpochIdle,
    EpochRepeat,
    LinkBurst,
    LinkEpoch,
    LinkFlood,
    LinkPad,
)


def _arms(num_gpus: int = 2):
    """(epoch, unrolled) runtimes on the same backend and seed."""
    arms = []
    for epochs in (True, False):
        rt = Runtime(DGXSpec.small(num_gpus=num_gpus), seed=5, epoch_dispatch=epochs)
        proc = rt.create_process("p")
        rt.enable_peer_access(proc, 1, 0)
        buf = rt.malloc_lines(proc, 0, 64, name="b")
        arms.append((rt, proc, buf))
    return arms


WORDS_PER_LINE = DGXSpec.small().gpu.cache.line_size // 8


def _lines(start, count):
    return tuple((start + i) * WORDS_PER_LINE for i in range(count))


def _run(rt, proc, plan, gpu=1):
    def kernel():
        return (yield plan)

    return rt.run_kernel(kernel(), gpu, proc)


def _ops(rt):
    return dict(rt.engine.stats.op_counts)


def test_access_plan_op_stream():
    """Reads open each round; one-set bursts are ProbeSets, multi-set
    bursts ProbeEpochs; idles and period padding are Computes."""
    _epoch, (rt, proc, buf) = _arms()
    one = EpochBurst(buf, (_lines(0, 4),))
    two = EpochBurst(buf, (_lines(4, 4), _lines(8, 4)))
    _run(rt, proc, AccessEpoch((one, EpochIdle(cycles=6.0), two), rounds=3,
                               period=50_000.0, record=False))
    assert _ops(rt) == {
        # 3 round reads + 3 period reads.
        "ReadClock": 6,
        "ProbeSet": 3,
        "ProbeEpoch": 3,
        # 3 idles + 3 period pads.
        "Compute": 6,
    }
    assert rt.engine.stats.epochs == 0


def test_repeat_and_chunked_idle_read_the_clock_per_step():
    (rt_e, proc_e, buf_e), (rt_u, proc_u, buf_u) = _arms()
    outcomes = []
    for rt, proc, buf in ((rt_e, proc_e, buf_e), (rt_u, proc_u, buf_u)):
        burst = EpochBurst(buf, (_lines(0, 4),))
        outcomes.append(
            _run(rt, proc, AccessEpoch((
                EpochRepeat(burst, until=6_000.0, margin=120.0),
                EpochIdle(until=9_000.0, chunk=200.0),
            ), record=False))
        )
    ops = _ops(rt_u)
    # Every repeat check and every idle step is preceded by a read.
    assert ops["ReadClock"] == 1 + (ops["ProbeSet"] + 1) + (ops["Compute"] + 1)
    assert ops["ProbeSet"] > 1
    assert rt_e.engine.now == rt_u.engine.now
    assert outcomes[0].bursts == outcomes[1].bursts
    assert outcomes[0].accesses == outcomes[1].accesses


def test_unroll_matches_cursor_on_every_access_segment():
    """Round checks, unchunked idles and recorded bursts: both arms
    produce the same outcome arrays and clocks."""
    results = []
    for rt, proc, buf in _arms():
        burst = EpochBurst(buf, (_lines(0, 4), _lines(8, 3)), parallel=False)
        stop = []
        plan = AccessEpoch(
            (burst, EpochIdle(cycles=3.5, until=2_500.25)),
            rounds=None,
            period=4_000.0,
            end_time=rt.engine.now + 40_000.0,
            stop_flag=stop,
            grace_cycles=0.0,
        )
        outcome = _run(rt, proc, plan)
        results.append((rt, outcome))
    (rt_e, e), (rt_u, u) = results
    assert rt_e.engine.now == rt_u.engine.now
    assert e.starts.tolist() == u.starts.tolist()
    assert e.latencies.tolist() == u.latencies.tolist()
    assert e.hits.tolist() == u.hits.tolist()
    assert e.totals.tolist() == u.totals.tolist()
    assert e.set_counts.tolist() == u.set_counts.tolist()
    assert e.set_starts.tolist() == u.set_starts.tolist()
    assert (e.bursts, e.accesses, e.remote, e.begin, e.end) == (
        u.bursts, u.accesses, u.remote, u.begin, u.end
    )
    assert e.num_recorded > 1


def test_unroll_matches_cursor_on_every_link_segment():
    results = []
    for rt, proc, _buf in _arms():
        plan = LinkEpoch(
            (
                LinkBurst(0, 3, 2.0, True, record=True),
                LinkFlood(0, occupancy_per_transfer=7.5, burst_cycles=300.0),
                LinkPad(until=1_500.0),
                EpochIdle(cycles=40.0, until=1_900.5),
            ),
            rounds=None,
            duration_cycles=12_000.0,
        )
        results.append((rt, _run(rt, proc, plan)))
    (rt_e, e), (rt_u, u) = results
    assert rt_e.engine.now == rt_u.engine.now
    assert e.starts.tolist() == u.starts.tolist()
    assert e.latencies.tolist() == u.latencies.tolist()
    assert (e.bursts, e.transfers, e.begin, e.end) == (
        u.bursts, u.transfers, u.begin, u.end
    )
    assert _ops(rt_u)["LinkProbe"] == e.bursts
    assert (
        rt_e.system.interconnect.counters_snapshot()
        == rt_u.system.interconnect.counters_snapshot()
    )


def test_mismatched_recorded_layouts_rejected_by_both_arms():
    for rt, proc, buf in _arms():
        plan = AccessEpoch((
            EpochBurst(buf, (_lines(0, 4),)),
            EpochBurst(buf, (_lines(8, 2),)),
        ))
        with pytest.raises(SimulationError, match="one set layout"):
            _run(rt, proc, plan)
    for rt, proc, _buf in _arms():
        plan = LinkEpoch((
            LinkBurst(0, 2, record=True), LinkBurst(0, 3, record=True),
        ))
        with pytest.raises(SimulationError, match="one width"):
            _run(rt, proc, plan)


def test_link_plan_rejected_before_its_first_op():
    """The unroll validates every destination up front, like the cursor:
    a bad later segment must not let the first burst touch the fabric."""
    for rt, proc, _buf in _arms():
        before = rt.system.interconnect.counters_snapshot()
        plan = LinkEpoch((LinkBurst(0, 2), LinkBurst(1, 2)))
        with pytest.raises(PeerAccessError):
            _run(rt, proc, plan)
        assert rt.system.interconnect.counters_snapshot() == before
        assert not rt.engine.stats.op_counts.get("LinkProbe")


def test_freed_buffer_accesses_raise():
    rt = Runtime(DGXSpec.small(), seed=0)
    proc = rt.create_process("p")
    buf = rt.malloc_lines(proc, 0, 8)
    rt.free(buf)

    def load():
        yield Access(buf, 0)

    with pytest.raises(TranslationError, match="freed"):
        rt.run_kernel(load(), 0, proc)
    with pytest.raises(TranslationError, match="freed"):
        buf.paddrs(np.arange(4))


def test_prober_rejects_a_block_spanning_two_buffers():
    rt = Runtime(DGXSpec.small(), seed=0)
    prober = MemorygramProber(rt)
    prober.process = rt.create_process("spy")
    bufs = [rt.malloc_lines(prober.process, 0, 4, name=f"b{i}") for i in range(2)]
    prober.eviction_sets = [
        EvictionSet(buffer=buf, indices=(0,), set_id=i, origin=(0, i))
        for i, buf in enumerate(bufs)
    ]
    prober.thresholds = object()
    with pytest.raises(AttackError, match="one probe buffer"):
        prober.record(sets_per_block=2)
