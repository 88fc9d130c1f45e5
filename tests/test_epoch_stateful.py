"""Stateful equivalence: random op streams through both engine arms.

A hypothesis :class:`RuleBasedStateMachine` drives the same randomized
alloc / access / probe / evict / flush / free / link-transfer stream
through two paired runtimes -- the columnar epoch arm (vector L2
backend, epoch dispatch, vectorized fabric) and the scalar oracle
(per-access L2 backend, per-op dispatch, Python fabric walk) -- and
asserts after every step that the two simulations remain in lockstep:
identical access results, identical epoch outcomes, identical hardware
and fabric counters, identical per-set cache occupancy, and bitwise
identical simulation clocks.  Fabric rules cover link bursts on both
sides of the small-batch cutoff, link-flap degradation and restore, and
a one-shot lane-partitioning reconfiguration, so the shrunk reproducer
a divergence yields can land in any fabric regime.  An error-path rule
runs faulting plans through both arms (the per-op arm expands them with
``repro.sim.epoch.unroll``): both must raise the same typed error and
leave the simulations in lockstep.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, find, settings, strategies as st
from hypothesis.errors import NoSuchExample
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.config import DGXSpec
from repro.defense.partitioning import enable_lane_partitioning
from repro.errors import ReproError
from repro.runtime.api import Runtime
from repro.sim.ops import (
    Access,
    AccessEpoch,
    EpochBurst,
    LinkBurst,
    LinkEpoch,
    LinkProbe,
    ProbeEpoch,
    ReadClock,
)

MAX_LINES = 48


def _burst_layout(lines: int):
    """``(span, group starts)`` of a multi-set burst inside ``lines`` lines.

    The span is bounded by the buffer: ``alloc`` makes buffers as small
    as 4 lines, and a wider span would probe past the end.
    """
    return st.integers(2, min(6, lines)).flatmap(
        lambda span: st.tuples(
            st.just(span),
            st.lists(st.integers(0, lines - span), min_size=1, max_size=4),
        )
    )


def _counters(rt: Runtime):
    return [
        (
            g.counters.l2_hits,
            g.counters.l2_misses,
            g.counters.l2_evictions,
            g.counters.dram_reads,
            g.counters.remote_requests_in,
        )
        for g in rt.system.gpus
    ]


class EpochScalarEquivalence(RuleBasedStateMachine):
    """Lockstep machine over the epoch arm and its scalar oracle."""

    def __init__(self) -> None:
        super().__init__()
        self.arms = []
        for backend, epochs in (("vectorized", True), ("scalar", False)):
            rt = Runtime(
                DGXSpec.small().with_l2_backend(backend),
                seed=23,
                epoch_dispatch=epochs,
            )
            proc = rt.create_process("sm")
            rt.enable_peer_access(proc, 0, 1)
            rt.enable_peer_access(proc, 1, 0)
            self.arms.append((rt, proc))
        #: A process per arm with no peer access at all.
        self.strangers = [rt.create_process("stranger") for rt, _ in self.arms]
        spec = self.arms[0][0].system.spec.gpu
        self.words_per_line = spec.cache.line_size // 8
        self.num_sets = spec.cache.num_sets
        #: Live allocations: ((buf_epoch, buf_scalar), num_lines).
        self.buffers = []
        #: Freed allocations, same shape (targets of the error-path rule).
        self.freed = []
        self.alloc_counter = 0
        #: Fabric state, always mutated on both arms together.
        self.link_edge = tuple(
            sorted(self.arms[0][0].system.spec.nvlink_edges[0])
        )
        self.flapped = False
        self.partitioned = False

    # ------------------------------------------------------------------
    @rule(lines=st.integers(4, MAX_LINES), home=st.integers(0, 1))
    def alloc(self, lines, home):
        name = f"buf{self.alloc_counter}"
        self.alloc_counter += 1
        pair = tuple(
            rt.malloc_lines(proc, home, lines, name=name)
            for rt, proc in self.arms
        )
        self.buffers.append((pair, lines))

    @precondition(lambda self: self.buffers)
    @rule(data=st.data())
    def access_word(self, data):
        pair, lines = data.draw(st.sampled_from(self.buffers))
        word = data.draw(
            st.integers(0, lines * self.words_per_line - 1), label="word"
        )
        exec_gpu = data.draw(st.integers(0, 1), label="exec_gpu")

        def kernel(buf):
            return (yield Access(buf, word))

        results = [
            rt.run_kernel(kernel(buf), exec_gpu, proc)
            for (rt, proc), buf in zip(self.arms, pair)
        ]
        assert results[0] == results[1]

    @precondition(lambda self: self.buffers)
    @rule(data=st.data())
    def probe_burst(self, data):
        """One multi-set burst: AccessEpoch vs ReadClock + ProbeEpoch."""
        pair, lines = data.draw(st.sampled_from(self.buffers))
        span, group_starts = data.draw(_burst_layout(lines), label="layout")
        sets = self._burst_sets(span, group_starts)
        parallel = data.draw(st.booleans(), label="parallel")
        rounds = data.draw(st.integers(1, 3), label="rounds")
        exec_gpu = data.draw(st.integers(0, 1), label="exec_gpu")
        self._compare_burst(pair, sets, parallel, rounds, exec_gpu)

    @precondition(lambda self: self.buffers)
    @rule(data=st.data())
    def evict_sweep(self, data):
        """Traverse a whole allocation: a capacity-evicting thrash burst
        (wide enough to also reach the vectorized wide path)."""
        pair, lines = data.draw(st.sampled_from(self.buffers))
        indices = tuple(line * self.words_per_line for line in range(lines))
        parallel = data.draw(st.booleans(), label="parallel")
        exec_gpu = data.draw(st.integers(0, 1), label="exec_gpu")
        self._compare_burst(pair, (indices,), parallel, 1, exec_gpu)

    @rule(gpu=st.integers(0, 1))
    def flush(self, gpu):
        for rt, _proc in self.arms:
            rt.system.gpus[gpu].l2.invalidate_all()

    # ------------------------------------------------------------------
    @rule(data=st.data())
    def link_burst(self, data):
        """Fabric lockstep: a LinkEpoch plan vs ReadClock + LinkProbe.

        ``count`` straddles the small-batch cutoff so the fused closure,
        the pure-Python walk, and the numpy lane scan all get exercised
        against the scalar oracle's per-op probes.
        """
        count = data.draw(st.integers(1, 12), label="count")
        gap = data.draw(st.sampled_from([0.0, 1.0, 5.0]), label="gap")
        wait = data.draw(st.booleans(), label="wait")
        rounds = data.draw(st.integers(1, 3), label="rounds")
        exec_gpu = data.draw(st.integers(0, 1), label="exec_gpu")
        dst_gpu = 1 - exec_gpu
        (rt_e, proc_e), (rt_s, proc_s) = self.arms

        def epoch_kernel():
            return (
                yield LinkEpoch(
                    (LinkBurst(dst_gpu, count, gap, wait, record=True),),
                    rounds=rounds,
                )
            )

        def scalar_kernel():
            starts, probes = [], []
            for _ in range(rounds):
                starts.append((yield ReadClock()))
                probes.append((yield LinkProbe(dst_gpu, count, gap, wait)))
            return starts, probes

        outcome = rt_e.run_kernel(epoch_kernel(), exec_gpu, proc_e)
        starts, probes = rt_s.run_kernel(scalar_kernel(), exec_gpu, proc_s)
        assert outcome.starts.tolist() == starts
        for row, probe in zip(outcome.latencies, probes):
            assert row.tolist() == list(probe.latencies)

    @precondition(lambda self: not self.flapped)
    @rule(factor=st.sampled_from([1.5, 2.0, 6.0]))
    def flap_link(self, factor):
        """Degrade one link on both arms (a chaos link_flap, held open)."""
        for rt, _proc in self.arms:
            rt.system.interconnect.degrade_link(self.link_edge, factor)
        self.flapped = True

    @precondition(lambda self: self.flapped)
    @rule()
    def restore_link(self):
        for rt, _proc in self.arms:
            rt.system.interconnect.restore_link(self.link_edge)
        self.flapped = False

    @precondition(lambda self: not self.partitioned)
    @rule(
        num_slices=st.integers(1, 2),
        rate=st.sampled_from([0.0, 3.0]),
    )
    def partition_lanes(self, num_slices, rate):
        """One-shot fabric reconfiguration, applied to both arms alike.

        Swapping in the partitioned interconnect drops lane reservations
        and degradation state on both arms identically, so lockstep must
        survive the reconfiguration and every burst after it.
        """
        for rt, _proc in self.arms:
            enable_lane_partitioning(
                rt.system, num_slices=num_slices, rate_limit_cycles=rate
            )
        self.partitioned = True
        self.flapped = False

    @precondition(lambda self: self.buffers)
    @rule(data=st.data())
    def free(self, data):
        entry = data.draw(st.sampled_from(self.buffers))
        self.buffers.remove(entry)
        self.freed.append(entry)
        pair, _lines = entry
        for (rt, _proc), buf in zip(self.arms, pair):
            rt.free(buf)

    @rule(data=st.data())
    def faulting_plan(self, data):
        """Error paths: a burst past a buffer's end, a burst on a freed
        buffer, or a LinkEpoch lacking peer access.  Both arms must raise
        the same typed error before touching any state (the invariant then
        checks clocks, counters and occupancy)."""
        kinds = ["link"]
        if self.buffers:
            kinds.append("out_of_range")
        if self.freed:
            kinds.append("freed")
        kind = data.draw(st.sampled_from(kinds), label="kind")
        exec_gpu = data.draw(st.integers(0, 1), label="exec_gpu")
        if kind == "link":
            # A stranger has no peer access; otherwise a valid first burst
            # precedes one aimed at the issuing GPU itself, so the plan
            # must be rejected before its first op.
            stranger = data.draw(st.booleans(), label="stranger")
            segments = (LinkBurst(1 - exec_gpu, 2, 0.0, True, record=True),)
            if not stranger:
                segments += (LinkBurst(exec_gpu, 2),)
            plans = [LinkEpoch(segments)] * 2
            procs = self.strangers if stranger else None
        else:
            pool = self.buffers if kind == "out_of_range" else self.freed
            pair, lines = data.draw(st.sampled_from(pool), label="buffer")
            first = lines - 1 if kind == "out_of_range" else 0
            groups = data.draw(st.integers(1, 2), label="groups")
            sets = self._burst_sets(2, [first] * groups)
            parallel = data.draw(st.booleans(), label="parallel")
            plans = [
                AccessEpoch((EpochBurst(buf, sets, parallel=parallel),))
                for buf in pair
            ]
            procs = None
        self._compare_error(plans, exec_gpu, procs)

    # ------------------------------------------------------------------
    def _burst_sets(self, span, group_starts):
        return tuple(
            tuple((start + i) * self.words_per_line for i in range(span))
            for start in group_starts
        )

    def _compare_error(self, plans, exec_gpu, procs=None):
        """Run one faulting plan per arm; both must raise the same type."""
        if procs is None:
            procs = [proc for _rt, proc in self.arms]
        raised = []
        for (rt, _proc), proc, plan in zip(self.arms, procs, plans):

            def kernel(plan=plan):
                return (yield plan)

            with pytest.raises(ReproError) as info:
                rt.run_kernel(kernel(), exec_gpu, proc)
            raised.append(type(info.value))
        assert raised[0] is raised[1]

    def _compare_burst(self, pair, sets, parallel, rounds, exec_gpu):
        (rt_e, proc_e), (rt_s, proc_s) = self.arms
        buf_e, buf_s = pair

        def epoch_kernel():
            return (
                yield AccessEpoch(
                    (EpochBurst(buf_e, sets, parallel=parallel),),
                    rounds=rounds,
                )
            )

        def scalar_kernel():
            starts, probes = [], []
            for _ in range(rounds):
                starts.append((yield ReadClock()))
                probes.append(
                    (yield ProbeEpoch(buf_s, sets, parallel=parallel))
                )
            return starts, probes

        outcome = rt_e.run_kernel(epoch_kernel(), exec_gpu, proc_e)
        starts, probes = rt_s.run_kernel(scalar_kernel(), exec_gpu, proc_s)
        assert outcome.starts.tolist() == starts
        assert outcome.totals.tolist() == [p.total_latency for p in probes]
        for row, hit_row, probe in zip(outcome.latencies, outcome.hits, probes):
            assert row.tolist() == [
                lat for per_set in probe.set_latencies for lat in per_set
            ]
            assert hit_row.tolist() == [
                hit for per_set in probe.set_hits for hit in per_set
            ]

    # ------------------------------------------------------------------
    @invariant()
    def arms_in_lockstep(self):
        (rt_e, _), (rt_s, _) = self.arms
        assert rt_e.engine.now == rt_s.engine.now
        assert _counters(rt_e) == _counters(rt_s)
        assert (
            rt_e.system.interconnect.counters_snapshot()
            == rt_s.system.interconnect.counters_snapshot()
        )
        assert [
            (g.counters.nvlink_bytes_in, g.counters.nvlink_bytes_out)
            for g in rt_e.system.gpus
        ] == [
            (g.counters.nvlink_bytes_in, g.counters.nvlink_bytes_out)
            for g in rt_s.system.gpus
        ]
        for gpu in range(len(rt_e.system.gpus)):
            l2_e = rt_e.system.gpus[gpu].l2
            l2_s = rt_s.system.gpus[gpu].l2
            occupancy_e = [
                l2_e.set_occupancy(s) for s in range(self.num_sets)
            ]
            occupancy_s = [
                l2_s.set_occupancy(s) for s in range(self.num_sets)
            ]
            assert occupancy_e == occupancy_s


EpochScalarEquivalence.TestCase.settings = settings(
    max_examples=12,
    stateful_step_count=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
TestEpochScalarEquivalence = EpochScalarEquivalence.TestCase


# ----------------------------------------------------------------------
# Regression: the shrunk reproducer of the span-past-the-end flake
# ----------------------------------------------------------------------
def test_burst_layouts_stay_inside_the_buffer():
    """The generator can no longer reach past a small buffer's end."""
    for lines in (4, 5):
        with pytest.raises(NoSuchExample):
            find(
                _burst_layout(lines),
                lambda layout, lines=lines: max(layout[1]) + layout[0] > lines,
                settings=settings(max_examples=300, database=None),
            )


def test_shrunk_small_buffer_reproducer():
    """Replays the falsifying example: two 4-line allocations, then one
    sequential single-group burst on the first from line 0 with span 5.

    The bounded generator now draws at most span 4 there, which must stay
    in lockstep; the overlong span-5 burst is an error path on which both
    arms raise the same TranslationError and stay in lockstep.
    """
    machine = EpochScalarEquivalence()
    machine.alloc(lines=4, home=0)
    machine.arms_in_lockstep()
    machine.alloc(lines=4, home=0)
    machine.arms_in_lockstep()
    pair, lines = machine.buffers[0]
    machine._compare_burst(
        pair, machine._burst_sets(lines, [0]), False, 1, exec_gpu=0
    )
    machine.arms_in_lockstep()
    overlong = machine._burst_sets(5, [0])
    machine._compare_error(
        [AccessEpoch((EpochBurst(buf, overlong, parallel=False),)) for buf in pair],
        exec_gpu=0,
    )
    machine.arms_in_lockstep()
    machine.teardown()
