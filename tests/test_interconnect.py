"""NVLink occupancy, lanes, multi-hop penalty; HBM channels; counters."""

import numpy as np
import pytest

from repro.config import DGXSpec, LinkSpec
from repro.hw.counters import GpuCounters
from repro.hw.dram import HBMStack
from repro.hw.interconnect import Interconnect
from repro.hw.topology import Topology


def make_icx(num_gpus=8, lanes=2):

    spec = DGXSpec(
        num_gpus=num_gpus,
        nvlink=LinkSpec(lanes=lanes),
    )
    topo = Topology(spec)
    return spec, Interconnect(spec, topo)


class TestInterconnect:
    def test_same_gpu_is_free(self):
        _spec, icx = make_icx()
        assert icx.transfer(3, 3, now=0.0) == (0.0, 0)

    def test_single_hop_no_queue_no_extra(self):
        _spec, icx = make_icx()
        extra, hops = icx.transfer(0, 1, now=0.0)
        assert hops == 1 and extra == 0.0

    def test_two_hop_pays_per_hop_penalty(self):
        spec, icx = make_icx()
        extra, hops = icx.transfer(0, 5, now=0.0)
        assert hops == 2
        assert extra == pytest.approx(spec.timing.per_extra_hop)

    def test_burst_queues_after_lanes_fill(self):
        spec, icx = make_icx(lanes=2)
        waits = [icx.transfer(0, 1, now=0.0)[0] for _ in range(6)]
        assert waits[0] == 0.0 and waits[1] == 0.0  # two lanes
        assert waits[2] > 0.0
        assert waits[5] > waits[3]

    def test_lanes_relieve_contention(self):
        _s1, one_lane = make_icx(lanes=1)
        _s2, two_lanes = make_icx(lanes=2)
        wait_one = [one_lane.transfer(0, 1, 0.0)[0] for _ in range(4)][-1]
        wait_two = [two_lanes.transfer(0, 1, 0.0)[0] for _ in range(4)][-1]
        assert wait_two < wait_one

    def test_reset_clears_queues(self):
        _spec, icx = make_icx()
        for _ in range(5):
            icx.transfer(0, 1, 0.0)
        icx.reset()
        assert icx.transfer(0, 1, 0.0)[0] == 0.0

    def test_link_busy_until_reports_busy(self):
        _spec, icx = make_icx()
        icx.transfer(0, 1, 0.0)
        busy = icx.link_busy_until()
        assert busy[frozenset((0, 1))] > 0.0

    def test_windowed_utilization_fraction(self):
        spec, icx = make_icx(lanes=2)
        n, window = 10, 1000.0
        for i in range(n):
            icx.transfer(0, 1, now=float(i))
        expected = n * spec.nvlink.serialization_cycles / (window * 2)
        assert icx.utilization(window)[frozenset((0, 1))] == pytest.approx(expected)
        assert icx.utilization(window)[frozenset((2, 3))] == 0.0

    def test_windowed_utilization_since_snapshot(self):
        spec, icx = make_icx(lanes=2)
        for i in range(20):
            icx.transfer(0, 1, now=float(i))
        snapshot = icx.busy_cycles()
        icx.transfer(0, 1, now=100.0)
        window = 500.0
        windowed = icx.utilization(window, since=snapshot)
        assert windowed[frozenset((0, 1))] == pytest.approx(
            spec.nvlink.serialization_cycles / (window * 2)
        )

    def test_windowed_utilization_clips_to_one(self):
        _spec, icx = make_icx(lanes=2)
        for _ in range(100):
            icx.transfer(0, 1, now=0.0)
        assert icx.utilization(10.0)[frozenset((0, 1))] == 1.0

    def test_counters_snapshot_keys_and_totals(self):
        _spec, icx = make_icx()
        for _ in range(4):
            icx.transfer(0, 1, 0.0)
        snapshot = icx.counters_snapshot()
        assert snapshot["link0-1:transfers"] == 4
        assert snapshot["link0-1:busy_cycles"] > 0
        assert snapshot["link0-1:queued_cycles"] > 0
        icx.reset()
        assert icx.counters_snapshot()["link0-1:transfers"] == 0


class _RecordingTracer:
    def __init__(self):
        self.events = []

    def emit(self, name, category, ts, dur=0.0, gpu=None, args=None):
        self.events.append((name, ts, dur, args))


class TestBatchDifferential:
    """transfer_batch must be cycle-equivalent to sequential transfer."""

    def _pair(self):
        spec = DGXSpec.dgx1().with_topology("ring")
        topo = Topology(spec)
        return topo, Interconnect(spec, topo), Interconnect(spec, topo)

    @pytest.mark.parametrize("dst,hops", [(1, 1), (2, 2), (3, 3)])
    def test_batch_matches_sequential(self, dst, hops):
        topo, batched, sequential = self._pair()
        assert topo.hops(0, dst) == hops
        stamps = np.array([0.0, 0.0, 3.0, 3.0, 7.0, 40.0, 41.0, 200.0])
        batch_extras = batched.transfer_batch(0, dst, stamps)
        seq_extras = [sequential.transfer(0, dst, t)[0] for t in stamps]
        assert np.allclose(batch_extras, seq_extras)
        # Final lane reservations agree per link (order-insensitive).
        for edge in topo.path(0, dst):
            assert sorted(batched._busy[edge]) == pytest.approx(
                sorted(sequential._busy[edge])
            )
        # And so do the per-link counters.
        for edge in topo.path(0, dst):
            assert batched._transfers[edge] == sequential._transfers[edge]
            assert batched._busy_cycles[edge] == pytest.approx(
                sequential._busy_cycles[edge]
            )
            assert batched._queued_cycles[edge] == pytest.approx(
                sequential._queued_cycles[edge]
            )

    def test_batch_emits_per_hop_stall_events(self):
        topo, batched, _ = self._pair()
        tracer = _RecordingTracer()
        batched.tracer = tracer
        # Pre-busy the 3-hop route's later links so every hop queues.
        batched.transfer_batch(1, 2, np.zeros(8))
        batched.transfer_batch(2, 3, np.zeros(16))
        tracer.events.clear()
        batched.transfer_batch(0, 3, np.zeros(6))
        stalls = [e for e in tracer.events if e[0] == "nvlink_stall_batch"]
        route = topo.path(0, 3)
        seen_hops = sorted(args["hop"] for _, _, _, args in stalls)
        assert seen_hops == sorted(set(seen_hops))  # one event per hop
        assert set(seen_hops) == {0, 1, 2}
        for _name, ts, dur, args in stalls:
            assert dur > 0.0
            assert args["transfers"] == 6
            assert args["hops"] == 3
            a, b = args["link"]
            assert frozenset((a, b)) == route[args["hop"]]
            assert ts >= 0.0


class TestHBM:
    def test_queueing_on_same_channel(self):
        hbm = HBMStack(num_channels=4, service_cycles=10.0)
        assert hbm.occupy(0, now=0.0) == 0.0
        assert hbm.occupy(0, now=0.0) == pytest.approx(10.0)

    def test_different_channels_independent(self):
        hbm = HBMStack(num_channels=4, service_cycles=10.0)
        hbm.occupy(0, now=0.0)
        assert hbm.occupy(256, now=0.0) == 0.0

    def test_reset(self):
        hbm = HBMStack()
        hbm.occupy(0, 0.0)
        hbm.reset()
        assert hbm.occupy(0, 0.0) == 0.0


class TestCounters:
    def test_snapshot_delta(self):
        counters = GpuCounters()
        before = counters.snapshot()
        counters.l2_hits += 5
        counters.l2_misses += 3
        delta = counters.delta_from(before)
        assert delta["l2_hits"] == 5 and delta["l2_misses"] == 3

    def test_miss_rate(self):
        counters = GpuCounters(l2_hits=6, l2_misses=2)
        assert counters.l2_accesses == 8
        assert counters.l2_miss_rate == pytest.approx(0.25)

    def test_miss_rate_empty(self):
        assert GpuCounters().l2_miss_rate == 0.0
