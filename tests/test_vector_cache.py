"""Differential tests pinning the vectorized L2 backend to the scalar one.

The vectorized fast path (``repro.hw.tagstore`` + ``VectorL2Cache`` +
the batched service core in ``MultiGPUSystem``) must be *semantically
identical* to the scalar reference: same hits, same evictions, same
counter totals, bit-for-bit identical cache state.  At system level the
latencies are bitwise equal too -- every core assembles them with the
reference loop's expressions in the reference order -- so they are
compared exactly.
"""

import random
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import Phase, find, given, settings
from hypothesis import strategies as st

from repro.config import CacheSpec, DGXSpec
from repro.hw.cache import L2Cache, VectorL2Cache, make_l2
from repro.hw.occupancy import multi_server_waits, single_server_waits
from repro.hw.replacement import make_set
from repro.hw.tagstore import LruTagStore
from repro.runtime.api import Runtime
from repro.sim.ops import Access, ProbeEpoch, ProbeSet


# ----------------------------------------------------------------------
# Unit level: occupancy queue helpers vs brute-force loops
# ----------------------------------------------------------------------
def _single_ref(busy, stamps, service):
    waits = []
    for stamp in stamps:
        wait = busy - stamp if busy > stamp else 0.0
        busy = stamp + wait + service
        waits.append(wait)
    return waits, busy


def _multi_ref(lanes, stamps, service):
    lanes = list(lanes)
    waits = []
    for stamp in stamps:
        lane = min(range(len(lanes)), key=lambda i: lanes[i])
        wait = lanes[lane] - stamp if lanes[lane] > stamp else 0.0
        lanes[lane] = stamp + wait + service
        waits.append(wait)
    return waits, sorted(lanes)


def test_single_server_waits_matches_reference_loop():
    rng = random.Random(11)
    for _ in range(200):
        n = rng.randrange(1, 40)
        service = rng.choice([1.0, 4.0, 7.5])
        busy = rng.uniform(0.0, 60.0)
        stamps = np.cumsum([rng.uniform(0.0, 12.0) for _ in range(n)])
        waits, busy_end = single_server_waits(busy, stamps, service)
        ref_waits, ref_end = _single_ref(busy, stamps.tolist(), service)
        assert np.allclose(waits, ref_waits)
        assert busy_end == pytest.approx(ref_end)


def test_multi_server_waits_matches_least_busy_lane_loop():
    rng = random.Random(13)
    for _ in range(300):
        num_lanes = rng.randrange(1, 5)
        n = rng.randrange(1, 40)
        service = rng.choice([2.0, 8.0, 13.0])
        lanes = np.array(sorted(rng.uniform(0.0, 80.0) for _ in range(num_lanes)))
        stamps = np.cumsum([rng.uniform(0.0, 10.0) for _ in range(n)])
        waits, new_lanes = multi_server_waits(lanes.copy(), stamps, service)
        ref_waits, ref_lanes = _multi_ref(lanes.tolist(), stamps.tolist(), service)
        assert np.allclose(waits, ref_waits)
        assert np.allclose(new_lanes, ref_lanes)


# ----------------------------------------------------------------------
# Unit level: LruTagStore vs the scalar LruSet, interleaved batch/scalar
# ----------------------------------------------------------------------
def test_tagstore_matches_lru_sets():
    num_sets, ways = 8, 4
    rng = random.Random(17)
    generator = np.random.default_rng(17)
    for _trial in range(25):
        store = LruTagStore(num_sets, ways)
        sets = [make_set("lru", ways, generator) for _ in range(num_sets)]
        for _step in range(30):
            action = rng.random()
            if action < 0.6:  # batched access
                count = rng.randrange(1, 12)
                set_idx = np.array([rng.randrange(num_sets) for _ in range(count)])
                tags = np.array([rng.randrange(10) for _ in range(count)])
                hits, evictions = store.access_lines(set_idx, tags)
                for at, (s, t) in enumerate(zip(set_idx, tags)):
                    hit, evicted = sets[s].access(int(t))
                    assert bool(hits[at]) == hit
                    assert bool(evictions[at]) == (evicted is not None)
            elif action < 0.85:  # scalar access
                s, t = rng.randrange(num_sets), rng.randrange(10)
                hit, evicted = store.access_one(s, t)
                ref_hit, ref_evicted = sets[s].access(t)
                assert hit == ref_hit and evicted == ref_evicted
            else:  # invalidate
                s, t = rng.randrange(num_sets), rng.randrange(10)
                assert store.invalidate(s, t) == sets[s].invalidate(t)
        for s in range(num_sets):
            assert store.resident_tags(s) == sets[s].resident_tags()


# ----------------------------------------------------------------------
# Unit level: the one-pass burst kernel vs LruSet, under hypothesis
# ----------------------------------------------------------------------
@st.composite
def _lru_scripts(draw):
    """A tag-store geometry plus a script of bursts and scalar ops.

    Tags come from a pool of ``2 * ways + 1`` per set, so bursts repeat
    (set, tag) pairs (several segments) and overflow sets (evictions);
    ``invalidate`` leaves holes, and ``replay`` re-issues the previous
    burst, the prime-then-probe pattern behind all-resident bursts.
    """
    ways = draw(st.sampled_from([1, 2, 4, 16]), label="ways")
    num_sets = draw(st.integers(1, 3), label="num_sets")
    line = st.tuples(st.integers(0, num_sets - 1), st.integers(0, 2 * ways))
    step = st.one_of(
        st.tuples(
            st.just("burst"),
            # Draw the width first: plain ``lists`` rarely grows past
            # ``2 * ways`` lines at 16 ways.
            st.integers(1, 4 * ways + 4).flatmap(
                lambda width: st.lists(line, min_size=width, max_size=width)
            ),
        ),
        st.tuples(st.just("replay"), st.none()),
        st.tuples(st.just("one"), line),
        st.tuples(st.just("invalidate"), line),
    )
    return ways, num_sets, draw(st.lists(step, min_size=1, max_size=10), label="steps")


def _run_script(script, check=True):
    """Replay ``script`` on ``LruSet`` references and, with ``check``, on an
    ``LruTagStore`` in lockstep, asserting that hits, eviction flags, later
    evicted tags and every set's resident LRU order agree after each step.

    Returns ``(width, segments, all_hit)`` for every burst.
    """
    ways, num_sets, steps = script
    store = LruTagStore(num_sets, ways)
    refs = [make_set("lru", ways, np.random.default_rng(0)) for _ in range(num_sets)]
    facts = []
    last = None
    for kind, arg in steps:
        if kind == "replay":
            kind, arg = "burst", last
        if kind == "burst" and arg is not None:
            last = arg
            sets, tags = np.array(arg).T
            plan = store.plan(sets, tags)
            expected = [refs[s].access(t) for s, t in arg]
            ref_hits = [hit for hit, _ in expected]
            facts.append((len(arg), len(plan.segments), all(ref_hits)))
            if check:
                hits, evictions = store.access_lines_planned(plan)
                assert hits.tolist() == ref_hits
                assert evictions.tolist() == [ev is not None for _, ev in expected]
        elif kind == "one":
            expected = refs[arg[0]].access(arg[1])
            if check:
                assert store.access_one(*arg) == expected
        elif kind == "invalidate":
            expected = refs[arg[0]].invalidate(arg[1])
            if check:
                assert store.invalidate(*arg) == expected
        if check:
            for s in range(num_sets):
                assert store.resident_tags(s) == refs[s].resident_tags()
    return facts


@settings(deadline=None)
@given(_lru_scripts())
def test_burst_kernel_matches_lru_sets(script):
    _run_script(script)


def test_lru_scripts_reach_every_kernel_branch():
    """The generator reaches wide multi-segment bursts at the paper's 16
    ways and all-resident bursts (the kernel's shortcut), so the property
    above covers both.  Generation only: shrinking 30-line witnesses
    would cost minutes."""
    search = settings(max_examples=2000, database=None, phases=[Phase.generate])
    wide = find(
        _lru_scripts(),
        lambda script: script[0] == 16
        and any(
            width > 2 * 16 and segments > 1
            for width, segments, _ in _run_script(script, check=False)
        ),
        settings=search,
    )
    warm = find(
        _lru_scripts(),
        lambda script: any(
            width > 1 and all_hit
            for width, _, all_hit in _run_script(script, check=False)
        ),
        settings=search,
    )
    # The witnesses pass the lockstep check too.
    _run_script(wide)
    _run_script(warm)


# ----------------------------------------------------------------------
# Backend construction
# ----------------------------------------------------------------------
def _cache_spec(**overrides):
    base = CacheSpec(num_sets=16, associativity=4, num_banks=8)
    return replace(base, **overrides) if overrides else base


def test_make_l2_selects_backend_by_flag():
    rng = np.random.default_rng(0)
    assert isinstance(make_l2(_cache_spec(), rng), VectorL2Cache)
    assert type(make_l2(_cache_spec(l2_backend="scalar"), rng)) is L2Cache


def test_make_l2_falls_back_to_scalar_for_non_lru():
    rng = np.random.default_rng(0)
    cache = make_l2(_cache_spec(replacement="plru"), rng)
    assert type(cache) is L2Cache


def test_vector_cache_rejects_non_lru():
    with pytest.raises(ValueError):
        VectorL2Cache(_cache_spec(replacement="random"), np.random.default_rng(0))


def test_l2_backend_flag_validated():
    with pytest.raises(Exception):
        _cache_spec(l2_backend="turbo")


def _eviction_pattern(cache, spec):
    evicted = []
    for i in range(3 * spec.associativity):
        paddr = i * spec.num_sets * spec.line_size  # set 0, distinct tags
        outcome = cache.access(paddr, float(i))
        if outcome.evicted_tag is not None:
            evicted.append(outcome.evicted_tag)
    return evicted


def test_invalidate_all_keeps_seeded_replacement_stream():
    """After invalidate_all, random-policy eviction choices must follow the
    cache's own seeded generator, not a fixed fresh default_rng(0)."""
    spec = _cache_spec(replacement="random")
    one = L2Cache(spec, np.random.default_rng(1))
    two = L2Cache(spec, np.random.default_rng(2))
    twin = L2Cache(spec, np.random.default_rng(1))
    for cache in (one, two, twin):
        cache.invalidate_all()
    assert _eviction_pattern(one, spec) == _eviction_pattern(twin, spec)
    assert _eviction_pattern(one, spec) != _eviction_pattern(two, spec)


# ----------------------------------------------------------------------
# System level: random traces through both backends must agree
# ----------------------------------------------------------------------
def _twin_runtimes(seed, hashed):
    spec = DGXSpec.small(num_sets=64, associativity=4)
    if hashed:
        cache = replace(spec.gpu.cache, index_hashing=True)
        spec = replace(spec, gpu=replace(spec.gpu, cache=cache))
    vec = Runtime(spec.with_l2_backend("vectorized"), seed=seed)
    ref = Runtime(spec.with_l2_backend("scalar"), seed=seed)
    assert isinstance(vec.system.gpus[0].l2, VectorL2Cache)
    assert type(ref.system.gpus[0].l2) is L2Cache
    return vec, ref


def _random_batches(rng, num_lines, wpl, total_batches):
    batches = []
    for _ in range(total_batches):
        # Up to 63 lines the router takes the fused small core.  Wider
        # batches draw distinct lines -- one tag-store segment -- so they
        # reach the wide core (WIDE_BURST lines per segment).
        size = rng.choice([1, 1, 4, 8, 16, 24, 32, 48, 63, 64, 96, 130])
        if size < 64:
            lines = [rng.randrange(num_lines) for _ in range(size)]
        else:
            lines = rng.sample(range(num_lines), size)
        batches.append([line * wpl for line in lines])
    return batches


def _trace_kernel(buf, batches, parallel, out):
    for batch in batches:
        if len(batch) == 1:
            result = yield Access(buf, batch[0])
            out.append(([result.latency], [result.hit]))
        else:
            probe = yield ProbeSet(buf, batch, parallel=parallel)
            out.append((list(probe.latencies), list(probe.hits)))


def _run_trace(rt, remote, parallel, batches, num_lines):
    proc = rt.create_process()
    exec_gpu = 1 if remote else 0
    if remote:
        rt.enable_peer_access(proc, exec_gpu, 0)
    buf = rt.malloc_lines(proc, 0, num_lines)
    out = []
    rt.run_kernel(_trace_kernel(buf, batches, parallel, out), exec_gpu, proc)
    home = rt.system.gpus[0]
    resident = [
        home.l2.probe_line(buf.paddr(i * (rt.system.spec.gpu.cache.line_size // 8)))
        for i in range(num_lines)
    ]
    return out, home.counters, resident


@pytest.mark.parametrize("remote", [False, True], ids=["local", "remote"])
@pytest.mark.parametrize("parallel", [True, False], ids=["parallel", "sequential"])
@pytest.mark.parametrize("hashed", [False, True], ids=["plain", "hashed"])
def test_random_trace_backends_agree(remote, parallel, hashed):
    vec, ref = _twin_runtimes(seed=5, hashed=hashed)
    num_lines = 3 * 64 * 4  # 3x the cache's line capacity
    wpl = vec.system.spec.gpu.cache.line_size // 8
    batches = _random_batches(random.Random(23), num_lines, wpl, 40)

    vec_out, vec_counters, vec_resident = _run_trace(
        vec, remote, parallel, batches, num_lines
    )
    ref_out, ref_counters, ref_resident = _run_trace(
        ref, remote, parallel, batches, num_lines
    )

    assert len(vec_out) == len(ref_out) == len(batches)
    for (v_lat, v_hit), (r_lat, r_hit) in zip(vec_out, ref_out):
        assert v_hit == r_hit
        assert v_lat == r_lat
    # Discrete state and counters must match exactly.
    assert vec_resident == ref_resident
    assert vec_counters.l2_hits == ref_counters.l2_hits
    assert vec_counters.l2_misses == ref_counters.l2_misses
    assert vec_counters.l2_evictions == ref_counters.l2_evictions
    assert vec_counters.dram_reads == ref_counters.dram_reads
    assert vec_counters.remote_requests_in == ref_counters.remote_requests_in
    assert vec_counters.nvlink_bytes_out == ref_counters.nvlink_bytes_out


@pytest.mark.parametrize("parallel", [True, False], ids=["parallel", "sequential"])
def test_probe_epoch_backends_agree(parallel):
    vec, ref = _twin_runtimes(seed=9, hashed=False)
    wpl = vec.system.spec.gpu.cache.line_size // 8
    rng = random.Random(31)
    num_lines = 256
    sets = [
        [rng.randrange(num_lines) * wpl for _ in range(rng.choice([0, 4, 8, 16]))]
        for _ in range(12)
    ]

    def epoch_kernel(buf, out):
        epoch = yield ProbeEpoch(buf, sets, parallel=parallel)
        out.append(epoch)

    results = []
    for rt in (vec, ref):
        proc = rt.create_process()
        rt.enable_peer_access(proc, 1, 0)
        buf = rt.malloc_lines(proc, 0, num_lines)
        out = []
        rt.run_kernel(epoch_kernel(buf, out), 1, proc)
        results.append(out[0])

    vec_epoch, ref_epoch = results
    assert vec_epoch.set_hits == ref_epoch.set_hits
    assert vec_epoch.num_sets == ref_epoch.num_sets == 12
    assert vec_epoch.set_latencies == ref_epoch.set_latencies
    assert vec_epoch.set_starts == ref_epoch.set_starts
    assert vec_epoch.set_totals == ref_epoch.set_totals
    assert vec_epoch.total_latency == ref_epoch.total_latency
    assert vec_epoch.remote and ref_epoch.remote


def test_epoch_equivalent_to_concatenated_probe_sets():
    """In sequential mode an epoch's cache-state effect equals running the
    same sets as back-to-back atomic ProbeSets."""
    spec = DGXSpec.small(num_sets=64, associativity=4)
    one = Runtime(spec, seed=4)
    two = Runtime(spec, seed=4)
    wpl = spec.gpu.cache.line_size // 8
    sets = [[(8 * s + i) * wpl for i in range(8)] for s in range(6)]

    def epoch_kernel(buf):
        epoch = yield ProbeEpoch(buf, sets, parallel=False)
        return epoch

    def probes_kernel(buf):
        probes = []
        for indices in sets:
            probe = yield ProbeSet(buf, indices, parallel=False)
            probes.append(probe)
        return probes

    proc1 = one.create_process()
    buf1 = one.malloc_lines(proc1, 0, 64)
    epoch = one.run_kernel(epoch_kernel(buf1), 0, proc1)
    proc2 = two.create_process()
    buf2 = two.malloc_lines(proc2, 0, 64)
    probes = two.run_kernel(probes_kernel(buf2), 0, proc2)

    for at, probe in enumerate(probes):
        assert tuple(probe.hits) == epoch.set_hits[at]
    assert one.system.gpus[0].counters.l2_misses == (
        two.system.gpus[0].counters.l2_misses
    )
