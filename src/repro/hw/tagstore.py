"""Numpy-backed tag store: the vectorized L2 fast path's cache state.

The scalar reference model (:mod:`repro.hw.replacement`) keeps one Python
object per cache set; at memorygram scale (256-1024 monitored sets x 16
lines per probe x thousands of sweeps) the per-access dict operations
dominate the whole simulator.  :class:`LruTagStore` holds every set's tags
in one ``(num_sets, ways)`` int64 matrix plus an age matrix, and services a
whole burst of accesses with a fixed number of array operations.

Exact-LRU equivalence
---------------------

Age-stamp LRU is exactly equivalent to the reference ``LruSet`` (an
``OrderedDict`` in recency order): a line's age is the tick of its last
access, a miss fills an invalid way first and otherwise evicts the
minimum-age (least recently used) valid way.  Ages are distinct within a
set, so the resident lines sorted by age are the ``LruSet`` order.  The
differential tests in ``tests/test_vector_cache.py`` pin the two
implementations to identical hit/miss/eviction sequences and resident
orders.

One-pass bursts: segments and stack distance
--------------------------------------------

A burst is split, once and independently of cache state
(:class:`BurstPlan`), into program-order *segments* in which every
(set, tag) pair appears at most once.  A prime or probe burst -- distinct
lines of one or more eviction sets -- is a single segment.  Within a
segment, true LRU is the case where reuse (stack) distance is exact: a
line is resident iff fewer than ``ways`` distinct lines of its set were
used since its own last use.  For an access to tag ``t`` that is resident
at segment start with LRU rank ``q`` among its set's ``r`` valid lines::

    d = (r - 1 - q)                       # residents more recent than t
      + (earlier segment accesses to the set)
      - (earlier segment accesses to residents of rank > q)

counts the distinct lines above ``t`` when it is reached, so it hits iff
``d < ways``.  A tag that was not resident always misses, and so does any
access past the ``ways``-th of its set in the segment.  A miss evicts iff
the set is full by then: ``r`` plus the earlier not-resident accesses
reach ``ways`` (no line is lost before the set fills).  The set's new
contents are its ``ways`` most recent lines: untouched residents keep
their ages, and the segment's tags are stamped ``tick + column`` in
program order.  When every accessed tag is resident -- a warm probe sweep
-- all accesses hit and only the ages change.

Way positions may compact across a burst; they are never observable, only
residency and recency order are.

Only true LRU is vectorized -- the policy the paper reverse-engineers on
the P100 ("evicted consistently after the 16th address", Fig 5).  The
pLRU/random ablation policies stay on the scalar reference path.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

__all__ = ["LruTagStore", "BurstPlan"]

_INVALID = -1


class _Segment:
    """State-independent layout of one segment (distinct (set, tag) pairs).

    ``head``/``tail`` are ``(sets, k)`` matrices of access indices -- the
    first and last ``min(count, ways)`` accesses of each touched set --
    padded with the sentinel index ``n``, which the kernel maps to "no
    access".  Only an access among the first ``ways`` of its set can hit,
    and only the last ``ways`` can stay resident, so nothing wider is
    ever needed.
    """

    __slots__ = (
        "start", "stop", "rows", "wanted", "cols", "uset", "inv", "nth",
        "head", "earlier", "tail",
    )

    def __init__(
        self, start: int, stop: int, rows: np.ndarray, wanted: np.ndarray,
        ways: int,
    ) -> None:
        n = rows.size
        self.start = start
        self.stop = stop
        self.rows = rows
        self.wanted = wanted
        self.cols = cols = np.arange(n, dtype=np.int64)
        # Group the accesses by set (program order within a set).
        order = np.argsort(rows, kind="stable")
        grouped = rows[order]
        new_set = np.empty(n, dtype=bool)
        new_set[0] = True
        np.not_equal(grouped[1:], grouped[:-1], out=new_set[1:])
        firsts = np.flatnonzero(new_set)
        self.uset = grouped[firsts]
        counts = np.diff(firsts, append=n)
        self.inv = np.empty(n, dtype=np.int64)
        self.inv[order] = np.cumsum(new_set) - 1
        # nth: how many earlier accesses of the segment share the set.
        self.nth = nth = np.empty(n, dtype=np.int64)
        nth[order] = cols - np.repeat(firsts, counts)
        width = min(int(counts.max()), ways)
        self.earlier = cols[:width] < nth[:, None]
        self.head = np.full((self.uset.size, width), n, dtype=np.int64)
        first = nth < width
        self.head[self.inv[first], nth[first]] = cols[first]
        self.tail = np.full((self.uset.size, width), n, dtype=np.int64)
        from_end = counts[self.inv] - 1 - nth
        last = from_end < width
        self.tail[self.inv[last], from_end[last]] = cols[last]


class BurstPlan:
    """The segment split of one access stream, reusable across sweeps.

    Depends only on the (set, tag) layout of the stream and the cache's
    ``ways``, so a caller replaying the same stream every sweep (a prober
    epoch) builds it once and hands it to
    :meth:`LruTagStore.access_lines_planned`.
    """

    __slots__ = ("count", "segments")

    def __init__(
        self, set_indices: np.ndarray, tags: np.ndarray, num_sets: int, ways: int
    ) -> None:
        self.count = n = int(set_indices.size)
        set_indices = np.asarray(set_indices, dtype=np.int64)
        tags = np.asarray(tags, dtype=np.int64)
        bounds = [0]
        if n:
            # A segment ends just before the first access whose (set, tag)
            # pair already occurred inside it (greedy, so segments are as
            # long as possible).  The stable sort lists repeats of one
            # pair in program order.
            keys = tags * num_sets + set_indices
            order = np.argsort(keys, kind="stable")
            sorted_keys = keys[order]
            repeat = np.nonzero(sorted_keys[1:] == sorted_keys[:-1])[0]
            if repeat.size:
                later = order[repeat + 1]
                by_later = np.argsort(later)
                start = 0
                for at, before in zip(
                    later[by_later].tolist(), order[repeat][by_later].tolist()
                ):
                    if before >= start:
                        bounds.append(at)
                        start = at
            bounds.append(n)
        self.segments = [
            _Segment(lo, hi, set_indices[lo:hi], tags[lo:hi], ways)
            for lo, hi in zip(bounds[:-1], bounds[1:])
        ]


class LruTagStore:
    """All cache sets of one L2 as flat matrices, with batched access.

    Validity is encoded in the tag matrix itself: real tags are physical
    addresses shifted right, hence always >= 0, so ``_INVALID`` (-1) can
    never collide with a resident line.
    """

    __slots__ = ("num_sets", "ways", "_tags", "_age", "_tick")

    def __init__(self, num_sets: int, ways: int) -> None:
        self.num_sets = num_sets
        self.ways = ways
        self._tags = np.full((num_sets, ways), _INVALID, dtype=np.int64)
        self._age = np.zeros((num_sets, ways), dtype=np.int64)
        self._tick = 1

    # ------------------------------------------------------------------
    # Batched access (the fast path)
    # ------------------------------------------------------------------
    def plan(self, set_indices: np.ndarray, tags: np.ndarray) -> BurstPlan:
        """The :class:`BurstPlan` of one access stream for this geometry."""
        return BurstPlan(set_indices, tags, self.num_sets, self.ways)

    def access_lines(
        self, set_indices: np.ndarray, tags: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Lookup-and-fill a batch of lines in order; returns masks.

        ``set_indices`` and ``tags`` are parallel int64 arrays, one entry
        per access, in program order.  Returns ``(hits, evictions)`` bool
        arrays: whether each access hit, and whether it evicted a valid
        line (a fill into an invalid way is a miss without an eviction).
        """
        return self.access_lines_planned(self.plan(set_indices, tags))

    def access_lines_planned(self, plan: BurstPlan) -> Tuple[np.ndarray, np.ndarray]:
        """:meth:`access_lines` over a precomputed :class:`BurstPlan`.

        State transitions are identical to the unplanned call over the
        same stream; only the state-independent layout is hoisted out.
        """
        hits = np.zeros(plan.count, dtype=bool)
        evictions = np.zeros(plan.count, dtype=bool)
        for segment in plan.segments:
            self._access_segment(segment, hits, evictions)
        return hits, evictions

    def _access_segment(
        self, seg: _Segment, hits: np.ndarray, evictions: np.ndarray
    ) -> None:
        """Service one segment in a single closed-form pass."""
        ways = self.ways
        tick = self._tick
        n = seg.cols.size
        self._tick = tick + n
        stamps = tick + seg.cols
        tags = self._tags[seg.uset]
        match = tags[seg.inv] == seg.wanted[:, None]
        way = match.argmax(axis=1)
        resident = match[seg.cols, way]
        if resident.all():
            # Warm sweep: every access hits, nothing moves but the ages.
            hits[seg.start : seg.stop] = True
            self._age[seg.rows, way] = stamps
            return
        valid = tags != _INVALID
        ages = np.where(valid, self._age[seg.uset], -1)
        # Old age of each accessed line, -1 when it was not resident; the
        # sentinel slot n lets head/tail padding read "no access".
        own = np.full(n + 1, -1, dtype=np.int64)
        own[:n][resident] = ages[seg.inv[resident], way[resident]]
        mine = own[:n, None]
        above = (ages[seg.inv] > mine).sum(axis=1)
        earlier_ages = own[seg.head][seg.inv]
        skipped = (seg.earlier & (earlier_ages > mine)).sum(axis=1)
        # Stack distance (module docstring): the residents above the line,
        # plus the set's earlier accesses, less those already above it.
        hit = resident & (above + seg.nth - skipped < ways)
        hits[seg.start : seg.stop] = hit
        cold_before = (seg.earlier & (earlier_ages < 0)).sum(axis=1)
        # Past its set's first ``ways`` accesses ``cold_before`` covers only
        # the head, but residents plus those head misses already fill it.
        full = valid.sum(axis=1)[seg.inv] + cold_before >= ways
        evictions[seg.start : seg.stop] = full & ~hit
        # New rows: the ``ways`` most recent of the untouched residents and
        # the segment's own lines.
        kept = valid.copy()
        kept[seg.inv[resident], way[resident]] = False
        fresh_ages = np.append(stamps, -1)[seg.tail]
        fresh_tags = np.append(seg.wanted, _INVALID)[seg.tail]
        cand_ages = np.concatenate((np.where(kept, ages, -1), fresh_ages), axis=1)
        cand_tags = np.concatenate((np.where(kept, tags, _INVALID), fresh_tags), axis=1)
        top = np.argsort(cand_ages, axis=1)[:, -ways:]
        self._tags[seg.uset] = np.take_along_axis(cand_tags, top, axis=1)
        self._age[seg.uset] = np.take_along_axis(cand_ages, top, axis=1)

    # ------------------------------------------------------------------
    # Scalar access (kept for the single-word path and maintenance ops)
    # ------------------------------------------------------------------
    def access_one(self, set_index: int, tag: int) -> Tuple[bool, Optional[int]]:
        """One lookup-and-fill; returns ``(hit, evicted_tag_or_None)``.

        Works on a plain-Python copy of the (small) set row: list scans
        are several times cheaper than the equivalent numpy reductions at
        ``ways``-sized operands, which matters for scalar-access-heavy
        kernels (victim workloads, reverse-engineering probes).
        """
        row = self._tags[set_index]
        tag_list = row.tolist()
        tick = self._tick
        self._tick = tick + 1
        try:
            way = tag_list.index(tag)
            self._age[set_index, way] = tick
            return True, None
        except ValueError:
            pass
        evicted: Optional[int] = None
        try:
            way = tag_list.index(_INVALID)
        except ValueError:
            ages = self._age[set_index].tolist()
            way = min(range(self.ways), key=ages.__getitem__)
            evicted = tag_list[way]
        row[way] = tag
        self._age[set_index, way] = tick
        return False, evicted

    def contains(self, set_index: int, tag: int) -> bool:
        return tag in self._tags[set_index].tolist()

    def invalidate(self, set_index: int, tag: int) -> bool:
        try:
            way = self._tags[set_index].tolist().index(tag)
        except ValueError:
            return False
        self._tags[set_index, way] = _INVALID
        return True

    def resident_tags(self, set_index: int) -> List[int]:
        """Resident tags in LRU-to-MRU order (matches ``LruSet``)."""
        row = self._tags[set_index]
        ways = np.nonzero(row != _INVALID)[0]
        ordered = ways[np.argsort(self._age[set_index, ways], kind="stable")]
        return [int(t) for t in row[ordered]]

    def occupancy(self, set_index: int) -> int:
        return int((self._tags[set_index] != _INVALID).sum())

    def reset(self) -> None:
        self._tags.fill(_INVALID)
        self._age.fill(0)
        self._tick = 1
