"""In-memory spans around the program's public entry points.

The traced run of the benchmark replaces selected functions and methods of
the simulator with thin wrappers that open a span on entry and close it on
exit.  Nothing inside ``src/`` is edited and none of the program's own
telemetry hooks (``Tracer``, ``AttackMetrics``, ``EpochProfiler``) is
attached: those switch the simulator's fast paths off, so a trace taken
through them would time a different program.

A span is ``(slot, start, end, parent)``.  Self time is the span's
duration minus the part of it that its child spans cover.  Spans of a
single-threaded program nest, so the children's coverage is the sum of
their durations.  :class:`SpanRecorder` aggregates that arithmetic online
(the traced workloads open millions of spans) and can also keep every span
so tests can check the online result against :func:`self_times`.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

__all__ = [
    "Span",
    "SpanRecorder",
    "Target",
    "instrumented",
    "self_times",
]

#: ``(slot, start, end, parent index or None)``
Span = Tuple[str, float, float, Optional[int]]


def self_times(spans: Sequence[Span]) -> Dict[str, float]:
    """Self time per slot: each span's duration minus its children's."""
    own = [end - start for _slot, start, end, _parent in spans]
    for slot, start, end, parent in spans:
        if parent is not None:
            own[parent] -= end - start
    totals: Dict[str, float] = defaultdict(float)
    for (slot, _start, _end, _parent), value in zip(spans, own):
        totals[slot] += value
    return dict(totals)


class SpanRecorder:
    """Stack of open spans plus per-slot aggregates.

    ``calls[(slot, parent_slot)]`` counts spans by their nearest wrapped
    ancestor (``None`` at the root), which is how the benchmark tells a
    wide L2 burst under ``system.service_burst`` from one under
    ``system.access_batch``.  ``weights[slot]`` sums a per-call size
    (lines in a burst) for targets that declare one.
    """

    def __init__(
        self, clock: Callable[[], float] = time.perf_counter, keep_spans: bool = False
    ) -> None:
        self.clock = clock
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.weights: Counter = Counter()
        self.spans: Optional[List[Span]] = [] if keep_spans else None
        #: Summed duration of root spans (those opened with no span open).
        self.root_s = 0.0
        # Open spans: [slot, start, child coverage, span index].
        self._stack: List[list] = []

    def enter(self, slot: str) -> None:
        index = None
        if self.spans is not None:
            index = len(self.spans)
            self.spans.append((slot, 0.0, 0.0, None))
        self._stack.append([slot, self.clock(), 0.0, index])

    def leave(self) -> None:
        end = self.clock()
        slot, start, covered, index = self._stack.pop()
        duration = end - start
        self.self_s[slot] += duration - covered
        stack = self._stack
        if stack:
            parent = stack[-1]
            parent[2] += duration
            self.calls[slot, parent[0]] += 1
        else:
            parent = None
            self.calls[slot, None] += 1
            self.root_s += duration
        if index is not None:
            self.spans[index] = (
                slot, start, end, parent[3] if parent is not None else None
            )

    @contextmanager
    def span(self, slot: str) -> Iterator[None]:
        self.enter(slot)
        try:
            yield
        finally:
            self.leave()

    def count(self, slot: str, parent: Optional[str] = "*") -> int:
        """Spans of ``slot``; under one parent slot unless ``parent == "*"``."""
        return sum(
            n
            for (name, under), n in self.calls.items()
            if name == slot and (parent == "*" or under == parent)
        )


@dataclass(frozen=True)
class Target:
    """One public entry point to wrap.

    ``attr`` is ``"function"`` or ``"Class.method"`` in ``module``.  A
    function is replaced in every loaded ``repro`` module that holds it
    (callers import it by name), unless ``everywhere`` is false, in which
    case only ``module``'s own binding is replaced -- for a helper shared by
    two layers, each caller module charges its own layer.  ``generator``
    targets return generators; their wrapper times every resumption rather
    than the (instant) call.  ``weight(args)`` adds a size to
    ``recorder.weights[slot]``; ``observe(args)`` runs after the call.
    """

    slot: str
    module: str
    attr: str
    everywhere: bool = True
    generator: bool = False
    weight: Optional[Callable] = None
    observe: Optional[Callable] = None


def _wrap(func, target: Target, recorder: SpanRecorder):
    enter, leave, slot = recorder.enter, recorder.leave, target.slot
    if target.generator:

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            return _timed_generator(func(*args, **kwargs), recorder, slot)

    elif target.weight is not None or target.observe is not None:
        weigh, observe, weights = target.weight, target.observe, recorder.weights

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            enter(slot)
            try:
                result = func(*args, **kwargs)
            finally:
                leave()
            if weigh is not None:
                weights[slot] += weigh(args)
            if observe is not None:
                observe(args)
            return result

    else:

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            enter(slot)
            try:
                return func(*args, **kwargs)
            finally:
                leave()

    return wrapper


def _timed_generator(gen, recorder: SpanRecorder, slot: str):
    """Forward ``gen`` op by op, timing each resumption as one span."""
    enter, leave = recorder.enter, recorder.leave
    step, value = gen.send, None
    while True:
        enter(slot)
        try:
            op = step(value)
        except StopIteration as stop:
            return stop.value
        finally:
            leave()
        try:
            value = yield op
            step = gen.send
        except GeneratorExit:
            gen.close()
            raise
        except BaseException as exc:  # forwarded into the kernel, as unwrapped
            value, step = exc, gen.throw


def _repro_modules():
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]


@contextmanager
def instrumented(recorder: SpanRecorder, targets: Sequence[Target]) -> Iterator[None]:
    """Install wrappers for ``targets``; restore every original on exit.

    Restoration also sweeps modules imported while the wrappers were in
    place, since those bound the wrapper instead of the original.
    """
    restore: List[Tuple[object, str, object]] = []
    originals: Dict[int, Tuple[object, object]] = {}  # id -> (wrapper, original)
    try:
        for target in targets:
            module = importlib.import_module(target.module)
            if "." in target.attr:
                class_name, method = target.attr.split(".")
                owner = getattr(module, class_name)
                raw = owner.__dict__[method]
                restore.append((owner, method, raw))
                setattr(owner, method, _wrap(raw, target, recorder))
                continue
            func = getattr(module, target.attr)
            wrapped = _wrap(func, target, recorder)
            originals[id(wrapped)] = (wrapped, func)
            holders = _repro_modules() if target.everywhere else [module]
            for holder in holders:
                for name, value in list(vars(holder).items()):
                    if value is func:
                        restore.append((holder, name, func))
                        setattr(holder, name, wrapped)
        yield
    finally:
        for owner, name, original in reversed(restore):
            setattr(owner, name, original)
        for holder in _repro_modules():
            for name, value in list(vars(holder).items()):
                entry = originals.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(holder, name, entry[1])
