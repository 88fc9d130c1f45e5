"""Span arithmetic and wrapper install/restore of the traced run."""

import importlib
import itertools
import sys

import pytest

from layers import RuntimeLog, targets
from spans import SpanRecorder, Target, instrumented, self_times

# root 0..10 > a 1..4 > b 2..3 ; root > a 5..9 > c 6..8 ; root > d 9.5..9.75
NESTED = [
    ("root", 0.0, 10.0, None),
    ("a", 1.0, 4.0, 0),
    ("b", 2.0, 3.0, 1),
    ("a", 5.0, 9.0, 0),
    ("c", 6.0, 8.0, 3),
    ("d", 9.5, 9.75, 0),
]


def test_self_time_is_span_minus_child_coverage():
    got = self_times(NESTED)
    assert got == pytest.approx({"root": 2.75, "a": 4.0, "b": 1.0, "c": 2.0, "d": 0.25})
    assert sum(got.values()) == pytest.approx(10.0)


def _replay(recorder, spans):
    """Drive enter/leave in time order, as a running program would."""
    events = sorted(
        [(start, 1, index) for index, (_, start, _, _) in enumerate(spans)]
        + [(end, 0, index) for index, (_, _, end, _) in enumerate(spans)]
    )
    times = iter(t for t, _, _ in events)
    recorder.clock = lambda: next(times)
    for _time, is_start, index in events:
        if is_start:
            recorder.enter(spans[index][0])
        else:
            recorder.leave()


def test_online_aggregation_matches_span_list():
    recorder = SpanRecorder(keep_spans=True)
    _replay(recorder, NESTED)
    assert sorted(recorder.spans) == sorted(NESTED)
    assert dict(recorder.self_s) == pytest.approx(self_times(NESTED))
    assert recorder.root_s == pytest.approx(10.0)
    assert recorder.count("a") == 2
    assert recorder.count("c", parent="a") == 1
    assert recorder.count("a", parent=None) == 0


def test_timed_generator_forwards_sends_and_return_value():
    module = type(sys)("fake_kernels")

    class Kernel:
        def kernel(self, n):
            total = 0
            for _ in range(n):
                total += (yield total) or 0
            return total

    module.Kernel = Kernel
    sys.modules["fake_kernels"] = module
    try:
        recorder = SpanRecorder()
        with instrumented(recorder, [Target("k", "fake_kernels", "Kernel.kernel", generator=True)]):
            gen = Kernel().kernel(3)
            assert next(gen) == 0
            assert gen.send(5) == 5
            assert gen.send(2) == 7
            with pytest.raises(StopIteration) as stop:
                gen.send(1)
        assert stop.value.value == 8
        assert recorder.count("k") == 4
    finally:
        del sys.modules["fake_kernels"]


def _bindings():
    """Every (holder, name) -> value that a benchmark target could replace."""
    found = {}
    for target in targets(RuntimeLog()):
        module = importlib.import_module(target.module)
        if "." in target.attr:
            owner, method = target.attr.split(".")
            cls = getattr(module, owner)
            found[(cls, method)] = cls.__dict__[method]
    for name, module in list(sys.modules.items()):
        if name.startswith("repro"):
            for attr, value in vars(module).items():
                if callable(value):
                    found[(module, attr)] = value
    return found


def test_wrappers_restore_original_attributes_after_a_workload():
    from repro.experiments.report import run_experiment

    before = _bindings()
    recorder, runtimes = SpanRecorder(), RuntimeLog()
    with instrumented(recorder, targets(runtimes)):
        from repro.hw.system import MultiGPUSystem

        assert MultiGPUSystem.__dict__["service_burst"] is not before[
            (MultiGPUSystem, "service_burst")
        ]
        # A module imported while wrapped binds the wrappers; restore must
        # sweep it too.
        sys.modules.pop("repro.experiments.fig05_eviction", None)
        result = run_experiment("fig5", seed=1, small=True)
    after = _bindings()
    changed = [key for key in before if key in after and after[key] is not before[key]]
    assert changed == []
    fresh = importlib.import_module("repro.experiments.fig05_eviction")
    from repro.core import eviction

    for name, value in vars(fresh).items():
        original = getattr(eviction, name, None)
        if callable(value) and original is not None and name in vars(eviction):
            assert value is original, name
    assert recorder.count("core.discovery") > 0
    assert recorder.count("runtime.build") == len(runtimes.live) > 0
    assert result.summary()


def test_traced_run_leaves_outputs_unchanged():
    from repro.experiments.report import run_experiment

    plain = run_experiment("fig10", seed=2, small=True).summary()
    recorder = SpanRecorder()
    with instrumented(recorder, targets(RuntimeLog())):
        traced = run_experiment("fig10", seed=2, small=True).summary()
    assert traced == plain
    assert recorder.count("system.service_burst") > 0
    assert all(value >= 0.0 for value in itertools.chain(recorder.self_s.values()))
