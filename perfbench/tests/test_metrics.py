"""Metric names, the BENCHMARK.json contract, and the output checks."""

import json
import re
from pathlib import Path

from layers import PER_LAYER
from run import END_TO_END, check
from workloads import WORKLOADS, Iteration, Outcome, split_sections

BENCHMARK = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_every_metric_name_and_unit_is_well_formed():
    names = [name for name, _ in END_TO_END + PER_LAYER]
    assert len(names) == len(set(names))
    for name, unit in END_TO_END + PER_LAYER:
        assert NAME.match(name), name
        assert UNIT.match(unit), unit


def test_benchmark_json_lists_what_the_code_reports():
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] == list(PER_LAYER)
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    setup = next(m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])


def test_split_sections_keeps_only_successful_experiments():
    report = "\n".join([
        "SPY IN THE GPU-BOX -- full evaluation report", "(seed 0, scaled-down box)", "",
        "== fig4: timing ==", "row", "[fig4 ok]", "",
        "== fig5: FAILED ==", "error: boom", "[fig5 failed in 0.1s after 1 attempt(s)]", "",
        "== fig6: aliasing ==", "row 2", "[fig6 ok]", "",
    ])
    sections = split_sections(report)
    assert set(sections) == {"fig4", "fig6"}
    assert sections == {"fig4": "== fig4: timing ==\nrow", "fig6": "== fig6: aliasing ==\nrow 2"}


def test_check_counts_raised_mismatched_and_missing_experiments():
    good = Outcome("a", 1.0, summary="same")
    golden = {"a": good.digest(), "b": "x", "c": "y", "d": "z"}
    iteration = Iteration(wall=1.0, outcomes=[
        good,
        Outcome("b", 1.0, summary="different"),
        Outcome("c", 1.0, error="RuntimeError()"),
    ])
    attempted, failed, problems = check(iteration, golden)
    assert (attempted, failed) == (4, 3)
    assert [p.split(":")[0] for p in problems] == ["b", "c", "d"]
