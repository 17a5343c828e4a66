"""The reducer of scripts/bench_pair.py on canned benchmark output; nothing is run."""
import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pair.py"
_spec = importlib.util.spec_from_file_location("bench_pair", SCRIPT)
bench_pair = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pair)

END_TO_END = [
    {"name": "job_p50_ms", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "items_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
]


def canned(p50, rate, failed=0, correct=True):
    """What perfbench/run.py prints: a DETAIL line, then the result line."""
    result = {"correct": correct, "attempted": 100, "failed": failed,
              "metrics": {"job_p50_ms": {"value": p50, "unit": "ms"},
                          "items_per_s": {"value": rate, "unit": "1/s"}}}
    return 'DETAIL {"passes": 3}\n' + json.dumps(result) + "\n"


def run(seed, side, p50, rate, **kwargs):
    return {"workload": "corpus", "seed": seed, "side": side,
            **bench_pair.parse_result(canned(p50, rate, **kwargs))}


def test_parse_result_reads_the_last_line():
    assert bench_pair.parse_result(canned(5.5, 35000.0, failed=2)) == {
        "correct": True, "attempted": 100, "failed": 2,
        "metrics": {"job_p50_ms": 5.5, "items_per_s": 35000.0}}


def test_parse_result_rejects_empty_output():
    with pytest.raises(ValueError):
        bench_pair.parse_result("\n")


def test_summary_of_three_pairs():
    runs = [run(1, "base", 6.0, 34000.0), run(1, "change", 4.5, 47000.0),
            run(2, "change", 4.8, 46000.0), run(2, "base", 5.8, 35000.0),
            run(3, "base", 4.0, 36000.0), run(3, "change", 4.0, 30000.0, failed=1),
            run(4, "base", 5.0, 30000.0)]  # no partner yet: not a pair
    summary = bench_pair.summarize(runs, END_TO_END)["corpus"]
    assert summary["seeds"] == [1, 2, 3]
    assert summary["pairs"] == 3
    assert summary["failed"] == {"base": 0, "change": 1}
    assert summary["attempted"] == {"base": 300, "change": 300}
    assert summary["correct"] == {"base": True, "change": True}

    p50 = summary["metrics"]["job_p50_ms"]
    assert p50["base"]["median"] == 5.8 and p50["change"]["median"] == 4.5
    assert p50["base"]["q1"] == 4.0 and p50["base"]["q3"] == 6.0
    assert p50["base"]["iqr"] == pytest.approx(2.0)
    assert p50["wins"] == 2  # the tie on seed 3 counts for neither side
    assert p50["within_bound"]
    assert not p50["gain_beyond_base_iqr"]  # 1.3 ms is inside the parent's 2.0 ms IQR

    rate = summary["metrics"]["items_per_s"]
    assert rate["wins"] == 2 and rate["change"]["median"] == 46000.0
    assert rate["within_bound"] and rate["gain_beyond_base_iqr"]


def test_bounds_follow_the_better_direction():
    runs = [run(1, "base", 4.0, 40000.0), run(1, "change", 5.1, 29000.0)]
    metrics = bench_pair.summarize(runs, END_TO_END)["corpus"]["metrics"]
    assert not metrics["job_p50_ms"]["within_bound"]   # 5.1 > 4.0 * 1.25
    assert not metrics["items_per_s"]["within_bound"]  # 29000 < 40000 * 0.75
    assert metrics["job_p50_ms"]["base"]["iqr"] == 0
    assert metrics["job_p50_ms"]["wins"] == 0


def test_seed_list():
    assert bench_pair.seed_list("12-14,20") == [12, 13, 14, 20]
    assert bench_pair.seed_list("7") == [7]


def test_workload_list():
    assert bench_pair.workload_list("closure") == ["closure"]
    assert bench_pair.workload_list("closure, corpus,mapping,cli,corpus") == [
        "closure", "corpus", "mapping", "cli"]
    for text in ("", "closure,", "closure,,cli"):
        with pytest.raises(ValueError):
            bench_pair.workload_list(text)
