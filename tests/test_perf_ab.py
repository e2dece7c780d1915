"""The paired A/B timing gate's verdict over synthetic samples."""

import importlib.util
import json
from pathlib import Path

_TOOL = Path(__file__).resolve().parents[1] / "tools" / "perf_ab.py"
_spec = importlib.util.spec_from_file_location("perf_ab", _TOOL)
perf_ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(perf_ab)

SPEC = {
    "workloads": [{"name": "w"}],
    "end_to_end": [
        {"name": "run_s", "better": "lower", "bound": 0.2},
        {"name": "peak_rss_mb", "better": "lower", "bound": 0.1},
    ],
}


def _sample(run_s, correct=True, failed=0):
    return {
        "correct": correct, "failed": failed,
        "metrics": {"run_s": {"value": run_s},
                    "peak_rss_mb": {"value": 50.0}},
    }


def _pairs(change_run_s, base_run_s=1.0):
    return {"w": [(_sample(base_run_s), _sample(c)) for c in change_run_s]}


def test_agreed_regression_past_the_bound_fails():
    lines, ok = perf_ab.judge(SPEC, _pairs([1.3] * 10))
    assert not ok
    assert any("run_s" in line and "REGRESSED" in line for line in lines)


def test_past_bound_median_with_six_worse_pairs_passes():
    lines, ok = perf_ab.judge(SPEC, _pairs([1.5] * 6 + [0.9] * 4))
    assert ok
    assert any("worse in 6/10" in line for line in lines)
    assert not any("REGRESSED" in line for line in lines)


def test_regression_within_the_bound_passes():
    lines, ok = perf_ab.judge(SPEC, _pairs([1.15] * 10))
    assert ok
    assert any("worse in 10/10" in line for line in lines)


def test_an_incorrect_sample_fails():
    samples = _pairs([1.0] * 10)
    samples["w"][3] = (_sample(1.0), _sample(1.0, correct=False))
    assert not perf_ab.judge(SPEC, samples)[1]
    samples["w"][3] = (_sample(1.0, failed=1), _sample(1.0))
    assert not perf_ab.judge(SPEC, samples)[1]


def test_a_faster_change_passes_and_higher_is_better_is_honoured():
    assert perf_ab.judge(SPEC, _pairs([0.5] * 10))[1]
    spec = {"end_to_end": [{"name": "run_s", "better": "higher",
                            "bound": 0.2}]}
    assert not perf_ab.judge(spec, _pairs([0.7] * 10))[1]
    assert perf_ab.judge(spec, _pairs([1.3] * 10))[1]


def test_bounds_are_read_from_base_not_change(tmp_path):
    base, change = tmp_path / "a", tmp_path / "b"
    for tree, bound in ((base, 0.05), (change, 0.5)):
        tree.mkdir()
        doc = dict(SPEC, end_to_end=[
            {"name": "run_s", "better": "lower", "bound": bound},
        ])
        (tree / "BENCHMARK.json").write_text(json.dumps(doc))
    samples = _pairs([1.1] * 10)
    # CHANGE loosened its bound to 0.5; BASE's 0.05 still governs.
    assert not perf_ab.judge(perf_ab.load_spec((base, change)), samples)[1]
    assert perf_ab.judge(perf_ab.load_spec((change, base)), samples)[1]
