"""Unit tests for tables and shape-check helpers."""

import pytest

from repro.analysis import ShapeCheck, ascii_table, format_series


def test_ascii_table_alignment_and_na():
    out = ascii_table(
        ["name", "value"],
        [["alpha", 1.5], ["beta", None], ["gamma", 12345.678]],
        title="demo",
    )
    lines = out.splitlines()
    assert lines[0] == "demo"
    assert "N/A" in out
    assert "12,346" in out
    # All rows align to the same width.
    assert len({len(line) for line in lines[1:]}) == 1


def test_ascii_table_rejects_ragged_rows():
    with pytest.raises(ValueError):
        ascii_table(["a", "b"], [[1]])


def test_format_series_bars_scale():
    out = format_series([1, 2], [10.0, 20.0], width=10)
    lines = out.splitlines()
    assert lines[-1].count("#") == 10
    assert lines[-2].count("#") == 5


def test_format_series_validation():
    with pytest.raises(ValueError):
        format_series([1], [1.0, 2.0])
    with pytest.raises(ValueError):
        format_series([], [])


def test_shapecheck_within():
    sc = ShapeCheck()
    assert sc.check_within("x", 105.0, 100.0, rel_tol=0.10)
    assert not sc.check_within("y", 150.0, 100.0, rel_tol=0.10)
    assert not sc.all_passed
    assert "[PASS] x" in sc.render()
    assert "[FAIL] y" in sc.render()


def test_shapecheck_ratio():
    sc = ShapeCheck()
    assert sc.check_ratio("half", 5.0, 10.0, expected_ratio=0.5, rel_tol=0.1)
    assert not sc.check_ratio("bad", 9.0, 10.0, expected_ratio=0.5, rel_tol=0.1)
    assert not sc.check_ratio("zero", 1.0, 0.0, expected_ratio=1.0, rel_tol=0.1)


def test_shapecheck_monotone():
    sc = ShapeCheck()
    assert sc.check_monotone("down", [10.0, 8.0, 5.0], decreasing=True)
    assert sc.check_monotone("up", [1.0, 2.0, 3.0])
    assert sc.check_monotone(
        "noisy-down", [10.0, 10.4, 5.0], decreasing=True, slack=0.05
    )
    assert not sc.check_monotone("not-down", [10.0, 12.0], decreasing=True)
    assert sc.results[-1].passed is False
