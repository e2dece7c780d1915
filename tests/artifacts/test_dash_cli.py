"""Dashboard rendering + the qc/dash/catalog CLI surface."""

import json

import pytest

from repro.artifacts import (
    CatalogStore,
    CellResult,
    RunRecord,
    config_hash,
    pareto_frontier,
    payload_digest,
    render_dash,
)
from repro.cli import main


def _cell(seed, level, ops_per_s, p99, availability=1.0):
    ops = 100 * level
    errors = int(round(ops * (1.0 - availability)))
    doc = {
        "ops_completed": ops,
        "errors": errors,
        "aggregate_ops_per_s": ops_per_s,
        "latency_mean_s": p99 / 2,
        "latency_p50_s": p99 / 3,
        "latency_p99_s": p99,
    }
    return CellResult(
        seed=seed, level=level, digest=payload_digest(doc), metrics=doc
    )


def _sweep_record(cells, seeds, levels):
    spec = {"name": "dash-demo"}
    return RunRecord(
        run_id="scenario-dash-demo-0001",
        kind="scenario",
        name="dash-demo",
        config_hash=config_hash(spec),
        spec=spec,
        seed_grid=list(seeds),
        level_grid=list(levels),
        cells=cells,
    )


def test_pareto_frontier_mask():
    # (throughput, latency): higher-x lower-y dominates.
    points = [(1.0, 5.0), (2.0, 4.0), (3.0, 6.0), (3.0, 6.0)]
    mask = pareto_frontier(points)
    assert mask == [False, True, True, True]
    assert pareto_frontier([]) == []
    assert pareto_frontier([(1.0, 1.0)]) == [True]


def test_render_sweep_sections():
    cells = [
        _cell(s, n, ops_per_s=float(n), p99=0.1 - 0.01 * n,
              availability=0.99 if n == 4 else 1.0)
        for s in (1, 2)
        for n in (2, 4)
    ]
    out = render_dash(
        _sweep_record(cells, (1, 2), (2, 4)),
        availability_target=0.999,
        frozen_labels=["baseline"],
    )
    assert "KPI by population level" in out
    assert "error-budget burn" in out
    assert "efficient frontier" in out
    assert "[frozen: baseline]" in out
    assert "BURNING" in out  # level-4 cells burn a 99.9% budget at 99%


def test_render_campaign_record():
    record = RunRecord(
        run_id="campaign-day-0001",
        kind="campaign",
        name="day",
        config_hash=config_hash({"name": "day"}),
        spec={"name": "day"},
        metrics={
            "modes": {
                "automatic": {
                    "availability": 0.9995,
                    "bad_minutes": 3,
                    "zero_minutes": 1,
                    "p99_ms": 120.0,
                    "lost_writes": 0,
                    "worst_burn_rate": 0.8,
                    "slo_pass": True,
                }
            }
        },
    )
    out = render_dash(record)
    assert "failover" in out
    assert "automatic" in out
    assert "PASS" in out


def test_render_flat_record():
    record = RunRecord(
        run_id="bench-kernel-0001",
        kind="bench",
        name="kernel",
        config_hash=config_hash({"scale": 0.1}),
        spec={"scale": 0.1},
        metrics={"kernel": {"events_per_s": 2e6}, "scale": 0.1},
    )
    out = render_dash(record)
    assert "kernel.events_per_s" in out


@pytest.fixture()
def seeded_catalog(tmp_path):
    root = tmp_path / "cat"
    store = CatalogStore(root)
    cells = [
        _cell(s, n, ops_per_s=float(n) * (1 + 0.01 * s), p99=0.08)
        for s in (1, 2)
        for n in (2, 4)
    ]
    record = _sweep_record(cells, (1, 2), (2, 4))
    record.run_id = ""
    run_id = store.put_record(record)
    return root, run_id


def test_cli_qc_pass_and_freeze(seeded_catalog, capsys):
    root, run_id = seeded_catalog
    rc = main([
        "qc", run_id, "--catalog", str(root), "--freeze", "baseline",
    ])
    out = capsys.readouterr().out
    assert rc == 0
    assert "QC PASS" in out
    assert CatalogStore(root).frozen_run_id("baseline") == run_id


def test_cli_qc_fails_incomplete_sweep_and_refuses_freeze(
    tmp_path, capsys
):
    root = tmp_path / "cat"
    store = CatalogStore(root)
    cells = [_cell(1, 2, ops_per_s=2.0, p99=0.08)]  # level 4 missing
    record = _sweep_record(cells, (1,), (2, 4))
    record.run_id = ""
    run_id = store.put_record(record)
    rc = main(["qc", run_id, "--catalog", str(root), "--freeze"])
    captured = capsys.readouterr()
    assert rc == 1
    assert "QC FAIL" in captured.out
    assert "NOT freezing" in captured.err
    assert CatalogStore(root).frozen_run_id("frozen") is None


def test_cli_dash_latest_and_frozen(seeded_catalog, capsys):
    root, run_id = seeded_catalog
    assert main(["qc", run_id, "--catalog", str(root), "--freeze"]) == 0
    capsys.readouterr()
    rc = main(["dash", "--catalog", str(root), "--frozen", "frozen"])
    out = capsys.readouterr().out
    assert rc == 0
    assert run_id in out
    assert "KPI by population level" in out
    assert "[frozen: frozen]" in out


def test_cli_dash_json_export(seeded_catalog, tmp_path, capsys):
    root, run_id = seeded_catalog
    out_path = tmp_path / "record.json"
    rc = main([
        "dash", run_id, "--catalog", str(root), "--json", str(out_path),
    ])
    capsys.readouterr()
    assert rc == 0
    doc = json.loads(out_path.read_text())
    assert doc["run_id"] == run_id
    assert len(doc["cells"]) == 4


def test_cli_catalog_list_and_show(seeded_catalog, capsys):
    root, run_id = seeded_catalog
    assert main(["catalog", "list", "--catalog", str(root)]) == 0
    out = capsys.readouterr().out
    assert run_id in out
    assert "1 runs" in out
    assert main(["catalog", "show", run_id, "--catalog", str(root)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["run_id"] == run_id


def test_cli_qc_missing_run_exits_2(tmp_path, capsys):
    root = tmp_path / "cat"
    root.mkdir()  # empty catalog
    rc = main(["qc", "nope", "--catalog", str(root)])
    captured = capsys.readouterr()
    assert rc == 2
    assert "catalog error" in captured.err
