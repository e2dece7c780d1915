"""End-to-end experiment tests at reduced scale.

Each experiment must run, render, and pass its own paper-shape checks.
These are the tightest integration tests in the suite: they exercise the
kernel, network, storage, cluster, clients, workloads and analysis
layers together.
"""

import pytest

from repro.experiments import EXPERIMENTS, get_experiment, run_experiment


def test_registry_contains_every_paper_artifact():
    assert set(EXPERIMENTS) == {
        "fig1", "fig2", "fig3", "fig4", "fig5", "table1", "table2", "fig7",
    }
    for spec in EXPERIMENTS.values():
        assert spec.title and spec.paper_artifact


def test_get_experiment_unknown_raises():
    with pytest.raises(ValueError):
        get_experiment("fig99")
    with pytest.raises(ValueError):
        run_experiment("fig1", scale=0.0)


@pytest.mark.parametrize("experiment_id,scale", [
    ("fig1", 0.1),
    ("table1", 0.25),
    ("fig4", 0.1),
])
def test_fast_experiments_pass_shape_checks(experiment_id, scale):
    report = run_experiment(experiment_id, scale=scale, seed=3)
    assert report.experiment_id == experiment_id
    rendered = report.render()
    assert report.title in rendered
    assert "Shape checks" in rendered
    assert report.passed, "\n" + report.checks.render()


@pytest.mark.slow
def test_fig3_queue_experiment():
    report = run_experiment("fig3", scale=0.4, seed=3)
    assert report.passed, "\n" + report.checks.render()


@pytest.mark.slow
def test_fig2_table_experiment():
    report = run_experiment("fig2", scale=0.12, seed=3)
    assert report.passed, "\n" + report.checks.render()


@pytest.mark.slow
def test_fig5_bandwidth_experiment():
    report = run_experiment("fig5", scale=0.25, seed=3)
    assert report.passed, "\n" + report.checks.render()


@pytest.mark.slow
def test_table2_modis_experiment():
    report = run_experiment("table2", scale=0.12, seed=3)
    assert report.passed, "\n" + report.checks.render()


@pytest.mark.slow
def test_fig7_timeout_experiment():
    report = run_experiment("fig7", scale=0.15, seed=5)
    assert report.passed, "\n" + report.checks.render()


def test_reports_carry_machine_readable_data():
    report = run_experiment("fig1", scale=0.05, seed=1)
    assert "download" in report.data and "upload" in report.data
    assert set(report.data["download"]) == {1, 2, 4, 8, 16, 32, 64, 128, 192}
