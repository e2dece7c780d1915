"""Unit tests for the MODIS catalog and the calibrated failure model."""

import pytest

from repro import calibration as cal
from repro.modis import FailureModel, ModisCatalog
from repro.modis.failures import distinct_task_mix
from repro.modis.tasks import TaskKind, TaskOutcome
from repro.simcore import RandomStreams


def test_catalog_scale_matches_paper():
    catalog = ModisCatalog()
    # Section 5.1: ~585k files, ~4 TB for 10 years of the continental US.
    assert catalog.total_files == pytest.approx(585_000, rel=0.03)
    assert catalog.total_size_tb == pytest.approx(4.0, rel=0.1)


def test_catalog_validation():
    with pytest.raises(ValueError):
        ModisCatalog(tiles=())
    with pytest.raises(ValueError):
        ModisCatalog(days=0)
    with pytest.raises(ValueError):
        ModisCatalog(band_groups=0)


def _model(seed=0):
    return FailureModel(RandomStreams(seed).stream("fail"))


def test_downloads_always_null_log():
    model = _model()
    for _ in range(50):
        assert model.sample(TaskKind.SOURCE_DOWNLOAD) is TaskOutcome.UNKNOWN_NULL_LOG


def test_compute_kind_outcome_rates_match_calibration():
    model = _model()
    n = 40_000
    outcomes = [model.sample(TaskKind.REPROJECTION) for _ in range(n)]
    success = sum(o is TaskOutcome.SUCCESS for o in outcomes) / n
    unknown = sum(o is TaskOutcome.UNKNOWN_FAILURE for o in outcomes) / n
    # Conditioned rates: unknown_failure 11.3% of all / 95.4% compute share.
    assert unknown == pytest.approx(0.1130 / 0.9543, rel=0.1)
    assert success == pytest.approx(
        model.success_probability(TaskKind.REPROJECTION), rel=0.05
    )


def test_user_code_errors_only_on_reduction():
    model = _model()
    reduction = [model.sample(TaskKind.REDUCTION) for _ in range(20_000)]
    reproj = [model.sample(TaskKind.REPROJECTION) for _ in range(20_000)]
    assert any(o is TaskOutcome.USER_CODE_ERROR for o in reduction)
    assert not any(o is TaskOutcome.USER_CODE_ERROR for o in reproj)


def test_vm_timeout_never_injected():
    model = _model()
    for kind in TaskKind:
        outcomes = [model.sample(kind) for _ in range(5000)]
        assert not any(o is TaskOutcome.VM_EXECUTION_TIMEOUT for o in outcomes)


def test_expected_executions_per_task():
    model = _model()
    assert model.expected_executions_per_task(TaskKind.SOURCE_DOWNLOAD) == 1.0
    for kind in (TaskKind.REPROJECTION, TaskKind.REDUCTION):
        m = model.expected_executions_per_task(kind)
        assert 1.0 < m < 1.5


def test_distinct_mix_reproduces_execution_mix():
    """Generating distinct tasks at the derived mix and multiplying by
    expected executions must land on Table 2's execution mix."""
    model = _model()
    mix = distinct_task_mix(model)
    assert sum(mix.values()) == pytest.approx(1.0)
    exec_share = {
        kind: mix[kind] * model.expected_executions_per_task(kind)
        for kind in TaskKind
    }
    total = sum(exec_share.values())
    for kind in TaskKind:
        assert exec_share[kind] / total == pytest.approx(
            cal.MODIS_TASK_MIX[kind.value], rel=0.02
        )


def test_overall_success_rate_close_to_table2():
    """Weighted by the execution mix, success must be ~65.5%."""
    model = _model()
    weighted = sum(
        cal.MODIS_TASK_MIX[kind.value] * model.success_probability(kind)
        for kind in TaskKind
    )
    assert weighted == pytest.approx(cal.MODIS_SUCCESS_RATE, abs=0.02)
