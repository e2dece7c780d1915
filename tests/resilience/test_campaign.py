"""Tests for long-horizon availability campaigns over correlated faults."""

from dataclasses import replace

import pytest

from repro.faults import DomainFault
from repro.resilience.campaign import (
    CAMPAIGN_MODES,
    CAMPAIGN_SCENARIOS,
    CampaignSpec,
    _run_mode,
    day_campaign_spec,
    month_campaign_spec,
    run_campaign,
    storm_drill_spec,
)


@pytest.fixture(scope="module")
def day_report():
    """One compressed day campaign, all three modes, shared by the
    assertion tests below (the run is the expensive part)."""
    return run_campaign(day_campaign_spec(seed=3, scale=0.25))


# -- spec plumbing -----------------------------------------------------------

def test_spec_derives_op_count_and_fault_windows():
    spec = CampaignSpec(
        name="x",
        faults=(DomainFault("rack-a1", 100.0, 50.0),),
        duration_s=3600.0,
        op_interval_s=60.0,
    )
    assert spec.ops_per_client == 60


def test_a_bad_fault_fails_when_the_spec_is_built():
    """A campaign's faults are the domain injector's own records, so a
    fault with both a fixed and a drawn repair time is refused before
    any cell runs."""
    with pytest.raises(ValueError, match="exactly one of"):
        CampaignSpec(
            name="x",
            faults=(DomainFault("rack-a1", 100.0, 50.0, mttr_s=30.0),),
            duration_s=3600.0,
        )


def test_standard_scenarios_cover_the_planned_outages():
    month = month_campaign_spec()
    assert month.duration_s == 30 * 86400.0
    assert [f.domain for f in month.faults] == [
        "rack-a1", "zone-a", "wan", "region-a",
    ]
    day = CAMPAIGN_SCENARIOS["day"]()
    assert day.duration_s == 86400.0
    assert {f.kind for f in day.faults} == {"crash_restart", "blackout"}
    # Scaling compresses the schedule with the horizon.
    half = month_campaign_spec(scale=0.5)
    assert half.duration_s == 15 * 86400.0
    assert half.faults[0].start_s == month.faults[0].start_s / 2


def test_unknown_mode_is_rejected():
    spec = day_campaign_spec(scale=0.01)
    with pytest.raises(ValueError):
        _run_mode(spec, "psychic")


# -- the mode gradient (the point of the whole exercise) ---------------------

def test_automatic_failover_beats_no_replication(day_report):
    none = day_report.result("none")
    auto = day_report.result("automatic")
    # Same seed, same correlated-fault schedule, same op mix: the only
    # difference is the failover machinery -- which must strictly win.
    assert auto.availability > none.availability
    assert auto.bad_minutes < none.bad_minutes
    assert auto.worst_burn_rate < none.worst_burn_rate
    # The single-region account has nothing to fail over to.
    assert none.account_failovers == 0
    assert none.client_failovers == 0
    assert auto.account_failovers >= 1
    assert auto.account_failbacks >= 1


def test_manual_mode_recovers_reads_but_not_writes(day_report):
    none = day_report.result("none")
    manual = day_report.result("manual")
    # Nobody promotes the secondary, but the client's replica failover
    # still recovers idempotent reads -- availability sits strictly
    # between no-replication and automatic failover.
    assert manual.account_failovers == 0
    assert manual.client_failovers >= 1
    assert manual.availability > none.availability
    auto = day_report.result("automatic")
    assert manual.availability < auto.availability


def test_day_campaign_verdicts_and_report_shape(day_report):
    assert [r.mode for r in day_report.results] == list(CAMPAIGN_MODES)
    # The compressed day is harsh enough that bare single-region hosting
    # misses a 99% SLO while automatic failover clears it.
    assert not day_report.result("none").slo_pass
    assert day_report.result("automatic").slo_pass
    assert day_report.passed
    with pytest.raises(KeyError):
        day_report.result("psychic")


def test_report_to_dict_is_schema_shaped(day_report):
    doc = day_report.to_dict()
    assert doc["scenario"] == "day"
    assert doc["seed"] == 3
    assert set(doc["slo"]) == {"availability", "p99_ms", "amplification"}
    assert [f["domain"] for f in doc["faults"]] == [
        "rack-a1", "zone-a", "wan",
    ]
    assert set(doc["modes"]) == set(CAMPAIGN_MODES)
    for mode in doc["modes"].values():
        assert mode["ops"] == mode["ok"] + mode["failed"]
        assert mode["ops"] > 0
        assert mode["availability"] == pytest.approx(
            mode["ok"] / mode["ops"]
        )
        assert 0 <= mode["zero_minutes"] <= mode["bad_minutes"]
        assert mode["bad_minutes"] <= mode["minutes"]


def test_render_is_a_verdict_table(day_report):
    text = day_report.render()
    for column in ("failover", "avail", "dark min", "acct f/o",
                   "lost wr", "burn", "verdict"):
        assert column in text
    for mode in CAMPAIGN_MODES:
        assert mode in text
    assert "PASS" in text and "FAIL" in text


# -- determinism -------------------------------------------------------------

def test_same_seed_replays_identical_numbers():
    spec = day_campaign_spec(seed=7, scale=0.1)
    first = run_campaign(replace(spec, modes=("automatic",)))
    second = run_campaign(replace(spec, modes=("automatic",)))
    assert first.to_dict() == second.to_dict()


def test_different_seed_changes_the_world():
    a = run_campaign(replace(day_campaign_spec(seed=7, scale=0.1),
                             modes=("automatic",)))
    b = run_campaign(replace(day_campaign_spec(seed=8, scale=0.1),
                             modes=("automatic",)))
    assert a.to_dict() != b.to_dict()


# -- process-pool grid fan-out -----------------------------------------------

def test_mode_grid_fans_out_bit_identical(day_report):
    """One cell = one (scenario, mode) world: pooled execution must be
    byte-for-byte the serial report (including the pickled latency
    histograms the SLO engine reads back in the parent)."""
    pooled = run_campaign(
        day_campaign_spec(seed=3, scale=0.25), jobs=2
    )
    assert pooled.to_dict() == day_report.to_dict()


def test_storm_drill_grid_fans_out_bit_identical():
    """The server-window cells carry a retry budget, a breaker and
    window counters: pooled cells must still report byte-for-byte what
    the serial run does."""
    spec = storm_drill_spec(scale=0.25)
    pooled = run_campaign(spec, jobs=2)
    assert pooled.to_dict() == run_campaign(spec).to_dict()


def test_single_mode_grid_skips_the_pool():
    spec = replace(day_campaign_spec(seed=7, scale=0.1), modes=("automatic",))
    serial = run_campaign(spec, jobs=1)
    pooled = run_campaign(spec, jobs=4)
    assert pooled.to_dict() == serial.to_dict()


# -- byte-for-byte pins for the campaign paths no golden file covers ---------

_CAMPAIGN_PINS = {
    "day-event": "35056b22059de37af3cf18afe364202eceb2d6759500c66713b5c70ca5b489fd",
    "day-fast": "a53e4e0ed7590ad098dde671f4d4ba026724e7363930ec4c5eb35e27acfcf8dd",
    "month-fast": "44d45d90ad8de7bb5c53bed2727739c7e09e5c507995f8199438e625300ca432",
    "storm-event": "de182d969f8711c0640cc6041a28d0e46a3e197e702a8fd1d23600d6bfd3e096",
    "crash-event": "2b42e3af1078b5cc9269b2e6f8a8bc3687d15409dcb637cebafaba0d83daa39d",
    "burst-event": "3c6735481ea2938e0a542e0773073523b49b882d9fb05c7ea601b5555400c13e",
}


@pytest.mark.parametrize("cell", sorted(_CAMPAIGN_PINS))
def test_campaign_report_bit_identical(cell):
    """``campaign:month`` at event level is a golden digest; these pin
    the compressed day at both levels, the fast-forwarded month and the
    three server-window presets (breaker, retry budget, jitter backoff
    on a client without a secondary)."""
    from repro.experiments.golden import digest

    scenario, level = cell.split("-")
    if scenario == "day":
        spec = day_campaign_spec(seed=3)
    elif scenario == "month":
        spec = month_campaign_spec(3, scale=0.02)
    else:
        spec = CAMPAIGN_SCENARIOS[scenario](3, scale=0.2)
    report = run_campaign(spec, fast=level == "fast")
    assert digest(report.to_dict()) == _CAMPAIGN_PINS[cell]
