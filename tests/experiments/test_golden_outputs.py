"""Byte-for-byte pinning of experiment outputs.

The committed digests were recorded *before* the incremental fair-share
engine landed; these tests prove later engines — including the unified
``repro.service`` request pipeline — reproduce the original outputs
exactly: same rates, same completion order, same RNG trajectory, down
to the last float bit.  Any intentional output change must regenerate
the file via ``tools/record_goldens.py`` and say so in the commit.

``check_digests`` is the same verifier ``tools/record_goldens.py
--check`` runs in CI.
"""

import json
from pathlib import Path

import pytest

from repro.experiments.golden import (
    GOLDEN_RUNS,
    GOLDEN_SCALE,
    GOLDEN_SEED,
    check_digests,
)
from repro.experiments.registry import get_experiment, runnables

_GOLDEN_FILE = Path(__file__).parent / "golden_digests.json"
_GOLDEN = json.loads(_GOLDEN_FILE.read_text())


def test_golden_file_matches_pinned_scale_seed():
    assert _GOLDEN["scale"] == GOLDEN_SCALE
    assert _GOLDEN["seed"] == GOLDEN_SEED


def test_check_digests_rejects_unknown_experiment():
    with pytest.raises(KeyError):
        check_digests(_GOLDEN_FILE, ["no-such-experiment"])


@pytest.mark.parametrize("experiment_id", sorted(_GOLDEN["digests"]))
def test_experiment_output_bit_identical(experiment_id):
    mismatches = check_digests(_GOLDEN_FILE, [experiment_id])
    assert not mismatches, (
        f"{experiment_id} output diverged from the golden digest "
        f"(scale={GOLDEN_SCALE}, seed={GOLDEN_SEED}): {mismatches}"
    )


def test_every_golden_name_resolves_in_the_registry():
    names = [name for name, _scale in GOLDEN_RUNS]
    assert sorted(names) == sorted(_GOLDEN["digests"])
    table = runnables()
    for name in names:
        assert name in table and get_experiment(name).name == name
