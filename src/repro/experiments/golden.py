"""Golden-output digests of registry runs.

A digest is :func:`~repro.artifacts.records.payload_digest` (SHA-256
over canonical JSON) of a run's :func:`canonical_data` ``data``.  JSON
serialization uses ``repr``-precision floats, so two digests match only
when every numeric output is **bit-identical** — the contract every
engine change must honour.

``tools/record_goldens.py`` regenerates the committed digest file;
``tests/experiments/test_golden_outputs.py`` asserts against it in CI.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Optional, Sequence, Tuple, Union

from repro.artifacts.records import canonical_data, payload_digest
from repro.experiments.registry import run_experiment
from repro.simcore.rng import GOLDEN_SEED

#: The scale most golden runs use.  Small enough for CI, large enough
#: that all engine paths (multi-link contention, flow ceilings, cross-rack
#: background churn) are exercised.
GOLDEN_SCALE = 0.05

#: Every pinned run with its golden scale.  fig6 is an architecture
#: diagram; fig7 rides the same kernel as the others.  The scenario
#: packs run batched at 10^4 clients.  ``campaign:month`` runs all three
#: failover modes with the hedged geo client at 0.02 (campaign scale
#: compresses simulated time).  Its hedge delay mostly sits at the
#: policy's floor, so a drifted latency percentile would pass it;
#: ``drill:hedge`` (one size; the scale is ignored) launches and wins
#: hedges at the exact online percentile and pins it.
GOLDEN_RUNS: Tuple[Tuple[str, float], ...] = (
    ("fig1", GOLDEN_SCALE),
    ("fig2", GOLDEN_SCALE),
    ("fig3", GOLDEN_SCALE),
    ("fig4", GOLDEN_SCALE),
    ("fig5", GOLDEN_SCALE),
    ("table1", GOLDEN_SCALE),
    ("table2", GOLDEN_SCALE),
    ("scenario:block-storage", GOLDEN_SCALE),
    ("scenario:streaming", GOLDEN_SCALE),
    ("campaign:month", 0.02),
    ("drill:hedge", 1.0),
)


def digest(data: Any) -> str:
    """SHA-256 of a run's data at full float precision."""
    return payload_digest(canonical_data(data))


def run_digest(
    name: str, seed: int = GOLDEN_SEED, jobs: Optional[int] = 1
) -> str:
    """Run one :data:`GOLDEN_RUNS` entry at its golden scale and digest
    its data."""
    scale = dict(GOLDEN_RUNS)[name]
    return digest(run_experiment(name, scale=scale, seed=seed, jobs=jobs).data)


def collect_digests(
    names: Optional[Sequence[str]] = None,
    seed: int = GOLDEN_SEED,
    jobs: Optional[int] = 1,
) -> Dict[str, str]:
    """``{name: digest}`` for ``names`` (default: every golden run)."""
    return {
        name: run_digest(name, seed=seed, jobs=jobs)
        for name in (names or [name for name, _scale in GOLDEN_RUNS])
    }


def load_digest_file(path: Union[str, Path]) -> Dict[str, Any]:
    """Parse a committed digest file (as written by record_goldens)."""
    return json.loads(Path(path).read_text())


def check_digests(
    golden_path: Union[str, Path],
    names: Optional[Sequence[str]] = None,
    jobs: Optional[int] = 1,
) -> Dict[str, Tuple[str, str]]:
    """Recompute digests and diff them against a committed digest file.

    Runs use the seed recorded *in the file* (not the module constant)
    and each name's :data:`GOLDEN_RUNS` scale; the file's base
    ``scale`` must equal :data:`GOLDEN_SCALE` (a test asserts it).
    Returns ``{name: (expected, actual)}`` for every mismatch — empty
    means every pinned output is still bit-identical.
    """
    golden = load_digest_file(golden_path)
    pinned: Dict[str, str] = golden["digests"]
    ids = list(names) if names else sorted(pinned)
    unknown = [name for name in ids if name not in pinned]
    if unknown:
        raise KeyError(f"no golden digest recorded for {unknown}")
    actual = collect_digests(ids, seed=golden["seed"], jobs=jobs)
    return {
        name: (pinned[name], actual[name])
        for name in ids
        if actual[name] != pinned[name]
    }
