"""Golden-output digests of experiment results.

A digest is a SHA-256 over the canonical JSON form of an experiment
report's ``data`` payload.  JSON serialization uses ``repr``-precision
floats, so two digests match only when every numeric output is
**bit-identical** — the contract the incremental fair-share engine must
honour against the batch engine it replaced.

``tools/record_goldens.py`` regenerates the committed digest file;
``tests/experiments/test_golden_outputs.py`` asserts against it in CI.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict
from pathlib import Path
from typing import Dict, Iterable, Optional, Sequence, Tuple, Union

#: Scale/seed every golden digest uses.  Small enough for CI, large
#: enough that all engine paths (multi-link contention, cap hooks,
#: cross-rack background churn) are exercised.
GOLDEN_SCALE = 0.05
GOLDEN_SEED = 3

#: The experiments whose outputs are pinned (fig6 is an architecture
#: diagram; fig7's report is covered too since it rides the same kernel).
GOLDEN_EXPERIMENTS = (
    "fig1", "fig2", "fig3", "fig4", "fig5", "table1", "table2",
)

#: Scenario packs whose batched-mode summaries are pinned alongside the
#: figure experiments.  Ids are ``scenario:<registered name>``; the run
#: uses ``spec.scaled(scale)`` so CI stays fast while the full-size pack
#: remains the documented workload.
GOLDEN_SCENARIOS = (
    "scenario:block-storage",
    "scenario:streaming",
)

#: Event-level resilience runs pinned beside them.  ``campaign:month`` is
#: the month campaign over all three failover modes with the hedged geo
#: client, at campaign scale 0.02 (campaign scale compresses simulated
#: time, so it is not ``GOLDEN_SCALE``).  Its hedge delay mostly sits at
#: the policy's floor, so a drifted latency percentile would pass it;
#: ``drill:hedge``, the hedged-vs-unhedged latency-spike drill, launches
#: and wins hedges at the exact online percentile and pins it.
GOLDEN_RESILIENCE = ("campaign:month", "drill:hedge")


def canonical_data(value):
    """Coerce report data (enum keys, tuples, numpy scalars) to plain
    JSON-able types without losing float precision."""
    if isinstance(value, dict):
        return {str(k): canonical_data(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [canonical_data(v) for v in value]
    if hasattr(value, "item"):  # numpy scalar
        return value.item()
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


def _digest(document) -> str:
    payload = json.dumps(
        canonical_data(document), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def digest_report(report) -> str:
    """SHA-256 of the report's data payload at full float precision."""
    return _digest(report.data)


def digest_scenario(
    name: str, scale: float = GOLDEN_SCALE, seed: int = GOLDEN_SEED
) -> str:
    """SHA-256 of a registered scenario's batched-run summary.

    The scenario runs at ``spec.scaled(scale)`` in batched mode (the
    mode CI exercises for the 10^4-client packs), and the digest covers
    the full ``summary()`` document — window counts, per-op latency
    columns, skew block — at repr float precision.
    """
    from repro.scenarios import get_scenario, run_scenario

    spec = get_scenario(name).scaled(scale)
    return _digest(run_scenario(spec, seed=seed, mode="batched").summary())


def digest_resilience(eid: str, seed: int = GOLDEN_SEED) -> str:
    """SHA-256 of a :data:`GOLDEN_RESILIENCE` run's report."""
    from repro.resilience.campaign import month_campaign_spec, run_campaign
    from repro.resilience.hedging import run_hedge_drill

    if eid == "campaign:month":
        spec = month_campaign_spec(seed, scale=0.02)
        return _digest(run_campaign(spec).to_dict())
    if eid == "drill:hedge":
        return _digest(asdict(run_hedge_drill(seed=seed)))
    raise KeyError(eid)


def collect_digests(
    experiment_ids: Optional[Sequence[str]] = None,
    scale: float = GOLDEN_SCALE,
    seed: int = GOLDEN_SEED,
    jobs: Optional[int] = 1,
) -> Dict[str, str]:
    """Run each experiment/scenario and return ``{id: digest}``.

    Ids of the form ``scenario:<name>`` digest the named registered
    scenario via :func:`digest_scenario`, :data:`GOLDEN_RESILIENCE` ids
    go to :func:`digest_resilience`; every other id is an
    experiment-registry id.
    """
    from repro.experiments.registry import run_experiment

    ids: Iterable[str] = (
        experiment_ids
        or GOLDEN_EXPERIMENTS + GOLDEN_SCENARIOS + GOLDEN_RESILIENCE
    )
    out: Dict[str, str] = {}
    for eid in ids:
        if eid.startswith("scenario:"):
            out[eid] = digest_scenario(
                eid.split(":", 1)[1], scale=scale, seed=seed
            )
        elif eid in GOLDEN_RESILIENCE:
            out[eid] = digest_resilience(eid, seed=seed)
        else:
            out[eid] = digest_report(
                run_experiment(eid, scale=scale, seed=seed, jobs=jobs)
            )
    return out


def load_digest_file(path: Union[str, Path]) -> Dict[str, object]:
    """Parse a committed digest file (as written by record_goldens)."""
    return json.loads(Path(path).read_text())


def check_digests(
    golden_path: Union[str, Path],
    experiment_ids: Optional[Sequence[str]] = None,
    jobs: Optional[int] = 1,
) -> Dict[str, Tuple[str, str]]:
    """Recompute digests and diff them against a committed digest file.

    Experiments rerun at the scale/seed recorded *in the file* (not the
    module constants), so a stale checkout can't silently pass.  Returns
    ``{experiment_id: (expected, actual)}`` for every mismatch — empty
    means every pinned output is still bit-identical.
    """
    golden = load_digest_file(golden_path)
    pinned: Dict[str, str] = golden["digests"]
    ids = list(experiment_ids) if experiment_ids else sorted(pinned)
    unknown = [eid for eid in ids if eid not in pinned]
    if unknown:
        raise KeyError(f"no golden digest recorded for {unknown}")
    actual = collect_digests(
        ids, scale=golden["scale"], seed=golden["seed"], jobs=jobs
    )
    return {
        eid: (pinned[eid], actual[eid])
        for eid in ids
        if actual[eid] != pinned[eid]
    }
