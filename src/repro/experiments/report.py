"""The common result container every registry run returns."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from repro.analysis import ShapeCheck


def family(name: str) -> str:
    """A run name's family: the prefix of ``scenario:…``, ``campaign:…``
    and ``drill:…`` names, ``"experiment"`` for the paper's ids."""
    return name.split(":", 1)[0] if ":" in name else "experiment"


@dataclass
class ExperimentReport:
    """Rendered output plus machine-readable results for one run.

    ``data`` is what the golden digest and the catalog digests cover.
    ``config``, ``level``, ``snapshots`` and ``cells`` are catalog
    sidecars, never part of ``data``: the configuration document the
    catalog hashes, the population a scenario run simulated (``None``
    for runs without one), serialized observability state, and a
    scenario grid's per-cell reports (``{seed: {level: report}}``).
    ``spans`` is a traced scenario run's span collector; nothing
    catalogs it.
    """

    experiment_id: str
    title: str
    body: str
    checks: ShapeCheck = field(default_factory=ShapeCheck)
    data: Dict[str, Any] = field(default_factory=dict)
    config: Dict[str, Any] = field(default_factory=dict)
    level: Optional[int] = None
    snapshots: Dict[str, Any] = field(default_factory=dict)
    cells: Optional[Dict[int, Dict[int, "ExperimentReport"]]] = None
    spans: Any = None

    @property
    def family(self) -> str:
        return family(self.experiment_id)

    @property
    def passed(self) -> bool:
        return self.checks.all_passed

    def render(self) -> str:
        parts = [
            f"== {self.experiment_id}: {self.title} ==",
            self.body,
        ]
        if self.checks.results:
            parts.append("")
            parts.append("Shape checks:")
            parts.append(self.checks.render())
        return "\n".join(parts)
