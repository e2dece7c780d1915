"""Paper-vs-measured shape checking.

Experiments declare the qualitative claims they reproduce ("the server
saturates near 64 clients", "upload is about half of download") as
:class:`ShapeCheck` assertions; the report prints each check's verdict
and EXPERIMENTS.md records them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str

    def __str__(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        return f"[{mark}] {self.name}: {self.detail}"


class ShapeCheck:
    """Collects named assertions without aborting on first failure."""

    def __init__(self) -> None:
        self.results: List[CheckResult] = []

    def check(self, name: str, passed: bool, detail: str = "") -> bool:
        self.results.append(CheckResult(name, bool(passed), detail))
        return bool(passed)

    def check_within(
        self,
        name: str,
        measured: float,
        expected: float,
        rel_tol: float,
    ) -> bool:
        lo, hi = expected * (1 - rel_tol), expected * (1 + rel_tol)
        ok = lo <= measured <= hi
        return self.check(
            name, ok,
            f"measured {measured:.4g} vs paper {expected:.4g} "
            f"(tolerance +/-{rel_tol:.0%})",
        )

    def check_ratio(
        self,
        name: str,
        numerator: float,
        denominator: float,
        expected_ratio: float,
        rel_tol: float,
    ) -> bool:
        if denominator == 0:
            return self.check(name, False, "zero denominator")
        ratio = numerator / denominator
        lo = expected_ratio * (1 - rel_tol)
        hi = expected_ratio * (1 + rel_tol)
        ok = lo <= ratio <= hi
        return self.check(
            name, ok,
            f"ratio {ratio:.3g} vs expected {expected_ratio:.3g} "
            f"(tolerance +/-{rel_tol:.0%})",
        )

    def check_monotone(
        self,
        name: str,
        values: List[float],
        decreasing: bool = False,
        slack: float = 0.0,
    ) -> bool:
        """Monotonicity with multiplicative slack for simulation noise."""
        ok = True
        for a, b in zip(values, values[1:]):
            if decreasing:
                if b > a * (1 + slack):
                    ok = False
            else:
                if b < a * (1 - slack):
                    ok = False
        direction = "decreasing" if decreasing else "increasing"
        return self.check(name, ok, f"{direction} over {len(values)} points")

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.results)

    def render(self) -> str:
        return "\n".join(str(r) for r in self.results)
