"""Declarative scenario specifications.

A :class:`ScenarioSpec` is a *complete, serialisable description* of a
workload: which operations run (with per-op weights and payload-size
distributions), how requests arrive (closed-loop think time, open
Poisson, bursty MMPP, diurnal rate modulation), how partition keys are
skewed (Zipf router), how many clients participate, and what last-mile
link sits in front of them.  The unified driver in
:mod:`repro.scenarios.driver` runs any spec through the shared harness
or the fluid model; the registry in
:mod:`repro.scenarios.registry` maps names (and TOML/JSON config files)
to specs.

Design rule for bit-reproducibility: a spec only *describes* draws.
Features that are degenerate (single-op mix, constant sizes, no think
time, no skew, no link) make **zero** RNG draws in the driver, which is
how the fig1/fig2/fig3 specs replay the hand-written benches exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Dict, Optional, Tuple

from repro.simcore import Distribution

#: Every ``(service, op)`` pair the unified driver can execute, in both
#: exact and batched mode.
SCENARIO_OPS = (
    ("blob", "download"),
    ("blob", "upload"),
    ("table", "insert"),
    ("table", "query"),
    ("table", "update"),
    ("table", "delete"),
    ("queue", "add"),
    ("queue", "peek"),
    ("queue", "receive"),
)

ARRIVAL_KINDS = ("closed", "poisson", "mmpp")


class ScenarioValidationError(ValueError):
    """A scenario spec (or config file) failed validation."""


# -- distribution (de)serialisation ---------------------------------------


def dist_to_dict(dist: Distribution) -> Dict[str, Any]:
    """JSON/TOML-able form of a :class:`Distribution`."""
    out: Dict[str, Any] = {"kind": dist.kind}
    for key, value in dist.params.items():
        if isinstance(value, tuple):
            out[key] = list(value)
        else:
            out[key] = value
    return out


def dist_from_dict(obj: Dict[str, Any]) -> Distribution:
    """Build a :class:`Distribution` from its dict form.

    Accepts the families the calibration layer uses; ``lognormal`` takes
    either the natural ``mu``/``sigma`` or the paper-style arithmetic
    ``mean``/``std`` pair.
    """
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ScenarioValidationError(
            f"distribution must be a dict with a 'kind', got {obj!r}"
        )
    kind = obj["kind"]
    try:
        if kind == "constant":
            return Distribution.constant(float(obj["value"]))
        if kind == "uniform":
            return Distribution.uniform(float(obj["low"]), float(obj["high"]))
        if kind == "exponential":
            return Distribution.exponential(float(obj["mean"]))
        if kind == "normal":
            return Distribution.normal(
                float(obj["mean"]),
                float(obj["std"]),
                minimum=float(obj.get("minimum", float("-inf"))),
                maximum=float(obj.get("maximum", float("inf"))),
            )
        if kind == "lognormal":
            if "mu" in obj:
                return Distribution("lognormal", mu=float(obj["mu"]),
                                    sigma=float(obj["sigma"]))
            return Distribution.lognormal_from_mean_std(
                float(obj["mean"]), float(obj["std"])
            )
        if kind == "pareto":
            return Distribution.pareto(
                float(obj["minimum"]), float(obj["alpha"])
            )
        if kind == "empirical":
            return Distribution.empirical(
                [float(v) for v in obj["values"]],
                (
                    [float(w) for w in obj["weights"]]
                    if obj.get("weights") is not None
                    else None
                ),
            )
    except ScenarioValidationError:
        raise
    except KeyError as exc:
        raise ScenarioValidationError(
            f"distribution kind {kind!r} missing parameter {exc}"
        ) from None
    except ValueError as exc:
        raise ScenarioValidationError(
            f"bad distribution parameters for {kind!r}: {exc}"
        ) from None
    raise ScenarioValidationError(f"unknown distribution kind {kind!r}")


def _mean_or(dist: Optional[Distribution], default: float) -> float:
    return dist.mean if dist is not None else default


# -- spec fragments --------------------------------------------------------


@dataclass(frozen=True)
class OpSpec:
    """One weighted operation in a scenario's mix.

    ``size_kb`` is the entity/message payload for table/queue ops,
    ``size_mb`` the blob transfer size; both are full distributions (a
    :class:`Distribution` of kind ``constant`` draws nothing).
    ``retry`` selects the client retry policy: ``"none"`` (the paper's
    raw-service-behaviour benches) or ``"default"`` (the SDK default the
    blob bench used).
    """

    service: str
    op: str
    weight: float = 1.0
    size_kb: Optional[Distribution] = None
    size_mb: Optional[Distribution] = None
    visibility_timeout_s: Optional[float] = None
    retry: str = "none"

    def __post_init__(self) -> None:
        if (self.service, self.op) not in SCENARIO_OPS:
            raise ScenarioValidationError(
                f"unsupported op {(self.service, self.op)!r}; "
                f"supported: {sorted(SCENARIO_OPS)}"
            )
        if not self.weight > 0:
            raise ScenarioValidationError(
                f"{self.key}: weight must be > 0, got {self.weight}"
            )
        if self.retry not in ("none", "default"):
            raise ScenarioValidationError(
                f"{self.key}: retry must be 'none' or 'default'"
            )

    @property
    def key(self) -> str:
        return f"{self.service}.{self.op}"

    @property
    def mean_size_kb(self) -> float:
        default = 0.5 if self.service == "queue" else 1.0
        return _mean_or(self.size_kb, default)

    @property
    def mean_size_mb(self) -> float:
        return _mean_or(self.size_mb, 1.0)

    @property
    def mean_payload_mb(self) -> float:
        """MB one op of mean size moves: the blob size, else the
        entity or message size."""
        if self.service == "blob":
            return self.mean_size_mb
        return self.mean_size_kb / 1024.0


@dataclass(frozen=True)
class PhaseSpec:
    """One sequential phase: a weighted op mix run for a fixed number of
    operations per client (closed-loop scenarios).  Open-arrival
    scenarios use a single phase and ignore ``ops_per_client`` (the
    horizon governs instead)."""

    name: str
    ops: Tuple[OpSpec, ...]
    ops_per_client: int = 1

    def __post_init__(self) -> None:
        if not self.name:
            raise ScenarioValidationError("phase name must be non-empty")
        if not self.ops:
            raise ScenarioValidationError(
                f"phase {self.name!r} has no operations"
            )
        if self.ops_per_client < 1:
            raise ScenarioValidationError(
                f"phase {self.name!r}: ops_per_client must be >= 1"
            )

    @property
    def weights(self) -> Tuple[float, ...]:
        total = sum(op.weight for op in self.ops)
        return tuple(op.weight / total for op in self.ops)


@dataclass(frozen=True)
class ArrivalSpec:
    """How requests arrive.

    * ``closed`` — the paper's protocol: issue, wait, think
      (``think`` distribution; ``None`` = back-to-back), repeat.
    * ``poisson`` — open arrivals at ``rate_hz`` per client.
    * ``mmpp`` — two-state Markov-modulated Poisson: a low state at
      ``rate_hz`` and a high state at ``rate_hz * burst_multiplier``,
      dwelling ``burst_dwell_s`` (mean) in the high state and occupying
      it ``burst_fraction`` of the time in the long run.

    Open kinds optionally carry a diurnal modulation
    ``1 + amplitude * sin(2*pi*(t - phase)/period)`` multiplying the
    instantaneous rate.
    """

    kind: str = "closed"
    think: Optional[Distribution] = None
    rate_hz: float = 0.0
    burst_multiplier: float = 1.0
    burst_fraction: float = 0.0
    burst_dwell_s: float = 60.0
    diurnal_amplitude: float = 0.0
    diurnal_period_s: float = 86400.0
    diurnal_phase_s: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in ARRIVAL_KINDS:
            raise ScenarioValidationError(
                f"arrival kind must be one of {ARRIVAL_KINDS}, "
                f"got {self.kind!r}"
            )
        if self.kind != "closed":
            if not self.rate_hz > 0:
                raise ScenarioValidationError(
                    f"open arrivals need rate_hz > 0, got {self.rate_hz}"
                )
        if self.kind == "mmpp":
            if self.burst_multiplier < 1.0:
                raise ScenarioValidationError(
                    "burst_multiplier must be >= 1"
                )
            if not 0.0 < self.burst_fraction < 1.0:
                raise ScenarioValidationError(
                    "burst_fraction must be in (0, 1)"
                )
            if not self.burst_dwell_s > 0:
                raise ScenarioValidationError("burst_dwell_s must be > 0")
        if not 0.0 <= self.diurnal_amplitude < 1.0:
            raise ScenarioValidationError(
                "diurnal_amplitude must be in [0, 1)"
            )
        if not self.diurnal_period_s > 0:
            raise ScenarioValidationError("diurnal_period_s must be > 0")

    @property
    def is_open(self) -> bool:
        return self.kind != "closed"


@dataclass(frozen=True)
class SkewSpec:
    """Zipf(``theta``) partition-key skew across ``partitions`` keys.

    ``theta = 0`` is uniform; the Alibaba block-storage study's heavy
    spatial skew corresponds to ``theta`` near 1.
    """

    partitions: int = 1
    theta: float = 0.99

    def __post_init__(self) -> None:
        if self.partitions < 1:
            raise ScenarioValidationError("partitions must be >= 1")
        if self.theta < 0:
            raise ScenarioValidationError("theta must be >= 0")


@dataclass(frozen=True)
class LinkSpec:
    """A lossy/rate-limited last-mile link in front of every client.

    ``extra_latency_ms`` is added per request (edge propagation),
    ``bandwidth_mbps`` (MB/s, matching the repo's convention) caps the
    payload serialisation rate, and each request independently suffers
    retransmissions with probability ``loss_rate`` per attempt, each
    costing ``retransmit_penalty_ms``; beyond ``max_retransmits`` the
    request fails client-side.
    """

    profile: str = "custom"
    extra_latency_ms: float = 0.0
    bandwidth_mbps: Optional[float] = None
    loss_rate: float = 0.0
    retransmit_penalty_ms: float = 200.0
    max_retransmits: int = 5

    def __post_init__(self) -> None:
        if self.extra_latency_ms < 0:
            raise ScenarioValidationError("extra_latency_ms must be >= 0")
        if self.bandwidth_mbps is not None and not self.bandwidth_mbps > 0:
            raise ScenarioValidationError("bandwidth_mbps must be > 0")
        if not 0.0 <= self.loss_rate < 1.0:
            raise ScenarioValidationError("loss_rate must be in [0, 1)")
        if self.retransmit_penalty_ms < 0:
            raise ScenarioValidationError(
                "retransmit_penalty_ms must be >= 0"
            )
        if self.max_retransmits < 0:
            raise ScenarioValidationError("max_retransmits must be >= 0")

    @property
    def mean_retransmits(self) -> float:
        """Expected retransmissions per request (geometric)."""
        if self.loss_rate <= 0:
            return 0.0
        return self.loss_rate / (1.0 - self.loss_rate)


# -- the scenario ----------------------------------------------------------


@dataclass(frozen=True)
class ScenarioSpec:
    """One complete, named workload description."""

    name: str
    phases: Tuple[PhaseSpec, ...]
    title: str = ""
    description: str = ""
    arrival: ArrivalSpec = field(default_factory=ArrivalSpec)
    skew: Optional[SkewSpec] = None
    link: Optional[LinkSpec] = None
    #: Default population for ``repro run scenario:<name>``.
    n_clients: int = 4
    #: Concurrency levels for fig-shaped sweeps (empty = no sweep).
    levels: Tuple[int, ...] = ()
    #: Uniform client start spread (DiPerF-style ramp).
    ramp_s: float = 0.0
    #: Open-arrival horizon and aggregation window.
    duration_s: Optional[float] = None
    window_s: float = 60.0
    #: Client-side op timeout (None = each client type's default).
    timeout_s: Optional[float] = None
    #: Abort a client at its first error (the paper's benches) or keep
    #: going and count errors (trace-shaped packs).
    abort_on_error: bool = True
    #: Fig. 3-style administrative queue backlog override.
    queue_prefill: Optional[int] = None
    default_seed: int = 0
    tags: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.name:
            raise ScenarioValidationError("scenario name must be non-empty")
        if not self.phases:
            raise ScenarioValidationError(
                f"scenario {self.name!r} has no phases"
            )
        names = [ph.name for ph in self.phases]
        if len(set(names)) != len(names):
            raise ScenarioValidationError(
                f"scenario {self.name!r}: duplicate phase names {names}"
            )
        if self.n_clients < 1:
            raise ScenarioValidationError("n_clients must be >= 1")
        if any(lv < 1 for lv in self.levels):
            raise ScenarioValidationError("levels must all be >= 1")
        if self.ramp_s < 0:
            raise ScenarioValidationError("ramp_s must be >= 0")
        if self.arrival.is_open:
            if not self.duration_s or self.duration_s <= 0:
                raise ScenarioValidationError(
                    f"scenario {self.name!r}: open arrivals need "
                    "duration_s > 0"
                )
            if not self.window_s > 0:
                raise ScenarioValidationError("window_s must be > 0")
            if len(self.phases) != 1:
                raise ScenarioValidationError(
                    "open-arrival scenarios use exactly one phase"
                )

    @property
    def all_ops(self) -> Tuple[OpSpec, ...]:
        return tuple(op for phase in self.phases for op in phase.ops)

    @property
    def services(self) -> Tuple[str, ...]:
        """Services used, in fixed (blob, table, queue) order."""
        used = {op.service for op in self.all_ops}
        return tuple(s for s in ("blob", "table", "queue") if s in used)

    def scaled(self, scale: float) -> "ScenarioSpec":
        """A cheaper copy for goldens/CI: ``scale`` multiplies the open
        horizon (floor: four windows) or the per-phase op counts
        (floor: 2), leaving rates, mixes and populations untouched."""
        if scale <= 0:
            raise ScenarioValidationError("scale must be > 0")
        if scale == 1.0:
            return self
        if self.arrival.is_open:
            assert self.duration_s is not None
            return replace(
                self,
                duration_s=max(self.duration_s * scale, 4 * self.window_s),
            )
        return replace(
            self,
            phases=tuple(
                replace(
                    ph,
                    ops_per_client=max(int(ph.ops_per_client * scale), 2),
                )
                for ph in self.phases
            ),
        )
