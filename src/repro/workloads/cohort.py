"""The fluid latency model of one closed-loop ``(service, op)`` population.

The paper measures at most 192 concurrent clients per service; campaign
questions need populations three to four orders of magnitude larger,
where one kernel process per client no longer fits.  The batched
engines (the scenario driver's closed and open batched modes, the
campaign fast-forward kernel) replace per-request kernel events with
this model.

It reuses the *same calibration constants* as the real request path
(base-latency profile, partition front-end curve ``c * active**gamma``,
CPU pool, exclusive latches, blob front-end bandwidth curves), closed
through the interactive response-time law: ``X = N / (R + Z)``,
``A = X * R`` iterated to a fixed point.  That keeps batched summaries
statistically matched (same saturation knees, same latency floors) to
exact simulation at small N; tests/scenarios/test_closed_batched.py
pins the parity against the scenario driver's exact mode.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro import calibration as cal


# -- fluid latency model ---------------------------------------------------


@dataclass(frozen=True)
class _FluidOpModel:
    """Calibration-derived cost structure of one ``(service, op)``.

    Mirrors the stages of the real request path: base-latency profile,
    front-end connection curve, CPU-pool demand, exclusive latch, bulk
    transfer.  All constants come from :mod:`repro.calibration` — the
    same numbers the exact path reads — so the fluid model and the
    event-level simulation share one source of truth.
    """

    base_s: float
    fixed_frac: float
    jitter_frac: float
    frontend_c_s: float = 0.0
    frontend_gamma: float = 0.5
    cpu_s: float = 0.0
    cores: int = 1
    exclusive_s: float = 0.0
    payload_mb: float = 0.0
    overload_knee_mb: float = math.inf
    overload_slope_per_mb: float = 0.0
    transfer_mb: float = 0.0
    transfer_a_mbps: float = 0.0
    transfer_gamma: float = 0.0


@dataclass(frozen=True)
class _FluidState:
    """Fixed-point solution at one population size."""

    response_s: float
    active: float
    frontend_mean_s: float
    cpu_wait_s: float
    latch_wait_s: float
    transfer_s: float
    shed_probability: float


@functools.lru_cache(maxsize=4096, typed=True)
def solve_stationary(
    model: _FluidOpModel,
    n: float,
    think_s: float,
) -> _FluidState:
    """Close the loop: response time <-> concurrency for ``n`` members.

    The interactive response-time law gives throughput
    ``X = n / (R + Z)`` and effective concurrency ``A = X * R``; the
    stage costs (front-end curve, M/M/c CPU wait, M/M/1 latch wait,
    bandwidth-shared transfer) give ``R`` back from ``A``.  Damped
    iteration converges in a few dozen rounds for every calibrated op.

    The solve is a pure function of its arguments, memoized at module
    level: seeded runs of one scenario price the same window rates
    again and again.  ``typed=True`` keeps an ``int`` or ``np.float64``
    argument from returning a state built from a ``float`` one.  Inside
    the loop only invariants are hoisted; every float expression keeps
    its operands and evaluation order, so memoized or not, the result
    is bit for bit the same.
    """
    n = float(n)
    base_mean = model.base_s  # fixed + Exp(jitter) has mean == base_s
    cpu_s = model.cpu_s
    exclusive_s = model.exclusive_s
    frontend_c_s = model.frontend_c_s
    frontend_gamma = model.frontend_gamma
    transfer_mb = model.transfer_mb
    cores = model.cores
    cpu_per_core = cpu_s / cores
    wait_power = math.sqrt(2.0 * (cores + 1))
    transfer_a = model.transfer_a_mbps
    transfer_power = -model.transfer_gamma

    response = base_mean + cpu_s + exclusive_s + 1e-9
    active = min(n, 1.0)
    frontend = cpu_wait = latch_wait = transfer = 0.0
    for _ in range(200):
        throughput = n / (response + think_s)
        active_new = throughput * response
        if n < active_new:
            active_new = n
        active = 0.5 * active + 0.5 * active_new

        frontend = 0.0
        if frontend_c_s > 0 and active > 1.0:
            frontend = frontend_c_s * active ** frontend_gamma

        cpu_wait = 0.0
        if cpu_s > 0:
            rho = throughput * cpu_s / cores
            if rho > 0.999:
                rho = 0.999
            # M/M/c wait, collapsed to the heavy-traffic form the
            # partition server's exponential service times justify.
            cpu_wait = cpu_per_core * rho ** wait_power / (1.0 - rho)

        latch_wait = 0.0
        if exclusive_s > 0:
            rho_l = throughput * exclusive_s
            if rho_l > 0.999:
                rho_l = 0.999
            latch_wait = exclusive_s * rho_l / (1.0 - rho_l)

        transfer = 0.0
        if transfer_mb > 0:
            share = transfer_a * (
                1.0 if active < 1.0 else active
            ) ** transfer_power
            transfer = transfer_mb / share

        response_new = (
            base_mean
            + frontend
            + cpu_wait
            + cpu_s
            + latch_wait
            + exclusive_s
            + transfer
        )
        if abs(response_new - response) < 1e-9 * (
            1e-9 if response < 1e-9 else response
        ):
            response = response_new
            break
        response = 0.5 * response + 0.5 * response_new

    shed = 0.0
    if model.payload_mb > 0 and model.overload_slope_per_mb > 0:
        excess = active * model.payload_mb - model.overload_knee_mb
        if excess > 0:
            shed = min(model.overload_slope_per_mb * excess, 0.5)
    return _FluidState(
        response_s=response,
        active=active,
        frontend_mean_s=frontend,
        cpu_wait_s=cpu_wait,
        latch_wait_s=latch_wait,
        transfer_s=transfer,
        shed_probability=shed,
    )


def stationary_op_model(
    service: str, op: str, size_kb: float = 1.0, size_mb: float = 1.0
) -> _FluidOpModel:
    """The calibration-derived cost model of one ``(service, op)`` at a
    ``size_kb`` entity/message payload (table, queue) or a ``size_mb``
    transfer (blob)."""
    if service == "table":
        return _FluidOpModel(
            base_s=cal.TABLE_BASE_LATENCY_S[op],
            fixed_frac=0.85,
            jitter_frac=0.15,
            frontend_c_s=cal.TABLE_FRONTEND_C_S,
            frontend_gamma=cal.TABLE_FRONTEND_GAMMA,
            cpu_s=cal.TABLE_CPU_S[op] + cal.TABLE_CPU_PER_KB_S * size_kb,
            cores=cal.TABLE_SERVER_CORES,
            exclusive_s=cal.TABLE_EXCLUSIVE_S[op],
            payload_mb=(
                size_kb / 1024.0 if op in ("insert", "update") else 0.0
            ),
            overload_knee_mb=cal.TABLE_OVERLOAD_KNEE_MB,
            overload_slope_per_mb=cal.TABLE_OVERLOAD_SLOPE_PER_MB,
        )
    if service == "queue":
        return _FluidOpModel(
            base_s=cal.QUEUE_BASE_LATENCY_S[op],
            fixed_frac=0.85,
            jitter_frac=0.15,
            frontend_c_s=cal.QUEUE_FRONTEND_C_S[op],
            frontend_gamma=cal.QUEUE_FRONTEND_GAMMA,
            cpu_s=cal.QUEUE_CPU_S[op] + cal.QUEUE_CPU_PER_KB_S * size_kb,
            cores=cal.TABLE_SERVER_CORES,
            exclusive_s=cal.QUEUE_EXCLUSIVE_S[op],
        )
    # blob: latency floor plus a front-end-curved bulk transfer.
    if op == "download":
        a, gamma = (
            cal.BLOB_DOWNLOAD_FRONTEND_A_MBPS,
            cal.BLOB_DOWNLOAD_FRONTEND_GAMMA,
        )
    else:
        a, gamma = (
            cal.BLOB_UPLOAD_FRONTEND_A_MBPS,
            cal.BLOB_UPLOAD_FRONTEND_GAMMA,
        )
    return _FluidOpModel(
        base_s=cal.BLOB_REQUEST_LATENCY_S,
        fixed_frac=0.8,
        jitter_frac=0.2,
        transfer_mb=size_mb,
        transfer_a_mbps=a,
        transfer_gamma=gamma,
    )


def draw_stationary_latencies(
    model: _FluidOpModel,
    state: _FluidState,
    rng,
    k: int,
    timeout_s: Optional[float] = None,
):
    """Vectorized per-request latency draws for one stationary window.

    Stage by stage, the same shape as the event-level path —
    deterministic floor + exponential jitter + exponential stage times —
    in the exact draw order the closed batched driver uses (that driver
    calls this helper, so the order is pinned by its bit-identity
    tests).  Returns ``(latencies, failed)``: overload shedding and the
    client-side timeout clamp mark failures, exactly as the driver
    aborts members.
    """
    # ``draws + floor`` in place: float addition commutes bit for bit.
    lat = rng.exponential_batch(model.base_s * model.jitter_frac, k)
    lat += model.base_s * model.fixed_frac
    if state.frontend_mean_s > 0:
        lat += rng.exponential_batch(state.frontend_mean_s, k)
    if model.cpu_s > 0:
        lat += rng.exponential_batch(model.cpu_s, k)
    if state.cpu_wait_s > 1e-12:
        lat += rng.exponential_batch(state.cpu_wait_s, k)
    if model.exclusive_s > 0:
        lat += rng.exponential_batch(model.exclusive_s, k)
    if state.latch_wait_s > 1e-12:
        lat += rng.exponential_batch(state.latch_wait_s, k)
    if state.transfer_s > 0:
        lat += state.transfer_s

    failed = np.zeros(k, dtype=bool)
    if state.shed_probability > 0:
        failed |= (
            rng.uniform_batch(0.0, 1.0, k) < state.shed_probability
        )
    if timeout_s is not None:
        failed |= lat > timeout_s
        np.minimum(lat, timeout_s, out=lat)
    return lat, failed


__all__ = [
    "draw_stationary_latencies",
    "solve_stationary",
    "stationary_op_model",
]
