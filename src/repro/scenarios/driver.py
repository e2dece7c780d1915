"""The unified scenario driver.

One engine runs any :class:`~repro.scenarios.spec.ScenarioSpec`:

* **exact mode** (populations up to the platform's host count) — one
  kernel process per client through the real client stack, on the
  shared harness primitives (:func:`~repro.workloads.harness.run_clients`
  and :class:`~repro.workloads.harness.ClientRun`) and one client loop;
* **batched mode** (10^4+ clients) — both arrival kinds price requests
  with the fluid model of :mod:`repro.workloads.cohort`.  Closed-loop
  specs split the population across the mix and drive each op's share
  from one kernel process over numpy arrays (streams ``cohort.latency``,
  ``cohort.think``, ``cohort.arrival``); open-arrival specs run a
  windowed stationary solver without a kernel: per window, the realized
  MMPP/diurnal rate integral sets a Poisson op count, the fixed point
  prices each op's response time, and the latencies are drawn
  vectorized.  Both clamp at the spec's timeout, or else each service
  client's own default.

Bit-reproducibility contract: every stochastic scenario feature draws
from its own named stream (``scenario.mix``, ``scenario.size``,
``scenario.partition``, ``scenario.think``, ``scenario.link``,
``scenario.burst``, ``scenario.arrival``), and a *degenerate* feature
(single-op mix, constant sizes, no think/skew/link, no ramp) makes
**zero** draws and never even touches its stream.  That is why the
fig1/fig2/fig3 specs replay the historical hand-written benches
byte-for-byte (pinned by the golden digests): their event schedules and
RNG consumption are identical to the old ``client_proc`` closures.

Exact-mode state naming matches the benches: the ``"bench"``
container/table/queue namespace, ``shared-1gb`` / ``up-{idx}`` blobs,
``("bench-pk", "shared-row")`` shared entities and ``c{idx}-r{op_i}``
rows, ``m-{idx}-{i}`` messages.  A Zipf router prefixes partitioned
variants (``p{k}`` partition keys, ``bench-p{k}`` queues,
``obj-p{k}``/``seg-p{k}-{j}`` blobs); empirical blob-download sizes map
onto one pre-seeded segment object per support value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Generator, List, Optional, Sequence, Tuple

import numpy as np

from repro import calibration as cal
from repro.scenarios.arrivals import ArrivalProcess
from repro.scenarios.skew import ZipfRouter
from repro.scenarios.spec import (
    LinkSpec,
    OpSpec,
    PhaseSpec,
    ScenarioSpec,
    SkewSpec,
)
from repro.service.tracing import RequestTracer
from repro.simcore import Distribution, Environment, RandomStreams
from repro.workloads.harness import (
    ClientRun,
    Platform,
    build_platform,
    run_clients,
    sweep,
)

#: Largest population ``mode="auto"`` simulates exactly (the default
#: platform's host count); beyond this the driver goes batched.
EXACT_MAX_SCENARIO_CLIENTS = 256

#: Closed batched mode's aggregation quantum: client wakes within one
#: window share one kernel event.
_BATCH_WINDOW_S = 0.05

#: Each service client's default timeout (``BlobClient`` has none: the
#: SDK streamed large transfers with per-chunk timeouts).
_CLIENT_TIMEOUT_S: Dict[str, Optional[float]] = {
    "table": cal.TABLE_CLIENT_TIMEOUT_S,
    "queue": 30.0,
    "blob": None,
}


class LinkDropError(Exception):
    """A request exceeded its last-mile link's retransmission budget."""


# -- results ---------------------------------------------------------------


@dataclass
class ScenarioRunResult:
    """One scenario run at one population size (both modes)."""

    scenario: str
    mode: str
    n_clients: int
    seed: int
    makespan_s: float = 0.0
    ops_completed: int = 0
    errors: int = 0
    failed_clients: int = 0
    latency_mean_s: float = 0.0
    latency_p50_s: float = 0.0
    latency_p99_s: float = 0.0
    #: Per-``service.op`` rollup (count/error/latency columns).
    per_op: Dict[str, Dict[str, float]] = field(default_factory=dict)
    #: Exact mode: per-phase client rows, in completion order (the
    #: bench-compatibility wrappers read these).
    phase_outcomes: Dict[str, List[ClientRun]] = field(default_factory=dict)
    phase_makespans: Dict[str, float] = field(default_factory=dict)
    #: Open batched mode: per-window records (t0/t1/expected_ops/ops/
    #: errors) — the arrival property tests compare expected vs actual.
    windows: List[Dict[str, float]] = field(default_factory=list)
    #: Analytic skew block when the spec routes by partition.
    skew: Optional[Dict[str, float]] = None
    #: Serialized :meth:`~repro.service.tracing.RequestTracer.snapshot`
    #: of the run's tracer — catalog sidecar only, deliberately NOT part
    #: of :meth:`summary` (the golden digests pin ``summary()``).
    tracer_snapshot: Optional[Dict[str, Any]] = None

    @property
    def aggregate_ops_per_s(self) -> float:
        if self.makespan_s <= 0:
            return 0.0
        return self.ops_completed / self.makespan_s

    def summary(self) -> Dict[str, Any]:
        """The JSON document one run emits (schema-checked in CI)."""
        out: Dict[str, Any] = {
            "scenario": self.scenario,
            "mode": self.mode,
            "n_clients": self.n_clients,
            "seed": self.seed,
            "makespan_s": self.makespan_s,
            "ops_completed": self.ops_completed,
            "errors": self.errors,
            "failed_clients": self.failed_clients,
            "aggregate_ops_per_s": self.aggregate_ops_per_s,
            "latency_mean_s": self.latency_mean_s,
            "latency_p50_s": self.latency_p50_s,
            "latency_p99_s": self.latency_p99_s,
            "per_op": {k: dict(v) for k, v in sorted(self.per_op.items())},
        }
        if self.windows:
            out["windows"] = {
                "count": len(self.windows),
                "expected_ops": float(
                    sum(w["expected_ops"] for w in self.windows)
                ),
                "ops": int(sum(w["ops"] for w in self.windows)),
                "errors": int(sum(w["errors"] for w in self.windows)),
            }
        if self.skew is not None:
            out["skew"] = dict(self.skew)
        return out

    def render(self) -> str:
        doc = self.summary()
        lines = [
            f"scenario {doc['scenario']} ({doc['mode']} driver, "
            f"seed {doc['seed']}): {doc['n_clients']:,} clients"
        ]
        for key in (
            "makespan_s", "ops_completed", "errors", "failed_clients",
            "aggregate_ops_per_s", "latency_mean_s", "latency_p50_s",
            "latency_p99_s",
        ):
            lines.append(f"  {key:20s} {doc[key]:>16,.4f}")
        for op, row in doc["per_op"].items():
            lines.append(
                f"  {op:20s} ops={row['ops']:,.0f} "
                f"errors={row['errors']:,.0f} "
                f"mean={row['latency_mean_s'] * 1000:.1f}ms "
                f"p99={row['latency_p99_s'] * 1000:.1f}ms"
            )
        if "windows" in doc:
            w = doc["windows"]
            lines.append(
                f"  windows              {w['count']} "
                f"(expected {w['expected_ops']:,.0f} ops, "
                f"observed {w['ops']:,} + {w['errors']:,} errors)"
            )
        if "skew" in doc:
            s = doc["skew"]
            lines.append(
                f"  skew                 {s['partitions']:.0f} partitions, "
                f"theta={s['theta']}, top share {s['top_share']:.3f}, "
                f"effective {s['effective_partitions']:.1f}"
            )
        return "\n".join(lines)


def _skew_block(skew: SkewSpec) -> Dict[str, float]:
    router = ZipfRouter(skew)
    return {
        "partitions": float(skew.partitions),
        "theta": skew.theta,
        "top_share": router.top_share(),
        "effective_partitions": router.effective_partitions(),
    }


def _op_stats(
    tracer: RequestTracer,
) -> Tuple[Dict[str, Dict[str, float]], Tuple[float, float, float]]:
    """Per-op rollup from the shared tracer, plus the count-weighted
    aggregate (mean, p50, p99) across ops."""
    totals = tracer.client_per_op_totals()
    hists = tracer.client_latency_histograms()
    per_op: Dict[str, Dict[str, float]] = {}
    weight = mean_acc = p50_acc = p99_acc = 0.0
    for key in sorted(totals):
        agg = totals[key]
        hist = hists.get(key)
        entry = {
            "ops": float(agg["count"] - agg["errors"]),
            "errors": float(agg["errors"]),
            "latency_mean_s": 0.0,
            "latency_p50_s": 0.0,
            "latency_p99_s": 0.0,
        }
        if hist is not None and hist.count:
            entry["latency_mean_s"] = hist.mean
            entry["latency_p50_s"] = hist.percentile(50)
            entry["latency_p99_s"] = hist.percentile(99)
            weight += hist.count
            mean_acc += hist.count * entry["latency_mean_s"]
            p50_acc += hist.count * entry["latency_p50_s"]
            p99_acc += hist.count * entry["latency_p99_s"]
        per_op[key[1]] = entry
    if weight > 0:
        return per_op, (mean_acc / weight, p50_acc / weight, p99_acc / weight)
    return per_op, (0.0, 0.0, 0.0)


def _largest_remainder(n: int, weights: Sequence[float]) -> List[int]:
    """Split ``n`` clients across ops proportionally (quotas floor-ed,
    remainder to the largest fractional parts, lower index first)."""
    quotas = [n * w for w in weights]
    alloc = [int(q) for q in quotas]
    short = n - sum(alloc)
    order = sorted(range(len(weights)), key=lambda i: -(quotas[i] - alloc[i]))
    for i in range(short):
        alloc[order[i % len(order)]] += 1
    return alloc


# -- exact mode ------------------------------------------------------------


def _phase_services(phase: PhaseSpec) -> Tuple[str, ...]:
    used = {op.service for op in phase.ops}
    return tuple(s for s in ("blob", "table", "queue") if s in used)


def _service_retry(phase: PhaseSpec, service: str) -> str:
    for op in phase.ops:
        if op.service == service:
            return op.retry
    return "none"


def _make_clients(
    spec: ScenarioSpec, phase: PhaseSpec, p: Platform, idx: int
) -> Dict[str, Any]:
    """Construct the phase's service clients, exactly as the benches
    did: no kwargs beyond what the spec demands, so degenerate specs
    build byte-identical clients."""
    from repro.client import BlobClient, QueueClient, TableClient
    from repro.resilience.backoff import NO_RETRY

    clients: Dict[str, Any] = {}
    for service in _phase_services(phase):
        kwargs: Dict[str, Any] = {}
        if _service_retry(phase, service) == "none":
            kwargs["retry"] = NO_RETRY
        if spec.timeout_s is not None:
            kwargs["timeout_s"] = spec.timeout_s
        if service == "blob":
            clients[service] = BlobClient(
                p.account.blobs, p.clients[idx], **kwargs
            )
        elif service == "table":
            clients[service] = TableClient(p.account.tables, **kwargs)
        else:
            clients[service] = QueueClient(p.account.queues, **kwargs)
    return clients


def _download_names(op: OpSpec, partitions: Optional[int]) -> Dict[Any, str]:
    """Blob-download object map: drawn size value -> seeded object name
    (``None`` partition key for unskewed specs)."""
    names: Dict[Any, str] = {}
    if op.size_mb is not None and op.size_mb.kind == "empirical":
        values = op.size_mb.params["values"]
        if partitions is None:
            for j, v in enumerate(values):
                names[v] = f"seg-{j}"
        else:
            for part in range(partitions):
                for j, v in enumerate(values):
                    names[(part, v)] = f"seg-p{part}-{j}"
    elif partitions is None:
        names[None] = "shared-1gb"
    else:
        for part in range(partitions):
            names[part] = f"obj-p{part}"
    return names


def _setup_services(
    spec: ScenarioSpec,
    p: Platform,
    n_clients: int,
    router: Optional[ZipfRouter],
) -> None:
    """Administratively pre-create the service state the ops need —
    the same calls, in the same order, as the benches (no events, no
    RNG draws, so setup never perturbs the measured run)."""
    from repro.storage.queue import QueueMessage
    from repro.storage.table import make_entity

    parts = router.n_partitions if router is not None else None
    all_ops = spec.all_ops
    services = spec.services
    if "blob" in services:
        blobs = p.account.blobs
        blobs.create_container("bench")
        for op in all_ops:
            if op.op != "download":
                continue
            if op.size_mb is not None and op.size_mb.kind == "empirical":
                values = op.size_mb.params["values"]
                if parts is None:
                    for j, v in enumerate(values):
                        blobs.seed_blob("bench", f"seg-{j}", float(v))
                else:
                    for part in range(parts):
                        for j, v in enumerate(values):
                            blobs.seed_blob(
                                "bench", f"seg-p{part}-{j}", float(v)
                            )
            elif parts is None:
                blobs.seed_blob("bench", "shared-1gb", op.mean_size_mb)
            else:
                for part in range(parts):
                    blobs.seed_blob(
                        "bench", f"obj-p{part}", op.mean_size_mb
                    )
    if "table" in services:
        tables = p.account.tables
        tables.create_table("bench")
        shared_op = next(
            (
                op
                for op in all_ops
                if op.service == "table" and op.op in ("query", "update")
            ),
            None,
        )
        pks = (
            ["bench-pk"] if parts is None else [f"p{i}" for i in range(parts)]
        )
        if shared_op is not None:
            tables.seed_entities(
                "bench",
                (
                    make_entity(pk, "shared-row", size_kb=shared_op.mean_size_kb)
                    for pk in pks
                ),
            )
        # A single-op delete phase deletes the c{idx}-r{op_i} rows: seed
        # them unless an earlier phase inserts (or seeded) them.
        rows_exist = False
        for phase in spec.phases:
            keys = [op.key for op in phase.ops]
            if keys == ["table.delete"] and not rows_exist:
                size_kb = phase.ops[0].mean_size_kb
                tables.seed_entities(
                    "bench",
                    (
                        make_entity(pk, f"c{idx}-r{op_i}", size_kb=size_kb)
                        for pk in pks
                        for idx in range(n_clients)
                        for op_i in range(phase.ops_per_client)
                    ),
                )
                rows_exist = True
            rows_exist = rows_exist or "table.insert" in keys
    if "queue" in services:
        queues = p.account.queues
        qnames = (
            ["bench"] if parts is None else [f"bench-p{i}" for i in range(parts)]
        )
        for qname in qnames:
            queues.create_queue(qname)
        read_op = next(
            (
                op
                for op in all_ops
                if op.service == "queue" and op.op in ("peek", "receive")
            ),
            None,
        )
        if read_op is not None:
            reads_per_client = sum(
                ph.ops_per_client
                for ph in spec.phases
                if any(
                    o.service == "queue" and o.op in ("peek", "receive")
                    for o in ph.ops
                )
            )
            needed = (
                spec.queue_prefill
                if spec.queue_prefill is not None
                else n_clients * reads_per_client + 1000
            )
            for qname in qnames:
                state = queues._queues[qname]
                for i in range(needed):
                    state.push(
                        QueueMessage(
                            payload=i,
                            size_kb=read_op.mean_size_kb,
                            visible_at=0.0,
                        )
                    )


class _ExactContext:
    """Per-phase shared state for the exact engine's op closures."""

    def __init__(
        self,
        spec: ScenarioSpec,
        phase: PhaseSpec,
        p: Platform,
        router: Optional[ZipfRouter],
    ) -> None:
        self.spec = spec
        self.phase = phase
        self.env = p.env
        self.router = router
        streams = p.streams
        self.multi = len(phase.ops) > 1
        self.cum_weights = (
            np.cumsum(phase.weights) if self.multi else None
        )
        self.mix_rng = streams.stream("scenario.mix") if self.multi else None
        self.part_rng = (
            streams.stream("scenario.partition") if router is not None else None
        )
        needs_size = any(
            (op.size_kb is not None and op.size_kb.kind != "constant")
            or (
                op.size_mb is not None
                and op.size_mb.kind != "constant"
                and not (op.service == "blob" and op.op == "download")
            )
            for op in phase.ops
        )
        needs_seg_draw = any(
            op.service == "blob"
            and op.op == "download"
            and op.size_mb is not None
            and op.size_mb.kind == "empirical"
            for op in phase.ops
        )
        self.size_rng = (
            streams.stream("scenario.size")
            if needs_size or needs_seg_draw
            else None
        )
        link = spec.link
        self.link_rng = (
            streams.stream("scenario.link")
            if link is not None and link.loss_rate > 0
            else None
        )
        #: drawn-size -> object-name maps per blob-download op key.
        self.download_names = {
            op.key: _download_names(
                op, router.n_partitions if router else None
            )
            for op in phase.ops
            if op.service == "blob" and op.op == "download"
        }
        #: mixed-phase delete support: per-client stacks of inserted keys.
        self.track_inserts = self.multi and any(
            op.service == "table" and op.op == "delete" for op in phase.ops
        )
        self.inserted: Dict[int, List[Tuple[str, str]]] = {}

    def choose_op(self) -> OpSpec:
        if not self.multi:
            return self.phase.ops[0]
        u = float(self.mix_rng.random())
        i = int(np.searchsorted(self.cum_weights, u, side="right"))
        return self.phase.ops[min(i, len(self.phase.ops) - 1)]

    def choose_partition(self) -> Optional[int]:
        if self.router is None:
            return None
        return self.router.route(float(self.part_rng.random()))

    def draw_kb(self, op: OpSpec) -> float:
        if op.size_kb is not None and op.size_kb.kind != "constant":
            return float(op.size_kb.sample(self.size_rng))
        return op.mean_size_kb

    def draw_mb(self, op: OpSpec) -> float:
        if op.size_mb is not None and op.size_mb.kind != "constant":
            return float(op.size_mb.sample(self.size_rng))
        return op.mean_size_mb


def _execute_op(
    ctx: _ExactContext,
    op: OpSpec,
    clients: Dict[str, Any],
    idx: int,
    op_i: int,
) -> Generator:
    """One service operation, with partition routing, size draws and
    the optional last-mile link wrapped around the service call."""
    from repro.storage.table import make_entity

    env = ctx.env
    client = clients[op.service]
    part = ctx.choose_partition()
    payload_mb = 0.0

    if op.service == "blob":
        if op.op == "download":
            names = ctx.download_names[op.key]
            if op.size_mb is not None and op.size_mb.kind == "empirical":
                v = float(op.size_mb.sample(ctx.size_rng))
                name = names[v if part is None else (part, v)]
                payload_mb = v
            else:
                name = names[part]
                payload_mb = op.mean_size_mb
            inner = client.download("bench", name)
        else:
            size_mb = ctx.draw_mb(op)
            payload_mb = size_mb
            if not ctx.multi and ctx.phase.ops_per_client == 1:
                name = f"up-{idx}"
            else:
                name = f"up-{idx}-{op_i}"
            inner = client.upload("bench", name, size_mb)
    elif op.service == "table":
        pk = "bench-pk" if part is None else f"p{part}"
        if op.op == "insert":
            rk = f"c{idx}-r{op_i}"
            size_kb = ctx.draw_kb(op)
            payload_mb = size_kb / 1024.0
            if ctx.track_inserts:
                ctx.inserted.setdefault(idx, []).append((pk, rk))
            inner = client.insert(
                "bench", make_entity(pk, rk, size_kb=size_kb)
            )
        elif op.op == "query":
            payload_mb = op.mean_size_kb / 1024.0
            inner = client.query("bench", pk, "shared-row")
        elif op.op == "update":
            size_kb = ctx.draw_kb(op)
            payload_mb = size_kb / 1024.0
            inner = client.update(
                "bench", make_entity(pk, "shared-row", size_kb=size_kb)
            )
        else:  # delete
            payload_mb = op.mean_size_kb / 1024.0
            if ctx.track_inserts:
                stack = ctx.inserted.get(idx)
                if stack:
                    del_pk, del_rk = stack.pop()
                    inner = client.delete("bench", del_pk, del_rk)
                else:
                    # Nothing of ours to delete yet: insert instead (a
                    # delete-heavy mix stays mass-balanced this way).
                    rk = f"c{idx}-r{op_i}"
                    size_kb = ctx.draw_kb(op)
                    inner = client.insert(
                        "bench", make_entity(pk, rk, size_kb=size_kb)
                    )
            else:
                inner = client.delete("bench", pk, f"c{idx}-r{op_i}")
    else:  # queue
        qname = "bench" if part is None else f"bench-p{part}"
        if op.op == "add":
            size_kb = ctx.draw_kb(op)
            payload_mb = size_kb / 1024.0
            inner = client.add(qname, f"m-{idx}-{op_i}", size_kb)
        elif op.op == "peek":
            payload_mb = op.mean_size_kb / 1024.0
            inner = client.peek(qname)
        else:
            payload_mb = op.mean_size_kb / 1024.0
            if op.visibility_timeout_s is not None:
                inner = client.receive(
                    qname, visibility_timeout_s=op.visibility_timeout_s
                )
            else:
                inner = client.receive(qname)

    link = ctx.spec.link
    if link is None:
        yield from inner
        return
    if link.extra_latency_ms > 0:
        yield env.timeout(link.extra_latency_ms / 1000.0)
    if ctx.link_rng is not None:
        retransmits = 0
        while float(ctx.link_rng.random()) < link.loss_rate:
            retransmits += 1
            if retransmits > link.max_retransmits:
                raise LinkDropError(
                    f"{op.key}: dropped after {link.max_retransmits} "
                    "retransmits"
                )
            yield env.timeout(link.retransmit_penalty_ms / 1000.0)
    yield from inner
    if link.bandwidth_mbps is not None and payload_mb > 0:
        yield env.timeout(payload_mb / link.bandwidth_mbps)


def _run_scenario_exact(
    spec: ScenarioSpec,
    n_clients: int,
    seed: int,
    platform: Optional[Platform] = None,
) -> ScenarioRunResult:
    p = platform or build_platform(seed=seed, n_clients=n_clients)
    router = (
        ZipfRouter(spec.skew)
        if spec.skew is not None and spec.skew.partitions > 1
        else None
    )
    _setup_services(spec, p, n_clients, router)
    env = p.env
    streams = p.streams
    result = ScenarioRunResult(spec.name, "exact", n_clients, seed)
    err_counter = {"n": 0}
    think = spec.arrival.think
    think_rng = (
        streams.stream("scenario.think") if think is not None else None
    )
    ramp_rng = (
        streams.stream("scenario.arrival") if spec.ramp_s > 0 else None
    )
    process: Optional[ArrivalProcess] = None
    arrival_rng = None
    if spec.arrival.is_open:
        assert spec.duration_s is not None
        burst_rng = (
            streams.stream("scenario.burst")
            if spec.arrival.kind == "mmpp"
            else None
        )
        process = ArrivalProcess(spec.arrival, spec.duration_s, rng=burst_rng)
        arrival_rng = streams.stream("scenario.arrival")

    total_start = env.now
    for phase in spec.phases:
        ctx = _ExactContext(spec, phase, p, router)
        outcomes: List[ClientRun] = []

        def make_proc(
            phase: PhaseSpec = phase,
            ctx: _ExactContext = ctx,
            outcomes: List[ClientRun] = outcomes,
        ) -> Callable[[Environment, int], Generator]:
            def proc(env: Environment, idx: int) -> Generator:
                clients = _make_clients(spec, phase, p, idx)

                def one_op(op_i: int) -> Generator:
                    op = ctx.choose_op()
                    yield from _execute_op(ctx, op, clients, idx, op_i)
                    if think is not None and not spec.arrival.is_open:
                        yield env.timeout(think.sample(think_rng))

                if spec.ramp_s > 0:
                    yield env.timeout(
                        float(ramp_rng.uniform(0.0, spec.ramp_s))
                    )
                yield from _client_loop(
                    env, idx, one_op, outcomes, err_counter,
                    spec.abort_on_error, phase.ops_per_client,
                    process, arrival_rng,
                )

            return proc

        makespan = run_clients(p, n_clients, make_proc())
        result.phase_outcomes[phase.name] = outcomes
        result.phase_makespans[phase.name] = makespan

    result.makespan_s = env.now - total_start
    all_outcomes = [
        o for rows in result.phase_outcomes.values() for o in rows
    ]
    result.ops_completed = sum(o.ops_completed for o in all_outcomes)
    result.failed_clients = sum(1 for o in all_outcomes if not o.finished)
    result.errors = result.failed_clients + err_counter["n"]
    if p.tracer is not None:
        result.per_op, roll = _op_stats(p.tracer)
        (
            result.latency_mean_s,
            result.latency_p50_s,
            result.latency_p99_s,
        ) = roll
        result.tracer_snapshot = p.tracer.snapshot()
    if spec.skew is not None:
        result.skew = _skew_block(spec.skew)
    return result


def _client_loop(
    env: Environment,
    idx: int,
    one_op: Callable[[int], Generator],
    outcomes: List[ClientRun],
    err_counter: Dict[str, int],
    abort_on_error: bool,
    n_ops: int,
    process: Optional[ArrivalProcess] = None,
    arrival_rng: Any = None,
) -> Generator:
    """One exact-mode client: ``n_ops`` operations back to back (closed
    arrivals), or, given an arrival ``process``, one operation per
    arrival drawn by thinning against the realized rate envelope, served
    one at a time (a slow service lags arrivals).

    With ``abort_on_error`` — the paper's benchmark programs ("only 89
    clients successfully finished all 500 insert operations") — the
    first exception ends the client and is recorded as its ``error``,
    which the run counts through ``failed_clients`` alone; otherwise
    failed ops go to ``err_counter`` and the client keeps going.  One
    :class:`ClientRun` row records how far the client got.
    """
    start = env.now
    completed = 0
    error = None
    t_rel = 0.0
    op_i = 0
    while True:
        if process is None:
            if op_i >= n_ops:
                break
        else:
            t_rel = process.next_arrival(t_rel, arrival_rng)
            if t_rel >= process.duration_s:
                break
            target = start + t_rel
            if target > env.now:
                yield env.timeout(target - env.now)
        try:
            yield from one_op(op_i)
            completed += 1
        except Exception as exc:  # noqa: BLE001 - errors are the measurement
            if abort_on_error:
                error = type(exc).__name__
                break
            err_counter["n"] += 1
        op_i += 1
    outcomes.append(ClientRun(idx, completed, env.now - start, error))


# -- batched mode ----------------------------------------------------------


def _link_overhead_s(link: LinkSpec, op: OpSpec) -> float:
    """Mean per-request link delay (closed batched folds this into the
    think time; open batched draws the stochastic parts per request)."""
    payload_mb = (
        op.mean_size_mb if op.service == "blob" else op.mean_size_kb / 1024.0
    )
    extra = link.extra_latency_ms / 1000.0
    extra += link.mean_retransmits * link.retransmit_penalty_ms / 1000.0
    if link.bandwidth_mbps is not None:
        extra += payload_mb / link.bandwidth_mbps
    return extra


def _fluid_timeout_s(spec: ScenarioSpec, service: str) -> Optional[float]:
    """The timeout both batched engines clamp at: the spec's, or else
    that service client's own default, as in exact mode."""
    if spec.timeout_s is not None:
        return spec.timeout_s
    return _CLIENT_TIMEOUT_S[service]


def _closed_think(spec: ScenarioSpec, op: OpSpec) -> Optional[Distribution]:
    """The think time of ``op``'s batched clients.  The fluid model has
    no event-level link, so a last-mile link's mean per-request delay
    folds into a constant think time: the loop slows by the same
    average amount."""
    think = spec.arrival.think
    extra_s = 0.0 if spec.link is None else _link_overhead_s(spec.link, op)
    if extra_s > 0:
        think = Distribution.constant(
            (think.mean if think is not None else 0.0) + extra_s
        )
    return think


def _drive_closed_op(
    spec: ScenarioSpec,
    op: OpSpec,
    n: int,
    ops_per_client: int,
    seed: int,
    tracer: RequestTracer,
) -> Tuple[int, int, float]:
    """``n`` closed-loop clients issuing ``op`` through one kernel
    process: every client's next-wake time and remaining-op count live
    in numpy arrays, the process wakes once per batch window, draws the
    window's latencies and think times vectorized and folds completions
    into ``tracer``.  A client aborts at its first failure (overload
    shed or timeout).  Returns ``(ops, errors, makespan_s)``."""
    from repro.workloads.cohort import (
        draw_stationary_latencies,
        solve_stationary,
        stationary_op_model,
    )

    env = Environment()
    model = stationary_op_model(
        op.service, op.op, op.mean_size_kb, op.mean_size_mb
    )
    timeout_s = _fluid_timeout_s(spec, op.service)
    think = _closed_think(spec, op)
    think_mean = think.mean if think is not None else 0.0
    streams = RandomStreams(seed)
    lat_rng = streams.batched("cohort.latency")
    think_rng = streams.batched("cohort.think")
    arrival_rng = streams.batched("cohort.arrival")

    next_wake = np.full(n, env.now, dtype=float)
    if spec.ramp_s > 0:
        next_wake += arrival_rng.uniform_batch(0.0, spec.ramp_s, n)
    ops_left = np.full(n, ops_per_client, dtype=np.int64)
    alive = np.ones(n, dtype=bool)
    totals = {"ops": 0, "errors": 0, "finish": env.now}

    def driver(env: Environment) -> Generator:
        state = solve_stationary(model, float(n), think_mean)
        solved_for = n
        while True:
            live_idx = np.flatnonzero(alive)
            if live_idx.size == 0:
                break
            wakes = next_wake[live_idx]
            t_next = float(wakes.min())
            if t_next > env.now:
                yield env.timeout(t_next - env.now)
            due = live_idx[wakes <= env.now + _BATCH_WINDOW_S]
            k = int(due.size)
            if k == 0:  # numeric corner: re-loop and resync the clock
                continue
            remaining = int(alive.sum())
            if abs(remaining - solved_for) > max(1, solved_for // 20):
                state = solve_stationary(model, float(remaining), think_mean)
                solved_for = remaining

            lat, failed = draw_stationary_latencies(
                model, state, lat_rng, k, timeout_s=timeout_s
            )
            ok = ~failed
            n_ok = int(ok.sum())
            tracer.observe_batch(
                f"account.{op.service}s", op.key, lat[ok],
                errors=k - n_ok, client=True,
            )
            totals["ops"] += n_ok
            totals["errors"] += k - n_ok

            done_at = next_wake[due] + lat
            totals["finish"] = max(totals["finish"], float(done_at.max()))
            ops_left[due] -= 1
            dead = failed | (ops_left[due] <= 0)
            alive[due[dead]] = False
            cont = due[~dead]
            if cont.size:
                wake_next = done_at[~dead]
                if think is not None:
                    wake_next = wake_next + think_rng.draw_batch(
                        think, int(cont.size)
                    )
                next_wake[cont] = wake_next
        if totals["finish"] > env.now:
            yield env.timeout(totals["finish"] - env.now)

    env.process(driver(env))
    env.run()
    return totals["ops"], totals["errors"], env.now


def _run_closed_batched(
    spec: ScenarioSpec, n_clients: int, seed: int
) -> ScenarioRunResult:
    """Closed-loop spec at 10^4+ clients: split the population across
    the mix by weight (largest remainder) and drive each op's share
    batched, all folding into one shared tracer.  Batched clients abort
    at their first failure, so every error is a failed client."""
    tracer = RequestTracer()
    result = ScenarioRunResult(spec.name, "batched", n_clients, seed)
    op_index = 0
    for phase in spec.phases:
        alloc = _largest_remainder(n_clients, phase.weights)
        phase_makespan = 0.0
        for op, n_op in zip(phase.ops, alloc):
            if n_op == 0:
                continue
            ops, errors, makespan = _drive_closed_op(
                spec, op, n_op, phase.ops_per_client,
                seed + 1009 * op_index, tracer,
            )
            op_index += 1
            result.ops_completed += ops
            result.errors += errors
            result.failed_clients += errors
            phase_makespan = max(phase_makespan, makespan)
        result.phase_makespans[phase.name] = phase_makespan
        result.makespan_s += phase_makespan
    result.per_op, roll = _op_stats(tracer)
    result.latency_mean_s, result.latency_p50_s, result.latency_p99_s = roll
    result.tracer_snapshot = tracer.snapshot()
    if spec.skew is not None:
        result.skew = _skew_block(spec.skew)
    return result


def _apply_link_batched(
    link: LinkSpec,
    op: OpSpec,
    lat: np.ndarray,
    failed: np.ndarray,
    size_rng: Any,
    link_rng: Any,
) -> Tuple[np.ndarray, np.ndarray]:
    """Vectorized last-mile adjustment: propagation + serialization +
    geometric retransmissions (drop beyond the budget)."""
    k = int(lat.size)
    if op.service == "blob":
        if op.size_mb is not None and op.size_mb.kind != "constant":
            payload = size_rng.draw_batch(op.size_mb, k)
        else:
            payload = np.full(k, op.mean_size_mb)
    else:
        if op.size_kb is not None and op.size_kb.kind != "constant":
            payload = size_rng.draw_batch(op.size_kb, k) / 1024.0
        else:
            payload = np.full(k, op.mean_size_kb / 1024.0)
    lat = lat + link.extra_latency_ms / 1000.0
    if link.bandwidth_mbps is not None:
        lat = lat + payload / link.bandwidth_mbps
    if link.loss_rate > 0:
        u = np.maximum(link_rng.uniform_batch(0.0, 1.0, k), 1e-300)
        retransmits = np.floor(
            np.log(u) / math.log(link.loss_rate)
        ).astype(np.int64)
        lat = lat + np.minimum(retransmits, link.max_retransmits) * (
            link.retransmit_penalty_ms / 1000.0
        )
        failed = failed | (retransmits > link.max_retransmits)
    return lat, failed


def _run_open_batched(
    spec: ScenarioSpec, n_clients: int, seed: int
) -> ScenarioRunResult:
    """Open-arrival spec at 10^4+ clients, without a kernel: per
    aggregation window, the realized MMPP/diurnal rate integral sets a
    Poisson op count, the fluid stationary solver prices each op's
    response at that offered rate, and latencies are drawn vectorized
    into the shared tracer."""
    from repro.workloads.cohort import (
        draw_stationary_latencies,
        solve_stationary,
        stationary_op_model,
    )

    assert spec.duration_s is not None
    phase = spec.phases[0]
    streams = RandomStreams(seed)
    burst_rng = (
        streams.stream("scenario.burst")
        if spec.arrival.kind == "mmpp"
        else None
    )
    process = ArrivalProcess(spec.arrival, spec.duration_s, rng=burst_rng)
    arrival_rng = streams.stream("scenario.arrival")
    mix_rng = streams.stream("scenario.mix") if len(phase.ops) > 1 else None
    lat_rng = streams.batched("scenario.latency")
    size_rng = streams.batched("scenario.size")
    link_rng = streams.batched("scenario.link")
    tracer = RequestTracer()
    result = ScenarioRunResult(spec.name, "batched", n_clients, seed)

    wins, expected, counts = process.window_counts(
        spec.window_s, n_clients, arrival_rng
    )
    weights = np.asarray(phase.weights)
    models = {
        op.key: stationary_op_model(
            op.service, op.op, op.mean_size_kb, op.mean_size_mb
        )
        for op in phase.ops
    }
    responses: Dict[str, float] = {}
    for (t0, t1), exp_w, cnt in zip(wins, expected, counts):
        rec: Dict[str, float] = {
            "t0": t0,
            "t1": t1,
            "expected_ops": float(exp_w),
            "ops": int(cnt),
            "errors": 0,
        }
        if cnt > 0:
            if mix_rng is not None:
                split = mix_rng.multinomial(int(cnt), weights)
            else:
                split = np.array([int(cnt)])
            for op, w_i, k_op in zip(phase.ops, phase.weights, split):
                if k_op == 0:
                    continue
                model = models[op.key]
                rate = max(exp_w * w_i / (t1 - t0), 1e-12)
                # Open fixed point via a pseudo think time: pick Z so
                # the interactive law's throughput n/(R+Z) equals the
                # offered rate, then re-price R at that concurrency.
                response = responses.get(
                    op.key, model.base_s + model.cpu_s + model.exclusive_s
                )
                state = None
                for _ in range(10):
                    think_z = max(n_clients / rate - response, 1e-9)
                    state = solve_stationary(
                        model, float(n_clients), think_z
                    )
                    if abs(state.response_s - response) < 1e-9:
                        response = state.response_s
                        break
                    response = state.response_s
                responses[op.key] = response
                lat, failed = draw_stationary_latencies(
                    model, state, lat_rng, int(k_op),
                    timeout_s=_fluid_timeout_s(spec, op.service),
                )
                if spec.link is not None:
                    lat, failed = _apply_link_batched(
                        spec.link, op, lat, failed, size_rng, link_rng
                    )
                ok = ~failed
                n_ok = int(ok.sum())
                n_bad = int(k_op) - n_ok
                tracer.observe_batch(
                    f"account.{op.service}s", op.key, lat[ok],
                    errors=n_bad, client=True,
                )
                result.ops_completed += n_ok
                result.errors += n_bad
                rec["errors"] = int(rec["errors"]) + n_bad
        result.windows.append(rec)
    result.makespan_s = float(spec.duration_s)
    result.per_op, roll = _op_stats(tracer)
    result.latency_mean_s, result.latency_p50_s, result.latency_p99_s = roll
    result.tracer_snapshot = tracer.snapshot()
    if spec.skew is not None:
        result.skew = _skew_block(spec.skew)
    return result


# -- entry points ----------------------------------------------------------


def run_scenario(
    spec: ScenarioSpec,
    n_clients: Optional[int] = None,
    seed: Optional[int] = None,
    mode: str = "auto",
    platform: Optional[Platform] = None,
) -> ScenarioRunResult:
    """Run one scenario at one population size.

    ``mode="auto"`` simulates exactly up to
    :data:`EXACT_MAX_SCENARIO_CLIENTS` clients and switches to the
    batched engines beyond; ``"exact"``/``"batched"`` force an engine.
    ``platform`` feeds the exact engine (built fresh when omitted) —
    the bench compatibility wrappers pass theirs through.
    """
    if mode not in ("auto", "exact", "batched"):
        raise ValueError(f"unknown scenario mode {mode!r}")
    n = n_clients if n_clients is not None else spec.n_clients
    if n < 1:
        raise ValueError("n_clients must be >= 1")
    s = spec.default_seed if seed is None else seed
    if mode == "auto":
        mode = "exact" if n <= EXACT_MAX_SCENARIO_CLIENTS else "batched"
    if mode == "exact":
        return _run_scenario_exact(spec, n, s, platform=platform)
    if spec.arrival.is_open:
        return _run_open_batched(spec, n, s)
    return _run_closed_batched(spec, n, s)


def _scenario_trial(
    spec: ScenarioSpec, n: int, seed: int, mode: str
) -> ScenarioRunResult:
    """Top-level (picklable) per-level trial for :func:`sweep_scenario`."""
    return run_scenario(spec, n_clients=n, seed=seed, mode=mode)


def sweep_scenario(
    spec: ScenarioSpec,
    levels: Optional[Sequence[int]] = None,
    seed: Optional[int] = None,
    mode: str = "auto",
    jobs: Optional[int] = 1,
) -> Dict[int, ScenarioRunResult]:
    """Fig-shaped concurrency sweep of one scenario.

    Per-level seeds follow the bench convention (``seed + level``);
    results are merged in level order and are bit-identical for any
    ``jobs`` value.
    """
    lvls = list(levels if levels is not None else spec.levels)
    if not lvls:
        lvls = [spec.n_clients]
    s = spec.default_seed if seed is None else seed
    return sweep(
        _scenario_trial,
        [(spec, n, s + n, mode) for n in lvls],
        lvls,
        jobs=jobs,
    )
