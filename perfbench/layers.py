"""Per-layer self time and counters, measured from outside the program.

:class:`LayerTracer` installs wrappers at the public entry points of each
``repro`` package (the table in :data:`ENTRY_POINTS` below), runs one
workload call, and restores every original afterwards.  Nothing inside
``src/`` knows it is being traced.

Timing model
------------
One stack of active layers, one clock (by default ``time.process_time``,
the clock the end-to-end ``run_s`` uses).  Entering a wrapped call charges the
time since the last mark to the layer on top of the stack and pushes the
callee's layer; leaving charges the callee and pops it.  A layer's self
time is therefore its spans minus the wrapped child spans inside them, and
the self times of all layers plus ``other`` (the root, i.e. everything no
wrapper covers) add up to the traced call's CPU time exactly.

Generator entry points (requests, client ops, the partition server) are
timed per resume: the span opens when the kernel resumes the generator and
closes at its next ``yield``.  A span from first to last yield would also
cover every other process that ran while the request waited in simulated
time.

The wrappers draw no randomness and schedule nothing, so a traced call
must reproduce the untraced call's output digest; the benchmark checks it.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
import weakref
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Layers reported as ``<layer>.self_s``, in report order.
LAYERS = (
    "storage", "network", "simcore", "service", "client", "resilience",
    "faults", "workloads", "scenarios", "observability", "other",
)


class LayerTracer:
    """Wraps the entry points, keeps the layer stack and the counters."""

    def __init__(self, clock: Callable[[], float] = time.process_time) -> None:
        self.clock = clock
        self.self_s: Dict[str, float] = defaultdict(float)
        #: Inclusive seconds of single entry points (scan, hedge delay,
        #: RNG batch draws) and plain counts.
        self.span_s: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, int] = defaultdict(int)
        self._stack: List[str] = ["other"]
        self._mark = 0.0
        #: (owner, attribute, original, owner had it in its own __dict__)
        self._patches: List[Tuple[Any, str, Any, bool]] = []
        self._wrappers: Dict[int, Any] = {}
        self._env_seq: "weakref.WeakKeyDictionary[Any, int]" = (
            weakref.WeakKeyDictionary()
        )

    # -- the layer stack -------------------------------------------------
    def _enter(self, layer: str) -> float:
        now = self.clock()
        self.self_s[self._stack[-1]] += now - self._mark
        self._stack.append(layer)
        self._mark = now
        return now

    def _exit(self, span: Optional[str], entered: float) -> None:
        now = self.clock()
        self.self_s[self._stack.pop()] += now - self._mark
        self._mark = now
        if span:
            self.span_s[span] += now - entered

    def start(self) -> float:
        """Open the root span; returns its start time."""
        self._mark = self.clock()
        return self._mark

    def stop(self) -> float:
        """Close the root span; returns its end time."""
        if self._stack != ["other"]:
            raise RuntimeError(f"unbalanced layer stack: {self._stack}")
        now = self.clock()
        self.self_s["other"] += now - self._mark
        self._mark = now
        return now

    # -- wrapper factories -----------------------------------------------
    def _timed_gen(self, gen, layer, span, token, after):
        """Drive ``gen`` and time each resume as one ``layer`` span."""
        value: Any = None
        error: Optional[BaseException] = None
        while True:
            entered = self._enter(layer)
            try:
                out = gen.send(value) if error is None else gen.throw(error)
            except StopIteration as stop:
                self._exit(span, entered)
                if after:
                    after(token, stop.value, None)
                return stop.value
            except BaseException as exc:
                self._exit(span, entered)
                if after:
                    after(token, None, exc)
                raise
            self._exit(span, entered)
            try:
                value, error = (yield out), None
            except GeneratorExit:
                gen.close()
                raise
            except BaseException as exc:  # thrown in by the kernel
                value, error = None, exc

    def _wrap(self, fn, layer, span=None, before=None, after=None,
              generator=None):
        """A wrapper for ``fn`` that times it as ``layer``.

        ``before(args, kwargs)`` runs at the call and returns a token;
        ``after(token, result, error)`` runs when the call (or, for a
        generator function, the generator) ends.
        """
        if generator is None:
            generator = inspect.isgeneratorfunction(fn)
        if generator:
            def wrapper(*args, **kwargs):
                token = before(args, kwargs) if before else None
                inner = fn(*args, **kwargs)
                gen = self._timed_gen(inner, layer, span, token, after)
                # Processes take their name from the generator.
                gen.__name__, gen.__qualname__ = (
                    inner.__name__, inner.__qualname__
                )
                return gen
        else:
            def wrapper(*args, **kwargs):
                token = before(args, kwargs) if before else None
                entered = self._enter(layer)
                try:
                    result = fn(*args, **kwargs)
                except BaseException as exc:
                    self._exit(span, entered)
                    if after:
                        after(token, None, exc)
                    raise
                self._exit(span, entered)
                if after:
                    after(token, result, None)
                return result
        return wrapper

    # -- patching --------------------------------------------------------
    def _patch(self, owner, name, wrapper) -> None:
        original = getattr(owner, name)
        functools.update_wrapper(wrapper, original)
        self._patches.append((owner, name, original, name in vars(owner)))
        self._wrappers[id(wrapper)] = wrapper
        setattr(owner, name, wrapper)

    def method(self, cls, name, layer, **hooks) -> None:
        """Wrap ``cls.name`` (inherited by subclasses that do not
        override it)."""
        self._patch(cls, name, self._wrap(getattr(cls, name), layer, **hooks))

    def function(self, fn, layer, **hooks) -> None:
        """Wrap a module-level function in every loaded ``repro`` module
        that binds it (``from x import fn`` copies the binding)."""
        wrapper = self._wrap(fn, layer, **hooks)
        for module in _repro_modules():
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._patch(module, attr, wrapper)

    def public_generators(self, cls, layer, skip=(), **hooks) -> None:
        """Wrap every public generator method ``cls`` defines."""
        for name, fn in list(vars(cls).items()):
            if (not name.startswith("_") and name not in skip
                    and inspect.isgeneratorfunction(fn)):
                self.method(cls, name, layer, **hooks)

    def public_functions(self, module, layer, skip=()) -> None:
        """Wrap every public function ``module`` defines."""
        for name, fn in list(vars(module).items()):
            if (inspect.isfunction(fn) and fn.__module__ == module.__name__
                    and not name.startswith("_") and name not in skip):
                self.function(fn, layer)

    def uninstall(self) -> None:
        """Restore every original, newest patch first, then unbind any
        wrapper a module imported while the tracer was installed."""
        originals = {}
        for owner, name, original, own in reversed(self._patches):
            originals[id(getattr(owner, name))] = original
            if own:
                setattr(owner, name, original)
            else:
                delattr(owner, name)
        self._patches.clear()
        for module in _repro_modules():
            for attr, value in list(vars(module).items()):
                if id(value) in self._wrappers:
                    setattr(module, attr, originals[id(value)])
        self._wrappers.clear()

    # -- counters --------------------------------------------------------
    def count(self, metric: str, n: int = 1) -> None:
        self.counts[metric] += n

    def counter(self, metric: str) -> Callable:
        """A ``before`` hook that counts calls as ``metric``."""
        def before(args, kwargs):
            self.counts[metric] += 1
        return before

    def _count_events(self, env) -> None:
        # ``Environment._seq`` numbers every event the kernel schedules;
        # reading it on entry to and exit from ``run`` counts them all.
        seq = env._seq
        self.counts["simcore.events"] += seq - self._env_seq.get(env, 0)
        self._env_seq[env] = seq

    def install(self) -> None:
        """Wrap the entry points listed in :data:`ENTRY_POINTS`."""
        for layer, install in ENTRY_POINTS:
            install(self, layer)

    # -- report ----------------------------------------------------------
    def metrics(self) -> Dict[str, float]:
        c = self.counts
        out: Dict[str, float] = {
            f"{layer}.self_s": self.self_s.get(layer, 0.0)
            for layer in LAYERS
        }
        out.update({
            "storage.requests": c["storage.requests"],
            "storage.scans": c["storage.scans"],
            "storage.scan_s": self.span_s["storage.scan_s"],
            "storage.errors": c["storage.errors"],
            "network.transfers": c["network.transfers"],
            "network.resolves": c["network.resolves"],
            "network.flows_per_resolve": (
                c["network.resolved_flows"] / c["network.resolves"]
                if c["network.resolves"] else 0.0
            ),
            "simcore.events": c["simcore.events"],
            "simcore.rng_batch_s": self.span_s["simcore.rng_batch_s"],
            "service.requests": c["service.requests"],
            "client.calls": c["client.calls"],
            "client.failovers": c["client.failovers"],
            "resilience.hedge_delay_calls": c["resilience.hedge_delay_calls"],
            "resilience.hedge_delay_s": self.span_s["resilience.hedge_delay_s"],
            "resilience.analytic_op_share": (
                c["resilience.analytic_ops"] / c["resilience.fast_ops"]
                if c["resilience.fast_ops"] else 0.0
            ),
            "faults.intercepts": c["faults.intercepts"],
            "workloads.fluid_solves": c["workloads.fluid_solves"],
            "scenarios.windows": c["scenarios.windows"],
            "observability.values": c["observability.values"],
        })
        return out


def _repro_modules():
    return [
        m for name, m in list(sys.modules.items())
        if m is not None and (name == "repro" or name.startswith("repro."))
    ]


# -- the entry points, one installer per layer ----------------------------

def _storage(t: LayerTracer, layer: str) -> None:
    from repro.storage.blob import BlobService
    from repro.storage.partition import PartitionServer
    from repro.storage.queue import QueueService
    from repro.storage.table import TableService

    def request_done(_token, _result, error):
        if isinstance(error, Exception):
            t.count("storage.errors")

    t.method(TableService, "query_by_property", layer,
             span="storage.scan_s", before=t.counter("storage.scans"))
    for cls in (BlobService, TableService, QueueService):
        t.public_generators(cls, layer, skip=("query_by_property",))
    t.method(PartitionServer, "execute", layer,
             before=t.counter("storage.requests"), after=request_done)


def _service(t: LayerTracer, layer: str) -> None:
    from repro.service.pipeline import RequestPipeline
    from repro.service.tracing import RequestTracer

    # The op/precheck/transfer/commit callbacks a pipeline request runs
    # belong to the storage service that passed them in (the table scan
    # materializes and filters the partition in them), so they are timed
    # as storage spans inside the service span.
    execute = RequestPipeline.execute

    def as_storage(cb):
        return t._wrap(cb, "storage", generator=False) if callable(cb) else cb

    def pipeline_execute(self, kind, op=None, **kwargs):
        for key in ("precheck", "transfer", "commit"):
            if key in kwargs:
                kwargs[key] = as_storage(kwargs[key])
        return execute(self, kind, as_storage(op), **kwargs)

    t._patch(RequestPipeline, "execute", t._wrap(
        pipeline_execute, layer, generator=True,
        before=t.counter("service.requests"),
    ))
    t.method(RequestTracer, "observe_batch", layer)


def _network(t: LayerTracer, layer: str) -> None:
    from repro.network.background import BackgroundTraffic
    from repro.network.fairshare import FairShareState
    from repro.network.flows import FlowNetwork

    def resolved(_token, result, error):
        if error is None and result:
            t.count("network.resolves")
            t.count("network.resolved_flows", len(result))

    t.method(FlowNetwork, "transfer", layer,
             before=t.counter("network.transfers"))
    # ``_on_timer`` is the network's flow-completion event handler and
    # ``_source`` the background-traffic process body.
    for name in ("abort", "poke", "_on_timer"):
        t.method(FlowNetwork, name, layer)
    t.method(BackgroundTraffic, "_source", layer)
    t.method(FairShareState, "recompute", layer, after=resolved)


def _simcore(t: LayerTracer, layer: str) -> None:
    from repro.simcore.engine import Environment
    from repro.simcore.rng import StreamRNG

    t.method(Environment, "run", layer,
             before=lambda args, kwargs: t._count_events(args[0]) or args[0],
             after=lambda env, _r, _e: t._count_events(env))
    for name in ("draw_batch", "exponential_batch", "uniform_batch"):
        t.method(StreamRNG, name, layer, span="simcore.rng_batch_s")


def _client(t: LayerTracer, layer: str) -> None:
    from repro.client.blob_client import BlobClient
    from repro.client.queue_client import QueueClient
    from repro.client.table_client import TableClient
    from repro.client.tcp import TcpEndpointPair

    def before(args, kwargs):
        t.count("client.calls")
        return args[0], args[0].failovers

    def after(token, _result, _error):
        client, failovers = token
        t.count("client.failovers", client.failovers - failovers)

    for cls in (BlobClient, TableClient, QueueClient):
        t.public_generators(cls, layer, before=before, after=after)
    t.public_generators(TcpEndpointPair, layer,
                        before=t.counter("client.calls"))


def _resilience(t: LayerTracer, layer: str) -> None:
    from repro.resilience import campaign, fastforward, hedging

    def analytic(args, kwargs):
        mask = inspect.signature(fold).bind(*args, **kwargs).arguments[
            "analytic"
        ]
        t.count("resilience.analytic_ops", int(mask.sum()))
        t.count("resilience.fast_ops", int(mask.size))

    fold = fastforward._fold_analytic
    t.method(hedging.HedgePolicy, "hedge_delay", layer,
             span="resilience.hedge_delay_s",
             before=t.counter("resilience.hedge_delay_calls"))
    t.method(campaign.CampaignWorld, "one_op", layer)
    for fn in (hedging.hedged_call, campaign.run_campaign,
               fastforward.fast_run_mode):
        t.function(fn, layer)
    t.function(fold, layer, before=analytic)


def _faults(t: LayerTracer, layer: str) -> None:
    from repro.faults import FaultInjector

    t.method(FaultInjector, "intercept", layer,
             before=t.counter("faults.intercepts"))


def _workloads(t: LayerTracer, layer: str) -> None:
    from repro.workloads import (
        blob_bench, cohort, harness, queue_bench, table_bench, tcp_bench,
    )

    t.function(cohort.solve_stationary, layer,
               before=t.counter("workloads.fluid_solves"))
    for module in (blob_bench, cohort, harness, queue_bench, table_bench,
                   tcp_bench):
        t.public_functions(module, layer, skip=("solve_stationary",))


def _scenarios(t: LayerTracer, layer: str) -> None:
    from repro.scenarios import driver

    def windows(_token, result, error):
        if error is None:
            t.count("scenarios.windows", len(result.windows))

    t.function(driver.run_scenario, layer, after=windows)
    t.function(driver.sweep_scenario, layer)


def _observability(t: LayerTracer, layer: str) -> None:
    from repro.observability.histogram import Histogram
    from repro.observability.windows import MinuteAvailability

    t.method(Histogram, "observe", layer,
             before=t.counter("observability.values"))
    t.method(Histogram, "observe_batch", layer,
             before=lambda args, kwargs: t.count(
                 "observability.values", len(args[1])))
    for name in ("observe", "observe_batch"):
        t.method(MinuteAvailability, name, layer)


#: Which public entry points count as which layer.  Each installer wraps
#: the calls through which the rest of the program enters that package.
ENTRY_POINTS = (
    ("simcore", _simcore),
    ("network", _network),
    ("storage", _storage),
    ("service", _service),
    ("client", _client),
    ("resilience", _resilience),
    ("faults", _faults),
    ("workloads", _workloads),
    ("scenarios", _scenarios),
    ("observability", _observability),
)


def traced_call(
    call: Callable[[], Any], clock: Callable[[], float] = time.process_time
) -> Tuple[Any, float, LayerTracer]:
    """Run ``call`` with every entry point wrapped; returns its result,
    its seconds on ``clock`` and the tracer (already uninstalled)."""
    tracer = LayerTracer(clock)
    tracer.install()
    try:
        t0 = tracer.start()
        result = call()
        t1 = tracer.stop()
    finally:
        tracer.uninstall()
    return result, t1 - t0, tracer
