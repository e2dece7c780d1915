"""Tests for replica-aware client routing: failover, hedging, spans."""

from repro.client import TableClient
from repro.faults import FaultInjector
from repro.observability import spans as spanlib
from repro.observability.spans import SpanTracer
from repro.resilience.backoff import NO_RETRY, RetryPolicy
from repro.resilience.hedging import HedgePolicy
from repro.simcore import Environment, RandomStreams
from repro.storage import (
    AccountFailoverError,
    GeoReplicatedAccount,
    ReplicationConfig,
    StorageAccount,
)
from repro.storage.errors import ConnectionFailureError, is_transport_failure
from repro.storage.table import make_entity


def _geo(seed=0, spans=False, **cfg):
    env = Environment()
    streams = RandomStreams(seed)
    geo = GeoReplicatedAccount(
        env, streams, name="geo",
        replication=ReplicationConfig(**cfg) if cfg else None,
    )
    if spans:
        geo.tracer.spans = SpanTracer()
    for replica in (geo.primary, geo.secondary):
        replica.tables.create_table("t")
        replica.tables.seed_entity("t", make_entity("hot", "hot"))
    return env, geo


def _fault_primary(env, geo, kind="blackout", magnitude=0.0):
    """Open a long fault window on the primary's hot partition server."""
    server = geo.primary.tables.server_for("t", "hot")
    injector = FaultInjector(env, RandomStreams(99).stream("faults"))
    injector.attach(server)
    injector.add_window(0.0, 10_000.0, kind, magnitude)
    return injector


def _run(env, gen):
    box = {}

    def runner(env):
        box["result"] = yield from gen

    env.process(runner(env))
    env.run()
    return box.get("result")


def test_read_fails_over_to_secondary_when_primary_blacks_out():
    env, geo = _geo()
    _fault_primary(env, geo)
    client = geo.table_client(retry=NO_RETRY)
    entity = _run(env, client.query("t", "hot", "hot"))
    assert entity.key == ("hot", "hot")
    assert client.failovers == 1


def test_failover_span_waterfall_shows_replica_legs():
    env, geo = _geo(spans=True)
    _fault_primary(env, geo)
    client = geo.table_client(retry=NO_RETRY)
    _run(env, client.query("t", "hot", "hot"))

    recorded = geo.tracer.spans.spans()
    calls = [s for s in recorded if s.name == "call:table.query"]
    assert len(calls) == 1
    call = calls[0]
    assert call.kind == spanlib.CLIENT
    assert call.ok
    # The call-level span records which replica ultimately served it.
    assert call.attributes["replica"] == "secondary"

    attempts = [
        s for s in recorded
        if s.kind == spanlib.ATTEMPT and s.parent_id == call.span_id
    ]
    assert [a.attributes["replica"] for a in attempts] == [
        "primary", "secondary",
    ]
    assert attempts[0].status == "ConnectionFailureError"
    assert attempts[1].ok
    # The waterfall is causally ordered: the failover leg starts only
    # after the primary leg has failed.
    assert attempts[1].start_s >= attempts[0].end_s


def test_client_without_secondary_emits_no_replica_attributes():
    """Seed behaviour: single-replica clients trace exactly as before."""
    env = Environment()
    account = StorageAccount(env, RandomStreams(0), name="acct")
    account.tracer.spans = SpanTracer()
    account.tables.create_table("t")
    account.tables.seed_entity("t", make_entity("hot", "hot"))
    client = TableClient(account.tables)
    entity = _run(env, client.query("t", "hot", "hot"))
    assert entity.key == ("hot", "hot")
    recorded = account.tracer.spans.spans()
    assert recorded  # the call + attempt (+ server) spans were emitted
    assert all("replica" not in s.attributes for s in recorded)


def test_writes_never_fail_over_to_the_demoted_secondary():
    """The failover pass runs for writes too, but the account's write
    guard rejects the demoted replica -- retryably, so the client can
    ride out the promotion instead of forking history."""
    env, geo = _geo()
    _fault_primary(env, geo)
    client = geo.table_client(retry=NO_RETRY)
    caught = {}

    def scenario(env):
        try:
            yield from client.insert("t", make_entity("hot", "k2"))
        except AccountFailoverError as exc:
            caught["error"] = exc

    env.process(scenario(env))
    env.run()
    assert isinstance(caught["error"], AccountFailoverError)
    assert is_transport_failure(caught["error"])  # i.e. retryable
    assert client.failovers == 0  # the guard rejected the second leg


def test_route_hint_sends_calls_straight_to_secondary_after_failover():
    env, geo = _geo(promotion_s=0.0)
    _fault_primary(env, geo)
    client = geo.table_client(retry=NO_RETRY)
    seen = {}

    def scenario(env):
        yield from geo.failover()
        seen["read"] = yield from client.query("t", "hot", "hot")
        seen["write"] = yield from client.insert(
            "t", make_entity("hot", "k2")
        )
        # The commit hook ledgered the write for the lag window.
        seen["at_risk"] = geo.writes_at_risk(env.now)

    env.process(scenario(env))
    env.run()
    assert seen["read"].key == ("hot", "hot")
    assert seen["write"].key == ("hot", "k2")
    # The route hint sent both calls to the promoted secondary directly:
    # no failover pass was ever needed, despite the dark primary.
    assert client.failovers == 0
    assert seen["at_risk"] == 1


def test_hedged_read_races_the_secondary_replica():
    env, geo = _geo()
    _fault_primary(env, geo, kind="latency_spike", magnitude=50.0)
    hedge = HedgePolicy(default_delay_s=0.05, warmup=1_000)
    client = geo.table_client(retry=NO_RETRY, hedge=hedge)
    entity = _run(env, client.query("t", "hot", "hot"))
    assert entity.key == ("hot", "hot")
    # The primary leg sat in the spike past the hedge delay; the backup
    # leg against the healthy secondary won the race.
    assert hedge.launched == 1
    assert hedge.wins == 1
    assert client.failovers == 0  # hedging is not failover


def test_failed_geo_call_span_names_its_replica():
    """A replica-aware call span carries ``replica`` on failure too: the
    replica of the pass that raised the final error."""
    env, geo = _geo(spans=True)
    _fault_primary(env, geo)
    client = geo.table_client(retry=NO_RETRY)
    caught = {}

    def scenario(env):
        try:
            yield from client.insert("t", make_entity("hot", "k2"))
        except AccountFailoverError as exc:
            caught["insert"] = exc
        try:
            yield from client.query("t", "ghost", "ghost")
        except Exception as exc:  # noqa: BLE001 - asserted below
            caught["query"] = exc

    env.process(scenario(env))
    env.run()
    assert isinstance(caught["insert"], AccountFailoverError)
    assert not is_transport_failure(caught["query"])

    calls = {
        s.name: s for s in geo.tracer.spans.spans()
        if s.kind == spanlib.CLIENT
    }
    insert = calls["call:table.insert"]
    # The primary pass failed at transport level, so the failover pass
    # against the secondary raised the final error.
    assert insert.status == "AccountFailoverError"
    assert insert.attributes["replica"] == "secondary"
    # A non-transport failure never leaves the first replica.
    query = calls["call:table.query"]
    assert not query.ok
    assert query.attributes["replica"] == "primary"


def test_client_retries_match_the_traced_call_retries():
    """``ServiceClient.retries`` counts every retry of every call, both
    passes included, exactly as the call spans report them."""
    env, geo = _geo(spans=True)
    # A 30 s blackout on the primary: calls inside it retry there, then
    # fail over; calls after it succeed on the primary first time.
    server = geo.primary.tables.server_for("t", "hot")
    injector = FaultInjector(env, RandomStreams(99).stream("faults"))
    injector.attach(server)
    injector.add_window(0.0, 30.0, "blackout")
    client = geo.table_client(retry=RetryPolicy(max_retries=2))

    def reader(env):
        for _ in range(6):
            yield from client.query("t", "hot", "hot")
            yield env.timeout(5.0)

    def writer(env):
        try:
            yield from client.insert("t", make_entity("hot", "k2"))
        except AccountFailoverError:
            pass

    env.process(reader(env))
    env.process(writer(env))
    env.run()

    calls = [s for s in geo.tracer.spans.spans() if s.kind == spanlib.CLIENT]
    assert len(calls) == geo.tracer.client_total == 7
    assert client.failovers >= 1
    assert client.retries > 0
    assert client.retries == geo.tracer.retries
    assert client.retries == sum(s.attributes["retries"] for s in calls)
    # The write retried on the primary, failed over and retried on the
    # secondary: its call span counts the retries of both passes.
    (write,) = [s for s in calls if s.attributes["op"] == "table.insert"]
    assert write.attributes["retries"] == 2 * 2
