"""Cross-cutting property-based tests on core invariants."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network import FlowNetwork, Link
from repro.simcore import Environment, RandomStreams
from repro.storage import QueueService
from repro.storage.table import make_entity


@given(
    sizes=st.lists(
        st.floats(min_value=1.0, max_value=500.0), min_size=1, max_size=12
    ),
    capacity=st.floats(min_value=1.0, max_value=200.0),
)
@settings(max_examples=60, deadline=None)
def test_property_flow_network_work_conserving(sizes, capacity):
    """All simultaneous flows on one link finish exactly at total/capacity."""
    env = Environment()
    net = FlowNetwork(env)
    link = Link("l", capacity)
    done_times = []

    def client(env, size):
        flow = net.transfer([link], size)
        yield flow.done
        done_times.append(env.now)

    for size in sizes:
        env.process(client(env, size))
    env.run()
    assert max(done_times) == pytest.approx(sum(sizes) / capacity, rel=1e-6)
    assert net.active_count == 0


@given(
    sizes=st.lists(
        st.floats(min_value=1.0, max_value=100.0), min_size=2, max_size=8
    ),
)
@settings(max_examples=40, deadline=None)
def test_property_flow_completion_order_by_size(sizes):
    """Equal-share flows on one link complete in size order."""
    env = Environment()
    net = FlowNetwork(env)
    link = Link("l", 10.0)
    completions = []

    def client(env, idx, size):
        flow = net.transfer([link], size)
        yield flow.done
        completions.append((env.now, idx))

    for idx, size in enumerate(sizes):
        env.process(client(env, idx, size))
    env.run()
    finished_idx = [idx for _, idx in sorted(completions)]
    expected_idx = [
        idx for _, idx in sorted((s, i) for i, s in enumerate(sizes))
    ]
    # Ties (sizes equal to within float rounding of the fair-share
    # arithmetic) may resolve either way; compare the sizes.
    for got_i, want_i in zip(finished_idx, expected_idx):
        assert sizes[got_i] == pytest.approx(sizes[want_i], rel=1e-9)


@given(
    ops=st.lists(
        st.sampled_from(["add", "receive", "delete"]),
        min_size=1, max_size=40,
    )
)
@settings(max_examples=60, deadline=None)
def test_property_queue_never_double_delivers_within_visibility(ops):
    """Under arbitrary op interleavings, an invisible message is never
    handed to a second receiver, and deletes require live receipts."""
    env = Environment()
    svc = QueueService(env, RandomStreams(0).stream("q"))
    svc.create_queue("q")
    held = []  # (message, receipt)

    def scenario(env):
        from repro.storage.errors import MessageNotFoundError, QueueEmptyError

        counter = 0
        for op in ops:
            try:
                if op == "add":
                    counter += 1
                    yield from svc.add("q", counter)
                elif op == "receive":
                    msg = yield from svc.receive(
                        "q", visibility_timeout_s=7200.0
                    )
                    # Invariant: not already held by someone else.
                    assert msg.id not in [m.id for m, _ in held]
                    held.append((msg, msg.pop_receipt))
                else:
                    if held:
                        msg, receipt = held.pop(0)
                        yield from svc.delete("q", msg, receipt)
            except (QueueEmptyError, MessageNotFoundError):
                pass

    env.process(scenario(env))
    env.run()
    # Conservation: everything added is held, deleted, or still queued.
    visible_or_hidden = svc.queue_length("q")
    assert visible_or_hidden >= len(held)


@given(
    keys=st.lists(
        st.tuples(
            st.text(min_size=1, max_size=4), st.text(min_size=1, max_size=4)
        ),
        min_size=1, max_size=30,
    )
)
@settings(max_examples=60, deadline=None)
def test_property_table_insert_delete_conservation(keys):
    """Insert-then-delete over arbitrary key multisets conserves rows."""
    env = Environment()
    from repro.storage import TableService
    from repro.storage.errors import EntityAlreadyExistsError

    svc = TableService(env, RandomStreams(0).stream("t"))
    svc.create_table("t")
    inserted = set()

    def scenario(env):
        for pk, rk in keys:
            try:
                yield from svc.insert("t", make_entity(pk, rk))
                inserted.add((pk, rk))
            except EntityAlreadyExistsError:
                assert (pk, rk) in inserted

    env.process(scenario(env))
    env.run()
    assert svc.entity_count("t") == len(inserted)
    assert len(inserted) == len(set(keys))


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=20, deadline=None)
def test_property_degradation_fractions_valid(seed):
    from repro.cluster import DegradationModel

    env = Environment()
    model = DegradationModel(env, RandomStreams(seed).stream("d"))
    fracs = [model.daily_fraction(d) for d in range(100)]
    assert all(0.0 <= f <= 0.5 for f in fracs)


@given(
    n_flows=st.integers(min_value=1, max_value=6),
    cap=st.floats(min_value=0.5, max_value=50.0),
)
@settings(max_examples=40, deadline=None)
def test_property_per_flow_caps_respected_dynamically(n_flows, cap):
    env = Environment()
    net = FlowNetwork(env)
    link = Link("l", 1e6)
    net.set_flow_ceiling(link, cap)
    times = []

    def client(env):
        flow = net.transfer([link], 10.0)
        yield flow.done
        times.append(env.now)

    for _ in range(n_flows):
        env.process(client(env))
    env.run()
    # Each flow independently bounded by its cap.
    assert max(times) == pytest.approx(10.0 / cap, rel=1e-6)
