"""The unified error taxonomy: context, classification, alignment."""

import pytest

from repro.resilience.breaker import CircuitBreaker
from repro.simcore import Environment, RandomStreams
from repro.storage import StorageAccount
from repro.storage.errors import (
    BlobNotFoundError,
    ConnectionFailureError,
    CorruptBlobError,
    EntityAlreadyExistsError,
    EntityNotFoundError,
    MessageNotFoundError,
    OperationTimeoutError,
    PreconditionFailedError,
    QueueEmptyError,
    ServerBusyError,
    StorageError,
    is_transport_failure,
)

TRANSPORT = (
    OperationTimeoutError,
    ServerBusyError,
    ConnectionFailureError,
    CorruptBlobError,
)
SEMANTIC = (
    BlobNotFoundError,
    EntityNotFoundError,
    EntityAlreadyExistsError,
    PreconditionFailedError,
    QueueEmptyError,
    MessageNotFoundError,
)


def test_context_string():
    err = StorageError("boom", service="account.tables", op="table.insert")
    assert err.service == "account.tables"
    assert err.op == "table.insert"
    assert err.context() == "account.tables/table.insert"
    assert str(err) == "boom"


def test_context_defaults_empty():
    err = StorageError("boom")
    assert err.service is None and err.op is None
    assert err.context() == ""
    assert StorageError("x", service="blobs").context() == "blobs"


@pytest.mark.parametrize("cls", TRANSPORT)
def test_transport_failures_are_retryable(cls):
    assert is_transport_failure(cls("x"))


@pytest.mark.parametrize("cls", SEMANTIC)
def test_semantic_failures_are_not_retryable(cls):
    assert not is_transport_failure(cls("x"))


def test_non_storage_errors_are_not_transport():
    assert not is_transport_failure(TimeoutError("os-level"))
    assert not is_transport_failure(ValueError("x"))


@pytest.mark.parametrize("cls", TRANSPORT + SEMANTIC)
def test_breaker_classification_matches_retry_classification(cls):
    err = cls("x")
    assert CircuitBreaker.counts_as_failure(err) == is_transport_failure(err)


def _run(env, gen):
    box = {}

    def proc():
        try:
            yield from gen
        except StorageError as exc:
            box["error"] = exc

    env.process(proc())
    env.run()
    return box["error"]


def _account():
    env = Environment()
    return env, StorageAccount(env, RandomStreams(0))


def test_table_errors_carry_service_and_op():
    env, account = _account()
    account.tables.create_table("t")
    err = _run(env, account.tables.query("t", "pk", "missing"))
    assert isinstance(err, EntityNotFoundError)
    assert err.service == account.tables.name
    assert err.op == "table.query"


def test_queue_errors_carry_service_and_op():
    env, account = _account()
    account.queues.create_queue("q")
    err = _run(env, account.queues.receive("q"))
    assert isinstance(err, QueueEmptyError)
    assert err.service == account.queues.name
    assert err.op == "queue.receive"


def test_blob_errors_carry_service():
    _env, account = _account()
    account.blobs.create_container("c")
    with pytest.raises(BlobNotFoundError) as info:
        account.blobs.get_meta("c", "missing")
    assert info.value.service == account.blobs.name
