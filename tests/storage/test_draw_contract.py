"""The request path's scalar draws are numpy's exponential, bit for bit.

The partition server's stage times and the pipeline's base latency are
drawn as ``mean * standard_exponential()`` through a bound method.
numpy defines ``exponential(mean)`` as exactly that product, taken from
the same stream position, so every stage time must equal
``float(twin.exponential(mean))`` on a twin generator and leave both
streams in the same state.
"""

import numpy as np
import pytest

from repro.service.pipeline import LatencyProfile, RequestPipeline
from repro.simcore import Environment
from repro.storage import OpSpec, PartitionServer

MEANS = np.geomspace(1e-9, 1e3, 25).tolist()
SEED = 11


def _rng():
    return np.random.default_rng(SEED)


def _stage_times(server, env, op):
    """Run ``op`` while a deterministic op holds the server, so ``op``
    pays the front-end curve at two active requests; returns the
    stage times its observer saw."""
    seen = []

    def holder(env):
        yield from server.execute(
            OpSpec("hold", cpu_s=10.0, deterministic=True)
        )

    def client(env):
        yield from server.execute(
            op, observer=lambda stage, s: seen.append((stage, s))
        )

    env.process(holder(env))
    env.process(client(env))
    env.run()
    return seen


@pytest.mark.parametrize("mean", MEANS)
def test_partition_stage_times_are_exponential_draws(mean):
    env = Environment()
    # gamma = 0: the front-end penalty is c_s * frontend_scale = mean.
    server = PartitionServer(
        env, _rng(), frontend_c_s=mean, frontend_gamma=0.0, cores=2
    )
    op = OpSpec("op", cpu_s=mean, exclusive_s=mean, latch_key="k")
    seen = _stage_times(server, env, op)

    twin = _rng()
    expected = [float(twin.exponential(mean)) for _ in range(3)]
    work = {stage: s for stage, s in seen if not stage.endswith("_wait")}
    assert [work["frontend"], work["cpu_work"], work["latch_work"]] == (
        expected
    )
    assert server.rng.bit_generator.state == twin.bit_generator.state


def test_a_deterministic_op_draws_nothing():
    env = Environment()
    server = PartitionServer(env, _rng(), frontend_c_s=0.5, cores=2)
    op = OpSpec(
        "op", cpu_s=0.25, exclusive_s=0.125, latch_key="k",
        deterministic=True,
    )
    seen = dict(_stage_times(server, env, op))
    assert seen["frontend"] == 0.5 * 2 ** 0.5
    assert seen["cpu_work"] == 0.25 and seen["latch_work"] == 0.125
    assert server.rng.bit_generator.state == _rng().bit_generator.state


@pytest.mark.parametrize("mean", MEANS)
def test_latency_draw_is_fixed_plus_an_exponential_draw(mean):
    profile = LatencyProfile(fixed_frac=0.85, jitter_frac=0.15)
    gen, twin = _rng(), _rng()
    for base in (mean, 2.0 * mean):
        expected = base * 0.85 + float(twin.exponential(base * 0.15))
        assert profile.draw(gen.standard_exponential, base) == expected
    assert gen.bit_generator.state == twin.bit_generator.state


def test_zero_jitter_still_takes_its_draw():
    gen, twin = _rng(), _rng()
    profile = LatencyProfile(fixed_frac=1.0, jitter_frac=0.0)
    assert profile.draw(gen.standard_exponential, 0.25) == 0.25
    twin.exponential(0.0)
    assert gen.bit_generator.state == twin.bit_generator.state


def test_negative_latency_fractions_are_refused():
    with pytest.raises(ValueError):
        LatencyProfile(fixed_frac=0.8, jitter_frac=-0.2)
    with pytest.raises(ValueError):
        LatencyProfile(fixed_frac=-0.8, jitter_frac=0.2)


def test_pipeline_base_latency_uses_the_service_stream():
    env = Environment()
    pipe = RequestPipeline(
        env, _rng(), service="svc",
        latency=LatencyProfile(fixed_frac=0.8, jitter_frac=0.2),
    )

    def client(env):
        yield from pipe.execute("svc.op", base_latency_s=0.03)

    env.process(client(env))
    env.run()
    twin = _rng()
    assert env.now == 0.03 * 0.8 + float(twin.exponential(0.03 * 0.2))
    assert pipe.rng.bit_generator.state == twin.bit_generator.state
