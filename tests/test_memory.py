"""The training step allocates no model-sized temporaries it can avoid.

Each test counts numpy's allocations with tracemalloc, which sees every
array buffer numpy allocates; none depends on timing.
"""

import tracemalloc

import numpy as np
import pytest

from gradpipe.collective import ring_allreduce
from gradpipe.compression import Codec
from gradpipe.data import synthetic_blobs
from gradpipe.engine import (
    MODE_D_SYNC,
    MODE_PIPE_SGD,
    MODE_PS_SYNC,
    RunConfig,
    _Worker,
    run_inproc_cluster,
)
from gradpipe.models import forward_loss, mlp_model
from gradpipe.transport import InProcTransport
from helpers import run_ranks

# The mlp-compute model: 784-500-500-10, 648,010 parameters.
BENCH_MLP = mlp_model(784, (500, 500), 10)
# Room for the Python objects a call allocates besides its arrays.
SLACK = 64 * 1024


def traced(fn):
    """fn's result, the bytes its allocations peaked at, and the bytes
    they still held when it returned."""
    tracemalloc.start()
    try:
        result = fn()
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak, current


@pytest.fixture(scope="module")
def mnist_shaped():
    return synthetic_blobs(dim=784, num_classes=10, num_samples=64, seed=2)


class TestUpdate:
    def test_one_model_sized_array_above_inputs(self, mnist_shaped):
        """The mean is taken in place and the step is the one temporary,
        which becomes the new parameters."""
        assert BENCH_MLP.num_params == 648_010
        cfg = RunConfig(batch_size=16)
        worker = _Worker(
            0, 2, InProcTransport(2).endpoint(0), mnist_shaped, BENCH_MLP, cfg, 0
        )
        total = np.random.default_rng(0).normal(size=BENCH_MLP.num_params)
        total = total.astype(np.float32)
        _, peak, _ = traced(lambda: worker._apply_update(total))
        assert peak <= 4 * BENCH_MLP.num_params + SLACK


class TestTrainingLoop:
    @pytest.mark.parametrize(
        "mode, arrays",
        [(MODE_D_SYNC, 4), (MODE_PIPE_SGD, 5), (MODE_PS_SYNC, 7)],
        ids=["d_sync", "pipe_sgd", "ps_sync"],
    )
    def test_applied_sums_and_sent_gradients_are_dropped(self, mnist_shaped, mode, arrays):
        """A rank holds no sum it has applied and no gradient it has handed
        to the exchange through the compute that follows: one rank peaks
        below 4 model-sized arrays at depth 1 and below 5 at depth 2. In
        ps_sync one worker and the server together peak below 7, because
        the gather and the broadcast work in the vectors they are given."""
        cfg = RunConfig(mode=mode, iterations=6, batch_size=16, depth=2)
        _, peak, _ = traced(lambda: run_inproc_cluster(1, cfg, mnist_shaped, BENCH_MLP))
        assert peak < arrays * 4 * BENCH_MLP.num_params


class TestForwardLoss:
    def test_no_float64_copy_of_the_parameters(self, mnist_shaped):
        """float64 evaluation upcasts one layer's blocks at a time."""
        params = np.random.default_rng(1).normal(0, 0.05, BENCH_MLP.num_params)
        params = params.astype(np.float32)
        batch = np.arange(64)
        _, peak, _ = traced(lambda: forward_loss(params, BENCH_MLP, mnist_shaped, batch))
        assert peak < 8 * BENCH_MLP.num_params


class TestRingOut:
    """The ring's result is the vector it was given."""

    N = 1 << 18

    def inputs(self, p):
        rng = np.random.default_rng(p)
        return [rng.normal(size=self.N).astype(np.float32) for _ in range(p)]

    def test_single_rank_allocates_nothing(self):
        local = self.inputs(1)[0]
        endpoint = InProcTransport(1).endpoint(0)
        out, peak, _ = traced(lambda: ring_allreduce(local, 0, 1, endpoint))
        assert out is local
        assert peak < SLACK

    @pytest.mark.parametrize("p", [2, 3])
    @pytest.mark.parametrize("codec", list(Codec), ids=lambda c: c.name.lower())
    def test_no_accumulator_outlives_the_call(self, p, codec):
        """Every wire buffer is freed by the time the ring returns, so what
        is still held afterwards would be an accumulator."""
        inputs = self.inputs(p)
        outs, _, current = traced(
            lambda: run_ranks(
                p, lambda r, ep: ring_allreduce(inputs[r], r, p, ep, codec)
            )
        )
        assert all(out is local for out, local in zip(outs, inputs))
        assert current < 4 * self.N // 8
