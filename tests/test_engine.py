
import re
import threading
import time

import numpy as np
import pytest

from helpers import engine_batches, run_ranks

from gradpipe import engine
from gradpipe.collective import gather_to_root, ring_allreduce
from gradpipe.compression import Codec
from gradpipe.data import synthetic_blobs
from gradpipe.engine import (
    GradientBuffer,
    MODE_D_SYNC,
    MODE_PIPE_SGD,
    MODE_PS_SYNC,
    RunConfig,
    _GRACE_S,
    _LocalGradientMailbox,
    _Worker,
    aggregate_mean,
    run_inproc_cluster,
)
from gradpipe.errors import CollectiveError, ConfigError, EngineError
from gradpipe.transport import InProcTransport
from gradpipe.models import (
    backward_grad,
    forward_loss,
    init_params,
    logistic_model,
    sgd_update,
)


@pytest.fixture(scope="module")
def small_problem():
    data = synthetic_blobs(dim=8, num_classes=2, num_samples=512, seed=1)
    model = logistic_model(8, 2)
    return data, model


class TestDSyncSingleNode:
    def test_matches_plain_sgd_bit_exact(self, small_problem):
        data, model = small_problem
        cfg = RunConfig(
            mode=MODE_D_SYNC, iterations=12, learning_rate=0.2, batch_size=16, seed=5
        )
        result = run_inproc_cluster(1, cfg, data, model)[0]

        w = init_params(model, cfg.seed)
        for batch in engine_batches(data, 0, 1, 16, 5, 12):
            grad = backward_grad(w, model, data, batch)
            w = sgd_update(w, grad, 0.2)
        assert np.array_equal(result.params, w)

    def test_losses_recorded_per_iteration(self, small_problem):
        data, model = small_problem
        cfg = RunConfig(mode=MODE_D_SYNC, iterations=7, batch_size=8, seed=2)
        result = run_inproc_cluster(1, cfg, data, model)[0]
        assert [m[0] for m in result.metrics] == list(range(1, 8))
        walls = [m[1] for m in result.metrics]
        assert walls == sorted(walls)
        assert all(np.isfinite(m[2]) for m in result.metrics)


class TestPipeSingleNode:
    def test_matches_delayed_sgd_reference(self, small_problem):
        data, model = small_problem
        depth, T = 2, 15
        cfg = RunConfig(
            mode=MODE_PIPE_SGD, iterations=T, learning_rate=0.15,
            batch_size=16, seed=9, depth=depth,
        )
        result = run_inproc_cluster(1, cfg, data, model)[0]

        batches = engine_batches(data, 0, 1, 16, 9, T)
        w = init_params(model, cfg.seed)
        zeros = np.zeros(model.num_params, np.float32)
        grads = {0: zeros, -1: zeros}
        for t in range(1, T + 1):
            w = sgd_update(w, grads[t - depth], 0.15)
            grads[t] = backward_grad(w, model, data, batches[t - 1])
        for t in range(T + 1, T + depth + 1):  # drain
            w = sgd_update(w, grads[t - depth], 0.15)
        assert np.array_equal(result.params, w)

    def test_first_updates_are_noops(self, small_problem):
        data, model = small_problem
        p, depth = 2, 3
        cfg = RunConfig(
            mode=MODE_PIPE_SGD, iterations=6, batch_size=16, seed=3, depth=depth
        )
        w0 = init_params(model, cfg.seed)
        # Updates 1 .. K consume the zero-initialized slots (tags 1-K .. 0),
        # so iterations 1 .. K compute their loss at w[0]; update K+1
        # consumes tag 1.
        for result in run_inproc_cluster(p, cfg, data, model):
            batches = engine_batches(data, result.rank, p, 16, cfg.seed, depth + 1)
            at_w0 = [forward_loss(w0, model, data, b) for b in batches]
            recorded = [loss for _, _, loss in result.metrics[: depth + 1]]
            assert recorded[:depth] == at_w0[:depth]
            assert recorded[depth] != at_w0[depth]

    @pytest.mark.parametrize(
        "mode, depth",
        [(MODE_D_SYNC, 1), (MODE_PIPE_SGD, 2), (MODE_PIPE_SGD, 3)],
        ids=["d_sync-K1", "pipe_sgd-K2", "pipe_sgd-K3"],
    )
    def test_staleness_tags_exact(self, small_problem, mode, depth):
        data, model = small_problem
        T = 25
        cfg = RunConfig(mode=mode, iterations=T, batch_size=16, seed=4, depth=depth)
        for result in run_inproc_cluster(2, cfg, data, model):
            updates = [e for e in result.trace if e.stage == "update"]
            assert len(updates) == T + depth  # T in-loop + depth drained
            for e in updates:
                assert e.consumed_tag == e.iteration - depth
            consumed = sorted(
                e.consumed_tag for e in updates if e.consumed_tag >= 1
            )
            assert consumed == list(range(1, T + 1))  # each gradient exactly once


class TestReplicaConsistency:
    @pytest.mark.parametrize("mode", [MODE_D_SYNC, MODE_PIPE_SGD, MODE_PS_SYNC])
    def test_all_ranks_bit_identical(self, small_problem, mode):
        data, model = small_problem
        cfg = RunConfig(mode=mode, iterations=9, batch_size=16, seed=6)
        results = run_inproc_cluster(4, cfg, data, model)
        workers = [r for r in results if not r.is_server]
        assert len(workers) == 4
        for r in workers[1:]:
            assert np.array_equal(r.params, workers[0].params)

    def test_lossy_codecs_still_consistent(self, small_problem):
        data, model = small_problem
        for codec in (Codec.TRUNC16, Codec.QUANT8):
            cfg = RunConfig(
                mode=MODE_PIPE_SGD, iterations=8, batch_size=16, seed=7, codec=codec
            )
            results = run_inproc_cluster(4, cfg, data, model)
            for r in results[1:]:
                assert np.array_equal(r.params, results[0].params)


class TestPsSync:
    def test_final_params_match_d_sync(self, small_problem):
        data, model = small_problem
        kwargs = dict(iterations=10, learning_rate=0.1, batch_size=16, seed=8)
        ps = run_inproc_cluster(
            4, RunConfig(mode=MODE_PS_SYNC, **kwargs), data, model
        )
        ds = run_inproc_cluster(4, RunConfig(mode=MODE_D_SYNC, **kwargs), data, model)
        np.testing.assert_allclose(
            ps[0].params, ds[0].params, rtol=1e-6, atol=1e-7
        )

    def test_server_is_last_result(self, small_problem):
        data, model = small_problem
        cfg = RunConfig(mode=MODE_PS_SYNC, iterations=3, batch_size=16, seed=1)
        results = run_inproc_cluster(2, cfg, data, model)
        assert [r.is_server for r in results] == [False, False, True]
        assert np.array_equal(results[0].params, results[2].params)

    def test_single_worker_matches_plain_sgd(self, small_problem):
        data, model = small_problem
        cfg = RunConfig(
            mode=MODE_PS_SYNC, iterations=6, learning_rate=0.2, batch_size=16, seed=5
        )
        result = run_inproc_cluster(1, cfg, data, model)[0]
        w = init_params(model, cfg.seed)
        for batch in engine_batches(data, 0, 1, 16, 5, 6):
            w = sgd_update(w, backward_grad(w, model, data, batch), 0.2)
        assert np.array_equal(result.params, w)


class TestAppliedGradient:
    """Every mode applies exactly the sum its collective returns for the
    local gradients: the codec runs on the wire and nowhere else."""

    @pytest.mark.parametrize("codec", list(Codec), ids=lambda c: c.name.lower())
    @pytest.mark.parametrize("mode", [MODE_D_SYNC, MODE_PIPE_SGD, MODE_PS_SYNC])
    def test_params_match_collective_oracle(self, small_problem, mode, codec):
        data, model = small_problem
        p, depth, T, lr = 3, 2, 3, 0.3  # T = K + 1: one in-loop pipelined update
        batches = {
            (r, t): np.random.default_rng([r, t]).choice(data.num_samples, 16, False)
            for r in range(p)
            for t in range(1, T + 1)
        }
        cfg = RunConfig(
            mode=mode, iterations=T, learning_rate=lr, codec=codec, depth=depth,
            batch_size=16, seed=4,
        )
        results = run_inproc_cluster(
            p, cfg, data, model, batch_provider=lambda r, t: batches[(r, t)]
        )

        def aggregated(w, t):
            grads = [backward_grad(w, model, data, batches[(r, t)]) for r in range(p)]
            if mode != MODE_PS_SYNC:
                return run_ranks(
                    p, lambda r, ep: ring_allreduce(grads[r], r, p, ep, codec, t)
                )[0]
            grads.append(np.zeros(model.num_params, np.float32))  # the server
            return run_ranks(
                p + 1,
                lambda r, ep: gather_to_root(grads[r], p, r, p + 1, ep, codec, t),
            )[p]

        def step(w, total):
            return sgd_update(w, aggregate_mean(total, p), lr)

        w = init_params(model, cfg.seed)
        lag = depth if mode == MODE_PIPE_SGD else 0
        totals = {t: np.zeros(model.num_params, np.float32) for t in range(1 - lag, 1)}
        for t in range(1, T + 1):
            if lag:
                w = step(w, totals.pop(t - lag))
            totals[t] = aggregated(w, t)
            if not lag:
                w = step(w, totals.pop(t))
        for t in sorted(totals):  # drain
            w = step(w, totals[t])
        for r in results:
            assert np.array_equal(r.params, w)


class TestAggregateSemantics:
    def test_identity_and_mean_of_equals(self):
        g = np.array([2.0, -4.0], np.float32)
        assert np.array_equal(aggregate_mean(g, 1), g)
        assert np.array_equal(aggregate_mean(4 * g, 4), g)

    def test_global_batch_equivalence_direct(self, small_problem):
        data, model = small_problem
        rng = np.random.default_rng(0)
        params = rng.normal(0, 0.3, model.num_params).astype(np.float32)
        batch100 = rng.choice(data.num_samples, size=100, replace=False)
        parts = [batch100[i * 25 : (i + 1) * 25] for i in range(4)]
        global_grad = backward_grad(params, model, data, batch100)
        total = np.sum(
            [backward_grad(params, model, data, b) for b in parts], axis=0
        ).astype(np.float32)
        np.testing.assert_allclose(
            aggregate_mean(total, 4), global_grad, rtol=1e-5, atol=1e-7
        )

    def test_global_batch_equivalence_end_to_end(self, small_problem):
        data, model = small_problem
        rng = np.random.default_rng(12)
        schedule = [
            rng.choice(data.num_samples, size=100, replace=False) for _ in range(4)
        ]

        def shard_provider(rank, t):
            return schedule[t - 1][rank * 25 : (rank + 1) * 25]

        def full_provider(rank, t):
            return schedule[t - 1]

        kwargs = dict(iterations=4, learning_rate=0.1, batch_size=25, seed=0)
        multi = run_inproc_cluster(
            4, RunConfig(mode=MODE_D_SYNC, **kwargs), data, model,
            batch_provider=shard_provider,
        )[0]
        kwargs["batch_size"] = 100
        single = run_inproc_cluster(
            1, RunConfig(mode=MODE_D_SYNC, **kwargs), data, model,
            batch_provider=full_provider,
        )[0]
        np.testing.assert_allclose(
            multi.params, single.params, rtol=1e-6, atol=1e-7
        )


class TestWarmup:
    def test_switch_consumes_every_gradient_exactly_once(self, small_problem):
        data, model = small_problem
        # shard 256 samples / batch 64 -> 4 iterations per epoch; warmup
        # covers iterations 1..8, the pipelined phase 9..20.
        depth, T, warmup_iters = 2, 20, 8
        cfg = RunConfig(
            mode=MODE_PIPE_SGD, iterations=T, batch_size=64, seed=11,
            depth=depth, warmup_epochs=2,
        )
        result = run_inproc_cluster(2, cfg, data, model)[0]
        produced = sorted(
            e.iteration for e in result.trace if e.stage == "allreduce"
        )
        assert produced == list(range(1, T + 1))
        consumed = []
        for e in result.trace:
            if e.stage != "update" or e.consumed_tag < 1:
                continue
            lag = 1 if e.consumed_tag <= warmup_iters else depth
            if e.iteration - e.consumed_tag == lag:
                consumed.append(e.consumed_tag)
        assert sorted(consumed) == list(range(1, T + 1))

    def test_full_warmup_equals_d_sync(self, small_problem):
        data, model = small_problem
        kwargs = dict(iterations=6, batch_size=64, seed=13, learning_rate=0.1)
        warm = run_inproc_cluster(
            2,
            RunConfig(mode=MODE_PIPE_SGD, warmup_epochs=100, **kwargs),
            data, model,
        )[0]
        plain = run_inproc_cluster(
            2, RunConfig(mode=MODE_D_SYNC, **kwargs), data, model
        )[0]
        assert np.array_equal(warm.params, plain.params)


class TestLiveness:
    @pytest.mark.parametrize("workers", [1, 2, 4, 8])
    @pytest.mark.parametrize("mode", [MODE_D_SYNC, MODE_PIPE_SGD, MODE_PS_SYNC])
    def test_all_modes_complete(self, small_problem, mode, workers):
        data, model = small_problem
        cfg = RunConfig(mode=mode, iterations=6, batch_size=8, seed=1)
        results = run_inproc_cluster(workers, cfg, data, model, timeout_s=20)
        assert len([r for r in results if not r.is_server]) == workers


class TestOverlap:
    def test_allreduce_overlaps_next_iteration_compute(self, small_problem):
        data, model = small_problem
        cfg = RunConfig(mode=MODE_PIPE_SGD, iterations=20, batch_size=64, seed=3)
        results = run_inproc_cluster(
            2, cfg, data, model, latency_s=0.002
        )
        trace = results[0].trace
        allreduce = {
            e.iteration: (e.start_ns, e.end_ns)
            for e in trace
            if e.stage == "allreduce"
        }
        compute = {}
        for e in trace:
            if e.stage in ("forward", "backward"):
                lo, hi = compute.get(e.iteration, (e.start_ns, e.end_ns))
                compute[e.iteration] = (min(lo, e.start_ns), max(hi, e.end_ns))
        overlapped = 0
        candidates = 0
        for t, (a0, a1) in allreduce.items():
            nxt = compute.get(t + 1)
            if nxt is None:
                continue
            candidates += 1
            c0, c1 = nxt
            if min(a1, c1) > max(a0, c0):
                overlapped += 1
        assert candidates > 10
        assert overlapped >= candidates * 0.5


class TestCommThread:
    @pytest.mark.parametrize(
        "mode, threaded", [(MODE_D_SYNC, False), (MODE_PIPE_SGD, True)]
    )
    def test_comm_thread_only_when_pipelined(self, small_problem, mode, threaded):
        data, model = small_problem
        seen = []

        def provider(rank, t):
            names = {th.name for th in threading.enumerate()}
            seen.append(f"comm-{rank}" in names)
            return np.arange(16)

        cfg = RunConfig(mode=mode, iterations=5, batch_size=16, seed=0)
        run_inproc_cluster(2, cfg, data, model, batch_provider=provider)
        assert len(seen) == 2 * 5
        assert set(seen) == {threaded}

    def test_hung_comm_thread_reported(self, small_problem, monkeypatch):
        """A comm thread still busy when the phase's join gives up fails
        the run with an EngineError whose context is the original failure."""
        data, model = small_problem
        stuck, release = threading.Event(), threading.Event()
        allreduce = engine.ring_allreduce

        def stuck_at_2(*args, iteration):
            if iteration == 2:
                stuck.set()
                release.wait(timeout=10)
            return allreduce(*args, iteration=iteration)

        def provider(rank, t):
            if t == 3:
                stuck.wait(timeout=10)
                raise RuntimeError("compute failed")
            return np.arange(16)

        monkeypatch.setattr(engine, "ring_allreduce", stuck_at_2)
        monkeypatch.setattr(engine, "_GRACE_S", 0.1)
        cfg = RunConfig(mode=MODE_PIPE_SGD, iterations=6, batch_size=16, seed=0)
        try:
            with pytest.raises(EngineError, match="^rank 0, iteration 3, join comm thread: ") as info:
                run_inproc_cluster(1, cfg, data, model, batch_provider=provider, timeout_s=0.2)
        finally:
            release.set()
        assert isinstance(info.value.__context__, RuntimeError)
        for th in threading.enumerate():
            if th.name == "comm-0":
                th.join(timeout=5)
                assert not th.is_alive()


# Each hand-off site: the ring that carries the gradient and its label.
_HANDOFFS = {
    "aggregated": (GradientBuffer, "aggregated gradient"),
    "local": (_LocalGradientMailbox, "local gradient"),
}


class TestHandoffFaults:
    """Every hand-off failure names the rank, the iteration and the step,
    except a poisoned take, which re-raises the feeding thread's error."""

    @pytest.mark.parametrize("site", _HANDOFFS)
    def test_timeout(self, site):
        ring_cls, what = _HANDOFFS[site]
        ring = ring_cls(what, 1, 2, timeout_s=0.05)
        with pytest.raises(EngineError, match=f"^rank 1, iteration 7, take {what}: timed out"):
            ring.take(7)

    @pytest.mark.parametrize("site", _HANDOFFS)
    def test_poisoned_peer(self, site):
        ring_cls, what = _HANDOFFS[site]
        ring = ring_cls(what, 1, 2, timeout_s=10)
        err = CollectiveError("rank 1, iteration 7, reduce-scatter step 0: lost")
        feeder = threading.Timer(0.05, ring.poison, args=(err,))
        feeder.start()
        with pytest.raises(CollectiveError) as info:
            ring.take(7)
        feeder.join(timeout=5)
        assert info.value is err

    @pytest.mark.parametrize("site", _HANDOFFS)
    def test_wrong_tag(self, site):
        ring_cls, what = _HANDOFFS[site]
        ring = ring_cls(what, 1, 2, timeout_s=1)
        ring.put(5, np.zeros(3, np.float32))
        says = f"^rank 1, iteration 7, take {what}: slot 1 holds iteration 5$"
        with pytest.raises(EngineError, match=says):
            ring.take(7)


class TestLostPeer:
    @pytest.mark.parametrize("mode", [MODE_D_SYNC, MODE_PIPE_SGD])
    def test_survivor_fails_with_the_lost_exchange(self, small_problem, mode):
        """Rank 1 dies at iteration 5: rank 0 raises the CollectiveError of
        the exchange that lost it, within the endpoint timeout plus the
        grace, and its comm thread is gone."""
        data, model = small_problem
        timeout = 0.5
        died_at = []

        def provider(rank, t):
            if rank == 1 and t == 5:
                died_at.append(time.monotonic())
                raise RuntimeError("rank 1 lost")
            return np.arange(16)

        cfg = RunConfig(mode=mode, iterations=20, batch_size=16, seed=0)
        transport = InProcTransport(2, timeout_s=timeout)
        epoch_ns = time.monotonic_ns()
        workers = [
            _Worker(r, 2, transport.endpoint(r), data, model, cfg, epoch_ns, provider)
            for r in range(2)
        ]
        failed: dict[int, tuple[BaseException, float]] = {}

        def run(rank):
            try:
                workers[rank].run()
            except BaseException as err:
                failed[rank] = (err, time.monotonic())

        threads = [threading.Thread(target=run, args=(r,)) for r in range(2)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=30)
        assert not any(th.is_alive() for th in threads)
        assert isinstance(failed[1][0], RuntimeError)
        err, failed_at = failed[0]
        assert isinstance(err, CollectiveError)
        assert re.match(r"^rank 0, iteration \d+, reduce-scatter step 0: ", str(err))
        assert failed_at - died_at[0] < timeout + _GRACE_S
        assert "comm-0" not in {th.name for th in threading.enumerate()}


class TestTraceIntegrity:
    def test_compute_thread_events_ordered(self, small_problem):
        data, model = small_problem
        cfg = RunConfig(mode=MODE_PIPE_SGD, iterations=10, batch_size=16, seed=2)
        result = run_inproc_cluster(2, cfg, data, model)[0]
        compute_stages = {"update", "forward", "backward"}
        events = [e for e in result.trace if e.stage in compute_stages]
        for a, b in zip(events, events[1:]):
            assert a.end_ns <= b.start_ns + 1  # same thread, never overlapping
        for e in result.trace:
            assert e.end_ns >= e.start_ns


class TestGuards:
    def test_gradient_buffer_double_write_is_fatal(self):
        buf = GradientBuffer("aggregated gradient", 0, 2, timeout_s=1)
        total = np.zeros(3, np.float32)
        buf.put(1, total)
        says = "^rank 0, iteration 3, put aggregated gradient: slot 1 still holds iteration 1$"
        with pytest.raises(EngineError, match=says):
            buf.put(3, total)  # same slot as 1 mod 2

    def test_gradient_buffer_take_clears(self):
        buf = GradientBuffer("aggregated gradient", 0, 2, timeout_s=1)
        total = np.zeros(3, np.float32)
        buf.put(4, total)
        assert buf.take(4) is total
        buf.put(6, total)  # slot reusable after take

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            RunConfig(mode="ring_async")
        with pytest.raises(ConfigError):
            RunConfig(mode=MODE_PIPE_SGD, depth=1)
        with pytest.raises(ConfigError):
            RunConfig(iterations=0)
        with pytest.raises(ConfigError):
            RunConfig(learning_rate=0)

    def test_batch_exceeding_shard_rejected(self, small_problem):
        data, model = small_problem
        cfg = RunConfig(mode=MODE_D_SYNC, iterations=2, batch_size=300, seed=0)
        with pytest.raises(ConfigError, match="shard"):
            run_inproc_cluster(2, cfg, data, model)

    def test_traffic_stats_reported(self, small_problem):
        data, model = small_problem
        cfg = RunConfig(mode=MODE_D_SYNC, iterations=4, batch_size=16, seed=0)
        results = run_inproc_cluster(4, cfg, data, model)
        n = model.num_params
        for r in results:
            # 2(p-1) data messages per allreduce, 4 iterations.
            assert r.stats.messages == 4 * 2 * 3
