import numpy as np
import pytest

from gradpipe.errors import ConfigError
from gradpipe.timing import (
    COMM_BOUND,
    COMPUTE_BOUND,
    ClusterParams,
    SEGMENTED,
    SEQUENTIAL,
    StageTimes,
    recommend_config,
    ring_comm_time,
    scaling_efficiency,
    segmented_comm_time,
    star_comm_time,
    t_pipe_ideal,
    t_pipe_limited,
    t_pipe_seq,
    t_pipe_segmented,
    t_sync_total,
)


def stages_of(l_up, l_comp, l_comm, split=0.5, l_b=None):
    forward = l_comp * split
    backward = l_comp - forward
    return StageTimes(
        update=l_up,
        forward=forward,
        backward=backward,
        first_segment_backward=backward if l_b is None else l_b,
        comm=l_comm,
    )


def random_params(rng, workers=None, segments=None):
    return ClusterParams(
        workers=int(workers if workers is not None else rng.integers(1, 12)),
        latency_s=float(rng.uniform(0, 0.01)),
        byte_time_s=float(rng.uniform(0, 1e-7)),
        reduce_time_s=float(rng.uniform(0, 1e-8)),
        sync_time_s=float(rng.uniform(0, 0.01)),
        model_bytes=float(rng.uniform(0, 1e8)),
        segments=int(segments if segments is not None else rng.integers(1, 20)),
    )


class TestSyncTotal:
    def test_direct_sum(self):
        assert t_sync_total(1, stages_of(1, 2, 3)) == 6

    def test_free_network(self):
        s = stages_of(0.25, 1.75, 0.0)
        assert t_sync_total(10, s) == 10 * (0.25 + 1.75)

    def test_hand_value(self):
        assert t_sync_total(100, stages_of(0.1, 0.9, 0.5)) == pytest.approx(150.0)


class TestPipeIdeal:
    def test_depth_one_reduces_to_sync(self):
        s = stages_of(0.1, 0.9, 0.5)
        assert t_pipe_ideal(100, 1, s) == t_sync_total(100, s)

    def test_depth_two_halves(self):
        s = stages_of(0.1, 0.9, 0.5)
        assert t_pipe_ideal(100, 2, s) == pytest.approx(t_sync_total(100, s) / 2)

    def test_hand_value(self):
        assert t_pipe_ideal(100, 4, stages_of(0.1, 0.9, 0.5)) == pytest.approx(37.5)


class TestPipeLimited:
    def test_compute_bound(self):
        assert t_pipe_limited(10, stages_of(2, 3, 3)) == 50

    def test_comm_bound(self):
        assert t_pipe_limited(10, stages_of(1, 1, 7)) == 70

    def test_tie(self):
        assert t_pipe_limited(10, stages_of(1, 3, 4)) == 40

    def test_no_depth_parameter(self):
        # The bound is independent of pipeline depth by construction: the
        # operation does not even accept one.
        import inspect

        assert "depth" not in inspect.signature(t_pipe_limited).parameters
        assert "k" not in inspect.signature(t_pipe_limited).parameters


class TestRingCommTime:
    def test_single_node_only_sync(self):
        params = ClusterParams(workers=1, latency_s=9, byte_time_s=9, sync_time_s=0.5)
        assert ring_comm_time(params) == 0.5

    def test_hand_value(self):
        params = ClusterParams(
            workers=4, latency_s=1, byte_time_s=1, reduce_time_s=1,
            sync_time_s=0, model_bytes=8,
        )
        assert ring_comm_time(params) == pytest.approx(24.0)  # 6 + 12 + 6

    def test_beta_linearity(self):
        base = ClusterParams(
            workers=4, latency_s=1, byte_time_s=1, reduce_time_s=1,
            sync_time_s=0, model_bytes=8,
        )
        doubled = ClusterParams(
            workers=4, latency_s=1, byte_time_s=2, reduce_time_s=1,
            sync_time_s=0, model_bytes=8,
        )
        assert ring_comm_time(doubled) - ring_comm_time(base) == pytest.approx(12.0)


class TestPipeSeqAndSegmented:
    def test_seq_mirrors_limited(self):
        params = ClusterParams(
            workers=4, latency_s=1, byte_time_s=1, reduce_time_s=1,
            sync_time_s=0, model_bytes=8,
        )
        comm = ring_comm_time(params)
        compute_heavy = stages_of(10, 20, 0)
        assert t_pipe_seq(5, compute_heavy, params) == 5 * 30
        comm_heavy = stages_of(1, 2, 0)
        assert t_pipe_seq(5, comm_heavy, params) == 5 * comm
        tie = stages_of(4, comm - 4, 0)
        assert t_pipe_seq(5, tie, params) == 5 * comm

    def test_single_segment_degenerates(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            params = random_params(rng, segments=1)
            s = stages_of(0.2, 1.0, 0.0)  # l_b == backward
            assert t_pipe_segmented(7, s, params) == pytest.approx(
                t_pipe_seq(7, s, params)
            )

    def test_segmentation_penalty_identity(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            params = random_params(rng)
            p, L = params.workers, params.segments
            diff = segmented_comm_time(params) - ring_comm_time(params)
            want = (L - 1) * (2 * (p - 1) * params.latency_s + params.sync_time_s)
            assert diff == pytest.approx(want, abs=1e-9)
            assert diff >= -1e-12

    def test_hand_value_segmented_comm(self):
        params = ClusterParams(
            workers=4, latency_s=1, byte_time_s=0, reduce_time_s=0,
            sync_time_s=2, model_bytes=0, segments=8,
        )
        assert segmented_comm_time(params) == pytest.approx(64.0)  # 48 + 16

    def test_dominance_seq_below_sync(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            params = random_params(rng)
            l_up, l_comp = rng.uniform(0, 2), rng.uniform(0, 2)
            comm = ring_comm_time(params)
            stages = stages_of(l_up, l_comp, comm)
            assert t_pipe_seq(11, stages, params) <= t_sync_total(11, stages) + 1e-12


class TestScalingEfficiency:
    def test_compute_bound_is_one(self):
        assert scaling_efficiency(stages_of(1, 3, 2)) == 1.0

    def test_double_comm_gives_half(self):
        assert scaling_efficiency(stages_of(1, 1, 4)) == 0.5

    def test_zero_comm_is_one(self):
        assert scaling_efficiency(stages_of(1, 1, 0)) == 1.0

    def test_bounds_and_iff(self):
        rng = np.random.default_rng(3)
        for _ in range(300):
            s = stages_of(rng.uniform(0.01, 2), rng.uniform(0.01, 2), rng.uniform(0, 5))
            se = scaling_efficiency(s)
            assert 0 < se <= 1
            assert (se == 1.0) == (s.comm <= s.update + s.compute)

    def test_zero_compute_rejected(self):
        with pytest.raises(ConfigError):
            scaling_efficiency(stages_of(0, 0, 1))


class TestMonotonicity:
    def test_totals_nondecreasing_in_every_parameter(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            params = random_params(rng, workers=int(rng.integers(2, 10)))
            stages = stages_of(
                rng.uniform(0, 1), rng.uniform(0.1, 2), rng.uniform(0, 3)
            )
            base = {
                "sync": t_sync_total(9, stages),
                "limited": t_pipe_limited(9, stages),
                "seq": t_pipe_seq(9, stages, params),
                "seg": t_pipe_segmented(9, stages, params),
            }
            bumped_stage = stages_of(
                stages.update + 0.1, stages.compute + 0.2, stages.comm + 0.3
            )
            assert t_sync_total(9, bumped_stage) >= base["sync"]
            assert t_pipe_limited(9, bumped_stage) >= base["limited"]
            for name in (
                "latency_s", "byte_time_s", "reduce_time_s", "sync_time_s",
                "model_bytes",
            ):
                kwargs = {
                    "workers": params.workers,
                    "latency_s": params.latency_s,
                    "byte_time_s": params.byte_time_s,
                    "reduce_time_s": params.reduce_time_s,
                    "sync_time_s": params.sync_time_s,
                    "model_bytes": params.model_bytes,
                    "segments": params.segments,
                }
                kwargs[name] = kwargs[name] * 2 + 0.001
                bumped = ClusterParams(**kwargs)
                assert t_pipe_seq(9, stages, bumped) >= base["seq"] - 1e-12
                assert t_pipe_segmented(9, stages, bumped) >= base["seg"] - 1e-12


class TestRecommendation:
    def test_comm_bound_prefers_sequential(self):
        params = ClusterParams(
            workers=8, latency_s=0.01, byte_time_s=1e-6, sync_time_s=0.01,
            model_bytes=1e7, segments=4,
        )
        stages = stages_of(0.001, 0.01, 0.0, l_b=0.001)
        rec = recommend_config(stages, params)
        assert rec.depth == 2
        assert rec.comm_mode == SEQUENTIAL
        assert rec.bound == COMM_BOUND

    def test_compute_bound_large_backward_gap_prefers_segmented(self):
        params = ClusterParams(
            workers=4, latency_s=1e-6, byte_time_s=1e-9, sync_time_s=0.0,
            model_bytes=1e6, segments=4,
        )
        stages = stages_of(0.01, 1.0, 0.0, split=0.1, l_b=0.01)
        rec = recommend_config(stages, params)
        assert rec.depth == 2
        assert rec.comm_mode == SEGMENTED
        assert rec.bound == COMPUTE_BOUND
        # sanity: the segmented evaluation really is the smaller one
        assert t_pipe_segmented(10, stages, params) < t_pipe_seq(10, stages, params)

    def test_single_worker_sequential_compute(self):
        params = ClusterParams(workers=1, segments=8)
        stages = stages_of(0.1, 0.5, 0.0, l_b=0.01)
        rec = recommend_config(stages, params)
        assert (rec.depth, rec.comm_mode, rec.bound) == (2, SEQUENTIAL, COMPUTE_BOUND)


class TestValidation:
    def test_rejects_negative_times(self):
        with pytest.raises(ConfigError):
            StageTimes(update=-1)
        with pytest.raises(ConfigError):
            ClusterParams(workers=0)
        with pytest.raises(ConfigError):
            ClusterParams(workers=2, latency_s=-1)
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ConfigError):
                StageTimes(update=bad)
            with pytest.raises(ConfigError):
                StageTimes(backward=bad, first_segment_backward=0.0)
            for name in ("latency_s", "byte_time_s", "reduce_time_s",
                         "sync_time_s", "model_bytes"):
                with pytest.raises(ConfigError, match=name):
                    ClusterParams(workers=2, **{name: bad})
        for name in ("workers", "segments"):
            with pytest.raises(ConfigError, match=name):
                ClusterParams(**{"workers": 2, name: 10**400})

    def test_first_segment_cannot_exceed_backward(self):
        with pytest.raises(ConfigError):
            StageTimes(backward=0.5, first_segment_backward=0.6)

    def test_star_time_grows_with_cluster(self):
        times = [
            star_comm_time(
                ClusterParams(workers=p, latency_s=1e-3, byte_time_s=1e-8,
                              model_bytes=1e6)
            )
            for p in (2, 4, 8)
        ]
        assert times[0] < times[1] < times[2]
