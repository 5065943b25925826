"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and measurements. Criterion 7's speedup ratio needs per-worker
compute parallelism (>= 4 cores for its prescribed p=4); on smaller
hosts the pipelined and synchronous modes share one CPU floor and the
test reports the measured ratio honestly.
"""

import statistics
import struct
import time
from collections import defaultdict

import numpy as np
import pytest

from helpers import assert_sum_close, run_ranks

from gradpipe.collective import ring_allreduce
from gradpipe.compression import Codec, compress, decompress, payload_size
from gradpipe.data import synthetic_blobs
from gradpipe.engine import (
    MODE_D_SYNC,
    MODE_PIPE_SGD,
    MODE_PS_SYNC,
    RunConfig,
    run_inproc_cluster,
)
from gradpipe.harness import (
    BREAKDOWN_HEADER,
    BreakdownReport,
    ExperimentConfig,
    calibrate,
    calibration_text,
    predict_iteration_time,
    run_experiment,
)
from gradpipe.models import (
    backward_grad,
    evaluate_accuracy,
    full_dataset_loss,
    init_params,
    logistic_model,
    mlp_model,
)
from gradpipe.timing import (
    ClusterParams,
    StageTimes,
    ring_comm_time,
    scaling_efficiency,
    segmented_comm_time,
    t_pipe_seq,
    t_sync_total,
)


def report(number, name, ok, detail=""):
    line = f"CRITERION {number:2d} {'PASS' if ok else 'FAIL'}: {name}"
    if detail:
        line += f" [{detail}]"
    print(line)
    assert ok, line


def test_criterion_1_allreduce_oracle_equivalence():
    """ring_allreduce matches the direct sum, 100 cases per shape."""
    t0 = time.perf_counter()
    cases = 100
    for p in (1, 2, 3, 4, 8):
        for n in sorted({1, 7, p, 1024, 4099}):
            inputs = []
            oracles = []
            for case in range(cases):
                rng = np.random.default_rng((p, n, case))
                vecs = [
                    rng.normal(0, 1, n).astype(np.float32) for _ in range(p)
                ]
                inputs.append(vecs)
                oracles.append(np.sum(np.stack(vecs).astype(np.float64), axis=0))

            def worker(rank, endpoint):
                return [
                    ring_allreduce(
                        inputs[case][rank], rank, p, endpoint, Codec.NONE, case
                    )
                    for case in range(cases)
                ]

            results = run_ranks(p, worker, timeout_s=30)
            for case in range(cases):
                for rank in range(p):
                    assert_sum_close(results[rank][case], oracles[case])
    elapsed = time.perf_counter() - t0
    report(
        1,
        "ring allreduce matches the direct-sum oracle at 1e-6 relative",
        elapsed < 30.0,
        f"25 shapes x {cases} cases in {elapsed:.1f}s",
    )


def test_criterion_2_byte_and_message_accounting():
    """Exactly 2(p-1) messages and 2((p-1)/p)*payload(n) bytes per rank."""
    n = 1024
    checked = 0
    for p in (2, 4, 8):
        for codec in (Codec.NONE, Codec.TRUNC16, Codec.QUANT8):

            def worker(rank, endpoint):
                vec = np.full(n, rank + 0.5, np.float32)
                ring_allreduce(vec, rank, p, endpoint, codec)
                return endpoint.stats.snapshot()

            for stats in run_ranks(p, worker):
                assert stats.messages == 2 * (p - 1)
                want_bytes = 2 * ((p - 1) * payload_size(codec, n)) // p
                assert stats.payload_bytes == want_bytes
                assert stats.payload_bytes == int(
                    2 * ((p - 1) / p) * payload_size(codec, n)
                )
                checked += 1
    report(
        2,
        "per-rank message and payload-byte counts match the ring coefficients",
        checked == (2 + 4 + 8) * 3,
        f"p in (2,4,8) x 3 codecs, n={n}, exact equality",
    )


def test_criterion_3_timing_model_identities():
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(1000):
        params = ClusterParams(
            workers=int(rng.integers(1, 16)),
            latency_s=float(rng.uniform(0, 0.05)),
            byte_time_s=float(rng.uniform(0, 1e-6)),
            reduce_time_s=float(rng.uniform(0, 1e-7)),
            sync_time_s=float(rng.uniform(0, 0.05)),
            model_bytes=float(rng.uniform(0, 1e9)),
            segments=int(rng.integers(1, 32)),
        )
        p, L = params.workers, params.segments
        diff = segmented_comm_time(params) - ring_comm_time(params)
        want = (L - 1) * (2 * (p - 1) * params.latency_s + params.sync_time_s)
        worst = max(worst, abs(diff - want))
        assert abs(diff - want) <= 1e-9

        stages = StageTimes(
            update=float(rng.uniform(0, 1)),
            forward=float(rng.uniform(0, 1)),
            backward=float(rng.uniform(0, 1)),
            comm=ring_comm_time(params),
        )
        assert t_pipe_seq(17, stages, params) <= t_sync_total(17, stages) + 1e-12

        se = scaling_efficiency(stages) if stages.update + stages.compute > 0 else 1.0
        assert 0 < se <= 1
        assert (se == 1.0) == (stages.comm <= stages.update + stages.compute)
    elapsed = time.perf_counter() - t0
    report(
        3,
        "segmentation penalty identity, dominance, and SE=1 iff compute-bound",
        elapsed < 1.0,
        f"1000 draws, worst identity residual {worst:.2e}, {elapsed * 1e3:.0f} ms",
    )


def test_criterion_4_staleness_exactness():
    depth, iters = 2, 500
    data = synthetic_blobs(dim=16, num_classes=2, num_samples=2048, seed=3)
    model = logistic_model(16, 2)
    cfg = RunConfig(
        mode=MODE_PIPE_SGD, iterations=iters, learning_rate=0.05, batch_size=16,
        seed=3, depth=depth, snapshot_first=depth - 1,
    )
    results = run_inproc_cluster(4, cfg, data, model)
    w0 = init_params(model, cfg.seed)
    audited = 0
    for result in results:
        updates = [e for e in result.trace if e.stage == "update"]
        assert len(updates) == iters + depth
        for e in updates:
            assert e.consumed_tag == e.iteration - depth, (
                f"rank {result.rank} iteration {e.iteration} consumed "
                f"{e.consumed_tag}"
            )
            audited += 1
        for _, snap in result.early_params:  # first K-1 updates
            assert np.array_equal(snap, w0)
    report(
        4,
        "every update at t consumes gradient t-K; first K-1 updates keep w[0]",
        audited == 4 * (iters + depth),
        f"p=4, K={depth}, T={iters}, {audited} update events audited",
    )


def _fd_gradient(params, model, data, batch, h=1e-3):
    base = params.astype(np.float64)
    grad = np.zeros_like(base)
    from gradpipe.models import forward_loss

    for i in range(base.size):
        up, down = base.copy(), base.copy()
        up[i] += h
        down[i] -= h
        grad[i] = (
            forward_loss(up, model, data, batch)
            - forward_loss(down, model, data, batch)
        ) / (2 * h)
    return grad


def test_criterion_5_gradient_correctness():
    t0 = time.perf_counter()
    worst = 0.0
    checks = {"logistic": 0, "mlp": 0}

    data_log = synthetic_blobs(dim=8, num_classes=3, num_samples=200, seed=5)
    model_log = logistic_model(8, 3)
    rng = np.random.default_rng(17)
    while checks["logistic"] < 100:
        params = rng.normal(0, 0.5, model_log.num_params).astype(np.float32)
        batch = rng.choice(200, size=6, replace=False)
        analytic = backward_grad(params, model_log, data_log, batch)
        fd = _fd_gradient(params, model_log, data_log, batch)
        rel = np.abs(analytic - fd) / np.maximum(
            np.maximum(np.abs(analytic), np.abs(fd)), 0.01
        )
        worst = max(worst, rel.max())
        assert rel.max() < 1e-4
        checks["logistic"] += 1

    data_mlp = synthetic_blobs(dim=4, num_classes=2, num_samples=120, seed=6)
    model_mlp = mlp_model(4, (2,), 2)
    from gradpipe.models import _forward_logits

    while checks["mlp"] < 100:
        params = rng.normal(0, 0.6, model_mlp.num_params).astype(np.float32)
        batch = rng.choice(120, size=4, replace=False)
        _, pre = _forward_logits(
            data_mlp.features[batch].astype(np.float64), params, model_mlp
        )
        if min(np.abs(p).min() for p in pre[:-1]) < 5e-3:
            continue  # finite differences straddle a ReLU kink
        analytic = backward_grad(params, model_mlp, data_mlp, batch)
        fd = _fd_gradient(params, model_mlp, data_mlp, batch)
        rel = np.abs(analytic - fd) / np.maximum(
            np.maximum(np.abs(analytic), np.abs(fd)), 0.01
        )
        worst = max(worst, rel.max())
        assert rel.max() < 1e-4
        checks["mlp"] += 1

    elapsed = time.perf_counter() - t0
    report(
        5,
        "analytic gradients match central finite differences at 1e-4",
        elapsed < 60.0,
        f"100 draws per model kind, worst rel err {worst:.2e}, {elapsed:.1f}s",
    )


@pytest.fixture(scope="module")
def convex_benchmark():
    data = synthetic_blobs(
        dim=64, num_classes=2, num_samples=10_000, separation=3.0, seed=42
    )
    model = logistic_model(64, 2)
    return data, model


def test_criterion_6_convergence_parity(convex_benchmark):
    t0 = time.perf_counter()
    data, model = convex_benchmark
    iters = 1200

    def final(mode, codec):
        cfg = RunConfig(
            mode=mode, iterations=iters, learning_rate=0.05, batch_size=32,
            seed=42, codec=codec, depth=2,
        )
        params = run_inproc_cluster(4, cfg, data, model)[0].params
        return (
            full_dataset_loss(params, model, data),
            evaluate_accuracy(params, model, data),
        )

    loss_ds, _ = final(MODE_D_SYNC, Codec.NONE)
    loss_pipe, acc_none = final(MODE_PIPE_SGD, Codec.NONE)
    _, acc_t = final(MODE_PIPE_SGD, Codec.TRUNC16)
    _, acc_q = final(MODE_PIPE_SGD, Codec.QUANT8)

    loss_gap = abs(loss_pipe - loss_ds) / loss_ds
    acc_gap_t = abs(acc_t - acc_none)
    acc_gap_q = abs(acc_q - acc_none)
    elapsed = time.perf_counter() - t0
    report(
        6,
        "pipelined loss within 2% of synchronous; codec accuracy within 1%",
        loss_gap < 0.02 and acc_gap_t < 0.01 and acc_gap_q < 0.01 and elapsed < 300,
        f"loss gap {loss_gap:.4%}, acc delta trunc16 {acc_gap_t:.4f} / "
        f"quant8 {acc_gap_q:.4f}, {elapsed:.0f}s",
    )


def _stage_spans(result, iters):
    spans = defaultdict(float)
    for e in result.trace:
        spans[e.stage] += (e.end_ns - e.start_ns) / 1e6
    return {k: v / iters for k, v in spans.items()}


def test_criterion_7_masking_speedup():
    """Directional masking check: comm ~ compute, pipe vs d_sync vs ps_sync.

    Needs one core per worker to show masking (the paper's setting);
    on smaller hosts both modes share one CPU floor and the ratio
    saturates near 1 regardless of implementation quality.
    """
    t0 = time.perf_counter()
    p, iters = 4, 30
    data = synthetic_blobs(dim=2000, num_classes=10, num_samples=8192, seed=0)
    model = logistic_model(2000, 10)
    n_bytes = payload_size(Codec.NONE, model.num_params)

    def run(mode, T, alpha=0.0, beta=0.0):
        cfg = RunConfig(
            mode=mode, iterations=T, learning_rate=0.05, batch_size=1024,
            seed=0, depth=2,
        )
        return run_inproc_cluster(
            p, cfg, data, model, latency_s=alpha, byte_time_s=beta
        )

    # Calibrate the injection so the measured exchange span tracks the
    # measured per-iteration compute span (l_comm ~ l_up + l_comp).
    probe = run(MODE_D_SYNC, 12)
    spans = _stage_spans(probe[0], 12)
    compute_ms = spans["forward"] + spans["backward"] + spans.get("update", 0.0)
    overhead_ms = spans["allreduce"]
    target_ms = max(2.0, 0.9 * compute_ms - overhead_ms)
    alpha = target_ms / 1e3 / 2 / (2 * (p - 1))
    beta = (target_ms / 1e3 / 2) / (2 * ((p - 1) / p) * n_bytes)

    medians = {}
    for mode in (MODE_D_SYNC, MODE_PIPE_SGD, MODE_PS_SYNC):
        walls = []
        for _ in range(3):
            res = run(mode, iters, alpha, beta)
            walls.append(max(r.train_seconds for r in res if not r.is_server))
        medians[mode] = statistics.median(walls)

    ratio = medians[MODE_PIPE_SGD] / medians[MODE_D_SYNC]
    ordered = medians[MODE_D_SYNC] < medians[MODE_PS_SYNC]
    elapsed = time.perf_counter() - t0
    detail = (
        f"compute {compute_ms:.1f} ms/iter, injected comm target {target_ms:.1f} ms, "
        f"medians d_sync {medians[MODE_D_SYNC]:.2f}s / pipe "
        f"{medians[MODE_PIPE_SGD]:.2f}s / ps {medians[MODE_PS_SYNC]:.2f}s, "
        f"pipe/d_sync {ratio:.3f}, {elapsed:.0f}s"
    )
    report(
        7,
        "pipelined wall-clock <= 0.7x synchronous and d_sync < ps_sync",
        ratio <= 0.7 and ordered and elapsed < 600,
        detail,
    )


def test_criterion_8_prediction_vs_measurement(tmp_path):
    t0 = time.perf_counter()
    p, iters, depth = 2, 20, 2
    config = ExperimentConfig(
        mode=MODE_D_SYNC, workers=p, iterations=iters, learning_rate=0.05,
        batch_size=256, seed=1, synth_dim=2000, synth_classes=10,
        synth_samples=4096,
    )
    data_cfg = config
    stages, _ = calibrate(data_cfg, reps=12, probe_bytes=1 << 16)

    from gradpipe.harness import build_dataset, build_model

    data = build_dataset(config)
    model = build_model(config, data)
    n_bytes = payload_size(Codec.NONE, model.num_params)
    alpha = 0.050
    beta = 0.100 / n_bytes  # full-vector transfer ~ 100 ms
    cluster = ClusterParams(
        workers=p,
        latency_s=alpha,
        byte_time_s=beta,
        reduce_time_s=0.0,
        sync_time_s=0.0,
        model_bytes=float(n_bytes),
    )

    def measured(mode):
        cfg = RunConfig(
            mode=mode, iterations=iters, learning_rate=0.05, batch_size=256,
            seed=1, depth=depth,
        )
        walls = []
        for _ in range(3):
            res = run_inproc_cluster(
                p, cfg, data, model, latency_s=alpha, byte_time_s=beta
            )
            walls.append(max(r.train_seconds for r in res) / iters)
        return statistics.median(walls)

    m_dsync = measured(MODE_D_SYNC)
    m_pipe = measured(MODE_PIPE_SGD)
    pred_dsync = predict_iteration_time(MODE_D_SYNC, 1, iters, stages, cluster)
    pred_pipe = predict_iteration_time(MODE_PIPE_SGD, depth, iters, stages, cluster)
    err_dsync = abs(m_dsync - pred_dsync) / pred_dsync
    err_pipe = abs(m_pipe - pred_pipe) / pred_pipe

    # `compare` subcommand must agree (exit 0 at its 25% flag threshold).
    cal = tmp_path / "calibration.cfg"
    cal.write_text(calibration_text(stages, cluster))
    rows = []
    for mode, wall in ((MODE_D_SYNC, m_dsync), (MODE_PIPE_SGD, m_pipe)):
        rows.append(
            BreakdownReport(
                mode=mode, workers=p, iterations=iters,
                depth=depth if mode == MODE_PIPE_SGD else 1, codec="none",
                update_s=0, compute_s=0, communicate_s=0, idle_s=0,
                iteration_wall_s=wall, final_accuracy=1.0,
            ).csv_row()
        )
    measured_csv = tmp_path / "breakdown.csv"
    measured_csv.write_text(BREAKDOWN_HEADER + "\n" + "\n".join(rows) + "\n")
    from gradpipe.cli import main

    exit_code = main(
        ["compare", "--params", str(cal), "--measured", str(measured_csv)]
    )
    elapsed = time.perf_counter() - t0
    report(
        8,
        "measured iteration times match the sync/pipelined predictions",
        err_dsync < 0.10 and err_pipe < 0.15 and exit_code == 0,
        f"d_sync {m_dsync * 1e3:.1f} vs {pred_dsync * 1e3:.1f} ms "
        f"({err_dsync:.1%}); pipe {m_pipe * 1e3:.1f} vs {pred_pipe * 1e3:.1f} ms "
        f"({err_pipe:.1%}); compare exit {exit_code}; {elapsed:.0f}s",
    )


def test_criterion_9_codec_error_bounds():
    rng = np.random.default_rng(9)
    worst_t = 0.0
    worst_q = 0.0

    # trunc16: 1e6 random finite values across the normal-float range.
    mags = rng.uniform(-30, 30, 1_000_000)
    values = (rng.normal(0, 1, 1_000_000) * (10.0**mags)).astype(np.float32)
    values = values[np.isfinite(values)]
    values = values[np.abs(values) >= np.float32(2.0**-126)]
    edges = np.array(
        [0.0, 2.0**-126, -(2.0**-126), np.finfo(np.float32).max,
         -np.finfo(np.float32).max],
        np.float32,
    )
    sample = np.concatenate([values, edges])
    out = decompress(compress(sample, Codec.TRUNC16))
    nonzero = sample != 0
    rel = np.abs(
        out[nonzero].astype(np.float64) - sample[nonzero].astype(np.float64)
    ) / np.abs(sample[nonzero].astype(np.float64))
    worst_t = rel.max()
    assert out[~nonzero].item() == 0.0
    assert worst_t <= 2.0**-8

    # quant8: 1000 vectors of 1000 values each, half-step bound per vector.
    for i in range(1000):
        vec = (rng.normal(0, 1, 1000) * 10.0 ** rng.integers(-6, 7)).astype(
            np.float32
        )
        back = decompress(compress(vec, Codec.QUANT8))
        err = np.abs(back.astype(np.float64) - vec.astype(np.float64)).max()
        bound = np.abs(vec).max() / 254.0
        worst_q = max(worst_q, err / bound)
        assert err <= bound
    for edge_vec in (edges, np.zeros(4, np.float32)):
        back = decompress(compress(edge_vec, Codec.QUANT8))
        bound = np.abs(edge_vec).max() / 254.0
        assert np.abs(back.astype(np.float64) - edge_vec.astype(np.float64)).max() <= bound

    report(
        9,
        "trunc16 relative error <= 2^-8 and quant8 error <= max|v|/254",
        True,
        f"worst trunc16 {worst_t:.3e} (bound {2.0 ** -8:.3e}), "
        f"worst quant8 {worst_q:.3f} of bound, 1e6+ values each",
    )


def test_criterion_10_determinism(tmp_path):
    def run_once(out, clock):
        config = ExperimentConfig(
            mode=MODE_D_SYNC, workers=4, iterations=60, learning_rate=0.05,
            codec=Codec.NONE, batch_size=16, eval_interval=20, seed=7,
            synth_dim=16, synth_samples=2048, clock=clock, out_dir=str(out),
        )
        return run_experiment(config)

    run_once(tmp_path / "a", "logical")
    run_once(tmp_path / "b", "logical")
    bytes_a = (tmp_path / "a" / "metrics.csv").read_bytes()
    bytes_b = (tmp_path / "b" / "metrics.csv").read_bytes()
    identical = bytes_a == bytes_b

    res_c = run_once(tmp_path / "c", "monotonic")
    res_d = run_once(tmp_path / "d", "monotonic")
    losses_match = [r[2] for r in res_c.metrics_rows] == [
        r[2] for r in res_d.metrics_rows
    ]
    accs_match = [r[3] for r in res_c.metrics_rows] == [
        r[3] for r in res_d.metrics_rows
    ]
    report(
        10,
        "identical seeded runs produce byte-identical metrics.csv",
        identical and losses_match and accs_match,
        f"{len(bytes_a)} bytes compared; real-clock trajectories also equal",
    )
