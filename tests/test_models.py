import math

import numpy as np
import pytest

from gradpipe.data import synthetic_blobs
from gradpipe.errors import ConfigError
from gradpipe.models import (
    ModelSpec,
    backward_grad,
    evaluate_accuracy,
    forward_loss,
    full_dataset_loss,
    init_params,
    logistic_model,
    mlp_model,
    sgd_update,
)


def fd_gradient(params, model, data, batch, h=1e-3):
    """Central finite differences in float64, the gradient oracle."""
    base = params.astype(np.float64)
    grad = np.zeros_like(base)
    for i in range(base.size):
        up, down = base.copy(), base.copy()
        up[i] += h
        down[i] -= h
        grad[i] = (
            forward_loss(up, model, data, batch)
            - forward_loss(down, model, data, batch)
        ) / (2 * h)
    return grad


def assert_grad_close(analytic, fd, floor=0.01, tol=1e-4):
    rel = np.abs(analytic.astype(np.float64) - fd) / np.maximum(
        np.maximum(np.abs(analytic), np.abs(fd)), floor
    )
    assert rel.max() < tol, f"worst relative error {rel.max():.3e}"


def scalar_reference_loss(params, model, data, batch):
    """Straight-line softmax cross-entropy, no numpy linear algebra."""
    d_in, d_out = model.layer_dims
    w = [[float(params[i * d_out + j]) for j in range(d_out)] for i in range(d_in)]
    b = [float(params[d_in * d_out + j]) for j in range(d_out)]
    total = 0.0
    for s in batch:
        x = [float(v) for v in data.features[s]]
        logits = [
            sum(x[i] * w[i][j] for i in range(d_in)) + b[j] for j in range(d_out)
        ]
        m = max(logits)
        exps = [math.exp(v - m) for v in logits]
        total += -math.log(exps[int(data.labels[s])] / sum(exps))
    return total / len(batch)


@pytest.fixture(scope="module")
def blob_case():
    data = synthetic_blobs(dim=6, num_classes=3, num_samples=40, seed=42)
    model = logistic_model(6, 3)
    rng = np.random.default_rng(42)
    params = rng.normal(0, 0.3, size=model.num_params).astype(np.float32)
    return data, model, params


class TestForwardLoss:
    def test_zero_params_binary_is_ln2(self):
        data = synthetic_blobs(dim=4, num_classes=2, num_samples=20, seed=0)
        model = logistic_model(4, 2)
        loss = forward_loss(
            np.zeros(model.num_params, np.float32), model, data, np.arange(10)
        )
        assert loss == pytest.approx(math.log(2), abs=1e-12)

    def test_saturated_softmax_loss_vanishes(self):
        data = synthetic_blobs(dim=2, num_classes=2, num_samples=4, seed=1)
        model = logistic_model(2, 2)
        x = data.features[0]
        y = int(data.labels[0])
        # Put a huge logit margin on the true class of one sample.
        params = np.zeros(model.num_params, np.float32)
        for i in range(2):
            params[i * 2 + y] = 50.0 * np.sign(x[i]) if x[i] != 0 else 0.0
            params[i * 2 + (1 - y)] = -params[i * 2 + y]
        loss = forward_loss(params, model, data, np.array([0]))
        assert loss < 1e-6

    def test_matches_scalar_reference(self, blob_case):
        data, model, params = blob_case
        batch = np.arange(12)
        got = forward_loss(params, model, data, batch)
        want = scalar_reference_loss(params, model, data, batch)
        assert got == pytest.approx(want, rel=1e-12)
        assert got == pytest.approx(1.8934122744285844, rel=1e-9)  # frozen

    def test_loss_nonnegative(self):
        data = synthetic_blobs(dim=5, num_classes=3, num_samples=60, seed=2)
        model = logistic_model(5, 3)
        rng = np.random.default_rng(7)
        for _ in range(25):
            params = rng.normal(0, 2, model.num_params).astype(np.float32)
            batch = rng.choice(60, size=8, replace=False)
            assert forward_loss(params, model, data, batch) >= 0.0

    def test_dimension_mismatch_raises(self, blob_case):
        data, model, _ = blob_case
        with pytest.raises(ConfigError):
            forward_loss(np.zeros(5, np.float32), model, data, np.arange(3))


class TestBackwardGrad:
    def test_quadratic_sanity_model(self):
        # Test-only model f(w) = 0.5 ||w||^2 has gradient w: zero at zero.
        w = np.zeros(17, np.float32)
        assert np.array_equal(w, w - 0.1 * w)
        w = np.linspace(-1, 1, 17).astype(np.float32)
        fd = np.zeros(17)
        h = 1e-4

        def f(v):
            return 0.5 * float(v @ v)

        for i in range(17):
            up, down = w.astype(np.float64).copy(), w.astype(np.float64).copy()
            up[i] += h
            down[i] -= h
            fd[i] = (f(up) - f(down)) / (2 * h)
        assert np.allclose(fd, w, atol=1e-8)

    def test_logistic_matches_finite_differences(self, blob_case):
        data, model, _ = blob_case
        rng = np.random.default_rng(11)
        for _ in range(5):
            params = rng.normal(0, 0.5, model.num_params).astype(np.float32)
            batch = rng.choice(data.num_samples, size=6, replace=False)
            analytic = backward_grad(params, model, data, batch)
            fd = fd_gradient(params, model, data, batch)
            assert_grad_close(analytic, fd)

    def test_mlp_matches_finite_differences(self):
        data = synthetic_blobs(dim=4, num_classes=2, num_samples=30, seed=3)
        model = mlp_model(4, (2,), 2)
        rng = np.random.default_rng(13)
        checked = 0
        while checked < 5:
            params = rng.normal(0, 0.6, model.num_params).astype(np.float32)
            batch = rng.choice(30, size=4, replace=False)
            # Finite differences need pre-activations clear of the ReLU kink.
            from gradpipe.models import _forward_logits

            _, acts, blocks = _forward_logits(
                data.features[batch].astype(np.float64), params, model
            )
            pre = [a @ w + b for a, w, b in zip(acts, blocks[::2], blocks[1::2])]
            if min(np.abs(p).min() for p in pre[:-1]) < 5e-3:
                continue
            analytic = backward_grad(params, model, data, batch)
            fd = fd_gradient(params, model, data, batch)
            assert_grad_close(analytic, fd)
            checked += 1

    def test_gradient_shape_and_finite(self, blob_case):
        data, model, params = blob_case
        grad = backward_grad(params, model, data, np.arange(8))
        assert grad.shape == (model.num_params,)
        assert grad.dtype == np.float32
        assert np.isfinite(grad).all()


class TestFloat32Pass:
    """backward_grad runs in the parameters' dtype, on views of them."""

    def test_float32_matches_float64_at_bench_shape(self):
        # 784- and 500-wide sums build up more rounding than the tiny
        # finite-difference shapes can show.
        data = synthetic_blobs(dim=784, num_classes=10, num_samples=512, seed=8)
        model = mlp_model(784, (500, 500), 10)
        rng = np.random.default_rng(21)
        for seed in range(5):
            params = init_params(model, seed)
            params += rng.normal(0, 0.01, model.num_params).astype(np.float32)
            batch = rng.choice(data.num_samples, size=64, replace=False)
            got = backward_grad(params, model, data, batch)
            want = backward_grad(params.astype(np.float64), model, data, batch)
            assert_grad_close(got, want.astype(np.float64))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_params_left_unchanged_and_unshared(self, dtype):
        data = synthetic_blobs(dim=6, num_classes=3, num_samples=40, seed=9)
        rng = np.random.default_rng(22)
        for model in (logistic_model(6, 3), mlp_model(6, (5, 4), 3)):
            params = rng.normal(0, 0.5, model.num_params).astype(dtype)
            before = params.copy()
            params.setflags(write=False)  # an in-place write would raise
            batch = np.arange(10)
            forward_loss(params, model, data, batch)
            grad = backward_grad(params, model, data, batch)
            evaluate_accuracy(params, model, data)
            assert np.array_equal(params.view(np.uint8), before.view(np.uint8))
            assert not np.shares_memory(grad, params)
            assert grad.dtype == np.float32 and grad.flags.writeable


class TestSgdUpdate:
    def test_zero_gradient_keeps_params(self):
        w = np.array([1.0, 2.0], np.float32)
        out = sgd_update(w, np.zeros(2, np.float32), 0.1)
        assert np.array_equal(out, w)

    def test_one_step_arithmetic(self):
        out = sgd_update(
            np.array([1.0], np.float32), np.array([2.0], np.float32), 0.5
        )
        assert out[0] == 0.0

    def test_matches_scalar_loop(self):
        rng = np.random.default_rng(5)
        w = rng.normal(size=1000).astype(np.float32)
        g = rng.normal(size=1000).astype(np.float32)
        lr = 0.3
        got = sgd_update(w, g, lr)
        want = np.array(
            [np.float32(w[i]) - np.float32(lr) * np.float32(g[i]) for i in range(1000)],
            np.float32,
        )
        assert np.array_equal(got, want)

    def test_update_linearity(self):
        rng = np.random.default_rng(6)
        w = rng.normal(size=50).astype(np.float32)
        g1 = rng.normal(size=50).astype(np.float32)
        g2 = rng.normal(size=50).astype(np.float32)
        a, b, lr = 0.7, 1.3, 0.01
        combined = sgd_update(w, (a * g1 + b * g2).astype(np.float32), lr)
        stepped = sgd_update(sgd_update(w, g1, lr * a), g2, lr * b)
        assert np.allclose(combined, stepped, rtol=1e-6, atol=1e-7)

    def test_length_mismatch(self):
        with pytest.raises(ConfigError):
            sgd_update(np.zeros(3, np.float32), np.zeros(2, np.float32), 0.1)

    def test_nonpositive_lr(self):
        with pytest.raises(ConfigError):
            sgd_update(np.zeros(2, np.float32), np.zeros(2, np.float32), 0.0)


class TestEvaluateAccuracy:
    def test_zero_params_predicts_lowest_class(self):
        data = synthetic_blobs(dim=4, num_classes=2, num_samples=100, seed=4)
        model = logistic_model(4, 2)
        acc = evaluate_accuracy(np.zeros(model.num_params, np.float32), model, data)
        assert acc == (data.labels == 0).mean()

    def test_separating_params_reach_one(self):
        # Clearly separated blobs and a trained-enough linear model.
        data = synthetic_blobs(
            dim=4, num_classes=2, num_samples=200, separation=20.0, seed=5
        )
        model = logistic_model(4, 2)
        params = np.zeros(model.num_params, np.float32)
        for _ in range(200):
            grad = backward_grad(params, model, data, np.arange(200))
            params = sgd_update(params, grad, 0.5)
        assert evaluate_accuracy(params, model, data) == 1.0

    def test_matches_scalar_reference(self, blob_case):
        data, model, params = blob_case
        d_in, d_out = model.layer_dims
        correct = 0
        for s in range(data.num_samples):
            x = data.features[s].astype(np.float64)
            logits = [
                sum(float(x[i]) * float(params[i * d_out + j]) for i in range(d_in))
                + float(params[d_in * d_out + j])
                for j in range(d_out)
            ]
            best = 0
            for j in range(1, d_out):
                if logits[j] > logits[best]:
                    best = j
            correct += best == int(data.labels[s])
        assert evaluate_accuracy(params, model, data) == pytest.approx(
            correct / data.num_samples
        )
        assert evaluate_accuracy(params, model, data) == pytest.approx(0.325)  # frozen


class TestModelSpec:
    def test_param_layout_covers_vector(self):
        model = mlp_model(784, (500, 500), 10)
        blocks = model.param_blocks()
        offset = 0
        for block_offset, shape in blocks:
            assert block_offset == offset
            offset += int(np.prod(shape))
        assert offset == model.num_params == 784 * 500 + 500 + 500 * 500 + 500 + 500 * 10 + 10

    def test_init_is_deterministic(self):
        model = mlp_model(8, (4,), 3)
        a = init_params(model, seed=9)
        b = init_params(model, seed=9)
        assert np.array_equal(a, b)
        c = init_params(model, seed=10)
        assert not np.array_equal(a, c)

    def test_init_bounds(self):
        model = mlp_model(6, (4,), 2)
        params = init_params(model, seed=0)
        (w1_off, w1_shape), _, (w2_off, w2_shape), _ = model.param_blocks()
        lim1 = math.sqrt(6.0 / (6 + 4))
        w1 = params[w1_off : w1_off + 24]
        assert np.abs(w1).max() <= lim1
        assert np.abs(w1).max() > 0
        # biases zero
        assert params[w1_off + 24 : w1_off + 28].sum() == 0

    def test_bad_kind_rejected(self):
        with pytest.raises(ConfigError):
            ModelSpec("perceptron", (3, 2))

    def test_full_dataset_loss(self, blob_case):
        data, model, params = blob_case
        assert full_dataset_loss(params, model, data) == pytest.approx(
            forward_loss(params, model, data, np.arange(data.num_samples))
        )

    def test_determinism(self, blob_case):
        data, model, params = blob_case
        batch = np.arange(7)
        assert forward_loss(params, model, data, batch) == forward_loss(
            params, model, data, batch
        )
        assert np.array_equal(
            backward_grad(params, model, data, batch),
            backward_grad(params, model, data, batch),
        )
