"""Self-contained models, losses, and gradients.

Two model kinds are supported: multinomial logistic regression and a
fully-connected ReLU network. Parameters and gradients live in flat
float32 vectors ("grad vectors"); the layout of weight/bias blocks
inside the flat vector is described by ModelSpec.param_blocks().

`forward_loss` (and so `full_dataset_loss`) and `evaluate_accuracy`
evaluate in float64 whatever the parameters' dtype. They upcast block by
block: each layer's weights and biases are cast just before that
layer's matmul, so the float64 temporary is one layer, never a float64
copy of the whole parameter vector. `backward_grad`
runs in the dtype of the parameters it is given: float32 in training,
float64 when a caller wants a reference. It stores the gradient as
float32 either way; the float32 pass still matches central finite
differences at 1e-4 relative tolerance.

The weight and bias blocks are views of the flat parameter vector, not
copies, so nothing here may modify them in place.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .data import Dataset

LOGISTIC = "logistic"
MLP = "mlp"

GRAD_DTYPE = np.float32


@dataclass(frozen=True)
class ModelSpec:
    """Architecture description plus the flat-parameter layout.

    layer_dims is (input_dim, hidden..., num_classes); logistic models
    have exactly (input_dim, num_classes). Each layer contributes a
    weight block of shape (d_in, d_out) followed by a bias block of
    shape (d_out,), packed contiguously.
    """

    kind: str
    layer_dims: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.kind not in (LOGISTIC, MLP):
            raise ConfigError(f"unknown model kind {self.kind!r}")
        if len(self.layer_dims) < 2 or any(d < 1 for d in self.layer_dims):
            raise ConfigError(f"bad layer dims {self.layer_dims}")
        if self.kind == LOGISTIC and len(self.layer_dims) != 2:
            raise ConfigError("logistic model takes exactly (input_dim, num_classes)")

    @property
    def num_classes(self) -> int:
        return self.layer_dims[-1]

    @property
    def input_dim(self) -> int:
        return self.layer_dims[0]

    def param_blocks(self) -> list[tuple[int, tuple[int, ...]]]:
        """(offset, shape) for each W/b block, covering the flat vector."""
        blocks = []
        offset = 0
        for d_in, d_out in zip(self.layer_dims[:-1], self.layer_dims[1:]):
            blocks.append((offset, (d_in, d_out)))
            offset += d_in * d_out
            blocks.append((offset, (d_out,)))
            offset += d_out
        return blocks

    @property
    def num_params(self) -> int:
        return sum(
            (din + 1) * dout
            for din, dout in zip(self.layer_dims[:-1], self.layer_dims[1:])
        )


def logistic_model(input_dim: int, num_classes: int) -> ModelSpec:
    return ModelSpec(LOGISTIC, (input_dim, num_classes))


def mlp_model(input_dim: int, hidden: tuple[int, ...], num_classes: int) -> ModelSpec:
    return ModelSpec(MLP, (input_dim, *hidden, num_classes))


def init_params(model: ModelSpec, seed: int = 0) -> np.ndarray:
    """Initial flat parameter vector.

    Logistic models start at zero (deterministic, loss starts at ln C).
    MLP weights use uniform(+-sqrt(6/(fan_in+fan_out))) per layer with
    biases at zero.
    """
    params = np.zeros(model.num_params, dtype=GRAD_DTYPE)
    if model.kind == MLP:
        rng = np.random.default_rng(seed)
        for offset, shape in model.param_blocks():
            if len(shape) == 2:
                fan_in, fan_out = shape
                limit = np.sqrt(6.0 / (fan_in + fan_out))
                block = rng.uniform(-limit, limit, size=shape)
                params[offset : offset + fan_in * fan_out] = block.reshape(-1).astype(
                    GRAD_DTYPE
                )
    return params


def _unpack(params: np.ndarray, model: ModelSpec) -> list[np.ndarray]:
    if params.shape != (model.num_params,):
        raise ConfigError(
            f"params length {params.shape} does not match model layout "
            f"({model.num_params},)"
        )
    views = []
    for offset, shape in model.param_blocks():
        size = int(np.prod(shape))
        views.append(params[offset : offset + size].reshape(shape))
    return views


def _forward_logits(
    x: np.ndarray, params: np.ndarray, model: ModelSpec
) -> tuple[np.ndarray, list[np.ndarray], list[np.ndarray]]:
    """Logits, each layer's input, and the unpacked W/b blocks (for backward).

    Each layer runs in x.dtype: its blocks are cast to it one at a time,
    which costs nothing when the dtypes already agree.
    """
    blocks = _unpack(params, model)

    def layer(a: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
        return a @ w.astype(x.dtype, copy=False) + b.astype(x.dtype, copy=False)

    acts = [x]
    for w, b in zip(blocks[:-2:2], blocks[1:-2:2]):
        acts.append(np.maximum(layer(acts[-1], w, b), 0.0))
    return layer(acts[-1], blocks[-2], blocks[-1]), acts, blocks


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def _batch_arrays(
    data: Dataset, batch: np.ndarray, model: ModelSpec
) -> tuple[np.ndarray, np.ndarray]:
    if model.input_dim != data.dim or model.num_classes != data.num_classes:
        raise ConfigError(
            f"model ({model.input_dim}->{model.num_classes}) does not fit dataset "
            f"({data.dim}->{data.num_classes})"
        )
    idx = np.asarray(batch, dtype=np.int64)
    if idx.ndim != 1 or idx.size == 0:
        raise ConfigError("batch must be a non-empty 1-D index array")
    if idx.min() < 0 or idx.max() >= data.num_samples:
        raise ConfigError("batch indices out of range")
    return data.features[idx], data.labels[idx]


def forward_loss(
    params: np.ndarray, model: ModelSpec, data: Dataset, batch: np.ndarray
) -> float:
    """Mean softmax cross-entropy of the batch, evaluated in float64."""
    x, y = _batch_arrays(data, batch, model)
    x = x.astype(np.float64)  # rebound, so the float32 rows are freed first
    logits, _, _ = _forward_logits(x, params, model)
    logp = _log_softmax(logits)
    return float(-logp[np.arange(len(y)), y].mean())


def backward_grad(
    params: np.ndarray, model: ModelSpec, data: Dataset, batch: np.ndarray
) -> np.ndarray:
    """Gradient of the mean batch loss w.r.t. the flat parameter vector.

    Evaluated in params.dtype and returned as float32.
    """
    x, y = _batch_arrays(data, batch, model)
    x = x.astype(params.dtype, copy=False)
    logits, acts, blocks = _forward_logits(x, params, model)
    probs = np.exp(_log_softmax(logits))
    probs[np.arange(len(y)), y] -= 1.0
    delta = probs / len(y)

    n_layers = len(blocks) // 2
    grad = np.empty(model.num_params, dtype=GRAD_DTYPE)
    layout = model.param_blocks()
    for i in range(n_layers - 1, -1, -1):
        gw = acts[i].T @ delta
        gb = delta.sum(axis=0)
        w_off, w_shape = layout[2 * i]
        b_off, _ = layout[2 * i + 1]
        grad[w_off : w_off + gw.size] = gw.reshape(-1)
        grad[b_off : b_off + gb.size] = gb
        if i > 0:
            # acts[i] is layer i-1's ReLU output, so > 0 is its derivative mask.
            delta = (delta @ blocks[2 * i].T) * (acts[i] > 0.0)
    if not np.isfinite(grad).all():
        raise ConfigError("non-finite gradient (diverging parameters?)")
    return grad


def sgd_update(params: np.ndarray, grad: np.ndarray, lr: float) -> np.ndarray:
    """params - lr * grad, elementwise, returned as float32.

    The step lr * grad is the one temporary: the difference is written
    over it. The arithmetic runs in the promoted dtype of params and
    grad, as the plain expression would, so a float64 grad is still
    multiplied and subtracted in float64.
    """
    if params.shape != grad.shape:
        raise ConfigError(f"length mismatch {params.shape} vs {grad.shape}")
    if lr <= 0:
        raise ConfigError(f"learning rate must be positive, got {lr}")
    step = GRAD_DTYPE(lr) * grad
    np.subtract(params, step, out=step)
    return step.astype(GRAD_DTYPE, copy=False)


def evaluate_accuracy(params: np.ndarray, model: ModelSpec, data: Dataset) -> float:
    """Fraction of argmax-correct predictions; ties go to the lowest class."""
    logits, _, _ = _forward_logits(data.features.astype(np.float64), params, model)
    pred = np.argmax(logits, axis=1)
    return float((pred == data.labels).mean())


def full_dataset_loss(params: np.ndarray, model: ModelSpec, data: Dataset) -> float:
    """Mean cross-entropy over the entire dataset."""
    return forward_loss(params, model, data, np.arange(data.num_samples))
