"""Fixed-architecture MLP baseline: two ReLU hidden layers of 64, tanh output.

One training recipe is used everywhere (full-batch gradient descent,
learning rate 0.05, 1500 epochs) so the comparison stays honest: only the
KA-FCM gets hyperparameter search.

MLPParams holds the six layers as views into one flat buffer `theta`, so
mlp_train runs the KA-FCM's descent loop (training._descend) with a plain
step theta -= lr * grad, and a divergence names the layer (W1 ... b3).
Training and mlp_gradient share one backward, a per-batch _Workspace that
fills its (T, 64) activations, (T, n_out) outputs and flat gradient in place
each epoch (all with out=): fresh batch-sized arrays on every epoch cost
page faults that doubled the epoch time.
"""

from __future__ import annotations

import math

import numpy as np

from .datagen import Dataset
from .training import TrainConfig, _descend

__all__ = [
    "HIDDEN_WIDTH",
    "MLPParams",
    "mlp_init",
    "mlp_forward",
    "mlp_gradient",
    "mlp_train",
    "default_mlp_config",
]

HIDDEN_WIDTH = 64
_LAYER_NAMES = ("W1", "b1", "W2", "b2", "W3", "b3")


class MLPParams:
    """The network's weights and biases in one flat float buffer `theta`.

    W1 (64, n_in), b1 (64,), W2 (64, 64), b2 (64,), W3 (n_out, 64) and b3
    (n_out,) are views into theta in that order, the way KAFCMModel.theta
    holds its parameters; update them in place. The constructor copies its
    six arrays in and raises ValueError unless their shapes fit together.
    """

    def __init__(self, W1, b1, W2, b2, W3, b3):
        layers = [np.asarray(a, dtype=float) for a in (W1, b1, W2, b2, W3, b3)]
        # n_in and n_out as W1 and W3 give them; -1 fails the comparison
        self.n_in = layers[0].shape[1] if layers[0].ndim == 2 else -1
        self.n_out = layers[4].shape[0] if layers[4].ndim == 2 else -1
        h = HIDDEN_WIDTH
        self.shapes = [(h, self.n_in), (h,), (h, h), (h,), (self.n_out, h), (self.n_out,)]
        if [a.shape for a in layers] != self.shapes:
            raise ValueError("parameter shapes do not form a 64/64 two-hidden-layer network")
        self.theta = np.concatenate([a.ravel() for a in layers])
        self._layers = self.views(self.theta)

    W1, b1, W2, b2, W3, b3 = (property(lambda self, k=k: self._layers[k]) for k in range(6))

    def views(self, flat: np.ndarray) -> list:
        """[W1, b1, W2, b2, W3, b3] views into a buffer laid out like theta."""
        ends = np.cumsum([math.prod(shape) for shape in self.shapes])[:-1]
        return [part.reshape(shape) for part, shape in zip(np.split(flat, ends), self.shapes)]

    def arrays(self):
        return list(self._layers)


def mlp_init(n_in: int, n_out: int, seed: int = 0) -> MLPParams:
    """Each layer drawn uniformly from [-1/sqrt(fan_in), 1/sqrt(fan_in)]."""
    if n_in < 1 or n_out < 1:
        raise ValueError("n_in and n_out must be at least 1")
    rng = np.random.default_rng(seed)
    h, layers = HIDDEN_WIDTH, []
    for rows, cols in ((h, n_in), (h, h), (n_out, h)):
        bound = 1.0 / np.sqrt(cols)
        layers += rng.uniform(-bound, bound, (rows, cols)), rng.uniform(-bound, bound, rows)
    return MLPParams(*layers)


def mlp_forward(params: MLPParams, x) -> np.ndarray:
    """tanh(W3 relu(W2 relu(W1 x + b1) + b2) + b3); accepts a vector or a
    (T, n_in) batch."""
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    X = x[None, :] if single else x
    if X.ndim != 2 or X.shape[1] != params.n_in:
        raise ValueError(f"input shape {x.shape} does not match n_in={params.n_in}")
    H = np.maximum(X @ params.W1.T + params.b1, 0.0)
    H = np.maximum(H @ params.W2.T + params.b2, 0.0)
    out = np.tanh(H @ params.W3.T + params.b3)
    return out[0] if single else out


class _Workspace:
    """One batch's forward and backward buffers, allocated once, a copy `work`
    of the parameters and their gradient `grads`, whose flat buffers are
    `theta` and `grad`. loss_and_grads keeps the float operations of the
    plain allocating expressions and their order, so its bits are theirs.
    """

    def __init__(self, params: MLPParams, X: np.ndarray, Y: np.ndarray):
        T, h = len(X), HIDDEN_WIDTH
        self.X, self.Y = X, Y
        self.Z1, self.H1, self.Z2, self.H2, self.dH1, self.dH2 = (np.empty((T, h)) for _ in range(6))
        self.P, self.R, self.dZ3, self.tmp = (np.empty((T, params.n_out)) for _ in range(4))
        self.row_loss = np.empty(T)
        self.mask = np.empty((T, h), dtype=bool)
        self.work = MLPParams(*params.arrays())
        self.grads = MLPParams(*(np.empty_like(a) for a in params.arrays()))
        self.theta, self.grad = self.work.theta, self.grads.theta

    def loss_and_grads(self) -> float:
        """Mean squared error at theta; fills grad with its gradient."""
        X, p, g = self.X, self.work, self.grads
        Z1, H1, Z2, H2, dH1, dH2 = self.Z1, self.H1, self.Z2, self.H2, self.dH1, self.dH2
        P, R, dZ3, tmp, mask = self.P, self.R, self.dZ3, self.tmp, self.mask
        # forward: Z1 = X W1^T + b1, H1 = relu(Z1), ..., P = tanh(H2 W3^T + b3)
        np.matmul(X, p.W1.T, out=Z1)
        Z1 += p.b1
        np.maximum(Z1, 0.0, out=H1)
        np.matmul(H1, p.W2.T, out=Z2)
        Z2 += p.b2
        np.maximum(Z2, 0.0, out=H2)
        np.matmul(H2, p.W3.T, out=P)
        P += p.b3
        np.tanh(P, out=P)
        np.subtract(P, self.Y, out=R)
        np.square(R, out=tmp)
        loss = float(np.mean(np.sum(tmp, axis=1, out=self.row_loss)))
        # backward: dZ3 = (2/T) R (1 - P^2); the ReLU subgradient at 0 is 0
        np.multiply(2.0 / len(X), R, out=dZ3)
        np.square(P, out=tmp)
        np.subtract(1.0, tmp, out=tmp)
        dZ3 *= tmp
        np.matmul(dZ3, p.W3, out=dH2)
        dH2 *= np.greater(Z2, 0, out=mask)  # dH2 now holds dZ2
        np.matmul(dH2, p.W2, out=dH1)
        dH1 *= np.greater(Z1, 0, out=mask)  # dH1 now holds dZ1
        np.matmul(dH1.T, X, out=g.W1)
        np.sum(dH1, axis=0, out=g.b1)
        np.matmul(dH2.T, H1, out=g.W2)
        np.sum(dH2, axis=0, out=g.b2)
        np.matmul(dZ3.T, H2, out=g.W3)
        np.sum(dZ3, axis=0, out=g.b3)
        return loss

    def non_finite_entry(self, flat: np.ndarray) -> str:
        """The layer holding the first non-finite entry of a buffer laid out like theta."""
        for name, layer in zip(_LAYER_NAMES, self.work.views(flat)):
            if not np.isfinite(layer).all():
                return f"layer {name}"


def mlp_gradient(params: MLPParams, data: Dataset) -> MLPParams:
    """Backpropagated gradients of the mean squared error, packaged in the
    same shape as the parameters. ReLU subgradient at 0 is taken as 0."""
    X = np.asarray(data.inputs, dtype=float)
    Y = np.asarray(data.targets, dtype=float)
    if len(X) == 0:
        raise ValueError("empty batch")
    ws = _Workspace(params, X, Y)
    ws.loss_and_grads()
    return ws.grads


def default_mlp_config(seed: int = 0) -> TrainConfig:
    return TrainConfig(learning_rate=0.05, epochs=1500, lam=0.0, seed=seed)


def mlp_train(params: MLPParams, train: Dataset, config: TrainConfig):
    """Plain full-batch gradient descent; returns (params, loss history).

    history[t] is the loss before epoch t's update. Raises DivergenceError
    if the loss, a gradient or a parameter goes non-finite, naming the epoch
    and, for a gradient or a parameter, the layer (W1 ... b3) of the first
    non-finite entry. The epochs update a copy of params.theta, which is
    written back only when every epoch has run, so a fit that raises leaves
    params as they were.
    """
    if config.lam != 0:
        raise ValueError("the l1 spline penalty does not apply to MLP training")
    X = np.asarray(train.inputs, dtype=float)
    Y = np.asarray(train.targets, dtype=float)
    if len(X) == 0:
        raise ValueError("empty training set")
    if X.shape[1] != params.n_in or Y.shape[1] != params.n_out:
        raise ValueError(
            f"dataset ({X.shape[1]} in, {Y.shape[1]} out) does not match "
            f"model ({params.n_in} in, {params.n_out} out)"
        )
    ws = _Workspace(params, X, Y)
    lr = config.learning_rate
    history = _descend(ws, lambda t: np.subtract(ws.theta, lr * ws.grad, ws.theta), config.epochs, ws.grad)
    np.copyto(params.theta, ws.theta)
    return params, history
