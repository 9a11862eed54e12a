"""Fixed-architecture MLP baseline: two ReLU hidden layers of 64, tanh output.

One training recipe is used everywhere (full-batch gradient descent,
learning rate 0.05, 1500 epochs) so the comparison stays honest: only the
KA-FCM gets hyperparameter search.

MLPParams holds the six layers as views into one flat buffer `theta`, so
mlp_train runs the KA-FCM's descent loop (training._descend) with a plain
step theta -= lr * grad, and a divergence names the layer (W1 ... b3).
mlp_forward and training share one forward, _forward; training and
mlp_gradient share one backward, a per-batch _Workspace whose (T, 64) and
(T, n_out) buffers and flat gradient every epoch fills in place: fresh
batch-sized arrays on every epoch cost page faults that doubled its time.
Every product is np.dot, which gives the bits of `@`: np.matmul takes a
rank-1 product such as X @ W1.T for one input outside BLAS, several times
slower.
"""

from __future__ import annotations

from itertools import accumulate
import math

import numpy as np

from .cognitive_graph import bounding_slope
from .datagen import Dataset
from .training import TrainConfig, _checked_gradient, _descend, _squared_error

__all__ = [
    "HIDDEN_WIDTH",
    "LAYER_NAMES",
    "MLPParams",
    "mlp_init",
    "mlp_forward",
    "mlp_gradient",
    "mlp_train",
    "default_mlp_config",
]

HIDDEN_WIDTH = 64
LAYER_NAMES = ("W1", "b1", "W2", "b2", "W3", "b3")


class MLPParams:
    """The network's weights and biases in one flat float buffer `theta`.

    W1 (64, n_in), b1 (64,), W2 (64, 64), b2 (64,), W3 (n_out, 64) and b3
    (n_out,) are views into theta in that order, the way KAFCMModel.theta
    holds its parameters; theta is the only parameter state, so update it
    in place, and a copy's layers look into its own theta. The constructor
    copies its six arrays in and raises ValueError unless their shapes fit
    together.
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

    W1, b1, W2, b2, W3, b3 = (property(lambda self, k=k: self.views(self.theta)[k]) for k in range(6))

    def views(self, flat: np.ndarray) -> list:
        """[W1, b1, W2, b2, W3, b3] views into a buffer laid out like theta."""
        at = list(accumulate((math.prod(shape) for shape in self.shapes), initial=0))
        return [flat[a:b].reshape(shape) for a, b, shape in zip(at, at[1:], self.shapes)]

    def arrays(self) -> list:
        return self.views(self.theta)


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


def _forward(layers, X: np.ndarray, H1=None, H2=None, P=None) -> np.ndarray:
    """tanh(W3 relu(W2 relu(W1 x + b1) + b2) + b3) for each row x of X, with
    layers = [W1, b1, W2, b2, W3, b3], into P (T, n_out) if given, with the
    two relu layers into H1, H2 (T, 64) if given."""
    W1, b1, W2, b2, W3, b3 = layers
    H1 = np.dot(X, W1.T, H1)
    H1 += b1
    np.maximum(H1, 0.0, out=H1)
    H2 = np.dot(H1, W2.T, H2)
    H2 += b2
    np.maximum(H2, 0.0, out=H2)
    P = np.dot(H2, W3.T, P)
    P += b3
    return np.tanh(P, out=P)


def mlp_forward(params: MLPParams, x) -> np.ndarray:
    """tanh(W3 relu(W2 relu(W1 x + b1) + b2) + b3); accepts a vector or a
    (T, n_in) batch."""
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    X = x[None, :] if single else x
    if X.ndim != 2 or X.shape[1] != params.n_in:
        raise ValueError(f"input shape {x.shape} does not match n_in={params.n_in}")
    out = _forward(params.arrays(), X)
    return out[0] if single else out


class _Workspace:
    """One batch's forward and backward buffers, allocated once, a copy
    `theta` of the parameters and their gradient `grads`, whose flat buffer
    is `grad`; `layers` and `grad_layers` are the six views of each, bound
    once. loss_and_grads keeps the float operations of the plain allocating
    expressions and their order, so its bits are theirs.
    """

    def __init__(self, params: MLPParams, X: np.ndarray, Y: np.ndarray):
        T, h = len(X), HIDDEN_WIDTH
        # contiguous once, or np.dot would copy a strided X every epoch
        self.X, self.Y = np.ascontiguousarray(X), Y
        self.H1, self.H2, self.dH1, self.dH2 = (np.empty((T, h)) for _ in range(4))
        self.P, self.R, self.dZ3, self.tmp = (np.empty((T, params.n_out)) for _ in range(4))
        self.row_loss = np.empty(T)
        self.mask = np.empty((T, h), dtype=bool)
        self.theta = params.theta.copy()
        self.grads = MLPParams(*(np.empty_like(a) for a in params.arrays()))
        self.grad = self.grads.theta
        self.layers, self.grad_layers = params.views(self.theta), self.grads.arrays()

    def loss_and_grads(self) -> float:
        """Mean squared error at theta; fills grad with its gradient."""
        X, layers, (gW1, gb1, gW2, gb2, gW3, gb3) = self.X, self.layers, self.grad_layers
        H1, H2, dH1, dH2 = self.H1, self.H2, self.dH1, self.dH2
        P, R, dZ3, tmp, mask = self.P, self.R, self.dZ3, self.tmp, self.mask
        _forward(layers, X, H1, H2, P)
        loss = float(_squared_error(P, self.Y, R, tmp, self.row_loss))
        # backward: dZ3 = (2/T) R (1 - P^2); the ReLU subgradient at 0 is 0,
        # and H = relu(Z) > 0 exactly where Z > 0
        np.multiply(2.0 / len(X), R, out=dZ3)
        dZ3 *= bounding_slope("tanh", P, tmp)
        np.dot(dZ3, layers[4], dH2)
        dH2 *= np.greater(H2, 0, out=mask)  # dH2 now holds dZ2
        np.dot(dH2, layers[2], dH1)
        dH1 *= np.greater(H1, 0, out=mask)  # dH1 now holds dZ1
        np.dot(dH1.T, X, gW1)
        np.add.reduce(dH1, 0, None, gb1)
        np.dot(dH2.T, H1, gW2)
        np.add.reduce(dH2, 0, None, gb2)
        np.dot(dZ3.T, H2, gW3)
        np.add.reduce(dZ3, 0, None, gb3)
        return loss

    def non_finite_entry(self, flat: np.ndarray) -> str:
        """The layer holding the first non-finite entry of a buffer laid out like theta."""
        for name, layer in zip(LAYER_NAMES, self.grads.views(flat)):
            if not np.isfinite(layer).all():
                return f"layer {name}"


def _plain_step(ws: _Workspace, learning_rate: float):
    """The update theta -= lr * grad on ws, in place: lr * grad goes into a
    scratch buffer bound here, so a step allocates nothing."""
    lr, step = np.array(learning_rate), np.empty_like(ws.theta)
    return lambda t: np.subtract(ws.theta, np.multiply(lr, ws.grad, step), ws.theta)


def mlp_gradient(params: MLPParams, data: Dataset) -> MLPParams:
    """Backpropagated gradients of the mean squared error, shaped like the
    parameters (ReLU subgradient 0 at 0); DivergenceError names the layer of
    the first non-finite entry."""
    X = np.asarray(data.inputs, dtype=float)
    Y = np.asarray(data.targets, dtype=float)
    if len(X) == 0:
        raise ValueError("empty batch")
    return _checked_gradient(_Workspace(params, X, Y)).grads


def default_mlp_config() -> TrainConfig:
    return TrainConfig(learning_rate=0.05, epochs=1500, lam=0.0)


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
    history = _descend(ws, _plain_step(ws, config.learning_rate), config.epochs, ws.grad)
    np.copyto(params.theta, ws.theta)
    return params, history
