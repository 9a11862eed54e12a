"""Fixed-architecture MLP baseline: two ReLU hidden layers of 64, tanh output.

One training recipe is used everywhere (full-batch gradient descent,
learning rate 0.05, 1500 epochs) so the comparison stays honest: only the
KA-FCM gets hyperparameter search.

Training and mlp_gradient share one backward, a per-batch _Workspace that
allocates the (T, 64) activations, the (T, n_out) outputs and the gradient
buffers once and fills them in place each epoch (matmul, bias add, ReLU,
tanh and reductions all with out=). Fresh batch-sized arrays on every epoch
cost page faults that doubled the epoch time. The in-place steps keep the
order of float operations of the plain expressions, so results are
bit-identical to them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cognitive_graph import DivergenceError
from .datagen import Dataset
from .training import TrainConfig

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


@dataclass
class MLPParams:
    W1: np.ndarray  # (64, n_in)
    b1: np.ndarray  # (64,)
    W2: np.ndarray  # (64, 64)
    b2: np.ndarray  # (64,)
    W3: np.ndarray  # (n_out, 64)
    b3: np.ndarray  # (n_out,)

    def __post_init__(self):
        for name in ("W1", "b1", "W2", "b2", "W3", "b3"):
            setattr(self, name, np.asarray(getattr(self, name), dtype=float))
        h = HIDDEN_WIDTH
        ok = (
            self.W1.ndim == 2
            and self.W1.shape[0] == h
            and self.b1.shape == (h,)
            and self.W2.shape == (h, h)
            and self.b2.shape == (h,)
            and self.W3.ndim == 2
            and self.W3.shape[1] == h
            and self.b3.shape == (self.W3.shape[0],)
        )
        if not ok:
            raise ValueError("parameter shapes do not form a 64/64 two-hidden-layer network")

    @property
    def n_in(self) -> int:
        return self.W1.shape[1]

    @property
    def n_out(self) -> int:
        return self.W3.shape[0]

    def arrays(self):
        return [self.W1, self.b1, self.W2, self.b2, self.W3, self.b3]


def mlp_init(n_in: int, n_out: int, seed: int = 0) -> MLPParams:
    """Each layer drawn uniformly from [-1/sqrt(fan_in), 1/sqrt(fan_in)]."""
    if n_in < 1 or n_out < 1:
        raise ValueError("n_in and n_out must be at least 1")
    rng = np.random.default_rng(seed)
    h = HIDDEN_WIDTH

    def layer(rows, cols):
        bound = 1.0 / np.sqrt(cols)
        return rng.uniform(-bound, bound, (rows, cols)), rng.uniform(-bound, bound, rows)

    W1, b1 = layer(h, n_in)
    W2, b2 = layer(h, h)
    W3, b3 = layer(n_out, h)
    return MLPParams(W1, b1, W2, b2, W3, b3)


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
    """One batch's forward and backward buffers, allocated once.

    loss_and_grads fills the (T, 64) activations, the (T, n_out) output
    arrays and the gradient buffers in place, so a training epoch allocates
    no batch-sized array. The float operations and their order are those of
    the plain allocating expressions, so results are bit-identical to them.
    """

    def __init__(self, params: MLPParams, X: np.ndarray, Y: np.ndarray):
        T, h = len(X), HIDDEN_WIDTH
        self.X, self.Y = X, Y
        self.Z1, self.H1, self.Z2, self.H2, self.dH1, self.dH2 = (np.empty((T, h)) for _ in range(6))
        self.P, self.R, self.dZ3, self.tmp = (np.empty((T, params.n_out)) for _ in range(4))
        self.row_loss = np.empty(T)
        self.mask = np.empty((T, h), dtype=bool)
        self.grads = MLPParams(*(np.empty_like(a) for a in params.arrays()))

    def loss_and_grads(self, p: MLPParams) -> float:
        """Mean squared error at parameters p; fills self.grads with its gradient."""
        X, g = self.X, self.grads
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


def mlp_gradient(params: MLPParams, data: Dataset) -> MLPParams:
    """Backpropagated gradients of the mean squared error, packaged in the
    same shape as the parameters. ReLU subgradient at 0 is taken as 0."""
    X = np.asarray(data.inputs, dtype=float)
    Y = np.asarray(data.targets, dtype=float)
    if len(X) == 0:
        raise ValueError("empty batch")
    ws = _Workspace(params, X, Y)
    ws.loss_and_grads(params)
    return ws.grads


def default_mlp_config(seed: int = 0) -> TrainConfig:
    return TrainConfig(learning_rate=0.05, epochs=1500, lam=0.0, seed=seed)


def mlp_train(params: MLPParams, train: Dataset, config: TrainConfig):
    """Plain full-batch gradient descent; returns (params, loss history).

    history[t] is the loss before epoch t's update. Raises DivergenceError
    if the loss or any parameter goes non-finite. The epochs update copies
    of params' arrays, which are written back only when every epoch has
    run, so a fit that raises leaves params as they were.
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
    history = np.empty(config.epochs)

    def abort(message: str, epochs_done: int):
        err = DivergenceError(message)
        err.history = history[:epochs_done].copy()  # partial record for callers
        raise err

    work = MLPParams(*(a.copy() for a in params.arrays()))
    ws = _Workspace(work, X, Y)
    grads = ws.grads
    for epoch in range(config.epochs):
        loss = ws.loss_and_grads(work)
        if not np.isfinite(loss):
            abort(f"non-finite loss at epoch {epoch}", epoch)
        history[epoch] = loss
        for p, g in zip(work.arrays(), grads.arrays()):
            p -= config.learning_rate * g
            if not np.isfinite(p).all():
                abort(f"non-finite parameters after epoch {epoch}", epoch + 1)
    for p, w in zip(params.arrays(), work.arrays()):
        np.copyto(p, w)
    return params, history
