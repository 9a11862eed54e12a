"""Losses, model gradients, gradient training, PSO, and grid search.

Supervision is one-step-ahead: each dataset row supplies the current state
of the input nodes and the desired next state of the output nodes. A dataset
with d_in + d_out == N uses the first d_in nodes as inputs and the last d_out
as outputs; d_in == d_out == N supervises the full state vector.

train_gd performs full-batch first-order training with Adam (Kingma & Ba,
arXiv:1412.6980; beta1=0.9, beta2=0.999, eps=1e-8) at the configured
learning rate. Plain constant-step descent stalls two orders of magnitude
short of the accuracy the benchmarks require, so the adaptive step is the
shipped default; the update is still computed from exact full-batch
gradients of the total loss.

train_gd and baselines.mlp_train share one epoch loop, _descend; they
differ only in the step (Adam or plain descent) on their copy of the flat
buffer `theta`, which a fit writes back only once every epoch has run.
Each epoch tests its buffers for non-finite entries with one product (see
_descend), scanning them only when it is not finite.

The loss and its gradients are dense, with no loop over edges, and read
the model's own arrays through KAFCMModel.views, the one layout of theta.
Only the output rows enter the reconstruction loss, and only their source
span feeds them (KAFCMModel.span: the smallest contiguous range of nodes
with a present edge into an output; the inputs, in the recipe's
feedforward maps). A fit builds the features F = [b(x) | B(x)] of the
span's states once, shape (T, S*(1+K)); each epoch is then one forward F @
W.T with W = [w_base | w_spline * alpha] over the output rows and the span,
one backward G = u.T @ F for the upstream gradient u, whose first S columns
give d w_base and the rest C, (n_out, S, K), and the update. Both products
are np.dot, which reaches the BLAS kernels of np.matmul without its ufunc
dispatch and gives the same bits. The recipe's KA-FCM artifacts have the
same bytes on one BLAS thread and on two (CI compares them).

An epoch allocates nothing: the forward, the backward and the Adam update
fill one workspace of buffers allocated once per fit, which train_gd and
model_gradient share (but for NumPy's ufunc buffer when more than one
output row meets a span short of every node: the [rows, span] blocks of
theta and of the gradient then have gaps between rows). The workspace
binds the epoch once per fit as a closure over those buffers, the blocks,
F, W.T and u.T and the bounding's functions, as KAFCMModel.stepper binds a
step, so an epoch looks up no attribute and no bounding kind. At the
recipe's sizes (N = 2 with T = 256, N = 5 with T = 958) an epoch's cost is
NumPy call overhead, not arithmetic. The in-place steps keep the float
operations of the plain allocating expressions and their order, so fits
are bit-identical to that plain form, the tests' reference.
_squared_error is the loss of loss_rec, both trainers and the swarm;
cognitive_graph.bounding_slope is sigma' (the KA-FCM epoch binds its
table entry).
"""

from __future__ import annotations

from dataclasses import astuple, dataclass, field, fields
import math
import zlib

import numpy as np

from .atomic_io import read_csv, write_csv, write_json
from .cognitive_graph import (
    DivergenceError,
    KAFCMModel,
    StandardFCM,
    Trajectory,
    _BOUNDING,
    apply_bounding,
)
from .datagen import Dataset, _as_columns

__all__ = [
    "TrainConfig",
    "PSOConfig",
    "GridSearchSpace",
    "GridRow",
    "GridSearchReport",
    "ModelGradient",
    "loss_rec",
    "loss_total",
    "supervision_layout",
    "predict_one_step",
    "model_gradient",
    "train_gd",
    "pso_train_fcm",
    "grid_search",
    "derive_cell_seed",
    "save_grid_csv",
    "load_grid_rows",
    "save_grid_summary",
]

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class TrainConfig:
    """Settings of train_gd and mlp_train.

    Neither trainer reads `seed`. grid_search sets it to each cell's derived
    seed, which the cell's task uses to initialise its model; `kafcm train`
    seeds its model from the config's top-level seed, so a config file's
    `train.seed` changes no output.
    """

    learning_rate: float = 0.1
    epochs: int = 500
    lam: float = 0.0
    seed: int = 0

    def __post_init__(self):
        # written so that NaN fails them
        if not 0 < self.learning_rate < math.inf:
            raise ValueError(f"learning_rate must be positive and finite, got {self.learning_rate}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be at least 1, got {self.epochs}")
        if not 0 <= self.lam < math.inf:
            raise ValueError(f"lam must be non-negative and finite, got {self.lam}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")


@dataclass
class PSOConfig:
    swarm_size: int = 30
    iterations: int = 500
    inertia: float = 0.729
    cognitive: float = 1.49445
    social: float = 1.49445
    weight_bounds: tuple[float, float] = (-1.0, 1.0)
    seed: int = 0

    def __post_init__(self):
        if self.swarm_size < 2:
            raise ValueError(f"swarm_size must be at least 2, got {self.swarm_size}")
        if self.iterations < 1:
            raise ValueError("iterations must be at least 1")
        for name in ("inertia", "cognitive", "social"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        lo, hi = self.weight_bounds
        # written so that NaN fails it
        if not -math.inf < lo < hi < math.inf:
            raise ValueError(f"weight_bounds must be finite with lo < hi, got {self.weight_bounds}")
        if not hi - lo < math.inf:
            raise ValueError(f"weight_bounds must have a finite width hi - lo, got {self.weight_bounds}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")


def _default_epoch_values() -> list[int]:
    return [int(v) for v in np.round(np.linspace(500, 1500, 10))]


@dataclass
class GridSearchSpace:
    grid_sizes: list[int] = field(default_factory=lambda: list(range(4, 20)))
    learning_rates: list[float] = field(default_factory=lambda: [0.001, 0.01, 0.05, 0.1])
    epoch_values: list[int] = field(default_factory=_default_epoch_values)

    def __post_init__(self):
        lists = (self.grid_sizes, self.learning_rates, self.epoch_values)
        if not all(isinstance(v, (list, tuple)) and v for v in lists):
            raise ValueError("grid search space lists must be non-empty")
        # written so that NaN fails them
        if not all(G >= 1 for G in self.grid_sizes):
            raise ValueError(f"grid_sizes must all be at least 1, got {self.grid_sizes}")
        if not all(0 < eta < math.inf for eta in self.learning_rates):
            raise ValueError(f"learning_rates must all be positive and finite, got {self.learning_rates}")
        if not all(epochs >= 1 for epochs in self.epoch_values):
            raise ValueError(f"epoch_values must all be at least 1, got {self.epoch_values}")

    def cells(self):
        for G in self.grid_sizes:
            for eta in self.learning_rates:
                for epochs in self.epoch_values:
                    yield int(G), float(eta), int(epochs)


@dataclass
class GridRow:
    G: int
    eta: float
    epochs: int
    val_error: float
    status: str  # "ok" or "failed"


@dataclass
class GridSearchReport:
    rows: list
    best: dict
    correlations: dict


def _as_states(x) -> np.ndarray:
    return _as_columns(x.states if isinstance(x, Trajectory) else x)


def _squared_error(pred, target, resid=None, sq=None, rowsum=None):
    """np.mean(np.sum((pred - target) ** 2, axis=-1), axis=-1) by the same
    steps, for (..., T, n) arrays; resid, sq and rowsum, if given (passed
    positionally), receive pred - target, its square and the row sums."""
    resid = np.subtract(pred, target, resid)
    rows = np.add.reduce(np.square(resid, sq), -1, None, rowsum)
    return np.add.reduce(rows, -1) / rows.shape[-1]


def loss_rec(pred, target) -> float:
    """(1/T) sum_t ||c(t) - chat(t)||^2 over paired state sequences."""
    pred = _as_states(pred)
    target = _as_states(target)
    if pred.shape != target.shape:
        raise ValueError(f"shape mismatch: pred {pred.shape} vs target {target.shape}")
    if pred.size == 0:
        raise ValueError("empty input")
    return float(_squared_error(pred, target))


def _l1_alpha(model: KAFCMModel) -> float:
    # per-edge sums added in edge order, the same bits as a loop over edges
    return float(sum(np.abs(model.alpha[model.mask]).sum(axis=1)))


def loss_total(model: KAFCMModel, pred, target, lam: float) -> float:
    """Reconstruction loss plus lam * sum |alpha| over present edges."""
    if lam < 0:
        raise ValueError("lam must be non-negative")
    base = loss_rec(pred, target)
    if lam == 0:
        return base
    return base + lam * _l1_alpha(model)


def supervision_layout(n_nodes: int, data: Dataset) -> tuple[slice, slice]:
    """(input nodes, output nodes), two slices, for a dataset on an n-node model."""
    d_in = data.inputs.shape[1]
    d_out = data.targets.shape[1]
    if d_in == n_nodes and d_out == n_nodes:
        return slice(0, n_nodes), slice(0, n_nodes)
    if d_in + d_out == n_nodes:
        return slice(0, d_in), slice(d_in, n_nodes)
    raise ValueError(
        f"dataset with {d_in} inputs and {d_out} targets does not fit a {n_nodes}-node model"
    )


def _state_matrix(n_nodes: int, data: Dataset, inputs: slice) -> np.ndarray:
    states = np.zeros((len(data), n_nodes))
    states[:, inputs] = data.inputs
    return states


def predict_one_step(model, data: Dataset) -> np.ndarray:
    """One-step predictions for the supervised (output) nodes, shape (T, d_out)."""
    inputs, rows = supervision_layout(model.n_nodes, data)
    states = _state_matrix(model.n_nodes, data, inputs)
    if isinstance(model, StandardFCM):
        return np.asarray(apply_bounding(model.activation, states @ model.weights.T))[:, rows]
    span = model.span(rows)
    pre = model.forward(model.features(states, span), model.weights(rows, span))
    return np.asarray(apply_bounding(model.bounding, pre))


@dataclass
class ModelGradient:
    """Gradients of loss_total for every present edge; zeros where masked."""

    d_w_base: np.ndarray
    d_w_spline: np.ndarray
    d_alpha: np.ndarray


class _Workspace:
    """One fit: the features F of the data over the output rows' source span,
    `present` (True at present edges' entries), a copy `theta` of the
    model's parameter buffer with the other entries at zero, a gradient
    buffer `grad` laid out like it (`grads`, its views) and the epoch
    loss_and_grads(), which returns the total loss at theta and fills grad.
    Layouts all come from KAFCMModel.views.

    The zeros stay: their w_base gradient is never written, their others
    are products with zeros, and Adam moves nothing whose moments are 0.
    So the forward's W is [w_base | w_spline * alpha] over the [rows, span]
    block, unmasked (the same bits as masking them). Gradient entries
    outside the block stay zero, but for the L1 term's, which covers every
    present edge.

    Only output rows shape the reconstruction loss, and only the span's
    sources feed them, so the backward is the one product G = u.T @ F: its
    first S columns give d w_base at present edges, and the rest is C,
    (n_out, S, K), from which d alpha = w_spline * C and d w_spline = sum_k
    alpha * C.

    The epoch is a closure bound once per fit, as a stepper binds a step:
    it holds the [rows, span] blocks of theta and of grad, every buffer it
    fills (so that it allocates none), F, W.T and u.T, the bounding's
    (sigma, sigma') pair, and whether the bounding is the identity and
    whether the gapped-row twins exist. Outputs go positionally and scalar
    factors as 0-d arrays: on arrays of a few dozen entries a ufunc call
    takes about 0.45 us (numpy 2.4 on a 2-core x86 VM), and a keyword `out`
    or a Python-float operand adds about 0.15 us to it.
    """

    def __init__(self, model: KAFCMModel, data: Dataset, lam: float):
        self.model = model
        inputs, rows = supervision_layout(model.n_nodes, data)
        span = model.span(rows)
        features = model.features(_state_matrix(model.n_nodes, data, inputs), span)
        targets = np.asarray(data.targets, dtype=float)
        self.present = np.zeros(len(model.theta), dtype=bool)
        for view in model.views(self.present):
            view[model.mask] = True
        self.theta = np.where(self.present, model.theta, 0.0)
        self.grad = np.zeros_like(self.theta)
        self.grads = model.views(self.grad)
        views = model.views(self.theta)
        w_base, w_spline, alpha = (v[rows, span] for v in views)
        g_wb, g_ws, g_al = (g[rows, span] for g in self.grads)
        full_alpha, full_g_al = views[2], self.grads[2]
        block_mask = model.mask[rows, span]
        (T, n_out), (S, K) = targets.shape, (block_mask.shape[1], model.K)
        # W = [Wb | Ws] and G = u.T @ F, each (n_out, S*(1+K)), with their
        # (n_out, S) base and (n_out, S, K) spline blocks. With more than one
        # output row a block has a gap between rows, and a ufunc reads or
        # writes it through a buffer of up to 8192 entries each call, so Ws
        # and C, the spline block of G, are then contiguous twins that
        # np.copyto, which takes no buffer, moves into W and out of G
        W, G = np.empty((n_out, S * (1 + K))), np.empty((n_out, S * (1 + K)))
        Wb, G_base = W[:, :S], G[:, :S]
        W_spline, G_spline = (a[:, S:].reshape(n_out, S, K) for a in (W, G))
        gapped = not W_spline.flags.c_contiguous
        Ws, C = (np.empty(W_spline.shape), np.empty(G_spline.shape)) if gapped else (W_spline, G_spline)
        # w_spline repeated along K (NumPy buffers a broadcast operand too)
        # and the backward's products
        w_spline_col, w_spline_k, prod = w_spline[:, :, None], np.empty((n_out, S, K)), np.empty((n_out, S, K))
        # the forward's sum, sigma(pre), the residual, its square and u, the
        # upstream gradient, each (T, n_out)
        pre, bounded, resid, sq, u = (np.empty((T, n_out)) for _ in range(5))
        WT, uT, rowsum, two_over_T = W.T, u.T, np.empty(T), np.array(2.0 / T)
        bound, slope = _BOUNDING[model.bounding]
        identity = model.bounding == "identity"
        # the L1 term's per-edge sums and their running sum in edge order
        edge_l1, l1_run = np.empty(model.mask.shape), np.empty(model.mask.size)
        edge_l1_flat = edge_l1.reshape(-1)

        def loss_and_grads() -> float:
            np.copyto(Wb, w_base)
            np.copyto(w_spline_k, w_spline_col)
            np.multiply(w_spline_k, alpha, Ws)
            if gapped:
                np.copyto(W_spline, Ws)
            np.dot(features, WT, pre)  # KAFCMModel.forward, with W.T bound
            # y = sigma(pre) and u = (2/T) resid sigma'(pre), but the
            # identity's y is pre and u * 1.0 is u; pre is spent once y holds
            # sigma(pre) (resid and sq are not yet filled: smooth_clip's scratch)
            y = pre if identity else bound(pre, bounded, (resid, sq))
            loss = float(_squared_error(y, targets, resid, sq, rowsum))
            np.multiply(two_over_T, resid, u)
            if not identity:
                np.multiply(u, slope(y, sq, pre), u)
            np.dot(uT, features, G)
            np.copyto(g_wb, G_base, where=block_mask)
            if gapped:
                np.copyto(C, G_spline)
            np.add.reduce(np.multiply(alpha, C, prod), 2, None, g_ws)
            if lam > 0:
                # the penalty covers every present edge, also edges into
                # inputs, as per-edge sums added in edge order like
                # _l1_alpha's (an absent edge's sum, +0.0, leaves the
                # running sum as it is)
                np.add.reduce(np.abs(full_alpha, full_g_al), 2, None, edge_l1)
                np.add.accumulate(edge_l1_flat, 0, None, l1_run)
                loss += lam * float(l1_run[-1])
                np.multiply(lam, np.sign(full_alpha, full_g_al), full_g_al)
                np.add(g_al, np.multiply(w_spline_k, C, prod), g_al)
            else:
                np.multiply(w_spline_k, C, g_al)
            return loss

        self.loss_and_grads = loss_and_grads

    def non_finite_entry(self, flat: np.ndarray) -> str:
        """Where the first non-finite entry of a buffer laid out like theta
        lies, an entry of a present edge if there is one: its parameter
        group and edge, and k for alpha. (Absent edges' entries go
        non-finite too when a non-finite factor meets their zeros.)"""
        bad = ~np.isfinite(flat)
        if (bad & self.present).any():
            bad &= self.present
        for group, view in zip(("w_base", "w_spline", "alpha"), self.model.views(bad)):
            if view.any():
                i, j, *k = np.argwhere(view)[0].tolist()
                return f"{group} of edge ({i}, {j})" + (f" at k = {k[0]}" if k else "")


def model_gradient(model: KAFCMModel, batch: Dataset, lam: float = 0.0) -> ModelGradient:
    """Exact full-batch gradients of loss_total, arranged as (N, N[, K]) arrays;
    DivergenceError names the first non-finite gradient entry's group and edge."""
    if len(batch) == 0:
        raise ValueError("empty batch")
    return ModelGradient(*_checked_gradient(_Workspace(model, batch, lam)).grads)


def _checked_gradient(ws):
    """ws after ws.loss_and_grads(); DivergenceError if the loss or ws.grad
    is non-finite, naming ws.grad's first non-finite entry."""
    loss = ws.loss_and_grads()
    if not (math.isfinite(loss) and np.isfinite(ws.grad).all()):
        where = "" if np.isfinite(ws.grad).all() else f", {ws.non_finite_entry(ws.grad)}"
        raise DivergenceError(f"non-finite loss or gradient{where}")
    return ws


def _descend(ws, update, epochs: int, watch: np.ndarray) -> np.ndarray:
    """The epoch loop of train_gd and mlp_train; returns the loss history.

    Each epoch records the loss of ws.loss_and_grads(), which fills ws.grad,
    and calls update(t), t = epoch + 1, to step ws.theta in place; both are
    bound once, before the loop. watch is a buffer that the update leaves
    non-finite wherever ws.grad is or the step overflowed (ws.grad for plain
    descent, Adam's v), so one test covers both: the product watch . theta,
    one np.vdot, is NaN or infinite if any entry of either buffer is (0 * inf
    is NaN). Only then are the buffers scanned entry by entry, and if no
    entry is non-finite the product merely overflowed and the loop goes on.
    np.vdot, unlike np.dot, raises no RuntimeWarning on inf * 0. A
    DivergenceError carries the partial history as .history.
    """
    history = np.empty(epochs)
    loss_and_grads, theta, grad = ws.loss_and_grads, ws.theta, ws.grad

    def abort(message: str, epochs_done: int):
        err = DivergenceError(message)
        err.history = history[:epochs_done].copy()  # partial record for callers
        raise err

    for epoch in range(epochs):
        loss = loss_and_grads()
        if not math.isfinite(loss):
            abort(f"non-finite loss at epoch {epoch}", epoch)
        history[epoch] = loss
        update(epoch + 1)
        if math.isfinite(np.vdot(watch, theta)):
            continue
        if not np.isfinite(watch).all():
            if np.isfinite(grad).all():
                abort(f"gradient overflows the update at epoch {epoch}, {ws.non_finite_entry(watch)}", epoch + 1)
            abort(f"non-finite gradient at epoch {epoch}, {ws.non_finite_entry(grad)}", epoch + 1)
        if not np.isfinite(theta).all():
            abort(f"non-finite parameters after epoch {epoch}, {ws.non_finite_entry(theta)}", epoch + 1)
    return history


def train_gd(model: KAFCMModel, train: Dataset, config: TrainConfig):
    """Full-batch gradient training; returns (model, per-epoch loss history).

    history[t] is the total loss at the start of epoch t (before its update),
    so history[0] is the loss of the initial parameters. Raises
    DivergenceError if the loss, a gradient, Adam's second moment or a
    parameter goes non-finite, naming the epoch and, for all but the loss,
    the parameter group and edge of the first non-finite entry; the model's
    parameters change only when every epoch has run.
    """
    if len(train) == 0:
        raise ValueError("empty training set")
    ws = _Workspace(model, train, config.lam)
    theta, grad = ws.theta, ws.grad
    m, v, step, scratch = (np.zeros_like(theta) for _ in range(4))
    # Adam's factors as 0-d arrays (see _Workspace); c1, c2 take the bias
    # corrections 1 - beta**t of each epoch
    beta1, beta2, keep1, keep2, lr, eps = map(
        np.array, (ADAM_BETA1, ADAM_BETA2, 1 - ADAM_BETA1, 1 - ADAM_BETA2, config.learning_rate, ADAM_EPS)
    )
    c1, c2 = np.empty(()), np.empty(())

    def adam(t: int) -> None:
        c1[()] = 1 - ADAM_BETA1**t
        c2[()] = 1 - ADAM_BETA2**t
        # m = b1 m + (1 - b1) g and v = b2 v + (1 - b2) g g, then
        # theta -= lr * mhat / (sqrt(vhat) + eps), each in place; a g g that
        # overflows leaves the step 0 and v infinite, which _descend catches
        np.multiply(m, beta1, m)
        np.add(m, np.multiply(keep1, grad, scratch), m)
        np.multiply(v, beta2, v)
        np.multiply(keep2, grad, scratch)
        np.add(v, np.multiply(scratch, grad, scratch), v)
        np.multiply(lr, np.divide(m, c1, step), step)
        np.sqrt(np.divide(v, c2, scratch), scratch)
        np.add(scratch, eps, scratch)
        np.subtract(theta, np.divide(step, scratch, step), theta)

    history = _descend(ws, adam, config.epochs, v)
    np.copyto(model.theta, theta, where=ws.present)
    return model, history


def pso_train_fcm(model: StandardFCM, train: Dataset, config: PSOConfig):
    """Global-best particle swarm over the weight matrix; returns
    (trained model, best-fitness history). Fitness is loss_rec of one-step
    predictions on the supervised nodes.

    The whole swarm is scored at once, into buffers allocated once per fit:
    one GEMM of the (T, N) states with every particle's full W^T side by
    side, (N, S * N), into a (T, S * N) buffer; its output columns, read
    as an (S, T, n_out) view, are bounded into a contiguous buffer, so the
    squared error sums over T as it does for one particle. Each entry of
    the GEMM is the same dot product over N as in scoring one particle at a
    time, so results are bit-identical to that loop. A product over the
    output rows of W alone is not: with one output row it goes through
    gemv, which rounds differently.
    """
    n = model.n_nodes
    S = config.swarm_size
    inputs, rows = supervision_layout(n, train)
    states = _state_matrix(n, train, inputs)
    targets = np.asarray(train.targets, dtype=float)
    lo, hi = config.weight_bounds
    rng = np.random.default_rng(config.seed)
    dim = n * n
    T, n_out = targets.shape
    # column s * n + i of pre is node i's pre-activation under particle s
    pre = np.empty((T, S * n))
    out_cols = pre.reshape(T, S, n)[:, :, rows].transpose(1, 0, 2)
    # sigma of the output columns and the error's buffers, each (S, T, n_out);
    # the last two are smooth_clip's scratch before the error fills them
    y, resid, sq = (np.empty((S, T, n_out)) for _ in range(3))
    rowsum = np.empty((S, T))

    def fitness(swarm: np.ndarray) -> np.ndarray:
        np.dot(states, swarm.reshape(S * n, n).T, pre)
        apply_bounding(model.activation, out_cols, y, (resid, sq))
        return _squared_error(y, targets, resid, sq, rowsum)

    pos = rng.uniform(lo, hi, (S, dim))
    vel = np.zeros_like(pos)
    pbest = pos.copy()
    pbest_fit = fitness(pos)
    g_idx = int(np.argmin(pbest_fit))
    gbest = pbest[g_idx].copy()
    gbest_fit = float(pbest_fit[g_idx])
    history = np.empty(config.iterations)
    for it in range(config.iterations):
        r1 = rng.random((S, dim))
        r2 = rng.random((S, dim))
        vel = (
            config.inertia * vel
            + config.cognitive * r1 * (pbest - pos)
            + config.social * r2 * (gbest[None, :] - pos)
        )
        pos = np.clip(pos + vel, lo, hi)
        fits = fitness(pos)
        better = fits < pbest_fit
        pbest[better] = pos[better]
        pbest_fit[better] = fits[better]
        g_idx = int(np.argmin(pbest_fit))
        if pbest_fit[g_idx] < gbest_fit:
            gbest_fit = float(pbest_fit[g_idx])
            gbest = pbest[g_idx].copy()
        history[it] = gbest_fit
    model.weights = gbest.reshape(n, n)
    return model, history


def derive_cell_seed(base_seed: int, G: int, eta: float, epochs: int) -> int:
    """Stable per-cell seed: crc32 of the canonical cell key string."""
    key = f"{base_seed}:{G}:{eta!r}:{epochs}"
    return zlib.crc32(key.encode("ascii"))


def _pearson(x, y) -> float:
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if len(x) < 2 or np.std(x) == 0 or np.std(y) == 0:
        return float("nan")
    return float(np.corrcoef(x, y)[0, 1])


def grid_search(
    space: GridSearchSpace,
    splits,
    task,
    base_seed: int = 0,
    completed: dict | None = None,
    on_row=None,
) -> GridSearchReport:
    """Evaluate every (G, eta, epochs) cell of the space, one after another.

    task(G, config, splits) must build, train, and score one model, returning
    the validation error. Each cell gets a seed derived from its own key, so
    results do not depend on evaluation order; `completed` maps (G, eta,
    epochs) to a finished GridRow for resumption, and on_row(row), if given,
    is called as each remaining cell finishes. Divergent cells are recorded
    with status "failed" and NaN error; correlations are Pearson coefficients
    of validation error against each hyperparameter over the ok rows.
    """
    completed = completed or {}
    rows = []
    for cell in space.cells():
        row = completed.get(cell)
        if row is None:
            G, eta, epochs = cell
            config = TrainConfig(
                learning_rate=eta, epochs=epochs, lam=0.0, seed=derive_cell_seed(base_seed, G, eta, epochs)
            )
            try:
                row = GridRow(G, eta, epochs, float(task(G, config, splits)), "ok")
            except DivergenceError:
                row = GridRow(G, eta, epochs, float("nan"), "failed")
            if on_row is not None:
                on_row(row)
        rows.append(row)
    ok = [r for r in rows if r.status == "ok"]
    if not ok:
        raise DivergenceError("every grid cell failed")
    best_row = min(ok, key=lambda r: r.val_error)
    best = {
        "G": best_row.G,
        "learning_rate": best_row.eta,
        "epochs": best_row.epochs,
        "seed": derive_cell_seed(base_seed, best_row.G, best_row.eta, best_row.epochs),
        "val_error": best_row.val_error,
    }
    errs = [r.val_error for r in ok]
    correlations = {
        "G": _pearson([r.G for r in ok], errs),
        "learning_rate": _pearson([r.eta for r in ok], errs),
        "epochs": _pearson([r.epochs for r in ok], errs),
    }
    return GridSearchReport(rows=rows, best=best, correlations=correlations)


GRID_CSV_HEADER = tuple(f.name for f in fields(GridRow))  # a row is astuple(GridRow)


def save_grid_csv(rows, path) -> None:
    write_csv(path, GRID_CSV_HEADER, map(astuple, rows))


def load_grid_rows(path) -> list[GridRow]:
    """Rows of a grid.csv, a torn last row dropped as by every reader."""
    return [
        GridRow(int(G), float(eta), int(epochs), float(err), status)
        for G, eta, epochs, err, status in read_csv(path, GRID_CSV_HEADER)
    ]


def save_grid_summary(report: GridSearchReport, path) -> None:
    write_json({"best": report.best, "correlations": report.correlations}, path)
