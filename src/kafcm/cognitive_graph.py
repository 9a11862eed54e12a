"""Cognitive-map models: functional-edge (KA-FCM) and scalar-weight (FCM).

A KA-FCM replaces every scalar edge weight with a learnable univariate
function, so one inference step is c(t+1) = sigma(sum_j phi_ij(c_j(t))).
The bounding operator sigma is a differentiable squashing choice shared by
both model kinds; `identity` is provided for tasks whose targets live
outside a squashed range.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .atomic_io import atomic_write
from .edge_functions import BASE_KINDS, base_eval, init_edge
from .spline_core import KnotGrid, basis_tensor, make_uniform_grid

__all__ = [
    "BOUNDING_KINDS",
    "DenseKAFCM",
    "DivergenceError",
    "KAFCMModel",
    "StandardFCM",
    "Trajectory",
    "apply_bounding",
    "bounding_grad",
    "fcm_step",
    "kafcm_step",
    "new_kafcm",
    "simulate",
    "scaling_benchmark",
    "trajectory_to_csv",
    "trajectory_from_csv",
]

BOUNDING_KINDS = ("smooth_clip", "tanh", "identity")

SMOOTH_CLIP_STEEPNESS = 8.0


class DivergenceError(RuntimeError):
    """A state, loss, or gradient became non-finite."""


def apply_bounding(kind: str, x):
    """sigma(x): smooth_clip is logistic(8*(x-0.5)), a smooth surrogate of
    clipping to [0,1] that keeps sigma(0)~0.018 and sigma(1)~0.982."""
    x = np.asarray(x, dtype=float)
    if kind == "smooth_clip":
        z = SMOOTH_CLIP_STEEPNESS * (x - 0.5)
        out = np.where(z >= 0, 1.0 / (1.0 + np.exp(-np.abs(z))), np.exp(-np.abs(z)) / (1.0 + np.exp(-np.abs(z))))
    elif kind == "tanh":
        out = np.tanh(x)
    elif kind == "identity":
        out = x
    else:
        raise ValueError(f"unknown bounding kind: {kind!r}")
    return out


def bounding_grad(kind: str, x):
    """d sigma / dx, elementwise."""
    x = np.asarray(x, dtype=float)
    if kind == "smooth_clip":
        s = apply_bounding("smooth_clip", x)
        return SMOOTH_CLIP_STEEPNESS * s * (1.0 - s)
    if kind == "tanh":
        return 1.0 - np.tanh(x) ** 2
    if kind == "identity":
        return np.ones_like(x)
    raise ValueError(f"unknown bounding kind: {kind!r}")


@dataclass
class KAFCMModel:
    """N-node map whose adjacency entries are EdgeFunction values.

    edges[i][j] is phi_ij, the influence of source node j on target node i;
    mask[i, j] False means the edge is absent (its entry may be None or an
    ignored EdgeFunction). All present edges share one knot grid, compared by
    value; inference and training reject a model whose edge grids differ.
    """

    n_nodes: int
    edges: list
    mask: np.ndarray
    bounding: str = "smooth_clip"

    def __post_init__(self):
        self.mask = np.asarray(self.mask, dtype=bool)
        if self.mask.shape != (self.n_nodes, self.n_nodes):
            raise ValueError("mask shape must be (n_nodes, n_nodes)")
        if self.bounding not in BOUNDING_KINDS:
            raise ValueError(f"unknown bounding kind: {self.bounding!r}")

    def present_edges(self):
        """Yield (i, j, edge) for every unmasked edge, in row-major order."""
        rows, cols = np.nonzero(self.mask)
        for i, j in zip(rows.tolist(), cols.tolist()):
            yield i, j, self.edges[i][j]


@dataclass
class StandardFCM:
    """Scalar-weight map: c(t+1) = f(W c(t))."""

    weights: np.ndarray
    activation: str = "tanh"

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=float)
        if self.weights.ndim != 2 or self.weights.shape[0] != self.weights.shape[1]:
            raise ValueError("weights must be a square matrix")
        if self.activation not in BOUNDING_KINDS:
            raise ValueError(f"unknown bounding kind: {self.activation!r}")

    @property
    def n_nodes(self) -> int:
        return self.weights.shape[0]


@dataclass
class Trajectory:
    """Time-ordered states, shape (T+1, N); row t is c(t)."""

    states: np.ndarray

    def __post_init__(self):
        self.states = np.asarray(self.states, dtype=float)
        if self.states.ndim != 2:
            raise ValueError("states must be a 2-d array (time, node)")


def new_kafcm(
    n_nodes: int,
    grid: KnotGrid,
    mask: np.ndarray | None = None,
    bounding: str = "smooth_clip",
    base: str = "silu",
    seed: int = 0,
) -> KAFCMModel:
    """Freshly initialized model; default mask is dense without self-loops.

    Per-edge init seeds are spawned deterministically from `seed`.
    """
    if mask is None:
        mask = ~np.eye(n_nodes, dtype=bool)
    mask = np.asarray(mask, dtype=bool)
    edge_seeds = np.random.SeedSequence(seed).generate_state(n_nodes * n_nodes)
    edges = [[None] * n_nodes for _ in range(n_nodes)]
    for i in range(n_nodes):
        for j in range(n_nodes):
            if mask[i, j]:
                edges[i][j] = init_edge(grid, base=base, rng_seed=int(edge_seeds[i * n_nodes + j]))
    return KAFCMModel(n_nodes=n_nodes, edges=edges, mask=mask, bounding=bounding)


def _check_state(n: int, state) -> np.ndarray:
    """state as a float vector; ValueError unless it has n finite values."""
    state = np.asarray(state, dtype=float)
    if state.shape != (n,):
        raise ValueError(f"state length {state.shape} does not match model size {n}")
    finite = np.isfinite(state)
    if not finite.all():
        i = int(np.argmin(finite))
        raise ValueError(f"state value {float(state[i])!r} at node {i} is not finite")
    return state


def _grid_key(grid: KnotGrid) -> tuple:
    return (grid.domain_lo, grid.domain_hi, grid.grid_size, grid.degree)


_KIND_INDEX = {kind: k for k, kind in enumerate(BASE_KINDS)}


class DenseKAFCM:
    """The present edges of a KA-FCM as dense arrays over their shared grid.

    w_base, w_spline (N, N) and alpha (N, N, K) are views into one flat
    buffer `theta` and are zero where the mask is False. kind_mask[i, k, j]
    is 1.0 where edge (i, j) is present with base kind BASE_KINDS[k], else
    0.0. Every inference and training path uses the one forward

        pre = base @ Wb.T + B @ (w_spline[..., None] * alpha).reshape(N, N*K).T

    where `base` holds the states under each base kind, one N-column block
    per kind, Wb = (w_base[:, None, :] * kind_mask).reshape(N, -1) the base
    weights in the same blocks, and B the basis tensor of the states.
    """

    def __init__(self, model: KAFCMModel):
        n = model.n_nodes
        self.n_nodes = n
        self.bounding = model.bounding
        self.mask = model.mask
        # One pass over the present edges, checking that they share one grid;
        # grids compare by value, so equal but distinct grid objects are shared.
        edges = []
        grid = key = None
        for i, j, e in model.present_edges():
            if e.grid is not grid:
                if grid is None:
                    grid, key = e.grid, _grid_key(e.grid)
                elif _grid_key(e.grid) != key:
                    raise ValueError(f"edge ({i}, {j}) does not share the knot grid of the other edges")
            edges.append(e)
        self.grid = grid
        self.K = 0 if grid is None else grid.basis_count
        kind = np.full((n, n), -1)
        kind[self.mask] = [_KIND_INDEX[e.base] for e in edges]
        self.kind_mask = (kind[:, None, :] == np.arange(len(BASE_KINDS))[:, None]).astype(float)
        self.theta = np.zeros(n * n * (2 + self.K))
        self.w_base, self.w_spline, self.alpha = self.views(self.theta)
        self.w_base[self.mask] = [e.w_base for e in edges]
        self.w_spline[self.mask] = [e.w_spline for e in edges]
        if edges:
            self.alpha[self.mask] = np.concatenate([e.alpha for e in edges]).reshape(len(edges), self.K)

    def views(self, flat: np.ndarray):
        """(w_base, w_spline, alpha) views into a buffer laid out like theta."""
        n = self.n_nodes
        nn = n * n
        return flat[:nn].reshape(n, n), flat[nn : 2 * nn].reshape(n, n), flat[2 * nn :].reshape(n, n, self.K)

    def features(self, states: np.ndarray):
        """(base, B) of states with shape (T, N)."""
        base = np.concatenate([base_eval(kind, states) for kind in BASE_KINDS], axis=1)
        B = basis_tensor(self.grid, states) if self.K else np.zeros((len(states), 0))
        return base, B

    def weights(self, rows=slice(None)):
        """(Wb, Ws) for the target nodes in `rows`, a basic slice."""
        Wb = self.w_base[rows, None, :] * self.kind_mask[rows]
        Ws = self.w_spline[rows, :, None] * self.alpha[rows]
        return Wb.reshape(len(Wb), -1), Ws.reshape(len(Ws), -1)

    @staticmethod
    def forward(features, weights) -> np.ndarray:
        """Pre-activation sums, shape (T, rows)."""
        (base, B), (Wb, Ws) = features, weights
        return base @ Wb.T + B @ Ws.T

    def stepper(self):
        """The update c -> sigma(pre(c)) of one state, weights computed once."""
        weights = self.weights()

        def step(state: np.ndarray) -> np.ndarray:
            pre = self.forward(self.features(state[None, :]), weights)[0]
            return np.asarray(apply_bounding(self.bounding, pre))

        return step

    def write_back(self, model: KAFCMModel) -> None:
        """Copy the parameters into the model's edge objects."""
        values = self.w_base[self.mask].tolist(), self.w_spline[self.mask].tolist(), self.alpha[self.mask]
        for (_, _, e), w_base, w_spline, alpha in zip(model.present_edges(), *values):
            e.w_base, e.w_spline, e.alpha = w_base, w_spline, alpha


def kafcm_step(model: KAFCMModel, state) -> np.ndarray:
    """One synchronous update: out_i = sigma(sum_j phi_ij(c_j)).

    Each call repacks the whole model into a DenseKAFCM, a Python pass over
    every edge that costs several steps' time, so a loop of steps should
    call simulate, which packs once per call.
    """
    state = _check_state(model.n_nodes, state)
    return DenseKAFCM(model).stepper()(state)


def fcm_step(model: StandardFCM, state) -> np.ndarray:
    """One synchronous update: out = f(W c)."""
    state = _check_state(model.n_nodes, state)
    return np.asarray(apply_bounding(model.activation, model.weights @ state))


def simulate(model, c0, T: int) -> Trajectory:
    """Iterate the model T steps from c0.

    Raises ValueError for a non-finite c0 and DivergenceError when a step
    gives a non-finite state.
    """
    if T < 1:
        raise ValueError(f"T must be at least 1, got {T}")
    state = _check_state(model.n_nodes, c0)
    if isinstance(model, StandardFCM):
        step = lambda s: fcm_step(model, s)
    else:
        step = DenseKAFCM(model).stepper()
    states = np.empty((T + 1, model.n_nodes))
    states[0] = state
    for t in range(T):
        state = step(state)
        if not np.isfinite(state).all():
            raise DivergenceError(f"non-finite state at step {t + 1}")
        states[t + 1] = state
    return Trajectory(states)


def trajectory_to_csv(traj: Trajectory, path) -> None:
    """Write `t,c_0,...,c_{N-1}` rows with full float precision."""
    n = traj.states.shape[1]
    header = "t," + ",".join(f"c_{i}" for i in range(n))
    with atomic_write(path) as fh:
        fh.write(header + "\n")
        for t, row in enumerate(traj.states):
            fh.write(str(t) + "," + ",".join(repr(float(v)) for v in row) + "\n")


def trajectory_from_csv(path) -> Trajectory:
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return Trajectory(data[:, 1:])


def scaling_benchmark(sizes=(8, 16, 32, 64), G: int = 10, p: int = 3, steps: int = 1000, seed: int = 0):
    """Mean step time vs model size for dense models; returns times and the
    fitted log-log exponent (quadratic growth would give exponent ~2)."""
    times = []
    for n in sizes:
        grid = make_uniform_grid(-1, 1, G, p)
        model = new_kafcm(n, grid, mask=np.ones((n, n), dtype=bool), bounding="tanh", seed=seed)
        c0 = np.random.default_rng(seed).uniform(-1, 1, n)
        simulate(model, c0, 5)  # warm up
        t0 = time.perf_counter()
        simulate(model, c0, steps)
        times.append((time.perf_counter() - t0) / steps)
    exponent = float(np.polyfit(np.log(np.asarray(sizes, dtype=float)), np.log(times), 1)[0])
    return {"sizes": list(sizes), "mean_step_seconds": times, "fitted_exponent": exponent}
