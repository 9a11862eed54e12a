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
    "DivergenceError",
    "EdgeView",
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


_KIND_INDEX = {kind: k for k, kind in enumerate(BASE_KINDS)}
_KINDS = np.arange(len(BASE_KINDS))


def _kind_index(kind: str) -> int:
    if kind not in _KIND_INDEX:
        raise ValueError(f"unknown base kind: {kind!r}")
    return _KIND_INDEX[kind]


def _grid_key(grid: KnotGrid) -> tuple:
    return (grid.domain_lo, grid.domain_hi, grid.grid_size, grid.degree)


class KAFCMModel:
    """N-node map whose adjacency entries are edge functions on one knot grid.

    phi_ij, the influence of source node j on target node i, is
    w_base[i, j] * b(x) + w_spline[i, j] * sum_k alpha[i, j, k] B_k(x) with
    base b = BASE_KINDS[base_kind[i, j]]. w_base, w_spline (N, N) and alpha
    (N, N, K) are views into one flat buffer `theta`, which every inference
    and training path reads directly; update it in place. mask[i, j] False
    means the edge is absent: it contributes nothing, whatever finite values
    its slot holds, so the mask may be edited in place. edges[i][j] is an
    EdgeView of slot (i, j), and assigning an edge function to it copies its
    parameters in.
    """

    def __init__(self, n_nodes: int, grid: KnotGrid | None, mask=None, bounding="smooth_clip"):
        """Zero parameters and a silu base in every slot; default mask is dense
        without self-loops. grid may be None only for a model without edges."""
        self.n_nodes = n_nodes
        self.grid = grid
        self.K = 0 if grid is None else grid.basis_count
        self.mask = ~np.eye(n_nodes, dtype=bool) if mask is None else np.array(mask, dtype=bool)
        if self.mask.shape != (n_nodes, n_nodes):
            raise ValueError("mask shape must be (n_nodes, n_nodes)")
        if bounding not in BOUNDING_KINDS:
            raise ValueError(f"unknown bounding kind: {bounding!r}")
        self.bounding = bounding
        self.base_kind = np.full((n_nodes, n_nodes), _KIND_INDEX["silu"])
        self.theta = np.zeros(n_nodes * n_nodes * (2 + self.K))

    @classmethod
    def from_edges(cls, edges, mask, bounding="smooth_clip") -> "KAFCMModel":
        """A model holding edges[i][j] wherever mask[i, j] (other entries are
        ignored and may be None), on the grid of the first present edge.
        Raises ValueError naming the first edge whose grid differs from it."""
        mask = np.asarray(mask, dtype=bool)
        present = np.argwhere(mask).tolist()
        chosen = [edges[i][j] for i, j in present]
        model = cls(len(mask), chosen[0].grid if chosen else None, mask, bounding)
        model._put(present, chosen)
        return model

    def _put(self, slots, edges) -> None:
        """Copy edges[k]'s parameters into slot slots[k] = (i, j) for every k,
        after checking that each edge's grid equals the model's by value."""
        for (i, j), edge in zip(slots, edges):
            if edge.grid is not self.grid and (self.grid is None or _grid_key(edge.grid) != _grid_key(self.grid)):
                raise ValueError(f"edge ({i}, {j}) does not share the model's knot grid")
        at = [i for i, _ in slots], [j for _, j in slots]
        w_base, w_spline, alpha = self.views(self.theta)
        w_base[at] = [e.w_base for e in edges]
        w_spline[at] = [e.w_spline for e in edges]
        alpha[at] = np.reshape([e.alpha for e in edges], (len(edges), self.K))
        self.base_kind[at] = [_kind_index(e.base) for e in edges]

    def views(self, flat: np.ndarray):
        """(w_base, w_spline, alpha) views into a buffer laid out like theta."""
        n, nn = self.n_nodes, self.n_nodes**2
        return flat[:nn].reshape(n, n), flat[nn : 2 * nn].reshape(n, n), flat[2 * nn :].reshape(n, n, self.K)

    w_base = property(lambda self: self.views(self.theta)[0])
    w_spline = property(lambda self: self.views(self.theta)[1])
    alpha = property(lambda self: self.views(self.theta)[2])
    edges = property(lambda self: _EdgeTable(self))

    def present_edges(self):
        """Yield (i, j, edge view) for every unmasked edge, in row-major order."""
        for i, j in np.argwhere(self.mask).tolist():
            yield i, j, EdgeView(self, i, j)

    def kind_mask(self) -> np.ndarray:
        """kind_mask[i, k, j] is 1.0 where edge (i, j) is present with base
        kind BASE_KINDS[k], else 0.0."""
        return ((self.base_kind[:, None, :] == _KINDS[:, None]) & self.mask[:, None, :]).astype(float)

    def features(self, states: np.ndarray):
        """(base, B) of states with shape (T, N): the states under each base
        kind, one N-column block per kind, and their (T, N*K) basis tensor."""
        base = np.concatenate([base_eval(kind, states) for kind in BASE_KINDS], axis=1)
        B = basis_tensor(self.grid, states) if self.K else np.zeros((len(states), 0))
        return base, B

    def weights(self, rows=slice(None)):
        """(Wb, Ws) of the target nodes in `rows`, a basic slice."""
        w_base, w_spline, alpha = self.views(self.theta)
        return self.assemble(w_base[rows], w_spline[rows], alpha[rows], self.kind_mask()[rows], self.mask[rows])

    @staticmethod
    def assemble(w_base, w_spline, alpha, kind_mask, mask):
        """(Wb, Ws) from rows of the parameter arrays, of kind_mask and of the
        mask: Wb holds w_base in the blocks of `base`, Ws is (w_spline[...,
        None] * alpha) flattened to match B, and absent edges give zeros."""
        Wb = w_base[:, None, :] * kind_mask
        Ws = (w_spline * mask)[:, :, None] * alpha
        return Wb.reshape(len(Wb), -1), Ws.reshape(len(Ws), -1)

    @staticmethod
    def forward(features, weights) -> np.ndarray:
        """Pre-activation sums base @ Wb.T + B @ Ws.T, shape (T, rows): the
        one forward of every inference and training path."""
        (base, B), (Wb, Ws) = features, weights
        return base @ Wb.T + B @ Ws.T

    def stepper(self):
        """The update c -> sigma(pre(c)) of one state, weights computed once."""
        weights = self.weights()

        def step(state: np.ndarray) -> np.ndarray:
            pre = self.forward(self.features(state[None, :]), weights)[0]
            return np.asarray(apply_bounding(self.bounding, pre))

        return step


def _slot(name: str, get, put=lambda value: value):
    """A property backed by model.<name>[i, j], read through get and written through put."""

    def write(view, value):
        getattr(view.model, name)[view.i, view.j] = put(value)

    return property(lambda view: get(getattr(view.model, name)[view.i, view.j]), write)


class EdgeView:
    """Edge (i, j) of a KAFCMModel with the attributes of an EdgeFunction,
    read from and written to the model's arrays; alpha is a view into theta."""

    __slots__ = ("model", "i", "j")

    def __init__(self, model: KAFCMModel, i: int, j: int):
        self.model, self.i, self.j = model, i, j

    w_base = _slot("w_base", float)
    w_spline = _slot("w_spline", float)
    alpha = _slot("alpha", np.asarray)
    base = _slot("base_kind", BASE_KINDS.__getitem__, _kind_index)
    grid = property(lambda view: view.model.grid)


class _EdgeTable:
    """model.edges, or its row i when i is set: edges[i][j] is
    EdgeView(model, i, j), and edges[i][j] = edge copies edge's parameters
    into slot (i, j) after checking its grid equals the model's by value."""

    __slots__ = ("model", "i")

    def __init__(self, model: KAFCMModel, i: int | None = None):
        self.model, self.i = model, i

    def __getitem__(self, k):
        k = range(self.model.n_nodes)[k]
        return _EdgeTable(self.model, k) if self.i is None else EdgeView(self.model, self.i, k)

    def __setitem__(self, j, edge):
        if self.i is None:
            raise TypeError("assign one edge at a time: model.edges[i][j] = edge")
        self.model._put([(self.i, range(self.model.n_nodes)[j])], [edge])


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
    model = KAFCMModel(n_nodes, grid, mask, bounding)
    edge_seeds = np.random.SeedSequence(seed).generate_state(n_nodes * n_nodes)
    present = np.argwhere(model.mask).tolist()
    model._put(present, [init_edge(grid, base=base, rng_seed=int(edge_seeds[i * n_nodes + j])) for i, j in present])
    return model


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


def kafcm_step(model: KAFCMModel, state) -> np.ndarray:
    """One synchronous update: out_i = sigma(sum_j phi_ij(c_j))."""
    state = _check_state(model.n_nodes, state)
    return model.stepper()(state)


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
        step = model.stepper()
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
