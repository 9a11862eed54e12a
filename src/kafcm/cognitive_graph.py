"""Cognitive-map models: functional-edge (KA-FCM) and scalar-weight (FCM).

A KA-FCM replaces every scalar edge weight with a learnable univariate
function, so one inference step is c(t+1) = sigma(sum_j phi_ij(c_j(t))).
The bounding operator sigma is a differentiable squashing choice shared by
both model kinds; `identity` is provided for tasks whose targets live
outside a squashed range.
"""

from __future__ import annotations

import operator
import time
from dataclasses import dataclass

import numpy as np

from .atomic_io import atomic_write
from .edge_functions import _BASES, BASE_KINDS, _constant, _fresh_edge, base_eval
from .spline_core import KnotGrid, basis_evaluator, basis_tensor, make_uniform_grid

__all__ = [
    "BOUNDING_KINDS",
    "DivergenceError",
    "EdgeView",
    "KAFCMModel",
    "StandardFCM",
    "Trajectory",
    "apply_bounding",
    "bounding_grad",
    "bounding_slope",
    "fcm_step",
    "kafcm_step",
    "new_kafcm",
    "simulate",
    "scaling_benchmark",
    "trajectory_to_csv",
    "trajectory_from_csv",
]

SMOOTH_CLIP_STEEPNESS = 8.0

_HALF, _STEEPNESS, _ONE = map(_constant, (0.5, SMOOTH_CLIP_STEEPNESS, 1.0))


class DivergenceError(RuntimeError):
    """A state, loss, or gradient became non-finite."""


def _smooth_clip(x, out, scratch):
    z, e = (np.empty(x.shape), np.empty(x.shape)) if scratch is None else scratch
    np.multiply(_STEEPNESS, np.subtract(x, _HALF, z), z)
    np.exp(np.negative(np.abs(z, e), e), e)
    # heaviside(z, 1) is 1.0 for z >= 0 and 0.0 below; max with e <= 1
    # makes it 1.0 or e, so the quotient is 1/(1+e) or e/(1+e), and keeps
    # a NaN e itself, as np.where(z >= 0, 1.0, e) would
    np.maximum(e, np.heaviside(z, _ONE, z), out=z)
    return np.divide(z, np.add(_ONE, e, e), out)


# sigma of each bounding kind as fn(x, out, scratch) for a float array x:
# apply_bounding looks its kind up here, and a stepper binds its entry once
_BOUNDING = {
    "smooth_clip": _smooth_clip,
    "tanh": lambda x, out, scratch: np.tanh(x, out),
    "identity": lambda x, out, scratch: x if out is None else np.positive(x, out),
}
BOUNDING_KINDS = tuple(_BOUNDING)


def apply_bounding(kind: str, x, out=None, scratch=None):
    """sigma(x): smooth_clip is logistic(8*(x-0.5)), a smooth surrogate of
    clipping to [0,1] that keeps sigma(0)~0.018 and sigma(1)~0.982.

    out, if given, is an array of x's shape that receives sigma(x) and is
    returned; without it, identity returns x itself. scratch, if given, is a
    pair of float arrays of x's shape for smooth_clip's temporaries, so that
    with out no bounding allocates an array.
    """
    bound = _BOUNDING.get(kind)
    if bound is None:
        raise ValueError(f"unknown bounding kind: {kind!r}")
    return bound(np.asarray(x, dtype=float), out, scratch)


def bounding_slope(kind: str, y, out=None, tmp=None):
    """sigma'(x) from y = sigma(x): tanh 1 - y**2, smooth_clip 8 y (1 - y) and
    identity y**0 = 1, into out if given, with tmp for 1 - y (neither is y)."""
    if kind == "tanh":
        return np.subtract(1.0, np.square(y, out), out)
    if kind == "smooth_clip":
        out = np.multiply(SMOOTH_CLIP_STEEPNESS, y, out)
        return np.multiply(out, np.subtract(1.0, y, tmp), out)
    if kind == "identity":
        return np.power(y, 0.0, out)
    raise ValueError(f"unknown bounding kind: {kind!r}")


def bounding_grad(kind: str, x):
    """d sigma / dx, elementwise: the slope of sigma(x)."""
    return bounding_slope(kind, apply_bounding(kind, x))


class KAFCMModel:
    """N-node map whose adjacency entries are edge functions on one knot grid
    `grid`, which every model has (a map without edges too), and one base.

    phi_ij, the influence of source node j on target node i, is
    w_base[i, j] * b(x) + w_spline[i, j] * sum_k alpha[i, j, k] B_k(x), where
    the base b, named by `base` (one of BASE_KINDS), is the same for every
    edge and K = grid.basis_count. w_base, w_spline (N, N) and alpha (N, N,
    K) are views into one flat buffer `theta`, the model's only parameter
    state, which every inference and training path reads directly; update
    it in place. Each read of the three builds them from theta, so a copy's
    views look into its own theta.
    mask[i, j] False means the edge is absent: it contributes nothing,
    whatever finite values its slot holds, so the mask may be edited in
    place. edges[i][j] is an EdgeView of slot (i, j). Parameters enter a
    model only through these arrays, its views included; the grid and the
    base are fixed when it is built.
    """

    def __init__(self, n_nodes: int, grid: KnotGrid, mask=None, bounding="smooth_clip", base="silu"):
        """Zero parameters in every slot; default mask is dense without
        self-loops."""
        self.n_nodes = n_nodes
        self.grid = grid
        self.K = grid.basis_count
        self.mask = ~np.eye(n_nodes, dtype=bool) if mask is None else np.array(mask, dtype=bool)
        if self.mask.shape != (n_nodes, n_nodes):
            raise ValueError("mask shape must be (n_nodes, n_nodes)")
        if bounding not in BOUNDING_KINDS:
            raise ValueError(f"unknown bounding kind: {bounding!r}")
        if base not in BASE_KINDS:
            raise ValueError(f"unknown base kind: {base!r}")
        self.bounding = bounding
        self.base = base
        self.theta = np.zeros(n_nodes * n_nodes * (2 + self.K))

    def views(self, flat: np.ndarray):
        """(w_base, w_spline, alpha) views into a buffer laid out like theta."""
        n, nn = self.n_nodes, self.n_nodes**2
        return flat[:nn].reshape(n, n), flat[nn : 2 * nn].reshape(n, n), flat[2 * nn :].reshape(n, n, self.K)

    w_base, w_spline, alpha = (property(lambda self, k=k: self.views(self.theta)[k]) for k in range(3))
    edges = property(lambda self: _EdgeTable(self))

    def present_edges(self):
        """Yield (i, j, edge view) for every unmasked edge, in row-major order."""
        for i, j in np.argwhere(self.mask).tolist():
            yield i, j, EdgeView(self, i, j)

    def features(self, states: np.ndarray):
        """(base, B) of states with shape (T, N), in new arrays: the states
        under the model's base, (T, N), and their (T, N*K) basis tensor."""
        return base_eval(self.base, states, np.empty(states.shape)), basis_tensor(self.grid, states)

    def weights(self, rows=slice(None)):
        """(Wb, Ws) of the target nodes in `rows`, a basic slice: w_base *
        mask, matching base's columns, and (w_spline * mask)[..., None] *
        alpha flattened to match B's, so absent edges' slots give zeros."""
        w_base, w_spline, alpha = self.views(self.theta)
        mask = self.mask[rows]
        # w_spline * mask repeated along K, since NumPy buffers a broadcast operand
        Ws = np.repeat(w_spline[rows] * mask, self.K).reshape(len(mask), -1)
        Ws *= alpha[rows].reshape(Ws.shape)
        return w_base[rows] * mask, Ws

    @staticmethod
    def forward(features, weights, out=None) -> np.ndarray:
        """Pre-activation sums base @ Wb.T + B @ Ws.T, shape (T, rows): the
        one forward of every inference and training path. out, if given, is
        a pair of (T, rows) arrays: the sum goes into the first, which is
        returned, and the second holds the spline term; both must be
        C-contiguous float arrays, as np.dot requires of its out. np.dot
        reaches matmul's BLAS kernels without its ufunc dispatch."""
        (base, B), (Wb, Ws) = features, weights
        pre, spline = (None, None) if out is None else out
        pre = np.dot(base, Wb.T, pre)
        return np.add(pre, np.dot(B, Ws.T, spline), pre)

    def stepper(self):
        """step(state, out=None) -> sigma(pre(state)) for one state, a float
        vector of n values.

        Everything that does not depend on the state is bound once per
        stepper: the weights, the base's and the bounding's functions, the
        base row and the basis row (filled through an (n, K) view by the
        basis routine's bound work arrays), the two pre-activation rows and
        the scratch of the base and the bounding. A step is then a run of
        in-place calls through the one basis routine and the one forward; it
        writes into out (a new array when None) and returns it, and out may
        be state itself. Separate steppers share nothing, but one stepper
        must not run two steps at once.
        """
        n, K, forward = self.n_nodes, self.K, self.forward
        base_fn, bound = _BASES[self.base], _BOUNDING[self.bounding]
        weights = self.weights()
        feats = base, B = np.empty((1, n)), np.empty((1, n * K))
        pre = np.empty((1, n)), np.empty((1, n))
        base_row, points, pre_row = base[0], B.reshape(n, K), pre[0][0]
        basis = basis_evaluator(self.grid, n)
        base_scratch, bound_scratch = (np.empty(n), np.empty(n)), (np.empty(n), np.empty(n))

        def step(state: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
            base_fn(state, base_row, base_scratch)
            basis(state, points)
            forward(feats, weights, pre)
            return bound(pre_row, np.empty(n) if out is None else out, bound_scratch)

        return step


class EdgeView:
    """Edge (i, j) of a KAFCMModel with the attributes of an EdgeFunction:
    w_base, w_spline and alpha (a view) are entry [i, j] of the model's
    arrays, and setting them writes that entry. grid and base are the
    model's and read-only."""

    __slots__ = ("model", "i", "j")

    def __init__(self, model: KAFCMModel, i: int, j: int):
        self.model, self.i, self.j = model, i, j

    w_base = property(lambda view: float(view.model.w_base[view.i, view.j]))
    w_spline = property(lambda view: float(view.model.w_spline[view.i, view.j]))
    alpha = property(lambda view: view.model.alpha[view.i, view.j])

    @w_base.setter
    def w_base(self, value):
        self.model.w_base[self.i, self.j] = value

    @w_spline.setter
    def w_spline(self, value):
        self.model.w_spline[self.i, self.j] = value

    @alpha.setter
    def alpha(self, value):
        self.alpha[:] = value

    base = property(lambda view: view.model.base)
    grid = property(lambda view: view.model.grid)


class _EdgeTable:
    """model.edges, or its row i when i is set: edges[i][j] is
    EdgeView(model, i, j) for integer i and j (negative ones count from the
    end; a slice raises TypeError). It holds no assignment: write through
    the view's attributes."""

    __slots__ = ("model", "i")

    def __init__(self, model: KAFCMModel, i: int | None = None):
        self.model, self.i = model, i

    def __getitem__(self, k):
        k = range(self.model.n_nodes)[operator.index(k)]
        return _EdgeTable(self.model, k) if self.i is None else EdgeView(self.model, self.i, k)


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

    def stepper(self):
        """step(state, out=None) -> f(W state), written into out when given."""
        return lambda state, out=None: apply_bounding(self.activation, self.weights @ state, out)


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
    model = KAFCMModel(n_nodes, grid, mask, bounding, base)
    edge_seeds = np.random.SeedSequence(seed).generate_state(n_nodes * n_nodes)
    w_base, w_spline, alpha = model.views(model.theta)
    for i, j in np.argwhere(model.mask).tolist():
        w_base[i, j], w_spline[i, j], alpha[i, j] = _fresh_edge(model.K, int(edge_seeds[i * n_nodes + j]))
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
    """One synchronous update: out_i = sigma(sum_j phi_ij(c_j)), a new array."""
    state = _check_state(model.n_nodes, state)
    return model.stepper()(state)


def fcm_step(model: StandardFCM, state) -> np.ndarray:
    """One synchronous update: out = f(W c), a new array."""
    state = _check_state(model.n_nodes, state)
    return model.stepper()(state)


def simulate(model, c0, T: int) -> Trajectory:
    """Iterate the model T steps from c0, each step written straight into
    the trajectory's next row.

    Raises ValueError for a non-finite c0 and DivergenceError naming the
    step and the first node when a step gives a non-finite state.
    """
    if T < 1:
        raise ValueError(f"T must be at least 1, got {T}")
    state = _check_state(model.n_nodes, c0)
    step = model.stepper()
    states = np.empty((T + 1, model.n_nodes))
    states[0] = state
    finite = np.empty(model.n_nodes, dtype=bool)
    for t in range(T):
        if np.count_nonzero(np.isfinite(step(states[t], states[t + 1]), finite)) < len(finite):
            raise DivergenceError(f"non-finite state at step {t + 1}, node {int(np.argmin(finite))}")
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
