"""Cognitive-map models: functional-edge (KA-FCM) and scalar-weight (FCM).

A KA-FCM replaces every scalar edge weight with a learnable univariate
function, so one inference step is c(t+1) = sigma(sum_j phi_ij(c_j(t))).
Every KA-FCM path (a simulate step, predict_one_step and a fit) computes
the sums of its target nodes as one product F @ W.T, KAFCMModel.forward:
F = [b(x) | B(x)] holds the states x of the target nodes' source span
(KAFCMModel.span, the smallest contiguous range of nodes that feeds one of
them) under the base and their B-spline basis tensor, and W = [w_base |
w_spline * alpha] the matching weights (KAFCMModel.features and weights).
The bounding operator sigma is a differentiable squashing choice shared by
both model kinds; `identity` is provided for tasks whose targets live
outside a squashed range.
"""

from __future__ import annotations

import math
import operator
import time
from dataclasses import dataclass

import numpy as np

from .edge_functions import _BASES, _ONE, _constant, _fresh_edge, _kind_entry
from .spline_core import KnotGrid, _fill_basis_tensor, basis_evaluator, make_uniform_grid

__all__ = [
    "BOUNDING_KINDS",
    "DivergenceError",
    "EdgeView",
    "KAFCMModel",
    "StandardFCM",
    "Trajectory",
    "apply_bounding",
    "bounding_slope",
    "fcm_step",
    "kafcm_step",
    "new_kafcm",
    "simulate",
    "scaling_benchmark",
]

SMOOTH_CLIP_STEEPNESS = 8.0

_HALF, _STEEPNESS = map(_constant, (0.5, SMOOTH_CLIP_STEEPNESS))


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


def _smooth_clip_slope(y, out, tmp):
    out = np.multiply(SMOOTH_CLIP_STEEPNESS, y, out)
    return np.multiply(out, np.subtract(1.0, y, tmp), out)


# (sigma as fn(x, out, scratch) of a float array x, sigma' from y = sigma(x)
# as fn(y, out, tmp)) of each bounding kind: apply_bounding and
# bounding_slope look their kind up here, and a stepper binds its entry once
_BOUNDING = {
    "smooth_clip": (_smooth_clip, _smooth_clip_slope),
    "tanh": (lambda x, out, _: np.tanh(x, out), lambda y, out, _: np.subtract(1.0, np.square(y, out), out)),
    "identity": (lambda x, out, _: x if out is None else np.positive(x, out), lambda y, out, _: np.power(y, 0.0, out)),
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
    return _kind_entry(_BOUNDING, "bounding", kind)[0](np.asarray(x, dtype=float), out, scratch)


def bounding_slope(kind: str, y, out=None, tmp=None):
    """sigma'(x) from y = sigma(x): tanh 1 - y**2, smooth_clip 8 y (1 - y) and
    identity y**0 = 1, into out if given, with tmp for 1 - y (neither is y)."""
    return _kind_entry(_BOUNDING, "bounding", kind)[1](y, out, tmp)


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
        _kind_entry(_BOUNDING, "bounding", bounding)
        _kind_entry(_BASES, "base", base)
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

    def span(self, rows=slice(None)) -> slice:
        """The source span of the target nodes in `rows`, a basic slice: the
        smallest contiguous range of nodes that feeds a present edge into one
        of them, slice(0, 0) when none does. Only these sources reach the
        rows' pre-activations."""
        used = np.flatnonzero(self.mask[rows].any(axis=0))
        return slice(int(used[0]), int(used[-1]) + 1) if len(used) else slice(0, 0)

    def features(self, states: np.ndarray, span: slice, out=None) -> np.ndarray:
        """F = [b(x) | B(x)] of the span's columns x of states (T, N), shape
        (T, S*(1+K)) for S nodes in span: x under the model's base in the
        first S columns, then x's (T, S*K) basis tensor. out, if given, is a
        (T, S*(1+K)) float array whose rows may lie apart (the first columns
        of a wider array) that receives F; otherwise F is a new array. Both
        parts are written a block of rows at a time (_fill_basis_tensor), so
        that neither the tensor nor the base's temporaries over the states
        are ever held beside F."""
        x = states[:, span]
        F = np.empty((len(x), x.shape[1] * (1 + self.K))) if out is None else out
        return _fill_basis_tensor(self.grid, x, F, _BASES[self.base][0])

    def weights(self, rows: slice, span: slice) -> np.ndarray:
        """W = [Wb | Ws], (rows, S*(1+K)), of the target nodes in `rows` and
        the sources in `span`, both basic slices, matching F's columns: w_base
        * mask, then (w_spline * mask)[..., None] * alpha flattened, so absent
        edges' slots give zeros."""
        w_base, w_spline, alpha = self.views(self.theta)
        mask = self.mask[rows, span]
        (n_out, S), K = mask.shape, self.K
        W = np.empty((n_out, S * (1 + K)))
        np.multiply(w_base[rows, span], mask, W[:, :S])
        # w_spline * mask repeated along K, since NumPy buffers a broadcast operand
        spline = np.repeat(w_spline[rows, span] * mask, K).reshape(n_out, S, K)
        np.multiply(spline, alpha[rows, span], W[:, S:].reshape(spline.shape))
        return W

    @staticmethod
    def forward(features, weights, out=None) -> np.ndarray:
        """Pre-activations F @ W.T, shape (T, rows), as one np.dot: the one
        forward of every inference and training path. out, if given, is a
        C-contiguous (T, rows) float array, as np.dot requires, that receives
        them. np.dot reaches matmul's BLAS kernels without its ufunc
        dispatch; an empty span gives zeros."""
        return np.dot(features, weights.T, out)

    def stepper(self):
        """step(state, out=None) -> sigma(pre(state)) for one state, a float
        vector of n values.

        Everything that does not depend on the state is bound once per
        stepper: the source span of all n nodes, the weights over it, the
        base's and the bounding's functions, the (1, S*(1+K)) feature row
        (the base writes its first S entries and the basis routine, through
        its bound work arrays for S points, the rest as an (S, K) view), the
        pre-activation row and the scratch of the base and the bounding. A
        step is then a run of in-place calls through the one basis routine
        and the one forward; it writes into out (a new array when None) and
        returns it, and out may be state itself. Separate steppers share
        nothing, but one stepper must not run two steps at once.
        """
        n, K, forward = self.n_nodes, self.K, self.forward
        base_fn, bound = _BASES[self.base][0], _BOUNDING[self.bounding][0]
        span = self.span()
        S = span.stop - span.start
        weights = self.weights(slice(None), span)
        feats = np.empty((1, S * (1 + K)))
        base_row, points = feats[0, :S], feats[0, S:].reshape(S, K)
        pre = np.empty((1, n))
        pre_row = pre[0]
        basis = basis_evaluator(self.grid, S)
        base_scratch, bound_scratch = (np.empty(S), np.empty(S)), (np.empty(n), np.empty(n))

        def step(state: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
            sources = state[span]
            base_fn(sources, base_row, base_scratch)
            basis(sources, points)
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
        _kind_entry(_BOUNDING, "bounding", self.activation)

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


def kafcm_step(model, state) -> np.ndarray:
    """One synchronous update, a new array: out_i = sigma(sum_j phi_ij(c_j))
    for a KAFCMModel, out = f(W c) for a StandardFCM (fcm_step is this function)."""
    return model.stepper()(_check_state(model.n_nodes, state))


fcm_step = kafcm_step


def simulate(model, c0, T: int) -> Trajectory:
    """Iterate the model T steps from c0, each step written straight into
    the trajectory's next row.

    Raises ValueError for a non-finite c0 and DivergenceError naming the
    step and the first node when a step gives a non-finite state. Each step
    is tested with one product, row . row, NaN or infinite if any entry is;
    only then is the row scanned entry by entry, and if every entry is
    finite (|x| > 1e154 overflows the product) the rollout goes on.
    """
    if T < 1:
        raise ValueError(f"T must be at least 1, got {T}")
    state = _check_state(model.n_nodes, c0)
    step = model.stepper()
    states = np.empty((T + 1, model.n_nodes))
    states[0] = state
    finite = np.empty(model.n_nodes, dtype=bool)
    for t in range(T):
        row = step(states[t], states[t + 1])
        if math.isfinite(np.vdot(row, row)):
            continue
        if np.count_nonzero(np.isfinite(row, finite)) < len(finite):
            raise DivergenceError(f"non-finite state at step {t + 1}, node {int(np.argmin(finite))}")
    return Trajectory(states)


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
