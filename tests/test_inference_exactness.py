"""The inference fast paths against their straightforward forms, bit for bit.

`basis_matrix`, `basis_derivative_matrix`, `basis_tensor`, `silu`,
`silu_grad`, `new_kafcm` and `simulate` are written for few NumPy calls per
step, and `simulate` reuses one set of step buffers per call. The references
below are the plain forms of the same arithmetic: `np.clip`, `np.vander` and
a NaN mask for the local basis, boolean-mask indexing for SiLU, a per-(i, j)
walk of the mask that packs edges (`init_edge` objects, or a model's edge
views) into one parameter buffer, and a forward that is one product F @
W.T over the map's source span, F the span's states under the map's one
base beside their basis tensor.
Every comparison is of the raw float64 bits, so signed zeros and NaN
payloads must match as well as values. The one exception is the two-block
forward, which evaluated every state under both base kinds and masked w_base
per kind: it sums in another order, so it is held to TWO_BLOCK_ATOL.
"""

import functools
import linecache
import math
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kafcm import baselines
from kafcm.baselines import HIDDEN_WIDTH
from kafcm.cognitive_graph import (
    BOUNDING_KINDS,
    DivergenceError,
    KAFCMModel,
    StandardFCM,
    apply_bounding,
    kafcm_step,
    new_kafcm,
    simulate,
)
from kafcm.datagen import Dataset
from kafcm.edge_functions import BASE_KINDS, EdgeFunction, init_edge, silu, silu_grad
from kafcm.spline_core import (
    BASIS_BLOCK_POINTS,
    _power_basis,
    basis_derivative_matrix,
    basis_matrix,
    basis_tensor,
    make_uniform_grid,
)
from kafcm.training import TrainConfig, _Workspace, predict_one_step, train_gd

SETTINGS = settings(max_examples=80, deadline=None, derandomize=True)


def same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


# ---------------------------------------------------------------- references


def ref_local_eval(grid, xs, coef):
    p = grid.degree
    K = grid.basis_count
    xc = np.clip(np.atleast_1d(np.asarray(xs, dtype=float)), grid.domain_lo, grid.domain_hi)
    n = xc.shape[0]
    span = np.minimum(np.searchsorted(grid.knots, xc, side="right") - 1, p + grid.grid_size - 1)
    u = (xc - grid.knots[span]) / grid.spacing
    out = np.zeros((n, K))
    start = np.arange(0, n * K, K) + span - p
    out.ravel()[start[:, None] + np.arange(p + 1)] = np.vander(u, len(coef), increasing=True) @ coef
    nan = np.isnan(xc)
    if nan.any():
        out[nan] = np.nan
    return out


def ref_basis_matrix(grid, xs):
    b = ref_local_eval(grid, xs, _power_basis(grid.degree))
    return np.maximum(b, 0.0, out=b)


def ref_basis_derivative_matrix(grid, xs):
    p = grid.degree
    return ref_local_eval(grid, xs, np.arange(1, p + 1)[:, None] * _power_basis(p)[1:] / grid.spacing)


def ref_basis_tensor(grid, states):
    T, n = states.shape
    K = grid.basis_count
    B = np.empty((T, n, K))
    cols = max(1, BASIS_BLOCK_POINTS // max(T, 1))
    for j in range(0, n, cols):
        block = states[:, j : j + cols]
        B[:, j : j + cols] = ref_basis_matrix(grid, block.ravel()).reshape(*block.shape, K)
    return B.reshape(T, n * K)


def ref_silu(x):
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = x[pos] / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = x[~pos] * ex / (1.0 + ex)
    if out.ndim == 0:
        return float(out)
    return out


def ref_silu_grad(x):
    x = np.asarray(x, dtype=float)
    sig = np.empty_like(x)
    pos = x >= 0
    sig[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    sig[~pos] = ex / (1.0 + ex)
    out = sig * (1.0 + x * (1.0 - sig))
    if out.ndim == 0:
        return float(out)
    return out


def ref_pack(edges, mask):
    """(theta, base, grid) of edges[i][j] from a per-(i, j) walk of the mask,
    on the grid and base of edges[0][0], present or not."""
    n = len(mask)
    grid, base = edges[0][0].grid, edges[0][0].base
    edges = [edges[i][j] for i in range(n) for j in range(n) if mask[i, j]]
    assert all(e.base == base and e.grid == grid for e in edges)
    K = grid.basis_count
    nn = n * n
    theta = np.zeros(nn * (2 + K))
    theta[:nn].reshape(n, n)[mask] = [e.w_base for e in edges]
    theta[nn : 2 * nn].reshape(n, n)[mask] = [e.w_spline for e in edges]
    theta[2 * nn :].reshape(n, n, K)[mask] = np.reshape([e.alpha for e in edges], (len(edges), K))
    return theta, base, grid


def ref_base(base, states):
    assert BASE_KINDS == ("silu", "identity") and base in BASE_KINDS
    return ref_silu(states) if base == "silu" else np.array(states, dtype=float)


def ref_weights(model):
    """(base, grid, w_base, Ws) from the reference pack of model's edges."""
    n = model.n_nodes
    theta, base, grid = ref_pack(model.edges, model.mask)
    K = grid.basis_count
    nn = n * n
    w_base, w_spline = theta[:nn].reshape(n, n), theta[nn : 2 * nn].reshape(n, n)
    Ws = (w_spline[:, :, None] * theta[2 * nn :].reshape(n, n, K)).reshape(n, -1)
    return base, grid, w_base, Ws


def ref_span(mask):
    """The smallest contiguous range of columns with a True entry, or an empty slice."""
    used = np.flatnonzero(mask.any(axis=0))
    return slice(int(used[0]), int(used[-1]) + 1) if len(used) else slice(0, 0)


def ref_stepper(model):
    """One product F @ W.T over the map's source span s, from the reference
    pack and features: F = [b(x) | B(x)] of the state's span entries x and W
    = [w_base[:, s] | Ws of s's columns]."""
    base, grid, Wb, Ws = ref_weights(model)
    n, s = model.n_nodes, ref_span(model.mask)
    W = np.hstack([Wb[:, s], Ws.reshape(n, n, -1)[:, s].reshape(n, -1)])

    def step(state):
        x = state[None, s]
        F = np.hstack([ref_base(base, x), ref_basis_tensor(grid, x)])
        return np.asarray(apply_bounding(model.bounding, (F @ W.T)[0]))

    return step


# fixed before any run: the two layouts add the same nonzero products in
# another order, which for N <= 32 terms of magnitude below 10 moves a sum
# by far less than this
TWO_BLOCK_ATOL = 1e-12


def ref_two_block_pre(model, states):
    """Pre-activations in the two-block layout: base is [silu(states), states],
    (T, 2N), and Wb (N, 2N) holds w_base in the block of the model's base
    kind and zeros in the other."""
    base, grid, w_base, Ws = ref_weights(model)
    n = model.n_nodes
    kind_mask = np.zeros((n, len(BASE_KINDS), n))
    kind_mask[:, BASE_KINDS.index(base)] = model.mask
    Wb = (w_base[:, None, :] * kind_mask).reshape(n, -1)
    blocks = np.concatenate([ref_base(kind, states) for kind in BASE_KINDS], axis=1)
    return blocks @ Wb.T + ref_basis_tensor(grid, states) @ Ws.T


# ---------------------------------------------------------------- basis


@st.composite
def grids_and_points(draw):
    """A grid (some with a domain endpoint at 0.0) and points inside, outside,
    on every knot, on both endpoints, at +-0.0, +-inf and NaN."""
    lo = draw(st.one_of(st.just(0.0), st.floats(-3.0, 1.0)))
    hi = draw(st.one_of(st.just(0.0), st.just(lo + 1.0), st.floats(lo + 0.1, lo + 4.0)))
    hi = hi if hi > lo else lo + 0.5
    grid = make_uniform_grid(lo, hi, draw(st.integers(1, 19)), draw(st.integers(0, 5)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    width = hi - lo
    xs = np.concatenate(
        [
            rng.uniform(lo, hi, draw(st.integers(0, 40))),
            rng.uniform(lo - width, lo, 3),
            rng.uniform(hi, hi + width, 3),
            grid.knots,
            [lo, hi, 0.0, -0.0, np.inf, -np.inf, np.nan],
        ]
    )
    return grid, rng.permutation(xs)


@SETTINGS
@given(grids_and_points())
def test_basis_matrix_bits(case):
    grid, xs = case
    assert same_bits(basis_matrix(grid, xs), ref_basis_matrix(grid, xs))


@SETTINGS
@given(grids_and_points())
def test_basis_derivative_matrix_bits(case):
    grid, xs = case
    if grid.degree == 0:
        return
    assert same_bits(basis_derivative_matrix(grid, xs), ref_basis_derivative_matrix(grid, xs))


@pytest.mark.parametrize("p", [0, 3, 5])
@pytest.mark.parametrize("n", [0, 1, 2048, 2049, 5000])
def test_basis_bits_around_window_cache_limit(n, p):
    # scatter windows of up to 5000 * 6 entries, each call building its own
    grid = make_uniform_grid(-1.0, 1.0, 7, p)
    xs = np.random.default_rng(n + p).uniform(-1.2, 1.2, n)
    assert same_bits(basis_matrix(grid, xs), ref_basis_matrix(grid, xs))
    assert same_bits(basis_matrix(grid, xs), ref_basis_matrix(grid, xs))  # a second call, same bits
    if p:
        assert same_bits(basis_derivative_matrix(grid, xs), ref_basis_derivative_matrix(grid, xs))


def test_scalar_and_list_inputs():
    grid = make_uniform_grid(-1.0, 1.0, 5, 3)
    for xs in (0.3, [0.3], [-1.0, 1.0], np.float64(-2.0)):
        assert same_bits(basis_matrix(grid, xs), ref_basis_matrix(grid, xs))
        assert same_bits(basis_derivative_matrix(grid, xs), ref_basis_derivative_matrix(grid, xs))


@pytest.mark.parametrize(
    "shape",
    [(1, 1), (1, 32), (1, 1024), (2, 1024), (400, 32), (1500, 3), (3, 1000), (0, 4)]
    # T*N at BASIS_BLOCK_POINTS and one past it, N past it, T not a multiple of the rows per block
    + [(32, 32), (41, 25), (1, 1025), (2, 1500), (7, 300), (100, 30)],
)
def test_basis_tensor_bits(shape):
    # rows are filled in blocks of max(1, BASIS_BLOCK_POINTS // N) rows, each
    # straight into its rows of B: one block for T*N up to BASIS_BLOCK_POINTS
    # (and for empty states), a last shorter block when T is not a multiple
    grid = make_uniform_grid(-1.0, 1.0, 8, 3)
    states = np.random.default_rng(sum(shape)).uniform(-1.1, 1.1, shape)
    ref = ref_basis_tensor(grid, states)
    assert same_bits(basis_tensor(grid, states), ref)


def test_basis_tensor_nan_in_a_later_block():
    grid = make_uniform_grid(-1.0, 1.0, 8, 3)
    states = np.random.default_rng(3).uniform(-1.1, 1.1, (100, 30))
    states[77, 4] = np.nan
    assert same_bits(basis_tensor(grid, states), ref_basis_tensor(grid, states))


def _traced_peak(run) -> int:
    """The peak of memory traced while run() runs, after a first untraced
    call warms every cache."""
    run()
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("span", [slice(0, 32), slice(1, 31)], ids=["all-nodes", "inner"])
def test_features_hold_the_basis_tensor_once(span):
    """At dense_map's shape (400 states, N = 32, G = 8, p = 3, so K = 11)
    features writes the base and the basis tensor into F a block of rows at
    a time, so its peak is F plus one block: the block's basis work
    (basis_tensor of one block of rows: the evaluator and a block of
    output, the size of the scratch features fills), the base of one block
    into a block of F's base columns, and a kilobyte for the call's Python
    objects. It is never F plus a second tensor or the base's temporaries
    over every state, and twice the states leave the peak beyond F as it
    is, to that kilobyte. F is the base beside ref_basis_tensor, bit for bit."""
    n, T = 32, 400
    model = new_kafcm(n, make_uniform_grid(-1.0, 1.0, 8, 3), bounding="tanh", seed=67)
    states = np.random.default_rng(68).uniform(-1.1, 1.1, (2 * T, n))
    x = states[:T, span]
    S, K = x.shape[1], model.K
    F = model.features(states[:T], span)
    assert same_bits(F, np.hstack([ref_silu(x), ref_basis_tensor(model.grid, x)]))
    block = x[: BASIS_BLOCK_POINTS // S]
    block_peak = _traced_peak(lambda: basis_tensor(model.grid, block))
    base_out = np.empty((len(block), S * (1 + K)))[:, :S]
    base_peak = _traced_peak(lambda: silu(block, base_out))
    beyond = [_traced_peak(lambda: model.features(states[:rows], span)) - rows * F.nbytes // T for rows in (T, 2 * T)]
    assert beyond[0] <= block_peak + base_peak + 1024, (beyond[0], block_peak, base_peak)
    assert abs(beyond[1] - beyond[0]) <= 1024, beyond


# ---------------------------------------------------------------- silu

SPECIAL = [0.0, -0.0, 1e3, -1e3, 710.0, -710.0, 36.0, -36.0, 1e-300, -1e-300, 5e-324, -5e-324]
NON_FINITE = [np.inf, -np.inf, np.nan, -np.nan]


def _warnings_of(f, x):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = f(x)
    return out, sorted(w.category.__name__ for w in caught)


@pytest.mark.parametrize("f, ref", [(silu, ref_silu), (silu_grad, ref_silu_grad)], ids=["silu", "silu_grad"])
def test_silu_bits_and_warnings(f, ref):
    rng = np.random.default_rng(0)
    arrays = [
        np.array(SPECIAL + NON_FINITE),
        rng.normal(0.0, 10.0, 1000),
        rng.normal(0.0, 2.0, (400, 32)),
        np.array(SPECIAL[:3]),
    ]
    for x in arrays + SPECIAL + NON_FINITE:
        got, got_warnings = _warnings_of(f, x)
        want, want_warnings = _warnings_of(ref, x)
        assert same_bits(got, want), x
        assert type(got) is type(want)
        assert got_warnings == want_warnings, x


def test_silu_no_warning_at_plus_inf_or_huge_magnitudes():
    # np.where evaluates both branches, but e = exp(-|x|) <= 1 cannot overflow
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert silu(np.inf) == np.inf
        assert same_bits(silu(np.array([np.inf, 1e308, -1e308, 0.0])), ref_silu(np.array([np.inf, 1e308, -1e308, 0.0])))
        assert same_bits(silu_grad(np.array([1e308, -1e308])), ref_silu_grad(np.array([1e308, -1e308])))


# ---------------------------------------------------------------- bounding


def ref_smooth_clip(x):
    """The three-exp form of the numerically stable logistic."""
    z = 8.0 * (np.asarray(x, dtype=float) - 0.5)
    return np.where(z >= 0, 1.0 / (1.0 + np.exp(-np.abs(z))), np.exp(-np.abs(z)) / (1.0 + np.exp(-np.abs(z))))


def test_smooth_clip_bits():
    rng = np.random.default_rng(3)
    arrays = [
        np.array(SPECIAL + NON_FINITE + [0.5, 100.6, -100.6, 1e5, -1e5]),
        rng.normal(0.5, 2.0, 1000),
        rng.normal(0.0, 200.0, (40, 8)),
    ]
    for x in arrays + SPECIAL + NON_FINITE:
        want = ref_smooth_clip(x)
        assert same_bits(apply_bounding("smooth_clip", x), want), x
        out = np.empty(np.shape(x))
        assert apply_bounding("smooth_clip", x, out=out) is out
        assert same_bits(out, want), x


# ---------------------------------------------------------------- pack


def _random_model(n, mask, seed, bounding="smooth_clip", base="silu"):
    grid = make_uniform_grid(-1.0, 1.0, 6, 3)
    model = new_kafcm(n, grid, mask=mask, bounding=bounding, base=base, seed=seed)
    rng = np.random.default_rng(seed)
    for _, _, e in model.present_edges():
        e.w_base, e.w_spline = rng.normal(), rng.normal()
    return model


def _random_edges(n, mask, seed, base):
    """EdgeFunction objects with one base kind, independent of any model:
    random at present edges, zeros on the same grid at absent ones."""
    grid = make_uniform_grid(-1.0, 1.0, 6, 3)
    rng = np.random.default_rng(seed)
    edges = [[EdgeFunction(0.0, 0.0, np.zeros(grid.basis_count), grid, base) for _ in range(n)] for _ in range(n)]
    for i, j in zip(*np.nonzero(mask)):
        alpha = rng.uniform(-0.1, 0.1, grid.basis_count)
        edges[i][j] = EdgeFunction(rng.normal(), rng.normal(), alpha, grid, base=base)
    return edges


def _pack_cases():
    rng = np.random.default_rng(3)
    n = 7
    masked = rng.random((n, n)) < 0.6
    yield "masked-identity", (_random_edges(n, masked, 1, "identity"), masked)
    dense = np.ones((n, n), dtype=bool)
    yield "dense-silu", (_random_edges(n, dense, 2, "silu"), dense)
    none = np.zeros((n, n), dtype=bool)
    yield "no-edge", (_random_edges(n, none, 3, "silu"), none)
    one = np.zeros((n, n), dtype=bool)
    one[4, 2] = True
    yield "one-edge", (_random_edges(n, one, 4, "identity"), one)
    yield "one-node", (_random_edges(1, np.ones((1, 1), dtype=bool), 5, "silu"), np.ones((1, 1), dtype=bool))


@pytest.mark.parametrize("name, case", list(_pack_cases()), ids=lambda v: v if isinstance(v, str) else "")
def test_pack_bits(name, case):
    """Edge objects copied into a model through its edge views, one
    attribute triple per edge, pack theta as the per-(i, j) walk does."""
    edges, mask = case
    theta, base, grid = ref_pack(edges, mask)
    model = KAFCMModel(len(mask), grid, mask, base=base)
    for i, j, e in model.present_edges():
        f = edges[i][j]
        e.w_base, e.w_spline, e.alpha = f.w_base, f.w_spline, f.alpha
    assert same_bits(model.theta, theta)


@pytest.mark.parametrize("base", BASE_KINDS)
def test_new_kafcm_matches_per_edge_init(base):
    seed = 17
    grid = make_uniform_grid(-1.0, 1.0, 5, 2)
    masks = np.random.default_rng(3).random((6, 6)) < 0.6, np.zeros((6, 6), dtype=bool), np.ones((1, 1), dtype=bool)
    for mask in masks:  # masked, edgeless, one node
        n = len(mask)
        seeds = np.random.SeedSequence(seed).generate_state(n * n)
        edges = [[init_edge(grid, base=base, rng_seed=int(seeds[i * n + j])) for j in range(n)] for i in range(n)]
        model = new_kafcm(n, grid, mask=mask, base=base, seed=seed)
        theta, ref_base_kind, _ = ref_pack(edges, mask)
        assert same_bits(model.theta, theta)
        assert model.base == ref_base_kind == base


def test_edge_view_round_trip():
    """Edge views read floats and an alpha that lies in theta."""
    mask = np.random.default_rng(7).random((5, 5)) < 0.7
    model = _random_model(5, mask, 7, base="identity")
    for i, j, e in model.present_edges():
        assert type(e.w_base) is float and type(e.w_spline) is float
        assert np.shares_memory(e.alpha, model.theta)


def test_present_edges_order_and_types():
    mask = np.random.default_rng(9).random((6, 6)) < 0.5
    model = new_kafcm(6, make_uniform_grid(-1.0, 1.0, 3, 1), mask=mask)
    got = [(i, j, e.i, e.j) for i, j, e in model.present_edges()]
    assert got == [(i, j, i, j) for i in range(6) for j in range(6) if mask[i, j]]
    assert all(type(i) is int and type(j) is int for i, j, _, _ in got)


# ---------------------------------------------------------------- simulate


@pytest.mark.parametrize(
    "model",
    [
        new_kafcm(32, make_uniform_grid(-1.0, 1.0, 10, 3), mask=np.ones((32, 32), dtype=bool), bounding="tanh", seed=11),
        _random_model(12, np.random.default_rng(12).random((12, 12)) < 0.7, 12, "smooth_clip", "identity"),
    ],
    ids=["dense-tanh-N32", "identity-smooth_clip-N12"],
)
def test_simulate_rollout_bits(model):
    c0 = np.random.default_rng(13).uniform(-1.0, 1.0, model.n_nodes)
    step = ref_stepper(model)
    ref = [c0]
    for _ in range(200):
        ref.append(step(ref[-1]))
    assert same_bits(simulate(model, c0, 200).states, np.array(ref))


def _holding_maps():
    """Maps under which every state holds: a KA-FCM whose only edges are
    self-loops with w_base 1 and w_spline 0, on the identity base and
    bounding, and the standard FCM of the identity matrix."""
    model = KAFCMModel(3, make_uniform_grid(-1.0, 1.0, 4, 3), np.eye(3, dtype=bool), "identity", "identity")
    model.w_base[np.eye(3, dtype=bool)] = 1.0
    return {"kafcm": model, "standard": StandardFCM(np.eye(3), "identity")}


@pytest.mark.parametrize("kind", ["kafcm", "standard"])
def test_simulate_runs_on_when_only_the_product_overflows(kind):
    """simulate tests a step's row with one product, row . row; a finite row
    whose product overflows (|x| > 1e154) is scanned, found finite, and the
    rollout goes on, with no error and no warning."""
    model = _holding_maps()[kind]
    c0 = np.array([1e160, -1e160, 3.0])
    assert np.vdot(c0, c0) == np.inf
    states = simulate(model, c0, 5).states
    assert same_bits(states, np.tile(c0, (6, 1)))


@functools.cache
def _settling_maps():
    """A dense N = 32 tanh KA-FCM trained as the dense_map benchmark trains
    it (G = 8, p = 3, 10 Adam epochs at 0.01, seed 7), a saturating standard
    FCM, and eight initial states."""
    n, seed = 32, 7
    rng = np.random.default_rng(seed)
    a, c = rng.normal(0.0, 1.0 / math.sqrt(n), (2, n, n))
    x = rng.uniform(-1.0, 1.0, (400, n))
    data = Dataset(x, np.tanh(x @ a.T + np.sin(np.pi * x) @ c.T))
    model = new_kafcm(n, make_uniform_grid(-1.0, 1.0, 8, 3), mask=np.ones((n, n), dtype=bool), bounding="tanh", seed=seed)
    model, _ = train_gd(model, data, TrainConfig(learning_rate=0.01, epochs=10, seed=seed))
    standard = StandardFCM(20.0 * np.eye(n) + rng.normal(0.0, 1.0, (n, n)), "tanh")
    return {"kafcm-dense-N32": model, "standard-saturating-N32": standard}, rng.uniform(-1.0, 1.0, (8, n))


@pytest.mark.parametrize("name", ["kafcm-dense-N32", "standard-saturating-N32"])
def test_settled_traffic_stays_settled(name):
    """Once a step repeats its state bit for bit, every later step does:
    a step reads only the values of its row, not where the row lives."""
    maps, c0s = _settling_maps()
    for c0 in c0s:
        bits = simulate(maps[name], c0, 50).states.view(np.uint64)
        repeats = (bits[1:] == bits[:-1]).all(axis=1)
        assert repeats.any()
        t = int(np.argmax(repeats))
        assert (bits[t + 1 :] == bits[t]).all()


def ref_rollout(model, c0, T):
    """ref_stepper iterated T times; None if a state goes non-finite."""
    step, states = ref_stepper(model), [np.asarray(c0, dtype=float)]
    with np.errstate(all="ignore"):
        for _ in range(T):
            states.append(step(states[-1]))
    states = np.array(states)
    return states if np.isfinite(states).all() else None


@st.composite
def maps_and_states(draw):
    """A map with random size, grid, mask, base kind, bounding and weights
    (the no-edge map built directly among them), and an initial state of points
    inside and outside the domain, on knots and at +-0.0."""
    n = draw(st.integers(1, 12))
    lo = draw(st.one_of(st.just(0.0), st.floats(-2.0, 1.0)))
    grid = make_uniform_grid(lo, lo + draw(st.floats(0.25, 3.0)), draw(st.integers(1, 19)), draw(st.integers(0, 5)))
    bounding = draw(st.sampled_from(BOUNDING_KINDS))
    base = draw(st.sampled_from(BASE_KINDS))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mask = rng.random((n, n)) < draw(st.sampled_from([0.0, 0.3, 0.7, 1.0]))
    if not mask.any() and draw(st.booleans()):
        model = KAFCMModel(n, grid, mask, bounding, base)
    else:
        model = new_kafcm(n, grid, mask=mask, bounding=bounding, base=base, seed=int(rng.integers(2**31)))
        for _, _, e in model.present_edges():
            e.w_base, e.w_spline = rng.normal(0.0, 0.6, 2).tolist()
            e.alpha = rng.normal(0.0, 0.6, grid.basis_count)
    width = grid.domain_hi - grid.domain_lo
    points = np.concatenate(
        [
            grid.knots,
            [0.0, -0.0],
            rng.uniform(grid.domain_lo, grid.domain_hi, 4),
            grid.domain_lo - width * rng.uniform(0.0, 2.0, 2),
            grid.domain_hi + width * rng.uniform(0.0, 2.0, 2),
        ]
    )
    return model, rng.choice(points, n)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(maps_and_states(), st.integers(1, 6))
def test_simulate_bits_property(case, T):
    """simulate equals the reference stepper bit for bit, or raises where it
    goes non-finite."""
    model, c0 = case
    ref = ref_rollout(model, c0, T)
    if ref is None:
        with np.errstate(all="ignore"), pytest.raises(DivergenceError):
            simulate(model, c0, T)
    else:
        assert same_bits(simulate(model, c0, T).states, ref)
        assert same_bits(kafcm_step(model, c0), ref[1])


def _step_buffers(step, model):
    """Every array a stepper of model keeps between calls: the arrays in the
    step function's closure, in tuples and lists there, and in the basis
    routine's bound work arrays (a partial's arguments, an object with
    __slots__). Asserts that they include the feature row over the map's S
    source nodes, its base and basis views, the pre-activation row and the
    basis routine's powers, scatter indices and values, so that a check over
    them is not vacuous."""
    arrays = []

    def collect(value):
        if isinstance(value, np.ndarray):
            arrays.append(value)
        elif isinstance(value, (tuple, list)):
            for item in value:
                collect(item)
        elif isinstance(value, functools.partial):
            collect(value.args)
        elif hasattr(type(value), "__slots__") and not isinstance(value, str):
            for name in type(value).__slots__:
                collect(getattr(value, name, None))

    for cell in step.__closure__:
        collect(cell.cell_contents)
    span = ref_span(model.mask)
    n, S, K, q = model.n_nodes, span.stop - span.start, model.K, model.grid.degree + 1
    shapes = [(a.shape, a.dtype) for a in arrays]
    for shape in ((1, S * (1 + K)), (S,), (S, K), (1, n), (n,)):
        assert (shape, np.dtype(float)) in shapes
    assert ((S, q), np.dtype(float)) in shapes and ((S, q), np.dtype(np.intp)) in shapes
    return arrays


@pytest.mark.parametrize("bounding", BOUNDING_KINDS)
def test_results_never_share_the_step_buffers(bounding, monkeypatch):
    # identity bounding is the risky case: apply_bounding returns its input
    base = BASE_KINDS[BOUNDING_KINDS.index(bounding) % len(BASE_KINDS)]
    model = _random_model(6, np.random.default_rng(21).random((6, 6)) < 0.7, 21, bounding, base)
    c0, c1 = np.random.default_rng(22).uniform(-1.0, 1.0, (2, 6))
    steppers = []
    stepper = KAFCMModel.stepper
    monkeypatch.setattr(KAFCMModel, "stepper", lambda self: steppers.append(stepper(self)) or steppers[-1])
    first = simulate(model, c0, 4).states
    kept = first.copy()
    second = simulate(model, c1, 4).states
    a = kafcm_step(model, c0)
    a_kept = a.copy()
    b = kafcm_step(model, c1)
    assert len(steppers) == 4
    buffers = [buf for step in steppers for buf in _step_buffers(step, model)]
    assert len(buffers) >= 4 * 20
    for result in (first, second, a, b):
        assert not any(np.shares_memory(result, buf) for buf in buffers)
    assert not np.shares_memory(first, second) and not np.shares_memory(a, b)
    assert same_bits(first, kept) and same_bits(a, a_kept)
    step = steppers[-1]
    out = np.empty(6)
    assert step(c0, out) is out and same_bits(out, a)
    assert step(out, out) is out and same_bits(out, first[2])  # out may be the state itself


def test_interleaved_steppers_match_separate_runs():
    model = _random_model(7, np.random.default_rng(31).random((7, 7)) < 0.6, 31, "tanh", "identity")
    c0, c1 = np.random.default_rng(32).uniform(-1.2, 1.2, (2, 7))
    s0, s1 = model.stepper(), model.stepper()
    rows0, rows1 = [c0], [c1]
    for _ in range(12):
        rows0.append(s0(rows0[-1]))
        rows1.append(s1(rows1[-1]))
    assert same_bits(np.array(rows0), simulate(model, c0, 12).states)
    assert same_bits(np.array(rows1), simulate(model, c1, 12).states)


def _line_peaks(run):
    """{(file, line): the largest rise of traced memory above its level at the
    line's start} over every line that run, or a Python function it calls,
    executes (a line's span ends at the next line, call or return event)."""
    peaks, last = {}, [None, 0]

    def trace(frame, event, arg):
        peak = tracemalloc.get_traced_memory()[1]
        if last[0] is not None:
            peaks[last[0]] = max(peaks.get(last[0], 0), peak - last[1])
        where = frame.f_back if event == "return" and frame.f_back is not None else frame
        last[0] = (where.f_code.co_filename, where.f_lineno)
        last[1] = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        return trace

    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    before = sys.gettrace()
    sys.settrace(trace)
    try:
        run()
    finally:
        sys.settrace(before)
        if started:
            tracemalloc.stop()
    return peaks


@pytest.mark.parametrize("bounding", BOUNDING_KINDS)
def test_steps_allocate_no_array_of_n_floats(bounding):
    """After the first step, 1000 steps of an N = 32 stepper allocate no
    array of N or more floats. NumPy's call machinery takes a few hundred
    bytes a call whatever N is, so each line's peak is compared with the same
    line's at N = 64: none may grow by 8 bytes a node, an array of N floats,
    but the span search's. Its index array (searchsorted takes no out) has N
    entries, which shows that the measure sees an allocation of that size."""
    peaks = {}
    for n in (32, 64):
        base = BASE_KINDS[BOUNDING_KINDS.index(bounding) % len(BASE_KINDS)]
        model = _random_model(n, np.ones((n, n), dtype=bool), 61, bounding, base)
        step = model.stepper()
        state, out = np.random.default_rng(62).uniform(-1.0, 1.0, n), np.empty(n)
        step(state, out)

        def steps():
            for _ in range(1000):
                step(state, out)

        peaks[n] = _line_peaks(steps)
    assert peaks[32].keys() == peaks[64].keys()
    grown = {where for where, peak in peaks[32].items() if peaks[64][where] - peak >= 8 * 32}
    lines = [linecache.getline(*where).strip() for where in grown]
    assert len(lines) == 1 and ".searchsorted(" in lines[0], lines


@pytest.mark.parametrize("lam", [0.0, 0.01])
def test_epochs_allocate_no_array_of_n_floats(lam):
    """After the first, 5 epochs of a KA-FCM fit's forward and backward (with
    and without the L1 term) allocate no array that grows with N: as in
    test_steps_allocate_no_array_of_n_floats, no line's peak may grow by 8
    bytes a node from N = 32 to N = 64. Two output rows of K = 9 keep the
    (2, N, K) products below NumPy's ufunc buffer size, so a buffered
    broadcast operand would grow with N too."""
    peaks = {}
    for n in (32, 64):
        model = _random_model(n, np.ones((n, n), dtype=bool), 63, "tanh", "silu")
        x = np.random.default_rng(64).uniform(-1.0, 1.0, (50, n))
        ws = _Workspace(model, Dataset(x[:, :-2], x[:, -2:]), lam)
        ws.loss_and_grads()

        def epochs():
            for _ in range(5):
                ws.loss_and_grads()

        peaks[n] = _line_peaks(epochs)
    assert peaks[32].keys() == peaks[64].keys()
    grown = {where for where, peak in peaks[32].items() if peaks[64][where] - peak >= 8 * 32}
    assert not grown, [linecache.getline(*where).strip() for where in grown]


def test_mlp_epochs_allocate_no_array_that_grows_with_the_batch():
    """After the first, 5 MLP epochs with their descent steps allocate no
    array that grows with the batch: from (T, n_in) = (100, 2) to (200, 4),
    where an array of T floats grows by 800 bytes and theta by 1024, no
    line's peak may grow by 8 bytes a hidden unit. X is a column slice,
    which the workspace must store contiguous once (np.dot would copy it
    every epoch). Both batches hold fewer than 8192 hidden values, NumPy's
    ufunc buffer size, so a buffered operand grows with T too: the two
    hidden bias adds (a broadcast b) and the two ReLU masks (a bool cast to
    float) take such a buffer, capped at that size. Filling a (T, 64) float
    operand in their place costs one more pass over it, which measured
    slower at T = 958, so they stay, and are the only lines that grow."""
    peaks = {}
    for T, n_in in ((100, 2), (200, 4)):
        x = np.random.default_rng(65).uniform(-1.0, 1.0, (T, n_in + 1))
        ws = baselines._Workspace(baselines.mlp_init(n_in, 1, seed=66), x[:, :-1], x[:, -1:])
        step = baselines._plain_step(ws, 0.05)
        ws.loss_and_grads()
        step(1)

        def epochs():
            for t in range(2, 7):
                ws.loss_and_grads()
                step(t)

        peaks[T] = _line_peaks(epochs)
    assert peaks[100].keys() == peaks[200].keys()
    grown = {where for where, peak in peaks[100].items() if peaks[200][where] - peak >= 8 * HIDDEN_WIDTH}
    lines = sorted(linecache.getline(*where).split("#")[0].strip() for where in grown)
    assert lines == sorted(["H1 += b1", "H2 += b2", *(f"dH{k} *= np.greater(H{k}, 0, out=mask)" for k in (1, 2))]), lines
    assert all(peaks[200][where] <= 8 * np.getbufsize() + 4096 for where in grown)


def test_in_place_edits_reach_the_next_simulate():
    model = _random_model(6, np.random.default_rng(41).random((6, 6)) < 0.7, 41, "smooth_clip", "silu")
    c0 = np.random.default_rng(42).uniform(-1.0, 1.0, 6)
    before = simulate(model, c0, 5).states
    model.theta *= 1.5
    scaled = simulate(model, c0, 5).states
    assert not np.array_equal(scaled, before)
    assert same_bits(scaled, ref_rollout(model, c0, 5))
    i, j = np.argwhere(model.mask)[0]
    model.mask[i, j] = False
    masked = simulate(model, c0, 5).states
    assert not np.array_equal(masked[1, i], scaled[1, i])
    assert same_bits(masked, ref_rollout(model, c0, 5))


@pytest.mark.parametrize("base", BASE_KINDS)
@pytest.mark.parametrize("n", [1, 2, 5, 12, 32])
def test_single_block_forward_matches_two_block_forward(n, base):
    """A step, a rollout and predict_one_step agree with the two-block
    layout to TWO_BLOCK_ATOL; the single-block references above pin the bits."""
    mask = np.random.default_rng(n).random((n, n)) < 0.8
    model = _random_model(n, mask, 50 + n, "tanh", base)
    states = np.random.default_rng(51 + n).uniform(-1.3, 1.3, (40, n))
    want = np.tanh(ref_two_block_pre(model, states))
    got = np.array([kafcm_step(model, s) for s in states])
    np.testing.assert_allclose(got, want, rtol=0, atol=TWO_BLOCK_ATOL)
    got = predict_one_step(model, Dataset(states, np.zeros((40, n))))
    np.testing.assert_allclose(got, want, rtol=0, atol=TWO_BLOCK_ATOL)
    rollout = simulate(model, states[0], 30).states
    want = np.tanh(ref_two_block_pre(model, rollout[:-1]))
    np.testing.assert_allclose(rollout[1:], want, rtol=0, atol=TWO_BLOCK_ATOL)
