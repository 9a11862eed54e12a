"""Property tests of the dense forward and backward against per-edge oracles.

Each example draws a map size, a mask, the map's base kind, a bounding, a
supervision layout and an L1 weight. The oracles evaluate every edge on its
own with `edge_eval`, so they share no code with the dense path beyond the
basis routine.
"""

import copy

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kafcm.cognitive_graph import BOUNDING_KINDS, apply_bounding, new_kafcm, simulate
from kafcm.datagen import Dataset
from kafcm.edge_functions import BASE_KINDS, edge_eval
from kafcm.spline_core import make_uniform_grid
from kafcm.training import model_gradient, predict_one_step, supervision_layout

ROWS = 5


@st.composite
def cases(draw):
    """(model, data, lam) with random structure and normal parameters."""
    n = draw(st.integers(2, 6))
    mask = np.array(draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n))).reshape(n, n)
    base = draw(st.sampled_from(BASE_KINDS))
    bounding = draw(st.sampled_from(BOUNDING_KINDS))
    d_in = draw(st.integers(1, n - 1) | st.just(n))  # d_in == n supervises the full state
    lam = draw(st.sampled_from([0.0, 0.02]))
    grid = make_uniform_grid(-1.0, 1.0, draw(st.integers(1, 5)), draw(st.integers(0, 3)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    model = new_kafcm(n, grid, mask=mask, bounding=bounding, base=base)
    for _, _, e in model.present_edges():
        e.w_base, e.w_spline = rng.normal(0.0, 0.5, 2).tolist()
        e.alpha = rng.normal(0.0, 0.5, grid.basis_count)
    d_out = n if d_in == n else n - d_in
    # inputs reach past the grid domain, where the spline path is clamped
    data = Dataset(rng.uniform(-1.3, 1.3, (ROWS, d_in)), rng.uniform(-1.0, 1.0, (ROWS, d_out)))
    return model, data, lam


def oracle_states(model, data):
    input_idx, _ = supervision_layout(model.n_nodes, data)
    states = np.zeros((len(data), model.n_nodes))
    states[:, input_idx] = data.inputs
    return states


def oracle_predict(model, data):
    """sigma(sum_j edge_eval(edges[i][j], x_j)) on the output nodes."""
    _, output_idx = supervision_layout(model.n_nodes, data)
    states = oracle_states(model, data)
    pre = np.zeros_like(states)
    for i, j, e in model.present_edges():
        pre[:, i] += edge_eval(e, states[:, j])
    return np.asarray(apply_bounding(model.bounding, pre))[:, output_idx]


def oracle_loss(model, data, lam):
    resid = oracle_predict(model, data) - data.targets
    l1 = sum(np.abs(e.alpha).sum() for _, _, e in model.present_edges())
    return float(np.mean(np.sum(resid**2, axis=1))) + lam * l1


def shifted(model, direction, h):
    """A copy of model with every present edge's parameters moved by h * direction."""
    out = copy.deepcopy(model)
    for i, j, e in out.present_edges():
        d_wb, d_ws, d_al = direction[0][i, j], direction[1][i, j], direction[2][i, j]
        e.w_base += h * d_wb
        e.w_spline += h * d_ws
        e.alpha = e.alpha + h * d_al
    return out


def central_difference(model, data, lam, direction, h=1e-6):
    hi = oracle_loss(shifted(model, direction, h), data, lam)
    lo = oracle_loss(shifted(model, direction, -h), data, lam)
    return (hi - lo) / (2 * h)


SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)


@SETTINGS
@given(cases(), st.integers(0, 2**32 - 1))
def test_gradient_matches_finite_differences(case, seed):
    model, data, lam = case
    grad = model_gradient(model, data, lam)
    parts = (grad.d_w_base, grad.d_w_spline, grad.d_alpha)
    for g in parts:
        assert (g[~model.mask] == 0.0).all()
    rng = np.random.default_rng(seed)
    # a random direction over every parameter, then one random coordinate
    direction = [rng.normal(size=g.shape) for g in parts]
    analytic = sum(float((g * d).sum()) for g, d in zip(parts, direction))
    assert analytic == pytest.approx(central_difference(model, data, lam, direction), rel=1e-5, abs=1e-7)
    if model.mask.any():
        coordinate = [np.zeros_like(g) for g in parts]
        part = int(rng.integers(3))
        i, j = np.argwhere(model.mask)[int(rng.integers(model.mask.sum()))]
        index = (i, j, int(rng.integers(parts[2].shape[2]))) if part == 2 else (i, j)
        coordinate[part][index] = 1.0
        fd = central_difference(model, data, lam, coordinate)
        assert parts[part][index] == pytest.approx(fd, rel=1e-5, abs=1e-7)


@SETTINGS
@given(cases())
def test_predict_matches_per_edge_oracle(case):
    model, data, _ = case
    np.testing.assert_allclose(predict_one_step(model, data), oracle_predict(model, data), rtol=0, atol=1e-12)


@SETTINGS
@given(cases())
def test_simulate_step_equals_prediction(case):
    model, data, _ = case
    _, output_idx = supervision_layout(model.n_nodes, data)
    predicted = predict_one_step(model, data)
    for t, state in enumerate(oracle_states(model, data)):
        stepped = simulate(model, state, 1).states[1]
        np.testing.assert_allclose(stepped[output_idx], predicted[t], rtol=0, atol=1e-12)
