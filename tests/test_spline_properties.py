"""Property tests of the dense basis evaluators over random uniform grids.

Each example draws a domain, a grid size G in 1..19 and a degree p in 0..5,
then evaluates points drawn uniformly from the domain together with every knot
(interior knots, and the extension knots that clamp to the endpoints) and both
domain endpoints. `basis_value`, the scalar Cox-de Boor recursion, is the
reference; it is half-open, so it is compared on [lo, hi) only.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kafcm.spline_core import basis_derivative_matrix, basis_matrix, basis_value, make_uniform_grid

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)


@st.composite
def grids(draw, min_degree=0):
    lo = draw(st.floats(-3.0, 3.0))
    hi = lo + draw(st.floats(0.5, 5.0))
    return make_uniform_grid(lo, hi, draw(st.integers(1, 19)), draw(st.integers(min_degree, 5)))


@st.composite
def grids_and_points(draw):
    grid = draw(grids())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    inside = rng.uniform(grid.domain_lo, grid.domain_hi, 16)
    xs = np.concatenate([inside, grid.knots, [grid.domain_lo, grid.domain_hi]])
    return grid, xs


@SETTINGS
@given(grids_and_points())
def test_partition_of_unity(case):
    grid, xs = case
    np.testing.assert_allclose(basis_matrix(grid, xs).sum(axis=1), 1.0, rtol=0, atol=1e-12)


@SETTINGS
@given(grids_and_points())
def test_nonnegative_with_local_support(case):
    grid, xs = case
    b = basis_matrix(grid, xs)
    assert b.shape == (len(xs), grid.basis_count)
    assert (b >= 0.0).all()
    assert (np.count_nonzero(b, axis=1) <= grid.degree + 1).all()


@SETTINGS
@given(grids_and_points())
def test_matches_scalar_recursion_on_half_open_domain(case):
    grid, xs = case
    xs = xs[(xs >= grid.domain_lo) & (xs < grid.domain_hi)]
    p = grid.degree
    ref = np.array([[basis_value(grid, k, p, x) for k in range(grid.basis_count)] for x in xs])
    np.testing.assert_allclose(basis_matrix(grid, xs), ref, rtol=0, atol=1e-13)


@SETTINGS
@given(grids(min_degree=1), st.integers(0, 2**32 - 1))
def test_derivative_matches_central_differences(grid, seed):
    h = grid.spacing
    xs = np.random.default_rng(seed).uniform(grid.domain_lo, grid.domain_hi, 64)
    # away from knots, where a degree-1 or degree-2 basis has a kink
    xs = xs[np.abs(xs[:, None] - grid.knots).min(axis=1) > 1e-3 * h]
    step = 1e-6 * h
    fd = (basis_matrix(grid, xs + step) - basis_matrix(grid, xs - step)) / (2 * step)
    # compared in units of the spacing, where every derivative is O(1)
    np.testing.assert_allclose(h * basis_derivative_matrix(grid, xs), h * fd, rtol=0, atol=1e-7)


@pytest.mark.parametrize("p", range(6))
def test_nan_point_gives_nan_row(p):
    grid = make_uniform_grid(-1.0, 1.0, 4, p)
    b = basis_matrix(grid, [0.3, np.nan])
    assert np.isnan(b[1]).all() and np.isfinite(b[0]).all()
    if p:
        d = basis_derivative_matrix(grid, [0.3, np.nan])
        assert np.isnan(d[1]).all() and np.isfinite(d[0]).all()
