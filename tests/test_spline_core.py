"""Knot grids, the local-support dense basis and the scalar Cox-de Boor reference.

basis_matrix and basis_derivative_matrix evaluate only the p+1 bases nonzero
at each point. They and basis_value (the recursion) are each checked here
against scipy's BSpline as an independent oracle; random-grid properties,
including agreement with basis_value, are in test_spline_properties.py.
"""

import numpy as np
import numpy.testing as npt
import pytest
from scipy.interpolate import BSpline

from kafcm.spline_core import (
    basis_derivative_matrix,
    basis_derivative_vector,
    basis_matrix,
    basis_value,
    basis_vector,
    make_uniform_grid,
)


def scipy_basis(grid, k, x):
    """Independent oracle: k-th basis of the grid via scipy's BSpline."""
    c = np.zeros(grid.basis_count)
    c[k] = 1.0
    # extrapolate=False keeps scipy from evaluating beyond the knot span
    return BSpline(grid.knots, c, grid.degree, extrapolate=False)(x)


class TestMakeUniformGrid:
    def test_cubic_example(self):
        g = make_uniform_grid(0, 1, G=4, p=3)
        assert len(g.knots) == 11
        npt.assert_allclose(g.knots, np.arange(-0.75, 1.76, 0.25), atol=1e-15)
        assert g.basis_count == 7

    def test_single_interval_degree_zero(self):
        g = make_uniform_grid(0, 1, G=1, p=0)
        npt.assert_array_equal(g.knots, [0.0, 1.0])
        assert g.basis_count == 1

    def test_invalid_domain(self):
        with pytest.raises(ValueError, match="invalid domain"):
            make_uniform_grid(1, 0, G=4, p=3)
        with pytest.raises(ValueError, match="invalid domain"):
            make_uniform_grid(0.5, 0.5, G=4, p=3)

    def test_zero_grid(self):
        with pytest.raises(ValueError, match="grid size"):
            make_uniform_grid(0, 1, G=0, p=3)

    def test_negative_degree(self):
        with pytest.raises(ValueError, match="degree"):
            make_uniform_grid(0, 1, G=4, p=-1)

    def test_endpoints_exact_and_spacing_uniform(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            lo = rng.uniform(-3, 1)
            hi = lo + rng.uniform(0.1, 4)
            G = int(rng.integers(1, 25))
            p = int(rng.integers(0, 5))
            g = make_uniform_grid(lo, hi, G, p)
            assert g.knots[p] == lo
            assert g.knots[p + G] == hi
            h = (hi - lo) / G
            npt.assert_allclose(np.diff(g.knots), h, rtol=1e-12)
            assert len(g.knots) == G + 2 * p + 1


class TestBasisValue:
    def test_degree_zero_indicator(self):
        g = make_uniform_grid(0, 1, G=2, p=0)  # knots {0, 0.5, 1}
        assert basis_value(g, 0, 0, 0.25) == 1.0
        assert basis_value(g, 0, 0, 0.75) == 0.0
        assert basis_value(g, 1, 0, 0.75) == 1.0
        # half-open: right endpoint of the interval excluded
        assert basis_value(g, 0, 0, 0.5) == 0.0

    def test_degree_one_hand_value(self):
        g = make_uniform_grid(0, 1, G=2, p=0)  # raw knots {0, 0.5, 1}
        # B_{0,1}(0.25) = (x - t0)/(t1 - t0) = 0.5
        assert basis_value(g, 0, 1, 0.25) == pytest.approx(0.5)

    def test_outside_support_is_zero(self):
        g = make_uniform_grid(-1, 1, G=5, p=3)
        t = g.knots
        for k in range(g.basis_count):
            assert basis_value(g, k, 3, t[k + 3 + 1] + 1.0) == 0.0
            assert basis_value(g, k, 3, t[k] - 0.5) == 0.0

    def test_index_out_of_range(self):
        g = make_uniform_grid(0, 1, G=4, p=3)
        with pytest.raises(IndexError, match="out of range"):
            basis_value(g, -1, 3, 0.5)
        with pytest.raises(IndexError, match="out of range"):
            basis_value(g, len(g.knots) - 1 - 3, 3, 0.5)

    def test_matches_scipy_inside_domain(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            G = int(rng.integers(2, 12))
            p = int(rng.integers(1, 4))
            g = make_uniform_grid(-1, 1, G, p)
            xs = rng.uniform(-1, 0.999, 40)
            for k in range(g.basis_count):
                ours = np.array([basis_value(g, k, p, x) for x in xs])
                npt.assert_allclose(ours, scipy_basis(g, k, xs), atol=1e-12)


class TestBasisVector:
    def test_partition_of_unity_random_grids(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            lo = rng.uniform(-2, 0.5)
            hi = lo + rng.uniform(0.2, 3)
            G = int(rng.integers(1, 20))
            p = int(rng.integers(0, 5))
            g = make_uniform_grid(lo, hi, G, p)
            xs = rng.uniform(lo, hi, 1000)
            sums = basis_matrix(g, xs).sum(axis=1)
            npt.assert_allclose(sums, 1.0, atol=1e-9)

    def test_non_negativity_and_local_support(self):
        rng = np.random.default_rng(3)
        g = make_uniform_grid(-1, 1, G=8, p=3)
        xs = rng.uniform(-1, 1, 500)
        b = basis_matrix(g, xs)
        assert (b >= 0).all()
        assert (np.count_nonzero(b, axis=1) <= g.degree + 1).all()

    def test_clamping(self):
        g = make_uniform_grid(-1, 1, G=6, p=3)
        npt.assert_array_equal(basis_vector(g, -1.0), basis_vector(g, -11.0))
        npt.assert_array_equal(basis_vector(g, 1.0), basis_vector(g, 99.0))

    def test_right_endpoint_left_limit(self):
        g = make_uniform_grid(0, 1, G=1, p=0)
        npt.assert_array_equal(basis_vector(g, 0.5), [1.0])
        # left limit: the last basis stays 1 at the right domain end
        npt.assert_array_equal(basis_vector(g, 1.0), [1.0])
        g3 = make_uniform_grid(-1, 1, G=5, p=3)
        npt.assert_allclose(basis_vector(g3, 1.0), basis_vector(g3, 1.0 - 1e-12), atol=1e-9)

    def test_continuity(self):
        rng = np.random.default_rng(9)
        g = make_uniform_grid(-1, 1, G=10, p=2)
        xs = rng.uniform(-1, 1 - 1e-6, 1000)
        d = 1e-8
        jump = np.abs(basis_matrix(g, xs + d) - basis_matrix(g, xs))
        assert jump.max() <= 100 * d

    def test_matches_scipy_vectorized(self):
        rng = np.random.default_rng(5)
        for p in (1, 2, 3):
            g = make_uniform_grid(-1.5, 2.0, G=9, p=p)
            xs = rng.uniform(-1.5, 1.999, 200)
            ref = np.stack([scipy_basis(g, k, xs) for k in range(g.basis_count)], axis=1)
            npt.assert_allclose(basis_matrix(g, xs), ref, atol=1e-12)


class TestBasisDerivative:
    def test_degree_zero_error(self):
        g = make_uniform_grid(0, 1, G=3, p=0)
        with pytest.raises(ValueError, match="degree-zero"):
            basis_derivative_vector(g, 0.5)

    def test_hat_slope(self):
        g = make_uniform_grid(0, 1, G=2, p=1)  # hats over {-0.5, 0, 0.5, 1, 1.5}
        d = basis_derivative_vector(g, 0.25)
        # the hat rising on [0, 0.5] has slope 1/0.5 = 2
        assert d[1] == pytest.approx(2.0)

    def test_sums_to_zero(self):
        rng = np.random.default_rng(11)
        g = make_uniform_grid(-1, 1, G=7, p=3)
        xs = rng.uniform(-1, 1, 400)
        npt.assert_allclose(basis_derivative_matrix(g, xs).sum(axis=1), 0.0, atol=1e-9)

    def test_finite_difference_agreement(self):
        rng = np.random.default_rng(13)
        for p in (1, 2, 3):
            g = make_uniform_grid(-1, 1, G=6, p=p)
            xs = rng.uniform(-0.99, 0.99, 300)
            # keep points away from knots where one-sided slopes differ
            dist = np.abs(xs[:, None] - g.knots[None, :]).min(axis=1)
            xs = xs[dist > 1e-3]
            h = 1e-6
            fd = (basis_matrix(g, xs + h) - basis_matrix(g, xs - h)) / (2 * h)
            an = basis_derivative_matrix(g, xs)
            npt.assert_allclose(an, fd, rtol=1e-5, atol=1e-5)

    def test_matches_scipy_derivative(self):
        rng = np.random.default_rng(17)
        g = make_uniform_grid(-1, 1, G=8, p=3)
        xs = rng.uniform(-0.999, 0.999, 100)
        for k in range(g.basis_count):
            c = np.zeros(g.basis_count)
            c[k] = 1.0
            ref = BSpline(g.knots, c, 3, extrapolate=False).derivative()(xs)
            npt.assert_allclose(basis_derivative_matrix(g, xs)[:, k], ref, atol=1e-10)

    def test_boundary_one_sided_limit(self):
        g = make_uniform_grid(-1, 1, G=5, p=3)
        npt.assert_allclose(
            basis_derivative_vector(g, 1.0),
            basis_derivative_vector(g, 1.0 - 1e-9),
            atol=1e-6,
        )
