"""SiLU base, edge evaluation, and analytic edge gradients."""

import numpy as np
import numpy.testing as npt
import pytest

from kafcm.edge_functions import (
    EdgeFunction,
    edge_eval,
    edge_grad,
    init_edge,
    silu,
    silu_grad,
)
from kafcm.spline_core import basis_vector, make_uniform_grid


def ternary_search_min(f, lo, hi, iters=200):
    """Oracle: locate the minimum of a unimodal function on [lo, hi]."""
    for _ in range(iters):
        m1 = lo + (hi - lo) / 3
        m2 = hi - (hi - lo) / 3
        if f(m1) < f(m2):
            hi = m2
        else:
            lo = m1
    return (lo + hi) / 2


class TestSilu:
    def test_zero(self):
        assert silu(0.0) == 0.0

    def test_minimum_location_and_value(self):
        xmin = ternary_search_min(silu, -5.0, 0.0)
        assert xmin == pytest.approx(-1.2785, abs=1e-3)
        assert silu(xmin) == pytest.approx(-0.2785, abs=1e-3)
        # the infimum is strictly above -0.2785
        xs = np.linspace(-60, 60, 200001)
        assert silu(xs).min() > -0.2785

    def test_saturation(self):
        assert silu(20.0) == pytest.approx(20.0, abs=1e-7)
        assert silu(-40.0) == pytest.approx(0.0, abs=1e-12)

    def test_gradient_matches_finite_differences(self):
        xs = np.linspace(-6, 6, 101)
        h = 1e-6
        fd = (silu(xs + h) - silu(xs - h)) / (2 * h)
        npt.assert_allclose(silu_grad(xs), fd, rtol=1e-6, atol=1e-9)

    def test_no_overflow_far_out(self):
        assert np.isfinite(silu(1e3))
        assert np.isfinite(silu(-1e3))


def make_edge(seed=0, G=6, p=3, base="silu", lo=-1.0, hi=1.0):
    grid = make_uniform_grid(lo, hi, G, p)
    rng = np.random.default_rng(seed)
    return EdgeFunction(
        w_base=rng.normal(),
        w_spline=rng.normal(),
        alpha=rng.normal(size=grid.basis_count),
        grid=grid,
        base=base,
    )


class TestEdgeEval:
    def test_zero_alpha_reduces_to_base(self):
        grid = make_uniform_grid(-1, 1, 6, 3)
        e = EdgeFunction(1.0, 1.0, np.zeros(grid.basis_count), grid)
        assert edge_eval(e, 0.7) == pytest.approx(silu(0.7))

    def test_partition_of_unity_alpha_ones(self):
        grid = make_uniform_grid(-1, 1, 6, 3)
        e = EdgeFunction(0.0, 1.0, np.ones(grid.basis_count), grid)
        assert edge_eval(e, 0.33) == pytest.approx(1.0, abs=1e-9)
        e2 = EdgeFunction(0.0, 2.0, np.ones(grid.basis_count), grid)
        assert edge_eval(e2, -0.5) == pytest.approx(2.0, abs=1e-9)

    def test_linearity_in_parameters(self):
        rng = np.random.default_rng(21)
        e = make_edge(21)
        for _ in range(20):
            x = rng.uniform(-1.5, 1.5)
            c = rng.uniform(0.2, 3.0)
            scaled = EdgeFunction(c * e.w_base, c * e.w_spline, e.alpha, e.grid, e.base)
            assert edge_eval(scaled, x) == pytest.approx(c * edge_eval(e, x), rel=1e-12)

    def test_base_path_unclamped_spline_path_clamped(self):
        grid = make_uniform_grid(-1, 1, 4, 3)
        rng = np.random.default_rng(2)
        alpha = rng.normal(size=grid.basis_count)
        e = EdgeFunction(1.5, 0.7, alpha, grid)
        x = 2.5  # beyond the grid domain
        expected = 1.5 * silu(x) + 0.7 * float(basis_vector(grid, 1.0) @ alpha)
        assert edge_eval(e, x) == pytest.approx(expected, rel=1e-12)

    def test_identity_base(self):
        grid = make_uniform_grid(-1, 1, 4, 3)
        e = EdgeFunction(0.8, 0.0, np.zeros(grid.basis_count), grid, base="identity")
        assert edge_eval(e, -0.3) == pytest.approx(-0.24)

    def test_array_input(self):
        e = make_edge(5)
        xs = np.linspace(-1, 1, 7)
        npt.assert_allclose(edge_eval(e, xs), [edge_eval(e, x) for x in xs], rtol=1e-12)

    @pytest.mark.parametrize("shape", [(2, 3), (1, 1)])
    def test_array_input_any_shape(self, shape):
        e = make_edge(6)
        xs = np.random.default_rng(6).uniform(-1.3, 1.3, shape)
        out = edge_eval(e, xs)
        assert out.shape == shape
        npt.assert_allclose(out, np.vectorize(lambda x: edge_eval(e, x))(xs), rtol=1e-12)

    def test_alpha_length_validated(self):
        grid = make_uniform_grid(-1, 1, 4, 3)
        with pytest.raises(ValueError, match="alpha length"):
            EdgeFunction(1.0, 1.0, np.zeros(3), grid)


class TestEdgeGrad:
    def test_zero_upstream(self):
        g = edge_grad(make_edge(1), 0.3, upstream=0.0)
        assert g.d_w_base == 0.0
        assert g.d_w_spline == 0.0
        assert g.d_input == 0.0
        npt.assert_array_equal(g.d_alpha, 0.0)

    def test_d_alpha_reads_off_basis(self):
        grid = make_uniform_grid(-1, 1, 6, 3)
        e = EdgeFunction(1.0, 1.7, np.zeros(grid.basis_count), grid)
        g = edge_grad(e, 0.42, upstream=1.0)
        npt.assert_allclose(g.d_alpha, 1.7 * basis_vector(grid, 0.42), rtol=1e-12)

    def test_gradient_locality(self):
        e = make_edge(8, G=10, p=3)
        g = edge_grad(e, 0.1, upstream=1.0)
        assert np.count_nonzero(g.d_alpha) <= e.grid.degree + 1
        b = basis_vector(e.grid, 0.1)
        npt.assert_array_equal(g.d_alpha[b == 0.0], 0.0)

    def test_finite_difference_agreement(self):
        rng = np.random.default_rng(77)
        h = 1e-6
        checked = 0
        while checked < 100:
            seed = int(rng.integers(1 << 30))
            e = make_edge(seed, G=int(rng.integers(2, 10)), p=int(rng.integers(1, 4)))
            x = float(rng.uniform(-0.98, 0.98))
            if np.abs(e.grid.knots - x).min() < 1e-3:
                continue
            upstream = float(rng.normal())
            g = edge_grad(e, x, upstream)

            def loss(wb=e.w_base, ws=e.w_spline, al=e.alpha, xx=x):
                return upstream * edge_eval(EdgeFunction(wb, ws, al, e.grid, e.base), xx)

            fd_wb = (loss(wb=e.w_base + h) - loss(wb=e.w_base - h)) / (2 * h)
            fd_ws = (loss(ws=e.w_spline + h) - loss(ws=e.w_spline - h)) / (2 * h)
            fd_x = (loss(xx=x + h) - loss(xx=x - h)) / (2 * h)
            npt.assert_allclose(g.d_w_base, fd_wb, rtol=1e-5, atol=1e-8)
            npt.assert_allclose(g.d_w_spline, fd_ws, rtol=1e-5, atol=1e-8)
            npt.assert_allclose(g.d_input, fd_x, rtol=1e-5, atol=1e-8)
            k = int(rng.integers(len(e.alpha)))
            ap = e.alpha.copy()
            ap[k] += h
            am = e.alpha.copy()
            am[k] -= h
            fd_a = (loss(al=ap) - loss(al=am)) / (2 * h)
            npt.assert_allclose(g.d_alpha[k], fd_a, rtol=1e-5, atol=1e-8)
            checked += 1

    def test_input_gradient_outside_domain_is_base_only(self):
        e = make_edge(4)
        x = 1.8
        g = edge_grad(e, x, upstream=1.0)
        h = 1e-6
        fd = (edge_eval(e, x + h) - edge_eval(e, x - h)) / (2 * h)
        assert g.d_input == pytest.approx(fd, rel=1e-6)


class TestInitEdge:
    def test_deterministic(self):
        grid = make_uniform_grid(-1, 1, 5, 3)
        a = init_edge(grid, rng_seed=123)
        b = init_edge(grid, rng_seed=123)
        assert a.w_base == b.w_base == 1.0
        assert a.w_spline == b.w_spline == 1.0
        npt.assert_array_equal(a.alpha, b.alpha)

    def test_alpha_range(self):
        grid = make_uniform_grid(-1, 1, 12, 3)
        for seed in range(10):
            e = init_edge(grid, rng_seed=seed)
            assert (np.abs(e.alpha) <= 0.1).all()

    def test_seeds_differ(self):
        grid = make_uniform_grid(-1, 1, 5, 3)
        assert not np.array_equal(init_edge(grid, rng_seed=0).alpha, init_edge(grid, rng_seed=1).alpha)


def test_non_monotone_witness():
    """An edge whose curve rises and falls: the turning-point capability."""
    grid = make_uniform_grid(-1, 1, 8, 3)
    alpha = np.exp(-4 * np.linspace(-1, 1, grid.basis_count) ** 2)  # bump profile
    e = EdgeFunction(0.0, 1.0, alpha, grid)
    xs = np.linspace(-1, 1, 201)
    slopes = np.diff(edge_eval(e, xs))
    assert (slopes > 0).any() and (slopes < 0).any()
