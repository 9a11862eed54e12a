"""Tests for edge sampling and closed-form recovery."""

import numpy as np
import pytest

from kafcm.edge_functions import EdgeFunction, silu
from kafcm.spline_core import make_uniform_grid
from kafcm.symbolic import (
    CandidateFit,
    EdgeCurve,
    curve_from_csv,
    curve_to_csv,
    fit_candidates,
    fits_from_json,
    fits_to_json,
    sample_edge,
)


def make_edge(w_base=1.0, w_spline=0.0, alpha=None, G=4, degree=3, base="silu"):
    grid = make_uniform_grid(-1.0, 1.0, G, degree)
    if alpha is None:
        alpha = np.zeros(grid.basis_count)
    return EdgeFunction(w_base=w_base, w_spline=w_spline, alpha=alpha, grid=grid, base=base)


def curve_from(fn, n=200, lo=-1.0, hi=1.0):
    xs = np.linspace(lo, hi, n)
    return EdgeCurve(xs=xs, ys=fn(xs))


class TestEdgeCurve:
    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="equal-length"):
            EdgeCurve(xs=np.arange(3.0), ys=np.arange(4.0))

    def test_non_increasing_rejected(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            EdgeCurve(xs=np.array([0.0, 0.0, 1.0]), ys=np.zeros(3))


class TestSampleEdge:
    def test_two_points_hit_endpoints(self):
        curve = sample_edge(make_edge(), 2)
        np.testing.assert_array_equal(curve.xs, [-1.0, 1.0])

    def test_zero_edge_samples_zero(self):
        curve = sample_edge(make_edge(w_base=0.0), 50)
        np.testing.assert_array_equal(curve.ys, np.zeros(50))

    def test_pure_silu_edge(self):
        curve = sample_edge(make_edge(w_base=1.0), 64)
        np.testing.assert_allclose(curve.ys, silu(curve.xs), rtol=1e-15)

    def test_edge_id_carried(self):
        assert sample_edge(make_edge(), 4, edge_id=(2, 1)).edge_id == (2, 1)

    def test_minimum_points(self):
        with pytest.raises(ValueError, match="at least 2"):
            sample_edge(make_edge(), 1)


class TestFitSelfConsistency:
    cases = [
        ("affine", np.array([0.7, -0.2]), lambda x: 0.7 * x - 0.2),
        (
            "polynomial",
            np.array([0.1, -0.3, 0.8, 0.5, -1.1, -0.2]),
            lambda x: 0.1 - 0.3 * x + 0.8 * x**2 + 0.5 * x**3 - 1.1 * x**4 - 0.2 * x**5,
        ),
        ("gaussian", np.array([1.6, 4.0, -1.0]), lambda x: 1.6 * np.exp(-4 * x**2) - 1.0),
        ("sinusoid", np.array([0.9, 3.0, 0.4, -0.1]), lambda x: 0.9 * np.sin(3 * x + 0.4) - 0.1),
    ]

    @pytest.mark.parametrize("form,coeffs,fn", cases, ids=[c[0] for c in cases])
    def test_recovers_generating_form(self, form, coeffs, fn):
        fits = fit_candidates(curve_from(fn))
        top = fits[0]
        assert top.form == form
        assert top.r_squared >= 1 - 1e-8
        np.testing.assert_allclose(top.coefficients, coeffs, rtol=1e-3, atol=1e-6)

    def test_affine_beats_polynomial_on_lines(self):
        # both fit a line exactly; the penalty must favor two coefficients
        fits = fit_candidates(curve_from(lambda x: 0.5 * x + 0.1))
        assert fits[0].form == "affine"
        poly = [f for f in fits if f.form == "polynomial"][0]
        assert poly.r_squared >= 1 - 1e-8
        assert fits[0].score > poly.score


class TestFitExamples:
    def test_sin_three_x(self):
        fits = fit_candidates(curve_from(lambda x: np.sin(3 * x)))
        top = fits[0]
        assert top.form == "sinusoid"
        assert abs(top.coefficients[1] - 3.0) <= 0.05
        assert top.r_squared >= 0.999

    def test_inverted_u(self):
        fits = fit_candidates(curve_from(lambda x: 1.6 * np.exp(-4 * x**2) - 1.0))
        top = fits[0]
        assert top.form == "gaussian"
        a, b, c = top.coefficients
        assert abs(a - 1.6) <= 0.05
        assert abs(b - 4.0) <= 0.1
        assert abs(c + 1.0) <= 0.05

    # equal values; the mean of the last three rounds off them, so their variance is not 0
    @pytest.mark.parametrize("value, n", [(0.7, 200), (0.3, 200), (0.1, 50), (1e-3, 100)])
    def test_constant_curve_convention(self, value, n):
        fits = fit_candidates(curve_from(lambda x: np.full_like(x, value), n=n))
        assert len(fits) == 1
        only = fits[0]
        assert only.form == "affine"
        assert only.coefficients[0] == 0.0
        assert only.coefficients[1] == value
        assert only.r_squared == 1.0

    def test_spread_that_squares_to_zero_is_constant(self):
        # unequal values whose squared deviations underflow: r2 would divide by 0
        fits = fit_candidates(curve_from(lambda x: 1e-170 * (1.5 + 0.5 * x), n=50))
        assert [(f.form, f.r_squared) for f in fits] == [("affine", 1.0)]
        assert 1e-170 <= fits[0].coefficients[1] <= 2e-170


class TestFitContract:
    def test_requires_ten_points(self):
        xs = np.linspace(-1, 1, 9)
        with pytest.raises(ValueError, match="at least 10"):
            fit_candidates(EdgeCurve(xs=xs, ys=np.sin(xs)))

    def test_ranked_by_score(self):
        fits = fit_candidates(curve_from(lambda x: np.sin(3 * x)))
        scores = [f.score for f in fits]
        assert scores == sorted(scores, reverse=True)
        assert {f.form for f in fits} == {"affine", "polynomial", "gaussian", "sinusoid"}

    def test_deterministic(self):
        a = fit_candidates(curve_from(lambda x: np.sin(3 * x) + 0.2 * x))
        b = fit_candidates(curve_from(lambda x: np.sin(3 * x) + 0.2 * x))
        for fa, fb in zip(a, b):
            assert fa.form == fb.form
            assert fa.score == fb.score
            np.testing.assert_array_equal(fa.coefficients, fb.coefficients)

    @pytest.mark.parametrize(
        "fn",
        [
            lambda x: np.sin(3 * x),
            lambda x: -0.8 * np.sin(2 * x + 1.0) + 0.1,
            lambda x: 1.6 * np.exp(-4 * x**2) - 1.0,
            lambda x: 0.5 * x + 0.1 + 0.05 * np.cos(7 * x),
            lambda x: silu(2 * x) - x**3,
        ],
        ids=["sine", "negative-sine", "inverted-u", "wavy-line", "silu-cubic"],
    )
    def test_every_fit_predicts_its_own_r_squared(self, fn):
        # covers each form's evaluation: the sinusoid's amplitude and phase
        # and the gaussian's coefficient order as predict reads them
        curve = curve_from(fn)
        sst = np.sum((curve.ys - curve.ys.mean()) ** 2)
        fits = fit_candidates(curve)
        assert {f.form for f in fits} == {"affine", "polynomial", "gaussian", "sinusoid"}
        for fit in fits:
            r2 = 1.0 - np.sum((curve.ys - fit.predict(curve.xs)) ** 2) / sst
            assert abs(r2 - fit.r_squared) <= 1e-9, fit.form

    def test_sinusoid_canonical_ranges(self):
        # negative amplitude folds into a phase shift
        fits = fit_candidates(curve_from(lambda x: -0.8 * np.sin(2 * x) + 0.1))
        top = [f for f in fits if f.form == "sinusoid"][0]
        a, b, c, d = top.coefficients
        assert a > 0
        assert -np.pi < c <= np.pi
        got = a * np.sin(b * np.linspace(-1, 1, 50) + c) + d
        want = -0.8 * np.sin(2 * np.linspace(-1, 1, 50)) + 0.1
        np.testing.assert_allclose(got, want, atol=1e-6)


class TestSerialization:
    def test_curve_csv_round_trip(self, tmp_path):
        curve = sample_edge(make_edge(w_base=0.8), 33, edge_id=(1, 0))
        path = tmp_path / "curve.csv"
        curve_to_csv(curve, path)
        assert path.read_text().splitlines()[0] == "x,phi"
        back = curve_from_csv(path, edge_id=(1, 0))
        np.testing.assert_array_equal(back.xs, curve.xs)
        np.testing.assert_array_equal(back.ys, curve.ys)
        assert back.edge_id == (1, 0)

    def test_fits_json_round_trip(self, tmp_path):
        fits = fit_candidates(curve_from(lambda x: np.sin(3 * x)))
        path = tmp_path / "fits.json"
        fits_to_json(fits, path)
        back = fits_from_json(path)
        assert [f.form for f in back] == [f.form for f in fits]
        for fa, fb in zip(fits, back):
            np.testing.assert_array_equal(fa.coefficients, fb.coefficients)
            assert fa.r_squared == fb.r_squared
            assert fa.score == fb.score

    def test_predict_matches_form(self):
        fit = CandidateFit("gaussian", np.array([1.6, 4.0, -1.0]), 1.0, 0.997)
        xs = np.linspace(-1, 1, 11)
        np.testing.assert_allclose(fit.predict(xs), 1.6 * np.exp(-4 * xs**2) - 1.0)
