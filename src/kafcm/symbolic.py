"""Closed-form recovery of learned edge functions.

A trained edge is sampled into a curve, then fit against a small candidate
library: affine, polynomial (degree 5), gaussian a*exp(-b*x^2)+c, and
sinusoid a*sin(b*x+c)+d. Linear coefficients come from least squares; the
single nonlinear coefficient b is found by a 200-point scan over (0, 10]
followed by golden-section refinement. Fits are ranked by
score = r_squared - 0.001 * (coefficient count), so among near-perfect fits
the simplest form wins.
"""

from __future__ import annotations

from dataclasses import dataclass
import json

import numpy as np

from .atomic_io import atomic_write, write_json
from .edge_functions import EdgeFunction, edge_eval

__all__ = [
    "EdgeCurve",
    "CandidateFit",
    "sample_edge",
    "fit_candidates",
    "curve_to_csv",
    "curve_from_csv",
    "fits_to_json",
    "fits_from_json",
    "MIN_CURVE_POINTS",
]

COMPLEXITY_PENALTY = 0.001
MIN_CURVE_POINTS = 10  # the fewest curve points fit_candidates accepts
SCAN_POINTS = 200
SCAN_HI = 10.0


@dataclass
class EdgeCurve:
    xs: np.ndarray
    ys: np.ndarray
    edge_id: tuple = (0, 0)

    def __post_init__(self):
        self.xs = np.asarray(self.xs, dtype=float)
        self.ys = np.asarray(self.ys, dtype=float)
        if self.xs.shape != self.ys.shape or self.xs.ndim != 1:
            raise ValueError("xs and ys must be equal-length vectors")
        if len(self.xs) >= 2 and not (np.diff(self.xs) > 0).all():
            raise ValueError("xs must be strictly increasing")
        self.edge_id = (int(self.edge_id[0]), int(self.edge_id[1]))


@dataclass
class CandidateFit:
    form: str
    coefficients: np.ndarray
    r_squared: float
    score: float

    def __post_init__(self):
        self.coefficients = np.asarray(self.coefficients, dtype=float)

    def predict(self, xs) -> np.ndarray:
        return _FORM_EVAL[self.form](self.coefficients, np.asarray(xs, dtype=float))


def sample_edge(edge: EdgeFunction, n: int, edge_id: tuple = (0, 0)) -> EdgeCurve:
    """n uniform samples of the edge function over its grid domain."""
    if n < 2:
        raise ValueError(f"n must be at least 2, got {n}")
    xs = np.linspace(edge.grid.domain_lo, edge.grid.domain_hi, n)
    return EdgeCurve(xs=xs, ys=edge_eval(edge, xs), edge_id=edge_id)


def _eval_affine(c, x):
    return c[0] * x + c[1]


def _eval_polynomial(c, x):
    # ascending coefficients c0 + c1 x + ... + c5 x^5
    return np.polyval(c[::-1], x)


def _eval_gaussian(c, x):
    return c[0] * np.exp(-c[1] * x**2) + c[2]


def _eval_sinusoid(c, x):
    return c[0] * np.sin(c[1] * x + c[2]) + c[3]


_FORM_EVAL = {
    "affine": _eval_affine,
    "polynomial": _eval_polynomial,
    "gaussian": _eval_gaussian,
    "sinusoid": _eval_sinusoid,
}


def _lstsq(design: np.ndarray, ys: np.ndarray):
    coef, _, _, _ = np.linalg.lstsq(design, ys, rcond=None)
    sse = float(np.sum((design @ coef - ys) ** 2))
    return coef, sse


def _golden_min(f, lo: float, hi: float, tol: float = 1e-10) -> float:
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def _scan_nonlinear(xs, ys, design_at):
    """Best b for a model linear given b: coarse scan then golden refinement."""
    bs = np.linspace(SCAN_HI / SCAN_POINTS, SCAN_HI, SCAN_POINTS)

    def sse_at(b):
        return _lstsq(design_at(b), ys)[1]

    sses = np.array([sse_at(b) for b in bs])
    i = int(np.argmin(sses))
    lo = bs[max(i - 1, 0)]
    hi = bs[min(i + 1, len(bs) - 1)]
    b = _golden_min(sse_at, lo, hi) if hi > lo else bs[i]
    coef, sse = _lstsq(design_at(b), ys)
    return b, coef, sse


def _fit_affine(xs, ys):
    design = np.stack([xs, np.ones_like(xs)], axis=1)
    coef, sse = _lstsq(design, ys)
    return coef, sse


def _fit_polynomial(xs, ys):
    coef = np.polyfit(xs, ys, 5)[::-1]
    sse = float(np.sum((_eval_polynomial(coef, xs) - ys) ** 2))
    return coef, sse


def _fit_gaussian(xs, ys):
    def design_at(b):
        return np.stack([np.exp(-b * xs**2), np.ones_like(xs)], axis=1)

    b, coef, sse = _scan_nonlinear(xs, ys, design_at)
    return np.array([coef[0], b, coef[1]]), sse


def _fit_sinusoid(xs, ys):
    def design_at(b):
        return np.stack([np.sin(b * xs), np.cos(b * xs), np.ones_like(xs)], axis=1)

    b, coef, sse = _scan_nonlinear(xs, ys, design_at)
    # A sin(bx) + B cos(bx) = a sin(bx + c) with a > 0, c in (-pi, pi]
    A, B, d = coef
    a = float(np.hypot(A, B))
    c = float(np.arctan2(B, A))
    if c <= -np.pi:
        c += 2 * np.pi
    return np.array([a, b, c, d]), sse


_FITTERS = {
    "affine": _fit_affine,
    "polynomial": _fit_polynomial,
    "gaussian": _fit_gaussian,
    "sinusoid": _fit_sinusoid,
}


def fit_candidates(curve: EdgeCurve) -> list[CandidateFit]:
    """One fit per library form, ranked by score descending.

    A curve whose values are all equal, or whose spread squares to 0,
    short-circuits to one constant affine fit (its mean, clipped to its
    range) with r_squared 1 by convention: the ratio is 0/0 there.
    """
    xs, ys = curve.xs, curve.ys
    if len(xs) < MIN_CURVE_POINTS:
        raise ValueError(f"need at least {MIN_CURVE_POINTS} points, got {len(xs)}")
    if xs[-1] - xs[0] <= 0:
        raise ValueError("xs span must be positive")
    sst = float(np.sum((ys - ys.mean()) ** 2))
    if ys.min() == ys.max() or sst == 0.0:
        coef = np.array([0.0, float(np.clip(ys.mean(), ys.min(), ys.max()))])
        return [CandidateFit("affine", coef, 1.0, 1.0 - 2 * COMPLEXITY_PENALTY)]
    fits = []
    for form, fitter in _FITTERS.items():
        coef, sse = fitter(xs, ys)
        r2 = 1.0 - sse / sst
        fits.append(CandidateFit(form, coef, r2, r2 - COMPLEXITY_PENALTY * len(coef)))
    fits.sort(key=lambda f: (-f.score, f.form))
    return fits


def curve_to_csv(curve: EdgeCurve, path) -> None:
    with atomic_write(path) as fh:
        fh.write("x,phi\n")
        for x, y in zip(curve.xs, curve.ys):
            fh.write(f"{float(x)!r},{float(y)!r}\n")


def curve_from_csv(path, edge_id: tuple = (0, 0)) -> EdgeCurve:
    with open(path) as fh:
        header = fh.readline().strip()
        if header != "x,phi":
            raise ValueError(f"unexpected curve header: {header!r}")
        rows = [line.strip().split(",") for line in fh if line.strip()]
    xs = np.array([float(r[0]) for r in rows])
    ys = np.array([float(r[1]) for r in rows])
    return EdgeCurve(xs=xs, ys=ys, edge_id=edge_id)


def fits_to_json(fits, path) -> None:
    write_json([{**vars(f), "coefficients": f.coefficients.tolist()} for f in fits], path)


def fits_from_json(path) -> list[CandidateFit]:
    with open(path) as fh:
        payload = json.load(fh)
    return [
        CandidateFit(d["form"], np.array(d["coefficients"]), d["r_squared"], d["score"])
        for d in payload
    ]
