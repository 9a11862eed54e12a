"""Uniform knot grids and B-spline basis evaluation.

Basis functions follow the Cox-de Boor recursion with the usual 0/0 := 0
convention for vanishing knot differences. Grids are uniform partitions of a
closed domain, extended by `degree` extra knots beyond each end so that every
point of the domain is covered by exactly degree+1 basis functions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "KnotGrid",
    "make_uniform_grid",
    "basis_value",
    "basis_vector",
    "basis_matrix",
    "basis_tensor",
    "basis_derivative_vector",
    "basis_derivative_matrix",
    "clamp_to_domain",
]


@dataclass(frozen=True, eq=False)
class KnotGrid:
    """Extended uniform knot sequence over [domain_lo, domain_hi].

    knots has length grid_size + 2*degree + 1; the interior knots
    knots[degree : degree+grid_size+1] partition the domain into grid_size
    equal intervals, and basis_count = grid_size + degree basis functions
    of degree `degree` have support intersecting the domain.
    """

    domain_lo: float
    domain_hi: float
    grid_size: int
    degree: int
    knots: np.ndarray

    @property
    def basis_count(self) -> int:
        return self.grid_size + self.degree

    @property
    def spacing(self) -> float:
        return (self.domain_hi - self.domain_lo) / self.grid_size


def make_uniform_grid(domain_lo: float, domain_hi: float, G: int, p: int = 3) -> KnotGrid:
    """Build a uniform KnotGrid with G intervals and degree p.

    Raises ValueError for an empty domain (lo >= hi), G < 1, or p < 0.
    """
    domain_lo = float(domain_lo)
    domain_hi = float(domain_hi)
    if not np.isfinite(domain_lo) or not np.isfinite(domain_hi):
        raise ValueError("domain endpoints must be finite")
    if domain_lo >= domain_hi:
        raise ValueError(f"invalid domain: lo={domain_lo} must be < hi={domain_hi}")
    if G < 1:
        raise ValueError(f"grid size must be at least 1, got {G}")
    if p < 0:
        raise ValueError(f"degree must be non-negative, got {p}")
    h = (domain_hi - domain_lo) / G
    # linspace pins the domain endpoints exactly; extensions step out by h.
    interior = np.linspace(domain_lo, domain_hi, G + 1)
    left = domain_lo - h * np.arange(p, 0, -1)
    right = domain_hi + h * np.arange(1, p + 1)
    knots = np.concatenate([left, interior, right])
    knots.setflags(write=False)
    return KnotGrid(domain_lo, domain_hi, int(G), int(p), knots)


def clamp_to_domain(grid: KnotGrid, x):
    """Clip x (scalar or array) to [domain_lo, domain_hi]."""
    return np.clip(x, grid.domain_lo, grid.domain_hi)


def basis_value(grid: KnotGrid, k: int, p: int, x: float) -> float:
    """B_{k,p}(x) by the scalar Cox-de Boor recursion over grid.knots.

    Evaluates the raw half-open convention (degree 0 is 1 on [t_k, t_{k+1})),
    so no clamping and no special casing at the domain boundary. Valid basis
    indices for degree p are 0 <= k <= len(knots) - 2 - p.
    """
    if p < 0:
        raise ValueError(f"degree must be non-negative, got {p}")
    t = grid.knots
    if not 0 <= k <= len(t) - 2 - p:
        raise IndexError(f"basis index {k} out of range for degree {p}")
    if p == 0:
        return 1.0 if t[k] <= x < t[k + 1] else 0.0
    left = 0.0
    den = t[k + p] - t[k]
    if den != 0.0:
        left = (x - t[k]) / den * basis_value(grid, k, p - 1, x)
    right = 0.0
    den = t[k + p + 1] - t[k + 1]
    if den != 0.0:
        right = (t[k + p + 1] - x) / den * basis_value(grid, k + 1, p - 1, x)
    return left + right


def _degree0_matrix(grid: KnotGrid, xs: np.ndarray) -> np.ndarray:
    """Indicator matrix of shape (n, len(knots)-1) at clamped points.

    Points are clamped to the domain and x = domain_hi is assigned to the last
    domain interval (left limit), so the basis never collapses to all zeros at
    the right boundary.
    """
    t = grid.knots
    xc = clamp_to_domain(grid, np.asarray(xs, dtype=float))
    idx = np.searchsorted(t, xc, side="right") - 1
    top = grid.degree + grid.grid_size  # index of the knot equal to domain_hi
    idx = np.minimum(idx, top - 1)
    b0 = np.zeros((xc.size, len(t) - 1))
    b0[np.arange(xc.size), idx.ravel()] = 1.0
    return b0


def basis_matrix(grid: KnotGrid, xs) -> np.ndarray:
    """All K = G + p basis values of degree grid.degree at each point of xs.

    Returns shape (len(xs), basis_count). Inputs are clamped to the domain
    first; the right domain endpoint is evaluated as a left limit.
    """
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    t = grid.knots
    xc = clamp_to_domain(grid, xs)[:, None]
    b = _degree0_matrix(grid, xs)
    for q in range(1, grid.degree + 1):
        m = b.shape[1] - 1
        tk = t[:m]
        num_l = xc - tk
        den_l = t[q : q + m] - tk
        num_r = t[q + 1 : q + 1 + m] - xc
        den_r = t[q + 1 : q + 1 + m] - t[1 : 1 + m]
        left = np.where(den_l != 0.0, num_l / np.where(den_l == 0.0, 1.0, den_l), 0.0) * b[:, :m]
        right = np.where(den_r != 0.0, num_r / np.where(den_r == 0.0, 1.0, den_r), 0.0) * b[:, 1 : 1 + m]
        b = left + right
    return b[:, : grid.basis_count]


BASIS_BLOCK_POINTS = 1024


def basis_tensor(grid: KnotGrid, states: np.ndarray) -> np.ndarray:
    """B of shape (T, N*K): row t is basis_matrix(grid, states[t]) flattened.

    Filled a block of source columns at a time, each block at most
    BASIS_BLOCK_POINTS points (or one column), which bounds the temporaries
    of basis_matrix however many rows the states have.
    """
    T, n = states.shape
    K = grid.basis_count
    B = np.empty((T, n, K))
    cols = max(1, BASIS_BLOCK_POINTS // max(T, 1))
    for j in range(0, n, cols):
        block = states[:, j : j + cols]
        B[:, j : j + cols] = basis_matrix(grid, block.ravel()).reshape(*block.shape, K)
    return B.reshape(T, n * K)


def basis_vector(grid: KnotGrid, x: float) -> np.ndarray:
    """Vector of the K basis values at a single point (clamped to the domain)."""
    return basis_matrix(grid, [x])[0]


def basis_derivative_matrix(grid: KnotGrid, xs) -> np.ndarray:
    """First derivatives of all K basis functions at each point of xs.

    Uses the classical identity
        dB_{k,p}/dx = p/(t_{k+p} - t_k) B_{k,p-1} - p/(t_{k+p+1} - t_{k+1}) B_{k+1,p-1}
    with 0/0 := 0. Requires degree >= 1. Points are clamped, and boundary
    points take the one-sided interior limit.
    """
    p = grid.degree
    if p < 1:
        raise ValueError("derivative undefined for degree-zero bases")
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    t = grid.knots
    # Degree p-1 bases over the same knot vector, then the difference rule.
    b = _degree0_matrix(grid, xs)
    for q in range(1, p):
        m = b.shape[1] - 1
        tk = t[:m]
        xc = clamp_to_domain(grid, xs)[:, None]
        num_l = xc - tk
        den_l = t[q : q + m] - tk
        num_r = t[q + 1 : q + 1 + m] - xc
        den_r = t[q + 1 : q + 1 + m] - t[1 : 1 + m]
        left = np.where(den_l != 0.0, num_l / np.where(den_l == 0.0, 1.0, den_l), 0.0) * b[:, :m]
        right = np.where(den_r != 0.0, num_r / np.where(den_r == 0.0, 1.0, den_r), 0.0) * b[:, 1 : 1 + m]
        b = left + right
    K = grid.basis_count
    k = np.arange(K)
    den_a = t[k + p] - t[k]
    den_b = t[k + p + 1] - t[k + 1]
    coef_a = np.where(den_a != 0.0, p / np.where(den_a == 0.0, 1.0, den_a), 0.0)
    coef_b = np.where(den_b != 0.0, p / np.where(den_b == 0.0, 1.0, den_b), 0.0)
    return coef_a * b[:, :K] - coef_b * b[:, 1 : K + 1]


def basis_derivative_vector(grid: KnotGrid, x: float) -> np.ndarray:
    """Derivatives of the K basis functions at a single point."""
    return basis_derivative_matrix(grid, [x])[0]
