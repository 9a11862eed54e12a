"""Uniform knot grids and B-spline basis evaluation.

Grids are uniform partitions of a closed domain, extended by `degree` extra
knots beyond each end so that every point of the domain is covered by exactly
degree+1 basis functions. These depend only on the point's span (knot
interval) and offset into it, so the dense evaluators compute them as a
polynomial in the offset with one constant matrix per degree: the local-support
form of de Boor's algorithm (Piegl & Tiller, *The NURBS Book*, Alg. A2.2).
`basis_value` keeps the scalar Cox-de Boor recursion as the test reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial
from math import comb, factorial

import numpy as np

__all__ = [
    "KnotGrid",
    "make_uniform_grid",
    "basis_value",
    "basis_vector",
    "basis_matrix",
    "basis_tensor",
    "basis_evaluator",
    "basis_derivative_vector",
    "basis_derivative_matrix",
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


@lru_cache(maxsize=None)
def _power_basis(p: int) -> np.ndarray:
    """(p+1, p+1) read-only M: the p+1 bases nonzero at offset u are u**arange(p+1) @ M.

    Column r is the cardinal B-spline of degree p on its piece p - r, from its
    closed form sum_j (-1)**j C(p+1, j) (t - j)**p / p!, expanded exactly in
    integers and rounded once.
    """
    def coef(m, r):
        terms = ((-1) ** j * comb(p + 1, j) * (p - r - j) ** (p - m) for j in range(p - r + 1))
        return sum(terms) * comb(p, m) / factorial(p)

    M = np.array([[coef(m, r) for r in range(p + 1)] for m in range(p + 1)])
    M.setflags(write=False)
    return M


class _Work:
    """_local_eval's arrays for n points on one grid, and whether it reads the
    basis values or their derivatives. The state-independent part: the clamp
    bounds and the spacing as 0-d arrays, the knots and the inner knots a span
    search counts, the coefficient matrix coef (m, p+1), whether values are
    clipped at 0, the scatter window and the row of each of its entries. The
    per-point part: clamped points, offsets, the powers u**k (column 0 held
    at 1.0) with each pair of consecutive columns, the scatter indices and
    values. The window (n, p+1) holds the offsets r*K + c - p: plus row r's
    span, they are the flat indices of its p+1 columns span-p .. span in an
    (n, K) array. Spans reach the indices by a gather through `rows`, not by
    broadcasting, since NumPy buffers a broadcast operand of a 2-d ufunc."""

    __slots__ = (
        "lo", "hi", "spacing", "knots", "inner", "coef", "clip", "zero",
        "xc", "u", "V", "steps", "window", "rows", "at", "vals",
    )

    def __init__(self, grid: KnotGrid, n: int, derivative: bool = False):
        p, K = grid.degree, grid.basis_count
        M = _power_basis(p)
        self.coef = np.arange(1, p + 1)[:, None] * M[1:] / grid.spacing if derivative else M
        self.clip = not derivative
        self.lo, self.hi, self.spacing, self.zero = map(np.array, (grid.domain_lo, grid.domain_hi, grid.spacing, 0.0))
        self.knots = grid.knots
        # span = (number of knots <= x) - 1, capped at p+G-1: counting only
        # knots 1 .. p+G-1 gives both at once, since a clamped x >= knots[0]
        self.inner = grid.knots[1 : p + grid.grid_size]
        m, q = self.coef.shape
        self.xc, self.u = np.empty(n), np.empty(n)
        self.V = np.empty((n, m))
        self.V[:, 0] = 1.0
        powers = [self.V[:, k] for k in range(m)]
        self.steps = list(zip(powers, powers[1:]))
        self.window = np.arange(0, n * K, K)[:, None] + np.arange(1 - q, 1)
        self.rows = np.arange(n).repeat(q).reshape(n, q)
        self.at = np.empty((n, q), dtype=np.intp)
        self.vals = np.empty((n, q))


def _points(xs) -> np.ndarray:
    """xs as a float vector; a scalar becomes one point."""
    xs = np.asarray(xs, dtype=float)
    return xs.reshape(1) if xs.ndim == 0 else xs


def _local_eval(work: _Work, xs: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Fill out, a C-contiguous (n, K) array, with rows holding u**arange(m) @
    work.coef in columns span-p .. span and zeros elsewhere, and return it.

    xs is a float vector of the n points work was made for. The span of a
    clamped point is the last knot at or left of it, capped at the last
    domain interval so that x = domain_hi is a left limit, and u is the
    offset into that span in units of the spacing. Basis values (work.clip)
    are clipped at 0, since rounding leaves some at -1e-15 on knots. A NaN
    point gives a NaN row. Only per-point work happens here: outputs are passed positionally
    (by keyword to np.maximum and np.minimum, which deprecate a third
    positional argument), operands as 0-d arrays, and the one array made is
    the span search's.
    """
    xc, u = work.xc, work.u
    np.minimum(np.maximum(xs, work.lo, out=xc), work.hi, out=xc)
    # a NaN counts past every inner knot, and so gets the cap
    span = work.inner.searchsorted(xc, "right")
    work.knots.take(span, None, u, "clip")
    np.subtract(xc, u, u)
    np.divide(u, work.spacing, u)
    # u**k as running products, the order np.vander uses
    for prev, power in work.steps:
        np.multiply(prev, u, power)
    np.add(work.window, span.take(work.rows, None, work.at, "clip"), work.at)
    out.fill(0.0)
    vals = np.matmul(work.V, work.coef, work.vals)
    if work.clip:
        np.maximum(vals, work.zero, out=vals)
    out.ravel()[work.at] = vals
    # u holds offsets in [0, 1] (up to rounding) or NaN, so u @ u, a sum of
    # squares far below overflow, is NaN (unequal to itself) exactly when some u is
    square = u @ u
    if square != square:
        out[np.isnan(u)] = np.nan
    return out


def basis_matrix(grid: KnotGrid, xs) -> np.ndarray:
    """All K = G + p basis values of degree grid.degree at each point of xs.

    Returns shape (len(xs), basis_count). Inputs are clamped to the domain
    first; the right domain endpoint is evaluated as a left limit, and a point
    on an interior knot takes the interval to its right. Only the p+1 bases
    whose support holds the point are evaluated, from its span and offset;
    they are clipped at 0, since rounding leaves some at -1e-15 on knots.
    """
    xs = _points(xs)
    return basis_evaluator(grid, len(xs))(xs, np.empty((len(xs), grid.basis_count)))


def basis_evaluator(grid: KnotGrid, n: int):
    """f(xs, out): basis_matrix(grid, xs) written into out, for a float vector
    xs of n points and a C-contiguous (n, K) out, with its work arrays bound
    once: the one binder of the basis routine's work arrays, for a caller
    that evaluates n points many times (a simulate step, a basis_tensor block)."""
    return partial(_local_eval, _Work(grid, n))


BASIS_BLOCK_POINTS = 1024


def basis_tensor(grid: KnotGrid, states: np.ndarray) -> np.ndarray:
    """B of shape (T, N*K): row t is basis_matrix(grid, states[t]) flattened.

    Filled straight into B a block of rows (a contiguous (rows*N, K) view)
    at a time, each of about BASIS_BLOCK_POINTS points or one row, which
    bounds the work arrays however many rows the states have; one evaluator
    serves the full blocks and another a shorter last block.
    """
    T, n = states.shape
    K = grid.basis_count
    B = np.empty((T, n * K))
    rows = max(1, BASIS_BLOCK_POINTS // max(n, 1))
    size = None
    for t in range(0, T, rows):
        block = states[t : t + rows].ravel()
        if len(block) != size:
            size = len(block)
            evaluate = basis_evaluator(grid, size)
        evaluate(block, B[t : t + rows].reshape(-1, K))
    return B


def basis_vector(grid: KnotGrid, x: float) -> np.ndarray:
    """Vector of the K basis values at a single point (clamped to the domain)."""
    return basis_matrix(grid, [x])[0]


def basis_derivative_matrix(grid: KnotGrid, xs) -> np.ndarray:
    """First derivatives of all K basis functions at each point of xs.

    Differentiates basis_matrix's polynomial in the offset over the same span,
    divided by the spacing. Requires degree >= 1. Points are clamped, and
    boundary points take the one-sided interior limit.
    """
    p = grid.degree
    if p < 1:
        raise ValueError("derivative undefined for degree-zero bases")
    xs = _points(xs)
    return _local_eval(_Work(grid, len(xs), derivative=True), xs, np.empty((len(xs), grid.basis_count)))


def basis_derivative_vector(grid: KnotGrid, x: float) -> np.ndarray:
    """Derivatives of the K basis functions at a single point."""
    return basis_derivative_matrix(grid, [x])[0]
