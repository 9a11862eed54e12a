"""Learnable univariate edge functions.

Each directed edge carries phi(x) = w_base * b(x) + w_spline * sum_k alpha_k
B_{k,p}(x). The base path b is a SiLU by default (identity is available for
exact equivalence checks against scalar-weight maps) and is evaluated on the
raw input. Only the spline path clamps its input to the grid domain, so
outside the domain the spline holds its boundary value as a constant (phi
differs between x = 1 and x = 5 on a [-1, 1] grid only through the base
path), while the base signal keeps varying.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .spline_core import (
    KnotGrid,
    basis_derivative_vector,
    basis_matrix,
    basis_vector,
)

__all__ = [
    "BASE_KINDS",
    "EdgeFunction",
    "EdgeGradient",
    "silu",
    "silu_grad",
    "base_eval",
    "base_grad",
    "edge_eval",
    "edge_grad",
    "init_edge",
]


def _constant(value: float) -> np.ndarray:
    """value as a read-only 0-d array, which a ufunc takes faster than a Python float."""
    c = np.array(value)
    c.setflags(write=False)
    return c


_ONE = _constant(1.0)


def silu(x, out=None, scratch=None):
    """SiLU b(x) = x * sigmoid(x), evaluated in an overflow-safe split form:
    x / (1 + e) for x >= 0 and x e / (1 + e) below, with e = exp(-|x|).

    e is taken as exp(min(x, -x)), which also keeps the sign bit of a NaN x.
    out, if given, is an array of x's shape that receives the values and is
    returned. scratch, if given, is a pair of float arrays of x's shape for
    the temporaries, so that with out the call allocates no array.
    """
    x = np.asarray(x, dtype=float)
    e, factor = (np.empty_like(x), np.empty_like(x)) if scratch is None else scratch
    np.exp(np.minimum(x, np.negative(x, e), out=e), e)
    # heaviside(x, 1) is 1.0 for x >= 0 (-0.0 too), 0.0 below and NaN for NaN;
    # max with e <= 1 makes it 1.0 or e, the factor of x / (1 + e), and keeps
    # a NaN e itself, as np.where(x >= 0, 1.0, e) would
    np.maximum(e, np.heaviside(x, _ONE, factor), out=factor)
    out = np.multiply(x, factor, out)
    out /= np.add(_ONE, e, e)
    if out.ndim == 0:
        return float(out)
    return out


def silu_grad(x):
    """d/dx silu = sigmoid(x) * (1 + x * (1 - sigmoid(x))), sigmoid split as in silu."""
    x = np.asarray(x, dtype=float)
    ex = np.exp(np.minimum(x, -x))
    sig = np.where(x >= 0, 1.0, ex) / (1.0 + ex)
    out = sig * (1.0 + x * (1.0 - sig))
    if out.ndim == 0:
        return float(out)
    return out


def _identity(x, out, scratch):
    if out is not None:
        np.copyto(out, x)
        return out
    return np.asarray(x, dtype=float) if np.ndim(x) else float(x)


# b of each base kind as fn(x, out, scratch): base_eval looks its kind up
# here, and a stepper binds its entry once
_BASES = {"silu": silu, "identity": _identity}


def base_eval(kind: str, x, out=None, scratch=None):
    """b(x) of base `kind`; out, if given, is an array of x's shape that
    receives the values and is returned, and scratch is silu's."""
    base = _BASES.get(kind)
    if base is None:
        raise ValueError(f"unknown base kind: {kind!r}")
    return base(x, out, scratch)


BASE_KINDS = tuple(_BASES)


def base_grad(kind: str, x):
    if kind == "silu":
        return silu_grad(x)
    if kind == "identity":
        return np.ones_like(np.asarray(x, dtype=float)) if np.ndim(x) else 1.0
    raise ValueError(f"unknown base kind: {kind!r}")


@dataclass
class EdgeFunction:
    """One learnable edge: base weight, spline weight, and spline coefficients."""

    w_base: float
    w_spline: float
    alpha: np.ndarray
    grid: KnotGrid
    base: str = "silu"

    def __post_init__(self):
        self.alpha = np.asarray(self.alpha, dtype=float)
        if self.base not in BASE_KINDS:
            raise ValueError(f"unknown base kind: {self.base!r}")
        if self.alpha.shape != (self.grid.basis_count,):
            raise ValueError(
                f"alpha length {self.alpha.shape} does not match basis count {self.grid.basis_count}"
            )


@dataclass
class EdgeGradient:
    """Partials of upstream * phi(x) with respect to parameters and input."""

    d_w_base: float
    d_w_spline: float
    d_alpha: np.ndarray = field(repr=False)
    d_input: float


def edge_eval(edge: EdgeFunction, x):
    """phi(x) for scalar or array x (elementwise)."""
    spline = basis_matrix(edge.grid, np.ravel(x)) @ edge.alpha
    out = edge.w_base * base_eval(edge.base, x) + edge.w_spline * spline.reshape(np.shape(x))
    if np.ndim(x) == 0:
        return float(out)
    return out


def edge_grad(edge: EdgeFunction, x: float, upstream: float = 1.0) -> EdgeGradient:
    """Analytic gradient of upstream * phi at a single point x.

    The spline path is clamped, so its input gradient vanishes outside the
    open domain; at the domain boundary the one-sided interior limit is used.
    """
    b = basis_vector(edge.grid, x)
    spline_val = float(b @ edge.alpha)
    d_w_base = upstream * base_eval(edge.base, x)
    d_w_spline = upstream * spline_val
    d_alpha = upstream * edge.w_spline * b
    d_in = edge.w_base * base_grad(edge.base, x)
    # degree-0 splines are piecewise constant: zero slope almost everywhere
    if edge.grid.degree >= 1 and edge.grid.domain_lo <= x <= edge.grid.domain_hi:
        d_in += edge.w_spline * float(basis_derivative_vector(edge.grid, x) @ edge.alpha)
    return EdgeGradient(float(d_w_base), float(d_w_spline), d_alpha, float(upstream * d_in))


def _fresh_edge(K: int, seed: int):
    """(w_base, w_spline, alpha) of a fresh edge near its base function: unit
    path weights and K coefficients drawn by default_rng(seed) uniformly from
    [-0.1, 0.1), the init of init_edge and of every edge of new_kafcm."""
    return 1.0, 1.0, np.random.default_rng(seed).uniform(-0.1, 0.1, K)


def init_edge(grid: KnotGrid, base: str = "silu", rng_seed: int = 0) -> EdgeFunction:
    """Fresh edge near the base function: unit path weights, small uniform alpha."""
    return EdgeFunction(*_fresh_edge(grid.basis_count, rng_seed), grid, base)
