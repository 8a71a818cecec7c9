"""Stieltjes transforms on [-1, 1] and contour-integral derivative checks.

Implements the power-semicircle transform (n=2 uniform, n=3 Wigner
semicircle), spectrally accurate Cauchy-integral derivatives, and residuals
of the differential identity relating the (n-1)-th derivative of the
power-semicircle transform to (z^2-1)^{-n/2}.

Branch handling: every square root of z^2 - c^2 is evaluated as
sqrt(z-c)*sqrt(z+c) with principal square roots, which selects the branch
with cut [-c, c] and z*S(z) -> 1 at infinity.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "PowerSemicircleParams",
    "SupportError",
    "QuadratureError",
    "power_semicircle_transform",
    "cauchy_derivative",
    "equation3_terms",
    "equation3_residual",
    "equation1_check",
    "GRID_STANDOFF",
]

# Grid points must stay at least this far to the right of the support edge,
# leaving room for contour disks.
GRID_STANDOFF = 0.25


class SupportError(ValueError):
    """Evaluation on (or a contour touching) the support interval."""


class QuadratureError(RuntimeError):
    def __init__(self, msg, achieved):
        super().__init__(f"{msg} (achieved tolerance {achieved:.3e})")
        self.achieved = achieved


@dataclass(frozen=True)
class PowerSemicircleParams:
    """Member of the power-semicircle family; n=2 is uniform on [-1,1], n=3
    the Wigner semicircle."""

    n: int

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("need n >= 2")


@functools.lru_cache(maxsize=8)
def _gauss_legendre_nodes(order: int):
    """Gauss-Legendre nodes mapped to [0,1] and their weights, computed once
    per order on first use and shared read-only.  The node-doubling loop asks
    for 16, 32, ..., 2048, so the table holds at most eight entries; a table
    entry is stored only once complete, so concurrent callers never see one
    half-built."""
    nodes, weights = np.polynomial.legendre.leggauss(order)
    x = 0.5 * (nodes + 1.0)
    x.flags.writeable = False
    weights.flags.writeable = False
    return x, weights


# Tolerances and largest node counts: Gauss-Legendre orders double from 16 and
# trapezoid node counts from 32; the contour's relative test is floored at 1e-300.
_GL_ATOL, _GL_RTOL, _GL_MAX_ORDER = 1e-12, 1e-13, 2048
_CONTOUR_RTOL, _CONTOUR_MAX_NODES = 1e-9, 8192


def _node_doubling(estimate, m: int, first: int, last: int, atol: float, rtol: float,
                   what: str) -> np.ndarray:
    """Estimates of m points from node counts first, 2*first, ..., last.

    estimate(count, todo) returns the estimates of the points todo (an index
    array) at that node count.  Each point keeps the value of the first count
    at which it agrees with the previous count within max(atol, rtol*|value|);
    later counts evaluate only the points that have not converged.
    """
    out, todo = np.empty(m, dtype=complex), np.arange(m)
    prev, count, err = None, first, math.inf
    while count <= last:
        val = estimate(count, todo)
        if prev is not None:
            diff = np.abs(val - prev)
            done = diff <= np.maximum(atol, rtol * np.abs(val))
            out[todo[done]] = val[done]
            if done.all():
                return out
            err = float(np.max(diff[~done]))
            todo, val = todo[~done], val[~done]
        prev = val
        count *= 2
    raise QuadratureError(what, err)


def _power_semicircle_integral(n: int, z):
    """int_0^1 (1-t)^{(n-3)/2} (z^2-t)^{-1/2} dt via the substitution
    u = sqrt(1-t), which removes the endpoint singularity at t=1 for n=2.
    Gauss-Legendre on [0,1] at a complex scalar or every point of an array of
    any shape; the points unconverged at one order form one (m, order) array."""
    z = np.asarray(z, dtype=complex)
    zf = z.reshape(-1)

    def estimate(order, todo):
        u, weights = _gauss_legendre_nodes(order)
        r, zc = np.sqrt(1.0 - u * u), zf[todo, None]
        vals = 2.0 * u ** (n - 2) / (np.sqrt(zc - r) * np.sqrt(zc + r))
        return 0.5 * np.sum(weights * vals, axis=1)

    out = _node_doubling(estimate, zf.size, 16, _GL_MAX_ORDER, _GL_ATOL, _GL_RTOL,
                         "quadrature did not converge on [0,1]")
    return out.reshape(z.shape)[()]


def power_semicircle_transform(p: PowerSemicircleParams, z) -> complex:
    """Stieltjes transform of the power-semicircle law:
    (n-1)/2 * int_0^1 (1-t)^{(n-3)/2} (z^2-t)^{-1/2} dt.

    The (n-1)/2 coefficient is fixed by the normalization z*S(z) -> 1: the
    alternative (n-2)/2 would make the n=2 transform vanish identically.
    """
    z = complex(z)
    if z.imag == 0 and -1.0 <= z.real <= 1.0:
        raise SupportError(f"z={z} lies on the branch cut [-1, 1]")
    return complex((p.n - 1) / 2.0 * _power_semicircle_integral(p.n, z))


def cauchy_derivative(f, z, order: int, radius):
    """order-th derivative of f at each real point z via trapezoidal quadrature
    of the Cauchy integral on the circle of the given radius about it.

    z and radius broadcast together; scalars give a complex, arrays an array.
    f takes an (m, N) ndarray of complex contour nodes, the N nodes of every
    point not yet converged, and returns their values.  Each closed disk must
    avoid the support [-1, 1].  The rule is spectrally accurate for periodic
    integrands; N doubles from 32 until a point's estimates agree to 1e-9.
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    z, radius = np.broadcast_arrays(np.asarray(z, dtype=float), np.asarray(radius, dtype=float))
    if not np.all(radius > 0):
        raise ValueError("radius must be > 0")
    hit = (z - radius <= 1.0) & (z + radius >= -1.0)
    if hit.any():
        raise SupportError(f"disk of radius {radius[hit][0]} about z={z[hit][0]} "
                           "intersects the support [-1, 1]")
    zf, rf = z.reshape(-1), radius.reshape(-1)
    fact = math.factorial(order)

    def estimate(n_nodes, todo):
        theta = 2.0 * np.pi * np.arange(n_nodes) / n_nodes
        w = zf[todo, None] + rf[todo, None] * np.exp(1j * theta)
        # Python's pow: numpy's array power differs from it in the last bit
        scale = np.array([fact / (n_nodes * r**order) for r in rf[todo].tolist()])
        return scale * np.sum(f(w) * np.exp(-1j * order * theta), axis=1)

    out = _node_doubling(estimate, zf.size, 32, _CONTOUR_MAX_NODES, _CONTOUR_RTOL * 1e-300,
                         _CONTOUR_RTOL, "contour derivative did not converge")
    return complex(out[0]) if z.ndim == 0 else out.reshape(z.shape)


def _check_grid(z_grid) -> np.ndarray:
    z = np.atleast_1d(np.asarray(z_grid, dtype=float))
    for v in z.tolist():
        if not (1.0 + GRID_STANDOFF < v < math.inf):
            raise ValueError(f"grid point {v} must be finite and exceed 1 + {GRID_STANDOFF}")
    return z


def _identity_terms(f, pref: float, n: int, z_grid):
    """Computed left side pref * f^{(n-1)}(z), right side (z^2-1)^{-n/2} and
    residual |lhs - rhs| at each grid point; the contour radius is
    min(z - 1 - GRID_STANDOFF, 1)."""
    z = _check_grid(z_grid)
    lhs = pref * cauchy_derivative(f, z, n - 1, np.minimum(z - 1.0 - GRID_STANDOFF, 1.0))
    # principal roots of z-1 and z+1 select the branch with cut [-1, 1]
    rhs = (np.sqrt(z - 1.0 + 0j) * np.sqrt(z + 1.0 + 0j)) ** (-n)
    bad = ~(np.isfinite(lhs) & np.isfinite(rhs))
    if bad.any():
        raise ValueError(f"identity terms at z={z[bad].tolist()} are not finite")
    # scalar abs: numpy's array abs of a complex can differ in the last bit
    return lhs, rhs, np.array([abs(d) for d in lhs - rhs])


def equation3_terms(n: int, z_grid):
    """(lhs, rhs, residual) arrays of the identity
    (-1)^{n-1}/(n-1)! * d^{n-1}/dz^{n-1} S_Z(z) = (z^2-1)^{-n/2}
    where S_Z is the power-semicircle transform of parameter n; lhs is the
    computed left side."""
    PowerSemicircleParams(n)  # rejects n < 2
    sign = (-1.0) ** (n - 1) / math.factorial(n - 1)
    return _identity_terms(lambda z: (n - 1) / 2.0 * _power_semicircle_integral(n, z),
                           sign, n, z_grid)


def equation3_residual(n: int, z_grid) -> np.ndarray:
    """|LHS - RHS| of the identity of equation3_terms."""
    return equation3_terms(n, z_grid)[2]


def equation1_check(n: int, z_grid) -> np.ndarray:
    """Residual of the integral form of the same identity: the (n-1)-th
    derivative is applied to the raw integral, with the (n-1)/2 prefactor kept
    outside the derivative."""
    pref = (-1.0) ** (n - 1) / math.factorial(n - 1) * (n - 1) / 2.0
    return _identity_terms(functools.partial(_power_semicircle_integral, n), pref, n, z_grid)[2]
