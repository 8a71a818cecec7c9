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

# Grid points must exceed 1 + GRID_STANDOFF, the domain configs are validated
# against.  The contour needs no room (its radius scales with z - 1), but high
# orders are refused near the support: at z = 1.2501, every n >= 11.
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
# trapezoid node counts from 32, or from above the order.  A contour point is
# refused if the round-off of its sum exceeds _CONTOUR_MAX_ROUNDOFF of its
# value.  The identity's radius is _CONTOUR_RADIUS times the distance z - 1 to
# the support (Bornemann 2011), which keeps that round-off small far from it.
_GL_ATOL, _GL_RTOL, _GL_MAX_ORDER = 1e-12, 1e-13, 2048
_CONTOUR_RTOL, _CONTOUR_MAX_NODES, _CONTOUR_RADIUS = 1e-9, 8192, 0.75
_CONTOUR_ROUNDOFF, _CONTOUR_MAX_ROUNDOFF = 64 * np.finfo(float).eps, 1e-8


def _node_doubling(estimate, m: int, first: int, last: int, atol: float, rtol: float,
                   what: str) -> np.ndarray:
    """Estimates of m points from node counts first, 2*first, ..., last.

    estimate(count, todo) returns the estimates of the points todo (an index
    array) at that node count.  Each point keeps the value of the first count
    at which it agrees with the previous one within max(atol, rtol*|value|).
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
    avoid the support [-1, 1].  N doubles from the first power of two above
    max(order, 31) until a point's estimates agree to 1e-9 relative; if the
    round-off of its sum, 64*eps * order!/r^order * max|f| over the nodes, is
    then above 1e-8 of its value, its digits are noise: QuadratureError.
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
    # Python's pow: numpy's array power differs from it in the last bit
    rpow, noise = np.array([r**order for r in rf.tolist()]), np.empty(zf.size)

    def estimate(n_nodes, todo):
        theta = 2.0 * np.pi * np.arange(n_nodes) / n_nodes
        w = zf[todo, None] + rf[todo, None] * np.exp(1j * theta)
        fw = f(w)
        scale = fact / (n_nodes * rpow[todo])
        noise[todo] = _CONTOUR_ROUNDOFF * n_nodes * scale * np.max(np.abs(fw), axis=1)
        return scale * np.sum(fw * np.exp(-1j * order * theta), axis=1)

    # Fewer nodes than order + 1 alias lower Taylor coefficients onto this one.
    first = max(32, 2 ** order.bit_length())
    out = _node_doubling(estimate, zf.size, first, _CONTOUR_MAX_NODES, 0.0, _CONTOUR_RTOL,
                         "contour derivative did not converge")
    # a point's noise is that of the node count at which it converged
    noisy = noise > _CONTOUR_MAX_ROUNDOFF * np.abs(out)
    if noisy.any():
        raise QuadratureError(f"contour derivative at z={zf[noisy].tolist()} did not converge "
                              "above its round-off", float(np.max(noise[noisy])))
    return complex(out[0]) if z.ndim == 0 else out.reshape(z.shape)


def _check_grid(z_grid) -> np.ndarray:
    z = np.atleast_1d(np.asarray(z_grid, dtype=float))
    for v in z.tolist():
        if not (1.0 + GRID_STANDOFF < v < math.inf):
            raise ValueError(f"grid point {v} must be finite and exceed 1 + {GRID_STANDOFF}")
    return z


def _identity_terms(f, pref: float, n: int, z_grid):
    """Computed left side pref * f^{(n-1)}(z), right side (z^2-1)^{-n/2} and
    relative residual |lhs - rhs|/|rhs| at each grid point."""
    z = _check_grid(z_grid)
    # principal roots of z-1 and z+1 select the branch with cut [-1, 1]; a
    # right side that is not a finite normal number has no relative residual
    # and is refused before the contour's r**order can overflow
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        rhs = (np.sqrt(z - 1.0 + 0j) * np.sqrt(z + 1.0 + 0j)) ** (-n)
    _refuse(z, np.isfinite(rhs) & (np.abs(rhs) >= np.finfo(float).tiny),
            "right side is zero, subnormal or not finite")
    lhs = pref * cauchy_derivative(f, z, n - 1, _CONTOUR_RADIUS * (z - 1.0))
    _refuse(z, np.isfinite(lhs), "left side is not finite")
    # scalar abs: numpy's array abs of a complex can differ in the last bit
    return lhs, rhs, np.array([abs(d) / abs(r) for d, r in zip(lhs - rhs, rhs)])


def _refuse(z, ok, what: str) -> None:
    if not ok.all():
        raise ValueError(f"the identity's {what} at z={z[~ok].tolist()}")


def equation3_terms(n: int, z_grid):
    """(lhs, rhs, relative residual) arrays of the identity
    (-1)^{n-1}/(n-1)! * d^{n-1}/dz^{n-1} S_Z(z) = (z^2-1)^{-n/2}
    where S_Z is the power-semicircle transform of parameter n; lhs is the
    computed left side."""
    PowerSemicircleParams(n)  # rejects n < 2
    sign = (-1.0) ** (n - 1) / math.factorial(n - 1)
    return _identity_terms(lambda z: (n - 1) / 2.0 * _power_semicircle_integral(n, z),
                           sign, n, z_grid)


def equation3_residual(n: int, z_grid) -> np.ndarray:
    """|LHS - RHS|/|RHS| of the identity of equation3_terms."""
    return equation3_terms(n, z_grid)[2]


def equation1_check(n: int, z_grid) -> np.ndarray:
    """Relative residual of the integral form of the same identity: the (n-1)-th
    derivative is applied to the raw integral, with the (n-1)/2 prefactor kept
    outside the derivative."""
    pref = (-1.0) ** (n - 1) / math.factorial(n - 1) * (n - 1) / 2.0
    return _identity_terms(functools.partial(_power_semicircle_integral, n), pref, n, z_grid)[2]
