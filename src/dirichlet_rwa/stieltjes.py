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


def _sqrt_branch(z: complex, c: float) -> complex:
    """sqrt(z^2 - c^2) with branch cut [-c, c] and ~z at infinity."""
    return np.sqrt(z - c) * np.sqrt(z + c)


def _check_off_support(z: complex):
    if z.imag == 0 and -1.0 <= z.real <= 1.0:
        raise SupportError(f"z={z} lies on the branch cut [-1, 1]")


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


def _gauss_legendre_01(f, z, atol: float = 1e-12, rtol: float = 1e-13, max_order: int = 2048):
    """Integrate f(., z) on [0,1] for every point of the 1-d complex array z
    by Gauss-Legendre with node doubling until two successive orders agree.

    f(x, zc) takes the nodes x, shape (q,), and a column zc, shape (m, 1), of
    the points still being integrated, and returns their (m, q) integrand
    values.  Each point keeps the value of the first order at which it
    converges; later orders evaluate only the points that have not.
    """
    z = np.asarray(z, dtype=complex)
    out = np.empty(z.shape, dtype=complex)
    todo = np.arange(z.size)
    prev = None
    order = 16
    err = math.inf
    while order <= max_order:
        x, weights = _gauss_legendre_nodes(order)
        val = 0.5 * np.sum(weights * f(x, z[todo, None]), axis=1)
        if prev is not None:
            diff = np.abs(val - prev)
            done = diff <= np.maximum(atol, rtol * np.abs(val))
            out[todo[done]] = val[done]
            if done.all():
                return out
            err = float(np.max(diff[~done]))
            todo, val = todo[~done], val[~done]
        prev = val
        order *= 2
    raise QuadratureError("quadrature did not converge on [0,1]", err)


def _power_semicircle_integral(n: int, z):
    """int_0^1 (1-t)^{(n-3)/2} (z^2-t)^{-1/2} dt via the substitution
    u = sqrt(1-t), which removes the endpoint singularity at t=1 for n=2.
    Evaluated for a complex scalar or every point of an array of any shape."""

    def integrand(u, zc):
        r = np.sqrt(1.0 - u * u)
        return 2.0 * u ** (n - 2) / (np.sqrt(zc - r) * np.sqrt(zc + r))

    z = np.asarray(z, dtype=complex)
    return _gauss_legendre_01(integrand, z.reshape(-1)).reshape(z.shape)[()]


def power_semicircle_transform(p: PowerSemicircleParams, z) -> complex:
    """Stieltjes transform of the power-semicircle law:
    (n-1)/2 * int_0^1 (1-t)^{(n-3)/2} (z^2-t)^{-1/2} dt.

    The (n-1)/2 coefficient is fixed by the normalization z*S(z) -> 1: the
    alternative (n-2)/2 would make the n=2 transform vanish identically.
    """
    z = complex(z)
    _check_off_support(z)
    return complex((p.n - 1) / 2.0 * _power_semicircle_integral(p.n, z))


def cauchy_derivative(f, z: float, order: int, radius: float,
                      rtol: float = 1e-9, max_nodes: int = 8192) -> complex:
    """order-th derivative of f at z via trapezoidal quadrature of the Cauchy
    integral on a circle of the given radius.

    f is a callable taking an ndarray of complex contour nodes and returning
    their values; all nodes of one trapezoid order are evaluated in one call.
    The closed disk must avoid the support [-1, 1], which is checked once for
    the whole disk rather than per node.  The trapezoid rule is spectrally
    accurate for periodic integrands; node counts double until two successive
    estimates agree within rtol relative.
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    if radius <= 0:
        raise ValueError("radius must be > 0")
    if z - radius <= 1.0 and (z + radius >= -1.0):
        raise SupportError(
            f"disk of radius {radius} about z={z} intersects the support [-1, 1]"
        )
    n_nodes = 32
    prev = None
    err = math.inf
    fact = math.factorial(order)
    while n_nodes <= max_nodes:
        theta = 2.0 * np.pi * np.arange(n_nodes) / n_nodes
        w = z + radius * np.exp(1j * theta)
        vals = f(w)
        est = fact / (n_nodes * radius**order) * np.sum(vals * np.exp(-1j * order * theta))
        if prev is not None:
            err = abs(est - prev)
            if err <= rtol * max(abs(est), 1e-300):
                return complex(est)
        prev = est
        n_nodes *= 2
    raise QuadratureError("contour derivative did not converge", err)


def _contour_radius(z: float) -> float:
    return min(z - 1.0 - GRID_STANDOFF, 1.0)


def _check_grid(z_grid):
    zs = [float(z) for z in np.atleast_1d(np.asarray(z_grid, dtype=float))]
    for z in zs:
        if z <= 1.0 + GRID_STANDOFF:
            raise ValueError(f"grid point {z} must exceed 1 + {GRID_STANDOFF}")
    return zs


def _identity_terms(f, pref: float, n: int, z_grid):
    """Computed left side pref * f^{(n-1)}(z), right side (z^2-1)^{-n/2} and
    residual |lhs - rhs| at each grid point."""
    zs = _check_grid(z_grid)
    lhs = np.empty(len(zs), dtype=complex)
    rhs = np.empty(len(zs), dtype=complex)
    resid = np.empty(len(zs))
    for i, z in enumerate(zs):
        left = pref * cauchy_derivative(f, z, n - 1, _contour_radius(z))
        right = _sqrt_branch(complex(z), 1.0) ** (-n)
        lhs[i], rhs[i], resid[i] = left, right, abs(left - right)
    return lhs, rhs, resid


def equation3_terms(n: int, z_grid):
    """(lhs, rhs, residual) arrays of the identity
    (-1)^{n-1}/(n-1)! * d^{n-1}/dz^{n-1} S_Z(z) = (z^2-1)^{-n/2}
    where S_Z is the power-semicircle transform of parameter n; lhs is the
    computed left side."""
    PowerSemicircleParams(n)  # rejects n < 2
    sign = (-1.0) ** (n - 1) / math.factorial(n - 1)

    def transform(z):
        return (n - 1) / 2.0 * _power_semicircle_integral(n, z)

    return _identity_terms(transform, sign, n, z_grid)


def equation3_residual(n: int, z_grid) -> np.ndarray:
    """|LHS - RHS| of the identity of equation3_terms."""
    return equation3_terms(n, z_grid)[2]


def equation1_check(n: int, z_grid) -> np.ndarray:
    """Residual of the integral form of the same identity: the (n-1)-th
    derivative is applied to the raw integral, with the (n-1)/2 prefactor kept
    outside the derivative."""
    pref = (-1.0) ** (n - 1) / math.factorial(n - 1) * (n - 1) / 2.0

    def raw(z):
        return _power_semicircle_integral(n, z)

    return _identity_terms(raw, pref, n, z_grid)[2]
