"""Stieltjes transforms on [-1, 1] and the power-semicircle identity.

Implements the power-semicircle transform (n=2 uniform, n=3 Wigner
semicircle) and residuals of the differential identity relating the (n-1)-th
derivative of that transform to (z^2-1)^{-n/2}, in real arithmetic at real
z > 1, the only points judged.  Differentiating S(z) = E[1/(z - X)] under the
integral sign turns the identity's left side into E[(z - X)^{-n}], a positive
integral there, so no numerical derivative is taken.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "PowerSemicircleParams",
    "QuadratureError",
    "power_semicircle_transform",
    "equation3_terms",
    "equation3_residual",
    "equation1_check",
]


class QuadratureError(RuntimeError):
    pass


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
    """Gauss-Legendre nodes x mapped to [0,1], their weights, and sin(pi x)
    and cos(pi x) by math.sin and math.cos, not numpy's SIMD loops; computed
    once per order and shared read-only.  The node-doubling loop asks for 16,
    32, ..., 2048, so the table holds at most eight entries; an entry is
    stored only once complete, so concurrent callers never see one half-built."""
    nodes, weights = np.polynomial.legendre.leggauss(order)
    x = 0.5 * (nodes + 1.0)
    angles = (np.pi * x).tolist()
    table = (x, weights, np.array([math.sin(a) for a in angles]),
             np.array([math.cos(a) for a in angles]))
    for a in table:
        a.flags.writeable = False
    return table


def _power(x: np.ndarray, n: int) -> np.ndarray:
    """x**n for an integer n >= 0 by squaring: the same correctly rounded
    multiplications in the same order for every n, where numpy's power may
    take a different SIMD loop on another CPU."""
    out = np.ones_like(x)
    while n:
        if n & 1:
            out = out * x
        n >>= 1
        if n:
            x = x * x
    return out


# Gauss-Legendre orders double from 16 to _GL_MAX_ORDER until two agree to
# _GL_RTOL relative.  numpy's weights near the ends of [0,1] are good to about
# 1e-13 at high orders, where the transform's u^{n-2} puts its mass for large
# n: at n = 150 consecutive orders differ by 1.5e-13 however many nodes.
_GL_RTOL, _GL_MAX_ORDER = 1e-12, 2048


def _node_doubling(estimate, z: np.ndarray, what: str) -> np.ndarray:
    """Estimates at the points of the flat array z from Gauss-Legendre orders
    16, 32, ..., _GL_MAX_ORDER.

    estimate(order, zs) returns the estimates at the points zs, an (m, 1)
    array of those not yet converged.  Each point keeps the value of the first
    order at which it agrees with the previous one within _GL_RTOL relative;
    QuadratureError names the points that never do and their largest relative
    disagreement.
    """
    out, todo = np.empty_like(z), np.arange(z.size)
    prev, order, err = None, 16, math.inf
    while order <= _GL_MAX_ORDER:
        val = estimate(order, z[todo, None])
        if prev is not None:
            diff = np.abs(val - prev)
            done = diff <= _GL_RTOL * np.abs(val)
            out[todo[done]] = val[done]
            if done.all():
                return out
            with np.errstate(divide="ignore", invalid="ignore"):
                err = float(np.max(diff[~done] / np.abs(val[~done])))
            todo, val = todo[~done], val[~done]
        prev = val
        order *= 2
    raise QuadratureError(f"{what} at z={z[todo].tolist()} (achieved tolerance {err:.3e})")


def power_semicircle_transform(p: PowerSemicircleParams, z):
    """Stieltjes transform E[1/(z - X)] of the power-semicircle law at real
    z > 1: (n-1)/2 * int_0^1 (1-t)^{(n-3)/2} (z^2-t)^{-1/2} dt, a float at a
    scalar z and an array at a 1-d array of points.

    The substitution u = sqrt(1-t) removes the endpoint singularity at t=1
    for n=2.  The (n-1)/2 coefficient is the one at which this integral
    equals E[1/(z - X)], which equation1_check judges; the alternative
    (n-2)/2 would make the n=2 transform vanish identically.
    """
    n, zs = p.n, _check_grid(z)

    def estimate(order, zc):
        u, weights = _gauss_legendre_nodes(order)[:2]
        r = np.sqrt(1.0 - u * u)
        vals = 2.0 * _power(u, n - 2) / (np.sqrt(zc - r) * np.sqrt(zc + r))
        return 0.5 * np.sum(weights * vals, axis=1)

    out = (n - 1) / 2.0 * _node_doubling(estimate, zs, "quadrature did not converge on [0,1]")
    return float(out[0]) if np.ndim(z) == 0 else out


def _inverse_moment(n: int, p: int, z: np.ndarray) -> np.ndarray:
    """E[(z - X)^{-p}], 1 <= p <= n, for X of the power-semicircle law of
    parameter n, at each real point of z (all > 1).

    With x = cos(theta) the law is sin^{n-1}(theta) dtheta on [0, pi] up to its
    normalization, which dividing by the same rule's integral of sin^{n-1}
    removes.  With s = sin(theta) and d = z - cos(theta) the integrand is
    written (s/d)^{p-1} * s^{n-p} / d: s/d <= (z^2-1)^{-1/2}, so no factor
    overflows where the mean is finite.
    """
    def estimate(order, zs):
        _, weights, s, cos = _gauss_legendre_nodes(order)
        d = zs - cos
        vals = _power(s / d, p - 1) * _power(s, n - p) / d
        return np.sum(weights * vals, axis=1) / np.sum(weights * _power(s, n - 1))

    return _node_doubling(estimate, z, f"quadrature of E[(z - X)^-{p}] did not converge")


def _check_grid(z_grid) -> np.ndarray:
    z = np.atleast_1d(np.asarray(z_grid, dtype=float))
    for v in z.tolist():
        if not (1.0 < v < math.inf):
            raise ValueError(f"grid point {v} must be finite and exceed 1")
    return z


def _normal(z, values, what: str) -> np.ndarray:
    """values, if each is a finite normal number: a reference value that is
    zero, subnormal or not finite has no relative residual."""
    ok = np.isfinite(values) & (np.abs(values) >= np.finfo(float).tiny)
    if not ok.all():
        raise ValueError(f"{what} is zero, subnormal or not finite at z={z[~ok].tolist()}")
    return values


def _relative_residuals(got, want) -> np.ndarray:
    return np.abs(got - want) / np.abs(want)


def equation3_terms(n: int, z_grid):
    """(lhs, rhs, relative residual) arrays of the identity
    (-1)^{n-1}/(n-1)! * d^{n-1}/dz^{n-1} S(z) = (z^2-1)^{-n/2}
    where S(z) = E[1/(z - X)] is the power-semicircle transform of parameter
    n; lhs is the computed left side E[(z - X)^{-n}]."""
    PowerSemicircleParams(n)  # rejects n < 2
    z = _check_grid(z_grid)
    with np.errstate(over="ignore"):
        rhs = _normal(z, 1.0 / _power(np.sqrt(z - 1.0) * np.sqrt(z + 1.0), n),
                      "the identity's right side")
    lhs = _inverse_moment(n, n, z)
    return lhs, rhs, _relative_residuals(lhs, rhs)


def equation3_residual(n: int, z_grid) -> np.ndarray:
    """|LHS - RHS|/|RHS| of the identity of equation3_terms."""
    return equation3_terms(n, z_grid)[2]


def equation1_check(n: int, z_grid) -> np.ndarray:
    """Relative residual of the transform's integral, power_semicircle_transform,
    against E[1/(z - X)] under the law whose identity equation3_terms judges:
    it fixes the (n-1)/2 coefficient of the transform being differentiated."""
    p = PowerSemicircleParams(n)
    z = _check_grid(z_grid)
    mean = _normal(z, _inverse_moment(n, 1, z), "E[1/(z - X)]")
    return _relative_residuals(power_semicircle_transform(p, z), mean)
