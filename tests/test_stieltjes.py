import functools
import math
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy.integrate import quad

from dirichlet_rwa import stieltjes
from dirichlet_rwa.config import ScenarioConfig, parse_config
from dirichlet_rwa.runner import STIELTJES_RTOL, run_scenario
from dirichlet_rwa.stieltjes import (
    PowerSemicircleParams,
    QuadratureError,
    _gauss_legendre_nodes,
    equation1_check,
    equation3_residual,
    equation3_terms,
    power_semicircle_transform,
)


def arcsine_transform(z):
    """Reference Stieltjes transform of the arcsine law on [-1, 1],
    (z^2-1)^{-1/2} on the branch with cut [-1, 1], at a real or complex scalar;
    rejects points on the support."""
    z = complex(z)
    if z.imag == 0 and abs(z.real) <= 1.0:
        raise ValueError("a point lies on the support [-1, 1]")
    return 1.0 / (np.sqrt(z - 1.0) * np.sqrt(z + 1.0))


def semicircle_transform(z):
    # closed form for n=3: 2(z - sqrt(z^2 - 1))
    return 2 * (z - np.sqrt(z - 1) * np.sqrt(z + 1))


def uniform_transform(z):
    # closed form for n=2: (1/2) log((z+1)/(z-1))
    return 0.5 * np.log((z + 1) / (z - 1))


def test_arcsine_values():
    assert arcsine_transform(2) == pytest.approx(1 / math.sqrt(3))
    z = 1e3
    assert abs(arcsine_transform(z) * z - 1) < 1e-6  # ~1/z to 1e-6 relative


def test_arcsine_on_support_raises():
    with pytest.raises(ValueError, match="support"):
        arcsine_transform(0.5)


def test_arcsine_herglotz_with_quadrature_oracle():
    z = 1.25j
    val = arcsine_transform(z)
    assert val.imag < 0

    # oracle: integrate (z - x)^-1 against the arcsine density
    def re_part(theta):
        x = math.sin(theta)
        return ((z - x) ** -1).real / math.pi

    def im_part(theta):
        x = math.sin(theta)
        return ((z - x) ** -1).imag / math.pi

    re, _ = quad(re_part, -math.pi / 2, math.pi / 2, epsabs=1e-12)
    im, _ = quad(im_part, -math.pi / 2, math.pi / 2, epsabs=1e-12)
    assert val == pytest.approx(complex(re, im), abs=1e-9)


def test_power_semicircle_n3_is_semicircle():
    p = PowerSemicircleParams(3)
    for z in (1.5, 2.0, 3.0, 5.0):
        assert power_semicircle_transform(p, z) == pytest.approx(
            semicircle_transform(z), abs=1e-10
        )


def test_power_semicircle_n2_is_uniform():
    p = PowerSemicircleParams(2)
    for z in (1.5, 2.0, 3.0):
        assert power_semicircle_transform(p, z) == pytest.approx(
            uniform_transform(z), abs=1e-10
        )


@pytest.mark.parametrize("n", [2, 3, 4, 6])
def test_normalization_far_field(n):
    p = PowerSemicircleParams(n)
    for z in (10.0, 1e3, 1e6):
        assert abs(z * power_semicircle_transform(p, z) - 1) <= 2.0 / z


def test_params_validation():
    with pytest.raises(ValueError):
        PowerSemicircleParams(1)


def test_stieltjes_fn_rejects_support():
    # the transform is evaluated at real z > 1 only, the points judged
    for z in (0.3, -1.0, 1.0, -2.0):
        with pytest.raises(ValueError, match="grid point"):
            power_semicircle_transform(PowerSemicircleParams(3), z)


def test_equation3_residuals():
    assert np.max(equation3_residual(2, [1.5, 2, 3, 5])) < 1e-8
    assert np.max(equation3_residual(3, [1.5, 2, 3, 5])) < 1e-8
    assert np.max(equation3_residual(4, [1.5, 2, 3])) < 1e-8


def test_equation1_residuals():
    assert np.max(equation1_check(2, [1.5, 2, 3])) < 1e-8
    assert np.max(equation1_check(3, [1.5, 2, 3])) < 1e-8


def test_equation1_far_field_both_sides_small():
    # both sides are about 1e-6; the residual is relative to the right side
    assert equation1_check(2, [1e3])[0] < 1e-8


# Scalar-loop reference for the broadcast transform quadrature: one point per
# call and the node-doubling loop as it read before the nodes were cached.  The
# broadcast code does the same arithmetic, so equality is required bit for bit.


@functools.lru_cache(maxsize=None)
def _leggauss(order):
    return np.polynomial.legendre.leggauss(order)


def _scalar_gauss_legendre_01(f, rtol=1e-12, max_order=2048):
    prev = None
    order = 16
    while order <= max_order:
        nodes, weights = _leggauss(order)
        x = 0.5 * (nodes + 1.0)
        val = 0.5 * np.sum(weights * f(x))
        if prev is not None and abs(val - prev) <= rtol * abs(val):
            return val
        prev = val
        order *= 2
    raise AssertionError("reference quadrature did not converge")


def _scalar_power_semicircle(n, z):
    def integrand(u):
        r = np.sqrt(1.0 - u * u)
        return 2.0 * u ** (n - 2) / (np.sqrt(z - r) * np.sqrt(z + r))

    return (n - 1) / 2.0 * _scalar_gauss_legendre_01(integrand)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_broadcast_quadrature_matches_scalar_loop_bitwise(n):
    zs = np.array([1.5, 2.0, 5.0, 1e3])
    got = power_semicircle_transform(PowerSemicircleParams(n), zs)
    want = np.array([_scalar_power_semicircle(n, z) for z in zs.tolist()])
    assert got.shape == zs.shape
    assert np.array_equal(got, want)
    for z, w in zip(zs.tolist(), want):
        assert power_semicircle_transform(PowerSemicircleParams(n), z) == w


def test_gauss_legendre_nodes_cached_read_only():
    x, weights = _gauss_legendre_nodes(64)
    assert _gauss_legendre_nodes(64)[0] is x
    assert not x.flags.writeable and not weights.flags.writeable
    assert np.all((x > 0) & (x < 1)) and weights.sum() == pytest.approx(2.0, abs=1e-14)


def test_node_table_shared_by_concurrent_threads():
    # More threads than cores, a short switch interval and an empty table:
    # every thread must get the residuals of a serial run, bit for bit.
    want = equation3_residual(3, [1.5, 2.0, 3.0])
    _gauss_legendre_nodes.cache_clear()
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=6) as pool:
            futures = [
                pool.submit(equation3_residual, 3, [1.5, 2.0, 3.0]) for _ in range(12)
            ]
            results = [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(old)
    assert all(np.array_equal(r, want) for r in results)
    assert _gauss_legendre_nodes.cache_info().currsize <= 8


MIXED_GRID = [1.01, 1.2501, 1.5, 2.0, 3.0, 10.0, 1e3, 1e6]


@pytest.mark.parametrize("n", [2, 3, 4, 5, 40, 200])
def test_identity_terms_on_a_grid_match_scalar_loop_bitwise(n):
    # Reports do not depend on the grid's composition: the terms of each
    # point of a mixed grid are those of a call on that point alone.  The
    # grid keeps the points whose right side (z^2-1)^{-n/2} is a normal number.
    grid = [z for z in MIXED_GRID if n * math.log10(z) < 300]
    terms = equation3_terms(n, grid)
    alone = [equation3_terms(n, [z]) for z in grid]
    for got, want in zip(terms, zip(*alone)):
        assert got.tobytes() == np.concatenate(want).tobytes()
    assert equation3_residual(n, grid).tobytes() == terms[2].tobytes()
    r1 = np.concatenate([equation1_check(n, [z]) for z in grid])
    assert equation1_check(n, grid).tobytes() == r1.tobytes()
    # one transform call on the grid is the per-point scalar calls
    p = PowerSemicircleParams(n)
    scalar = [power_semicircle_transform(p, z) for z in grid]
    assert all(type(v) is float for v in scalar)
    assert power_semicircle_transform(p, np.array(grid)).tobytes() == np.array(scalar).tobytes()


TABLE_Z = [1.2501, 1.26, 1.3, 1.4, 1.5, 1.75, 2, 2.5, 3, 4, 5, 7, 10, 30, 100, 1e3, 1e4, 1e6]


def test_every_point_meets_the_bound_or_is_refused():
    # Every point of the table is judged, on both records, at every order
    # from 2 to 40, near the support and far from it; none is refused, and
    # each is 1e4 times below the bound.
    for n in range(2, 41):
        worst = max(np.max(equation3_residual(n, TABLE_Z)), np.max(equation1_check(n, TABLE_Z)))
        assert worst <= 1e-4 * STIELTJES_RTOL, (n, worst)


def test_right_side_moved_by_1e_6_fails_the_record(monkeypatch):
    # A kernel E[(z - X)^{-p}] divided by 1 + 1e-6 gives the relative residual
    # of a right side moved by 1e-6 relative on both records; at n = 4, z = 5
    # both sides are about 1.7e-3, so an absolute bound of 1e-6 would pass it.
    sc = ScenarioConfig("s", "stieltjes", 1, {"orders": [4], "grid": [5.0]})
    assert run_scenario(sc, "h")["overall_pass"]
    kernel = stieltjes._inverse_moment
    monkeypatch.setattr(stieltjes, "_inverse_moment", lambda *args: kernel(*args) / (1 + 1e-6))
    tests = run_scenario(sc, "h")["tests"]
    assert [t["pass"] for t in tests if t["kind"] == "derivative-identity"] == [False, False]


def test_coefficient_n_minus_2_over_2_fails_the_integral_record(monkeypatch):
    # The (n-2)/2 variant of the transform's coefficient misses E[1/(z - X)]
    # by 1/(n-1) at every order, so the integral record fails; the identity
    # record judges E[(z - X)^{-n}] and still passes.
    transform = stieltjes.power_semicircle_transform
    monkeypatch.setattr(stieltjes, "power_semicircle_transform",
                        lambda p, z: transform(p, z) * (p.n - 2) / (p.n - 1))
    sc = ScenarioConfig("s", "stieltjes", 1, {"orders": [2, 3, 4, 7], "grid": [1.5, 2.0, 5.0]})
    records = [t for t in run_scenario(sc, "h")["tests"] if t["kind"] == "derivative-identity"]
    assert [(t["n"], t["form"]) for t in records if t["pass"]] == [
        (n, "transform") for n in (2, 3, 4, 7)]
    for t in records:
        if t["form"] == "integral":
            # the three grid points and the three far-field points
            assert t["grid"] == [1.5, 2.0, 5.0, 10.0, 1e3, 1e6]
            assert t["residuals"] == pytest.approx([1.0 / (t["n"] - 1)] * 6, rel=1e-12)


def test_far_field_transform_moved_by_1e_6_fails_the_integral_record(monkeypatch):
    # A transform 1e-6 relative off at |z| >= 10 only, beyond every point of
    # the default grid: the integral record judges it at z = 10, 1e3 and 1e6,
    # where a bound of 2/z on |z S(z) - 1| would pass it.
    sc, = parse_config({"format_version": 1, "output_dir": "r", "scenarios": [
        {"id": "stieltjes", "kind": "stieltjes", "seed": 1}]}).scenarios
    assert max(sc.params["grid"]) < 10
    report = run_scenario(sc, "h")
    assert report["overall_pass"]
    transform = stieltjes.power_semicircle_transform
    monkeypatch.setattr(stieltjes, "power_semicircle_transform",
                        lambda p, z: transform(p, z) * (1 + 1e-6 * (abs(z) >= 10)))
    tests = run_scenario(sc, "h")["tests"]
    assert [(t["form"], t["pass"]) for t in tests] == [
        (form, form == "transform") for n in (2, 3, 4) for form in ("transform", "integral")]
    for t in tests[1::2]:
        assert max(t["residuals"][-3:]) == pytest.approx(1e-6, rel=1e-6)


def test_unconverged_points_are_named():
    # n = 40 at z = 1.000001: the kernel peaks near theta = 0.0014, and 1024
    # and 2048 nodes still differ by 2.5e-8 relative.  The error names that
    # point, not the converged ones.
    with pytest.raises(QuadratureError, match=r"did not converge at z=\[1\.000001\] "):
        equation3_terms(40, [2.0, 1.000001, 3.0])
    # n = 2 at z = 1 + 1e-9: the transform's integrand peaks at u = 0 and
    # 1024 and 2048 nodes still differ by 7.7e-10 relative.
    with pytest.raises(QuadratureError, match=r"did not converge on \[0,1\] at z=\[1\.000000001\]"):
        power_semicircle_transform(PowerSemicircleParams(2), [2.0, 1 + 1e-9])


@pytest.mark.parametrize("grid", [[np.nan], [2.0, np.inf]])
def test_grid_rejects_non_finite_points(grid):
    with pytest.raises(ValueError, match="grid point"):
        equation3_terms(3, grid)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                            "ignore:invalid value encountered:RuntimeWarning")
def test_non_finite_identity_terms_raise():
    # at z = 1e308 the right side (z^2-1)^{-3/2} is not finite
    with pytest.raises(ValueError, match="not finite"):
        equation3_terms(3, [2.0, 1e308])
    with pytest.raises(ValueError, match="not finite"):
        equation1_check(3, [1e308])
