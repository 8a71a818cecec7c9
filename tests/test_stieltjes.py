import functools
import math
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy.integrate import quad

from dirichlet_rwa import stieltjes
from dirichlet_rwa.config import ScenarioConfig
from dirichlet_rwa.runner import STIELTJES_RTOL, run_scenario
from dirichlet_rwa.stieltjes import (
    _CONTOUR_RADIUS,
    PowerSemicircleParams,
    QuadratureError,
    SupportError,
    _gauss_legendre_nodes,
    _power_semicircle_integral,
    cauchy_derivative,
    equation1_check,
    equation3_residual,
    equation3_terms,
    power_semicircle_transform,
)


def arcsine_transform(z):
    """Reference Stieltjes transform of the arcsine law on [-1, 1],
    (z^2-1)^{-1/2} on the branch with cut [-1, 1], at a complex scalar or at
    every point of an array of contour nodes; rejects points on the support."""
    z = np.asarray(z, dtype=complex)
    if np.any((z.imag == 0) & (np.abs(z.real) <= 1.0)):
        raise SupportError("a point lies on the support [-1, 1]")
    return (1.0 / (np.sqrt(z - 1.0) * np.sqrt(z + 1.0)))[()]


def power_semicircle(n):
    """The power-semicircle transform as an array evaluator, the one that
    equation3_terms differentiates; no support check."""
    return lambda z: (n - 1) / 2.0 * _power_semicircle_integral(n, z)


def transform_moments(f, max_order, radius=3.0, n_nodes=512):
    """Reference moments m_j = (1/2 pi i) oint z^j S(z) dz on |z| = radius,
    for an array evaluator f of S; the circle must enclose the support."""
    if radius <= 1.0:
        raise SupportError(f"circle of radius {radius} does not enclose the support [-1, 1]")
    theta = 2.0 * np.pi * np.arange(n_nodes) / n_nodes
    vals = f(radius * np.exp(1j * theta))
    return np.array([
        (radius ** (j + 1) / n_nodes * np.sum(np.exp(1j * (j + 1) * theta) * vals)).real
        for j in range(max_order + 1)
    ])


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
    with pytest.raises(SupportError):
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


def test_branch_conjugate_symmetry():
    rng = np.random.default_rng(5)
    p3 = PowerSemicircleParams(3)
    fns = [arcsine_transform, lambda z: power_semicircle_transform(p3, z)]
    count = 0
    while count < 100:
        z = complex(rng.uniform(-4, 4), rng.uniform(-4, 4))
        if abs(z.imag) < 1e-3:
            continue
        for f in fns:
            assert f(np.conj(z)) == pytest.approx(np.conj(f(z)), abs=1e-12)
        count += 1


def test_herglotz_sign_upper_half_plane():
    rng = np.random.default_rng(6)
    p4 = PowerSemicircleParams(4)
    for _ in range(50):
        z = complex(rng.uniform(-3, 3), rng.uniform(0.3, 3))
        assert power_semicircle_transform(p4, z).imag < 0
        assert arcsine_transform(z).imag < 0


def test_stieltjes_fn_rejects_support():
    for z in (0.3, -1.0, 1.0):
        with pytest.raises(SupportError):
            power_semicircle_transform(PowerSemicircleParams(3), z)


def test_cauchy_derivative_identity_case():
    v = cauchy_derivative(arcsine_transform, 2.0, 0, 0.5)
    assert v == pytest.approx(1 / math.sqrt(3), abs=1e-10)


def test_cauchy_derivative_first_order():
    v = cauchy_derivative(arcsine_transform, 2.0, 1, 0.5)
    assert v == pytest.approx(-2 / 3**1.5, abs=1e-9)


def test_cauchy_derivative_uniform_first_order():
    # -d/dz of the uniform transform is 1/(z^2-1)
    v = cauchy_derivative(power_semicircle(2), 2.0, 1, 0.5)
    assert -v == pytest.approx(1 / 3, abs=1e-9)


def test_cauchy_derivative_radius_independence():
    for order in (1, 2, 3):
        a = cauchy_derivative(arcsine_transform, 2.5, order, 1.0)
        b = cauchy_derivative(arcsine_transform, 2.5, order, 0.5)
        assert abs(a - b) <= 1e-8 * max(abs(a), abs(b))


def test_cauchy_derivative_disk_hits_support():
    with pytest.raises(SupportError):
        cauchy_derivative(arcsine_transform, 1.5, 1, 0.75)


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


def test_grid_standoff_enforced():
    with pytest.raises(ValueError):
        equation3_residual(2, [1.1])


def test_n2_moments_match_rescaled_uniform():
    # law for n=2 is uniform on [-1,1]: even moments 1/(m+1), odd 0;
    # this is the affine rescaling of Dirichlet(1,1) to [-1,1]
    m = transform_moments(power_semicircle(2), 6)
    assert m[0] == pytest.approx(1.0, abs=1e-8)
    for j in range(1, 7):
        exact = 1.0 / (j + 1) if j % 2 == 0 else 0.0
        assert m[j] == pytest.approx(exact, abs=1e-8)


def test_n3_moments_match_semicircle():
    # Wigner semicircle on [-1,1]: E[x^2] = 1/4, E[x^4] = 1/8
    m = transform_moments(power_semicircle(3), 4)
    assert m[2] == pytest.approx(0.25, abs=1e-8)
    assert m[4] == pytest.approx(0.125, abs=1e-8)


# Scalar-loop references for the broadcast quadrature: one point per call and
# the node-doubling loops as they read before the nodes were cached.  The
# broadcast code does the same arithmetic, so equality is required bit for bit.


@functools.lru_cache(maxsize=None)
def _leggauss(order):
    return np.polynomial.legendre.leggauss(order)


def _scalar_gauss_legendre_01(f, atol=1e-12, rtol=1e-13, max_order=2048):
    prev = None
    order = 16
    while order <= max_order:
        nodes, weights = _leggauss(order)
        x = 0.5 * (nodes + 1.0)
        val = 0.5 * np.sum(weights * f(x))
        if prev is not None and abs(val - prev) <= max(atol, rtol * abs(val)):
            return val
        prev = val
        order *= 2
    raise AssertionError("reference quadrature did not converge")


def _scalar_power_semicircle(n, z):
    def integrand(u):
        r = np.sqrt(1.0 - u * u)
        return 2.0 * u ** (n - 2) / (np.sqrt(z - r) * np.sqrt(z + r))

    return (n - 1) / 2.0 * _scalar_gauss_legendre_01(integrand)


def _scalar_cauchy_derivative(ev, z, order, radius, rtol=1e-9, max_nodes=8192,
                              max_roundoff=1e-8):
    n_nodes = max(32, 2 ** order.bit_length())
    prev = None
    fact = math.factorial(order)
    while n_nodes <= max_nodes:
        theta = 2.0 * np.pi * np.arange(n_nodes) / n_nodes
        w = z + radius * np.exp(1j * theta)
        vals = np.asarray([ev(complex(wi)) for wi in w])
        est = fact / (n_nodes * radius**order) * np.sum(vals * np.exp(-1j * order * theta))
        if prev is not None and abs(est - prev) <= rtol * abs(est):
            roundoff = 64 * np.finfo(float).eps * fact / radius**order * np.max(np.abs(vals))
            if roundoff > max_roundoff * abs(est):
                raise AssertionError("reference contour derivative is below its round-off")
            return complex(est)
        prev = est
        n_nodes *= 2
    raise AssertionError("reference contour derivative did not converge")


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_broadcast_quadrature_matches_scalar_loop_bitwise(n):
    zs = np.array([1.5, 2.0, 5.0, 1e3, 2.5 + 0.75j, -1.2 - 0.3j, 0.2 + 1j, 3j])
    got = power_semicircle(n)(zs)
    want = np.array([_scalar_power_semicircle(n, complex(z)) for z in zs])
    assert got.shape == zs.shape
    assert np.array_equal(got, want)
    for z, w in zip(zs, want):
        if z.imag != 0 or abs(z.real) > 1:
            assert power_semicircle_transform(PowerSemicircleParams(n), z) == w


@pytest.mark.parametrize("n, z", [(2, 1.5), (2, 5.0), (3, 2.0), (3, 3.0), (4, 2.0), (5, 100.0)])
def test_broadcast_cauchy_derivative_matches_scalar_loop_bitwise(n, z):
    radius = _CONTOUR_RADIUS * (z - 1.0)
    got = cauchy_derivative(power_semicircle(n), z, n - 1, radius)
    want = _scalar_cauchy_derivative(
        lambda w: _scalar_power_semicircle(n, w), z, n - 1, radius
    )
    assert got == want
    # the left side that equation3_terms reports is the same number
    sign = (-1.0) ** (n - 1) / math.factorial(n - 1)
    assert equation3_terms(n, [z])[0][0] == sign * want


@pytest.mark.parametrize("n, z", [(40, 2.0), (80, 2.0), (100, 5.0)])
def test_cauchy_derivative_below_its_round_off_does_not_converge(n, z):
    # Here the derivative is below the round-off of the contour sum (and at
    # n = 80, 32 or 64 nodes would alias a lower coefficient onto it): the
    # estimates agree on noise, which must not count as convergence.
    with pytest.raises(QuadratureError, match="did not converge"):
        cauchy_derivative(power_semicircle(n), z, n - 1, _CONTOUR_RADIUS * (z - 1.0))


def test_converged_contour_sum_below_its_round_off_is_refused():
    # At n = 17, z = 2 two node counts agree to 1e-9, but the round-off of
    # the sum is above 1e-8 of the value: the point is refused, not judged.
    with pytest.raises(QuadratureError, match=r"at z=\[2.0\] did not converge above its round-off"):
        equation3_terms(17, [2.0, 3.0])


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


def test_cauchy_derivative_takes_array_evaluator():
    calls = []

    def ev(w):
        calls.append(np.shape(w))
        return 1.0 / (w * w)

    v = cauchy_derivative(ev, 3.0, 1, 1.0)
    assert isinstance(v, complex)
    assert v == pytest.approx(-2.0 / 27.0, rel=1e-9)
    assert calls and all(len(shape) == 2 and shape[0] == 1 and shape[1] >= 32
                         for shape in calls)
    # a grid goes to the evaluator whole: one (m, N) array per node count
    calls.clear()
    z = np.array([2.0, 3.0, 5.0])
    v = cauchy_derivative(ev, z, 1, np.array([0.5, 1.0, 1.0]))
    assert v.shape == z.shape
    assert np.allclose(v, -2.0 / z**3, rtol=1e-9, atol=0)
    assert calls[0] == (3, 32)
    assert all(len(shape) == 2 and 1 <= shape[0] <= 3 and shape[1] >= 32 for shape in calls)
    assert [shape[1] for shape in calls] == [32 * 2**i for i in range(len(calls))]


@pytest.mark.parametrize("n, order", [(2, 0), (2, 1), (3, 2), (4, 3)])
def test_cauchy_derivative_on_a_grid_matches_scalar_loop_bitwise(n, order):
    # The evaluator is the power-semicircle integral, whose values at a node
    # do not depend on the shape of the node array; numpy's SIMD complex
    # arithmetic can make those of a closed form such as arcsine_transform do.
    z = np.array([[1.3, 1.5, 2.0], [3.0, 5.0, -2.5]])
    radius = _CONTOUR_RADIUS * (np.abs(z) - 1.0)
    got = cauchy_derivative(power_semicircle(n), z, order, radius)
    want = [_scalar_cauchy_derivative(power_semicircle(n), zi, order, ri)
            for zi, ri in zip(z.ravel().tolist(), radius.ravel().tolist())]
    assert got.shape == z.shape
    assert got.tobytes() == np.array(want).reshape(z.shape).tobytes()
    # a scalar radius broadcasts over the grid
    got = cauchy_derivative(power_semicircle(n), [2.0, 3.0], order, 0.5)
    want = [_scalar_cauchy_derivative(power_semicircle(n), zi, order, 0.5) for zi in (2.0, 3.0)]
    assert got.tobytes() == np.array(want).tobytes()


def test_cauchy_derivative_rejects_any_disk_on_the_support():
    with pytest.raises(SupportError, match="z=1.5"):
        cauchy_derivative(arcsine_transform, [3.0, 1.5], 1, [1.0, 0.75])
    with pytest.raises(ValueError, match="radius"):
        cauchy_derivative(arcsine_transform, [3.0, 4.0], 1, [1.0, 0.0])


def _scalar_identity_terms(n, grid, integral_form):
    """The per-point loop that equation3_terms (integral_form False) and
    equation1_check (True) ran before the grid went to cauchy_derivative
    whole: one contour derivative, right side and relative residual per
    point."""
    pref = (-1.0) ** (n - 1) / math.factorial(n - 1)
    if integral_form:
        pref = pref * (n - 1) / 2.0
        ev = functools.partial(_power_semicircle_integral, n)
    else:
        ev = power_semicircle(n)
    lhs, rhs, resid = [], [], []
    for z in grid:
        left = pref * _scalar_cauchy_derivative(ev, z, n - 1, _CONTOUR_RADIUS * (z - 1.0))
        right = (np.sqrt(complex(z) - 1.0) * np.sqrt(complex(z) + 1.0)) ** (-n)
        lhs.append(left)
        rhs.append(right)
        resid.append(abs(left - right) / abs(right))
    return np.array(lhs), np.array(rhs), np.array(resid)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_identity_terms_on_a_grid_match_scalar_loop_bitwise(n):
    # n = 4 at z = 2 is a point where np.abs of the complex difference and
    # the scalar abs differ in the last bit; at z = 1.314 and 1.323 numpy's
    # array power of the radius differs from Python's pow for orders 4 and 3.
    grid = [1.3, 1.314, 1.323, 1.5, 2.0, 3.0, 5.0]
    lhs, rhs, r3 = equation3_terms(n, grid)
    want = _scalar_identity_terms(n, grid, integral_form=False)
    for got, ref in zip((lhs, rhs, r3), want):
        assert got.tobytes() == ref.tobytes()
    assert equation3_residual(n, grid).tobytes() == want[2].tobytes()
    r1 = equation1_check(n, grid)
    assert r1.tobytes() == _scalar_identity_terms(n, grid, integral_form=True)[2].tobytes()


TABLE_Z = [1.2501, 1.26, 1.3, 1.4, 1.5, 1.75, 2, 2.5, 3, 4, 5, 7, 10, 30, 100, 1e3, 1e4, 1e6]


def test_every_point_meets_the_bound_or_is_refused():
    # No point reads FAIL: each either meets the one relative bound on both
    # forms or raises QuadratureError, because its contour sum is noise.
    judged = set()
    for n in (2, 4, 7, 10, 16, 23, 31, 40):
        for z in TABLE_Z:
            try:
                worst = max(equation3_residual(n, [z])[0], equation1_check(n, [z])[0])
            except QuadratureError:
                continue
            assert worst <= STIELTJES_RTOL, (n, z, worst)
            judged.add((n, z))
    # every point is judged up to n = 10, and every order from z = 100 on
    assert {(n, z) for n in (2, 4, 7, 10) for z in TABLE_Z} <= judged
    assert {(n, z) for n in (16, 23, 31, 40) for z in (100, 1e3, 1e4, 1e6)} <= judged


def test_right_side_moved_by_1e_6_fails_the_record(monkeypatch):
    # A left side divided by 1 + 1e-6 gives the relative residual of a right
    # side moved by 1e-6 relative; at n = 4, z = 5 both sides are about
    # 1.7e-3, so an absolute bound of 1e-6 would pass it.
    sc = ScenarioConfig("s", "stieltjes", 1, {"orders": [4], "grid": [5.0]})
    assert run_scenario(sc, "h")["overall_pass"]
    derivative = stieltjes.cauchy_derivative
    monkeypatch.setattr(stieltjes, "cauchy_derivative",
                        lambda *args: derivative(*args) / (1 + 1e-6))
    tests = run_scenario(sc, "h")["tests"]
    assert [t["pass"] for t in tests if t["kind"] == "derivative-identity"] == [False, False]


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


def test_transform_moments_circle_must_enclose_support():
    with pytest.raises(SupportError):
        transform_moments(power_semicircle(3), 2, radius=0.9)

