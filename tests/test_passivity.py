from __future__ import annotations

import math

import numpy as np
import pytest

from plugnet.errors import EstimatorError, PlugnetError, RealizationError
from plugnet.passivity import (
    LtiSystem,
    _verify_realization,
    estimate_ifp_index,
    evaluate_coupling,
    linear_gain,
    polynomial_response,
    realize,
    saturated_sine,
    saturated_sine_smooth,
    tabulated,
    verify_sector,
)


# --- realization ---------------------------------------------------------------


def test_realize_first_order_lag():
    sys = realize([1], [1, 1])
    assert sys.a.tolist() == [[-1.0]]
    assert sys.b.tolist() == [1.0]
    assert sys.c.tolist() == [1.0]
    assert sys.d == 0.0


def test_realize_type_one_second_order():
    # H(s) = (s+1)/(s(s+0.7)); response at s=j checked against the direct
    # complex evaluation (1+j)/(j(0.7+j))
    sys = realize([1, 1], [1, 0.7, 0])
    assert sys.order == 2
    expected = (1 + 1j) / (1j * (0.7 + 1j))
    got = sys.response(1j)[0]
    assert abs(got - expected) <= 1e-12 * abs(expected)


def test_realize_static_gain_has_empty_state():
    sys = realize([2], [1])
    assert sys.order == 0
    assert sys.a.shape == (0, 0)
    assert sys.d == 2.0


def test_realize_rejects_improper():
    with pytest.raises(RealizationError):
        realize([1, 0, 0], [1, 1])


def test_realize_rejects_zero_denominator():
    with pytest.raises(RealizationError):
        realize([1], [0])


@pytest.mark.parametrize("num, den", [
    (["a", 1], [1, 1]),
    ([1], [1, {}]),
    ([[1, 2]], [1, 1, 1]),
    ([1, math.nan], [1, 1]),
    ([1], [math.inf, 1]),
], ids=["text", "object", "nested", "nan", "inf"])
def test_realize_rejects_bad_coefficients(num, den):
    with pytest.raises(RealizationError, match="coefficients must be"):
        realize(num, den)


def test_realize_normalizes_leading_coefficient():
    sys = realize([2], [2, 4])
    assert sys.den == (1.0, 2.0)
    assert sys.num == (1.0,)


def test_realize_cancels_exact_common_roots():
    # (s+1)/((s+1)(s+2)) -> 1/(s+2)
    sys = realize([1, 1], np.convolve([1, 1], [1, 2]))
    assert sys.order == 1
    got = sys.response(1j * 0.3)[0]
    assert abs(got - 1 / (1j * 0.3 + 2)) < 1e-10


def test_realize_round_trip_random_stable_systems():
    rng = np.random.default_rng(7)
    for _ in range(25):
        order = int(rng.integers(1, 6))
        poles = -rng.uniform(0.1, 3.0, size=order)
        den = np.poly(poles)
        num = rng.standard_normal(int(rng.integers(1, order + 1)))
        num[0] = num[0] if num[0] != 0 else 1.0
        sys = realize(num, den)
        w = rng.uniform(0.01, 100.0, size=20)
        h_ss = sys.response(1j * w)
        h_poly = polynomial_response(num, den, 1j * w)
        assert np.all(np.abs(h_ss - h_poly) <= 1e-8 * (1 + np.abs(h_poly)))


def _looped_response(sys, s):
    """Reference for the batched ``LtiSystem.response``: one solve per point."""
    s = np.atleast_1d(np.asarray(s, dtype=complex))
    if sys.order == 0:
        return np.full(s.shape, sys.d, dtype=complex)
    eye = np.eye(sys.order)
    return np.array([sys.c @ np.linalg.solve(v * eye - sys.a, sys.b) + sys.d for v in s])


@pytest.mark.parametrize("order", [0, 1, 2, 3, 4])
@pytest.mark.parametrize("points", ["scalar", 1, 50])
def test_batched_response_matches_per_point_solves(order, points):
    rng = np.random.default_rng([order, 0 if points == "scalar" else points])
    for _ in range(5):
        den = np.poly(-rng.uniform(0.1, 5.0, size=order))
        num = rng.standard_normal(int(rng.integers(1, order + 2)))
        sys = realize(num, den)
        if points == "scalar":
            s = complex(rng.standard_normal(), rng.standard_normal())
        else:
            s = rng.standard_normal(points) + 1j * rng.standard_normal(points)
        fast = sys.response(s)
        assert fast.shape == np.atleast_1d(s).shape
        np.testing.assert_allclose(fast, _looped_response(sys, s), rtol=1e-12, atol=0.0)


def test_verify_realization_rejects_a_corrupted_realization():
    num, den = [1.0, 0.5], [1.0, 0.4, 0.0]
    sys = realize(num, den)
    roots = list(np.roots(num)) + list(np.roots(den))
    _verify_realization(sys, roots)  # the genuine realization passes
    bad = LtiSystem(num=sys.num, den=sys.den, a=sys.a, b=sys.b, c=1.5 * sys.c, d=sys.d)
    with pytest.raises(RealizationError, match="deviates"):
        _verify_realization(bad, roots)


# --- passivity index sweep ------------------------------------------------------


def test_index_of_first_order_lag_is_zero():
    # Re H(jw) = 1/(1+w^2) > 0, infimum 0 as w -> inf
    nu = estimate_ifp_index(realize([1], [1, 1])).nu
    assert abs(nu) <= 1e-3
    assert nu >= 0.0


def test_index_of_static_gain_is_exact():
    assert estimate_ifp_index(realize([3.5], [1])).nu == 3.5


def test_index_of_type_one_system_matches_closed_form():
    # Re H1(jw) = -0.3/(w^2+0.49), infimum -0.3/0.49 at w -> 0
    idx = estimate_ifp_index(realize([1, 1], [1, 0.7, 0]))
    assert abs(idx.nu - (-0.3 / 0.49)) <= 1e-3
    assert idx.provenance == "frequency_sweep"
    assert idx.omega is not None and idx.omega <= 1e-3


def test_index_scales_linearly_with_output_gain():
    base = realize([1, 1], [1, 0.7, 0])
    scaled = realize([3, 3], [1, 0.7, 0])
    nu1 = estimate_ifp_index(base).nu
    nu3 = estimate_ifp_index(scaled).nu
    assert abs(nu3 - 3 * nu1) <= 1e-9 * max(1, abs(nu3))


def test_index_rejects_unstable_system():
    with pytest.raises(EstimatorError):
        estimate_ifp_index(realize([1], [1, -1]))


def test_index_rejects_imaginary_axis_poles():
    with pytest.raises(EstimatorError):
        estimate_ifp_index(realize([1], [1, 0, 1]))


def test_index_rejects_double_integrator():
    with pytest.raises(EstimatorError):
        estimate_ifp_index(realize([1], [1, 0, 0]))


# --- couplings ------------------------------------------------------------------


def test_saturated_sine_values():
    c = saturated_sine(0.40)
    assert evaluate_coupling(c, 0.0) == 0.0
    assert abs(evaluate_coupling(c, math.pi / 4) - 0.40 * math.sin(math.pi / 4)) < 1e-15
    assert abs(evaluate_coupling(c, 2.0) - 0.80) < 1e-15


def test_saturated_sine_is_discontinuous_at_branch_point():
    # printed form: |x| < pi/2 uses a*sin, the branch point itself is linear
    c = saturated_sine(1.0)
    below = evaluate_coupling(c, math.pi / 2 - 1e-9)
    at = evaluate_coupling(c, math.pi / 2)
    assert abs(below - 1.0) < 1e-8
    assert abs(at - math.pi / 2) < 1e-15


def test_smooth_variant_is_continuous_at_branch_point():
    c = saturated_sine_smooth(0.7)
    below = evaluate_coupling(c, math.pi / 2 - 1e-9)
    at = evaluate_coupling(c, math.pi / 2)
    assert abs(below - at) < 1e-8


def test_verify_sector_linear_gain():
    check = verify_sector(linear_gain(0.5))
    assert check.alpha_lower_observed == pytest.approx(0.5)
    assert check.alpha_upper_observed == pytest.approx(0.5)
    assert check.odd_symmetry_ok
    assert check.within_declared


def test_verify_sector_saturated_sine():
    # ratio minimum approached on the sine branch as x -> pi/2
    check = verify_sector(saturated_sine(0.60), samples=4001, range_=10.0)
    assert check.alpha_lower_observed == pytest.approx(0.60 * 2 / math.pi, abs=2e-3)
    assert check.alpha_upper_observed == pytest.approx(0.60)
    assert check.odd_symmetry_ok
    assert check.within_declared


def test_verify_sector_flags_violated_declared_bounds():
    from plugnet.passivity import SectorCoupling

    lying = SectorCoupling(kind="sat_sine", gain=0.6, alpha_lower=0.5, alpha_upper=0.6)
    check = verify_sector(lying)
    assert not check.within_declared  # true lower bound is 2*0.6/pi < 0.5


@pytest.mark.parametrize(
    "coupling",
    [
        linear_gain(0.5),
        saturated_sine(0.6),
        saturated_sine_smooth(0.6),
        tabulated([(0.5, 0.3), (1.0, 0.8), (2.0, 1.2)]),
    ],
    ids=["linear", "sat_sine", "smooth", "tabulated"],
)
def test_sector_inequalities_hold_at_samples(coupling):
    # x*phi(x) >= lower*x^2 and x*phi(x) >= phi(x)^2/upper, the two
    # inequalities the certificates lean on
    xs = np.concatenate([np.linspace(-8, 8, 801), [-1e-6, 1e-6]])
    xs = xs[xs != 0]
    phi = evaluate_coupling(coupling, xs)
    assert np.all(xs * phi >= coupling.alpha_lower * xs**2 - 1e-12)
    assert np.all(xs * phi >= phi**2 / coupling.alpha_upper - 1e-12)


def test_tabulated_coupling_is_odd_and_extrapolates():
    c = tabulated([(1.0, 0.5), (2.0, 1.5)])
    assert evaluate_coupling(c, -1.5) == -evaluate_coupling(c, 1.5)
    # beyond the last knot the final slope (1.0) continues
    assert evaluate_coupling(c, 3.0) == pytest.approx(2.5)
    check = verify_sector(c, range_=5.0)
    assert check.odd_symmetry_ok


def test_coupling_rejects_bad_sector_bounds():
    from plugnet.passivity import SectorCoupling

    with pytest.raises(PlugnetError):
        SectorCoupling(kind="linear_gain", gain=1.0, alpha_lower=0.0, alpha_upper=1.0)
    with pytest.raises(PlugnetError):
        linear_gain(-2.0)
