from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from plugnet.errors import EstimatorError, PlugnetError, RealizationError
from plugnet.passivity import (
    COUPLING_FORMULAS,
    LtiSystem,
    SectorCheck,
    SectorCoupling,
    _verify_realization,
    coupling_parameters,
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
    assert idx.nu == pytest.approx(-0.3 / 0.49, rel=1e-14)
    assert idx.omega == 0.0


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
    assert verify_sector(linear_gain(0.5)) == SectorCheck(0.5, 0.5, True)


def test_verify_sector_saturated_sine():
    # the ratio's infimum 2a/pi is approached on the sine branch as x -> pi/2
    assert verify_sector(saturated_sine(0.6)) == SectorCheck(2 * 0.6 / math.pi, 0.6, True)


@pytest.mark.parametrize("coupling, lower, upper", [
    (saturated_sine_smooth(0.6), 2 * 0.6 / math.pi, 0.6),
    # knot ratios 0.4, 0.4, 10 and the trailing slope 29.2, all beyond x = 10
    (tabulated([(1, 0.4), (20, 8), (30, 300)]), 0.4, 29.2),
    # a falling segment: knot ratios 2, 0.75, 1.25, trailing slope 1.75
    (tabulated([(1, 2), (2, 1.5), (4, 5)]), 0.75, 2.0),
], ids=["smooth", "tabulated_far_knots", "tabulated_falling"])
def test_verify_sector_is_exact(coupling, lower, upper):
    # the factories declare the exact sector, so it is within the declared one
    assert verify_sector(coupling) == SectorCheck(lower, upper, True)


def test_verify_sector_flags_violated_declared_bounds():
    lying = SectorCoupling(kind="sat_sine", gain=0.6, alpha_lower=0.5, alpha_upper=0.6)
    check = verify_sector(lying)
    assert not check.within_declared  # true lower bound is 2*0.6/pi < 0.5


_BELOW, _ABOVE = math.nextafter(0.4, 0.0), math.nextafter(0.4, 1.0)


@pytest.mark.parametrize("lower, upper, within", [
    (0.4, 0.4, True),
    (_BELOW, _ABOVE, True),
    (_ABOVE, _ABOVE, False),
    (_BELOW, _BELOW, False),
], ids=["exact", "wider", "lower_one_ulp_high", "upper_one_ulp_low"])
def test_verify_sector_compares_with_no_slack(lower, upper, within):
    c = SectorCoupling(kind="linear_gain", gain=0.4, alpha_lower=lower, alpha_upper=upper)
    assert verify_sector(c).within_declared is within


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
    assert verify_sector(c) == SectorCheck(0.5, 1.0, True)


@pytest.mark.parametrize("table", [
    [], 5, [[1, 2, 3]], [["a", 1]], [[0, 0]], [[-1, 1]], [[1, 1], [1, 2]], [[1, math.nan]],
], ids=["empty", "number", "triple", "text", "zero_knot", "negative_knot", "repeated_knot",
        "nan"])
def test_tabulated_rejects_malformed_tables(table):
    with pytest.raises(PlugnetError, match="table"):
        tabulated(table)


def test_coupling_rejects_bad_sector_bounds():
    with pytest.raises(PlugnetError):
        SectorCoupling(kind="linear_gain", gain=1.0, alpha_lower=0.0, alpha_upper=1.0)
    with pytest.raises(PlugnetError):
        linear_gain(-2.0)


@pytest.mark.parametrize("kind", sorted(COUPLING_FORMULAS))
def test_every_coupling_formula_is_odd(kind):
    coupling = tabulated([(0.5, 0.3), (1.0, 0.8), (2.0, 1.2)]) if kind == "tabulated" else (
        SectorCoupling(kind=kind, gain=0.7, alpha_lower=0.7, alpha_upper=0.7 * math.pi))
    xs = np.concatenate([np.logspace(-9, 4, 2001), np.linspace(0.0, 10.0, 2001)])
    phi = COUPLING_FORMULAS[kind](*coupling_parameters([coupling]), xs)
    assert np.array_equal(COUPLING_FORMULAS[kind](*coupling_parameters([coupling]), -xs), -phi)


@st.composite
def _tables(draw):
    """Knots in (0, 1e4] with any positive knot ratios and a rising last segment."""
    knots = sorted(set(draw(st.lists(st.floats(1e-3, 1e4), min_size=1, max_size=6))))
    ratios = draw(st.lists(st.floats(1e-3, 1e3), min_size=len(knots), max_size=len(knots)))
    table = [(x, r * x) for x, r in zip(knots, ratios)]
    if len(table) > 1:  # the last segment rises, so its slope is a positive bound
        slope = draw(st.floats(1e-3, 1e3))
        table[-1] = (knots[-1], table[-2][1] + slope * (knots[-1] - knots[-2]))
    return table


@settings(max_examples=200, deadline=None)
@given(_tables())
def test_tabulated_sector_holds_out_to_ten_times_the_last_knot(table):
    c = tabulated(table)
    check = verify_sector(c)
    assert check == SectorCheck(c.alpha_lower, c.alpha_upper, True)
    last = table[-1][0]
    xs = np.concatenate([np.linspace(0.0, 10.0 * last, 4001)[1:],
                         np.logspace(-6.0, 1.0, 2001) * last, [x for x, _ in table]])
    xs = np.concatenate([xs, -xs])
    ratios = evaluate_coupling(c, xs) / xs
    # a ratio inside a segment is a convex combination of its ends; rounding
    # may put it a few ulps outside
    assert np.all(ratios >= check.alpha_lower * (1.0 - 1e-12))
    assert np.all(ratios <= check.alpha_upper * (1.0 + 1e-12))
    # tight: each bound is a knot ratio or the trailing slope, approached far out
    far = evaluate_coupling(c, 1e12 * last) / (1e12 * last)
    seen = np.append(ratios, far)
    scale = np.abs(seen).max()
    assert seen.min() == pytest.approx(check.alpha_lower, abs=1e-9 * scale)
    assert seen.max() == pytest.approx(check.alpha_upper, abs=1e-9 * scale)


# --- the closed-form index against a dense frequency grid ------------------------


def _re_h(sys, w):
    """Re H(jw) in long double, as Re(N conj D) / |D|^2 from the polynomials."""
    s = 1j * np.asarray(w, dtype=np.longdouble)
    n = np.polyval(np.asarray(sys.num, dtype=np.longdouble), s)
    d = np.polyval(np.asarray(sys.den, dtype=np.longdouble), s)
    return (n.real * d.real + n.imag * d.imag) / (d.real ** 2 + d.imag ** 2)


_GRID = np.logspace(-8.0, 12.0, 20001)  # 1000 points a decade


def _refined_minimum(sys, grid_values):
    """Least of Re H near 0 (w = 1e-20), the limit d, and the 16 lowest grid
    minima, each zoomed in by six rounds of a 64-point log grid between its
    neighbours."""
    v = grid_values
    interior = np.flatnonzero((v[1:-1] <= v[:-2]) & (v[1:-1] <= v[2:])) + 1
    ends = [i for i in (0, len(v) - 1) if i not in interior]
    lowest = np.concatenate([interior, ends]).astype(int)
    lowest = lowest[np.argsort(v[lowest])][:16]
    lo = np.log10(_GRID[np.maximum(lowest - 1, 0)])
    hi = np.log10(_GRID[np.minimum(lowest + 1, len(_GRID) - 1)])
    best = np.inf
    for _ in range(6):
        ts = np.linspace(lo, hi, 64, axis=1)
        vals = _re_h(sys, 10.0 ** ts)
        k = np.argmin(vals, axis=1)
        best = min(best, float(vals.min()))
        rows = np.arange(len(k))
        lo, hi = ts[rows, np.maximum(k - 1, 0)], ts[rows, np.minimum(k + 1, 63)]
    d = sys.num[0] if len(sys.num) == len(sys.den) else 0.0
    return min(best, float(_re_h(sys, 1e-20)), d)


_MAG = st.floats(-6.0, 6.0).map(lambda e: 10.0 ** e)


@st.composite
def _stable_systems(draw):
    """H = K N/D of order <= 4: real poles and zeros with magnitudes in
    [1e-6, 1e6] (zeros of either sign), resonant pole pairs with damping
    >= 0.01, complex zero pairs, and optionally one pole at the origin."""
    order = draw(st.integers(0, 4))

    def roots(count, poles):
        out = []
        while len(out) < count:
            if count - len(out) >= 2 and draw(st.booleans()):
                zeta = draw(st.floats(0.01, 1.0) if poles else st.floats(-1.0, 1.0))
                r = draw(_MAG) * complex(-zeta, math.sqrt(1.0 - zeta ** 2))
                out += [r, r.conjugate()]
            else:
                out.append(-draw(_MAG) if poles or draw(st.booleans()) else draw(_MAG))
        return out

    poles = roots(order, poles=True)
    if order and draw(st.booleans()):
        poles[-1] = 0.0
    zeros = roots(draw(st.integers(0, order)), poles=False)
    gain = draw(st.sampled_from([-1.0, 1.0])) * 10.0 ** draw(st.floats(-3.0, 3.0))
    num = gain * np.atleast_1d(np.poly(zeros)).real
    den = np.atleast_1d(np.poly(poles)).real
    try:
        return realize(num, den)
    except RealizationError:
        assume(False)


def _check_against_the_grid(sys, idx):
    grid_values = _re_h(sys, _GRID)
    scale = max(1.0, abs(idx.nu))
    # a true lower bound: no grid value lies below it
    assert idx.nu <= float(grid_values.min()) + 1e-12 * scale
    # and the greatest one: the refined grid reaches it
    assert idx.nu == pytest.approx(_refined_minimum(sys, grid_values), abs=1e-11 * scale)
    if idx.omega:  # attained at a positive frequency
        assert float(_re_h(sys, idx.omega)) == pytest.approx(idx.nu, abs=1e-11 * scale)


@settings(max_examples=300, deadline=None)
@given(_stable_systems())
def test_closed_form_index_is_the_infimum_of_a_dense_sweep(sys):
    try:
        idx = estimate_ifp_index(sys)
    except EstimatorError:
        assume(False)
    _check_against_the_grid(sys, idx)


@pytest.mark.parametrize("num, den", [
    # resonance near 1e-4 rad/s under zeros at 1e6 j: the companion matrix
    # misplaces the roots of E'F - EF' near x = 5e-9 by several percent
    ((-1.0, 1.0, -1e12, 1e12),
     (1.0, 0.011004686838808328, 1.0057178640143509e-05, 1.0872593385421691e-10,
      5.623413251903493e-14)),
    ((-1.0, 1.0, -1e12, 1e12),
     (1.0, 0.020012500000000003, 0.00010026, 1.4500000000000004e-09, 1e-12)),
    ((-1.0, 0.001),
     (1.0, 10001.000003125, 10000.031253135001, 0.031350010000000005, 0.0001)),
    # two resonances at 1 rad/s: F's own coefficients cancel to 2e-7 there
    ((1.0,), (1.0, 0.043437500000000004, 2.00046875, 0.043437500000000004, 1.0)),
], ids=["small_roots_a", "small_roots_b", "small_roots_c", "double_resonance"])
def test_closed_form_index_on_cases_that_need_its_guards(num, den):
    sys = realize(num, den)
    _check_against_the_grid(sys, estimate_ifp_index(sys))
