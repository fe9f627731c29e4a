from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from plugnet.errors import EstimatorError, PlugnetError, RealizationError, UnsolvableIndex
from plugnet.passivity import (
    COUPLING_FORMULAS,
    IfpIndex,
    LtiSystem,
    SectorCheck,
    SectorCoupling,
    _cancel_common_roots,
    _coefficients,
    _compensated_horner,
    _even_odd,
    _verify_realization,
    coupling_parameters,
    estimate_ifp_index,
    evaluate_coupling,
    ifp_indices,
    linear_gain,
    polynomial_response,
    realize,
    realize_many,
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


def test_index_stays_finite_where_the_compensated_split_overflows():
    # Horner's partial sums pass 1.3e300 at the minimiser, where 2**27 + 1
    # times them overflows; the plain value, still finite, is kept.
    nu = estimate_ifp_index(realize([1.0, 1.0, 1.0], [1.0, 0.5, 4.0])).nu
    idx = estimate_ifp_index(realize([1e301, 1e301, 1e301], [1.0, 0.5, 4.0]))
    assert idx.nu == pytest.approx(1e301 * nu, rel=1e-12)


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


def _reference_phi(kind, params, x):
    """Each coupling formula as the plain numpy expression that the in-place
    formulas replace; they must give its bits."""
    if kind == "linear_gain":
        return params[0] * x
    if kind == "sat_sine":
        return params[0] * np.where(np.abs(x) < math.pi / 2.0, np.sin(x), x)
    if kind == "sat_sine_smooth":
        mag = np.abs(x)
        return params[0] * np.where(mag < math.pi / 2.0, np.sin(x),
                                    np.sign(x) * (mag - math.pi / 2.0 + 1.0))
    knots, values, slopes = params
    mag = np.abs(x)
    at = np.arange(len(knots)) * knots.shape[1]
    for knot in knots[:, 1:].T:
        at = at + (knot <= mag)
    return np.sign(x) * (values.take(at) + slopes.take(at) * (mag - knots.take(at)))


def _same_bits(got, want):
    """Equal bit for bit where ``want`` is a number, NaN exactly where it is
    NaN (``sin`` of a NaN may return a NaN of its own)."""
    nan = np.isnan(want)
    return (got.dtype == want.dtype and got.shape == want.shape
            and np.array_equal(np.isnan(got), nan) and got[~nan].tobytes() == want[~nan].tobytes())


_HALF_PI = math.pi / 2.0
_TABLES = ([(0.5, 0.3), (1.0, 0.8), (2.0, 1.2)], [(0.25, 0.2)], [(1.0, 1.0), (3.0, 2.0)])
_SPECIAL_POINTS = np.array([
    math.nan, -math.nan, math.inf, -math.inf, 0.0, -0.0, _HALF_PI, -_HALF_PI,
    np.nextafter(_HALF_PI, 0.0), np.nextafter(_HALF_PI, 2.0), -np.nextafter(_HALF_PI, 0.0),
    5e-324, -1e-300, 1e300, -1e300, 0.25, 0.5, -1.0, 2.0, 3.0, 7.5,
])


def _formula_cases(kind, x, rng):
    """Parameters for one coupling of ``kind`` at every point of ``x``, and
    for one coupling per point."""
    if kind == "tabulated":
        tables = [_TABLES[k] for k in rng.integers(0, len(_TABLES), len(x))]
        return [coupling_parameters([tabulated(_TABLES[0])]),
                coupling_parameters([tabulated(t) for t in tables])]
    gains = rng.uniform(0.1, 2.0, len(x))
    return [coupling_parameters([SectorCoupling(kind, 0.7, 0.7, gain=0.7)]),
            coupling_parameters([SectorCoupling(kind, g, g, gain=g) for g in gains])]


@pytest.mark.parametrize("kind", sorted(COUPLING_FORMULAS))
def test_in_place_formulas_match_the_plain_expressions_bit_for_bit(kind):
    rng = np.random.default_rng(5)
    x = np.concatenate((_SPECIAL_POINTS, [k for t in _TABLES for k, _ in t],
                        3.0 * rng.standard_normal(200)))
    x = np.concatenate((x, -x))
    original = x.copy()
    formula = COUPLING_FORMULAS[kind]
    for params in _formula_cases(kind, x, rng):
        with np.errstate(invalid="ignore"):  # sin(inf) and inf - inf
            want = _reference_phi(kind, params, x)
            assert _same_bits(formula(*params, x), want)
            buf = np.full_like(x, 7.0)
            assert formula(*params, x, out=buf) is buf
            assert _same_bits(buf, want)
            # the rule stated with COUPLING_FORMULAS: out may be x itself
            alias = x.copy()
            formula(*params, alias, out=alias)
            assert _same_bits(alias, want)
    assert _same_bits(x, original)


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
    minima, each zoomed in by rounds of a 64-point log grid between its
    neighbours until no bracket shrinks any more."""
    v = grid_values
    interior = np.flatnonzero((v[1:-1] <= v[:-2]) & (v[1:-1] <= v[2:])) + 1
    ends = [i for i in (0, len(v) - 1) if i not in interior]
    lowest = np.concatenate([interior, ends]).astype(int)
    lowest = lowest[np.argsort(v[lowest])][:16]
    lo = np.log10(_GRID[np.maximum(lowest - 1, 0)])
    hi = np.log10(_GRID[np.minimum(lowest + 1, len(_GRID) - 1)])
    best = np.inf
    while True:  # brackets only shrink, and floats are finitely many
        ts = np.linspace(lo, hi, 64, axis=1)
        vals = _re_h(sys, 10.0 ** ts)
        k = np.argmin(vals, axis=1)
        best = min(best, float(vals.min()))
        rows = np.arange(len(k))
        bracket = ts[rows, np.maximum(k - 1, 0)], ts[rows, np.minimum(k + 1, 63)]
        if np.array_equal(bracket[0], lo) and np.array_equal(bracket[1], hi):
            break
        lo, hi = bracket
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
    assert idx.nu <= sys.d  # Re H tends to d, so no index exceeds it
    grid_values = _re_h(sys, _GRID)
    scale = max(1.0, abs(idx.nu))
    # a true lower bound: no grid value lies below it
    assert idx.nu <= float(grid_values.min()) + 1e-12 * scale
    # and the greatest one: the refined grid reaches it
    assert idx.nu == pytest.approx(_refined_minimum(sys, grid_values), abs=1e-11 * scale)
    if idx.omega:  # attained at a positive frequency
        assert float(_re_h(sys, idx.omega)) == pytest.approx(idx.nu, abs=1e-11 * scale)


# Two resonances at 1 rad/s, as in "double_resonance" below: the root of
# E'F - EF' solved from the coefficients misses the minimiser by about 1e-8,
# and without the Newton polish nu came out too high by 2.2e-9 and 1.6e-9.
_LIGHT_DOUBLE_RESONANCE = (1.0, 0.0434375, 2.00046875, 0.0434375, 1.0)


# A pole pair damped by 6e-8 at 0.162 rad/s, as _transfer_functions below
# draws it: after one Newton step nu came out 398 (1.1e-6 relative) above
# the refined minimum. Near so sharp a resonance Re H at the minimiser, from
# factor values by plain Horner, erred by 2.3e-11 relative (against 50-digit
# arithmetic), beyond the dense-sweep check's 1e-11; compensated Horner
# brings it within 1e-16. The dense sweep checks it below, and here nu is
# also held to the one-sided check: no overestimate.
_NEAR_UNDAMPED = (
    [0.0, 0.0, -20.042138664451084, -0.3692978744208424, -0.5275410493878782, -0.0],
    [0.004806200161228792, 0.004805725256696151, 0.0001265069452858698,
     0.00012649434964977105],
)


# Re H = 2 + (x - 7)**2 / (x + 1)**3 touches its limit d = 2 at x = 7 and
# tends to it from above: the compensated value there read 2 + 8.9e-16.
_TOUCHES_ITS_LIMIT = ([2.0, 23.0, 56.0, 51.0], [1.0, 3.0, 3.0, 1.0])


@settings(max_examples=300, deadline=None)
@given(_stable_systems())
@example(realize([1.0, -1.5, 1.0, -1.5, 1.0], _LIGHT_DOUBLE_RESONANCE))
@example(realize(*_TOUCHES_ITS_LIMIT))
@example(realize([-1.0, 1.0, -1.0, 1.0], _LIGHT_DOUBLE_RESONANCE))
@example(realize(*_NEAR_UNDAMPED))
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


def test_index_of_a_near_undamped_resonance_is_no_overestimate():
    sys = realize(*_NEAR_UNDAMPED)
    idx = estimate_ifp_index(sys)
    assert idx.nu <= _refined_minimum(sys, _re_h(sys, _GRID)) + 1e-12 * abs(idx.nu)


@st.composite
def _ill_conditioned_polynomials(draw):
    """Descending coefficients and a point: random ones, or a power of
    (t - r) expanded in floating point and taken next to r, where Horner's
    terms cancel."""
    if draw(st.booleans()):
        coeffs = draw(st.lists(st.sampled_from([0.0]) | _MAG | _MAG.map(lambda m: -m),
                               min_size=1, max_size=8))
        return coeffs, draw(st.sampled_from([0.0]) | _MAG.map(lambda m: m / 1e3))
    root = draw(st.floats(0.1, 10.0))
    coeffs = np.poly([root] * draw(st.integers(2, 7))).tolist()
    return coeffs, root * (1.0 + draw(st.floats(-1e-6, 1e-6)))


@settings(max_examples=300, deadline=None)
@given(_ill_conditioned_polynomials())
def test_compensated_horner_is_as_accurate_as_twice_the_precision(case):
    # Theorem 4 of Graillat, Langlois & Louvet (2005), checked in rational
    # arithmetic: |result - p(x)| <= u |p(x)| + gamma_2n^2 p~(|x|).
    coeffs, x = case
    got = float(_compensated_horner(np.array([coeffs], dtype=float), np.array([x]))[0])
    terms = [Fraction(c) * Fraction(x) ** k for k, c in enumerate(reversed(coeffs))]
    exact, magnitude = sum(terms), sum(map(abs, terms))
    u = Fraction(1, 2 ** 53)
    two_n = 2 * (len(coeffs) - 1)
    gamma = two_n * u / (1 - two_n * u)
    assert abs(Fraction(got) - exact) <= u * abs(exact) + gamma ** 2 * magnitude


# --- the lean polynomial arithmetic against numpy's polynomial functions ---------
#
# The reference below is realize/estimate_ifp_index as they were written with
# np.roots, np.polymul/polyadd/polysub/polyval and a fresh default_rng(1724) per
# realization check; the module's own helpers must give the same bits.


def _ref_verify_realization(sys, roots):
    radius = 2.0 * (1.0 + max((abs(r) for r in roots), default=0.0))
    rng = np.random.default_rng(1724)
    s = radius * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, size=20))
    h_ss = sys.response(s)
    h_poly = np.polyval(list(sys.num), s) / np.polyval(list(sys.den), s)
    err = np.abs(h_ss - h_poly) / (1.0 + np.abs(h_poly))
    if not np.all(err <= 1e-8):
        raise RealizationError(
            f"state-space response deviates from the polynomials (max rel err {err.max():.3g})"
        )


def _ref_realize(num, den):
    num_c = _coefficients(num, "numerator")
    den_c = _coefficients(den, "denominator")
    if np.all(den_c == 0.0):
        raise RealizationError("zero denominator")
    if len(num_c) > len(den_c):
        raise RealizationError(
            f"improper transfer function (numerator degree {len(num_c) - 1} "
            f"> denominator degree {len(den_c) - 1})"
        )
    with np.errstate(over="ignore"):
        num_c = num_c / den_c[0]
        den_c = den_c / den_c[0]
    if not (np.isfinite(num_c).all() and np.isfinite(den_c).all()):
        raise RealizationError(
            "coefficients overflow when divided by the leading denominator coefficient")
    roots = {}
    for which, p in (("denominator", den_c), ("numerator", num_c)):
        try:
            with np.errstate(over="ignore"):
                roots[which] = list(np.roots(p))
        except np.linalg.LinAlgError as exc:
            raise RealizationError(f"{which} roots cannot be solved: {exc}") from None
    num_c, den_c, zeros, poles = _cancel_common_roots(
        num_c, den_c, roots["numerator"], roots["denominator"]
    )
    k = len(den_c) - 1
    if k == 0:
        return LtiSystem(num=tuple(num_c), den=(1.0,), a=np.empty((0, 0)), b=np.empty(0),
                         c=np.empty(0), d=float(num_c[0]))
    alpha = den_c[1:]
    padded = np.zeros(k + 1)
    padded[k + 1 - len(num_c):] = num_c
    d = padded[0]
    c = padded[1:] - d * alpha
    a = np.zeros((k, k))
    a[0, :] = -alpha
    if k > 1:
        a[1:, :-1] = np.eye(k - 1)
    b = np.zeros(k)
    b[0] = 1.0
    sys = LtiSystem(num=tuple(num_c), den=tuple(den_c), a=a, b=b, c=c, d=float(d))
    _ref_verify_realization(sys, zeros + poles)
    return sys


def _ref_poles(sys):
    return np.roots(sys.den) if len(sys.den) > 1 else np.empty(0, dtype=complex)


def _ref_estimate_ifp_index(sys):
    poles = _ref_poles(sys)
    if np.any(poles.real > 1e-9):
        raise EstimatorError(f"unstable system: pole at {poles[poles.real > 1e-9][0]:.6g}")
    on_axis = np.abs(poles.real) <= 1e-9
    origin = on_axis & (np.abs(poles) <= 1e-9)
    if np.any(on_axis & ~origin):
        raise EstimatorError("pole on the imaginary axis away from the origin")
    if int(np.count_nonzero(origin)) > 1:
        raise EstimatorError("repeated pole at the origin: Re H(jw) is unbounded below")
    ne, no = _even_odd(sys.num)
    de, do = _even_odd(sys.den)
    a, b = de, np.append(do, 0.0)
    if sys.den[-1] == 0.0:
        a, b = (de[:-1] if de.size > 1 else np.zeros(1)), do
    e = np.polyadd(np.polymul(ne, a), np.polymul(no, b))
    f = np.polyadd(np.polymul(de, a), np.polymul(do, b))
    g = np.polysub(np.polymul(np.polyder(e), f), np.polymul(e, np.polyder(f)))

    def re_h_and_slope(x):
        factors = (ne, no, de, do, a, b)
        n_e, n_o, d_e, d_o, a_x, b_x = (np.polyval(p, x) for p in factors)
        dn_e, dn_o, dd_e, dd_o, da_x, db_x = (np.polyval(np.polyder(p), x) for p in factors)
        e, f = n_e * a_x + n_o * b_x, d_e * a_x + d_o * b_x
        de_x = (dn_e * a_x + n_e * da_x) + (dn_o * b_x + n_o * db_x)
        df_x = (dd_e * a_x + d_e * da_x) + (dd_o * b_x + d_o * db_x)
        return e / f, de_x * f - e * df_x

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        try:
            roots = np.concatenate([np.roots(g), 1.0 / np.roots(g[::-1])]).real
        except np.linalg.LinAlgError as exc:  # g overflowed
            raise UnsolvableIndex(
                f"the stationary points of Re H(jw) cannot be solved: {exc}") from None
        xs = np.concatenate([[0.0], roots[(roots > 0.0) & (roots < np.inf)]])
        values, slopes = re_h_and_slope(xs)  # two Newton steps from every candidate
        polished = xs - slopes / np.polyval(np.polyder(g), xs)
        polished = polished[(polished >= 0.0) & (polished < np.inf)]
        polished_values, polished_slopes = re_h_and_slope(polished)
        again = polished - polished_slopes / np.polyval(np.polyder(g), polished)
        again = again[(again >= 0.0) & (again < np.inf)]
        xs = np.concatenate((xs, polished, again))
        values = np.concatenate((values, polished_values, re_h_and_slope(again)[0], [sys.d]))
        i = int(np.nanargmin(values))
        if i == xs.size:
            return IfpIndex(nu=sys.d)
        # the winning point once more, each factor by compensated Horner
        x = float(xs[i])
        n_e, n_o, d_e, d_o, a_x, b_x = (_ref_comp_horner(p.tolist(), x)
                                        for p in (ne, no, de, do, a, b))
        nu = float(np.divide(n_e * a_x + n_o * b_x, d_e * a_x + d_o * b_x))
    if not math.isfinite(nu):
        nu = float(values[i])
    return IfpIndex(nu=min(nu, sys.d), omega=math.sqrt(x))


def _ref_comp_horner(p, x):
    """Algorithm CompHorner of Graillat, Langlois & Louvet (2005), with
    Knuth's TwoSum and Dekker's Split and TwoProduct, as the paper states them."""
    def two_sum(a, b):
        s = a + b
        z = s - a
        return s, (a - (s - z)) + (b - z)

    def split(a):
        c = 134217729.0 * a
        hi = c - (c - a)
        return hi, a - hi

    def two_product(a, b):
        prod = a * b
        (a1, a2), (b1, b2) = split(a), split(b)
        return prod, a2 * b2 - (((prod - a1 * b1) - a2 * b1) - a1 * b2)

    s, c = p[0], 0.0
    for coeff in p[1:]:
        prod, pi = two_product(s, x)
        s, sigma = two_sum(prod, coeff)
        c = c * x + (pi + sigma)
    return s + c


def _bits(x):
    """Everything that makes two results equal bit for bit: type, dtype, shape, bytes."""
    if x is None:
        return None
    arr = np.asarray(x)
    return type(x).__name__, arr.dtype.str, arr.shape, arr.tobytes()


def _outcome(fn, *args):
    try:
        return fn(*args), None
    except Exception as exc:  # the error paths must match too
        return None, (type(exc), str(exc))


_SPAN = st.floats(-6.0, 6.0).map(lambda e: 10.0 ** e)


@st.composite
def _transfer_functions(draw):
    """(num, den) lists: real roots and complex pairs of either sign with
    magnitudes in [1e-6, 1e6], resonances down to no damping, poles and zeros
    at the origin, exact common roots, static gains, leading zeros,
    improper and zero denominators, and raw coefficients."""

    def roots(count, poles):
        # mostly stable poles, so that most systems reach the index
        signs = [-1.0, -1.0, -1.0, 1.0, 0.0] if poles else [-1.0, 1.0, 0.0]
        out = []
        while len(out) < count:
            if count - len(out) >= 2 and draw(st.booleans()):
                zeta = draw(st.sampled_from([0.0, 1e-3]) | st.floats(-0.2 if poles else -1.0, 1.0))
                r = draw(_SPAN) * complex(-zeta, math.sqrt(1.0 - zeta ** 2))
                out += [r, r.conjugate()]
            else:
                out.append(draw(st.sampled_from(signs)) * draw(_SPAN))
        return out

    if draw(st.integers(0, 9)) == 9:
        coeffs = st.lists(st.sampled_from([0.0, -0.0, 1.0]) | st.floats(-1e6, 1e6), max_size=6)
        return draw(coeffs), draw(coeffs)
    poles = roots(draw(st.integers(0, 4)), poles=True)
    if poles and draw(st.booleans()):
        poles[-1] = 0.0
    zeros = roots(draw(st.integers(0, len(poles) + 1)), poles=False)
    if poles and zeros and draw(st.booleans()):
        zeros[-1] = poles[draw(st.integers(0, len(poles) - 1))]  # exactly cancels
    num = draw(st.sampled_from([-1.0, 1.0])) * 10.0 ** draw(st.floats(-3.0, 3.0)) \
        * np.atleast_1d(np.poly(zeros)).real
    den = 10.0 ** draw(st.floats(-3.0, 3.0)) * np.atleast_1d(np.poly(poles)).real
    if draw(st.integers(0, 19)) == 19:
        den = 0.0 * den
    leading_zeros = [[0.0] * draw(st.integers(0, 2)) for _ in range(2)]
    return leading_zeros[0] + num.tolist(), leading_zeros[1] + den.tolist()


@settings(max_examples=600, deadline=None)
@given(_transfer_functions())
@example(_NEAR_UNDAMPED)
def test_realize_and_index_are_bit_identical_to_numpy_polynomials(tf):
    num, den = tf
    got, got_error = _outcome(realize, num, den)
    want, want_error = _outcome(_ref_realize, num, den)
    assert got_error == want_error
    if want is None:
        return
    for name in ("num", "den", "a", "b", "c", "d"):
        assert _bits(getattr(got, name)) == _bits(getattr(want, name)), name
    assert _bits(got.poles()) == _bits(_ref_poles(want))
    got, got_error = _outcome(estimate_ifp_index, got)
    want, want_error = _outcome(_ref_estimate_ifp_index, want)
    assert got_error == want_error
    if want is not None:
        assert (_bits(got.nu), _bits(got.omega)) == (_bits(want.nu), _bits(want.omega))


# --- batches: realize_many and ifp_indices against each item alone -----------------


@st.composite
def _batches(draw):
    """Transfer functions for one batch, in any order: mixed orders and
    shapes, failing items among good ones, and repeats."""
    items = draw(st.lists(_transfer_functions(), min_size=1, max_size=10))
    repeats = draw(st.lists(st.sampled_from(items), max_size=4))
    return draw(st.permutations(items + repeats))


# Equal-length polynomials with and without trailing zeros, real and complex
# roots in one stack, cancellations, static gains, and each way to fail.
_MIXED_BATCH = [
    ([1.0, 1.0], [1.0, 0.7, 0.0]),  # a pole at the origin
    ([1.0], [1.0, 2.0, 5.0]),  # complex poles
    ([1.0], [1.0, 3.0, 2.0]),  # real poles, same shape
    ([2.0], [1.0]),  # static gain
    ([1.0, 1.0], [1.0, 3.0, 2.0]),  # (s + 1) cancels
    ([1.0, 0.0], [1.0, 3.0, 0.0]),  # s cancels at the origin
    ([1.0, 1.0], [1.0, 1.0]),  # cancels to a static gain
    ([1.0, 1.0 + 7.5e-10], [1.0, 3.0, 2.0]),  # cancels within the tolerance
    ([1.0, 0.0, 0.0], [1.0, 1.0]),  # improper
    ([1.0], [0.0, 0.0]),  # zero denominator
    ([1.0], [1e-300, 1e300]),  # normalized to [1, inf]
    ([1e-300, 1e300], [1.0, 1.0, 1.0]),  # the numerator's companion matrix overflows
    (["a"], [1.0]),  # not numbers
    ([1.0], [1.0, -1.0]),  # unstable
    ([1.0], [1.0, 0.0, 0.0]),  # repeated pole at the origin
    ([1.0], [1.0, 0.0, 1.0]),  # poles on the imaginary axis
    ([2.0, -1.0, 3.0], [1.0, 2.0, 5.0, 1.0]),
    ([1.0, 1.0], [1.0, 0.7, 0.0]),  # a repeat
]


# Re H overflows to inf/inf at candidates near 1e157 rad/s: their values are
# NaN, which the choice of the winner must skip.
_NAN_CANDIDATES = ([91.46776485098455, 1.2532009521629861e+159], [1.0, 2.7554496718156447e+157])


def _error(outcome):
    return (type(outcome), str(outcome)) if isinstance(outcome, Exception) else None


@settings(max_examples=300, deadline=None)
@given(_batches())
@example(_MIXED_BATCH)
@example([_NEAR_UNDAMPED, _TOUCHES_ITS_LIMIT, ([1.0], _LIGHT_DOUBLE_RESONANCE)])
@example([([1.0], [1.0, 1.0]), _NAN_CANDIDATES, ([1.0, 2.0], [1.0, 3.0])])
def test_batches_are_bit_identical_to_each_item_alone(batch):
    systems = realize_many(batch)
    assert len(systems) == len(batch)
    realized = []
    for (num, den), got in zip(batch, systems):
        want, want_error = _outcome(_ref_realize, num, den)
        assert _error(got) == want_error
        if want is None:
            continue
        for name in ("num", "den", "a", "b", "c", "d"):
            assert _bits(getattr(got, name)) == _bits(getattr(want, name)), name
        assert _bits(got.poles()) == _bits(_ref_poles(want))
        realized.append((got, want))
    # each system once more, as the same object
    realized += realized[:2]
    indices = ifp_indices([got for got, _ in realized])
    assert len(indices) == len(realized)
    for (_, want_sys), got in zip(realized, indices):
        want, want_error = _outcome(_ref_estimate_ifp_index, want_sys)
        assert _error(got) == want_error
        if want is not None:
            assert (_bits(got.nu), _bits(got.omega)) == (_bits(want.nu), _bits(want.omega))


def test_an_empty_batch_has_no_outcomes():
    assert realize_many([]) == [] and ifp_indices([]) == []


@pytest.mark.parametrize("num, den, order", [
    ([1.0, 0.5], [1.0, 0.4, 0.0], 2),  # a pole at the origin
    ([2.0, -1.0, 3.0], [1.0, 2.0, 5.0, 1.0], 3),
    ([1.0, 1.0], np.convolve([1.0, 1.0], [1.0, 2.0]), 1),  # (s+1) cancels
    ([1.0, 0.0], [1.0, 3.0, 0.0], 1),  # s cancels at the origin
], ids=["origin", "complex", "cancelled", "cancelled_origin"])
def test_poles_are_the_roots_of_the_denominator(num, den, order):
    sys = realize(num, den)
    assert sys.order == order
    poles = sys.poles()
    assert _bits(poles) == _bits(np.roots(sys.den))
    poles[:] = 99.0
    assert _bits(sys.poles()) == _bits(np.roots(sys.den))
