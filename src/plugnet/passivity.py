"""Node dynamics and coupling descriptions.

Covers three things: state-space realizations of SISO transfer functions,
the input-feedforward passivity index of a stable SISO system
(``inf_w Re H(jw)``) in closed form, and sector-bounded odd coupling
nonlinearities with their exact sector bounds, which any declared bounds
must contain.

A heterogeneous network realizes and indexes one system per node, so the
per-system cost is kept to the arithmetic: the polynomial helpers below
compute exactly what ``np.roots``, ``np.polymul``, ``np.polyadd``/
``np.polysub`` and ``np.polyval`` compute, operation for operation, without
their wrappers. Each polynomial's roots are solved once: ``realize`` keeps
the denominator's roots as the system's poles, and the realization check
scales fixed pseudorandom points on the unit circle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import EstimatorError, PlugnetError, RealizationError, TableError

_CANCEL_TOL = 1e-9
_POLE_TOL = 1e-9
_HALF_PI = math.pi / 2.0
# Where the realization check compares the state-space response with the
# polynomials, before scaling to a circle enclosing every pole and zero.
_CHECK_POINTS = np.exp(1j * np.random.default_rng(1724).uniform(0.0, 2.0 * math.pi, size=20))


def _roots(p: np.ndarray) -> np.ndarray:
    """``np.roots(p)`` of a flat float array: the same companion matrix and
    eigenvalue call, and the roots at zero appended for trailing zeros."""
    nz = p.nonzero()[0]
    if nz.size == 0:
        return np.array([])
    trailing = len(p) - nz[-1] - 1
    p = p[nz[0]:nz[-1] + 1]
    if len(p) > 1:
        companion = np.eye(len(p) - 1, k=-1)
        companion[0, :] = -p[1:] / p[0]
        roots = np.linalg.eigvals(companion)
    else:
        roots = np.array([])
    if trailing:
        roots = np.concatenate((roots, np.zeros(trailing, roots.dtype)))
    return roots


def _trimmed(p: np.ndarray) -> np.ndarray:
    """``p`` without leading zeros, or ``[0.]`` when all are zero (as ``np.poly1d``)."""
    nz = p.nonzero()[0]
    return p[nz[0]:] if nz.size else np.zeros(1)


def _polymul(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """``np.polymul(p, q)`` of float arrays."""
    return np.convolve(_trimmed(p), _trimmed(q))


def _derivative(p: np.ndarray) -> np.ndarray:
    """``np.polyder(p)`` of a float array."""
    return p[:-1] * np.arange(len(p) - 1, 0, -1)


def _padded(p: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``p`` and ``q`` with leading zeros to a common length, as ``np.polyadd`` pads."""
    diff = len(q) - len(p)
    if diff > 0:
        p = np.concatenate((np.zeros(diff), p))
    elif diff < 0:
        q = np.concatenate((np.zeros(-diff), q))
    return p, q


def _polyval(p, x: np.ndarray) -> np.ndarray:
    """``np.polyval(p, x)``: Horner's rule from zero, in the same operation order."""
    y = np.zeros_like(x)
    for coeff in p:
        y = y * x + coeff
    return y


@dataclass(frozen=True, eq=False)
class LtiSystem:
    """Proper SISO transfer function with its controllable-canonical realization.

    ``num``/``den`` are coefficient tuples in descending powers with the
    denominator normalized to leading coefficient 1. A static gain has an
    empty realization (order 0) and the gain in ``d``.
    """

    num: tuple[float, ...]
    den: tuple[float, ...]
    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    d: float
    # The roots of ``den`` when ``realize`` has already solved for them.
    _poles: np.ndarray | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        for arr in (self.a, self.b, self.c):
            arr.flags.writeable = False

    @property
    def order(self) -> int:
        return self.a.shape[0]

    def response(self, s) -> np.ndarray:
        """Frequency response from the state-space matrices (not the polynomials).

        One stacked solve of ``(s I - A) x = B`` over all points of ``s``.
        """
        s = np.atleast_1d(np.asarray(s, dtype=complex))
        if self.order == 0:
            return np.full(s.shape, self.d, dtype=complex)
        pencils = s[:, None, None] * np.eye(self.order) - self.a
        x = np.linalg.solve(pencils, self.b[:, None])
        return x[:, :, 0] @ self.c + self.d

    def poles(self) -> np.ndarray:
        """The roots of ``den`` (a new array): kept from ``realize``, else solved."""
        if self._poles is not None:
            return self._poles.copy()
        if len(self.den) == 1:
            return np.empty(0, dtype=complex)
        return _roots(np.array(self.den, dtype=float))


def polynomial_response(num: Sequence[float], den: Sequence[float], s) -> np.ndarray:
    """Evaluate num(s)/den(s) directly; the independent check against realize()."""
    s = np.asarray(s, dtype=complex)
    return _polyval(num, s) / _polyval(den, s)


def _strip_leading_zeros(coeffs: np.ndarray) -> np.ndarray:
    nz = np.flatnonzero(coeffs != 0.0)
    if nz.size == 0:
        return coeffs[-1:]
    return coeffs[nz[0]:]


def _bool_or_text(value) -> bool:
    """``True`` or ``"1"``: values that ``float`` reads as numbers but that are not."""
    return isinstance(value, (bool, np.bool_, str, bytes))


def _coefficients(values, which: str) -> np.ndarray:
    """``values`` as a flat array of finite polynomial coefficients, leading zeros stripped."""
    try:
        if any(map(_bool_or_text, values if isinstance(values, (list, tuple)) else [values])):
            raise TypeError
        coeffs = np.atleast_1d(np.asarray(values, dtype=float))
    except (TypeError, ValueError):
        raise RealizationError(f"{which} coefficients must be numbers") from None
    except OverflowError:  # an integer beyond the float range
        raise RealizationError(
            f"{which} coefficients must be a flat list of finite numbers") from None
    if coeffs.ndim != 1 or not np.all(np.isfinite(coeffs)):
        raise RealizationError(f"{which} coefficients must be a flat list of finite numbers")
    if coeffs.size == 0:
        raise RealizationError(f"{which} coefficients must not be empty")
    return _strip_leading_zeros(coeffs)


def _cancel_common_roots(num: np.ndarray, den: np.ndarray, zeros: list, poles: list):
    """Remove zero/pole pairs equal to within _CANCEL_TOL, preserving the gain.

    ``zeros``/``poles`` are the roots of ``num``/``den``. Returns the
    reduced numerator and denominator with their zeros and poles.
    """
    poles = list(poles)
    kept_zeros = []
    for z in zeros:
        dists = [abs(z - p) for p in poles]
        if dists and min(dists) <= _CANCEL_TOL:
            poles.pop(int(np.argmin(dists)))
        else:
            kept_zeros.append(z)
    if len(kept_zeros) == len(zeros):
        return num, den, zeros, poles
    new_num = num[0] * np.atleast_1d(np.poly(kept_zeros)).real
    new_den = np.atleast_1d(np.poly(poles)).real
    return new_num, new_den, kept_zeros, poles


def _verify_realization(sys: LtiSystem, roots: list) -> None:
    """Cross-check the state-space response against the polynomials.

    The twenty fixed pseudorandom points of ``_CHECK_POINTS``, scaled to a
    circle enclosing ``roots`` (all poles and zeros of ``sys``); relative
    tolerance 1e-8.
    """
    radius = 2.0 * (1.0 + max((abs(r) for r in roots), default=0.0))
    s = radius * _CHECK_POINTS
    h_ss = sys.response(s)
    h_poly = polynomial_response(sys.num, sys.den, s)
    err = np.abs(h_ss - h_poly) / (1.0 + np.abs(h_poly))
    if not np.all(err <= 1e-8):
        raise RealizationError(
            f"state-space response deviates from the polynomials (max rel err {err.max():.3g})"
        )


def realize(num: Sequence[float], den: Sequence[float]) -> LtiSystem:
    """Controllable-canonical realization of a proper rational function.

    Exactly-equal common roots (tolerance 1e-9) are cancelled first, so the
    realization order equals the reduced denominator degree. The result is
    checked against the polynomials at twenty fixed points in one batched
    solve (see ``LtiSystem.response``). Each polynomial's roots are solved
    once, for the cancellation, the radius of that check and, when nothing
    cancels, the system's ``poles()``. The returned system is immutable, so
    callers may share one realization between nodes with the same transfer
    function. Raises RealizationError for coefficients that are not a flat
    list of finite numbers, improper functions or a zero denominator.
    """
    num_c = _coefficients(num, "numerator")
    den_c = _coefficients(den, "denominator")
    if np.all(den_c == 0.0):
        raise RealizationError("zero denominator")
    if len(num_c) > len(den_c):
        raise RealizationError(
            f"improper transfer function (numerator degree {len(num_c) - 1} "
            f"> denominator degree {len(den_c) - 1})"
        )
    num_c = num_c / den_c[0]
    den_c = den_c / den_c[0]
    den_roots = _roots(den_c)
    num_c, den_c, zeros, poles = _cancel_common_roots(
        num_c, den_c, list(_roots(num_c)), list(den_roots)
    )

    k = len(den_c) - 1
    if k == 0:
        sys = LtiSystem(
            num=tuple(num_c),
            den=(1.0,),
            a=np.empty((0, 0)),
            b=np.empty(0),
            c=np.empty(0),
            d=float(num_c[0]),
        )
        return sys

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
    if len(poles) == len(den_roots):  # nothing cancelled: den_roots are the poles
        object.__setattr__(sys, "_poles", den_roots)
    _verify_realization(sys, zeros + poles)
    return sys


@dataclass(frozen=True)
class IfpIndex:
    """Input-feedforward passivity index ``nu = inf_w Re H(jw)``.

    ``nu > 0`` is a passivity surplus, ``nu < 0`` a shortage. ``omega`` is
    the frequency where the infimum is attained, or None when it is the
    limit as w -> inf.
    """

    nu: float
    omega: float | None = None

    def __post_init__(self):
        if not math.isfinite(self.nu):
            raise PlugnetError("passivity index must be finite")


def _even_odd(coeffs) -> tuple[np.ndarray, np.ndarray]:
    """``Pe, Po`` with ``P(jw) = Pe(x) + jw Po(x)`` and ``x = w**2``, descending in x."""
    ascending = np.asarray(coeffs, dtype=float)[::-1]
    even, odd = ascending[0::2], ascending[1::2]
    even = even * (-1.0) ** np.arange(even.size)
    odd = odd * (-1.0) ** np.arange(odd.size) if odd.size else np.zeros(1)
    return even[::-1], odd[::-1]


def _with_derivatives(polys: Sequence[np.ndarray]) -> np.ndarray:
    """``polys`` and then their derivatives as rows, zero-padded in front to
    one length; each entry is the product ``_derivative`` forms."""
    width = max(map(len, polys))
    rows = np.zeros((2 * len(polys), width))
    for k, p in enumerate(polys):
        rows[k, width - len(p):] = p
    rows[len(polys):, 1:] = rows[:len(polys), :-1] * np.arange(width - 1, 0, -1)
    return rows


def _re_h_and_slope(rows: np.ndarray, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``E/F`` and ``E'F - EF'`` at ``xs``, from the values of the factors
    ``(Ne, No, De, Do, a, b)`` of ``estimate_ifp_index`` and of their
    derivatives (``rows``, from ``_with_derivatives``), not from E's and F's
    own coefficients, which cancel where |D(jw)| is small. Each row is
    evaluated as ``_polyval`` evaluates it: at a finite x a leading zero
    leaves the bits as they are."""
    values = np.zeros((len(rows), len(xs)))
    for coeff in rows.T[:, :, None]:
        values = values * xs + coeff
    # the values of [(Ne, No), (De, Do)] and (a, b), then their derivatives
    (parts, weights), (d_parts, d_weights) = ((v[:2], v[2]) for v in values.reshape(2, 3, 2, -1))
    e, f = (parts * weights).sum(axis=1)
    de, df = (d_parts * weights + parts * d_weights).sum(axis=1)
    return e / f, de * f - e * df


def estimate_ifp_index(sys: LtiSystem) -> IfpIndex:
    """Passivity index ``inf_w Re H(jw)`` of a SISO LTI system, in closed form.

    Requires all poles in the closed left half-plane with imaginary-axis
    poles only at the origin (and at most one there); otherwise the real
    part is unbounded or the system is unstable and the index is
    meaningless.

    With ``H = N/D`` and ``x = w**2``, Re H(jw) = E(x)/F(x) where
    E = Ne De + x No Do and F = De**2 + x Do**2 = |D(jw)|**2; a pole at the
    origin puts a factor x in both, cancelled first. The infimum over
    x >= 0 is then the value at x = 0, the value at a root x > 0 of
    E'F - EF', or the limit d as x -> inf. Every root with a positive real
    part is tried at its real part, so a real root that rounding has split
    into a complex pair still counts; a spurious candidate only adds a
    value Re H takes. The poles are the ones ``realize`` solved for, so
    the only root solves here are those of E'F - EF' and of its reverse.

    Near a resonance F's coefficients cancel, so a root solved from them
    can miss the minimiser by 1e-8, which a sharp minimum turns into an
    overestimate of the index. So every candidate also takes two Newton
    steps on E'F - EF' evaluated from the factors' values, and the point
    after each step is tried as well. There the factors' own values cancel
    too, so the index is the value at the winning point with each factor
    evaluated by the compensated Horner scheme (``_compensated_horner``),
    capped at the limit d.
    """
    poles = sys.poles()
    if np.any(poles.real > _POLE_TOL):
        raise EstimatorError(f"unstable system: pole at {poles[poles.real > _POLE_TOL][0]:.6g}")
    on_axis = np.abs(poles.real) <= _POLE_TOL
    origin = on_axis & (np.abs(poles) <= _POLE_TOL)
    if np.any(on_axis & ~origin):
        raise EstimatorError("pole on the imaginary axis away from the origin")
    if int(np.count_nonzero(origin)) > 1:
        raise EstimatorError("repeated pole at the origin: Re H(jw) is unbounded below")

    ne, no = _even_odd(sys.num)
    de, do = _even_odd(sys.den)
    # E = Ne a + No b and F = De a + Do b, with (a, b) = (De, x Do), or
    # (De / x, Do) when the denominator's constant term is zero.
    a, b = de, np.append(do, 0.0)
    if sys.den[-1] == 0.0:
        a, b = (de[:-1] if de.size > 1 else np.zeros(1)), do
    e = np.add(*_padded(_polymul(ne, a), _polymul(no, b)))
    f = np.add(*_padded(_polymul(de, a), _polymul(do, b)))
    g = np.subtract(*_padded(_polymul(_derivative(e), f), _polymul(e, _derivative(f))))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # The companion matrix finds the roots far below the largest one
        # poorly, so they also come as reciprocals of the reversed
        # polynomial's roots.
        roots = np.concatenate([_roots(g), 1.0 / _roots(g[::-1])]).real
        xs = np.concatenate([[0.0], roots[(roots > 0.0) & (roots < np.inf)]])
        rows = _with_derivatives((ne, no, de, do, a, b))
        dg = _derivative(g)
        values, slopes = _re_h_and_slope(rows, xs)
        points, minima = [xs], [values]
        for _ in range(2):  # each step starts from the points the last one reached
            xs = xs - slopes / _polyval(dg, xs)
            xs = xs[(xs >= 0.0) & (xs < np.inf)]
            values, slopes = _re_h_and_slope(rows, xs)
            points.append(xs)
            minima.append(values)
        # The limit d comes last, so a value at a finite frequency wins a
        # tie, and a polished point wins only with a smaller value.
        xs = np.concatenate(points)
        values = np.concatenate(minima + [[sys.d]])
        i = int(np.nanargmin(values))
        if i == xs.size:
            return IfpIndex(nu=sys.d)
        x = float(xs[i])
        n_e, n_o, d_e, d_o, a_x, b_x = (_compensated_horner(p.tolist(), x)
                                        for p in (ne, no, de, do, a, b))
        nu = float(np.divide(n_e * a_x + n_o * b_x, d_e * a_x + d_o * b_x))
    if not math.isfinite(nu):  # the split overflows past about 1.3e300
        nu = float(values[i])
    # Re H tends to d, so no index exceeds it; where Re H touches d at a
    # finite point the compensated value can round a few ulps above it.
    return IfpIndex(nu=min(nu, sys.d), omega=math.sqrt(x))


_SPLITTER = 134217729.0  # 2**27 + 1


def _compensated_horner(coeffs: list[float], x: float) -> float:
    """The polynomial ``coeffs`` (descending) at x, as accurate as Horner's
    rule in twice the working precision and then rounded (Graillat,
    Langlois & Louvet, "Compensated Horner scheme", 2005): each step's
    product error (Dekker's TwoProduct, on halves of 26 significant bits)
    and sum error (Knuth's TwoSum) are found exactly and summed by a second
    Horner recurrence, which corrects the result."""
    t = _SPLITTER * x
    x_hi = t - (t - x)
    x_lo = x - x_hi
    s, c = coeffs[0], 0.0
    for coeff in coeffs[1:]:
        product = s * x
        t = _SPLITTER * s
        s_hi = t - (t - s)
        s_lo = s - s_hi
        product_error = ((s_hi * x_hi - product) + s_hi * x_lo + s_lo * x_hi) + s_lo * x_lo
        s = product + coeff
        z = s - product
        c = c * x + (product_error + ((product - (s - z)) + (coeff - z)))
    return s + c


@dataclass(frozen=True)
class SectorCoupling:
    """Odd, sector-bounded static coupling nonlinearity.

    ``alpha_lower``/``alpha_upper`` are the declared sector bounds:
    ``alpha_lower <= phi(x)/x <= alpha_upper`` for x != 0. Use the factory
    helpers below; they fill in the exact bounds for the built-in kinds.
    """

    kind: str
    alpha_lower: float
    alpha_upper: float
    gain: float | None = None
    table: tuple[tuple[float, float], ...] | None = None

    def __post_init__(self):
        if self.kind not in COUPLING_FORMULAS:
            raise PlugnetError(f"unknown coupling kind {self.kind!r}")
        if not (0.0 < self.alpha_lower <= self.alpha_upper < math.inf):
            raise PlugnetError(
                f"sector bounds must satisfy 0 < lower <= upper < inf, "
                f"got ({self.alpha_lower}, {self.alpha_upper})"
            )
        if self.kind == "tabulated":
            _table_points(self.table)
        elif self.gain is None or self.gain <= 0.0:
            raise PlugnetError(f"{self.kind} coupling needs a positive gain")


def _table_points(points) -> tuple[tuple[float, float], ...]:
    """``points`` as (x, y) float pairs: finite, with x > 0 strictly increasing."""
    try:
        pairs = [(x, y) for x, y in points]
        if any(_bool_or_text(v) for pair in pairs for v in pair):
            raise TypeError
        pts = tuple((float(x), float(y)) for x, y in pairs)
    except (TypeError, ValueError):
        raise TableError("table must be a list of [x, y] number pairs") from None
    except OverflowError:  # an integer beyond the float range
        raise TableError("table knots must be finite, positive and strictly increasing") from None
    xs = [x for x, _ in pts]
    if not (pts and xs[0] > 0.0 and all(a < b for a, b in zip(xs, xs[1:]))
            and np.all(np.isfinite(pts))):
        raise TableError("table knots must be finite, positive and strictly increasing")
    return pts


def _exact_sector(kind: str, gain: float | None, table) -> tuple[float, float]:
    """inf and sup of phi(x)/x over x != 0, in closed form.

    ``sat_sine``/``sat_sine_smooth``: sin(x)/x falls from 1 towards 2/pi on
    the sine branch and the linear branches lie between. ``tabulated``: the
    ratio is monotone on each linear segment, so the knot ratios and the
    last segment's slope (the limit as x -> inf) are the only candidates.
    """
    if kind == "linear_gain":
        return gain, gain
    if kind != "tabulated":
        return 2.0 * gain / math.pi, gain
    (x0, y0), (x1, y1) = (((0.0, 0.0),) + tuple(table))[-2:]
    ratios = [y / x for x, y in table] + [(y1 - y0) / (x1 - x0)]
    return min(ratios), max(ratios)


def _analytic(kind: str, a: float) -> SectorCoupling:
    """A coupling of a gain kind, declared with its exact sector."""
    a = float(a)
    lower, upper = _exact_sector(kind, a, None)
    return SectorCoupling(kind=kind, gain=a, alpha_lower=lower, alpha_upper=upper)


def linear_gain(a: float) -> SectorCoupling:
    """phi(x) = a*x, sector [a, a]."""
    return _analytic("linear_gain", a)


def saturated_sine(a: float) -> SectorCoupling:
    """phi(x) = a*sin(x) for |x| < pi/2, a*x otherwise.

    Implemented exactly as stated, including the jump at |x| = pi/2 where
    the sine branch approaches a while the linear branch takes a*pi/2.
    Exact sector: [2a/pi, a].
    """
    return _analytic("sat_sine", a)


def saturated_sine_smooth(a: float) -> SectorCoupling:
    """Continuous variant: the linear branch is shifted to meet a*sin at pi/2.

    phi(x) = a*sin(x) for |x| < pi/2, a*sign(x)*(|x| - pi/2 + 1) otherwise.
    Same exact sector [2a/pi, a].
    """
    return _analytic("sat_sine_smooth", a)


def tabulated(
    points: Sequence[tuple[float, float]],
    alpha_lower: float | None = None,
    alpha_upper: float | None = None,
) -> SectorCoupling:
    """Odd piecewise-linear coupling through (0, 0) and the given x > 0 knots.

    Beyond the last knot the final segment's slope continues. A bound that
    is not given is the exact one.
    """
    pts = _table_points(points)
    exact = _exact_sector("tabulated", None, pts)
    return SectorCoupling(
        kind="tabulated",
        alpha_lower=float(exact[0] if alpha_lower is None else alpha_lower),
        alpha_upper=float(exact[1] if alpha_upper is None else alpha_upper),
        table=pts,
    )


# The formula of each coupling kind, written once. Parameters broadcast
# against x: shape (m,) for a gain, (m, K + 1) for a table of K knots, with
# m = 1 or m = len(x), so one call evaluates one coupling at many points or
# m same-kind couplings at one point each.


def _linear_gain_phi(gain, x):
    return gain * x


def _sat_sine_phi(gain, x):
    return gain * np.where(np.abs(x) < _HALF_PI, np.sin(x), x)


def _sat_sine_smooth_phi(gain, x):
    mag = np.abs(x)
    return gain * np.where(mag < _HALF_PI, np.sin(x), np.sign(x) * (mag - _HALF_PI + 1.0))


def _tabulated_phi(knots, values, slopes, x):
    """Odd piecewise-linear interpolation through (0, 0) and the knots.

    Row r of ``knots``/``values``/``slopes`` holds anchors 0, x_1, ..., x_K,
    the values there and the slope of the segment that starts there; the
    last slope continues the final segment past x_K. Shorter tables are
    padded by repeating their last entry, which leaves them unchanged.
    """
    mag = np.abs(x)
    at = np.arange(len(knots)) * knots.shape[1]  # flat index of each row's anchor 0
    for knot in knots[:, 1:].T:
        at = at + (knot <= mag)
    return np.sign(x) * (values.take(at) + slopes.take(at) * (mag - knots.take(at)))


COUPLING_FORMULAS = {
    "linear_gain": _linear_gain_phi,
    "sat_sine": _sat_sine_phi,
    "sat_sine_smooth": _sat_sine_smooth_phi,
    "tabulated": _tabulated_phi,
}


def coupling_parameters(couplings: Sequence[SectorCoupling]) -> tuple[np.ndarray, ...]:
    """Stacked parameters of same-kind couplings, one row per coupling.

    The result is the leading arguments of ``COUPLING_FORMULAS[kind]``.
    """
    if couplings[0].kind != "tabulated":
        return (np.array([c.gain for c in couplings], dtype=float),)
    width = 1 + max(len(c.table) for c in couplings)
    knots, values, slopes = [], [], []
    for c in couplings:
        xs = [0.0] + [x for x, _ in c.table]
        ys = [0.0] + [y for _, y in c.table]
        ss = [(y1 - y0) / (x1 - x0) for x0, x1, y0, y1 in zip(xs, xs[1:], ys, ys[1:])]
        pad = width - len(xs)
        knots.append(xs + xs[-1:] * pad)
        values.append(ys + ys[-1:] * pad)
        slopes.append(ss + ss[-1:] * (pad + 1))
    return np.array(knots), np.array(values), np.array(slopes)


def evaluate_coupling(c: SectorCoupling, x):
    """phi(x) for scalar or array x."""
    arr = np.asarray(x, dtype=float)
    out = COUPLING_FORMULAS[c.kind](*coupling_parameters([c]), arr.ravel())
    if np.isscalar(x) or (isinstance(x, np.ndarray) and x.ndim == 0):
        return float(out[0])
    return out.reshape(arr.shape)


@dataclass(frozen=True)
class SectorCheck:
    """The exact sector of a coupling, and whether its declared bounds contain it."""

    alpha_lower: float
    alpha_upper: float
    within_declared: bool


def verify_sector(c: SectorCoupling) -> SectorCheck:
    """The exact sector of ``c`` against its declared bounds, compared with no slack.

    A violation of the declared bounds is reported through
    ``within_declared``, not raised; parsing layers decide what to do.
    """
    lower, upper = _exact_sector(c.kind, c.gain, c.table)
    return SectorCheck(lower, upper, c.alpha_lower <= lower and upper <= c.alpha_upper)
