"""Node dynamics and coupling descriptions.

Covers three things: state-space realizations of SISO transfer functions,
estimation of the input-feedforward passivity index by a frequency sweep
(for a stable SISO system the index is ``inf_w Re H(jw)``), and
sector-bounded odd coupling nonlinearities with numeric verification of
their declared bounds.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import EstimatorError, PlugnetError, RealizationError

_CANCEL_TOL = 1e-9
_POLE_TOL = 1e-9
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_HALF_PI = math.pi / 2.0


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
        return np.roots(self.den) if len(self.den) > 1 else np.empty(0, dtype=complex)


def polynomial_response(num: Sequence[float], den: Sequence[float], s) -> np.ndarray:
    """Evaluate num(s)/den(s) directly; the independent check against realize()."""
    s = np.asarray(s, dtype=complex)
    return np.polyval(list(num), s) / np.polyval(list(den), s)


def _strip_leading_zeros(coeffs: np.ndarray) -> np.ndarray:
    nz = np.flatnonzero(coeffs != 0.0)
    if nz.size == 0:
        return coeffs[-1:]
    return coeffs[nz[0]:]


def _coefficients(values, which: str) -> np.ndarray:
    """``values`` as a flat array of finite polynomial coefficients, leading zeros stripped."""
    try:
        coeffs = np.atleast_1d(np.asarray(values, dtype=float))
    except (TypeError, ValueError):
        raise RealizationError(f"{which} coefficients must be numbers") from None
    if coeffs.ndim != 1 or not np.all(np.isfinite(coeffs)):
        raise RealizationError(f"{which} coefficients must be a flat list of finite numbers")
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

    Twenty pseudorandom points on a circle enclosing ``roots`` (all poles
    and zeros of ``sys``); relative tolerance 1e-8.
    """
    radius = 2.0 * (1.0 + max((abs(r) for r in roots), default=0.0))
    rng = np.random.default_rng(1724)
    s = radius * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, size=20))
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
    checked against the polynomials at twenty points in one batched solve
    (see ``LtiSystem.response``); the polynomial roots are computed once
    for both the cancellation and that check. The returned system is
    immutable, so callers may share one realization between nodes with the
    same transfer function. Raises RealizationError for coefficients that
    are not a flat list of finite numbers, improper functions or a zero
    denominator.
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
    num_c, den_c, zeros, poles = _cancel_common_roots(
        num_c, den_c, list(np.roots(num_c)), list(np.roots(den_c))
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
    _verify_realization(sys, zeros + poles)
    return sys


@dataclass(frozen=True)
class IfpIndex:
    """Input-feedforward passivity index with its provenance.

    ``nu > 0`` is a passivity surplus, ``nu < 0`` a shortage. ``omega`` is
    the minimizing frequency when the index came from a sweep.
    """

    nu: float
    provenance: str = "declared"
    omega: float | None = None

    def __post_init__(self):
        if not math.isfinite(self.nu):
            raise PlugnetError("passivity index must be finite")
        if self.provenance not in ("declared", "frequency_sweep"):
            raise PlugnetError(f"unknown provenance {self.provenance!r}")


def _golden_section_min(fn, lo: float, hi: float, tol: float) -> tuple[float, float]:
    """Minimize fn on [lo, hi]; works with boundary minima."""
    x1 = hi - _GOLDEN * (hi - lo)
    x2 = lo + _GOLDEN * (hi - lo)
    f1, f2 = fn(x1), fn(x2)
    while (hi - lo) > tol * max(1.0, abs(hi)):
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _GOLDEN * (hi - lo)
            f1 = fn(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _GOLDEN * (hi - lo)
            f2 = fn(x2)
    return (x1, f1) if f1 <= f2 else (x2, f2)


def default_omega_grid() -> np.ndarray:
    """2000 log-spaced frequencies over [1e-4, 1e4] rad/s."""
    return np.logspace(-4.0, 4.0, 2000)


def estimate_ifp_index(
    sys: LtiSystem,
    omega_grid: np.ndarray | None = None,
    refine_tol: float = 1e-9,
) -> IfpIndex:
    """Passivity index of a SISO LTI system by sweeping Re H(jw).

    Requires all poles in the closed left half-plane with imaginary-axis
    poles only at the origin (and at most one there); otherwise the real
    part is unbounded or the system is unstable and the sweep is
    meaningless. The grid minimum is sharpened by a golden-section search
    between its neighbouring grid points.
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

    if sys.order == 0:
        return IfpIndex(nu=sys.d, provenance="frequency_sweep", omega=0.0)

    grid = default_omega_grid() if omega_grid is None else np.asarray(omega_grid, dtype=float)
    num, den = list(sys.num), list(sys.den)

    def re_h(w):
        s = 1j * np.asarray(w, dtype=float)
        return (np.polyval(num, s) / np.polyval(den, s)).real

    values = re_h(grid)
    i = int(np.argmin(values))
    nu, omega = float(values[i]), float(grid[i])
    lo = float(grid[max(i - 1, 0)])
    hi = float(grid[min(i + 1, len(grid) - 1)])
    if hi > lo:
        w_star, v_star = _golden_section_min(lambda w: float(re_h(w)), lo, hi, refine_tol)
        if v_star < nu:
            nu, omega = float(v_star), float(w_star)
    return IfpIndex(nu=nu, provenance="frequency_sweep", omega=omega)


_COUPLING_KINDS = ("linear_gain", "sat_sine", "sat_sine_smooth", "tabulated")


@dataclass(frozen=True)
class SectorCoupling:
    """Odd, sector-bounded static coupling nonlinearity.

    ``alpha_lower``/``alpha_upper`` are the declared sector bounds:
    ``alpha_lower <= phi(x)/x <= alpha_upper`` for x != 0. Use the factory
    helpers below; they fill in the tight bounds for the built-in kinds.
    """

    kind: str
    alpha_lower: float
    alpha_upper: float
    gain: float | None = None
    table: tuple[tuple[float, float], ...] | None = None

    def __post_init__(self):
        if self.kind not in _COUPLING_KINDS:
            raise PlugnetError(f"unknown coupling kind {self.kind!r}")
        if not (0.0 < self.alpha_lower <= self.alpha_upper < math.inf):
            raise PlugnetError(
                f"sector bounds must satisfy 0 < lower <= upper < inf, "
                f"got ({self.alpha_lower}, {self.alpha_upper})"
            )
        if self.kind == "tabulated":
            if not self.table:
                raise PlugnetError("tabulated coupling needs knot points")
            xs = [x for x, _ in self.table]
            if xs[0] <= 0.0 or any(b <= a for a, b in zip(xs, xs[1:])):
                raise PlugnetError("table knots must be strictly increasing and positive")
        elif self.gain is None or self.gain <= 0.0:
            raise PlugnetError(f"{self.kind} coupling needs a positive gain")


def linear_gain(a: float) -> SectorCoupling:
    """phi(x) = a*x, sector [a, a]."""
    return SectorCoupling(kind="linear_gain", gain=float(a), alpha_lower=float(a), alpha_upper=float(a))


def saturated_sine(a: float) -> SectorCoupling:
    """phi(x) = a*sin(x) for |x| < pi/2, a*x otherwise.

    Implemented exactly as stated, including the jump at |x| = pi/2 where
    the sine branch approaches a while the linear branch takes a*pi/2.
    Tight sector: [2a/pi, a].
    """
    a = float(a)
    return SectorCoupling(kind="sat_sine", gain=a, alpha_lower=2.0 * a / math.pi, alpha_upper=a)


def saturated_sine_smooth(a: float) -> SectorCoupling:
    """Continuous variant: the linear branch is shifted to meet a*sin at pi/2.

    phi(x) = a*sin(x) for |x| < pi/2, a*sign(x)*(|x| - pi/2 + 1) otherwise.
    Same tight sector [2a/pi, a].
    """
    a = float(a)
    return SectorCoupling(
        kind="sat_sine_smooth", gain=a, alpha_lower=2.0 * a / math.pi, alpha_upper=a
    )


def tabulated(
    points: Sequence[tuple[float, float]],
    alpha_lower: float | None = None,
    alpha_upper: float | None = None,
) -> SectorCoupling:
    """Odd piecewise-linear coupling through (0, 0) and the given x > 0 knots.

    Beyond the last knot the final segment's slope continues. When bounds
    are not given, the tight ones are computed from the knot ratios and the
    trailing slope (the ratio is monotone within each linear segment, so
    knots and the limit slope are the only candidates).
    """
    pts = tuple((float(x), float(y)) for x, y in points)
    if alpha_lower is None or alpha_upper is None:
        xs = np.array([0.0] + [x for x, _ in pts])
        ys = np.array([0.0] + [y for _, y in pts])
        ratios = list(ys[1:] / xs[1:])
        ratios.append((ys[-1] - ys[-2]) / (xs[-1] - xs[-2]))
        lower = min(ratios) if alpha_lower is None else alpha_lower
        upper = max(ratios) if alpha_upper is None else alpha_upper
    else:
        lower, upper = alpha_lower, alpha_upper
    return SectorCoupling(
        kind="tabulated", alpha_lower=float(lower), alpha_upper=float(upper), table=pts
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
    """Observed sector bounds and symmetry flags from sampling a coupling."""

    alpha_lower_observed: float
    alpha_upper_observed: float
    odd_symmetry_ok: bool
    within_declared: bool


@functools.lru_cache(maxsize=8)
def _sector_grid(samples: int, range_: float) -> np.ndarray:
    """The sample points of ``verify_sector``: a symmetric log+linear grid.

    The positive points in ascending order, then their negatives. A pure
    function of its arguments, built once per pair and read-only, because
    every caller shares it.
    """
    lin = np.linspace(range_ / samples, range_, samples)
    log = np.logspace(math.log10(range_) - 8.0, math.log10(range_), samples)
    xs = np.unique(np.concatenate([lin, log]))
    grid = np.concatenate([xs, -xs])
    grid.flags.writeable = False
    return grid


def verify_sector(c: SectorCoupling, samples: int = 2001, range_: float = 10.0) -> SectorCheck:
    """Sample phi(x)/x on a symmetric log+linear grid and compare with declared bounds.

    A violation of the declared bounds is reported through
    ``within_declared``, not raised; parsing layers decide what to do.
    """
    if samples < 2:
        raise PlugnetError("need at least 2 samples")
    if range_ <= 0.0:
        raise PlugnetError("sampling range must be positive")
    xs = _sector_grid(samples, range_)
    values = evaluate_coupling(c, xs)
    ratios = values / xs
    pos, neg = np.split(values, 2)
    lower = float(ratios.min())
    upper = float(ratios.max())
    odd_ok = bool(np.all(np.abs(pos + neg) <= 1e-12 * np.maximum(1.0, np.abs(pos))))
    within = lower >= c.alpha_lower - 1e-9 and upper <= c.alpha_upper + 1e-9
    return SectorCheck(lower, upper, odd_ok, within)
