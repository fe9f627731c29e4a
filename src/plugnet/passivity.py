"""Node dynamics and coupling descriptions.

Covers three things: state-space realizations of SISO transfer functions,
the input-feedforward passivity index of a stable SISO system
(``inf_w Re H(jw)``) in closed form, and sector-bounded odd coupling
nonlinearities with their exact sector bounds, which any declared bounds
must contain.

A heterogeneous network realizes and indexes one system per node, so both
are done for a whole batch of systems at once (``realize_many``,
``ifp_indices``): per group of systems whose polynomials have one shape,
one numpy pass per step instead of one per system, with the Python-level
work per system kept to validation, the products of the index's
polynomials and building the result. ``realize`` and
``estimate_ifp_index`` are batches of one. Each item of a batch gets the
bits it gets alone: the helpers below compute exactly what ``np.roots``,
``np.polymul``, ``np.polyadd``/``np.polysub`` and ``np.polyval`` compute,
operation for operation, and a stacked LAPACK call solves each matrix as
it solves it alone. Each polynomial's roots are solved once: ``realize``
keeps the denominator's roots as the system's poles, and the realization
check scales fixed pseudorandom points on the unit circle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Sequence

import numpy as np

from .errors import EstimatorError, PlugnetError, RealizationError, TableError, UnsolvableIndex

_CANCEL_TOL = 1e-9
_POLE_TOL = 1e-9
# Where the realization check compares the state-space response with the
# polynomials, before scaling to a circle enclosing every pole and zero.
_CHECK_POINTS = np.exp(1j * np.random.default_rng(1724).uniform(0.0, 2.0 * math.pi, size=20))
# Systems per stacked realization check: its pencils take 320 n^2 bytes a
# system, so blocks keep a large batch's temporaries small.
_CHECK_BLOCK = 64


def _groups(keys) -> dict:
    """The positions of each distinct key, in order of first appearance."""
    groups: dict = {}
    for position, key in enumerate(keys):
        groups.setdefault(key, []).append(position)
    return groups


def _eigvals_each(matrices: np.ndarray) -> list:
    """``np.linalg.eigvals`` of each matrix of a stack, as each alone gives it.

    One call solves the stack, each matrix by the same LAPACK routine as
    alone; but that call returns complex eigenvalues for every matrix once
    one matrix has a complex pair, so a matrix whose eigenvalues are all
    real gets their real parts, as it would alone. A non-finite matrix
    fails the whole stack: then each matrix is solved alone, and one that
    fails keeps the LinAlgError it raises.
    """
    try:
        w = np.linalg.eigvals(matrices)
    except np.linalg.LinAlgError:
        out = []
        for matrix in matrices:
            try:
                out.append(np.linalg.eigvals(matrix))
            except np.linalg.LinAlgError as exc:
                out.append(exc)
        return out
    if w.dtype.kind != "c":
        return list(w)
    complex_rows = (w.imag != 0.0).any(axis=1).tolist()
    return [row if is_complex else row.real for row, is_complex in zip(w, complex_rows)]


def _roots_many(rows: np.ndarray) -> list:
    """``np.roots`` of each row of a 2-D float array, bit for bit.

    Each row's companion matrix is that of the row without its leading and
    trailing zeros, and each trailing zero appends a root at zero. Rows with
    the same leading and trailing zero counts share one ``eigvals`` call on
    their stacked companion matrices (see ``_eigvals_each``). An entry is a
    root array, or the LinAlgError that row's matrix raises.
    """
    n = rows.shape[1]
    nonzero = rows != 0.0
    shapes = zip(nonzero.any(axis=1).tolist(), nonzero.argmax(axis=1).tolist(),
                 nonzero[:, ::-1].argmax(axis=1).tolist())
    out: list = [None] * len(rows)
    for (any_nonzero, lead, trailing), members in _groups(shapes).items():
        if not any_nonzero:
            for r in members:
                out[r] = np.array([])
            continue
        p = rows[members, lead:n - trailing]
        m = p.shape[1] - 1
        if m == 0:
            roots = [np.array([]) for _ in members]
        else:
            companion = np.zeros((len(members), m, m))
            companion[:, 1:, :-1] = np.eye(m - 1)
            with np.errstate(over="ignore"):  # an overflow fails in eigvals
                companion[:, 0, :] = -p[:, 1:] / p[:, :1]
            roots = _eigvals_each(companion)
        for r, w in zip(members, roots):
            if trailing and not isinstance(w, Exception):
                w = np.concatenate((w, np.zeros(trailing, w.dtype)))
            out[r] = w
    return out


def _magnitudes(z: np.ndarray) -> np.ndarray:
    """``abs`` of each entry as numpy's scalar ``abs`` gives it: ``hypot`` of
    the parts. (The array ``abs`` of a complex array can differ in the last bit.)"""
    return np.hypot(z.real, z.imag)


def _trimmed(p: np.ndarray) -> np.ndarray:
    """``p`` without leading zeros, or ``[0.]`` when all are zero (as ``np.poly1d``)."""
    if p.size and p[0] != 0.0:
        return p
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

    def poles(self) -> np.ndarray:
        """The roots of ``den`` (a new array): kept from ``realize``, else solved.

        No library code calls it (the index sweep reads ``_poles_many``); the
        tests read it to check that ``realize`` keeps ``np.roots``' bits.
        """
        poles, = _poles_many([self])
        if isinstance(poles, Exception):
            raise poles
        return poles.copy()


def _strip_leading_zeros(coeffs: np.ndarray) -> np.ndarray:
    if coeffs[0] != 0.0:
        return coeffs
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
    if coeffs.ndim != 1 or not np.isfinite(coeffs).all():
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


def _realization_errors(a, b, c, d, num, den, radius) -> list:
    """The realization check of systems of one order and numerator length,
    stacked: ``a`` (k, n, n), ``b`` and ``c`` (k, n), ``d`` (k,), ``num``
    and ``den`` (k, len) and ``radius`` (k,). Each system's state-space
    response is compared with its polynomials at the twenty fixed
    pseudorandom points of ``_CHECK_POINTS`` scaled to ``radius``, a circle
    enclosing all its poles and zeros; relative tolerance 1e-8. One stacked
    solve of every pencil ``s I - A``. An entry is None, or the
    RealizationError of a system that fails the check.
    """
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # NaN fails the check
        s = radius[:, None] * _CHECK_POINTS
        pencils = s[:, :, None, None] * np.eye(b.shape[1]) - a[:, None]
        x = np.linalg.solve(pencils, b[:, None, :, None])
        h_ss = (x[..., 0] @ c[:, :, None])[..., 0] + d[:, None]
        h_poly = _polyval(num.T[:, :, None], s) / _polyval(den.T[:, :, None], s)
        err = np.abs(h_ss - h_poly) / (1.0 + np.abs(h_poly))
    raised: list = [None] * len(b)
    for r in np.flatnonzero(~np.all(err <= 1e-8, axis=1)).tolist():
        raised[r] = RealizationError(f"state-space response deviates from the polynomials "
                                     f"(max rel err {err[r].max():.3g})")
    return raised


def _check_radius(roots: list) -> np.ndarray:
    """``2 (1 + max |r|)`` over each row's roots, in one pass over all of
    them, with ``|r|`` as numpy's scalar ``abs`` gives it."""
    owner = np.repeat(np.arange(len(roots)), [len(r) for r in roots])
    largest = np.full(len(roots), -np.inf)
    np.maximum.at(largest, owner, _magnitudes(np.concatenate(roots)))
    with np.errstate(over="ignore"):  # an infinite radius fails the check
        return 2.0 * (1.0 + largest)


def realize(num: Sequence[float], den: Sequence[float]) -> LtiSystem:
    """Controllable-canonical realization of a proper rational function.

    Exactly-equal common roots (tolerance 1e-9) are cancelled first, so the
    realization order equals the reduced denominator degree. The result is
    checked against the polynomials at twenty fixed points. The returned
    system is immutable, so callers may share one realization between nodes
    with the same transfer function. Raises RealizationError for
    coefficients that are not a flat list of finite numbers, improper
    functions, a zero denominator, coefficients that overflow when divided
    by the leading denominator coefficient, roots that cannot be solved or
    a failed check. A batch of one ``realize_many``.
    """
    outcome, = realize_many([(num, den)])
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def realize_many(pairs: Sequence[tuple]) -> list:
    """``realize`` of each ``(num, den)`` pair, bit for bit, in stacked passes.

    One outcome per pair: its ``LtiSystem``, or the exception ``realize``
    raises for that pair alone. The coefficients are validated pair by
    pair; then the pairs whose coefficient lists have one shape are
    normalized in one pass and their roots solved by one ``eigvals`` per
    group of companion matrices (``_roots_many``). A pair with a zero within
    twice the cancellation tolerance of a pole goes through
    ``_cancel_common_roots``; then the systems of one order and numerator
    length are built and checked together (``_realization_errors``). Each
    polynomial's roots are solved once, for the cancellation, the radius of
    the check and, when nothing cancels, the system's ``poles()``.
    """
    outcomes: list = [None] * len(pairs)
    valid = []
    for i, (num, den) in enumerate(pairs):
        try:
            num_c = _coefficients(num, "numerator")
            den_c = _coefficients(den, "denominator")
            if not den_c.any():
                raise RealizationError("zero denominator")
            if len(num_c) > len(den_c):
                raise RealizationError(
                    f"improper transfer function (numerator degree {len(num_c) - 1} "
                    f"> denominator degree {len(den_c) - 1})"
                )
        except PlugnetError as exc:
            outcomes[i] = exc
        else:
            valid.append((i, num_c, den_c))

    # (position, num, den, zeros, poles, the denominator's roots) per pair
    solved = []
    for members in _groups((len(v[1]), len(v[2])) for v in valid).values():
        lead = np.array([valid[m][2][0] for m in members])[:, None]
        with np.errstate(over="ignore"):
            nums = np.array([valid[m][1] for m in members]) / lead
            dens = np.array([valid[m][2] for m in members]) / lead
        finite = np.isfinite(nums).all(axis=1) & np.isfinite(dens).all(axis=1)
        for m in np.asarray(members)[~finite].tolist():
            outcomes[valid[m][0]] = RealizationError(
                "coefficients overflow when divided by the leading denominator coefficient")
        members, nums, dens = np.asarray(members)[finite].tolist(), nums[finite], dens[finite]
        for m, num_c, den_c, poles, zeros in zip(members, nums, dens, _roots_many(dens),
                                                 _roots_many(nums)):
            i = valid[m][0]
            for which, roots in (("denominator", poles), ("numerator", zeros)):
                if isinstance(roots, Exception):
                    outcomes[i] = RealizationError(f"{which} roots cannot be solved: {roots}")
                    break
            else:
                solved.append((i, num_c, den_c, zeros, poles, poles))

    for members in _groups((len(s[3]), len(s[4])) for s in solved).values():
        zeros = np.array([solved[m][3] for m in members], dtype=complex)
        poles = np.array([solved[m][4] for m in members], dtype=complex)
        gaps = zeros[:, :, None] - poles[:, None, :]
        near = (_magnitudes(gaps) <= 2.0 * _CANCEL_TOL).any(axis=(1, 2))
        for m in np.asarray(members)[near].tolist():
            i, num_c, den_c, z, p, den_roots = solved[m]
            solved[m] = (i, *_cancel_common_roots(num_c, den_c, list(z), list(p)), den_roots)

    for members in _groups((len(s[1]), len(s[2])) for s in solved).values():
        rows = [solved[m] for m in members]
        num, den = np.array([r[1] for r in rows]), np.array([r[2] for r in rows])
        k = den.shape[1] - 1
        if k == 0:
            for i, num_c, *_ in rows:
                outcomes[i] = LtiSystem(num=tuple(num_c), den=(1.0,), a=np.empty((0, 0)),
                                        b=np.empty(0), c=np.empty(0), d=float(num_c[0]))
            continue
        alpha = den[:, 1:]
        padded = np.zeros((len(rows), k + 1))
        padded[:, k + 1 - num.shape[1]:] = num
        d = padded[:, 0]
        with np.errstate(over="ignore", invalid="ignore"):  # the check rejects a non-finite c
            c = padded[:, 1:] - d[:, None] * alpha
        a = np.zeros((len(rows), k, k))
        a[:, 0, :] = -alpha
        a[:, 1:, :-1] = np.eye(k - 1)
        b = np.zeros((len(rows), k))
        b[:, 0] = 1.0
        radius = _check_radius([np.concatenate((r[3], r[4])) for r in rows])
        errors = [error for start in range(0, len(rows), _CHECK_BLOCK)
                  for error in _realization_errors(*(v[start:start + _CHECK_BLOCK] for v in
                                                     (a, b, c, d, num, den, radius)))]
        for r, (i, num_c, den_c, _, poles, den_roots) in enumerate(rows):
            if errors[r] is not None:
                outcomes[i] = errors[r]
                continue
            sys = LtiSystem(num=tuple(num_c), den=tuple(den_c), a=a[r], b=b[r], c=c[r],
                            d=float(d[r]))
            if len(poles) == len(den_roots):  # nothing cancelled: den_roots are the poles
                object.__setattr__(sys, "_poles", den_roots)
            outcomes[i] = sys
    return outcomes


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
    """``Pe, Po`` with ``P(jw) = Pe(x) + jw Po(x)`` and ``x = w**2``, descending
    in x: of one coefficient list, or of each row of a 2-D array."""
    ascending = np.asarray(coeffs, dtype=float)[..., ::-1]
    even, odd = ascending[..., 0::2], ascending[..., 1::2]
    even = even * (-1.0) ** np.arange(even.shape[-1])
    if odd.shape[-1]:
        odd = odd * (-1.0) ** np.arange(odd.shape[-1])
    else:
        odd = np.zeros(odd.shape[:-1] + (1,))
    return even[..., ::-1], odd[..., ::-1]


def _index_polynomials(systems: Sequence[LtiSystem]) -> tuple[np.ndarray, np.ndarray, list]:
    """The factors ``(Ne, No, De, Do, a, b)`` of each system's Re H(jw), and
    the polynomial E'F - EF' whose positive roots are its stationary points
    (see ``estimate_ifp_index``).

    The factors of the systems whose ``num`` and ``den`` have one shape
    come from one pass, returned right-aligned as ``factors`` (systems, 6,
    width) with their ``lengths`` (systems, 6). Their products are formed
    system by system: ``np.convolve`` may sum in BLAS order, which a
    stacked product would not repeat.
    """
    groups = _groups((len(s.num), len(s.den), s.den[-1] == 0.0) for s in systems)
    parts = {}
    for (_, _, origin_pole), members in groups.items():
        ne, no = _even_odd([systems[k].num for k in members])
        de, do = _even_odd([systems[k].den for k in members])
        # E = Ne a + No b and F = De a + Do b, with (a, b) = (De, x Do), or
        # (De / x, Do) when the denominator's constant term is zero.
        pad = np.zeros((len(members), 1))
        if not origin_pole:
            parts[tuple(members)] = (ne, no, de, do, de, np.concatenate((do, pad), axis=1))
        else:
            parts[tuple(members)] = (ne, no, de, do, de[:, :-1] if de.shape[1] > 1 else pad, do)
    width = max((p.shape[1] for factors in parts.values() for p in factors), default=1)
    factors = np.zeros((len(systems), 6, width))
    lengths = np.zeros((len(systems), 6), dtype=int)
    g: list = [None] * len(systems)
    for members, group in parts.items():
        for i, p in enumerate(group):
            factors[list(members), i, width - p.shape[1]:] = p
            lengths[list(members), i] = p.shape[1]
        # Products beyond the float range leave inf and NaN coefficients,
        # which the root solve in ``ifp_indices`` turns into an EstimatorError.
        with np.errstate(over="ignore", invalid="ignore"):
            for k, (ne, no, de, do, a, b) in zip(members, zip(*group)):
                e = np.add(*_padded(_polymul(ne, a), _polymul(no, b)))
                f = np.add(*_padded(_polymul(de, a), _polymul(do, b)))
                g[k] = np.subtract(*_padded(_polymul(_derivative(e), f),
                                            _polymul(e, _derivative(f))))
    return factors, lengths, g


def _re_h_and_slope(rows: np.ndarray, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``E/F`` and ``E'F - EF'`` at each point of ``xs``, from the values of
    the factors ``(Ne, No, De, Do, a, b)`` and of their derivatives, not
    from E's and F's own coefficients, which cancel where |D(jw)| is small.
    ``rows`` holds the coefficients for each point, (width, 12, len(xs)):
    the six factors, then their derivatives. Each is evaluated as
    ``_polyval`` evaluates it: at a finite x >= 0 a leading zero leaves the
    bits as they are, so any padding gives the same values."""
    values = np.zeros(rows.shape[1:])
    for coeff in rows:
        values = values * xs + coeff
    # the values of [(Ne, No), (De, Do)] and (a, b), then their derivatives
    (parts, weights), (d_parts, d_weights) = ((v[:2], v[2]) for v in values.reshape(2, 3, 2, -1))
    e, f = (parts * weights).sum(axis=1)
    de, df = (d_parts * weights + parts * d_weights).sum(axis=1)
    return e / f, de * f - e * df


def _pole_problems(poles: list) -> list:
    """The EstimatorError that makes each system's index undefined, or None:
    a pole in the right half-plane, on the imaginary axis away from the
    origin, or twice at the origin. One pass over all the poles."""
    flat = np.concatenate([np.zeros(0)] + poles)
    owner = np.repeat(np.arange(len(poles)), [len(p) for p in poles])
    on_axis = np.abs(flat.real) <= _POLE_TOL
    origin = on_axis & (np.abs(flat) <= _POLE_TOL)
    unstable, off_origin, at_origin = (np.bincount(owner[mask], minlength=len(poles)).tolist()
                                       for mask in (flat.real > _POLE_TOL, on_axis & ~origin,
                                                    origin))
    problems: list = [None] * len(poles)
    for k, p in enumerate(poles):
        if unstable[k]:
            problems[k] = EstimatorError(f"unstable system: pole at {p[p.real > _POLE_TOL][0]:.6g}")
        elif off_origin[k]:
            problems[k] = EstimatorError("pole on the imaginary axis away from the origin")
        elif at_origin[k] > 1:
            problems[k] = EstimatorError("repeated pole at the origin: Re H(jw) is unbounded below")
    return problems


def _poles_many(systems: Sequence[LtiSystem]) -> list:
    """Each system's poles: kept from ``realize``, else solved, one
    ``eigvals`` per group (``_roots_many``). An entry is an array, shared
    with the system when kept, or the LinAlgError of a failed solve."""
    out: list = [None] * len(systems)
    unsolved = []
    for k, sys in enumerate(systems):
        if sys._poles is not None:
            out[k] = sys._poles
        elif len(sys.den) == 1:
            out[k] = np.empty(0, dtype=complex)
        else:
            unsolved.append(k)
    for members in _groups(len(systems[k].den) for k in unsolved).values():
        members = [unsolved[m] for m in members]
        dens = np.array([systems[k].den for k in members], dtype=float)
        for k, roots in zip(members, _roots_many(dens)):
            out[k] = roots
    return out


def estimate_ifp_index(sys: LtiSystem) -> IfpIndex:
    """Passivity index ``inf_w Re H(jw)`` of a SISO LTI system, in closed form.

    Requires all poles in the closed left half-plane with imaginary-axis
    poles only at the origin (and at most one there); otherwise the real
    part is unbounded or the system is unstable and the index is
    meaningless, and EstimatorError says which. It is ``UnsolvableIndex``,
    an EstimatorError, when the stationary points below cannot be root-solved. A batch of
    one ``ifp_indices``.

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
    outcome, = ifp_indices([sys])
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def ifp_indices(systems: Sequence[LtiSystem]) -> list:
    """``estimate_ifp_index`` of each system, bit for bit, in stacked passes.

    One outcome per system: its ``IfpIndex``, or the exception
    ``estimate_ifp_index`` raises for it alone. The factors of Re H(jw)
    come from one pass per shape of ``num`` and ``den``
    (``_index_polynomials``); the root solves of E'F - EF' and of its
    reverse are stacked per polynomial length; the candidate points of all
    systems are flattened with an owner index, so the Newton steps, the
    choice of each system's winner and its compensated Horner evaluation
    are one numpy pass each.
    """
    poles = _poles_many(systems)
    outcomes: list = [p if isinstance(p, Exception) else None for p in poles]
    usable = [k for k, outcome in enumerate(outcomes) if outcome is None]
    for k, problem in zip(usable, _pole_problems([poles[k] for k in usable])):
        outcomes[k] = problem
    positions = [k for k in usable if outcomes[k] is None]
    swept = [systems[k] for k in positions]
    factors, lengths, g = _index_polynomials(swept)
    width = factors.shape[2]

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # The companion matrix finds the roots far below the largest one
        # poorly, so they also come as reciprocals of the reversed
        # polynomial's roots. dg: each E'F - EF' differentiated, right-aligned.
        found: list = [None] * len(swept)
        dg = np.zeros((len(swept), max(map(len, g), default=1) - 1))
        for members in _groups(map(len, g)).values():
            rows = np.array([g[j] for j in members])
            dg[members, dg.shape[1] + 1 - rows.shape[1]:] = rows[:, :-1] * np.arange(
                rows.shape[1] - 1, 0, -1)
            for j, forward, reverse in zip(members, _roots_many(rows), _roots_many(rows[:, ::-1])):
                found[j] = (forward, reverse)
        live, owners, candidates = [], [], []
        for j, roots in enumerate(found):
            failed = [r for r in roots if isinstance(r, Exception)]
            if failed:  # E'F - EF' or its companion matrix is not finite
                error = UnsolvableIndex(
                    f"the stationary points of Re H(jw) cannot be solved: {failed[0]}")
                error.__cause__ = failed[0]
                outcomes[positions[j]] = error
                continue
            r = np.concatenate([roots[0], 1.0 / roots[1]]).real
            r = r[(r > 0.0) & (r < np.inf)]
            live.append(j)
            owners.append(np.full(len(r), j))
            candidates.append(r)
        owner = np.concatenate([np.array(live, dtype=int)] + owners)
        xs = np.concatenate([np.zeros(len(live))] + candidates)

        # (width, 12, system): the factors, then their derivatives
        rows = np.zeros((len(swept), 12, width))
        rows[:, :6] = factors
        rows[:, 6:, 1:] = factors[:, :, :-1] * np.arange(width - 1, 0, -1)
        rows = rows.transpose(2, 1, 0)
        dg = dg.T
        values, slopes = _re_h_and_slope(rows[:, :, owner], xs)
        points, minima, owned = [xs], [values], [owner]
        for _ in range(2):  # each step starts from the points the last one reached
            xs = xs - slopes / _polyval(dg[:, owner], xs)
            kept = (xs >= 0.0) & (xs < np.inf)
            xs, owner = xs[kept], owner[kept]
            values, slopes = _re_h_and_slope(rows[:, :, owner], xs)
            points.append(xs)
            minima.append(values)
            owned.append(owner)
        # The limit d comes last, so a value at a finite frequency wins a
        # tie, and a polished point wins only with a smaller value. Each
        # system's winner is the first of its least values, NaN ignored,
        # as np.nanargmin picks it.
        limits = np.array([swept[j].d for j in live])
        xs = np.concatenate(points)
        values = np.concatenate(minima + [limits])
        owner = np.concatenate(owned + [np.array(live, dtype=int)])
        ranked = np.where(np.isnan(values), np.inf, values)
        least = np.full(len(swept), np.inf)
        np.minimum.at(least, owner, ranked)
        hits = np.flatnonzero(ranked == least[owner])
        _, first = np.unique(owner[hits], return_index=True)
        winners = hits[first]  # one per live system, in the order of ``live``
        at = winners[winners < xs.size]
        x = xs[at]
        # each factor once more at the winning point, by compensated Horner
        won = owner[at]
        n_e, n_o, d_e, d_o, a_x, b_x = _compensated_horner(
            factors[won].reshape(-1, width), np.repeat(x, 6),
            (width - lengths[won]).ravel()).reshape(-1, 6).T
        nu = np.divide(n_e * a_x + n_o * b_x, d_e * a_x + d_o * b_x)
    # where the split overflows past about 1.3e300, the plain value
    nu = np.where(np.isfinite(nu), nu, values[at])
    compensated = iter(zip(nu.tolist(), x.tolist()))
    for j, winner in zip(live, winners.tolist()):
        sys = swept[j]
        try:
            if winner >= xs.size:  # the limit d
                outcomes[positions[j]] = IfpIndex(nu=sys.d)
                continue
            nu_j, x_j = next(compensated)
            # Re H tends to d, so no index exceeds it; where Re H touches d
            # at a finite point the compensated value can round a few ulps above it.
            outcomes[positions[j]] = IfpIndex(nu=min(nu_j, sys.d), omega=math.sqrt(x_j))
        except PlugnetError as exc:
            outcomes[positions[j]] = exc
    return outcomes


_SPLITTER = 134217729.0  # 2**27 + 1


def _compensated_horner(coeffs: np.ndarray, x: np.ndarray, first=0) -> np.ndarray:
    """Each row of ``coeffs`` (descending) at the matching point of ``x``, as
    accurate as Horner's rule in twice the working precision and then
    rounded (Graillat, Langlois & Louvet, "Compensated Horner scheme",
    2005): each step's product error (Dekker's TwoProduct, on halves of 26
    significant bits) and sum error (Knuth's TwoSum) are found exactly and
    summed by a second Horner recurrence, which corrects the result. Row r
    starts at its column ``first[r]`` (0 by default): the columns before
    it are padding, which the result ignores."""
    t = _SPLITTER * x
    x_hi = t - (t - x)
    x_lo = x - x_hi
    first = np.asarray(first)
    s, c = coeffs[:, 0], np.zeros(len(x))
    for column, coeff in enumerate(coeffs.T[1:], start=1):
        product = s * x
        t = _SPLITTER * s
        s_hi = t - (t - s)
        s_lo = s - s_hi
        product_error = ((s_hi * x_hi - product) + s_hi * x_lo + s_lo * x_hi) + s_lo * x_lo
        total = product + coeff
        z = total - product
        started = column > first
        c = np.where(started, c * x + (product_error + ((product - (total - z)) + (coeff - z))), 0.0)
        s = np.where(started, total, coeff)
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


# The gain-free shape of each coupling kind, written once: phi(x) = gain *
# shape(x), with gain 1 for a table. A table's parameters broadcast against
# x: shape (m, K + 1) for K knots, with m = 1 or m = len(x). A shape
# overwrites its argument: ``COUPLING_FORMULAS[kind](*params, x)``, x a 1-D
# float array (a view is fine, strided or not), returns calls that take no
# argument and overwrite x with shape(x) each time they run in turn, using
# scratch arrays allocated once with them. The simulator builds them once per
# slot of its step buffer; ``evaluate_coupling`` runs them once on a copy.
# Each shape keeps the operations of its plain numpy expression in their
# order, so the results are the same bit for bit.

# pi/2 as a 0-d array: comparing with or subtracting it skips the
# conversion that a Python float costs on every call.
_HALF_PI = np.array(math.pi / 2.0)
_HALF_PI.flags.writeable = False


def _linear_shape(x) -> tuple:
    """The identity: nothing to do."""
    return ()


def _sat_sine_shape(x) -> tuple:
    """``where(|x| < pi/2, sin(x), x)``.

    sin runs unmasked into scratch and a masked copy takes its values, which
    keeps the bits of the unmasked ``sin`` on every numpy.
    """
    mag, small, sine = np.empty(len(x)), np.empty(len(x), bool), np.empty(len(x))
    return (partial(np.absolute, x, mag),
            partial(np.less, mag, _HALF_PI, small),
            partial(np.sin, x, sine),
            partial(np.copyto, x, sine, "same_kind", small))


def _sat_sine_smooth_shape(x) -> tuple:
    """``where(|x| < pi/2, sin(x), sign(x) * (|x| - pi/2 + 1))``."""
    mag, small, sine = np.empty(len(x)), np.empty(len(x), bool), np.empty(len(x))
    return (partial(np.absolute, x, mag),
            partial(np.less, mag, _HALF_PI, small),
            partial(np.subtract, mag, _HALF_PI, mag),
            partial(np.add, mag, 1.0, mag),
            partial(np.sin, x, sine),
            partial(np.sign, x, x),
            partial(np.multiply, x, mag, x),
            partial(np.copyto, x, sine, "same_kind", small))


def _tabulated_shape(knots, values, slopes, anchors, x) -> tuple:
    """Odd piecewise-linear interpolation through (0, 0) and the knots.

    Row r of ``knots``/``values``/``slopes`` holds anchors 0, x_1, ..., x_K,
    the values there and the slope of the segment that starts there; the
    last slope continues the final segment past x_K. Shorter tables are
    padded by repeating their last entry, which leaves them unchanged;
    ``anchors[r]`` is the flat index of row r's anchor 0.
    """
    mag, at, picked = np.empty(len(x)), np.empty(len(x), np.intp), np.empty(len(x))
    crossed = np.empty((len(x), knots.shape[1] - 1), bool)
    return (partial(np.absolute, x, mag),
            partial(np.less_equal, knots[:, 1:], mag[:, None], crossed),
            partial(np.add.reduce, crossed, 1, None, at),  # knots crossed
            partial(np.add, anchors, at, at),
            partial(knots.take, at, None, picked),
            partial(np.subtract, mag, picked, mag),
            partial(slopes.take, at, None, picked),
            partial(np.multiply, picked, mag, mag),
            partial(values.take, at, None, picked),
            partial(np.add, picked, mag, mag),
            partial(np.sign, x, x),
            partial(np.multiply, x, mag, x))


COUPLING_FORMULAS = {
    "linear_gain": _linear_shape,
    "sat_sine": _sat_sine_shape,
    "sat_sine_smooth": _sat_sine_smooth_shape,
    "tabulated": _tabulated_shape,
}


def coupling_parameters(couplings: Sequence[SectorCoupling]) -> tuple[np.ndarray, tuple]:
    """``(gains, params)`` of same-kind couplings, one row each: a table's
    gain is 1, and ``params`` are the leading arguments of its shape."""
    if couplings[0].kind != "tabulated":
        return np.array([c.gain for c in couplings], dtype=float), ()
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
    anchors = np.arange(len(couplings)) * width
    return np.ones(len(couplings)), (np.array(knots), np.array(values), np.array(slopes), anchors)


def evaluate_coupling(c: SectorCoupling, x):
    """phi(x) = gain * shape(x), for scalar or array x.

    No library code calls it (``verify_sector`` uses closed forms and the
    simulator the shape calls); the benchmark tracer (``perfbench/spans.py``)
    and the tests read it.
    """
    arr = np.asarray(x, dtype=float)
    flat = arr.flatten()  # a copy, which the shape overwrites
    gains, params = coupling_parameters([c])
    for call in COUPLING_FORMULAS[c.kind](*params, flat):
        call()
    out = np.multiply(gains, flat)
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
