"""Piecewise coefficient models for scalar SDEs.

The drift and the diffusion are declared as piecewise closed-form functions
(polynomial, sinusoid, power of a distance).  On top of
those this module builds the localization window, the constant continuation
of the diffusion outside the window, its almost-everywhere derivative (zero
at kinks), and the drift functional

    g = mu / sigma_cont - d(sigma_cont)/2

that drives the remainder term of the Fourier bound.

Evaluation convention at a breakpoint: the piece to the *right* applies.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

_DERIV_MATCH_TOL = 1e-9
_N_GRID = 10_000  # grid points of the window checks on sigma and mu


def _as_array(x):
    arr = np.asarray(x, dtype=float)
    return arr, arr.ndim == 0


def _ret(arr, scalar):
    return float(arr) if scalar else arr


# ---------------------------------------------------------------------------
# piece kinds
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Piece:
    """A closed-form function defined on one interval of a piecewise model."""

    def __call__(self, x):
        raise NotImplementedError

    def derivative(self, x):
        raise NotImplementedError

    def sup_abs_derivative(self, a: float, b: float) -> float:
        """Upper bound for sup |f'| over [a, b]; may be inf."""
        raise NotImplementedError

    def kinks(self, a: float, b: float) -> tuple[float, ...]:
        """Interior points of (a, b) where the classical derivative fails."""
        return ()


def _polyval(coeffs: tuple[float, ...], x):
    arr, scalar = _as_array(x)
    return _ret(np.polynomial.polynomial.polyval(arr, coeffs), scalar)


@dataclass(frozen=True)
class Polynomial(Piece):
    """sum_j coeffs[j] x**j, the one polynomial-family piece: the config kinds
    constant, affine and polynomial all build one."""

    coeffs: tuple[float, ...]  # ascending degree

    def __post_init__(self):
        if not self.coeffs:
            raise ConfigError("polynomial piece requires at least one coefficient")

    @property
    def deriv_coeffs(self) -> tuple[float, ...]:
        # (0.0,) for a constant: numpy's derivative of a negative constant is -0.0
        return tuple(j * c for j, c in enumerate(self.coeffs))[1:] or (0.0,)

    def __call__(self, x):
        return _polyval(self.coeffs, x)

    def derivative(self, x):
        return _polyval(self.deriv_coeffs, x)

    @staticmethod
    def _sup_on(coeffs, a, b):
        pts = [a, b]
        if len(coeffs) > 2:
            roots = np.polynomial.Polynomial(coeffs).deriv().roots()
            pts.extend(float(r.real) for r in roots if abs(r.imag) < 1e-12 and a < r.real < b)
        return max(abs(_polyval(coeffs, p)) for p in pts)

    def sup_abs_derivative(self, a, b):
        return self._sup_on(self.deriv_coeffs, a, b)


def Constant(value: float) -> Polynomial:
    """The constant piece ``value``."""
    return Polynomial((value,))


def Affine(intercept: float, slope: float) -> Polynomial:
    """The piece ``intercept + slope * x``."""
    return Polynomial((intercept, slope))


@dataclass(frozen=True)
class Sinusoid(Piece):
    """offset + amplitude * sin(frequency * x + phase)"""

    offset: float
    amplitude: float
    frequency: float = 1.0
    phase: float = 0.0

    def __call__(self, x):
        arr, scalar = _as_array(x)
        return _ret(self.offset + self.amplitude * np.sin(self.frequency * arr + self.phase), scalar)

    def derivative(self, x):
        arr, scalar = _as_array(x)
        return _ret(self.amplitude * self.frequency * np.cos(self.frequency * arr + self.phase), scalar)

    def sup_abs_derivative(self, a, b):
        return abs(self.amplitude * self.frequency)


@dataclass(frozen=True)
class HolderPower(Piece):
    """scale * |x - center| ** exponent (exponent > 0)"""

    scale: float
    center: float
    exponent: float

    def __post_init__(self):
        if self.exponent <= 0:
            raise ConfigError("power piece requires a positive exponent")

    def __call__(self, x):
        arr, scalar = _as_array(x)
        return _ret(self.scale * np.abs(arr - self.center) ** self.exponent, scalar)

    def derivative(self, x):
        arr, scalar = _as_array(x)
        d = arr - self.center
        with np.errstate(divide="ignore", invalid="ignore"):
            out = self.scale * self.exponent * np.sign(d) * np.abs(d) ** (self.exponent - 1.0)
        out = np.where(d == 0.0, 0.0, out)
        return _ret(out, scalar)

    def sup_abs_derivative(self, a, b):
        dmax = max(abs(a - self.center), abs(b - self.center))
        dmin = min(abs(a - self.center), abs(b - self.center))
        if a <= self.center <= b:
            dmin = 0.0
        c = abs(self.scale) * self.exponent
        if self.exponent >= 1.0:
            return c * dmax ** (self.exponent - 1.0)
        if dmin == 0.0:
            return float("inf")
        return c * dmin ** (self.exponent - 1.0)

    def kinks(self, a, b):
        if self.exponent < 1.0 + _DERIV_MATCH_TOL and a < self.center < b:
            return (self.center,)
        return ()


# ---------------------------------------------------------------------------
# compiled evaluation
# ---------------------------------------------------------------------------

def _identity(v):
    return v


def _rows_on(f, method: str, zero_at: frozenset, lefts: list) -> tuple[np.ndarray, list]:
    """``f.method`` on the intervals with left edges ``lefts``: a row of ascending
    coefficients per interval, zero-padded to f's widest piece, and per interval
    the bound method of a piece outside the polynomial family (else None), whose
    row is zero.  An interval starting at a point of ``zero_at`` holds that point
    alone and gets a zero row."""
    rows = [(p.coeffs if method == "__call__" else p.deriv_coeffs)
            if isinstance(p, Polynomial) else (0.0,) for p in f.pieces]
    table = np.zeros((len(lefts), max(map(len, rows))))
    other = [None] * len(lefts)
    owners = np.searchsorted(np.asarray(f.breakpoints, dtype=float), lefts, side="right")
    for i, (left, j) in enumerate(zip(lefts, owners)):
        if left not in zero_at:
            table[i, :len(rows[j])] = rows[j]
            if not isinstance(f.pieces[j], Polynomial):
                other[i] = getattr(f.pieces[j], method)
    return table, other


def _term(table: np.ndarray, other: list) -> tuple:
    """(coefficient columns, [(interval, method)], scalar or None), intervals
    counted by the number of breakpoints above x: n - (interval index)."""
    n = len(table) - 1
    others = tuple((n - i, fn) for i, fn in enumerate(other) if fn is not None)
    bits = table.view(np.int64)
    scalar = table[0, 0] if table.shape[1] == 1 and not others and np.all(bits == bits[0]) \
        else None
    return tuple(np.ascontiguousarray(table[::-1, d]) for d in range(table.shape[1])), \
        others, scalar


def _term_at(term: tuple, x: np.ndarray, m):
    """A term's values at x, whose intervals are ``m`` (None: a single interval)."""
    cols, others, scalar = term
    if scalar is not None:
        return scalar
    if m is None:
        if others:
            return others[0][1](x)
        m = 0
    # Horner c_0 + x (c_1 + x (...)), numpy.polynomial's operation sequence
    out = cols[-1][m] * x if len(cols) > 1 else cols[0][m]
    for d in range(len(cols) - 2, -1, -1):
        if d < len(cols) - 2:
            out *= x
        out += cols[d][m]
    for i, fn in others:
        mask = m == i
        if np.any(mask):
            out[mask] = fn(x[mask])
    return out


class _Compiled:
    """Functions of x built from piecewise functions, evaluated with one piece lookup.

    ``outputs`` is a sequence of ``(combine, terms)``; a term ``(f, method,
    zero_at)`` is ``f.method`` (``"__call__"`` or ``"derivative"`` of a
    ``PiecewiseFunction``) set to 0 at the points ``zero_at``, and the output
    is ``combine(*term values)``.  Compiling puts every term on the intervals
    of the union of all breakpoints, where a point of ``zero_at`` is the
    one-point interval [p, nextafter(p, inf)).  Then an output whose terms are
    all piecewise constant becomes one table of ``combine`` of the piece
    values; a breakpoint across which no term changes is dropped; and a term
    that is one constant everywhere is a scalar.

    Each x finds its interval by one comparison per remaining breakpoint
    (NaN, as in ``np.searchsorted``, goes to the last interval).  Polynomial
    pieces are evaluated by Horner in ``numpy.polynomial``'s operation order
    on each function's zero-padded coefficient rows, and other pieces
    overwrite their points, so every value has the bits of evaluating the
    owning piece and applying ``combine`` at each point (for finite x; at
    +-inf the zero padding of a lower-degree piece gives NaN).
    """

    def __init__(self, outputs):
        pts = set()
        for _, terms in outputs:
            for f, _, zero_at in terms:
                pts.update(f.breakpoints, zero_at, (math.nextafter(p, math.inf) for p in zero_at))
        lefts = [-math.inf, *sorted(pts)]
        compiled = []
        for combine, terms in outputs:
            tables = [_rows_on(f, method, frozenset(zero_at), lefts)
                      for f, method, zero_at in terms]
            if all(t.shape[1] == 1 and not any(o) for t, o in tables):
                with np.errstate(all="ignore"):
                    folded = combine(*(t[:, 0] for t, _ in tables))
                combine, tables = _identity, [(folded[:, None], [None] * len(lefts))]
            compiled.append((combine, tables))
        # an interval that no term tells apart from the one on its left joins it
        keep = [0] + [i for i in range(1, len(lefts)) if any(
            t[i].tobytes() != t[i - 1].tobytes() or o[i] != o[i - 1]
            for _, tables in compiled for t, o in tables)]
        self.breakpoints = np.array([lefts[i] for i in keep[1:]])
        self.outputs = tuple(
            (combine, tuple(_term(t[keep], [o[i] for i in keep]) for t, o in tables))
            for combine, tables in compiled)

    def __call__(self, x: np.ndarray) -> list:
        """Each output at the array x: an array, or a scalar for a constant output."""
        m = None  # breakpoints above x: interval n - m, and NaN (above none) the last
        if self.breakpoints.size:
            m = (x < self.breakpoints[0]).astype(np.intp)
            for b in self.breakpoints[1:]:
                m += x < b
        return [combine(*(_term_at(t, x, m) for t in terms)) for combine, terms in self.outputs]


def _evaluate(compiled: _Compiled, x):
    """The single output of ``compiled`` at x, shaped like x (a float for a scalar)."""
    arr, scalar = _as_array(x)
    arr1 = np.atleast_1d(arr)
    (out,) = compiled(arr1)
    if np.ndim(out) == 0:
        out = np.full(arr1.shape, out)
    return _ret(out.reshape(arr.shape), scalar)


# ---------------------------------------------------------------------------
# piecewise functions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PiecewiseFunction:
    """A function on the whole line assembled from closed-form pieces.

    ``pieces[i]`` applies on ``[breakpoints[i-1], breakpoints[i])`` (with the
    obvious unbounded first and last intervals), so evaluation at a
    breakpoint uses the piece on the right.  Breakpoints are finite and
    strictly increasing.
    """

    breakpoints: tuple[float, ...]
    pieces: tuple[Piece, ...]

    def __post_init__(self):
        bp = tuple(float(b) for b in self.breakpoints)
        pieces = tuple(self.pieces)
        if len(pieces) != len(bp) + 1:
            raise ConfigError(
                f"need {len(bp) + 1} pieces for {len(bp)} breakpoints, got {len(pieces)}"
            )
        if not all(math.isfinite(b) for b in bp):
            raise ConfigError(f"breakpoints must be finite, got {list(bp)}")
        if any(b2 <= b1 for b1, b2 in zip(bp, bp[1:])):
            raise ConfigError("breakpoints must be strictly increasing")
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "pieces", pieces)
        object.__setattr__(self, "_value", _Compiled([(_identity, ((self, "__call__", ()),))]))
        object.__setattr__(self, "_deriv", _Compiled([(_identity, ((self, "derivative", ()),))]))

    # -- evaluation ---------------------------------------------------------

    def __call__(self, x):
        return _evaluate(self._value, x)

    def derivative(self, x):
        """Piece-by-piece classical derivative, right piece at breakpoints."""
        return _evaluate(self._deriv, x)

    def left_limit(self, x: float) -> float:
        """Limit from the left (left piece evaluated at x)."""
        return float(self.pieces[bisect_left(self.breakpoints, x)](x))

    def left_derivative(self, x: float) -> float:
        return float(self.pieces[bisect_left(self.breakpoints, x)].derivative(x))

    def right_derivative(self, x: float) -> float:
        return float(self.pieces[bisect_right(self.breakpoints, x)].derivative(x))

    # -- piece bookkeeping ---------------------------------------------------

    def _intervals(self):
        edges = (-math.inf,) + self.breakpoints + (math.inf,)
        return [(edges[i], edges[i + 1], self.pieces[i]) for i in range(len(self.pieces))]

    def overlapping(self, a: float, b: float):
        """(lo, hi, piece) segments covering [a, b]."""
        segs = []
        for lo, hi, piece in self._intervals():
            lo2, hi2 = max(lo, a), min(hi, b)
            if lo2 < hi2:
                segs.append((lo2, hi2, piece))
        if not segs:  # degenerate interval: single point
            segs.append((a, b, self.pieces[bisect_right(self.breakpoints, a)]))
        return segs

    def lipschitz_on(self, a: float, b: float) -> float:
        """Lipschitz constant on [a, b] from the per-piece symbolic bounds."""
        # a jump at an interior breakpoint makes the function non-Lipschitz
        for bp in self.breakpoints:
            if a < bp <= b and abs(self.left_limit(bp) - self(bp)) > 1e-12 * (1 + abs(self(bp))):
                return float("inf")
        return max(p.sup_abs_derivative(lo, hi) for lo, hi, p in self.overlapping(a, b))

    def breakpoints_in(self, a: float, b: float) -> tuple[float, ...]:
        return tuple(bp for bp in self.breakpoints if a < bp < b)

    def kinks_in(self, a: float, b: float) -> tuple[float, ...]:
        """Candidate non-differentiability points strictly inside (a, b)."""
        pts = set()
        for lo, hi, piece in self.overlapping(a, b):
            pts.update(piece.kinks(max(lo, a), min(hi, b)))
        for bp in self.breakpoints_in(a, b):
            if abs(self.left_derivative(bp) - self.right_derivative(bp)) > _DERIV_MATCH_TOL * (
                1.0 + abs(self.right_derivative(bp))
            ):
                pts.add(bp)
        return tuple(sorted(pts))


# ---------------------------------------------------------------------------
# model, window, continuation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CoefficientModel:
    """Drift and diffusion of the scalar SDE dX = mu(X) dt + sigma(X) dW."""

    mu: PiecewiseFunction
    sigma: PiecewiseFunction

    def euler_step(self, h: float):
        """The Euler step x <- x + mu(x) h + sigma(x) dw, compiled once for this h.

        ``step(x, dw)`` updates the array x in place and overwrites dw with
        sigma(x) dw.  mu and sigma share one piece lookup, and a piecewise
        constant mu is a table of c_i h; each value has the bits of the
        expression evaluated point by point in its operation order.
        """
        compiled = _Compiled([(lambda mu: mu * h, ((self.mu, "__call__", ()),)),
                             (_identity, ((self.sigma, "__call__", ()),))])

        def step(x, dw):
            mu_h, sigma = compiled(x)
            np.multiply(dw, sigma, out=dw)
            x += mu_h
            x += dw

        return step


@dataclass(frozen=True)
class LocalWindow:
    """Localization data: center xi, radius delta, margin delta0, ellipticity floor."""

    xi: float
    delta: float
    delta0: float
    l_sigma: float

    def __post_init__(self):
        if not (0.0 < self.delta0 < self.delta):
            raise ConfigError("need 0 < delta0 < delta")
        if self.l_sigma <= 0.0:
            raise ConfigError("ellipticity floor must be positive")

    @property
    def lo(self) -> float:
        return self.xi - self.delta

    @property
    def hi(self) -> float:
        return self.xi + self.delta


def finite_on_window(f: PiecewiseFunction, w: LocalWindow, field: str) -> np.ndarray:
    """f on a dense grid of the window, where mu must be bounded and sigma finite;
    ``model.<field>`` is named if a value is not finite.  Overflow is what this
    rejects, so numpy does not warn of it."""
    with np.errstate(over="ignore", invalid="ignore"):
        values = f(np.linspace(w.lo, w.hi, _N_GRID))
    if not np.all(np.isfinite(values)):
        raise ConfigError(f"model.{field}: not finite on the window [{w.lo:g}, {w.hi:g}]")
    return values


def _check_sigma_on_window(sigma: PiecewiseFunction, w: LocalWindow) -> float:
    """Grid-check sigma on the window (finite, |sigma| >= l_sigma, Lipschitz);
    return its Lipschitz constant there.  Exact verification of arbitrary
    pieces is not decidable, so the checks combine a dense grid with
    per-piece metadata."""
    floor = float(np.min(np.abs(finite_on_window(sigma, w, "sigma"))))
    if floor < w.l_sigma * (1 - 1e-12):
        raise ConfigError(
            f"model.sigma: inf |sigma| on the window is {floor:.6g} < l_sigma={w.l_sigma}"
        )
    lip = sigma.lipschitz_on(w.lo, w.hi)
    if not math.isfinite(lip):
        raise ConfigError("model.sigma: not Lipschitz on the window")
    return lip


@dataclass(frozen=True)
class SigmaStar:
    """The diffusion frozen at its window-boundary values outside the window.

    Globally Lipschitz, bounded away from zero by the window's floor, and
    equal to sigma on [xi - delta, xi + delta].
    """

    base: PiecewiseFunction
    left_value: float
    right_value: float
    window: LocalWindow
    lipschitz: float

    def __call__(self, x):
        return self.base(x)


def build_sigma_star(sigma: PiecewiseFunction, w: LocalWindow) -> SigmaStar:
    """Constant continuation of sigma outside the window [xi - delta, xi + delta]."""
    lip = _check_sigma_on_window(sigma, w)
    left_value = float(sigma(w.lo))
    right_value = float(sigma.left_limit(w.hi))

    inner_bp = sigma.breakpoints_in(w.lo, w.hi)
    bp = (w.lo,) + inner_bp + (w.hi,)
    idx = [int(np.searchsorted(np.asarray(sigma.breakpoints), b, side="right")) for b in bp[:-1]]
    window_pieces = tuple(sigma.pieces[i] for i in idx)
    base = PiecewiseFunction(
        breakpoints=bp,
        pieces=(Constant(left_value),) + window_pieces + (Constant(right_value),),
    )
    return SigmaStar(base=base, left_value=left_value, right_value=right_value,
                     window=w, lipschitz=lip)


@dataclass(frozen=True)
class WeakDerivative:
    """Derivative of the continued diffusion, set to zero where it fails to exist."""

    source: SigmaStar
    nondifferentiable_points: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "_compiled", _Compiled([
            (_identity, ((self.source.base, "derivative", self.nondifferentiable_points),))]))

    def __call__(self, x):
        return _evaluate(self._compiled, x)


def weak_derivative(s: SigmaStar) -> WeakDerivative:
    """Detect kink points of the continuation and zero the derivative there."""
    return WeakDerivative(source=s,
                          nondifferentiable_points=s.base.kinks_in(-math.inf, math.inf))


def _drift(mu, sigma, d):
    return mu / sigma - d * 0.5


@dataclass(frozen=True)
class DriftFunctional:
    """g = mu/sigma_cont - weak_derivative/2, evaluable on the window (and beyond)."""

    mu: PiecewiseFunction
    sigma_star: SigmaStar
    weak_deriv: WeakDerivative

    def __post_init__(self):
        # one lookup on the union of mu's and sigma_cont's breakpoints; a
        # piecewise constant g (discontinuous drift, constant diffusion) is a table
        base = self.sigma_star.base
        object.__setattr__(self, "_compiled", _Compiled([(_drift, (
            (self.mu, "__call__", ()), (base, "__call__", ()),
            (base, "derivative", self.weak_deriv.nondifferentiable_points)))]))

    def __call__(self, x):
        return _evaluate(self._compiled, x)

    @property
    def breakpoints(self) -> tuple[float, ...]:
        pts = set(self.mu.breakpoints) | set(self.sigma_star.base.breakpoints)
        return tuple(sorted(pts))


def drift_functional(mu: PiecewiseFunction, s: SigmaStar) -> DriftFunctional:
    """g = mu/sigma_cont - weak_derivative(sigma_cont)/2 for this continuation."""
    return DriftFunctional(mu=mu, sigma_star=s, weak_deriv=weak_derivative(s))
