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
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

_DERIV_MATCH_TOL = 1e-9
_N_GRID = 10_000  # grid points of the window checks on sigma and mu


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

    def kinks(self, a: float, b: float) -> tuple[float, ...]:
        """Interior points of (a, b) where the classical derivative fails."""
        return ()

    def zeros(self, a: float, b: float) -> tuple[float, ...]:
        """Points of [a, b] where the piece may vanish between the points of a grid."""
        return ()


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
        return np.polynomial.polynomial.polyval(np.asarray(x, dtype=float), self.coeffs)[()]

    def derivative(self, x):
        return np.polynomial.polynomial.polyval(np.asarray(x, dtype=float), self.deriv_coeffs)[()]

    def zeros(self, a, b):
        try:  # the real parts of the roots; none where a coefficient ratio overflows
            roots = np.polynomial.polynomial.polyroots(self.coeffs).real
        except np.linalg.LinAlgError:
            return ()
        return tuple(z for z in roots if a <= z <= b)


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
        arg = self.frequency * np.asarray(x, dtype=float) + self.phase
        return (self.offset + self.amplitude * np.sin(arg))[()]

    def derivative(self, x):
        arg = self.frequency * np.asarray(x, dtype=float) + self.phase
        return (self.amplitude * self.frequency * np.cos(arg))[()]

    def zeros(self, a, b):
        """The solutions of sin(frequency x + phase) = -offset / amplitude in one
        period from a: the piece repeats with its period, and so does |piece|
        at its zeros."""
        c = -self.offset / self.amplitude if self.amplitude else math.inf
        if self.frequency == 0.0 or abs(c) > 1.0:
            return ()
        period = 2.0 * math.pi / abs(self.frequency)
        s = math.asin(c)
        xs = ((theta - self.phase) / self.frequency for theta in (s, math.pi - s))
        return tuple(z for z in (a + (x - a) % period for x in xs) if z <= b)


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
        return (self.scale * np.abs(np.asarray(x, dtype=float) - self.center) ** self.exponent)[()]

    def derivative(self, x):
        d = np.asarray(x, dtype=float) - self.center
        with np.errstate(divide="ignore", invalid="ignore"):
            out = self.scale * self.exponent * np.sign(d) * np.abs(d) ** (self.exponent - 1.0)
        return np.where(d == 0.0, 0.0, out)[()]

    def zeros(self, a, b):
        return (self.center,) if a <= self.center <= b else ()

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
    """The single output of ``compiled`` at x, shaped like x (numpy's 0-d rule)."""
    arr = np.asarray(x, dtype=float)
    (out,) = compiled(np.atleast_1d(arr))
    return (np.full(arr.shape, out) if np.ndim(out) == 0 else out.reshape(arr.shape))[()]


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

    # -- piece bookkeeping ---------------------------------------------------

    def overlapping(self, a: float, b: float):
        """(lo, hi, piece) segments covering [a, b], for a < b."""
        edges = (-math.inf, *self.breakpoints, math.inf)
        return [(max(lo, a), min(hi, b), p) for lo, hi, p in zip(edges, edges[1:], self.pieces)
                if max(lo, a) < min(hi, b)]

    def lipschitz_on(self, a: float, b: float) -> bool:
        """Whether the function is Lipschitz on [a, b]: no jump at a breakpoint in
        (a, b], and no piece whose derivative is unbounded on its closed segment
        there, which only a power of exponent below 1 centred on it has."""
        for i, bp in enumerate(self.breakpoints):
            if a < bp <= b and abs(self.pieces[i](bp) - self(bp)) > 1e-12 * (1 + abs(self(bp))):
                return False
        return not any(isinstance(p, HolderPower) and p.exponent < 1.0 and lo <= p.center <= hi
                       for lo, hi, p in self.overlapping(a, b))

    def kinks(self) -> tuple[float, ...]:
        """The points where the classical derivative fails: each piece's own kinks
        inside its interval, and each breakpoint whose one-sided derivatives differ."""
        pts = {k for lo, hi, p in self.overlapping(-math.inf, math.inf) for k in p.kinks(lo, hi)}
        for i, bp in enumerate(self.breakpoints):
            left, right = self.pieces[i].derivative(bp), self.pieces[i + 1].derivative(bp)
            if abs(left - right) > _DERIV_MATCH_TOL * (1.0 + abs(right)):
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
        if not self.lo < self.hi:
            raise ConfigError(f"xi - delta and xi + delta round to one float, {self.lo!r}")

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


def _check_sigma_on_window(sigma: PiecewiseFunction, w: LocalWindow) -> None:
    """Check sigma on the window: finite, Lipschitz by ``lipschitz_on``, and
    |sigma| >= l_sigma on a dense grid and at each piece's ``zeros`` in its
    segment (exact verification of arbitrary pieces is not decidable)."""
    grid = np.abs(finite_on_window(sigma, w, "sigma"))
    if not sigma.lipschitz_on(w.lo, w.hi):  # first: a power's cusp is also its zero
        raise ConfigError("model.sigma: not Lipschitz on the window")
    with np.errstate(all="ignore"):
        at_zeros = [abs(p(z)) for lo, hi, p in sigma.overlapping(w.lo, w.hi)
                    for z in p.zeros(lo, hi)]
    floor = float(min([np.min(grid), *at_zeros]))
    if floor < w.l_sigma * (1 - 1e-12):
        raise ConfigError(f"model.sigma: inf |sigma| on the window is {floor:.6g} "
                          f"< l_sigma={w.l_sigma}")


def build_sigma_star(sigma: PiecewiseFunction, w: LocalWindow) -> PiecewiseFunction:
    """sigma_cont: sigma on the window [xi - delta, xi + delta], continued by the
    constants sigma(w.lo) on the left and the left limit at w.hi on the right.
    Globally Lipschitz and bounded away from zero by the window's floor."""
    _check_sigma_on_window(sigma, w)
    segs = sigma.overlapping(w.lo, w.hi)
    return PiecewiseFunction(
        breakpoints=(w.lo, *(lo for lo, _, _ in segs[1:]), w.hi),
        pieces=(Constant(float(sigma(w.lo))), *(p for _, _, p in segs),
                Constant(float(segs[-1][2](w.hi)))),
    )


@dataclass(frozen=True)
class WeakDerivative:
    """Derivative of the continued diffusion, set to zero at its kinks, where it
    fails to exist; those points are ``nondifferentiable_points``."""

    sigma_star: PiecewiseFunction

    def __post_init__(self):
        points = self.sigma_star.kinks()
        object.__setattr__(self, "nondifferentiable_points", points)
        object.__setattr__(self, "_compiled", _Compiled([
            (_identity, ((self.sigma_star, "derivative", points),))]))

    def __call__(self, x):
        return _evaluate(self._compiled, x)


def _drift(mu, sigma, d):
    return mu / sigma - d * 0.5


@dataclass(frozen=True)
class DriftFunctional:
    """g = mu/sigma_cont - d(sigma_cont)/2, the derivative zero at sigma_cont's
    kinks, evaluable on the window (and beyond)."""

    mu: PiecewiseFunction
    sigma_star: PiecewiseFunction

    def __post_init__(self):
        # one lookup on the union of mu's and sigma_cont's breakpoints; a
        # piecewise constant g (discontinuous drift, constant diffusion) is a table
        s = self.sigma_star
        object.__setattr__(self, "_compiled", _Compiled([(_drift, (
            (self.mu, "__call__", ()), (s, "__call__", ()), (s, "derivative", s.kinks())))]))

    def __call__(self, x):
        return _evaluate(self._compiled, x)
