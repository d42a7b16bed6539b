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

from .errors import ConfigError, ValidationError

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

    def sup_abs(self, a: float, b: float) -> float:
        """Exact sup of |f| over [a, b]."""
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

    def sup_abs(self, a, b):
        return self._sup_on(self.coeffs, a, b)

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

    def _critical(self, a, b):
        # sin' = 0 at frequency*x + phase = pi/2 + k*pi
        if self.frequency == 0.0:
            return []
        k_lo = math.floor((self.frequency * a + self.phase - math.pi / 2) / math.pi)
        k_hi = math.ceil((self.frequency * b + self.phase - math.pi / 2) / math.pi)
        lo, hi = (a, b) if a <= b else (b, a)
        pts = []
        for k in range(k_lo - 1, k_hi + 2):
            x = (math.pi / 2 + k * math.pi - self.phase) / self.frequency
            if lo < x < hi:
                pts.append(x)
        return pts

    def sup_abs(self, a, b):
        pts = [a, b] + self._critical(a, b)
        return max(abs(float(self(p))) for p in pts)

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

    def sup_abs(self, a, b):
        m = max(abs(a - self.center), abs(b - self.center))
        return abs(self.scale) * m ** self.exponent

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
# piecewise functions
# ---------------------------------------------------------------------------

def _coefficient_rows(piece: Piece) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Ascending coefficients of a piece and of its derivative; zeros for a
    piece outside the polynomial family (evaluated separately)."""
    if isinstance(piece, Polynomial):
        return piece.coeffs, piece.deriv_coeffs
    return (0.0,), (0.0,)


def _pad_columns(rows) -> tuple[np.ndarray, ...]:
    """Column j holds every piece's degree-j coefficient (zero-padded)."""
    width = max(len(r) for r in rows)
    table = np.zeros((len(rows), width))
    for i, r in enumerate(rows):
        table[i, :len(r)] = r
    return tuple(np.ascontiguousarray(table[:, j]) for j in range(width))


@dataclass(frozen=True)
class PiecewiseFunction:
    """A function on the whole line assembled from closed-form pieces.

    ``pieces[i]`` applies on ``[breakpoints[i-1], breakpoints[i])`` (with the
    obvious unbounded first and last intervals), so evaluation at a
    breakpoint uses the piece on the right.
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
        if any(b2 <= b1 for b1, b2 in zip(bp, bp[1:])):
            raise ConfigError("breakpoints must be strictly increasing")
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "pieces", pieces)
        object.__setattr__(self, "_bp_arr", np.asarray(bp, dtype=float))
        values, derivs = zip(*(_coefficient_rows(p) for p in pieces))
        object.__setattr__(self, "_value_cols", _pad_columns(values))
        object.__setattr__(self, "_deriv_cols", _pad_columns(derivs))
        object.__setattr__(self, "_other", tuple(
            i for i, p in enumerate(pieces) if not isinstance(p, Polynomial)))

    # -- evaluation ---------------------------------------------------------

    def _indices(self, arr):
        return np.searchsorted(self._bp_arr, arr, side="right")

    def piece_table(self, union: np.ndarray) -> np.ndarray | None:
        """Piece index per interval of ``union``, a sorted superset of the breakpoints.

        ``table[searchsorted(union, x, side="right")]`` is the piece index of
        x (NaN included, which sorts past every breakpoint); None when there
        is a single piece.
        """
        if not self.breakpoints:
            return None
        return np.concatenate(([0], np.searchsorted(self._bp_arr, union, side="right")))

    def _evaluate(self, x, cols, method, idx=None):
        """Horner over the compiled coefficient columns, gathered per piece.

        Polynomial-family pieces are evaluated as ``c_0 + x (c_1 + x (...))``
        with each piece's own coefficients, which is the operation sequence
        of ``numpy.polynomial`` and so of ``Polynomial``: for finite x the
        values equal the per-piece ones bitwise.  Other pieces overwrite
        their points afterwards.  ``idx`` is the piece index of
        each point when the caller already has it (see ``piece_table``).
        """
        arr, scalar = _as_array(x)
        arr1 = np.atleast_1d(arr)
        if idx is None:
            idx = self._indices(arr1) if self.breakpoints else 0
        if len(cols) > 1:
            out = cols[-1][idx] * arr1
        else:  # a gather by an index array is already a fresh array
            out = cols[0][idx] if np.ndim(idx) else np.full(arr1.shape, cols[0][idx])
        for j, col in enumerate(cols[-2::-1]):
            if j:
                out *= arr1
            out += col[idx]
        for i in self._other:
            mask = idx == i
            if np.any(mask):
                out[mask] = getattr(self.pieces[i], method)(arr1[mask])
        return _ret(out.reshape(arr.shape), scalar)

    def __call__(self, x):
        return self._evaluate(x, self._value_cols, "__call__")

    def derivative(self, x):
        """Piece-by-piece classical derivative, right piece at breakpoints."""
        return self._evaluate(x, self._deriv_cols, "derivative")

    def left_limit(self, x: float) -> float:
        """Limit from the left (left piece evaluated at x)."""
        i = int(np.searchsorted(self._bp_arr, x, side="left"))
        return float(self.pieces[i](x))

    def left_derivative(self, x: float) -> float:
        i = int(np.searchsorted(self._bp_arr, x, side="left"))
        return float(self.pieces[i].derivative(x))

    def right_derivative(self, x: float) -> float:
        i = int(np.searchsorted(self._bp_arr, x, side="right"))
        return float(self.pieces[i].derivative(x))

    @property
    def constant_value(self):
        """The global value if every piece is the same one-coefficient polynomial, else None."""
        rows = {tuple(p.coeffs) if isinstance(p, Polynomial) else None for p in self.pieces}
        row = rows.pop() if len(rows) == 1 else None
        return row[0] if row is not None and len(row) == 1 else None

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
            i = int(self._indices(np.asarray(a)))
            segs.append((a, b, self.pieces[i]))
        return segs

    def sup_abs_on(self, a: float, b: float) -> float:
        return max(p.sup_abs(lo, hi) for lo, hi, p in self.overlapping(a, b))

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


@dataclass(frozen=True)
class LocalWindow:
    """Localization data: center xi, radius delta, margin delta0, ellipticity floor."""

    xi: float
    delta: float
    delta0: float
    l_sigma: float

    def __post_init__(self):
        if not (0.0 < self.delta0 < self.delta):
            raise ValidationError("need 0 < delta0 < delta")
        if self.l_sigma <= 0.0:
            raise ValidationError("ellipticity floor must be positive")

    @property
    def lo(self) -> float:
        return self.xi - self.delta

    @property
    def hi(self) -> float:
        return self.xi + self.delta


def _check_sigma_on_window(sigma: PiecewiseFunction, w: LocalWindow) -> float:
    """Grid-check sigma on the window (finite, |sigma| >= l_sigma, Lipschitz);
    return its Lipschitz constant there."""
    sig = sigma(np.linspace(w.lo, w.hi, _N_GRID))
    if not np.all(np.isfinite(sig)):
        raise ValidationError("sigma is not finite on the window")
    if float(np.min(np.abs(sig))) < w.l_sigma * (1 - 1e-12):
        raise ValidationError(
            f"inf |sigma| on the window is {np.min(np.abs(sig)):.6g} < l_sigma={w.l_sigma}"
        )
    lip = sigma.lipschitz_on(w.lo, w.hi)
    if not math.isfinite(lip):
        raise ValidationError("sigma is not Lipschitz on the window")
    return lip


def check_mu_on_window(mu: PiecewiseFunction, w: LocalWindow) -> None:
    """Grid-check that mu is finite (bounded) on the window."""
    if not np.all(np.isfinite(mu(np.linspace(w.lo, w.hi, _N_GRID)))):
        raise ValidationError("mu is not finite (bounded) on the window")


def validate_window(model: CoefficientModel, w: LocalWindow) -> None:
    """Grid-check the window hypotheses: the sigma checks above, and mu bounded on it.

    Exact verification of arbitrary pieces is not decidable, so the checks
    combine a dense grid with per-piece metadata.
    """
    _check_sigma_on_window(model.sigma, w)
    check_mu_on_window(model.mu, w)


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

    def derivative(self, x):
        return self.base.derivative(x)

    def sup_abs(self) -> float:
        return max(self.base.sup_abs_on(self.window.lo, self.window.hi),
                   abs(self.left_value), abs(self.right_value))

    @property
    def floor(self) -> float:
        return self.window.l_sigma


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

    def __call__(self, x, idx=None):
        """``idx``: piece indices into ``source.base``, if already looked up."""
        arr, scalar = _as_array(x)
        arr1 = np.atleast_1d(arr)
        base = self.source.base
        out = base._evaluate(arr1, base._deriv_cols, "derivative", idx)
        for p in self.nondifferentiable_points:
            out[arr1 == p] = 0.0
        return _ret(out.reshape(arr.shape), scalar)


def weak_derivative(s: SigmaStar) -> WeakDerivative:
    """Detect kink points of the continuation and zero the derivative there."""
    return WeakDerivative(source=s,
                          nondifferentiable_points=s.base.kinks_in(-math.inf, math.inf))


@dataclass(frozen=True)
class DriftFunctional:
    """g = mu/sigma_cont - weak_derivative/2, evaluable on the window (and beyond)."""

    mu: PiecewiseFunction
    sigma_star: SigmaStar
    weak_deriv: WeakDerivative

    def __post_init__(self):
        union = np.asarray(self.breakpoints, dtype=float)
        object.__setattr__(self, "_union", union)
        object.__setattr__(self, "_mu_table", self.mu.piece_table(union))
        object.__setattr__(self, "_sigma_table", self.sigma_star.base.piece_table(union))

    def __call__(self, x):
        """One breakpoint lookup on the union of mu's and sigma_cont's breakpoints;
        per-function tables turn it into each function's piece index."""
        arr, scalar = _as_array(x)
        arr1 = np.atleast_1d(arr)
        j = np.searchsorted(self._union, arr1, side="right") if self._union.size else None
        mu_idx = 0 if self._mu_table is None else self._mu_table[j]
        sigma_idx = 0 if self._sigma_table is None else self._sigma_table[j]
        # g runs on slab-sized inputs: free each index array once it is used,
        # and apply mu/sigma_cont - weak_deriv/2 in that order, in place
        del j
        out = self.mu._evaluate(arr1, self.mu._value_cols, "__call__", mu_idx)
        del mu_idx
        base = self.sigma_star.base
        out /= base._evaluate(arr1, base._value_cols, "__call__", sigma_idx)
        half_deriv = self.weak_deriv(arr1, sigma_idx)
        half_deriv *= 0.5
        out -= half_deriv
        return _ret(out.reshape(arr.shape), scalar)

    @property
    def breakpoints(self) -> tuple[float, ...]:
        pts = set(self.mu.breakpoints) | set(self.sigma_star.base.breakpoints)
        return tuple(sorted(pts))


def drift_functional(mu: PiecewiseFunction, s: SigmaStar) -> DriftFunctional:
    """g = mu/sigma_cont - weak_derivative(sigma_cont)/2 for this continuation."""
    return DriftFunctional(mu=mu, sigma_star=s, weak_deriv=weak_derivative(s))
