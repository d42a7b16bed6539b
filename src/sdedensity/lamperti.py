"""Coordinate change that turns the SDE into one with unit diffusion.

H(x) is the antiderivative of 1/sigma_cont anchored at the left window edge.
Outside the window sigma_cont is constant, so H continues linearly in closed
form; inside, cumulative integrals are tabulated on a dense knot grid aligned
with the piece breakpoints and kinks, and the residual sub-cell integral is evaluated
with a fixed Gauss-Legendre rule (closed forms for polynomial pieces of
degree at most one).  The map is strictly monotone and bi-Lipschitz because
the diffusion is bounded away from zero, so it is a bijection of the line: the
inverse is the closed forms outside the window's image and Newton inside.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, NumericsError
from .model import LocalWindow, PiecewiseFunction, Polynomial, build_sigma_star
from .util import unique

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)
_INVERSE_TOLERANCE = 1e-10  # Newton stopping tolerance of the inverse, in H units
_N_KNOTS = 4096  # uniform knots of the H table on the window (breakpoints and kinks added)


def _integrals_of_inverse(pieces, cell_piece, knots, cell, x):
    """Integral of 1/sigma_cont from knots[cell[i]] to x[i], x[i] inside that cell,
    where pieces[cell_piece[c]] applies; exact for polynomials of at most two
    coefficients, Gauss-Legendre for the others."""
    out = np.empty_like(x)
    which = cell_piece[cell]
    for pi in unique(which):
        m, piece = which == pi, pieces[pi]
        am, xm = knots[cell[m]], x[m]
        if isinstance(piece, Polynomial) and len(piece.coeffs) <= 2:
            c0, c1 = (*piece.coeffs, 0.0)[:2]  # sigma = c0 + c1 x; c1 = 0 for a constant
            if c1 == 0.0:
                out[m] = (xm - am) / c0
            else:
                out[m] = np.log((c0 + c1 * xm) / (c0 + c1 * am)) / c1
        else:
            half = (xm - am) * 0.5
            nodes = am[:, None] + half[:, None] * (_GL_NODES[None, :] + 1.0)
            out[m] = half * np.sum(_GL_WEIGHTS[None, :] / piece(nodes), axis=1)
    return out


@dataclass(eq=False)
class LampertiMap:
    """Strictly monotone antiderivative of 1/sigma_cont with a fast inverse, and the
    one holder of sigma_cont and its constant values left and right of the window.
    The knots span the window, and knots_h[-1] is H at its right end (0 at the left)."""

    sigma_star: PiecewiseFunction
    left_value: float
    right_value: float
    knots_x: np.ndarray = field(repr=False)
    knots_h: np.ndarray = field(repr=False)
    cell_piece: np.ndarray = field(repr=False)  # piece index per knot cell

    # -- forward -------------------------------------------------------------

    def forward_many(self, x):
        """H(x) anywhere on the line, shaped like x."""
        arr = np.asarray(x, dtype=float)
        flat = np.atleast_1d(arr).ravel()
        out = np.empty_like(flat)
        lo, hi = self.knots_x[0], self.knots_x[-1]
        left = flat < lo
        right = flat > hi
        mid = ~(left | right)
        if np.any(left):
            out[left] = (flat[left] - lo) / self.left_value
        if np.any(right):
            out[right] = self.knots_h[-1] + (flat[right] - hi) / self.right_value
        if np.any(mid):
            xm = flat[mid]
            idx = np.searchsorted(self.knots_x, xm, side="right") - 1
            idx = np.clip(idx, 0, len(self.knots_x) - 2)
            res = _integrals_of_inverse(self.sigma_star.pieces, self.cell_piece,
                                        self.knots_x, idx, xm)
            out[mid] = self.knots_h[idx] + res
        return out.reshape(arr.shape)[()]

    def image(self, a: float, b: float) -> tuple[float, float]:
        """H([a, b]) as (lo, hi).

        One scalar ``forward_many`` call per endpoint: a batched call need not
        round the same (numpy's vector and scalar log loops differ), and the
        inversion grid is built from these two numbers.
        """
        ha, hb = self.forward_many(a), self.forward_many(b)
        return (min(ha, hb), max(ha, hb))

    # -- inverse -------------------------------------------------------------

    @property
    def increasing(self) -> bool:
        return self.left_value > 0.0

    def inverse_many(self, y):
        """x with H(x) = y anywhere on the line, shaped like y."""
        arr = np.asarray(y, dtype=float)
        flat = np.atleast_1d(arr).ravel().copy()
        sgn = 1.0 if self.increasing else -1.0
        h_hi = self.knots_h[-1]
        out = np.empty_like(flat)

        # linear closed forms beyond H = 0 and H = h_hi at the window's ends (exact inverses)
        left = sgn * flat < 0.0
        right = sgn * (flat - h_hi) > 0.0
        mid = ~(left | right)
        out[left] = self.knots_x[0] + flat[left] * self.left_value
        out[right] = self.knots_x[-1] + (flat[right] - h_hi) * self.right_value

        if np.any(mid):
            ym = flat[mid]
            kh = sgn * self.knots_h
            j = np.searchsorted(kh, sgn * ym, side="right") - 1
            j = np.clip(j, 0, len(self.knots_x) - 2)
            lo_b = self.knots_x[j].copy()
            hi_b = self.knots_x[j + 1].copy()
            x = 0.5 * (lo_b + hi_b)
            for _ in range(80):
                res = self.forward_many(x) - ym
                # done within tolerance, or once no float lies strictly inside the bracket
                if not np.any((abs(res) > _INVERSE_TOLERANCE) & (np.nextafter(lo_b, hi_b) < hi_b)):
                    break
                pos = res * sgn > 0
                hi_b = np.where(pos, x, hi_b)
                lo_b = np.where(pos, lo_b, x)
                step = x - res * self.sigma_star(x)
                inside = (step > lo_b) & (step < hi_b)
                x = np.where(inside, step, 0.5 * (lo_b + hi_b))
            else:
                raise NumericsError("inverse iteration failed to reach tolerance")
            out[mid] = x
        return out.reshape(arr.shape)[()]


def build_lamperti_map(sigma: PiecewiseFunction, w: LocalWindow) -> LampertiMap:
    """Continue sigma outside the window w (sigma_cont), tabulate H on the window
    and wire up the closed-form continuations."""
    s = build_sigma_star(sigma, w)
    special = np.concatenate([s.breakpoints, s.kinks()])
    uniform = np.linspace(w.lo, w.hi, _N_KNOTS)
    # a uniform knot a few ulps from a breakpoint or kink would leave a sliver
    # cell whose integral rounds to 0
    gap = np.min(np.abs(uniform[:, None] - special), axis=1, initial=np.inf)
    knots = unique(np.concatenate([uniform[gap > 4 * np.abs(np.spacing(uniform))], special]))
    mids = 0.5 * (knots[:-1] + knots[1:])
    cell_piece = np.searchsorted(np.asarray(s.breakpoints), mids, side="right")

    with np.errstate(all="ignore"):  # a non-finite cell is rejected just below
        cell_vals = _integrals_of_inverse(s.pieces, cell_piece, knots,
                                          np.arange(len(knots) - 1), knots[1:])
    if not np.all(np.isfinite(cell_vals)):
        j = np.flatnonzero(~np.isfinite(cell_vals))[0]
        raise NumericsError(
            f"quadrature of 1/sigma_cont failed on cell [{knots[j]}, {knots[j+1]}]"
        )
    knots_h = np.concatenate([[0.0], np.cumsum(cell_vals)])

    m = LampertiMap(
        sigma_star=s,
        left_value=float(s(w.lo)),
        right_value=float(s(w.hi)),
        knots_x=knots,
        knots_h=knots_h,
        cell_piece=cell_piece,
    )
    diffs = np.diff(knots_h)
    if not (np.all(diffs > 0) or np.all(diffs < 0)):
        raise ConfigError("transform is not strictly monotone; check sigma's sign")
    return m
