"""Coordinate change that turns the SDE into one with unit diffusion.

H(x) is the antiderivative of 1/sigma_cont anchored at the left window edge.
Outside the window sigma_cont is constant, so H continues linearly in closed
form; inside, cumulative integrals are tabulated on a dense knot grid aligned
with the piece breakpoints, and the residual sub-cell integral is evaluated
with a fixed Gauss-Legendre rule (closed forms for polynomial pieces of
degree at most one).  The map is strictly monotone and bi-Lipschitz because
the diffusion is bounded away from zero.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DomainError, NumericsError
from .model import Polynomial, SigmaStar
from .util import unique

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)
_INVERSE_TOLERANCE = 1e-10  # Newton stopping tolerance of the inverse, in H units
_N_KNOTS = 4096  # uniform knots of the H table on the window (breakpoints added)
_BOX_RADII = 3.0  # the inverse is defined on H([xi - 3 delta, xi + 3 delta])


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
    """Strictly monotone antiderivative of 1/sigma_cont with a fast inverse."""

    sigma_star: SigmaStar
    knots_x: np.ndarray = field(repr=False)
    knots_h: np.ndarray = field(repr=False)
    cell_piece: np.ndarray = field(repr=False)  # piece index per knot cell
    h_hi: float = 0.0  # H at window right edge; H is 0 at the left edge by anchoring

    # -- forward -------------------------------------------------------------

    def forward_many(self, x) -> np.ndarray:
        """H(x) for an array of points, or one point (a float), anywhere on the line."""
        arr = np.asarray(x, dtype=float)
        flat = np.atleast_1d(arr).ravel()
        out = np.empty_like(flat)
        w = self.sigma_star.window
        left = flat < w.lo
        right = flat > w.hi
        mid = ~(left | right)
        if np.any(left):
            out[left] = (flat[left] - w.lo) / self.sigma_star.left_value
        if np.any(right):
            out[right] = self.h_hi + (flat[right] - w.hi) / self.sigma_star.right_value
        if np.any(mid):
            xm = flat[mid]
            idx = np.searchsorted(self.knots_x, xm, side="right") - 1
            idx = np.clip(idx, 0, len(self.knots_x) - 2)
            res = _integrals_of_inverse(self.sigma_star.base.pieces, self.cell_piece,
                                        self.knots_x, idx, xm)
            out[mid] = self.knots_h[idx] + res
        return out.reshape(arr.shape) if arr.ndim else float(out[0])

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
        return self.sigma_star.left_value > 0.0

    @property
    def h_range(self) -> tuple[float, float]:
        """The invertible range: the image of the box [xi - 3 delta, xi + 3 delta]."""
        w = self.sigma_star.window
        return self.image(w.xi - _BOX_RADII * w.delta, w.xi + _BOX_RADII * w.delta)

    def inverse_many(self, y) -> np.ndarray:
        """x with H(x) = y, for an array of y, or one y (a float), inside ``h_range``."""
        arr = np.asarray(y, dtype=float)
        flat = np.atleast_1d(arr).ravel().copy()
        r_lo, r_hi = self.h_range
        span = max(abs(r_lo), abs(r_hi), 1.0)
        if np.any(flat < r_lo - 1e-12 * span) or np.any(flat > r_hi + 1e-12 * span):
            bad = flat[(flat < r_lo - 1e-12 * span) | (flat > r_hi + 1e-12 * span)][0]
            raise DomainError(f"y={bad!r} outside the invertible range [{r_lo}, {r_hi}]")
        sgn = 1.0 if self.increasing else -1.0
        w = self.sigma_star.window
        out = np.empty_like(flat)

        # linear closed forms outside the window (exact inverses)
        hw_lo, hw_hi = sorted((0.0, self.h_hi))
        left = flat < hw_lo
        right = flat > hw_hi
        mid = ~(left | right)
        if self.increasing:
            out[left] = w.lo + flat[left] * self.sigma_star.left_value
            out[right] = w.hi + (flat[right] - self.h_hi) * self.sigma_star.right_value
        else:
            out[left] = w.hi + (flat[left] - self.h_hi) * self.sigma_star.right_value
            out[right] = w.lo + flat[right] * self.sigma_star.left_value

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
                if np.all(np.abs(res) <= _INVERSE_TOLERANCE):
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
        return out.reshape(arr.shape) if arr.ndim else float(out[0])


def build_lamperti_map(s: SigmaStar) -> LampertiMap:
    """Tabulate H on the window and wire up the closed-form continuations."""
    w = s.window
    base = s.base
    knots = unique(np.concatenate([
        np.linspace(w.lo, w.hi, _N_KNOTS),
        np.asarray([bp for bp in base.breakpoints if w.lo <= bp <= w.hi]),
        np.asarray(sorted(k for p in base.pieces for k in p.kinks(w.lo, w.hi))),
    ]))
    mids = 0.5 * (knots[:-1] + knots[1:])
    cell_piece = np.searchsorted(np.asarray(base.breakpoints), mids, side="right")

    cell_vals = _integrals_of_inverse(base.pieces, cell_piece, knots,
                                      np.arange(len(knots) - 1), knots[1:])
    if not np.all(np.isfinite(cell_vals)):
        j = int(np.argwhere(~np.isfinite(cell_vals))[0])
        raise NumericsError(
            f"quadrature of 1/sigma_cont failed on cell [{knots[j]}, {knots[j+1]}]"
        )
    knots_h = np.concatenate([[0.0], np.cumsum(cell_vals)])

    m = LampertiMap(
        sigma_star=s,
        knots_x=knots,
        knots_h=knots_h,
        cell_piece=cell_piece,
        h_hi=float(knots_h[-1]),
    )
    diffs = np.diff(knots_h)
    if not (np.all(diffs > 0) or np.all(diffs < 0)):
        raise ConfigError("transform is not strictly monotone; check sigma's sign")
    return m
