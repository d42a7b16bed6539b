"""Density recovery from the characteristic function, and smoothness metrics.

Inversion is a plain trapezoid rule on the symmetric frequency grid:

    p(x) = (1/2pi) integral_{|y| <= y_max} e^{-ixy} cf(y) dy.

The x grid is small and decoupled from the frequency grid, so exact grid
control and simplicity beat an FFT here.  The imaginary part must vanish for
a genuine CF; it is asserted against the propagated standard error (with a
rounding floor) before being discarded.

Hoelder norms are measured discretely with the max of the sup norm and the
seminorm over all grid pairs -- adjacent pairs alone underestimate the sup,
and the grids are small enough for the O(n^2) scan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .charfn import CharFnEstimate
from .errors import ConfigError, DomainError, NumericsError
from .lamperti import LampertiMap

_INVERT_BLOCK, _HOLDER_BLOCK = 64, 512  # rows per block: invert's phases, holder_norm's pairs


@dataclass(eq=False)
class DensityEstimate:
    """A real density on a grid, and the imaginary residue its inversion dropped."""

    x_grid: np.ndarray
    values: np.ndarray
    t: float
    coordinate: str  # 'transformed' | 'state'
    imag_residual: float = 0.0

    def mass(self) -> float:
        return float(np.trapezoid(self.values, self.x_grid))


def check_aliasing(x_grid: np.ndarray, spacing: float) -> None:
    """Reject an x grid as wide as pi/spacing or wider, where its ends alias."""
    diameter, limit = float(x_grid.max() - x_grid.min()), math.pi / spacing
    if diameter >= limit:
        raise ConfigError(f"the inversion grid spans {diameter:.4g}, not below the aliasing "
                          f"limit pi/spacing = {limit:.4g}")


def invert(cf: CharFnEstimate, x_grid: np.ndarray) -> DensityEstimate:
    """Trapezoid Fourier inversion of the CF estimate onto x_grid."""
    x_grid = np.asarray(x_grid, dtype=float)
    y = cf.grid.values
    dy = cf.grid.spacing
    check_aliasing(x_grid, dy)
    wts = np.ones_like(y)
    wts[0] = wts[-1] = 0.5
    wv = wts * cf.values
    out = np.empty(x_grid.size, dtype=complex)
    for s in range(0, x_grid.size, _INVERT_BLOCK):
        xb = x_grid[s:s + _INVERT_BLOCK]
        phases = np.exp(-1j * xb[:, None] * y[None, :])
        out[s:s + _INVERT_BLOCK] = (phases * wv[None, :]).sum(axis=1)
    out *= dy / (2.0 * math.pi)

    # propagated-noise allowance for the imaginary residue, with a floor that
    # covers pure rounding when the input is analytic (zero SEs)
    se_prop = dy / (2.0 * math.pi) * math.sqrt(float(np.sum((wts * cf.std_errors) ** 2)))
    floor = 1e-12 * dy / (2.0 * math.pi) * float(np.sum(np.abs(wv)) + 1.0)
    allowance, imag_max = max(10.0 * se_prop, floor), float(np.max(np.abs(out.imag)))
    if imag_max > allowance:
        raise NumericsError(f"imaginary residue {imag_max:.3g} exceeds tolerance "
                            f"{allowance:.3g}; input is not a valid CF")
    return DensityEstimate(x_grid=x_grid, values=out.real, t=cf.t, coordinate="transformed",
                           imag_residual=imag_max)


def pushforward(p: DensityEstimate, m: LampertiMap) -> DensityEstimate:
    """Carry a density from transformed to state coordinates:

        q(x) = p(H(x)) / |sigma_cont(x)|

    where H is the map m and sigma_cont the continuation it integrates,
    evaluated on the exact preimage of p's grid, so no interpolation enters.
    """
    if p.coordinate != "transformed":
        raise ConfigError("pushforward expects a density in the transformed coordinate")
    x_state = m.inverse_many(p.x_grid)
    q = p.values / np.abs(m.sigma_star(x_state))
    if not m.increasing:
        x_state = x_state[::-1]
        q = q[::-1]
    return DensityEstimate(x_grid=x_state, values=q, t=p.t, coordinate="state",
                           imag_residual=p.imag_residual)


def holder_norm(x_grid, values, gamma: float) -> float:
    """Discrete C^gamma norm of ``values`` on ``x_grid``:
    max(sup |f|, sup over grid pairs |df| / |dx|^gamma)."""
    if not (0.0 < gamma <= 1.0):
        raise DomainError("gamma must lie in (0, 1]")
    xs, vs = np.asarray(x_grid, float), np.asarray(values, float)
    if vs.size != xs.size:
        raise ConfigError(f"{vs.size} values for an x_grid of {xs.size} points")
    if xs.size < 2:
        raise ConfigError("need at least two grid points")
    best = float(np.max(np.abs(vs)))
    semi = 0.0
    n = xs.size
    for s in range(0, n, _HOLDER_BLOCK):
        xd = np.abs(xs[s:s + _HOLDER_BLOCK, None] - xs[None, :])
        vd = np.abs(vs[s:s + _HOLDER_BLOCK, None] - vs[None, :])
        mask = xd > 0
        if np.any(mask):
            semi = max(semi, float(np.max(vd[mask] / xd[mask] ** gamma)))
    return max(best, semi)


_TAIL_PANELS = 2047  # one-lobe panels of |sin(z/2)| after the singular head
_HEAD_PANELS = 16  # equal panels of the singular head, in u = z^{1-gamma}
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(24)


def decay_smoothness_constant(gamma: float) -> float:
    """Seminorm factor of the decay-to-smoothness constant:

        (1/2pi) integral_R 2 |sin(z/2)| / |z|^{1+gamma} dz

    computed as a singular head (regularized by u = z^{1-gamma}), one-lobe
    Gauss panels out to Z = 2pi*(PANELS+1), plus the explicit envelope tail
    bound integral_{|z|>Z} 2 |z|^{-1-gamma} dz, which is added so that the
    returned constant is a certified upper value.  Kept for the decay-to-
    smoothness claim (``test_acceptance.py::TestCriterion7DecaySmoothnessContract``).
    """
    if not (0.0 < gamma < 1.0):
        raise DomainError("gamma must lie in (0, 1): the integral diverges otherwise")
    # head [0, 2pi]: z = u^{1/(1-gamma)} turns z^{-gamma} dz into du/(1-gamma);
    # HEAD_PANELS Gauss panels in u, where 2 sin(z/2)/z = sinc(z/2pi) is 1 at
    # z = 0 (u^p underflows to 0 near u = 0 for gamma close to 1)
    p = 1.0 / (1.0 - gamma)
    u_edges = np.linspace(0.0, (2.0 * math.pi) ** (1.0 - gamma), _HEAD_PANELS + 1)
    u_half = 0.5 * np.diff(u_edges)[:, None]
    u = u_edges[:-1, None] + u_half * (_GL_NODES[None, :] + 1.0)
    head = float(np.sum(u_half * _GL_WEIGHTS[None, :] * np.sinc(u**p / (2.0 * math.pi)))) * p

    # one-lobe panels [2pi m, 2pi (m+1)], m = 1..PANELS
    m = np.arange(1, _TAIL_PANELS + 1, dtype=float)
    a = 2.0 * math.pi * m
    half = math.pi
    nodes = a[:, None] + half * (_GL_NODES[None, :] + 1.0)
    vals = 2.0 * np.abs(np.sin(nodes / 2.0)) / nodes ** (1.0 + gamma)
    panels = float(half * np.sum(vals * _GL_WEIGHTS[None, :]))

    z_cut = 2.0 * math.pi * (_TAIL_PANELS + 1)
    tail = 2.0 * z_cut ** (-gamma) / gamma
    return (head + panels + tail) / math.pi  # x2 for the two half-lines, /(2 pi)
