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
from dataclasses import dataclass, field

import numpy as np
from scipy import integrate

from .charfn import CharFnEstimate, FrequencyGrid, estimate_localized
from .errors import ConfigError, DomainError, NumericsError
from .lamperti import LampertiMap
from .model import SigmaStar
from .simulate import PathEnsemble
from .util import fmt_float

_INVERT_BLOCK, _HOLDER_BLOCK = 256, 512  # rows per block: invert's phases, holder_norm's pairs


@dataclass(eq=False)
class DensityEstimate:
    """A real density on a grid, with the truncation metadata of its inversion."""

    x_grid: np.ndarray
    values: np.ndarray
    y_max: float
    quad_spacing: float
    t: float
    coordinate: str  # 'transformed' | 'state'
    imag_residual: float = 0.0
    metadata: dict = field(default_factory=dict)

    def mass(self) -> float:
        return float(np.trapezoid(self.values, self.x_grid))

    def to_csv(self, path) -> None:
        name = "q" if self.coordinate == "state" else "p"
        with open(path, "w", newline="") as fh:
            fh.write(f"x,{name}\n")
            for x, v in zip(self.x_grid, self.values):
                fh.write(f"{fmt_float(x)},{fmt_float(v)}\n")


def invert(cf: CharFnEstimate, x_grid: np.ndarray) -> DensityEstimate:
    """Trapezoid Fourier inversion of the CF estimate onto x_grid."""
    x_grid = np.asarray(x_grid, dtype=float)
    y = cf.grid.values
    dy = cf.grid.spacing
    diameter = float(x_grid.max() - x_grid.min())
    if diameter >= math.pi / dy:
        raise ConfigError(
            f"x-grid diameter {diameter:.3g} violates the aliasing limit "
            f"pi/spacing = {math.pi / dy:.3g}"
        )
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
    imag_max = float(np.max(np.abs(out.imag)))
    if imag_max > max(10.0 * se_prop, floor):
        raise NumericsError(
            f"imaginary residue {imag_max:.3g} exceeds tolerance "
            f"{max(10.0 * se_prop, floor):.3g}; input is not a valid CF"
        )
    return DensityEstimate(
        x_grid=x_grid, values=out.real, y_max=cf.grid.y_max, quad_spacing=dy,
        t=cf.t, coordinate="transformed", imag_residual=imag_max,
        metadata={"imag_allowance": max(10.0 * se_prop, floor)},
    )


def pushforward(p: DensityEstimate, m: LampertiMap, s: SigmaStar) -> DensityEstimate:
    """Carry a density from transformed to state coordinates:

        q(x) = p(H(x)) / |sigma_cont(x)|

    evaluated on the exact preimage of p's grid, so no interpolation enters.
    """
    if p.coordinate != "transformed":
        raise ConfigError("pushforward expects a density in the transformed coordinate")
    x_state = m.inverse_many(p.x_grid)
    q = p.values / np.abs(s(x_state))
    if not m.increasing:
        x_state = x_state[::-1]
        q = q[::-1]
    return DensityEstimate(
        x_grid=x_state, values=q, y_max=p.y_max, quad_spacing=p.quad_spacing,
        t=p.t, coordinate="state", imag_residual=p.imag_residual,
    )


def holder_norm(d: DensityEstimate | np.ndarray, gamma: float,
                x_grid: np.ndarray | None = None) -> float:
    """Discrete C^gamma norm: max(sup |f|, sup over grid pairs |df| / |dx|^gamma)."""
    if not (0.0 < gamma <= 1.0):
        raise DomainError("gamma must lie in (0, 1]")
    if isinstance(d, DensityEstimate):
        xs, vs = d.x_grid, d.values
    else:
        if x_grid is None:
            raise ConfigError("x_grid required when passing raw values")
        xs, vs = np.asarray(x_grid, float), np.asarray(d, float)
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
    # head [0, 2pi]: z = u^{1/(1-gamma)} turns z^{-gamma} dz into du/(1-gamma)
    p = 1.0 / (1.0 - gamma)

    def head_integrand(u):
        z = u**p
        core = 2.0 * math.sin(z / 2.0) / z if z > 0 else 1.0
        return core * p

    u_hi = (2.0 * math.pi) ** (1.0 - gamma)
    head, _ = integrate.quad(head_integrand, 0.0, u_hi, epsabs=1e-13, epsrel=1e-12, limit=200)

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


@dataclass(eq=False)
class JointScan:
    """Density surface over (t, x) with the lookahead-halving continuity report."""

    t_coarse: np.ndarray
    t_refined: np.ndarray
    x_state: np.ndarray
    q: np.ndarray  # len(t_refined) x len(x_state)
    coarse_sup_diffs: np.ndarray
    fine_sup_diffs: np.ndarray
    halving_ratios: np.ndarray

    @property
    def mean_halving_ratio(self) -> float:
        return float(np.mean(self.halving_ratios))

    def row(self, t: float) -> np.ndarray:
        j = int(np.argmin(np.abs(self.t_refined - t)))
        if abs(self.t_refined[j] - t) > 1e-12:
            raise ConfigError(f"t={t} not in the scan")
        return self.q[j]

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            fh.write("t,x,q\n")
            for j, t in enumerate(self.t_refined):
                for x, v in zip(self.x_state, self.q[j]):
                    fh.write(f"{fmt_float(t)},{fmt_float(x)},{fmt_float(v)}\n")


def joint_continuity_scan(ens: PathEnsemble, phi, transform: LampertiMap, s: SigmaStar,
                          t_list, freq_grid: FrequencyGrid, x_grid: np.ndarray,
                          threads: int = 1) -> JointScan:
    """Density rows q_t on a shared state grid for t in t_list plus midpoints.

    All rows come from one ensemble (one seed), so differences across t
    reflect the path evolution rather than independent sampling noise; the
    sup of |q_{t+dt} - q_t| per step is compared with the same quantity at
    half the step, the discrete surrogate for joint continuity.  What ratio
    counts as "shrinking" is the caller's choice; the scan only reports.
    Kept for the joint (t, x) continuity claim (``test_invert.py::TestJointScan``).
    """
    t_coarse = np.asarray(sorted(t_list), dtype=float)
    if t_coarse.size < 2:
        raise ConfigError("need at least two times")
    mids = 0.5 * (t_coarse[:-1] + t_coarse[1:])
    t_ref = np.unique(np.concatenate([t_coarse, mids]))

    rows = []
    x_state = None
    for t in t_ref:
        cf = estimate_localized(ens, phi, transform, freq_grid, float(t), threads=threads)
        p = invert(cf, x_grid)
        q = pushforward(p, transform, s)
        if x_state is None:
            x_state = q.x_grid
        rows.append(q.values)
    q_mat = np.vstack(rows)

    def sup_diffs(ts):
        idx = [int(np.argmin(np.abs(t_ref - t))) for t in ts]
        return np.array([
            float(np.max(np.abs(q_mat[a] - q_mat[b])))
            for a, b in zip(idx, idx[1:])
        ])

    coarse = sup_diffs(t_coarse)
    fine = sup_diffs(t_ref)
    # per coarse step: the larger of its two half-step sups against the full sup
    ratios = []
    for k in range(t_coarse.size - 1):
        i0 = int(np.argmin(np.abs(t_ref - t_coarse[k])))
        d1, d2 = fine[i0], fine[i0 + 1]
        ratios.append(max(d1, d2) / coarse[k] if coarse[k] > 0 else 0.0)
    return JointScan(
        t_coarse=t_coarse, t_refined=t_ref, x_state=x_state, q=q_mat,
        coarse_sup_diffs=coarse, fine_sup_diffs=fine,
        halving_ratios=np.asarray(ratios),
    )
