"""Closed-form reference laws used to test every Monte-Carlo estimate.

Three exactly solvable families (Brownian motion with drift, the
Ornstein-Uhlenbeck process, geometric Brownian motion) plus the canonical
discontinuous-drift model a*sign(x - xi).  Started at x0 = xi, the
sign-drift density has a closed form (|X - xi| is a reflected Brownian motion
with drift); it is not implemented here, so that model is certified through
the bound and smoothness checks instead.

The localized CF is one fixed-node rule: composite Gauss-Legendre panels on
the smooth segments of phi, refined per frequency by a factor that depends on
the frequency alone, with phi(x) p_t(x) and H(x) evaluated once per node for
every frequency of a call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConfigError, DomainError
from .model import Affine, CoefficientModel, Constant, PiecewiseFunction
from .util import unique

import numpy as np

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(32)
_PANEL_H = 0.25  # widest panel, in H
_PANEL_SDS = 8.0  # widest panel, in standard deviations of X_t
_PANEL_PHASE = 40.0  # largest |y| * (widest panel in H) before a frequency splits the panels
_BLOCK_CELLS = 2**16  # frequency-node cells per block of the phase sums

# kind -> the parameters its law reads; every law starts at x0
PARAMETERS = {"brownian_drift": ("mu0", "sigma0", "x0"),
              "ornstein_uhlenbeck": ("theta", "sigma0", "x0"),
              "geometric_bm": ("mu0", "sigma0", "x0")}


@dataclass(frozen=True)
class ReferenceModel:
    """An SDE family with a known marginal law at every time, started at x0.

    kind: one of ``PARAMETERS``, which lists the fields each kind reads.
    """

    kind: str
    mu0: float = 0.0
    sigma0: float = 1.0
    theta: float = 0.0
    x0: float = 0.0

    def marginal(self, t: float):
        """(kind of law, location, scale) of X_t; Gaussian except for GBM."""
        if t <= 0:
            raise DomainError("t must be positive")
        if self.sigma0 <= 0:
            raise ConfigError("sigma0 must be positive")
        if self.kind == "brownian_drift":
            return ("normal", self.x0 + self.mu0 * t, self.sigma0 * math.sqrt(t))
        try:
            s2 = self.sigma0**2
        except OverflowError:
            raise ConfigError(f"sigma0**2 overflows, sigma0={self.sigma0!r}") from None
        if self.kind == "ornstein_uhlenbeck":
            if self.theta <= 0:
                raise ConfigError("theta must be positive")
            var = s2 * (1.0 - math.exp(-2.0 * self.theta * t)) / (2.0 * self.theta)
            return ("normal", self.x0 * math.exp(-self.theta * t), math.sqrt(var))
        if self.kind == "geometric_bm":
            if self.x0 <= 0:
                raise ConfigError("geometric BM needs a positive start value")
            m = math.log(self.x0) + (self.mu0 - 0.5 * s2) * t
            return ("lognormal", m, self.sigma0 * math.sqrt(t))
        raise ConfigError(f"unknown reference kind {self.kind!r}")


def exact_density(rm: ReferenceModel, t: float, x):
    """Closed-form marginal density of X_t at x (vectorized in x)."""
    law, loc, scale = rm.marginal(t)
    arr = np.asarray(x, dtype=float)
    if law == "normal":
        out = np.exp(-0.5 * ((arr - loc) / scale) ** 2) / (scale * math.sqrt(2 * math.pi))
    else:  # lognormal via the log map; zero off (0, inf)
        out = np.zeros_like(arr)
        pos = arr > 0
        lx = np.log(arr[pos])
        out[pos] = np.exp(-0.5 * ((lx - loc) / scale) ** 2) / (
            arr[pos] * scale * math.sqrt(2 * math.pi)
        )
    return out[()]


def exact_cf(rm: ReferenceModel, t: float, y):
    """Unweighted CF of the marginal (Gaussian kinds only)."""
    law, loc, scale = rm.marginal(t)
    if law != "normal":
        raise DomainError("closed-form CF only available for the Gaussian kinds")
    y = np.asarray(y, dtype=float)
    return np.exp(1j * y * loc - 0.5 * (scale * y) ** 2)[()]


def _forward(transform, x):
    return x if transform is None else transform.forward_many(x)


def _panel_edges(rm: ReferenceModel, phi, transform, t: float):
    """(edges, widest in H) of equal panels tiling each of phi's three segments
    [a, plateau_lo], the plateau and [plateau_hi, b] (phi is a polynomial on
    each, so within a panel only p_t and H limit the rule's accuracy), every
    panel at most _PANEL_H wide in H and _PANEL_SDS standard deviations of X_t
    wide in x."""
    law, loc, scale = rm.marginal(t)
    sd = scale if law == "normal" else math.exp(loc + 0.5 * scale**2) * math.sqrt(
        math.expm1(scale**2))  # the lognormal's standard deviation
    a, lo, hi, b = phi.a, phi.plateau_lo, phi.plateau_hi, phi.b
    edges, widest = [np.array([a])], 0.0
    for s0, s1 in ((a, lo), (lo, hi), (hi, b)):
        if s1 <= s0:  # an empty plateau
            continue
        n = math.ceil((s1 - s0) / (_PANEL_SDS * sd))
        while True:
            e = np.linspace(s0, s1, n + 1)
            w = float(np.max(np.abs(np.diff(_forward(transform, e)))))
            if w <= _PANEL_H:
                break
            n = math.ceil(n * w / _PANEL_H)
        edges.append(e[1:])
        widest = max(widest, w)
    return np.concatenate(edges), widest


def _nodes(edges: np.ndarray, r: int):
    """Gauss-Legendre nodes and weights of the panels between edges, each split r times."""
    e0, width = edges[:-1, None], np.diff(edges)[:, None]
    fine = np.append((e0 + width * (np.arange(r) / r)).ravel(), edges[-1])
    half = 0.5 * np.diff(fine)[:, None]
    mid = fine[:-1, None] + half
    return (mid + half * _GL_NODES).ravel(), (half * _GL_WEIGHTS).ravel()


def localized_cf(rm: ReferenceModel, phi, t: float, y):
    """integral of e^{iyx} phi(x) density(x) dx: localized_cf_transformed with H = identity."""
    return localized_cf_transformed(rm, phi, None, t, y)


def localized_cf_transformed(rm: ReferenceModel, phi, transform, t: float, y):
    """CF of the localized law pushed through Y = H(X):  E[e^{iyH(X)} phi(X)].

    H is ``transform.forward_many``, or the identity for ``transform=None``.
    The result is shaped like y.  Frequency y uses the panels of
    ``_panel_edges`` each split r(y) = ceil(|y| * widest / _PANEL_PHASE)
    times (at least once), where widest is the widest panel in H, so that a
    split panel spans about _PANEL_PHASE radians of phase or less (at most
    that where H is linear on it).  r depends on y alone and every row is a
    plain numpy sum in a fixed order, so an array call returns the same bits
    as one call per frequency.
    """
    edges, widest = _panel_edges(rm, phi, transform, t)
    ys = np.asarray(y, dtype=float)
    flat = ys.ravel()
    r = np.maximum(1, np.ceil(np.abs(flat) * widest / _PANEL_PHASE)).astype(int)
    out = np.empty(flat.size, dtype=complex)
    for split in unique(r):
        x, w = _nodes(edges, int(split))
        wf = w * phi(x) * exact_density(rm, t, x)
        hx = _forward(transform, x)
        rows = np.flatnonzero(r == split)
        step = max(1, _BLOCK_CELLS // x.size)
        for s in range(0, rows.size, step):
            idx = rows[s:s + step]
            out[idx] = (np.exp(1j * np.multiply.outer(flat[idx], hx)) * wf).sum(axis=1)
    return out.reshape(ys.shape)[()]


def as_coefficient_model(rm: ReferenceModel) -> CoefficientModel:
    """The piecewise drift/diffusion of a reference family, to simulate it in the tests."""
    if rm.kind == "brownian_drift":
        return CoefficientModel(
            mu=PiecewiseFunction((), (Constant(rm.mu0),)),
            sigma=PiecewiseFunction((), (Constant(rm.sigma0),)),
        )
    if rm.kind == "ornstein_uhlenbeck":
        return CoefficientModel(
            mu=PiecewiseFunction((), (Affine(0.0, -rm.theta),)),
            sigma=PiecewiseFunction((), (Constant(rm.sigma0),)),
        )
    if rm.kind == "geometric_bm":
        return CoefficientModel(
            mu=PiecewiseFunction((), (Affine(0.0, rm.mu0),)),
            sigma=PiecewiseFunction((), (Affine(0.0, rm.sigma0),)),
        )
    raise ConfigError(f"unknown reference kind {rm.kind!r}")


def sign_drift_model(a: float, xi: float = 0.0) -> CoefficientModel:
    """Piecewise-constant drift a*sign(x - xi) with unit diffusion.

    Constant pieces are alpha-Hoelder for every alpha with constant zero, so
    increments of the drift are governed entirely by the sign-change event
    across xi; this is the canonical stress model for the smoothness checks.
    """
    return CoefficientModel(
        mu=PiecewiseFunction((xi,), (Constant(-a), Constant(a))),
        sigma=PiecewiseFunction((), (Constant(1.0),)),
    )
