"""Closed-form reference laws used to test every Monte-Carlo estimate.

Three exactly solvable families (Brownian motion with drift, the
Ornstein-Uhlenbeck process, geometric Brownian motion) plus the canonical
discontinuous-drift model a*sign(x - xi), whose density has no simple closed
form and is certified through the bound and smoothness checks instead.

The localized CF oracles take an array of frequencies and evaluate the
y-independent integrand factor phi(x) p_t(x) once per quadrature node for all
of them: QUADPACK's nodes repeat across frequencies, so a call costs one
integrand evaluation per distinct node, not one per node of every integral.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from scipy import integrate

from .errors import ConfigError, DomainError
from .model import Affine, CoefficientModel, Constant, PiecewiseFunction

import numpy as np

_QUAD_TOLERANCE = 1e-9  # absolute and relative tolerance of every QUADPACK call


@dataclass(frozen=True)
class ReferenceModel:
    """An SDE family with a known marginal law at every time.

    kind: 'brownian_drift' | 'ornstein_uhlenbeck' | 'geometric_bm'.
    For the OU process x0=None selects the stationary law (mean zero,
    variance sigma0^2 / (2 theta) at every time).
    """

    kind: str
    mu0: float = 0.0
    sigma0: float = 1.0
    theta: float = 0.0
    x0: float | None = 0.0

    def marginal(self, t: float):
        """(kind of law, location, scale) of X_t; Gaussian except for GBM."""
        if t <= 0:
            raise DomainError("t must be positive")
        if self.kind == "brownian_drift":
            if self.x0 is None:
                raise ConfigError("brownian_drift needs a start value")
            return ("normal", self.x0 + self.mu0 * t, self.sigma0 * math.sqrt(t))
        if self.kind == "ornstein_uhlenbeck":
            if self.theta <= 0:
                raise ConfigError("theta must be positive")
            if self.x0 is None:
                var = self.sigma0**2 / (2.0 * self.theta)
                return ("normal", 0.0, math.sqrt(var))
            var = self.sigma0**2 * (1.0 - math.exp(-2.0 * self.theta * t)) / (2.0 * self.theta)
            return ("normal", self.x0 * math.exp(-self.theta * t), math.sqrt(var))
        if self.kind == "geometric_bm":
            if self.x0 is None or self.x0 <= 0:
                raise ConfigError("geometric BM needs a positive start value")
            m = math.log(self.x0) + (self.mu0 - 0.5 * self.sigma0**2) * t
            return ("lognormal", m, self.sigma0 * math.sqrt(t))
        raise ConfigError(f"unknown reference kind {self.kind!r}")


def brownian_drift(mu0: float, sigma0: float, x0: float = 0.0) -> ReferenceModel:
    """Brownian motion with drift, the reference law of the oracle tests (``test_oracle.py``)."""
    return ReferenceModel(kind="brownian_drift", mu0=mu0, sigma0=sigma0, x0=x0)


def ornstein_uhlenbeck(theta: float, sigma0: float, x0: float | None = None) -> ReferenceModel:
    """The OU process, the reference law of the oracle tests (``test_oracle.py``)."""
    return ReferenceModel(kind="ornstein_uhlenbeck", theta=theta, sigma0=sigma0, x0=x0)


def geometric_bm(mu0: float, sigma0: float, x0: float) -> ReferenceModel:
    """Geometric Brownian motion, the reference law of the oracle tests (``test_oracle.py``)."""
    return ReferenceModel(kind="geometric_bm", mu0=mu0, sigma0=sigma0, x0=x0)


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
    return float(out) if out.ndim == 0 else out


def exact_cf(rm: ReferenceModel, t: float, y) -> complex:
    """Unweighted CF of the marginal (Gaussian kinds only)."""
    law, loc, scale = rm.marginal(t)
    if law != "normal":
        raise DomainError("closed-form CF only available for the Gaussian kinds")
    y = np.asarray(y, dtype=float)
    out = np.exp(1j * y * loc - 0.5 * (scale * y) ** 2)
    return complex(out) if out.ndim == 0 else out


def _node_weight(rm: ReferenceModel, phi, t: float):
    """x -> phi(x) p_t(x), memoized by the exact float node for one oracle call.

    QUADPACK's adaptive rules bisect the same interval for every frequency, so
    the integrals of one call mostly revisit the same nodes and share one memo.
    """
    return functools.cache(lambda x: float(phi(x)) * float(exact_density(rm, t, x)))


def _each_frequency(one, y):
    """one(y) for a scalar y; an array of one(y_j) for an array of frequencies."""
    ys = np.asarray(y, dtype=float)
    if ys.ndim == 0:
        return one(y)
    return np.array([one(v) for v in ys.ravel()], dtype=complex).reshape(ys.shape)


def localized_cf(rm: ReferenceModel, phi, t: float, y):
    """integral of e^{iyx} phi(x) density(x) dx by adaptive quadrature.

    The oscillatory factor is handled with the weighted quadrature rules, so
    the result is reliable well past y ~ 100.  y is one frequency (a complex
    result) or an array of them (a complex array); the integrand is evaluated
    once per node for all frequencies of a call.
    """
    a, b = phi.support
    f = _node_weight(rm, phi, t)
    kw = dict(epsabs=_QUAD_TOLERANCE, epsrel=_QUAD_TOLERANCE, limit=400)

    def one(y):
        if y == 0.0:
            re, _ = integrate.quad(f, a, b, **kw)
            return complex(re, 0.0)
        re, _ = integrate.quad(f, a, b, weight="cos", wvar=y, **kw)
        im, _ = integrate.quad(f, a, b, weight="sin", wvar=y, **kw)
        return complex(re, im)

    return _each_frequency(one, y)


def localized_cf_transformed(rm: ReferenceModel, phi, transform, t: float, y):
    """CF of the localized law pushed through Y = H(X):  E[e^{iyH(X)} phi(X)].

    y is a scalar or an array, as in localized_cf; phi(x) p_t(x) and H(x) are
    evaluated once per node for all frequencies of a call.
    """
    a, b = phi.support
    w = _node_weight(rm, phi, t)
    h = functools.cache(transform.forward)
    kw = dict(epsabs=_QUAD_TOLERANCE, epsrel=_QUAD_TOLERANCE, limit=800)

    def one(y):
        def fr(x):
            return w(x) * math.cos(y * h(x))

        def fi(x):
            return w(x) * math.sin(y * h(x))

        re, _ = integrate.quad(fr, a, b, **kw)
        im, _ = integrate.quad(fi, a, b, **kw)
        return complex(re, im)

    return _each_frequency(one, y)


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
