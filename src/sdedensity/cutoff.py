"""Twice-differentiable bump functions used to localize laws to the window.

The shoulders are quintic smoothstep ramps s(u) = 6u^5 - 15u^4 + 10u^3, which
give closed-form derivative norms:

    sup|phi|   = 1
    sup|phi'|  = 1.875 / w            (at the shoulder midpoint)
    sup|phi''| = (10/sqrt(3)) / w^2   (Lipschitz constant of phi')

for shoulder width w.  They are exposed as ``c1``, ``lip1`` and ``c2_norm``
so that the tests can check them against finite differences; no command
reads them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .model import LocalWindow

_SUPPORT_MARGIN = 1e-6
_SMOOTHSTEP_D2_MAX = 10.0 / math.sqrt(3.0)  # sup |s''| on [0,1]


def _smoothstep(u):
    # clip: the polynomial can exceed [0, 1] by one ulp near the joins
    return np.clip(u * u * u * (10.0 + u * (-15.0 + 6.0 * u)), 0.0, 1.0)


def _smoothstep_d1(u):
    return 30.0 * u * u * (1.0 - u) ** 2


def _smoothstep_d2(u):
    return 60.0 * u * (2.0 * u - 1.0) * (u - 1.0)


# derivative order -> (smoothstep derivative, value on the plateau, sign on the
# right shoulder, where phi runs the ramp backwards)
_ORDERS = ((_smoothstep, 1.0, 1.0), (_smoothstep_d1, 0.0, -1.0), (_smoothstep_d2, 0.0, 1.0))


@dataclass(frozen=True)
class CutoffFunction:
    """A C^2 bump: 0 outside (a, b), 1 on [plateau_lo, plateau_hi], smoothstep
    shoulders of width `shoulder_width` in between.

    The plateau bounds are stored explicitly (not derived from a and the
    width) so that membership tests at the nominal plateau edges are exact
    under floating point.
    """

    a: float
    b: float
    shoulder_width: float
    plateau_lo: float
    plateau_hi: float

    def __post_init__(self):
        if not (self.a < self.plateau_lo <= self.plateau_hi < self.b):
            raise ConfigError("need a < plateau_lo <= plateau_hi < b")
        if self.shoulder_width <= 0.0:
            raise ConfigError("shoulder width must be positive")

    # analytically known C^2 data
    @property
    def c1(self) -> float:
        return 1.875 / self.shoulder_width

    @property
    def lip1(self) -> float:
        return _SMOOTHSTEP_D2_MAX / self.shoulder_width**2

    @property
    def c2_norm(self) -> float:
        """sup|phi| + sup|phi'| + Lipschitz constant of phi'."""
        return self.sup_norm + self.c1 + self.lip1

    @property
    def sup_norm(self) -> float:
        return 1.0

    def _evaluate(self, x, order: int):
        """The order-th derivative of phi at x, from row ``order`` of ``_ORDERS``."""
        s, plateau, right_sign = _ORDERS[order]
        arr = np.asarray(x, dtype=float)
        left = (arr > self.a) & (arr < self.plateau_lo)
        right = (arr > self.plateau_hi) & (arr < self.b)
        out = np.zeros_like(arr)
        out[(arr >= self.plateau_lo) & (arr <= self.plateau_hi)] = plateau
        w = self.shoulder_width
        out[left] = s((arr[left] - self.a) / w) / w**order
        out[right] = right_sign * s((self.b - arr[right]) / w) / w**order
        return out[()]

    def __call__(self, x):
        return self._evaluate(x, 0)

    def derivative(self, x):
        return self._evaluate(x, 1)

    def second_derivative(self, x):
        return self._evaluate(x, 2)


def make_bump(w: LocalWindow, shoulder_fraction: float) -> CutoffFunction:
    """Bump supported strictly inside the ball of radius delta - delta0 around xi.

    The support is shrunk by a relative 1e-6 margin so that floating-point
    evaluation at the nominal endpoints is exactly zero, and the shoulders
    take the requested fraction of the support length.
    """
    if not (0.0 < shoulder_fraction < 0.5):
        raise ConfigError("shoulder_fraction must lie in (0, 1/2)")
    half = (w.delta - w.delta0) * (1.0 - _SUPPORT_MARGIN)
    a, b = w.xi - half, w.xi + half
    width = shoulder_fraction * (b - a)
    return CutoffFunction(a=a, b=b, shoulder_width=width,
                          plateau_lo=a + width, plateau_hi=b - width)


def make_plateau_sequence(k: int) -> CutoffFunction:
    """The k-th member of the global plateau family: 1 on [-k, k], support
    inside (-(k+1), k+1), C^2 norm independent of k (fixed shoulder width).
    Kept for the plateau-family claim (``test_cutoff.py::TestPlateauSequence``)."""
    if k < 1:
        raise ConfigError("k must be a positive integer")
    width = 1.0 - _SUPPORT_MARGIN
    return CutoffFunction(a=-float(k) - width, b=float(k) + width,
                          shoulder_width=width,
                          plateau_lo=-float(k), plateau_hi=float(k))

