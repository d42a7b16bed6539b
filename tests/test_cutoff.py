import math

import numpy as np
import pytest

import sdedensity as sd
from sdedensity.errors import ConfigError


@pytest.fixture(scope="module")
def bump(window6):
    return sd.make_bump(window6, shoulder_fraction=0.2)


class TestBump:
    def test_center_on_plateau(self, bump, window6):
        assert bump(window6.xi) == 1.0

    def test_zero_outside(self, bump, window6):
        assert bump(window6.xi + window6.delta) == 0.0
        assert bump(window6.xi - window6.delta) == 0.0

    def test_support_inside_shrunk_ball(self, bump, window6):
        r = window6.delta - window6.delta0
        assert window6.xi - r < bump.a < bump.b < window6.xi + r
        xs = np.linspace(bump.b, window6.xi + r, 50)
        assert np.all(bump(xs[1:]) == 0.0)

    def test_range_zero_one(self, bump):
        xs = np.linspace(bump.a - 1, bump.b + 1, 4001)
        v = bump(xs)
        assert np.all((v >= 0.0) & (v <= 1.0))

    def test_plateau_is_one(self, bump):
        lo, hi = bump.plateau_lo, bump.plateau_hi
        xs = np.linspace(lo, hi, 101)
        assert np.all(bump(xs) == 1.0)

    def test_second_derivative_sup(self, bump):
        # symbolic sup of the shoulder curvature: (10/sqrt(3)) / w^2
        xs = np.linspace(bump.a, bump.b, 200_001)
        observed = np.max(np.abs(bump.second_derivative(xs)))
        expected = (10.0 / math.sqrt(3.0)) / bump.shoulder_width**2
        assert observed == pytest.approx(expected, rel=1e-6)
        assert bump.lip1 == pytest.approx(expected, rel=1e-15)

    def test_derivative_sup(self, bump):
        xs = np.linspace(bump.a, bump.b, 200_001)
        assert np.max(np.abs(bump.derivative(xs))) == pytest.approx(bump.c1, rel=1e-8)

    def test_finite_difference_consistency(self, bump):
        h = 1e-5
        xs = np.linspace(bump.a - 0.5, bump.b + 0.5, 2001)
        fd = (bump(xs + h) - bump(xs - h)) / (2 * h)
        assert np.max(np.abs(bump.derivative(xs) - fd)) <= bump.lip1 * h

    def test_derivative_lipschitz_pairs(self, bump, rng):
        xs = rng.uniform(bump.a - 1, bump.b + 1, size=500)
        ys = rng.uniform(bump.a - 1, bump.b + 1, size=500)
        lhs = np.abs(bump.derivative(xs) - bump.derivative(ys))
        assert np.all(lhs <= bump.lip1 * np.abs(xs - ys) * (1 + 1e-9) + 1e-12)

    def test_shoulder_fraction_validated(self, window6):
        with pytest.raises(ConfigError):
            sd.make_bump(window6, 0.5)
        with pytest.raises(ConfigError):
            sd.make_bump(window6, 0.0)


class TestPlateauSequence:
    def test_one_on_plateau(self):
        phi3 = sd.make_plateau_sequence(3)
        assert phi3(0.0) == 1.0
        assert phi3(3.0) == 1.0
        assert phi3(-3.0) == 1.0

    def test_zero_beyond_support(self):
        phi3 = sd.make_plateau_sequence(3)
        assert phi3(4.1) == 0.0
        assert phi3(-4.1) == 0.0

    def test_support_strictly_inside(self):
        for k in (1, 4):
            phik = sd.make_plateau_sequence(k)
            assert -(k + 1) < phik.a and phik.b < k + 1

    def test_c2_norm_independent_of_k(self):
        assert sd.make_plateau_sequence(1).c2_norm == sd.make_plateau_sequence(7).c2_norm

    def test_k_validated(self):
        with pytest.raises(ConfigError):
            sd.make_plateau_sequence(0)

