import numpy as np
import pytest

import sdedensity as sd
from sdedensity.errors import DomainError


def unit_map(window):
    s = sd.build_sigma_star(sd.PiecewiseFunction((), (sd.Constant(1.0),)), window)
    return sd.build_lamperti_map(s)


def riemann_integral(f, a, b, tol=1e-9):
    """Refinement oracle: trapezoid sums halved until stable."""
    n = 64
    prev = None
    for _ in range(24):
        xs = np.linspace(a, b, n + 1)
        val = np.trapezoid(f(xs), xs)
        if prev is not None and abs(val - prev) < tol:
            return val
        prev = val
        n *= 2
    raise AssertionError("oracle did not converge")


class TestForward:
    def test_unit_sigma_shift(self, window6):
        m = unit_map(window6)
        for x in (-6.0, -1.0, 0.0, 3.7, 20.0):
            assert m.forward_many(x) == pytest.approx(x + 6.0, abs=1e-12)

    def test_constant_two(self):
        w = sd.LocalWindow(xi=2.0, delta=2.0, delta0=0.5, l_sigma=2.0)
        s = sd.build_sigma_star(sd.PiecewiseFunction((), (sd.Constant(2.0),)), w)
        m = sd.build_lamperti_map(s)
        assert m.forward_many(3.0) == pytest.approx(1.5, abs=1e-14)

    def test_sinusoid_against_refinement_oracle(self, sin_sigma_star):
        m = sd.build_lamperti_map(sin_sigma_star)
        expected = riemann_integral(lambda z: 1.0 / (2.0 + np.sin(z)), -1.0, 1.0)
        assert m.forward_many(1.0) == pytest.approx(expected, abs=1e-8)

    def test_anchor_is_zero(self, sin_sigma_star):
        m = sd.build_lamperti_map(sin_sigma_star)
        assert m.forward_many(sin_sigma_star.window.lo) == 0.0

    def test_strictly_monotone_on_grid(self, sin_sigma_star):
        m = sd.build_lamperti_map(sin_sigma_star)
        xs = np.linspace(-3, 3, 2001)
        assert np.all(np.diff(m.forward_many(xs)) > 0)

    def test_negative_sigma_decreasing(self):
        w = sd.LocalWindow(xi=0.0, delta=1.0, delta0=0.25, l_sigma=1.0)
        s = sd.build_sigma_star(sd.PiecewiseFunction((), (sd.Constant(-2.0),)), w)
        m = sd.build_lamperti_map(s)
        xs = np.linspace(-2, 2, 101)
        assert np.all(np.diff(m.forward_many(xs)) < 0)
        assert not m.increasing

    def test_bilipschitz_sandwich(self, sin_sigma_star, rng):
        m = sd.build_lamperti_map(sin_sigma_star)
        wave = sin_sigma_star.base.pieces[1]  # the fixture's sinusoid, on the window
        sup = wave.offset + abs(wave.amplitude)  # bounds |sigma_cont|, its edge values too
        floor = sin_sigma_star.window.l_sigma
        xs = rng.uniform(-3, 3, 300)
        ys = rng.uniform(-3, 3, 300)
        gap = np.abs(m.forward_many(xs) - m.forward_many(ys))
        dist = np.abs(xs - ys)
        assert np.all(gap >= dist / sup - 1e-12)
        assert np.all(gap <= dist / floor + 1e-12)


class TestInverse:
    def test_unit_sigma(self, window6):
        m = unit_map(window6)
        assert m.inverse_many(2.0) == pytest.approx(-6.0 + 2.0, abs=1e-12)

    def test_round_trip_random_grid(self, sin_sigma_star, rng):
        m = sd.build_lamperti_map(sin_sigma_star)
        xs = rng.uniform(-2.5, 2.5, 500)
        back = m.inverse_many(m.forward_many(xs))
        assert np.max(np.abs(back - xs)) <= 1e-10

    def test_against_bisection_oracle(self, sin_sigma_star):
        m = sd.build_lamperti_map(sin_sigma_star)
        y = 0.37
        lo, hi = -3.0, 3.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if m.forward_many(mid) < y:
                lo = mid
            else:
                hi = mid
        assert m.inverse_many(y) == pytest.approx(0.5 * (lo + hi), abs=1e-9)

    def test_out_of_range_fails_fast(self, sin_sigma_star):
        m = sd.build_lamperti_map(sin_sigma_star)
        with pytest.raises(DomainError, match=r"^y=.* outside the invertible range \["):
            m.inverse_many(m.h_range[1] + 1.0)

    def test_decreasing_round_trip(self):
        w = sd.LocalWindow(xi=0.0, delta=1.0, delta0=0.25, l_sigma=0.5)
        sig = sd.PiecewiseFunction((), (sd.Sinusoid(offset=-2.0, amplitude=1.0),))
        s = sd.build_sigma_star(sig, w)
        m = sd.build_lamperti_map(s)
        xs = np.linspace(-2.0, 2.0, 101)
        np.testing.assert_allclose(m.inverse_many(m.forward_many(xs)), xs, atol=1e-9)


class TestImage:
    def test_unit_sigma(self):
        w = sd.LocalWindow(xi=0.0, delta=1.0, delta0=0.25, l_sigma=1.0)
        m = unit_map(w)
        lo, hi = m.image(w.lo, w.hi)
        assert 0.5 * (lo + hi) == pytest.approx(1.0, abs=1e-12)
        assert 0.5 * (hi - lo) == pytest.approx(1.0, abs=1e-12)

    def test_constant_two(self):
        w = sd.LocalWindow(xi=0.0, delta=2.0, delta0=0.5, l_sigma=2.0)
        s = sd.build_sigma_star(sd.PiecewiseFunction((), (sd.Constant(2.0),)), w)
        lo, hi = sd.build_lamperti_map(s).image(w.lo, w.hi)
        assert 0.5 * (hi - lo) == pytest.approx(1.0, abs=1e-12)

    def test_endpoints_match_forward(self, sin_sigma_star):
        w = sin_sigma_star.window
        m = sd.build_lamperti_map(sin_sigma_star)
        lo, hi = m.image(w.lo, w.hi)
        assert lo == pytest.approx(min(m.forward_many(w.lo), m.forward_many(w.hi)), abs=1e-12)
        assert hi == pytest.approx(max(m.forward_many(w.lo), m.forward_many(w.hi)), abs=1e-12)


class TestTransformedCoefficients:
    # Y = H(X) has drift g(H^{-1}(y)) and diffusion sigma/sigma_cont at H^{-1}(y)

    def test_unit_diffusion_on_image(self, sin_sigma, sin_sigma_star):
        w = sin_sigma_star.window
        m = sd.build_lamperti_map(sin_sigma_star)
        lo, hi = m.image(w.lo, w.hi)
        ys = np.linspace(lo + 1e-9, hi - 1e-9, 201)
        xs = m.inverse_many(ys)
        np.testing.assert_allclose(sin_sigma(xs) / sin_sigma_star(xs), 1.0, atol=1e-8)

    def test_zero_drift_stays_zero(self, window6):
        m = unit_map(window6)
        s = m.sigma_star
        g = sd.drift_functional(sd.PiecewiseFunction((), (sd.Constant(0.0),)), s)
        ys = np.linspace(0.5, 11.5, 7)
        np.testing.assert_allclose(g(m.inverse_many(ys)), 0.0, atol=1e-14)

    def test_constant_coefficients(self):
        w = sd.LocalWindow(xi=0.0, delta=1.0, delta0=0.25, l_sigma=2.0)
        sigma = sd.PiecewiseFunction((), (sd.Constant(2.0),))
        s = sd.build_sigma_star(sigma, w)
        m = sd.build_lamperti_map(s)
        g = sd.drift_functional(sd.PiecewiseFunction((), (sd.Constant(1.0),)), s)
        lo, hi = m.image(w.lo, w.hi)
        xs = m.inverse_many(np.linspace(lo + 1e-9, hi - 1e-9, 11))
        np.testing.assert_allclose(g(xs), 0.5, atol=1e-12)
        np.testing.assert_allclose(sigma(xs) / s(xs), 1.0, atol=1e-12)


class TestPushforwardConsistency:
    def test_change_of_variables(self, sin_sigma_star):
        # integral of f dx  ==  integral of f(H^{-1}(y)) |sigma_cont(H^{-1}(y))| dy
        m = sd.build_lamperti_map(sin_sigma_star)

        def f(x):
            return np.exp(-(x**2))

        a, b = -2.0, 2.0
        lhs = riemann_integral(f, a, b)
        ya, yb = m.forward_many(a), m.forward_many(b)

        def g(y):
            x = m.inverse_many(y)
            return f(x) * np.abs(sin_sigma_star(x))

        rhs = riemann_integral(g, ya, yb)
        assert lhs == pytest.approx(rhs, abs=1e-7)
