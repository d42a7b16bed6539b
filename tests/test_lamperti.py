import numpy as np
import pytest

import sdedensity as sd
from sdedensity.lamperti import _N_KNOTS


def unit_map(window):
    return sd.build_lamperti_map(sd.PiecewiseFunction((), (sd.Constant(1.0),)), window)


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
        m = sd.build_lamperti_map(sd.PiecewiseFunction((), (sd.Constant(2.0),)), w)
        assert m.forward_many(3.0) == pytest.approx(1.5, abs=1e-14)

    def test_sinusoid_against_refinement_oracle(self, sin_sigma, sin_window):
        m = sd.build_lamperti_map(sin_sigma, sin_window)
        expected = riemann_integral(lambda z: 1.0 / (2.0 + np.sin(z)), -1.0, 1.0)
        assert m.forward_many(1.0) == pytest.approx(expected, abs=1e-8)

    def test_anchor_is_zero(self, sin_sigma, sin_window):
        m = sd.build_lamperti_map(sin_sigma, sin_window)
        assert m.forward_many(sin_window.lo) == 0.0

    def test_strictly_monotone_on_grid(self, sin_sigma, sin_window):
        m = sd.build_lamperti_map(sin_sigma, sin_window)
        xs = np.linspace(-3, 3, 2001)
        assert np.all(np.diff(m.forward_many(xs)) > 0)

    def test_negative_sigma_decreasing(self):
        w = sd.LocalWindow(xi=0.0, delta=1.0, delta0=0.25, l_sigma=1.0)
        m = sd.build_lamperti_map(sd.PiecewiseFunction((), (sd.Constant(-2.0),)), w)
        xs = np.linspace(-2, 2, 101)
        assert np.all(np.diff(m.forward_many(xs)) < 0)
        assert not m.increasing

    def test_bilipschitz_sandwich(self, sin_sigma, sin_window, rng):
        m = sd.build_lamperti_map(sin_sigma, sin_window)
        wave = m.sigma_star.pieces[1]  # the fixture's sinusoid, on the window
        sup = wave.offset + abs(wave.amplitude)  # bounds |sigma_cont|, its edge values too
        floor = sin_window.l_sigma
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

    def test_round_trip_random_grid(self, sin_sigma, sin_window, rng):
        m = sd.build_lamperti_map(sin_sigma, sin_window)
        xs = rng.uniform(-2.5, 2.5, 500)
        back = m.inverse_many(m.forward_many(xs))
        assert np.max(np.abs(back - xs)) <= 1e-10

    def test_against_bisection_oracle(self, sin_sigma, sin_window):
        m = sd.build_lamperti_map(sin_sigma, sin_window)
        y = 0.37
        lo, hi = -3.0, 3.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if m.forward_many(mid) < y:
                lo = mid
            else:
                hi = mid
        assert m.inverse_many(y) == pytest.approx(0.5 * (lo + hi), abs=1e-9)

    @pytest.mark.parametrize("sign", [1.0, -1.0], ids=["increasing", "decreasing"])
    def test_round_trip_far_outside_the_window(self, sign):
        # H is a bijection of the line: the closed forms invert it at any x
        w = sd.LocalWindow(xi=0.0, delta=1.0, delta0=0.25, l_sigma=1.0)
        sig = sd.PiecewiseFunction((), (sd.Sinusoid(offset=2.0 * sign, amplitude=1.0),))
        m = sd.build_lamperti_map(sig, w)
        assert m.increasing == (sign > 0)
        xs = np.array([-1000.0, -50.0, 50.0, 1000.0])
        np.testing.assert_allclose(m.inverse_many(m.forward_many(xs)), xs, rtol=1e-13, atol=0)
        for x in xs:
            assert m.inverse_many(m.forward_many(x)) == pytest.approx(x, rel=1e-13, abs=0)

    @pytest.mark.parametrize("xi", [1e6, 4e6])
    @pytest.mark.parametrize("sigma", [sd.Constant(1.0), sd.Sinusoid(offset=2.0, amplitude=1.0)],
                             ids=["unit", "two_plus_sin"])
    def test_round_trip_far_from_the_origin(self, sigma, xi):
        # adjacent floats near 1e6 are 1.2e-10 apart, more than the tolerance in H
        # units allows: the iteration ends on a bracket with no float inside
        w = sd.LocalWindow(xi=xi, delta=6.0, delta0=1.0, l_sigma=1.0)
        m = sd.build_lamperti_map(sd.PiecewiseFunction((), (sigma,)), w)
        xs = np.linspace(w.lo, w.hi, 101)
        np.testing.assert_allclose(m.inverse_many(m.forward_many(xs)), xs, rtol=1e-15, atol=0)

    def test_decreasing_round_trip(self):
        w = sd.LocalWindow(xi=0.0, delta=1.0, delta0=0.25, l_sigma=0.5)
        sig = sd.PiecewiseFunction((), (sd.Sinusoid(offset=-2.0, amplitude=1.0),))
        m = sd.build_lamperti_map(sig, w)
        xs = np.linspace(-2.0, 2.0, 101)
        np.testing.assert_allclose(m.inverse_many(m.forward_many(xs)), xs, atol=1e-9)


class TestKnots:
    """H's knots are the uniform grid, sigma_cont's breakpoints and its kinks(),
    less the uniform knots a few ulps from a breakpoint or kink."""

    @staticmethod
    def assert_knots(m, w):
        s = m.sigma_star
        expect = np.unique(np.concatenate([np.linspace(w.lo, w.hi, _N_KNOTS), s.breakpoints,
                                           s.kinks()]))
        assert m.knots_x.tobytes() == expect.tobytes()

    def test_power_centre_outside_its_interval_adds_no_knot(self):
        # 1.5, then 3|x| on [0.5, inf): the centre 0 lies in the window [-1, 1],
        # off the uniform grid, but not in the power's interval
        sigma = sd.PiecewiseFunction((0.5,), (sd.Constant(1.5), sd.HolderPower(3.0, 0.0, 1.0)))
        w = sd.LocalWindow(xi=0.0, delta=1.0, delta0=0.5, l_sigma=1.0)
        m = sd.build_lamperti_map(sigma, w)
        assert 0.0 not in m.knots_x and 0.5 in m.knots_x
        self.assert_knots(m, w)

    def test_breakpoint_ulps_from_a_uniform_knot_leaves_no_sliver_cell(self):
        # the uniform knot np.linspace(-1, 1, 4096)[2457] is 0.19999999999999996,
        # two ulps below the breakpoint 0.2; the cell between them integrated to
        # 0, and the map was refused as not strictly monotone
        w = sd.LocalWindow(xi=0.0, delta=1.0, delta0=0.25, l_sigma=1.0)
        near = np.linspace(w.lo, w.hi, _N_KNOTS)[2457]
        assert near == 0.2 - 2 * np.spacing(0.2)
        sigma = sd.PiecewiseFunction((0.2,), (sd.Constant(1.0), sd.Polynomial((0.8, 1.0))))
        m = sd.build_lamperti_map(sigma, w)
        assert 0.2 in m.knots_x and near not in m.knots_x
        assert np.all(np.diff(m.knots_h) > 0)
        xs = np.linspace(0.19, 0.21, 20_001)
        assert np.all(np.diff(m.forward_many(xs)) > 0)

    @pytest.mark.parametrize("preset", sorted(sd.PRESETS))
    def test_preset_knots_are_the_plain_union(self, preset):
        # no preset has a breakpoint or kink a few ulps off a uniform knot, so
        # its knots, and H's table on them, are what they were before the rule
        cfg = sd.RunConfig.from_dict(sd.PRESETS[preset])
        self.assert_knots(cfg.transform, cfg.window)

    def test_power_centre_inside_the_window_is_a_zero_of_sigma(self):
        # 3|x - 0.3|: its kink 0.3, off the uniform grid, is also its zero, so
        # no map has a power's kink inside the window
        sigma = sd.PiecewiseFunction((), (sd.HolderPower(3.0, 0.3, 1.0),))
        w = sd.LocalWindow(xi=0.0, delta=1.0, delta0=0.5, l_sigma=1e-6)
        with pytest.raises(sd.ConfigError, match=r"^model\.sigma: inf \|sigma\| on the window "
                                                 r"is 0 < l_sigma=1e-06$"):
            sd.build_lamperti_map(sigma, w)


class TestImage:
    def test_unit_sigma(self):
        w = sd.LocalWindow(xi=0.0, delta=1.0, delta0=0.25, l_sigma=1.0)
        m = unit_map(w)
        lo, hi = m.image(w.lo, w.hi)
        assert 0.5 * (lo + hi) == pytest.approx(1.0, abs=1e-12)
        assert 0.5 * (hi - lo) == pytest.approx(1.0, abs=1e-12)

    def test_constant_two(self):
        w = sd.LocalWindow(xi=0.0, delta=2.0, delta0=0.5, l_sigma=2.0)
        sigma = sd.PiecewiseFunction((), (sd.Constant(2.0),))
        lo, hi = sd.build_lamperti_map(sigma, w).image(w.lo, w.hi)
        assert 0.5 * (hi - lo) == pytest.approx(1.0, abs=1e-12)

    def test_endpoints_match_forward(self, sin_sigma, sin_window):
        w = sin_window
        m = sd.build_lamperti_map(sin_sigma, sin_window)
        lo, hi = m.image(w.lo, w.hi)
        assert lo == pytest.approx(min(m.forward_many(w.lo), m.forward_many(w.hi)), abs=1e-12)
        assert hi == pytest.approx(max(m.forward_many(w.lo), m.forward_many(w.hi)), abs=1e-12)


class TestTransformedCoefficients:
    # Y = H(X) has drift g(H^{-1}(y)) and diffusion sigma/sigma_cont at H^{-1}(y)

    def test_unit_diffusion_on_image(self, sin_sigma, sin_window):
        w = sin_window
        m = sd.build_lamperti_map(sin_sigma, sin_window)
        lo, hi = m.image(w.lo, w.hi)
        ys = np.linspace(lo + 1e-9, hi - 1e-9, 201)
        xs = m.inverse_many(ys)
        np.testing.assert_allclose(sin_sigma(xs) / m.sigma_star(xs), 1.0, atol=1e-8)

    def test_zero_drift_stays_zero(self, window6):
        m = unit_map(window6)
        s = m.sigma_star
        g = sd.DriftFunctional(sd.PiecewiseFunction((), (sd.Constant(0.0),)), s)
        ys = np.linspace(0.5, 11.5, 7)
        np.testing.assert_allclose(g(m.inverse_many(ys)), 0.0, atol=1e-14)

    def test_constant_coefficients(self):
        w = sd.LocalWindow(xi=0.0, delta=1.0, delta0=0.25, l_sigma=2.0)
        sigma = sd.PiecewiseFunction((), (sd.Constant(2.0),))
        m = sd.build_lamperti_map(sigma, w)
        s = m.sigma_star
        g = sd.DriftFunctional(sd.PiecewiseFunction((), (sd.Constant(1.0),)), s)
        lo, hi = m.image(w.lo, w.hi)
        xs = m.inverse_many(np.linspace(lo + 1e-9, hi - 1e-9, 11))
        np.testing.assert_allclose(g(xs), 0.5, atol=1e-12)
        np.testing.assert_allclose(sigma(xs) / s(xs), 1.0, atol=1e-12)


class TestPushforwardConsistency:
    def test_change_of_variables(self, sin_sigma, sin_window):
        # integral of f dx  ==  integral of f(H^{-1}(y)) |sigma_cont(H^{-1}(y))| dy
        m = sd.build_lamperti_map(sin_sigma, sin_window)

        def f(x):
            return np.exp(-(x**2))

        a, b = -2.0, 2.0
        lhs = riemann_integral(f, a, b)
        ya, yb = m.forward_many(a), m.forward_many(b)

        def g(y):
            x = m.inverse_many(y)
            return f(x) * np.abs(m.sigma_star(x))

        rhs = riemann_integral(g, ya, yb)
        assert lhs == pytest.approx(rhs, abs=1e-7)
