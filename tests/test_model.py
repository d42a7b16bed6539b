import math

import numpy as np
import pytest

import sdedensity as sd
from sdedensity.errors import ConfigError
from sdedensity.model import finite_on_window


def pw(breakpoints, pieces):
    return sd.PiecewiseFunction(tuple(breakpoints), tuple(pieces))


class TestPiecewiseEval:
    def test_affine_piece(self):
        f = pw([], [sd.Affine(intercept=1.0, slope=2.0)])
        assert f(3.0) == 7.0

    def test_constant_anywhere(self):
        f = pw([], [sd.Constant(5.0)])
        for x in (-1e6, 0.0, 3.7):
            assert f(x) == 5.0

    def test_power_at_root(self):
        f = pw([], [sd.HolderPower(scale=1.0, center=1.0, exponent=0.5)])
        assert f(1.0) == 0.0

    def test_right_continuous_at_breakpoint(self):
        f = pw([0.0], [sd.Constant(-1.0), sd.Constant(1.0)])
        assert f(0.0) == 1.0
        assert f(-1e-12) == -1.0
        assert f(np.nextafter(0.0, -np.inf)) == -1.0

    def test_vectorized_matches_scalar(self):
        f = pw([-1.0, 2.0], [sd.Constant(3.0), sd.Affine(0.0, 1.0), sd.Sinusoid(0.0, 1.0)])
        xs = np.linspace(-3, 4, 57)
        vec = f(xs)
        assert vec == pytest.approx([f(float(x)) for x in xs])

    def test_breakpoints_must_increase(self):
        with pytest.raises(ConfigError):
            pw([1.0, 1.0], [sd.Constant(0.0)] * 3)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_breakpoint_rejected(self, bad):
        # a NaN passes the b2 <= b1 test, and would send every point to one piece
        with pytest.raises(ConfigError, match="breakpoints must be finite"):
            pw([bad], [sd.Constant(1.0), sd.Constant(-1.0)])

    def test_empty_polynomial_rejected(self):
        with pytest.raises(ConfigError, match="at least one coefficient"):
            pw([], [sd.Polynomial(())])

    def test_piece_count_checked(self):
        with pytest.raises(ConfigError):
            pw([0.0], [sd.Constant(0.0)])

    def test_polynomial_eval_and_derivative(self):
        f = pw([], [sd.Polynomial(coeffs=(1.0, 0.0, 1.0))])  # 1 + x^2
        assert f(2.0) == 5.0
        assert f.derivative(2.0) == 4.0


class TestLipschitzOn:
    """lipschitz_on is a predicate: no jump at a breakpoint in (a, b], and no
    power of exponent below 1 centred on the closed segment."""

    def test_polynomial_sup_at_a_critical_point(self):
        # sigma = 2 + x - x^3/3: |sigma'| = |1 - x^2| peaks inside [-1, 1], at the
        # critical point 0; a polynomial's derivative is bounded on any segment
        f = pw([], [sd.Polynomial(coeffs=(2.0, 1.0, 0.0, -1.0 / 3.0))])
        assert f.lipschitz_on(-1.0, 1.0) is True

    def test_power_of_exponent_at_least_one(self):
        # |x + 1| and |x + 1|^2 have bounded derivatives, the center included
        for exponent in (1.0, 2.0):
            f = pw([], [sd.HolderPower(scale=1.0, center=-1.0, exponent=exponent)])
            assert f.lipschitz_on(-2.0, 2.0) is True

    @pytest.mark.parametrize("center, lipschitz", [
        (0.0, False), (0.5, False), (1.0, False), (-1e-3, True), (1.0 + 1e-3, True)],
        ids=["at_a", "inside", "at_b", "left_of_a", "right_of_b"])
    def test_power_of_exponent_below_one(self, center, lipschitz):
        f = pw([], [sd.HolderPower(scale=1.0, center=center, exponent=0.5)])
        assert f.lipschitz_on(0.0, 1.0) is lipschitz

    @pytest.mark.parametrize("breakpoint, lipschitz", [
        (0.5, False), (1.0, False), (0.0, True), (1.5, True)],
        ids=["inside", "at_b", "at_a", "outside"])
    def test_jump_at_a_breakpoint(self, breakpoint, lipschitz):
        # the right piece applies at a breakpoint, so a jump at a leaves [a, b] constant
        f = pw([breakpoint], [sd.Constant(1.0), sd.Constant(2.0)])
        assert f.lipschitz_on(0.0, 1.0) is lipschitz

    def test_continuous_kink_is_lipschitz(self):
        f = pw([0.5], [sd.Affine(0.0, 1.0), sd.Affine(1.0, -1.0)])
        assert f.lipschitz_on(0.0, 1.0) is True


class TestPiecewiseFromDict:
    def test_breakpoint_form(self):
        f = sd.piecewise_from_dict({
            "breakpoints": [0.0],
            "pieces": [{"kind": "constant", "value": -1.0},
                       {"kind": "constant", "value": 1.0}],
        })
        assert f(-1.0) == -1.0 and f(1.0) == 1.0

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            sd.piecewise_from_dict({"breakpoints": [], "pieces": [{"kind": "spline"}]})

    @pytest.mark.parametrize("spec", [{"breakpoints": [], "pieces": []},
                                      {"breakpoints": [0.0], "pieces": []}])
    def test_empty_interval_form_rejected(self, spec):
        n = len(spec["breakpoints"])
        with pytest.raises(ConfigError, match=f"^need {n + 1} pieces for {n} breakpoints, got 0$"):
            sd.piecewise_from_dict(spec)

    def test_non_numeric_field_rejected(self):
        with pytest.raises(ConfigError, match="constant piece: value: expected a finite number, got 'x'"):
            sd.piecewise_from_dict({"breakpoints": [], "pieces": [{"kind": "constant",
                                                                   "value": "x"}]})

    def test_scalar_coeffs_rejected(self):
        with pytest.raises(ConfigError, match="polynomial piece: coeffs: expected a list"):
            sd.piecewise_from_dict({"breakpoints": [], "pieces": [{"kind": "polynomial",
                                                                   "coeffs": 5}]})

    def test_non_object_interval_entry_rejected(self):
        with pytest.raises(ConfigError, match=r"^pieces\[0\]: expected an object, got 1$"):
            sd.piecewise_from_dict({"breakpoints": [], "pieces": [1]})

    def test_unknown_piece_field_rejected(self):
        spec = {"kind": "sinusoid", "offset": 2.0, "amplitude": 1.0, "frequncy": 3.0}
        with pytest.raises(ConfigError,
                           match=r"sinusoid piece: unknown field\(s\) \['frequncy'\]"):
            sd.piecewise_from_dict({"breakpoints": [], "pieces": [spec]})


def _owner_reference(f, xs, method):
    """Per-piece evaluation: each point by the piece that owns it."""
    idx = np.searchsorted(np.asarray(f.breakpoints), xs, side="right")
    out = np.empty_like(xs)
    for i, piece in enumerate(f.pieces):
        mask = idx == i
        if np.any(mask):
            out[mask] = getattr(piece, method)(xs[mask])
    return out


def _probe_points(f, rng):
    pts = [rng.uniform(-8.0, 8.0, 2000)]
    for bp in f.breakpoints:
        pts.append([bp, np.nextafter(bp, -np.inf), np.nextafter(bp, np.inf)])
    return np.concatenate(pts)


def _preset_functions():
    from sdedensity.config import preset

    out = []
    for name in ("gaussian", "ou", "gbm", "sign_drift"):
        cfg = preset(name)
        model = cfg.model
        out += [pytest.param(model.mu, id=f"{name}.mu"),
                pytest.param(model.sigma, id=f"{name}.sigma"),
                pytest.param(sd.build_sigma_star(model.sigma, cfg.window),
                             id=f"{name}.sigma_star")]
    out.append(pytest.param(pw([-2.0, -0.5, 0.0, 1.0, 2.5], [
        sd.Constant(1.5),
        sd.Affine(intercept=0.3, slope=-1.7),
        sd.Polynomial(coeffs=(0.1, -0.4, 2.2, 0.9)),
        sd.Sinusoid(offset=1.0, amplitude=0.5, frequency=3.0, phase=0.2),
        sd.HolderPower(scale=2.0, center=1.7, exponent=0.5),
        sd.Polynomial(coeffs=(1.0, 0.5)),
    ]), id="mixed"))
    # no breakpoints: the fix-up alone replaces the (zero) Horner values
    out.append(pytest.param(pw([], [sd.Sinusoid(offset=2.0, amplitude=1.0,
                                                 frequency=1.0, phase=0.0)]),
                            id="lone_sinusoid"))
    out.append(pytest.param(pw([], [sd.HolderPower(scale=1.0, center=0.3, exponent=0.5)]),
                            id="lone_power"))
    return out


class TestCompiledEvaluation:
    """The compiled Horner-gather path must equal the per-piece path bitwise."""

    @pytest.mark.parametrize("f", _preset_functions())
    @pytest.mark.parametrize("method", ["__call__", "derivative"])
    def test_bitwise_equal_to_owning_piece(self, f, method, rng):
        xs = _probe_points(f, rng)
        got = getattr(f, method)(xs)
        assert np.array_equal(got, _owner_reference(f, xs, method))
        # scalars and 2-d slabs go through the same kernel
        assert getattr(f, method)(float(xs[0])) == got[0]
        assert np.array_equal(getattr(f, method)(xs[:1000].reshape(20, 50)),
                              got[:1000].reshape(20, 50))


def _models_with_windows():
    from sdedensity.config import PRESETS, preset

    out = [pytest.param(preset(name).model, preset(name).window, id=name)
           for name in sorted(PRESETS)]
    out.append(pytest.param(sd.CoefficientModel(
        mu=pw([-0.5, 0.0, 0.7], [sd.Constant(1.0), sd.Sinusoid(0.2, 0.5, 3.0, 0.1),
                                 sd.HolderPower(-0.8, 0.0, 0.5),
                                 sd.Polynomial((0.3, -1.0, 0.5))]),
        sigma=pw([0.0], [sd.Sinusoid(2.0, 0.5), sd.HolderPower(1.0, -4.0, 0.5)]),
    ), sd.LocalWindow(xi=0.0, delta=1.0, delta0=0.5, l_sigma=1.0), id="sinusoid_power"))
    return out


class TestCompiledStepAndDrift:
    """The compiled Euler step and g have the bits of the expressions they compile."""

    H = 2.0**-10

    @staticmethod
    def points(g, rng):
        """Every breakpoint and kink of mu, sigma and sigma_cont, their neighbours,
        +-0, +-inf, NaN and random points."""
        pts = np.array(sorted({*g.mu.breakpoints, *g.sigma_star.breakpoints,
                               *g.sigma_star.kinks()}))
        return np.concatenate([pts, np.nextafter(pts, -np.inf), np.nextafter(pts, np.inf),
                               [0.0, -0.0, np.inf, -np.inf, np.nan],
                               rng.uniform(-6.0, 6.0, 500)])

    @staticmethod
    def assert_same_bits(got, expect):
        nan = np.isnan(expect)
        assert np.array_equal(np.isnan(got), nan)
        assert got[~nan].tobytes() == expect[~nan].tobytes()

    @pytest.mark.parametrize("model, window", _models_with_windows())
    def test_step(self, model, window, rng):
        g = sd.DriftFunctional(model.mu, sd.build_sigma_star(model.sigma, window))
        xs = self.points(g, rng)
        assert set(model.mu.breakpoints) | set(model.sigma.breakpoints) <= set(xs)
        dw = math.sqrt(self.H) * rng.standard_normal(xs.size)
        with np.errstate(all="ignore"):
            expect = xs + model.mu(xs) * self.H + model.sigma(xs) * dw
            got = xs.copy()
            model.euler_step(self.H)(got, dw.copy())
        self.assert_same_bits(got, expect)

    @pytest.mark.parametrize("model, window", _models_with_windows())
    def test_drift_functional(self, model, window, rng):
        s = sd.build_sigma_star(model.sigma, window)
        g = sd.DriftFunctional(model.mu, s)
        xs = self.points(g, rng)
        with np.errstate(all="ignore"):
            expect = model.mu(xs) / s(xs) - 0.5 * sd.WeakDerivative(s)(xs)
            got = g(xs)
            scalars = np.array([g(float(x)) for x in xs])
        self.assert_same_bits(got, expect)
        self.assert_same_bits(scalars, expect)


class TestSigmaStar:
    def test_sinusoid_continuation(self, sin_sigma):
        w = sd.LocalWindow(xi=0.0, delta=1.0, delta0=0.25, l_sigma=1.0)
        s = sd.build_sigma_star(sin_sigma, w)
        assert s(-5.0) == pytest.approx(2.0 + math.sin(-1.0), abs=1e-15)
        assert s(10.0) == pytest.approx(2.0 + math.sin(1.0), abs=1e-15)
        xs = np.linspace(-1.0, 1.0, 1001)
        np.testing.assert_array_equal(s(xs), sin_sigma(xs))

    def test_unit_sigma(self, window6):
        s = sd.build_sigma_star(pw([], [sd.Constant(1.0)]), window6)
        xs = np.linspace(-50, 50, 101)
        assert np.all(s(xs) == 1.0)

    def test_one_plus_abs(self):
        sigma = pw([0.0], [sd.Affine(1.0, -1.0), sd.Affine(1.0, 1.0)])  # 1 + |x|
        w = sd.LocalWindow(xi=0.0, delta=1.0, delta0=0.5, l_sigma=1.0)
        s = sd.build_sigma_star(sigma, w)
        assert s(10.0) == 2.0
        assert s(-10.0) == 2.0
        assert s.lipschitz_on(-10.0, 10.0) is True

    def test_floor_everywhere(self, sin_sigma_star, sin_window):
        xs = np.linspace(-20, 20, 4001)
        assert np.min(np.abs(sin_sigma_star(xs))) >= sin_window.l_sigma

    def test_lipschitz_pairs(self, sin_sigma_star, rng):
        xs = rng.uniform(-5, 5, size=400)
        ys = rng.uniform(-5, 5, size=400)
        lhs = np.abs(sin_sigma_star(xs) - sin_sigma_star(ys))
        assert np.all(lhs <= 1.0 * np.abs(xs - ys) + 1e-12)  # |(2 + sin)'| <= 1

    def test_ellipticity_violation_rejected(self):
        sigma = pw([], [sd.Affine(0.0, 1.0)])  # vanishes at 0
        w = sd.LocalWindow(xi=0.0, delta=1.0, delta0=0.5, l_sigma=0.1)
        with pytest.raises(ConfigError, match=r"^model\.sigma: inf \|sigma\| on the window "
                                              r"is 0 < l_sigma=0\.1$"):
            sd.build_sigma_star(sigma, w)

    @pytest.mark.parametrize("piece, l_sigma, floor", [
        # 0.25 x on [-7, 11]: no grid point of the window lands on the root 0
        (sd.Affine(0.0, 0.25), 0.25, "0"),
        # (x - 0.3)^2 + 1e-8: complex roots whose real part 0.3 is off the grid
        (sd.Polynomial((0.09 + 1e-8, -0.6, 1.0)), 1e-7, "1e-08"),
        # 2 |x - 0.3|^1.5, zero at its centre
        (sd.HolderPower(2.0, 0.3, 1.5), 0.1, "0"),
    ])
    def test_floor_is_read_at_each_zero_between_grid_points(self, piece, l_sigma, floor):
        w = sd.LocalWindow(xi=2.0, delta=9.0, delta0=1.0, l_sigma=l_sigma)
        with pytest.raises(ConfigError, match=rf"^model\.sigma: inf \|sigma\| on the window "
                                              rf"is {floor} < l_sigma={l_sigma}$"):
            sd.build_sigma_star(pw([], [piece]), w)

    def test_zeros_outside_a_piece_segment_are_not_read(self):
        # 1.5, then 7.5 (x - 0.3) on [0.5, inf): its root 0.3 is in the window
        # [0.2, 1.2] but in the constant's segment
        sigma = pw([0.5], [sd.Constant(1.5), sd.Affine(-2.25, 7.5)])
        sd.build_sigma_star(sigma, sd.LocalWindow(xi=0.7, delta=0.5, delta0=0.25, l_sigma=1.5))

    # 0.3 + 0.6 sin(2x + 0.5), period pi: zero at -0.5118 + k pi and 1.5826 + k pi
    WAVE = sd.Sinusoid(0.3, 0.6, 2.0, 0.5)

    @pytest.mark.parametrize("a, b, expected", [
        (0.0, 1.0, ()), (1.5, 2.0, (1.5826,)), (1.5, 2.7, (1.5826, 2.6298))])
    def test_sinusoid_zeros_on_a_segment_shorter_than_a_period(self, a, b, expected):
        zeros = sorted(self.WAVE.zeros(a, b))
        assert zeros == pytest.approx(expected, abs=1e-4)
        assert all(abs(self.WAVE(z)) < 1e-15 for z in zeros)

    @pytest.mark.parametrize("frequency", [2.0, -2.0])
    def test_sinusoid_zeros_on_a_segment_longer_than_a_period(self, frequency):
        # one period from a: |piece| is the same at every translate
        wave = sd.Sinusoid(0.3, 0.6, frequency, 0.5)
        zeros = wave.zeros(-10.0, 10.0)
        assert len(zeros) == 2 and all(-10.0 <= z < -10.0 + math.pi for z in zeros)
        assert all(abs(wave(z)) < 1e-14 for z in zeros)

    @pytest.mark.parametrize("piece", [sd.Sinusoid(2.0, 1.0), sd.Sinusoid(-0.5, 0.0),
                                       sd.Sinusoid(0.0, 1.0, 0.0, 0.3)],
                             ids=["offset beyond amplitude", "amplitude 0", "frequency 0"])
    def test_sinusoid_without_zeros(self, piece):
        assert piece.zeros(-10.0, 10.0) == ()

    def test_polynomial_roots_past_the_float_range_are_skipped(self):
        # the companion matrix of 1e300 + 1e-300 x^2 overflows; the grid check stands
        piece = sd.Polynomial((1e300, 0.0, 1e-300))
        with np.errstate(all="ignore"):
            assert piece.zeros(-1.0, 1.0) == ()
        sd.build_sigma_star(pw([], [piece]), sd.LocalWindow(xi=0.0, delta=1.0, delta0=0.5,
                                                            l_sigma=1.0))

    def test_non_lipschitz_sigma_rejected(self):
        sigma = pw([], [sd.HolderPower(scale=1.0, center=0.0, exponent=0.5)])
        w = sd.LocalWindow(xi=5.0, delta=1.0, delta0=0.5, l_sigma=0.5)
        # window [4, 6] avoids the cusp, so this one is fine
        sd.build_sigma_star(sigma, w)
        w_bad = sd.LocalWindow(xi=0.5, delta=1.0, delta0=0.5, l_sigma=1e-6)
        with pytest.raises(ConfigError, match=r"^model\.sigma: not Lipschitz on the window$"):
            sd.build_sigma_star(sigma, w_bad)


class TestPieceBookkeeping:
    """build_sigma_star and kinks() read pieces by index; these pin the edge cases."""

    # 0.5 (a jump at -1), then 2 + x on [-1, 0.5), 2.25 + x^2 on [0.5, 2), 6.25
    SIGMA = pw([-1.0, 0.5, 2.0], [sd.Constant(0.5), sd.Affine(2.0, 1.0),
                                  sd.Polynomial((2.25, 0.0, 1.0)), sd.Constant(6.25)])

    @pytest.mark.parametrize("xi, breakpoints, left, right", [
        (0.0, (-1.0, 0.5, 1.0), 1.0, 3.25),      # w.lo on a breakpoint: the right piece
        (1.0, (0.0, 0.5, 2.0), 2.0, 6.25),       # w.hi on a breakpoint: the left piece
        (0.25, (-0.75, 0.5, 1.25), 1.25, 3.8125),  # both strictly between
    ], ids=["lo_on_breakpoint", "hi_on_breakpoint", "both_between"])
    def test_sigma_star_edges(self, xi, breakpoints, left, right):
        w = sd.LocalWindow(xi=xi, delta=1.0, delta0=0.5, l_sigma=1.0)
        s = sd.build_sigma_star(self.SIGMA, w)
        _, affine, quadratic, _ = self.SIGMA.pieces
        assert s.breakpoints == breakpoints
        assert s.pieces == (sd.Constant(left), affine, quadratic, sd.Constant(right))
        # H holds the end values: exact here, so == compares bits
        m = sd.build_lamperti_map(self.SIGMA, w)
        assert (m.left_value, m.right_value) == (left, right)

    @pytest.mark.parametrize("f, kinks", [
        # 1 + x, then 1 + x + x^2: both derivatives are 1 at 0
        (pw([0.0], [sd.Affine(1.0, 1.0), sd.Polynomial((1.0, 1.0, 1.0))]), ()),
        # 1 + |x|: derivatives -1 and 1 at 0
        (pw([0.0], [sd.Affine(1.0, -1.0), sd.Affine(1.0, 1.0)]), (0.0,)),
        # |x| on [-1, 1), its centre inside its interval; 1 outside
        (pw([-1.0, 1.0], [sd.Constant(1.0), sd.HolderPower(1.0, 0.0, 1.0), sd.Constant(1.0)]),
         (-1.0, 0.0, 1.0)),
    ], ids=["equal_sides", "unequal_sides", "centre_inside_its_interval"])
    def test_kinks(self, f, kinks):
        assert f.kinks() == kinks

    def test_power_centre_outside_its_interval_is_no_kink(self):
        # 1.5, then 3|x| on [0.5, inf): the centre 0 lies in the window [-1, 1]
        # but not in the power's interval, so only the breakpoint 0.5 and the
        # window edge 1 (derivatives 3 and 0) are kinks of sigma_cont
        sigma = pw([0.5], [sd.Constant(1.5), sd.HolderPower(3.0, 0.0, 1.0)])
        w = sd.LocalWindow(xi=0.0, delta=1.0, delta0=0.5, l_sigma=1.0)
        assert sd.build_sigma_star(sigma, w).kinks() == (0.5, 1.0)


class TestWeakDerivative:
    def test_constant_is_zero(self, window6):
        s = sd.build_sigma_star(pw([], [sd.Constant(3.0)]), window6)
        d = sd.WeakDerivative(s)
        xs = np.linspace(-10, 10, 101)
        assert np.all(d(xs) == 0.0)

    def test_abs_kink(self):
        sigma = pw([0.0], [sd.Affine(1.0, -1.0), sd.Affine(1.0, 1.0)])  # 1 + |x|
        w = sd.LocalWindow(xi=0.0, delta=1.0, delta0=0.5, l_sigma=1.0)
        d = sd.WeakDerivative(sd.build_sigma_star(sigma, w))
        assert d(0.0) == 0.0
        assert d(0.5) == 1.0
        assert d(-0.5) == -1.0
        # kinks of the continuation at the window edges
        assert 1.0 in d.nondifferentiable_points
        assert -1.0 in d.nondifferentiable_points

    def test_classical_derivative_inside(self, sin_sigma_star):
        d = sd.WeakDerivative(sin_sigma_star)
        assert d(0.3) == pytest.approx(math.cos(0.3), abs=1e-12)

    def test_smooth_boundary_not_flagged(self):
        # sigma = 2 + sin(x) has derivative cos(1) != 0 at the edge: flagged;
        # a constant sigma continues smoothly: no points at all
        w = sd.LocalWindow(xi=0.0, delta=1.0, delta0=0.5, l_sigma=1.0)
        s = sd.build_sigma_star(pw([], [sd.Constant(2.0)]), w)
        assert sd.WeakDerivative(s).nondifferentiable_points == ()


class TestDriftFunctional:
    def test_zero_drift(self, window6):
        s = sd.build_sigma_star(pw([], [sd.Constant(1.0)]), window6)
        g = sd.DriftFunctional(pw([], [sd.Constant(0.0)]), s)
        xs = np.linspace(-6, 6, 101)
        assert np.all(g(xs) == 0.0)

    def test_constant_drift(self, window6):
        s = sd.build_sigma_star(pw([], [sd.Constant(1.0)]), window6)
        g = sd.DriftFunctional(pw([], [sd.Constant(2.5)]), s)
        assert g(0.3) == 2.5

    def test_sign_drift_over_two(self, window6):
        mu = pw([0.0], [sd.Constant(-1.0), sd.Constant(1.0)])
        s = sd.build_sigma_star(pw([], [sd.Constant(2.0)]), window6)
        g = sd.DriftFunctional(mu, s)
        assert g(1.0) == 0.5
        assert g(-1.0) == -0.5

    def test_matches_pointwise_formula(self, sin_sigma_star, rng):
        mu = pw([], [sd.Sinusoid(offset=0.5, amplitude=0.3, frequency=2.0)])
        d = sd.WeakDerivative(sin_sigma_star)
        g = sd.DriftFunctional(mu, sin_sigma_star)
        xs = rng.uniform(-1, 1, size=300)
        expect = mu(xs) / sin_sigma_star(xs) - 0.5 * d(xs)
        np.testing.assert_allclose(g(xs), expect, rtol=0, atol=0)

    def test_union_lookup_bitwise_at_every_breakpoint(self, rng):
        # mu's end pieces are constants, so a point sent to the wrong end piece
        # (NaN sorts past every breakpoint) changes the value
        mu = pw([-0.5, 0.0, 0.7], [sd.Constant(1.0), sd.Sinusoid(0.2, 0.5, 3.0, 0.1),
                                   sd.HolderPower(-0.8, 0.0, 0.5), sd.Constant(-2.0)])
        sigma = pw([0.0], [sd.Sinusoid(2.0, 0.5),
                           sd.HolderPower(1.0, -4.0, 0.5)])  # continuous kink at 0
        s = sd.build_sigma_star(sigma, sd.LocalWindow(xi=0.0, delta=1.0, delta0=0.5,
                                                      l_sigma=1.0))
        d = sd.WeakDerivative(s)
        g = sd.DriftFunctional(mu, s)
        bps = np.array(sorted({*mu.breakpoints, *s.breakpoints}))
        assert set(bps) == {-1.0, -0.5, 0.0, 0.7, 1.0}
        xs = np.concatenate([bps, np.nextafter(bps, -np.inf), np.nextafter(bps, np.inf),
                             [-np.inf, np.inf, np.nan], rng.uniform(-3, 3, 200)])
        with np.errstate(invalid="ignore"):
            expect = mu(xs) / s(xs) - 0.5 * d(xs)
            got = g(xs)
        assert got.tobytes() == expect.tobytes()
        assert np.isfinite(got[-201]) and got[-201] == -2.0 / s(1.0)  # the right end value
        assert g(float(xs[3])) == got[3]
        assert g(xs[-200:].reshape(10, 20)).tobytes() == expect[-200:].tobytes()


class TestWindowValidation:
    def test_window_shape_invariants(self):
        with pytest.raises(ConfigError, match=r"^need 0 < delta0 < delta$"):
            sd.LocalWindow(xi=0.0, delta=1.0, delta0=1.5, l_sigma=1.0)
        with pytest.raises(ConfigError, match=r"^ellipticity floor must be positive$"):
            sd.LocalWindow(xi=0.0, delta=1.0, delta0=0.5, l_sigma=0.0)

    def test_validate_window_passes(self, bm_model, window6):
        sd.build_sigma_star(bm_model.sigma, window6)
        finite_on_window(bm_model.mu, window6, "mu")

    def test_unbounded_mu_rejected(self, window6):
        bad = sd.CoefficientModel(
            mu=pw([], [sd.HolderPower(scale=1.0, center=0.0, exponent=0.5)]),
            sigma=pw([], [sd.Constant(1.0)]),
        )
        # |x|^0.5 is bounded on the window: fine
        sd.build_sigma_star(bad.sigma, window6)
        finite_on_window(bad.mu, window6, "mu")
        worse = sd.CoefficientModel(
            mu=pw([], [sd.Polynomial(coeffs=(0.0, 1.0))]),
            sigma=pw([], [sd.Affine(0.0, 1.0)]),
        )
        with pytest.raises(ConfigError, match=r"^model\.sigma: inf \|sigma\| on the window "
                                              r"is 0 < l_sigma=1\.0$"):
            sd.build_sigma_star(worse.sigma, window6)  # sigma hits 0 in the window
