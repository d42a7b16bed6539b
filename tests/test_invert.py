import copy
import importlib
import math

import numpy as np
import pytest
from scipy import integrate

import sdedensity as sd
from sdedensity.errors import ConfigError, DomainError

from helpers import cf_from_function

# the module, which the package's ``invert`` function shadows
invert_module = importlib.import_module("sdedensity.invert")


def analytic_cf(fn, y_max, spacing):
    return cf_from_function(fn, sd.FrequencyGrid.uniform(y_max, spacing))


class TestInversion:
    def test_gaussian_pair_peak(self):
        cf = analytic_cf(lambda y: math.exp(-y * y / 2), 16.0, 1.0 / 16.0)
        p = sd.invert(cf, np.array([0.0]))
        assert p.values[0] == pytest.approx(1.0 / math.sqrt(2 * math.pi), abs=1e-6)

    def test_gaussian_pair_sup_error(self):
        cf = analytic_cf(lambda y: math.exp(-y * y / 2), 32.0, 1.0 / 32.0)
        xs = np.linspace(-6, 6, 801)
        p = sd.invert(cf, xs)
        target = np.exp(-xs**2 / 2) / math.sqrt(2 * math.pi)
        assert np.max(np.abs(p.values - target)) <= 1e-5

    def test_linearity(self):
        f1 = lambda y: math.exp(-y * y / 2)
        f2 = lambda y: math.exp(-y * y / 8)
        a, b = 0.7, -0.2
        xs = np.linspace(-4, 4, 101)
        p1 = sd.invert(analytic_cf(f1, 16.0, 1 / 16), xs)
        p2 = sd.invert(analytic_cf(f2, 16.0, 1 / 16), xs)
        combo = sd.invert(analytic_cf(lambda y: a * f1(y) + b * f2(y), 16.0, 1 / 16), xs)
        np.testing.assert_allclose(combo.values, a * p1.values + b * p2.values, atol=1e-12)

    def test_degenerate_cf_gives_kernel_spike(self):
        xbar = 0.8
        cf = analytic_cf(lambda y: np.exp(1j * y * xbar), 16.0, 1 / 16)
        xs = np.linspace(-3, 3, 601)
        p = sd.invert(cf, xs)
        assert abs(xs[np.argmax(p.values)] - xbar) < 0.02

    def test_nyquist_guard(self):
        cf = analytic_cf(lambda y: math.exp(-y * y / 2), 16.0, 1.0)
        with pytest.raises(ConfigError):
            sd.invert(cf, np.linspace(-10, 10, 100))
        # the limit pi/spacing itself is rejected, and a grid just inside it inverts
        with pytest.raises(ConfigError, match="^the inversion grid spans 3.142, not below the "
                                              "aliasing limit pi/spacing = 3.142$"):
            sd.invert(cf, np.linspace(0.0, math.pi, 5))
        sd.invert(cf, np.linspace(0.0, math.nextafter(math.pi, 0.0), 5))

    def test_asymmetric_cf_rejected(self):
        grid = sd.FrequencyGrid.uniform(4.0, 0.25)
        vals = np.exp(-grid.values**2 / 2).astype(complex)
        vals += 1j * np.exp(-((grid.values - 1) ** 2))  # breaks Hermitian symmetry
        with pytest.raises(ConfigError, match="^the CF at frequency -4 is not the mirror of "
                                              "the one at 4: a CF of a real law is Hermitian$"):
            sd.CharFnEstimate(grid=grid, values=vals,
                              std_errors=np.zeros(grid.values.size), n_paths=0, t=0.0)

    def test_reads_only_the_non_negative_half(self):
        cf = analytic_cf(lambda y: np.exp(0.3j * y - y * y / 2), 16.0, 1 / 16)
        xs = np.linspace(-4, 4, 101)
        ref = sd.invert(cf, xs)
        cf.values[:cf.grid.half_count] = 7.0 - 3.0j  # past the constructor's check
        assert sd.invert(cf, xs).values.tobytes() == ref.values.tobytes()

    @pytest.mark.parametrize("preset", sorted(sd.PRESETS))
    def test_half_sum_is_the_real_part_of_the_full_sum(self, preset):
        raw = copy.deepcopy(sd.PRESETS[preset])
        raw["simulation"]["n_paths"] = 20_000
        pipe = sd.Pipeline(sd.RunConfig.from_dict(raw))
        pipe.reads([pipe.cfg.simulation.t_final])
        cf = pipe.cf_at(pipe.cfg.simulation.t_final)
        xs = pipe.cfg.x_grid
        got = sd.invert(cf, xs).values
        # the trapezoid rule over all 2M + 1 frequencies, as complex numbers
        wts = np.ones(cf.grid.values.size)
        wts[0] = wts[-1] = 0.5
        full = (np.exp(-1j * np.outer(xs, cf.grid.values)) * (wts * cf.values)).sum(axis=1)
        want = full.real * cf.grid.spacing / (2.0 * math.pi)
        assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))

    @pytest.mark.parametrize("block", [1, 7, 64, 256])
    def test_bytes_do_not_depend_on_the_row_block(self, monkeypatch, block):
        cf = analytic_cf(lambda y: np.exp(0.3j * y - y * y / 2), 16.0, 1 / 16)
        xs = np.linspace(-4, 4, 301)  # 301 rows: a partial last block for each size
        ref = sd.invert(cf, xs)
        monkeypatch.setattr(invert_module, "_INVERT_BLOCK", block)
        got = sd.invert(cf, xs)
        assert got.values.tobytes() == ref.values.tobytes()

    def test_mass_matches_zero_frequency(self, bm_ensemble, window6):
        lam = sd.build_lamperti_map(sd.PiecewiseFunction((), (sd.Constant(1.0),)), window6)
        phi = sd.make_bump(window6, 0.2)
        grid = sd.FrequencyGrid.uniform(16.0, 1 / 16)
        cf = sd.estimate_localized(bm_ensemble, phi, lam, grid, 0.25)
        xs = np.linspace(0.2, 11.8, 801)
        p = sd.invert(cf, xs)
        assert p.mass() == pytest.approx(cf.values[grid.half_count].real, abs=1e-3)


class TestPushforward:
    def test_unit_sigma_is_shift(self, window6):
        lam = sd.build_lamperti_map(sd.PiecewiseFunction((), (sd.Constant(1.0),)), window6)
        cf = analytic_cf(lambda y: math.exp(-y * y / 2) * np.exp(1j * y * 6.0), 16.0, 1 / 16)
        xs_l = np.linspace(1.0, 11.0, 201)
        p = sd.invert(cf, xs_l)
        q = sd.pushforward(p, lam)
        np.testing.assert_allclose(q.x_grid, xs_l - 6.0, atol=1e-9)
        np.testing.assert_allclose(q.values, p.values, atol=1e-12)

    def test_constant_two_rescales(self):
        w = sd.LocalWindow(xi=0.0, delta=2.0, delta0=0.5, l_sigma=2.0)
        lam = sd.build_lamperti_map(sd.PiecewiseFunction((), (sd.Constant(2.0),)), w)
        cf = analytic_cf(lambda y: math.exp(-(y**2)), 16.0, 1 / 16)
        xs_l = np.linspace(-0.9, 0.9, 101)
        p = sd.invert(cf, xs_l)
        q = sd.pushforward(p, lam)
        np.testing.assert_allclose(q.values, p.values / 2.0, atol=1e-12)
        np.testing.assert_allclose(lam.forward_many(q.x_grid), xs_l, atol=1e-10)

    def test_mass_conserved_under_nonlinear_map(self, sin_sigma, sin_window):
        lam = sd.build_lamperti_map(sin_sigma, sin_window)
        # a density living inside the image window
        lo, hi = lam.image(sin_window.lo, sin_window.hi)
        center, width = 0.5 * (lo + hi), 0.25 * 0.5 * (hi - lo)
        cf = analytic_cf(
            lambda y: np.exp(1j * y * center - (width * y) ** 2 / 2), 64.0, 1 / 16)
        xs_l = np.linspace(lo, hi, 501)
        p = sd.invert(cf, xs_l)
        q = sd.pushforward(p, lam)
        assert q.mass() == pytest.approx(p.mass(), abs=1e-6)

    def test_decreasing_map_mirrors_the_increasing_one(self):
        # with the same noise, sigma = -1 gives the paths -X of sigma = +1 and a
        # decreasing H, so its density is the mirror image, on an ascending grid
        q = {}
        for sigma in (-1.0, 1.0):
            raw = copy.deepcopy(sd.PRESETS["gaussian"])
            raw["simulation"]["n_paths"] = 20_000
            raw["model"]["sigma"]["pieces"][0]["value"] = sigma
            pipe = sd.Pipeline(sd.RunConfig.from_dict(raw))
            pipe.reads([1.0])
            assert pipe.transform.increasing == (sigma > 0)
            q[sigma] = pipe.density_at(1.0)[2]
        down, up = q[-1.0], q[1.0]
        assert np.all(np.diff(down.x_grid) > 0)
        np.testing.assert_allclose(down.x_grid, -up.x_grid[::-1], rtol=0.0, atol=1e-9)
        np.testing.assert_allclose(down.values, up.values[::-1], rtol=0.0, atol=1e-14)

    def test_requires_transformed_coordinate(self, sin_sigma, sin_window):
        lam = sd.build_lamperti_map(sin_sigma, sin_window)
        cf = analytic_cf(lambda y: math.exp(-y * y), 16.0, 1 / 16)
        p = sd.invert(cf, np.linspace(-0.5, 0.5, 11))
        q = sd.pushforward(p, lam)
        with pytest.raises(ConfigError):
            sd.pushforward(q, lam)


class TestHolderNorm:
    def test_constant(self):
        xs = np.linspace(0, 1, 64)
        assert sd.holder_norm(xs, np.full(64, -2.5), 0.5) == 2.5

    def test_abs_on_uniform_grid(self):
        xs = np.linspace(-1, 1, 201)
        norm = sd.holder_norm(xs, np.abs(xs), 0.5)
        # seminorm 1 attained at same-sign pairs of full separation; sup is 1
        assert norm == pytest.approx(1.0, rel=1e-12)

    def test_brute_force_oracle_random_data(self, rng):
        xs = np.sort(rng.uniform(-1, 1, 60))
        vs = rng.normal(size=60)
        gamma = 0.7
        best = max(np.max(np.abs(vs)), max(
            abs(vs[i] - vs[j]) / abs(xs[i] - xs[j]) ** gamma
            for i in range(60) for j in range(i)))
        assert sd.holder_norm(xs, vs, gamma) == pytest.approx(best, rel=1e-12)

    def test_gaussian_stable_under_refinement(self):
        def density(n):
            xs = np.linspace(-5, 5, n)
            return sd.holder_norm(xs, np.exp(-xs**2 / 2) / math.sqrt(2 * math.pi), 0.5)

        coarse, fine = density(501), density(1001)
        assert fine <= coarse * 1.05
        assert fine >= coarse * (1 - 1e-12)  # refinement on a superset grid

    def test_gamma_domain(self):
        with pytest.raises(DomainError, match=r"^gamma must lie in \(0, 1\]$"):
            sd.holder_norm(np.arange(4.0), np.zeros(4), 1.5)

    @pytest.mark.parametrize("n_values, n_grid", [(5, 10), (1, 10), (600, 3)])
    def test_length_mismatch_names_both_lengths(self, n_values, n_grid):
        with pytest.raises(ConfigError,
                           match=f"^{n_values} values for an x_grid of {n_grid} points$"):
            sd.holder_norm(np.linspace(0.0, 1.0, n_grid), np.zeros(n_values), 0.5)


class TestDecayConstant:
    @pytest.mark.parametrize("gamma", [0.3, 0.5, 0.8])
    def test_matches_refinement_oracle(self, gamma):
        from helpers import decay_constant_refinement_oracle

        assert sd.decay_smoothness_constant(gamma) == pytest.approx(decay_constant_refinement_oracle(gamma),
                                                  rel=1e-4)

    @pytest.mark.parametrize("gamma", [0.1, 0.3, 0.5, 0.8, 0.9, 0.99])
    def test_head_matches_quadpack(self, gamma):
        # the same head + one-lobe panels + envelope tail, with QUADPACK's head
        p = 1.0 / (1.0 - gamma)

        def head_integrand(u):
            z = u**p
            return (2.0 * math.sin(z / 2.0) / z if z > 0 else 1.0) * p

        head, _ = integrate.quad(head_integrand, 0.0, (2.0 * math.pi) ** (1.0 - gamma),
                                 epsabs=1e-13, epsrel=1e-12, limit=200)
        nodes, weights = np.polynomial.legendre.leggauss(24)
        z = 2.0 * math.pi * np.arange(1, 2048)[:, None] + math.pi * (nodes + 1.0)
        panels = math.pi * float(np.sum(2.0 * np.abs(np.sin(z / 2.0)) / z ** (1.0 + gamma)
                                        * weights))
        tail = 2.0 * (2.0 * math.pi * 2048) ** (-gamma) / gamma
        want = (head + panels + tail) / math.pi
        assert sd.decay_smoothness_constant(gamma) == pytest.approx(want, rel=1e-12)

    def test_finite_across_range(self):
        for gamma in (0.1, 0.5, 0.9):
            assert math.isfinite(sd.decay_smoothness_constant(gamma))

    def test_domain(self):
        for bad in (0.0, 1.0, -0.3, 2.0):
            with pytest.raises(DomainError):
                sd.decay_smoothness_constant(bad)

    @pytest.mark.parametrize("shape", ["flat", "cosine", "rational"])
    def test_capped_cf_inversion_within_constant(self, shape):
        # any CF capped by c(1+|y|)^{-1-gamma} inverts to a function whose
        # discrete Hoelder norm is at most decay_smoothness_constant * c (small slack)
        gamma, c = 0.5, 2.0

        def cap(y):
            base = c * (1 + abs(y)) ** (-(1 + gamma))
            if shape == "flat":
                return base
            if shape == "cosine":
                return base * abs(math.cos(0.8 * y)) * complex(math.cos(0.1 * y),
                                                               math.sin(0.1 * y))
            return base / (1 + 0.3 * y * y) * complex(math.cos(y), math.sin(y)) ** 2

        cf = analytic_cf(cap, 64.0, 1.0 / 16.0)
        xs = np.linspace(-12, 12, 801)
        p = sd.invert(cf, xs)
        bound = sd.decay_smoothness_constant(gamma) * c * 1.05
        assert sd.holder_norm(p.x_grid, p.values, gamma) <= bound


@pytest.fixture(scope="module")
def gaussian_scan():
    """q_t on one state grid for t = 0.25, 0.5, 0.75, 1 and the midpoints, all
    from one ensemble (one seed), by ``Pipeline.density_at``: differences across
    t reflect the path evolution rather than independent sampling noise."""
    raw = copy.deepcopy(sd.PRESETS["gaussian"])
    raw["simulation"].update(n_paths=50_000, seed=91)
    raw["inversion"]["n_points"] = 241
    pipe = sd.Pipeline(sd.RunConfig.from_dict(raw))
    t_refined = [0.25, 0.375, 0.5, 0.625, 0.75, 0.875, 1.0]
    pipe.reads(t_refined)
    rows = [pipe.density_at(t)[2] for t in t_refined]
    return pipe, t_refined, rows[0].x_grid, np.vstack([q.values for q in rows])


class TestJointScan:
    def test_rows_match_closed_form(self, gaussian_scan):
        pipe, t_refined, x_state, q = gaussian_scan
        for row, t in zip(q, t_refined):
            target = pipe.phi(x_state) * np.exp(-x_state**2 / (2 * t)) / math.sqrt(
                2 * math.pi * t)
            assert np.max(np.abs(row - target)) < 0.02

    def test_row_equals_pipeline(self, gaussian_scan):
        pipe, t_refined, x_state, q = gaussian_scan
        ens = sd.simulate(pipe.model, pipe.cfg.simulation)
        cf = sd.estimate_localized(ens, pipe.phi, pipe.transform, pipe.freq_grid, 0.5)
        chain = sd.pushforward(sd.invert(cf, pipe.cfg.x_grid), pipe.transform)
        np.testing.assert_array_equal(chain.x_grid, x_state)
        np.testing.assert_array_equal(q[t_refined.index(0.5)], chain.values)

    def test_time_increments_shrink_under_halving(self, gaussian_scan):
        # per coarse step (0.25 apart): the larger of its two half-step sups of
        # |q_{t+dt} - q_t| against the sup over the whole step
        *_, q = gaussian_scan
        coarse = np.max(np.abs(np.diff(q[::2], axis=0)), axis=1)
        fine = np.max(np.abs(np.diff(q, axis=0)), axis=1)
        assert np.mean(np.maximum(fine[::2], fine[1::2]) / coarse) <= 0.75
