import cmath
import math
import tracemalloc

import numpy as np
import pytest

import sdedensity as sd

CHUNK = 1 << 14  # samples per chunk of cf_from_samples


def const_model(mu, sigma):
    return sd.CoefficientModel(
        mu=sd.PiecewiseFunction((), (sd.Constant(mu),)),
        sigma=sd.PiecewiseFunction((), (sd.Constant(sigma),)),
    )


@pytest.fixture(scope="module")
def grid():
    return sd.FrequencyGrid.uniform(8.0, 1.0 / 16.0)


class TestFrequencyGrid:
    def test_uniform_contains_zero_and_is_symmetric(self, grid):
        m = grid.half_count
        assert grid.values[m] == 0.0
        assert np.array_equal(grid.values[m:], -grid.values[m::-1])

    def test_bad_grid_rejected(self):
        with pytest.raises(sd.ConfigError):
            sd.FrequencyGrid(values=np.array([0.0, 1.0]), y_max=1.0, spacing=1.0)


class TestEstimate:
    def test_degenerate_ensemble_is_pure_phase(self, grid):
        ens = sd.simulate(const_model(0.0, 0.0),
                          sd.SimConfig(x0=1.3, t_final=0.25, h=0.25, n_paths=64, seed=1))
        phi = sd.make_plateau_sequence(3)
        cf = sd.cf_from_samples(ens.states_at(0.25), phi, grid, 0.25)
        for y in (-3.0, 0.5, 7.0):
            assert cf.value_at(y) == pytest.approx(cmath.exp(1j * y * 1.3), abs=1e-10)

    def test_zero_frequency_is_weight_mean(self, bm_ensemble, grid):
        phi = sd.make_plateau_sequence(1)
        cf = sd.cf_from_samples(bm_ensemble.states_at(0.25), phi, grid, 0.25)
        v = cf.value_at(0.0)
        assert v.imag == 0.0
        assert 0.0 <= v.real <= 1.0

    def test_gaussian_against_quadrature_oracle(self, bm_model, grid):
        cfg = sd.SimConfig(x0=0.0, t_final=1.0, h=2.0**-4, n_paths=40_000, seed=12)
        ens = sd.simulate(bm_model, cfg)
        phi = sd.make_plateau_sequence(4)
        cf = sd.cf_from_samples(ens.states_at(1.0), phi, grid, 1.0)
        rm = sd.brownian_drift(0.0, 1.0, 0.0)
        # e^{-1/2} up to the plateau truncation (< 1e-3) plus MC noise
        assert abs(cf.value_at(1.0) - cmath.exp(-0.5)) <= 1e-3 + 3 * cf.se_at(1.0)
        for y in (0.0, 0.5, 1.0, 2.5, 5.0):
            target = sd.localized_cf(rm, phi, 1.0, y)
            got = cf.value_at(y)
            se = cf.se_at(y)
            assert abs(got.real - target.real) <= 3 * se
            assert abs(got.imag - target.imag) <= 3 * se

    def test_conjugate_symmetry_exact(self, bm_ensemble, grid):
        phi = sd.make_plateau_sequence(1)
        cf = sd.cf_from_samples(bm_ensemble.states_at(0.25), phi, grid, 0.25)
        m = grid.half_count
        assert np.array_equal(cf.values[:m], np.conj(cf.values[m + 1:][::-1]))
        assert np.array_equal(cf.std_errors[:m], cf.std_errors[m + 1:][::-1])

    def test_modulus_bounded_by_center_value(self, bm_ensemble, grid):
        phi = sd.make_plateau_sequence(1)
        cf = sd.cf_from_samples(bm_ensemble.states_at(0.25), phi, grid, 0.25)
        v0 = cf.value_at(0.0).real
        assert np.all(np.abs(cf.values) <= v0 + 3 * cf.std_errors + 1e-12)

    def test_threads_do_not_change_bits(self, sin_sigma_star, grid):
        # three full chunks and a ragged tail, so the chunks' merge order shows
        x = np.random.default_rng(7).standard_normal(3 * CHUNK + 5)
        phi = sd.make_plateau_sequence(1)
        lam = sd.build_lamperti_map(sin_sigma_star)
        a = sd.cf_from_samples(x, phi, grid, threads=1, transform=lam)
        for threads in (2, 4):
            b = sd.cf_from_samples(x, phi, grid, threads=threads, transform=lam)
            assert np.array_equal(a.values, b.values)
            assert np.array_equal(a.std_errors, b.std_errors)

    @pytest.mark.parametrize("n", [1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 5])
    def test_matches_dense_reference_across_chunk_boundaries(self, sin_sigma_star, grid, n):
        x = np.random.default_rng(n).standard_normal(n)
        phi = sd.make_plateau_sequence(1)
        lam = sd.build_lamperti_map(sin_sigma_star)
        cf = sd.cf_from_samples(x, phi, grid, threads=2, transform=lam)
        w, hx = phi(x), lam.forward_many(x)
        bessel = n / (n - 1.0) if n > 1 else 1.0
        for j, y in enumerate(grid.values):
            terms = w * np.exp(1j * y * hx)
            assert abs(cf.values[j] - np.mean(terms)) <= 1e-14
            # per-sample variance, compared before the square root
            var = max(np.var(terms.real), np.var(terms.imag))
            assert abs(cf.std_errors[j] ** 2 * n / bessel - var) <= 1e-14

    def test_peak_allocation_is_per_chunk(self, grid):
        x = np.random.default_rng(3).standard_normal(10**6)
        phi = sd.make_plateau_sequence(1)
        tracemalloc.start()
        try:
            sd.cf_from_samples(x, phi, grid, threads=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 2**20  # no more than the samples themselves take

    def test_empty_samples_rejected(self, grid):
        with pytest.raises(sd.ConfigError, match="samples must be non-empty"):
            sd.cf_from_samples(np.empty(0), sd.make_plateau_sequence(1), grid)

    def test_localized_estimate_shifts_phase(self, bm_ensemble, window6, grid):
        # with unit sigma the transform is a shift, so the localized CF is a
        # phase rotation of the raw one
        s = sd.build_sigma_star(sd.PiecewiseFunction((), (sd.Constant(1.0),)), window6)
        lam = sd.build_lamperti_map(s)
        phi = sd.make_bump(window6, 0.2)
        raw = sd.cf_from_samples(bm_ensemble.states_at(0.25), phi, grid, 0.25)
        loc = sd.estimate_localized(bm_ensemble, phi, lam, grid, 0.25)
        for y in (0.5, 2.0):
            rot = cmath.exp(1j * y * 6.0)
            assert loc.value_at(y) == pytest.approx(raw.value_at(y) * rot, abs=1e-9)


class TestAnalyticOracles:
    """The CF of one frozen-coefficient step of length eps from x is the CF of
    ``brownian_drift(mu, sigma, x)`` at time eps: exp(iy(x + mu eps) - sigma^2 eps y^2 / 2)."""

    def test_conditional_cf_at_zero_frequency(self):
        assert sd.exact_cf(sd.brownian_drift(1.0, 2.0, 0.3), 0.5, 0.0) == 1.0

    def test_conditional_cf_modulus(self):
        v = sd.exact_cf(sd.brownian_drift(0.0, 1.0, 0.0), 1.0, 1.0)
        assert abs(v) == pytest.approx(math.exp(-0.5), rel=1e-12)

    def test_conditional_cf_against_mc(self):
        # a single Euler step of the constant-coefficient model is that step
        x, y, eps = 0.4, 1.1, 0.25
        ens = sd.simulate(const_model(0.7, 1.3),
                          sd.SimConfig(x0=x, t_final=eps, h=eps, n_paths=1_000_000, seed=4))
        samples = np.exp(1j * y * ens.states_at(eps))
        mc = samples.mean()
        se = max(samples.real.std(), samples.imag.std()) / 1000.0
        assert abs(mc - sd.exact_cf(sd.brownian_drift(0.7, 1.3, x), eps, y)) <= 3 * se


class TestExport:
    def test_csv_round_trip_stable(self, bm_ensemble, grid, tmp_path):
        phi = sd.make_plateau_sequence(1)
        cf = sd.cf_from_samples(bm_ensemble.states_at(0.25), phi, grid, 0.25)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        cf.to_csv(p1)
        cf.to_csv(p2)
        assert p1.read_bytes() == p2.read_bytes()
        header, first = p1.read_text().splitlines()[:2]
        assert header == "y,re,im,se"
        y, re, im, se = first.split(",")
        assert float(y) == cf.grid.values[0]

    @pytest.mark.parametrize("y", [0.5, -5.0, -9.0, 5.0])
    def test_off_grid_frequency_rejected(self, y):
        # between two frequencies, or beyond either end of the grid; an index
        # that wrapped around would read another frequency's entry
        grid = sd.FrequencyGrid.uniform(4.0, 1.0)
        cf = sd.CharFnEstimate(grid=grid, values=grid.values.astype(complex),
                               std_errors=np.arange(9.0), n_paths=2, t=0.0)
        assert [cf.se_at(v) for v in (-4.0, 0.0, 4.0)] == [0.0, 4.0, 8.0]
        for lookup in (cf.value_at, cf.se_at):
            with pytest.raises(sd.ConfigError, match=f"frequency {y} is not on the grid"):
                lookup(y)

    def test_from_function_has_zero_errors(self, grid):
        cf = sd.CharFnEstimate.from_function(lambda y: cmath.exp(-y * y / 2), grid)
        assert np.all(cf.std_errors == 0.0)
        assert cf.value_at(-1.0) == np.conj(cf.value_at(1.0))
