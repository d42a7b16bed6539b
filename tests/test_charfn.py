import cmath
import copy
import math
import tracemalloc

import numpy as np
import pytest

import sdedensity as sd
from sdedensity import charfn
from sdedensity.util import task_pool

from helpers import cf_from_function

CHUNK = 1 << 14  # samples per chunk of cf_from_samples
PRESET_CASES = ["gaussian", "ou", "gbm", "sign_drift"]  # (M, spacing) 256, 1/16; 256, 1/8; 512, 1/4


def dense_case(case, n, sin_sigma, sin_window, grid):
    """(samples, phi, grid, transform) of one dense-reference case.

    "sin": normal samples under the transform of sigma = 2 + sin x.  A preset:
    that preset's grid, cutoff and transform, with samples uniform on the
    cutoff's support widened by a quarter on each side (some weigh 0).
    "wide_phase": phases dy x up to 1e4, under the identity.
    """
    rng = np.random.default_rng(n)
    if case == "sin":
        phi = sd.make_plateau_sequence(1)
        return rng.standard_normal(n), phi, grid, sd.build_lamperti_map(sin_sigma, sin_window)
    if case == "wide_phase":
        wide = sd.FrequencyGrid.uniform(16.0, 1.0 / 16.0)
        x = rng.uniform(-1e4, 1e4, n) / wide.spacing
        return x, (lambda v: np.exp(-(v * 1e-5) ** 2)), wide, None
    cfg = sd.RunConfig.from_dict(copy.deepcopy(sd.PRESETS[case]))
    width = cfg.phi.b - cfg.phi.a
    x = rng.uniform(cfg.phi.a - width / 4, cfg.phi.b + width / 4, n)
    return x, cfg.phi, cfg.freq_grid, cfg.transform


def dense_errors(x, phi, grid, transform):
    """The largest gaps between cf_from_samples and the direct sums on every
    grid frequency: in the values, and in the per-sample variances behind the
    SEs (compared before the square root).

    The phase y H is taken as y hi + y lo, hi being H's leading 26 bits: y hi is
    exact for a spacing that is a power of two, so the reference has no
    rounding of y H (2.8e-14 at y H = 384) to hide an error behind.
    """
    n = x.size
    cf = sd.cf_from_samples(x, phi, grid, threads=2, transform=transform)
    w = phi(x)
    hx = x if transform is None else transform.forward_many(x)
    hi = hx * 134217729.0
    hi -= hi - hx
    lo = hx - hi
    bessel = n / (n - 1.0) if n > 1 else 1.0
    value_err = var_err = 0.0
    for j, y in enumerate(grid.values):
        terms = w * np.exp(1j * y * hi) * np.exp(1j * y * lo)
        value_err = max(value_err, abs(cf.values[j] - np.mean(terms)))
        var = max(np.var(terms.real), np.var(terms.imag))
        var_err = max(var_err, abs(cf.std_errors[j] ** 2 * n / bessel - var))
    return value_err, var_err


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

    def test_values_are_the_spacing_times_the_offsets(self):
        grid = sd.FrequencyGrid(3, 0.1)
        assert grid.values.tobytes() == (0.1 * np.arange(-3, 4)).tobytes()
        assert grid.y_max == 3 * 0.1
        assert sd.FrequencyGrid.uniform(0.3, 0.1).values.tobytes() == grid.values.tobytes()

    def test_index_is_the_position_of_every_grid_frequency(self, grid):
        assert np.array_equal(grid.index(grid.values), np.arange(grid.values.size))
        assert grid.index(0.0) == grid.half_count
        assert grid.index(np.array([[8.0, -8.0]])).tolist() == [[2 * grid.half_count, 0]]

    @pytest.mark.parametrize("y", [0.5, -5.0, -9.0, 5.0, math.inf, math.nan])
    def test_off_grid_frequency_rejected(self, y):
        # between two frequencies, or beyond either end of the grid; an index
        # that wrapped around would read another frequency's entry
        grid = sd.FrequencyGrid.uniform(4.0, 1.0)
        assert grid.index(np.array([-4.0, 0.0, 4.0])).tolist() == [0, 4, 8]
        for ys in (y, [0.0, y]):
            with pytest.raises(sd.ConfigError, match=f"^frequency {y} is not on the grid$"):
                grid.index(ys)


class TestEstimate:
    def test_degenerate_ensemble_is_pure_phase(self, grid):
        ens = sd.simulate(const_model(0.0, 0.0),
                          sd.SimConfig(x0=1.3, t_final=0.25, h=0.25, n_paths=64, seed=1))
        phi = sd.make_plateau_sequence(3)
        cf = sd.cf_from_samples(ens.states_at(0.25), phi, grid, 0.25)
        for y in (-3.0, 0.5, 7.0):
            assert cf.values[grid.index(y)] == pytest.approx(cmath.exp(1j * y * 1.3), abs=1e-10)

    def test_zero_frequency_is_weight_mean(self, bm_ensemble, grid):
        phi = sd.make_plateau_sequence(1)
        cf = sd.cf_from_samples(bm_ensemble.states_at(0.25), phi, grid, 0.25)
        v = cf.values[grid.index(0.0)]
        assert v.imag == 0.0
        assert 0.0 <= v.real <= 1.0

    def test_gaussian_against_quadrature_oracle(self, bm_model, grid):
        cfg = sd.SimConfig(x0=0.0, t_final=1.0, h=2.0**-4, n_paths=40_000, seed=12)
        ens = sd.simulate(bm_model, cfg)
        phi = sd.make_plateau_sequence(4)
        cf = sd.cf_from_samples(ens.states_at(1.0), phi, grid, 1.0)
        rm = sd.ReferenceModel("brownian_drift", mu0=0.0, sigma0=1.0, x0=0.0)
        # e^{-1/2} up to the plateau truncation (< 1e-3) plus MC noise
        j = grid.index(1.0)
        assert abs(cf.values[j] - cmath.exp(-0.5)) <= 1e-3 + 3 * cf.std_errors[j]
        for y in (0.0, 0.5, 1.0, 2.5, 5.0):
            target = sd.localized_cf(rm, phi, 1.0, y)
            got, se = cf.values[grid.index(y)], cf.std_errors[grid.index(y)]
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
        v0 = cf.values[grid.index(0.0)].real
        assert np.all(np.abs(cf.values) <= v0 + 3 * cf.std_errors + 1e-12)

    def test_threads_do_not_change_bits(self, sin_sigma, sin_window, grid):
        # three full chunks and a ragged tail, so the chunks' merge order shows
        x = np.random.default_rng(7).standard_normal(3 * CHUNK + 5)
        phi = sd.make_plateau_sequence(1)
        lam = sd.build_lamperti_map(sin_sigma, sin_window)
        a = sd.cf_from_samples(x, phi, grid, threads=1, transform=lam)
        for threads in (2, 4):
            b = sd.cf_from_samples(x, phi, grid, threads=threads, transform=lam)
            assert np.array_equal(a.values, b.values)
            assert np.array_equal(a.std_errors, b.std_errors)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_pieces_of_any_size_give_the_bits_of_the_whole(self, sin_sigma, sin_window, grid,
                                                          threads):
        # pieces that straddle the chunk boundaries, an empty one among them
        rng = np.random.default_rng(11)
        x = rng.standard_normal(3 * CHUNK + 5)
        phi = sd.make_plateau_sequence(1)
        lam = sd.build_lamperti_map(sin_sigma, sin_window)
        whole = sd.cf_from_samples(x, phi, grid, t=0.5, transform=lam)
        cuts = np.sort(np.concatenate([rng.integers(0, x.size, 9), [CHUNK, CHUNK]]))
        with task_pool(threads) as pool:
            acc = charfn.CfAccumulator(phi, grid, lam, pool, threads)
            for piece in np.split(x, cuts):
                acc.add(piece)
            got = acc.estimate(0.5)
        assert got.n_paths == whole.n_paths and got.t == whole.t
        assert np.array_equal(got.values, whole.values)
        assert np.array_equal(got.std_errors, whole.std_errors)

    @pytest.mark.parametrize("case", ["sin", *PRESET_CASES, "wide_phase"])
    @pytest.mark.parametrize("n", [1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 5])
    def test_matches_dense_reference_across_chunk_boundaries(self, sin_sigma, sin_window, grid,
                                                             case, n):
        x, phi, case_grid, lam = dense_case(case, n, sin_sigma, sin_window, grid)
        value_err, var_err = dense_errors(x, phi, case_grid, lam)
        assert value_err <= 1e-14
        assert var_err <= 1e-14

    @pytest.mark.parametrize("mutation", ["half_kernel_width", "no_deconvolution"])
    def test_a_broken_spread_misses_the_dense_reference(self, monkeypatch, mutation):
        # the dense-reference test's 1e-14 bound sees either defect
        if mutation == "half_kernel_width":
            monkeypatch.setattr(charfn, "_SPREAD", charfn._SPREAD // 2)
        else:
            monkeypatch.setattr(charfn, "_deconvolution",
                                lambda size, tau, modes: np.full(modes.size, 1.0 / size))
        x, phi, case_grid, lam = dense_case("gaussian", CHUNK + 1, None, None, None)
        assert min(dense_errors(x, phi, case_grid, lam)) > 1e-14

    def test_stated_error_bound_holds_for_every_grid_size(self):
        # charfn's docstring: relative to mean |w|, the error at mode j <= 2M is
        # the aliasing plus the truncated kernel's tail times the deconvolution,
        # both largest at j = 2M
        msp, worst = charfn._SPREAD, 0.0
        for m in range(1, 4097):
            size, tau = charfn._grid_plan(m)
            a = math.pi**2 / (size * size * tau)
            tail = 2 * sum(math.exp(-a * (msp + q) ** 2) for q in range(20))
            j = 2 * m
            alias = sum(math.exp(-tau * p * size * (2 * j + p * size)) for p in (-2, -1, 1, 2))
            truncation = math.sqrt(math.pi / tau) * math.exp(j * j * tau) * tail / size
            worst = max(worst, alias + truncation)
        assert worst <= 1e-15

    def test_non_finite_samples_rejected(self, grid):
        with pytest.raises(sd.ConfigError, match="^samples must be finite$"):
            sd.cf_from_samples(np.array([0.0, np.nan]), sd.make_plateau_sequence(1), grid)

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
        lam = sd.build_lamperti_map(sd.PiecewiseFunction((), (sd.Constant(1.0),)), window6)
        phi = sd.make_bump(window6, 0.2)
        raw = sd.cf_from_samples(bm_ensemble.states_at(0.25), phi, grid, 0.25)
        loc = sd.estimate_localized(bm_ensemble, phi, lam, grid, 0.25)
        for y in (0.5, 2.0):
            rot = cmath.exp(1j * y * 6.0)
            j = grid.index(y)
            assert loc.values[j] == pytest.approx(raw.values[j] * rot, abs=1e-9)


class TestAnalyticOracles:
    """The CF of one frozen-coefficient step of length eps from x is the CF of
    the Brownian motion with drift mu and diffusion sigma started at x, at time
    eps: exp(iy(x + mu eps) - sigma^2 eps y^2 / 2)."""

    def test_conditional_cf_at_zero_frequency(self):
        rm = sd.ReferenceModel("brownian_drift", mu0=1.0, sigma0=2.0, x0=0.3)
        assert sd.exact_cf(rm, 0.5, 0.0) == 1.0

    def test_conditional_cf_modulus(self):
        v = sd.exact_cf(sd.ReferenceModel("brownian_drift", mu0=0.0, sigma0=1.0, x0=0.0), 1.0, 1.0)
        assert abs(v) == pytest.approx(math.exp(-0.5), rel=1e-12)

    def test_conditional_cf_against_mc(self):
        # a single Euler step of the constant-coefficient model is that step
        x, y, eps = 0.4, 1.1, 0.25
        ens = sd.simulate(const_model(0.7, 1.3),
                          sd.SimConfig(x0=x, t_final=eps, h=eps, n_paths=1_000_000, seed=4))
        samples = np.exp(1j * y * ens.states_at(eps))
        mc = samples.mean()
        se = max(samples.real.std(), samples.imag.std()) / 1000.0
        rm = sd.ReferenceModel("brownian_drift", mu0=0.7, sigma0=1.3, x0=x)
        assert abs(mc - sd.exact_cf(rm, eps, y)) <= 3 * se


class TestExport:
    def test_csv_round_trip_stable(self, tmp_path):
        from sdedensity.cli import cmd_cf

        raw = copy.deepcopy(sd.PRESETS["gaussian"])
        raw["simulation"]["n_paths"] = 2000
        cfg = sd.RunConfig.from_dict(raw)
        p1, p2 = tmp_path / "a" / "cf.csv", tmp_path / "b" / "cf.csv"
        for p in (p1, p2):
            p.parent.mkdir()
            pipe = sd.Pipeline(cfg)
            cmd_cf(pipe, p.parent)
        cf = pipe.cf_at(cfg.simulation.t_final)
        assert p1.read_bytes() == p2.read_bytes()
        header, first = p1.read_text().splitlines()[:2]
        assert header == "y,re,im,se"
        y, re, im, se = first.split(",")
        assert float(y) == cf.grid.values[0]

    def test_from_function_has_zero_errors(self, grid):
        cf = cf_from_function(lambda y: cmath.exp(-y * y / 2), grid)
        assert np.all(cf.std_errors == 0.0)
        assert cf.values[grid.index(-1.0)] == np.conj(cf.values[grid.index(1.0)])

    def test_from_values_mirrors_values_and_errors(self):
        grid = sd.FrequencyGrid(2, 0.5)
        cf = sd.CharFnEstimate.from_values([1.0, 0.5 + 0.25j, -0.5j], grid, t=0.5,
                                           se=np.array([0.1, 0.2, 0.3]), n_paths=7)
        assert cf.values.tolist() == [0.5j, 0.5 - 0.25j, 1.0, 0.5 + 0.25j, -0.5j]
        assert cf.std_errors.tolist() == [0.3, 0.2, 0.1, 0.2, 0.3]
        assert (cf.n_paths, cf.t) == (7, 0.5)
