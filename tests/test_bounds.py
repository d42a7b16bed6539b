import json
import math
import sys
import tracemalloc

import numpy as np
import pytest

import sdedensity as sd
from sdedensity.bounds import _SLAB_ROWS, RemainderPass
from sdedensity.config import PRESETS, Pipeline, RunConfig
from sdedensity.errors import ConfigError, DomainError
from sdedensity.simulate import BLOCK_PATHS, simulate
from sdedensity.util import mean_se

from helpers import drift_g, report_of


class TestClosedFormBounds:
    def test_fixed_lookback_at_zero(self):
        assert sum(sd.fixed_lookback_bound(0.0, 0.1, 0.0)) == pytest.approx(1.1, rel=1e-15)

    def test_fixed_lookback_high_frequency_limit(self):
        assert sum(sd.fixed_lookback_bound(1e8, 0.25, 0.0)) == pytest.approx(0.25, rel=1e-12)

    def test_fixed_lookback_arithmetic(self):
        expect = 2 * math.exp(-0.5) + 1.0 + 1.0
        assert sum(sd.fixed_lookback_bound(1.0, 1.0, 0.5)) == pytest.approx(expect, rel=1e-15)

    def test_monotone_in_remainder_and_eps_term(self, rng):
        for _ in range(100):
            y = rng.uniform(-50, 50)
            eps = rng.uniform(1e-4, 0.9)
            r1, r2 = sorted(rng.uniform(0, 1, 2))
            assert (sum(sd.fixed_lookback_bound(y, eps, r1))
                    <= sum(sd.fixed_lookback_bound(y, eps, r2)))
        # the additive lookback term is monotone at fixed Gaussian factor
        assert (sum(sd.fixed_lookback_bound(0.0, 0.2, 0.0))
                >= sum(sd.fixed_lookback_bound(0.0, 0.1, 0.0)))

    def test_lookback_rule_values(self):
        assert sd.epsilon_rule(math.e) == pytest.approx(math.exp(-2.0), rel=1e-14)
        assert sd.epsilon_rule(math.e**2) == pytest.approx(4 * math.exp(-4.0), rel=1e-13)
        assert sd.epsilon_rule(-math.e) == pytest.approx(math.exp(-2.0), rel=1e-14)

    def test_lookback_rule_domain(self):
        with pytest.raises(DomainError):
            sd.epsilon_rule(1.0)
        with pytest.raises(DomainError):
            sd.epsilon_rule(-0.5)

    def test_matched_bound_values(self):
        v = sum(sd.matched_lookback_bound(math.e, 0.0))
        assert v == pytest.approx(math.exp(-0.5) + math.exp(-2.0), rel=1e-14)
        y = math.e**4
        assert y ** (-math.log(y) / 2) == pytest.approx(math.exp(-8.0), rel=1e-12)

    def test_matched_bound_domain(self):
        with pytest.raises(DomainError):
            sd.matched_lookback_bound(0.5, 0.0)

    def test_matched_dominates_fixed_gaussian_term(self):
        # (1 + eps_y |y|) exp(-eps_y y^2 / 2) <= 2 |y|^{-log|y|/2} on [e, 1e3]
        ys = np.geomspace(math.e, 1e3, 400)
        for y in ys:
            eps = sd.epsilon_rule(float(y))
            lhs = (1 + eps * y) * math.exp(-0.5 * eps * y * y)
            assert lhs <= 2.0 * y ** (-0.5 * math.log(y)) * (1 + 1e-12)


@pytest.fixture(scope="module")
def sign_run():
    model = sd.sign_drift_model(-1.0)
    w = sd.LocalWindow(xi=0.0, delta=2.0, delta0=0.5, l_sigma=1.0)
    cfg = sd.SimConfig(x0=0.0, t_final=0.5, h=2.0**-9, n_paths=20_000, seed=55)
    return model, w, sd.simulate(model, cfg)


class TestRemainder:
    def test_constant_drift_functional_is_exactly_zero(self, bm_model, bm_ensemble):
        w = sd.LocalWindow(xi=0.0, delta=6.0, delta0=1.0, l_sigma=1.0)
        est = sd.remainder(bm_ensemble, drift_g(bm_model, w), w, eps=0.125, t=0.25)
        assert est.value == 0.0
        const = sd.CoefficientModel(
            mu=sd.PiecewiseFunction((), (sd.Constant(3.0),)),
            sigma=sd.PiecewiseFunction((), (sd.Constant(1.0),)),
        )
        ens = sd.simulate(const, sd.SimConfig(x0=0.0, t_final=0.25, h=2.0**-6,
                                              n_paths=500, seed=4))
        assert sd.remainder(ens, drift_g(const, w), w, eps=0.125, t=0.25).value == 0.0

    def test_positive_for_sign_drift(self, sign_run):
        model, w, ens = sign_run
        est = sd.remainder(ens, drift_g(model, w), w, eps=2.0**-4, t=0.5)
        assert est.value > 3 * est.std_error > 0.0

    def test_sub_resolution_eps_rejected(self, bm_model, bm_ensemble):
        w = sd.LocalWindow(xi=0.0, delta=6.0, delta0=1.0, l_sigma=1.0)
        with pytest.raises(ConfigError, match=r"^t=0\.2490234375 is not on the simulation grid"):
            sd.remainder(bm_ensemble, drift_g(bm_model, w), w,
                         eps=bm_ensemble.config.h / 4, t=0.25)


class TestFitDecay:
    @staticmethod
    def gaussian_cf(y_max=16.0, spacing=1.0 / 16.0):
        grid = sd.FrequencyGrid.uniform(y_max, spacing)
        return sd.CharFnEstimate.from_function(lambda y: math.exp(-y * y / 2), grid)

    def test_gaussian_matches_dense_grid_oracle(self):
        cf = self.gaussian_cf()
        c_fit = sd.fit_decay(cf, 0.5)
        dense = np.linspace(0, 16, 400_001)
        oracle = np.max(np.exp(-dense**2 / 2) * (1 + dense) ** 1.5)
        assert c_fit == pytest.approx(oracle, rel=1e-3)

    def test_flat_cf_pins_constant_to_grid_edge(self):
        grid = sd.FrequencyGrid.uniform(8.0, 0.25)
        cf = sd.CharFnEstimate.from_function(lambda y: 1.0, grid)
        c_fit = sd.fit_decay(cf, 0.5)
        assert c_fit == pytest.approx((1 + 8.0) ** 1.5, rel=1e-11)

    def test_truly_decaying_cf_stable_under_ymax_doubling(self):
        def cap(y):
            return (1 + abs(y)) ** -2.0

        fits = []
        for y_max in (16.0, 32.0):
            grid = sd.FrequencyGrid.uniform(y_max, 0.25)
            fits.append(sd.fit_decay(sd.CharFnEstimate.from_function(cap, grid), 0.5))
        assert fits[1] / fits[0] <= 1.25


class TestGaussianModelBound:
    def test_fixed_bound_holds_with_small_constant(self, bm_model, bm_ensemble, window6):
        # exactly sampleable model: remainder vanishes and the empirical CF
        # modulus sits under 3x the matched-lookback fixed bound everywhere
        s = sd.build_sigma_star(bm_model.sigma, window6)
        lam = sd.build_lamperti_map(s)
        phi = sd.make_bump(window6, 0.2)
        grid = sd.FrequencyGrid.uniform(16.0, 0.25)
        cf = sd.estimate_localized(bm_ensemble, phi, lam, grid, 0.25)
        t = 0.25
        for y, v, se in zip(grid.values, cf.values, cf.std_errors):
            if abs(y) <= 1.0 or sd.epsilon_rule(float(y)) >= t:
                continue
            bound = sum(sd.fixed_lookback_bound(float(y), sd.epsilon_rule(float(y)), 0.0))
            assert abs(v) <= 3.0 * bound + 3.0 * se

    def test_sign_drift_remainder_slope_range(self, sign_run):
        # a jump at the window center: the sign-change probability term makes
        # the running increment scale between eps and eps^{3/2}
        model, w, ens = sign_run
        eps_list = [2.0**-k for k in range(3, 8)]
        vals = [sd.remainder(ens, drift_g(model, w), w, eps, 0.5).value for eps in eps_list]
        slope = np.polyfit(np.log(eps_list), np.log(vals), 1)[0]
        assert 1.0 - 0.1 <= slope <= 1.5 + 0.1

    def test_fit_decay_stable_under_ymax_doubling_on_mc_run(self, sign_run):
        model, w, ens = sign_run
        phi = sd.make_bump(w, 0.2)
        lam = sd.build_lamperti_map(sd.build_sigma_star(model.sigma, w))
        fits = []
        for y_max in (32.0, 64.0):
            grid = sd.FrequencyGrid.uniform(y_max, 0.25)
            cf = sd.estimate_localized(ens, phi, lam, grid, 0.5)
            fits.append(sd.fit_decay(cf, 0.5))
        assert fits[1] / fits[0] <= 1.25


def band_above(cf, lo=math.e):
    """The positive grid frequencies above lo: the band these reports check."""
    pos = cf.grid.positive()
    return pos[pos > lo]


class TestBoundReport:
    def test_rows_match_standalone_remainder(self, sign_run):
        model, w, ens = sign_run
        t = 0.5
        grid = sd.FrequencyGrid.uniform(16.0, 0.25)
        cf = sd.estimate_localized(
            ens, sd.make_bump(w, 0.2),
            sd.build_lamperti_map(sd.build_sigma_star(model.sigma, w)), grid, t)
        report = report_of(cf, ens, drift_g(model, w), w, t, band_above(cf))
        for j in (0, len(report.y) // 2, len(report.y) - 1):
            eps = float(report.eps_used[j])
            standalone = sd.remainder(ens, drift_g(model, w), w, eps=eps, t=t)
            y = float(report.y[j])
            assert report.remainder_term[j] == y * standalone.value
            assert report.gauss_term[j] == pytest.approx(y ** (-0.5 * math.log(y)))
            assert report.eps_term[j] == pytest.approx(math.log(y) ** 2 / y**2)

    def test_fitted_constant_passes_everything(self, sign_run):
        model, w, ens = sign_run
        grid = sd.FrequencyGrid.uniform(16.0, 0.25)
        cf = sd.estimate_localized(
            ens, sd.make_bump(w, 0.2),
            sd.build_lamperti_map(sd.build_sigma_star(model.sigma, w)), grid, 0.5)
        report = report_of(cf, ens, drift_g(model, w), w, 0.5, band_above(cf))
        assert report.pass_fraction == 1.0
        tight = report_of(cf, ens, drift_g(model, w), w, 0.5, band_above(cf),
                          c=report.c_fit / 20.0)
        assert tight.pass_fraction < 1.0

    def test_lookback_precondition_rejected(self, sign_run):
        model, w, ens2 = sign_run
        cfg = sd.SimConfig(x0=0.0, t_final=0.0625, h=2.0**-9, n_paths=64, seed=6)
        ens = sd.simulate(model, cfg)
        grid = sd.FrequencyGrid.uniform(8.0, 0.25)
        cf = sd.estimate_localized(
            ens, sd.make_bump(w, 0.2),
            sd.build_lamperti_map(sd.build_sigma_star(model.sigma, w)), grid, 0.0625)
        with pytest.raises(ConfigError, match="log"):
            report_of(cf, ens, drift_g(model, w), w, 0.0625, band_above(cf))

    def test_csv_schema(self, tmp_path):
        from sdedensity.cli import cmd_bound

        raw = json.loads(json.dumps(PRESETS["sign_drift"]))
        raw["simulation"]["n_paths"] = 2000
        pipe = Pipeline(RunConfig.from_dict(raw))
        cmd_bound(pipe, tmp_path)
        report = pipe.bound_report()
        lines = (tmp_path / "bound.csv").read_text().splitlines()
        assert lines[0] == "y,empirical,se,gauss_term,eps_term,remainder_term,bound,pass"
        assert len(lines) == 1 + report.y.size


def whole_slab_samples(ens, model, w, t, y_check, eps_rule):
    """Reference: the remainder samples of every checked frequency (a row each) from
    one pass over the whole lookback band, g evaluated as mu/sigma_cont - weak_deriv/2
    piece by piece."""
    h = ens.config.h
    k_steps = sd.bound_plan(drift_g(model, w), w, ens.config, t, y_check, eps_rule).k_steps
    s = sd.build_sigma_star(model.sigma, w)
    d = sd.weak_derivative(s)
    k_end = ens.config.step(t)
    seg = ens.band(k_end - int(np.max(k_steps)), k_end)
    gv = model.mu(seg) / s(seg) - 0.5 * d(seg)
    gv_prefix = np.cumsum(gv, axis=1)
    dev = np.abs(seg - w.xi)
    stay_suffix = np.minimum.accumulate((dev <= w.delta)[:, ::-1], axis=1)[:, ::-1]
    m_cols = seg.shape[1]
    rows = np.empty((y_check.size, ens.n_paths))
    for i, ks in enumerate(k_steps):
        c0 = m_cols - 1 - int(ks)
        integral = h * (gv_prefix[:, -1] - gv_prefix[:, c0] + 0.5 * (gv[:, c0] - gv[:, -1]))
        vals = np.abs(integral - (int(ks) * h) * gv[:, c0])
        rows[i] = np.where(stay_suffix[:, c0], vals, 0.0)
    return rows


def block_order_chan(row, block):
    """Mean and standard error of `row` from per-block (count, mean, M2), merged
    block after block by the Chan-Golub-LeVeque updating formulae."""
    n = mean = m2 = None
    for start in range(0, row.size, block):
        x = row[start:start + block]
        nb, mb = x.size, np.mean(x)
        m2b = np.sum((x - mb) ** 2)
        if n is None:
            n, mean, m2 = nb, mb, m2b
            continue
        total = n + nb
        delta = mb - mean
        mean = mean + delta * (nb / total)
        m2 = m2 + m2b + delta * delta * (n * nb / total)
        n = total
    return mean, np.sqrt(m2 / (n - 1)) / np.sqrt(n)


@pytest.fixture(scope="module")
def kinked_run():
    """Discontinuous drift, sinusoid/power diffusion with a kink; 9001 paths, so
    the last path block is partial."""
    model = sd.CoefficientModel(
        mu=sd.PiecewiseFunction((0.0,), (sd.Constant(1.0), sd.Sinusoid(-1.0, 0.3, 2.0))),
        sigma=sd.PiecewiseFunction((0.0,), (sd.Sinusoid(2.0, 0.5),
                                            sd.HolderPower(1.0, -4.0, 0.5))),
    )
    w = sd.LocalWindow(xi=0.0, delta=1.0, delta0=0.25, l_sigma=1.0)
    t = 0.5
    ens = sd.simulate(model, sd.SimConfig(x0=0.0, t_final=t, h=2.0**-9, n_paths=9001,
                                          seed=77))
    cf = sd.estimate_localized(
        ens, sd.make_bump(w, 0.2),
        sd.build_lamperti_map(sd.build_sigma_star(model.sigma, w)),
        sd.FrequencyGrid.uniform(64.0, 0.25), t)
    return model, w, ens, cf, t


class TestStreamedRemainder:
    # measured on kinked_run: at most 2.3e-16 (means) and 3.4e-16 (SEs) relative
    WHOLE_ROW_RTOL = 1e-14

    @pytest.mark.parametrize("threads", [1, 2, 8])
    @pytest.mark.parametrize("eps_rule", ["matched", 0.0625])
    def test_bitwise_equal_to_whole_slab(self, kinked_run, threads, eps_rule):
        model, w, ens, cf, t = kinked_run
        g = drift_g(model, w)
        y_check = band_above(cf, math.e if eps_rule == "matched" else 0.0)
        one = report_of(cf, ens, g, w, t, y_check, eps_rule=eps_rule, threads=1)
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # interleave the block workers as much as possible
        try:
            report = report_of(cf, ens, g, w, t, y_check, eps_rule=eps_rule,
                               threads=threads)
        finally:
            sys.setswitchinterval(switch)
        if eps_rule == "matched":
            assert np.unique(report.eps_used).size > 1
        # 1. the merge does not depend on the thread count
        assert report.remainder_term.tobytes() == one.remainder_term.tobytes()
        assert report.metadata == one.metadata
        # 2. it is the block-order Chan merge of the whole-slab samples
        rows = whole_slab_samples(ens, model, w, t, report.y, eps_rule)
        chan = np.array([block_order_chan(row, BLOCK_PATHS) for row in rows])
        scale = np.abs(report.y) if eps_rule == "matched" else 1.0 + np.abs(report.y)
        assert report.remainder_term.tobytes() == (scale * chan[:, 0]).tobytes()
        assert report.metadata["remainder_se_max"] == np.max(chan[:, 1])
        # 3. and it agrees with the whole-row mean and SE to rounding
        whole = np.array([(e.value, e.std_error) for e in map(mean_se, rows)])
        np.testing.assert_allclose(chan, whole, rtol=self.WHOLE_ROW_RTOL, atol=0.0)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_pass_inside_simulate_equals_pass_over_recorded_band(self, kinked_run, threads):
        model, w, ens, cf, t = kinked_run
        kernel = RemainderPass(drift_g(model, w), w, ens.config.h, ens.config.step(t),
                               (1, 7, 40))
        inside = sd.simulate(model, ens.config, threads=threads,
                             record=[ens.config.step(t)], band_pass=kernel)
        assert inside.recorded == (ens.config.step(t),)
        recorded = kernel.block_results(ens, threads=threads)  # ens recorded every step
        for a, b in zip(inside.band_parts, recorded, strict=True):
            assert a[0] == b[0]
            assert a[1].tobytes() == b[1].tobytes() and a[2].tobytes() == b[2].tobytes()

    @pytest.mark.parametrize("rows", [BLOCK_PATHS, 848])
    @pytest.mark.parametrize("n_lookbacks", [1, _SLAB_ROWS, _SLAB_ROWS + 1, 81])
    def test_slabbed_finish_equals_one_shot(self, kinked_run, n_lookbacks, rows):
        model, w, ens, _, t = kinked_run
        kernel = RemainderPass(drift_g(model, w), w, ens.config.h, ens.config.step(t),
                               tuple(range(1, 2 * n_lookbacks, 2)))
        block = kernel.start(rows)
        for x in ens.band(kernel.steps[0], kernel.steps[-1])[:rows].T:
            block.push(x)
        # the samples and their row moments, from the whole (lookbacks, rows) arrays at once
        integral = block.prefix - block.prefix_first
        integral += (block.g_first - block.g_last) * 0.5
        integral *= kernel.h
        integral -= block.g_first * (np.asarray(kernel.lookbacks) * kernel.h)[:, None]
        stays = block.last_out < block.first[:, None]
        samples = np.where(stays, np.abs(integral), 0.0)
        mean = samples.mean(axis=1)
        m2 = np.square(samples - mean[:, None]).sum(axis=1)
        assert np.any(stays) and not np.all(stays)
        count, got_mean, got_m2 = block.result()
        assert count == rows
        assert got_mean.tobytes() == mean.tobytes()
        assert got_m2.tobytes() == m2.tobytes()

    def test_simulate_peak_allocation_within_the_remainder_state(self):
        # the pass keeps g and the prefix at each lookback's first step, 2 L rows
        # per block; result() adds a slab's temporaries, not the block's
        raw = json.loads(json.dumps(PRESETS["sign_drift"]))
        raw["simulation"]["n_paths"] = 50_000
        cfg = RunConfig.from_dict(raw)
        sim, kernel = cfg.simulation, cfg.bound_plan.kernel
        tracemalloc.start()
        try:
            simulate(cfg.model, sim, threads=1, record=[sim.n_steps], band_pass=kernel)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * len(kernel.lookbacks) * BLOCK_PATHS * 8 + 4 * 2**20

    def test_peak_allocation_below_one_band_copy(self, tmp_path):
        # a whole certify: the lookback band of all paths is never held, only
        # one block's band at a time inside simulate
        from sdedensity.cli import cmd_certify

        raw = json.loads(json.dumps(PRESETS["sign_drift"]))
        raw["simulation"]["n_paths"] = 50_000
        pipe = Pipeline(RunConfig.from_dict(raw), threads=1)
        sim = pipe.cfg.simulation
        tracemalloc.start()
        try:
            report = cmd_certify(pipe, tmp_path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report["checks"]["bound_check"]["pass"]
        band_cols = int(np.max(pipe.cfg.bound_plan.k_steps)) + 1
        assert peak < sim.n_paths * band_cols * 8
