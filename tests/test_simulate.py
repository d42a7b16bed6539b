import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy import stats

import sdedensity as sd
from sdedensity.bounds import RemainderPass
from sdedensity.errors import ConfigError, NumericsError
from sdedensity.simulate import BLOCK_PATHS, RngStreams, _first_exit, _noise, in_window
from sdedensity.util import mean_se


def const_model(mu, sigma):
    return sd.CoefficientModel(
        mu=sd.PiecewiseFunction((), (sd.Constant(mu),)),
        sigma=sd.PiecewiseFunction((), (sd.Constant(sigma),)),
    )


class TestSimConfig:
    def test_h_must_divide_t(self):
        with pytest.raises(ConfigError):
            sd.SimConfig(x0=0.0, t_final=1.0, h=0.3, n_paths=10, seed=1)

    def test_t_range(self):
        with pytest.raises(ConfigError):
            sd.SimConfig(x0=0.0, t_final=1.5, h=0.25, n_paths=10, seed=1)


class TestEulerStatistics:
    def test_martingale_mean(self, bm_ensemble):
        x = bm_ensemble.states_at(0.25)
        se = x.std(ddof=1) / math.sqrt(x.size)
        assert abs(x.mean()) <= 3 * se

    def test_initial_column_and_grid(self, bm_ensemble):
        assert np.all(bm_ensemble.states[:, 0] == bm_ensemble.config.x0)
        n_steps = bm_ensemble.config.n_steps
        assert bm_ensemble.recorded == tuple(range(n_steps + 1))
        assert bm_ensemble.config.step(n_steps * bm_ensemble.config.h) == n_steps

    def test_variance_matches_time(self, bm_ensemble):
        x = bm_ensemble.states_at(0.25)
        # SE of the sample variance of a Gaussian: var * sqrt(2/(n-1))
        se = 0.25 * math.sqrt(2.0 / (x.size - 1))
        assert abs(x.var(ddof=1) - 0.25) <= 3 * se

    def test_constant_drift_mean(self):
        cfg = sd.SimConfig(x0=1.0, t_final=0.5, h=2.0**-6, n_paths=20_000, seed=5)
        ens = sd.simulate(const_model(2.0, 1.0), cfg)
        x = ens.states_at(0.5)
        se = x.std(ddof=1) / math.sqrt(x.size)
        assert abs(x.mean() - (1.0 + 2.0 * 0.5)) <= 3 * se

    def test_affine_drift_marginal_is_exact_gaussian(self):
        # For affine drift the Euler chain is exactly Gaussian with moments
        # given by the step recursion; KS at the 1% critical value.
        a, b, sig, x0, h = 0.3, -1.0, 0.8, 0.5, 2.0**-6
        model = sd.CoefficientModel(
            mu=sd.PiecewiseFunction((), (sd.Affine(a, b),)),
            sigma=sd.PiecewiseFunction((), (sd.Constant(sig),)),
        )
        cfg = sd.SimConfig(x0=x0, t_final=0.5, h=h, n_paths=100_000, seed=11)
        ens = sd.simulate(model, cfg)
        mean, var = x0, 0.0
        for _ in range(cfg.n_steps):
            mean, var = mean + (a + b * mean) * h, var * (1 + b * h) ** 2 + sig**2 * h
        ks = stats.kstest(ens.states_at(0.5), "norm", args=(mean, math.sqrt(var)))
        assert ks.statistic < 1.628 / math.sqrt(cfg.n_paths)

    def test_nonfinite_state_is_reported(self):
        model = sd.CoefficientModel(
            mu=sd.PiecewiseFunction((), (sd.Polynomial(coeffs=(0.0, 0.0, 0.0, 1.0)),)),
            sigma=sd.PiecewiseFunction((), (sd.Constant(0.0),)),
        )
        cfg = sd.SimConfig(x0=1e200, t_final=0.5, h=0.25, n_paths=3, seed=1)
        with pytest.raises(NumericsError, match=r"path \d+ .* step \d+"):
            sd.simulate(model, cfg)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_nonfinite_report_names_first_step_of_first_failing_block(self, threads):
        # cubic drift: a later block blows up at an earlier step than the first
        # failing block; the report names the first failing block's step and
        # the lowest path index in that step
        model, cfg, report = cubic_blowup()
        with pytest.raises(NumericsError) as info:
            sd.simulate(model, cfg, threads=threads)
        assert str(info.value) == report


class TestRecordingPlan:
    CFG = sd.SimConfig(x0=0.0, t_final=0.25, h=2.0**-5, n_paths=5_000, seed=12)

    def test_partial_record_stores_the_full_run_columns(self, bm_model):
        full = sd.simulate(bm_model, self.CFG, threads=2)
        part = sd.simulate(bm_model, self.CFG, threads=2, record=[8, 3, 4, 5, 8])
        assert part.recorded == (3, 4, 5, 8)
        assert np.array_equal(part.states, full.states[:, [3, 4, 5, 8]])
        assert np.array_equal(part.band(3, 5), full.band(3, 5))
        assert np.array_equal(part.states_at(0.25), full.states_at(0.25))

    def test_unrecorded_step_is_an_alignment_error(self, bm_model):
        part = sd.simulate(bm_model, self.CFG, record=[3, 4, 6, 8])
        with pytest.raises(ConfigError, match=r"grid step 7 \(t=0.21875\) was not recorded"):
            part.states_at(0.21875)
        with pytest.raises(ConfigError, match="grid step 5 "):
            part.band(3, 8)
        with pytest.raises(ConfigError, match="grid step 2 "):
            part.band(2, 4)

    def test_record_outside_the_grid_rejected(self, bm_model):
        with pytest.raises(ConfigError, match="0..8"):
            sd.simulate(bm_model, self.CFG, record=[0, 9])

    def test_partial_ensemble_cannot_be_saved(self, bm_model, tmp_path):
        part = sd.simulate(bm_model, self.CFG, record=[8])
        with pytest.raises(ConfigError, match="recorded 1 of 9"):
            sd.save_ensemble(tmp_path / "paths.bin", part)
        assert not (tmp_path / "paths.bin").exists()

    @pytest.mark.parametrize("threads", [1, 2])
    def test_nonfinite_report_is_the_same_under_a_partial_record(self, threads):
        # the case of test_nonfinite_report_names_first_step_of_first_failing_block,
        # recording only t_final: the failing block is re-run in full to name the step
        model, cfg, report = cubic_blowup()
        with pytest.raises(NumericsError) as info:
            sd.simulate(model, cfg, threads=threads, record=[cfg.n_steps])
        assert str(info.value) == report

    @pytest.mark.parametrize("threads", [1, 2])
    def test_nonfinite_report_is_the_same_with_the_band_pass_on(self, threads):
        # the same case, with a remainder pass whose band (steps 6..16) holds the
        # blow-up: the pass sees the non-finite states without raising or warning
        model, cfg, report = cubic_blowup()
        w = sd.LocalWindow(xi=0.0, delta=1.0, delta0=0.5, l_sigma=1.0)
        g = sd.drift_functional(model.mu, sd.build_sigma_star(model.sigma, w))
        kernel = RemainderPass(g, w, cfg.h, cfg.n_steps, (1, 4, 10))
        assert kernel.steps == range(6, 17)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericsError) as info:
                sd.simulate(model, cfg, threads=threads, record=[cfg.n_steps],
                            band_pass=kernel)
        assert str(info.value) == report


class TestDeterminism:
    def test_threads_do_not_change_bits(self, bm_model):
        cfg = sd.SimConfig(x0=0.0, t_final=0.125, h=2.0**-7, n_paths=9_000, seed=77)
        a = sd.simulate(bm_model, cfg, threads=1)
        b = sd.simulate(bm_model, cfg, threads=4)
        assert np.array_equal(a.states, b.states)

    def test_same_seed_same_paths(self, bm_model):
        cfg = sd.SimConfig(x0=0.0, t_final=0.125, h=2.0**-7, n_paths=5_000, seed=78)
        assert np.array_equal(sd.simulate(bm_model, cfg).states,
                              sd.simulate(bm_model, cfg).states)

    def test_path_noise_independent_of_n_paths(self, bm_model):
        cfg1 = sd.SimConfig(x0=0.0, t_final=0.125, h=2.0**-7, n_paths=3_000, seed=79)
        cfg2 = sd.SimConfig(x0=0.0, t_final=0.125, h=2.0**-7, n_paths=6_000, seed=79)
        a = sd.simulate(bm_model, cfg1)
        b = sd.simulate(bm_model, cfg2)
        assert np.array_equal(a.states, b.states[:3_000])

    def test_stream_ids(self, bm_ensemble):
        # path 5000 is row 5000 - 4096 of block 1, whose stream key is (seed, 1)
        cfg = bm_ensemble.config
        assert bm_ensemble.rng_streams.key(0).tolist() == [cfg.seed, 0]
        assert bm_ensemble.rng_streams.key(1).tolist() == [cfg.seed, 1]
        for path, block, row in ((0, 0, 0), (5000, 1, 5000 - 4096)):
            dw = math.sqrt(cfg.h) * block_normals(cfg.seed, block, cfg.n_steps)[row]
            expected = np.cumsum(np.concatenate([[cfg.x0], dw]))
            assert np.array_equal(bm_ensemble.states[path], expected)


def block_normals(seed, block, n_steps):
    """The normals of path block `block`: row i drives path block * 4096 + i."""
    gen = np.random.Generator(np.random.SFC64(np.random.SeedSequence([seed, block])))
    return gen.standard_normal((n_steps, 4096)).T


def cubic_blowup():
    """A cubic-drift run of two blocks that turns non-finite, and the report
    ``simulate`` must give, both derived from ``block_normals``.

    The seed is one where block 1 turns non-finite at an earlier step than
    block 0 (11 against 12), so the report must name the first failing
    block's first bad step, not the earliest bad step of any block.
    """
    model = sd.CoefficientModel(
        mu=sd.PiecewiseFunction((), (sd.Polynomial(coeffs=(0.0, 0.0, 0.0, 1.0)),)),
        sigma=sd.PiecewiseFunction((), (sd.Constant(1.5),)),
    )
    cfg = sd.SimConfig(x0=0.0, t_final=1.0, h=2.0**-4, n_paths=6000, seed=2)
    first_bad = []  # per block: (first non-finite step, lowest path index at it)
    for block in (0, 1):
        g = block_normals(cfg.seed, block, cfg.n_steps)[:cfg.n_paths - block * 4096]
        x = np.full(len(g), cfg.x0)
        with np.errstate(all="ignore"):
            for k in range(1, cfg.n_steps + 1):
                x = x + model.mu(x) * cfg.h + (math.sqrt(cfg.h) * g[:, k - 1]) * model.sigma(x)
                if not np.all(np.isfinite(x)):
                    first_bad.append((k, block * 4096 + int(np.argmin(np.isfinite(x)))))
                    break
    (k, path), (k_later, _) = first_bad
    assert k_later < k  # the scenario the report is checked on
    return model, cfg, f"path {path} became non-finite at step {k} (t={k * cfg.h})"


def euler_z(ens, model, eps, t):
    """The frozen-coefficient step from t - eps to t, per path:

        Z = X_{t-eps} + eps mu(X_{t-eps}) + sigma(X_{t-eps}) (W_t - W_{t-eps})

    with the Brownian increments that drove ``ens``, added in step order, so
    that for unit sigma and zero drift Z is the simulated X_t bit for bit.
    """
    k0, k_end = ens.config.step(t - eps), ens.config.step(t)
    cfg = ens.config
    n_blocks = -(-cfg.n_paths // 4096)
    g = np.concatenate([block_normals(cfg.seed, b, k_end)[:, k0:]
                        for b in range(n_blocks)])[:cfg.n_paths]
    x0s = ens.states_at(t - eps)
    sig0 = model.sigma(x0s)
    z = x0s + eps * model.mu(x0s)
    for col in g.T:
        z = z + sig0 * (math.sqrt(cfg.h) * col)
    return z


class TestNoiseContract:
    """Path i is driven by row i % 4096 of one (n_steps, 4096) draw from the SFC64
    generator seeded by SeedSequence([seed, i // 4096]), scaled by sqrt(h) and
    then by sigma at the pre-step state."""

    @pytest.mark.parametrize("seed, block, first", [
        (20240801, 0, ("-0x1.17357f34fd8cbp+0", "-0x1.b3fee5cd04bf5p-1", "0x1.ba8da0dd28dd0p+0",
                       "0x1.80ba2fea0d292p-3", "0x1.6c08defd6708dp+0", "0x1.df58a73323f7ep-4",
                       "-0x1.2c272908bd9f2p+0", "0x1.09f676324ae8ep+0")),
        (2**64 - 1, 1, ("0x1.71f0699189720p+0", "-0x1.4989fac1bf6abp-1", "-0x1.6ef0ba33d5893p-1",
                        "-0x1.37a6a4077af83p-1", "0x1.ca61223ce7e82p-3", "-0x1.37f9af0b2addfp-1",
                        "0x1.0f17e2d2df795p+1", "0x1.128ff92909156p+0")),
    ], ids=["seed-20240801-block-0", "seed-2**64-1-block-1"])
    def test_golden_stream(self, seed, block, first):
        # NumPy does not freeze Generator distributions across releases; if a
        # release changes this stream, every output moves, and this fails first
        _, normals = next(_noise(RngStreams(seed=seed, block_paths=BLOCK_PATHS), block, 1))
        assert [v.hex() for v in normals[0, :8].tolist()] == list(first)

    def test_driftless_unit_sigma_is_the_running_sum_of_the_noise(self, bm_model):
        # two blocks, the last one partial; 130 steps is not a whole number of
        # the simulator's noise chunks
        cfg = sd.SimConfig(x0=0.5, t_final=130 * 2.0**-8, h=2.0**-8, n_paths=5_000, seed=2024)
        ens = sd.simulate(bm_model, cfg, threads=2)
        assert cfg.n_steps == 130
        sqrth = math.sqrt(cfg.h)
        dw = np.concatenate([block_normals(cfg.seed, b, cfg.n_steps) for b in (0, 1)])
        dw = sqrth * dw[:cfg.n_paths]
        start = np.full((cfg.n_paths, 1), cfg.x0)
        expected = np.cumsum(np.concatenate([start, dw], axis=1), axis=1)
        assert np.array_equal(ens.states, expected)

    def test_gbm_step_evaluates_sigma_before_the_drift_moves_the_state(self):
        # gbm: sigma(x) = 0.25 x, so sigma at X_k + mu(X_k) h would change the bits
        model = sd.preset("gbm").model
        cfg = sd.SimConfig(x0=2.0, t_final=0.25, h=2.0**-6, n_paths=5_000, seed=5)
        ens = sd.simulate(model, cfg, threads=2)
        g = np.concatenate([block_normals(cfg.seed, b, cfg.n_steps) for b in (0, 1)])
        g = g[:cfg.n_paths]
        sqrth = math.sqrt(cfg.h)
        for k in range(cfg.n_steps):
            x = ens.states[:, k]
            step = (x + model.mu(x) * cfg.h) + (sqrth * g[:, k]) * model.sigma(x)
            assert np.array_equal(ens.states[:, k + 1], step)


class TestEulerZ:
    """The simulated paths against the frozen-coefficient step ``euler_z``."""

    def test_driftless_unit_sigma_reproduces_endpoint(self, bm_model, bm_ensemble):
        z = euler_z(bm_ensemble, bm_model, eps=0.125, t=0.25)
        assert np.array_equal(z, bm_ensemble.states_at(0.25))

    def test_one_step_reproduces_endpoint_with_state_dependent_sigma(self):
        # gbm: sigma(x) = 0.25 x, so the simulated step must evaluate sigma at
        # X_k, not at the post-drift state, for Z with eps = h to be that step
        model = sd.preset("gbm").model
        cfg = sd.SimConfig(x0=2.0, t_final=0.25, h=2.0**-6, n_paths=5_000, seed=5)
        ens = sd.simulate(model, cfg, threads=2)
        z = euler_z(ens, model, eps=cfg.h, t=0.25)
        assert np.array_equal(z, ens.states_at(0.25))

    def test_deterministic_stub(self):
        # sigma = 0: the Euler chain adds h * mu per step, Z adds eps * mu at once
        model = const_model(2.0, 0.0)
        cfg = sd.SimConfig(x0=1.0, t_final=0.25, h=2.0**-6, n_paths=100, seed=3)
        ens = sd.simulate(model, cfg)
        eps = 0.125
        z = euler_z(ens, model, eps=eps, t=0.25)
        x0s = ens.states_at(0.25 - eps)
        assert np.array_equal(z, x0s + eps * model.mu(x0s))
        np.testing.assert_allclose(ens.states_at(0.25), z, rtol=0.0, atol=1e-12)

    def test_off_grid_times_rejected(self, bm_model, bm_ensemble):
        with pytest.raises(ConfigError, match=r"^t=0\.1499 is not on the simulation grid"):
            euler_z(bm_ensemble, bm_model, eps=0.1001, t=0.25)

    def test_lipschitz_drift_gap_scaling(self):
        # |X_t - Z| = |int g(X_s) - g(X_{t-eps}) ds| for unit sigma, and the
        # running increment of a Lipschitz drift integrates to eps^{3/2}
        model = sd.CoefficientModel(
            mu=sd.PiecewiseFunction((-2.0, 2.0), (sd.Constant(-2.0),
                                                  sd.Affine(0.0, 1.0),
                                                  sd.Constant(2.0))),
            sigma=sd.PiecewiseFunction((), (sd.Constant(1.0),)),
        )
        cfg = sd.SimConfig(x0=0.0, t_final=0.125, h=2.0**-12, n_paths=20_000, seed=21)
        ens = sd.simulate(model, cfg)
        eps_list = [2.0**-k for k in range(4, 10)]
        gaps = []
        for eps in eps_list:
            z = euler_z(ens, model, eps=eps, t=0.125)
            gaps.append(np.mean(np.abs(ens.states_at(0.125) - z)))
        slope = np.polyfit(np.log(eps_list), np.log(gaps), 1)[0]
        assert slope == pytest.approx(1.5, abs=0.2)


def stays_in_window(ens, w, eps, t):
    """Per path: every grid state in [t - eps, t] lies in the closed window,
    the event the remainder's indicator (``bounds.BlockRemainder``) counts."""
    band = ens.band(ens.config.step(t - eps), ens.config.step(t))
    return np.all(in_window(band, w), axis=1)


class TestLocalization:
    def test_constant_path_inside(self):
        ens = sd.simulate(const_model(0.0, 0.0),
                          sd.SimConfig(x0=0.0, t_final=0.25, h=2.0**-4, n_paths=10, seed=1))
        w = sd.LocalWindow(xi=0.0, delta=1.0, delta0=0.5, l_sigma=1.0)
        assert np.all(stays_in_window(ens, w, eps=0.125, t=0.25))

    def test_escaped_path_is_false(self):
        ens = sd.simulate(const_model(40.0, 0.0),
                          sd.SimConfig(x0=0.0, t_final=0.25, h=2.0**-4, n_paths=10, seed=1))
        w = sd.LocalWindow(xi=0.0, delta=2.0, delta0=0.5, l_sigma=1.0)
        assert not np.any(stays_in_window(ens, w, eps=0.125, t=0.25))

    def test_fraction_monotone_in_shrinking_eps(self, bm_ensemble):
        w = sd.LocalWindow(xi=0.0, delta=1.0, delta0=0.25, l_sigma=1.0)
        fracs = [np.mean(stays_in_window(bm_ensemble, w, eps, 0.25))
                 for eps in (0.125, 0.0625, 0.03125)]
        assert fracs[0] <= fracs[1] <= fracs[2]


class TestStoppedMoment:
    def test_single_step_matches_gaussian(self, bm_model, bm_ensemble):
        w = sd.LocalWindow(xi=0.0, delta=6.0, delta0=1.0, l_sigma=1.0)
        h = bm_ensemble.config.h
        est = sd.stopped_increment_moment(bm_ensemble, w, eps=h, t=0.25, p=2.0)
        assert est.within(1.0 * h, k=3.0)

    def test_deterministic_bound(self):
        model = const_model(1.5, 0.0)
        ens = sd.simulate(model, sd.SimConfig(x0=0.0, t_final=0.25, h=2.0**-6,
                                              n_paths=50, seed=2))
        w = sd.LocalWindow(xi=0.0, delta=5.0, delta0=1.0, l_sigma=1.0)
        eps = 0.125
        est = sd.stopped_increment_moment(ens, w, eps=eps, t=0.25, p=3.0)
        assert est.value <= (1.5 * eps) ** 3 + 1e-12


def exit_probability(ens, w, eps, t):
    """MC estimate of P( X_{t-eps} in B_{delta - delta0/2}(xi) and the path
    reaches the open window's boundary before t ), by ``_first_exit``."""
    band = ens.band(ens.config.step(t - eps), ens.config.step(t))
    start_in = np.abs(band[:, 0] - w.xi) < w.delta - w.delta0 / 2.0
    exited_before_t = _first_exit(band, w) <= band.shape[1] - 2
    return mean_se((start_in & exited_before_t).astype(float))


@pytest.fixture(scope="module")
def tight_window_run(bm_model):
    cfg = sd.SimConfig(x0=0.0, t_final=0.5, h=2.0**-10, n_paths=20_000, seed=31)
    ens = sd.simulate(bm_model, cfg)
    w = sd.LocalWindow(xi=0.0, delta=0.6, delta0=0.4, l_sigma=1.0)
    return ens, w


class TestExitProbability:
    def test_far_boundary_never_exits(self, bm_ensemble):
        w = sd.LocalWindow(xi=0.0, delta=25.0, delta0=1.0, l_sigma=1.0)
        est = exit_probability(bm_ensemble, w, eps=bm_ensemble.config.h, t=0.25)
        assert est.value == 0.0

    def test_monotone_decreasing_in_eps(self, tight_window_run):
        ens, w = tight_window_run
        probs = [exit_probability(ens, w, eps, 0.5) for eps in (2.0**-4, 2.0**-6, 2.0**-8)]
        for big, small in zip(probs, probs[1:]):
            assert small.value <= big.value + 3 * (big.std_error + small.std_error)

    def test_quadratic_envelope_from_fit(self, tight_window_run):
        # p = 4 instance of the exit bound: P <= C eps^2 with C fitted on the
        # two largest lookbacks must cover all smaller ones
        ens, w = tight_window_run
        eps_list = [2.0**-k for k in range(4, 9)]
        ests = [exit_probability(ens, w, eps, 0.5) for eps in eps_list]
        c = max(e.value / eps**2 for e, eps in zip(ests[:2], eps_list[:2]))
        for e, eps in zip(ests[2:], eps_list[2:]):
            assert e.value <= c * eps**2 + 3 * e.std_error


class TestEnsembleArtifact:
    def test_round_trip(self, bm_model, tmp_path):
        cfg = sd.SimConfig(x0=0.5, t_final=0.25, h=2.0**-5, n_paths=300, seed=9)
        ens = sd.simulate(bm_model, cfg)
        path = tmp_path / "paths.bin"
        sd.save_ensemble(path, ens)
        back = sd.load_ensemble(path)
        assert np.array_equal(back.states, ens.states)
        assert back.config == cfg

    def test_save_and_load_hold_one_copy_of_the_states(self, bm_model, tmp_path):
        # save writes the array's own buffer; load reads the body into the one
        # array it returns
        cfg = sd.SimConfig(x0=0.0, t_final=0.25, h=2.0**-5, n_paths=20_000, seed=9)
        ens = sd.simulate(bm_model, cfg)
        path = tmp_path / "paths.bin"
        tracemalloc.start()
        try:
            sd.save_ensemble(path, ens)
            saved = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            back = sd.load_ensemble(path)
            loaded = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(back.states, ens.states)
        assert saved < ens.states.nbytes / 2
        assert loaded < 1.5 * ens.states.nbytes

    def test_bad_magic_rejected(self, tmp_path):
        p = tmp_path / "junk.bin"
        p.write_bytes(b"NOTAPATH" + b"\x00" * 64)
        with pytest.raises(ConfigError):
            sd.load_ensemble(p)

    def test_truncated_body_rejected(self, bm_model, tmp_path):
        cfg = sd.SimConfig(x0=0.0, t_final=0.25, h=2.0**-5, n_paths=10, seed=9)
        path = tmp_path / "paths.bin"
        sd.save_ensemble(path, sd.simulate(bm_model, cfg))
        full = path.read_bytes()
        path.write_bytes(full[:-8])
        with pytest.raises(ConfigError) as info:
            sd.load_ensemble(path)
        msg = str(info.value)
        assert str(path) in msg
        assert f"expected {len(full)} bytes" in msg and f"got {len(full) - 8}" in msg

    def test_short_header_rejected(self, tmp_path):
        p = tmp_path / "short.bin"
        p.write_bytes(b"SDEPATH1" + b"\x00" * 4)
        with pytest.raises(ConfigError, match="expected 64 bytes, got 12"):
            sd.load_ensemble(p)
