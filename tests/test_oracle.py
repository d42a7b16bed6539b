import copy
import json
import math

import numpy as np
import pytest
from scipy import integrate

import sdedensity as sd
from sdedensity import oracle
from sdedensity.cli import main
from sdedensity.config import PRESETS


class TestExactDensity:
    def test_standard_normal_peak(self):
        rm = sd.ReferenceModel("brownian_drift", mu0=0.0, sigma0=1.0, x0=0.0)
        assert sd.exact_density(rm, 1.0, 0.0) == pytest.approx(1.0 / math.sqrt(2 * math.pi),
                                                               rel=1e-14)

    def test_ou_deterministic_start_variance(self):
        theta, sig0 = 1.0, math.sqrt(2.0)
        rm = sd.ReferenceModel("ornstein_uhlenbeck", theta=theta, sigma0=sig0, x0=0.5)
        _, loc, scale = rm.marginal(0.3)
        assert loc == pytest.approx(0.5 * math.exp(-0.3))
        assert scale**2 == pytest.approx(sig0**2 * (1 - math.exp(-0.6)) / (2 * theta))

    def test_lognormal_matches_log_map(self):
        rm = sd.ReferenceModel("geometric_bm", mu0=0.05, sigma0=0.25, x0=2.0)
        t = 0.8
        _, m, s = rm.marginal(t)
        xs = np.linspace(0.5, 5.0, 40)
        pushed = np.exp(-0.5 * ((np.log(xs) - m) / s) ** 2) / (xs * s * math.sqrt(2 * math.pi))
        np.testing.assert_allclose(sd.exact_density(rm, t, xs), pushed, rtol=1e-12)

    def test_integrates_to_one(self):
        for rm, dom in [
            (sd.ReferenceModel("brownian_drift", mu0=0.5, sigma0=1.2, x0=0.0),
             (-np.inf, np.inf)),
            (sd.ReferenceModel("ornstein_uhlenbeck", theta=2.0, sigma0=1.0, x0=0.3),
             (-np.inf, np.inf)),
            (sd.ReferenceModel("geometric_bm", mu0=0.05, sigma0=0.25, x0=2.0), (1e-12, np.inf)),
        ]:
            total, _ = integrate.quad(lambda x: sd.exact_density(rm, 0.7, x), *dom)
            assert total == pytest.approx(1.0, abs=1e-8)

    def test_domain_errors(self):
        with pytest.raises(sd.DomainError):
            sd.ReferenceModel("brownian_drift", mu0=0.0, sigma0=1.0, x0=0.0).marginal(0.0)
        with pytest.raises(sd.ConfigError):
            sd.ReferenceModel("geometric_bm", mu0=0.0, sigma0=0.2, x0=2.0).marginal  # ok to build
            sd.ReferenceModel(kind="geometric_bm", x0=-1.0).marginal(0.5)


class TestLocalizedCf:
    def test_zero_frequency_is_weighted_mass(self, window6):
        rm = sd.ReferenceModel("brownian_drift", mu0=0.0, sigma0=1.0, x0=0.0)
        phi = sd.make_bump(window6, 0.2)
        v = sd.localized_cf(rm, phi, 1.0, 0.0)
        direct, _ = integrate.quad(lambda x: phi(x) * sd.exact_density(rm, 1.0, x),
                                   phi.a, phi.b, epsabs=1e-12)
        assert v.imag == 0.0
        assert v.real == pytest.approx(direct, abs=1e-9)

    def test_huge_plateau_recovers_gaussian_cf(self):
        rm = sd.ReferenceModel("brownian_drift", mu0=0.3, sigma0=1.0, x0=0.0)
        phi = sd.make_plateau_sequence(8)
        for y in (0.5, 1.0, 2.0):
            target = sd.exact_cf(rm, 1.0, y)
            assert abs(sd.localized_cf(rm, phi, 1.0, y) - target) < 1e-8

    def test_even_integrand_gives_real_cf(self):
        rm = sd.ReferenceModel("brownian_drift", mu0=0.0, sigma0=1.0, x0=0.0)
        phi = sd.make_plateau_sequence(2)
        v = sd.localized_cf(rm, phi, 1.0, 1.3)
        assert abs(v.imag) <= 1e-9


def _gbm_setup():
    rm = sd.ReferenceModel("geometric_bm", mu0=0.05, sigma0=0.25, x0=2.0)
    model = sd.as_coefficient_model(rm)
    w = sd.LocalWindow(xi=2.0, delta=1.0, delta0=0.25, l_sigma=0.25)
    lam = sd.build_lamperti_map(model.sigma, w)
    return rm, sd.make_bump(w, 0.25), lam


class TestFixedNodeRule:
    @pytest.mark.parametrize("t", [1e-3, 1e-5])
    def test_narrow_off_centre_law(self, window6, t):
        # sd 0.032 at x = 0.3 (t = 1e-3): QUADPACK's QAWO missed this peak and
        # returned ~0 for y > 0.  At t = 1e-5 (sd 0.0032) a panel 0.25 wide is 79
        # sd, so the panels' 8-sd limit is what resolves the peak
        rm = sd.ReferenceModel("brownian_drift", mu0=0.0, sigma0=1.0, x0=0.3)
        phi = sd.make_bump(window6, 0.2)
        ys = np.arange(0, 97, dtype=float)
        got = sd.localized_cf(rm, phi, t, ys)
        assert np.max(np.abs(got - sd.exact_cf(rm, t, ys))) <= 1e-12

    def test_split_panels_at_high_frequency(self, monkeypatch, window6):
        # panels are at most 0.25 wide, so y = 200 has r(y) = ceil(200 * 0.25 / 40) = 2:
        # twice the nodes of y = 0.  The law lies inside the plateau, where the
        # localized CF is the Gaussian CF; unsplit panels are 2.0e-12 off here
        rm = sd.ReferenceModel("brownian_drift", mu0=0.0, sigma0=1.0, x0=0.3)
        phi = sd.make_bump(window6, 0.2)
        sizes = []
        exact = oracle.exact_density

        def spy(rm, t, x):
            sizes.append(np.size(x))
            return exact(rm, t, x)

        monkeypatch.setattr(oracle, "exact_density", spy)
        got = oracle.localized_cf(rm, phi, 1e-3, 200.0)
        oracle.localized_cf(rm, phi, 1e-3, 0.0)
        assert sizes[0] == 2 * sizes[1]
        want = sd.exact_cf(rm, 1e-3, 200.0)  # |want| = 2.1e-9
        assert abs(got - want) <= 1e-14

    def test_narrow_cli_roundtrip(self, tmp_path):
        cfg = copy.deepcopy(PRESETS["gaussian"])
        cfg["simulation"].update(t=1e-3, h=1e-4, x0=0.3, n_paths=2000)
        cfg["reference"]["x0"] = 0.3
        cfg["density"]["t_list"] = cfg["hoelder"]["t_list"] = None
        cfg["bounds"]["eps_rule"] = 5e-4
        # the other checks would read the MC density, which frequency_grid.y_max = 16
        # truncates for this narrow law
        cfg["certify"].update(checks=["analytic_roundtrip"], analytic_y_max=256.0)
        p = tmp_path / "narrow.json"
        p.write_text(json.dumps(cfg))
        assert main(["certify", "--config", str(p), "--out", str(tmp_path / "o")]) == 0
        report = json.loads((tmp_path / "o" / "certify.json").read_text())
        assert report["checks"]["analytic_roundtrip"]["value"] <= 1e-5


class TestFrequencyArrays:
    """One call over an array of frequencies evaluates the integrand once per node."""

    def test_array_equals_scalar_calls_bitwise(self, window6):
        rm = sd.ReferenceModel("brownian_drift", mu0=0.0, sigma0=1.0, x0=0.0)
        phi = sd.make_bump(window6, 0.2)
        ys = np.arange(0, 33) / 4.0
        got = sd.localized_cf(rm, phi, 1.0, ys)
        assert got.dtype == complex and got.shape == ys.shape
        assert np.array_equal(got, np.array([sd.localized_cf(rm, phi, 1.0, y) for y in ys]))

    def test_transformed_array_equals_scalar_calls_bitwise(self):
        rm, phi, lam = _gbm_setup()
        ys = np.arange(0, 17) / 2.0  # includes y = 0
        got = oracle.localized_cf_transformed(rm, phi, lam, 1.0, ys)
        want = [oracle.localized_cf_transformed(rm, phi, lam, 1.0, y) for y in ys]
        assert np.array_equal(got, np.array(want))

    @pytest.mark.parametrize("transformed", [False, True])
    def test_one_integrand_evaluation_per_node(self, monkeypatch, window6, transformed):
        nodes = []
        exact = oracle.exact_density

        def spy(rm, t, x):
            nodes.append(x)
            return exact(rm, t, x)

        monkeypatch.setattr(oracle, "exact_density", spy)
        if transformed:
            rm, phi, lam = _gbm_setup()
            oracle.localized_cf_transformed(rm, phi, lam, 1.0, np.arange(0, 17) / 2.0)
        else:
            rm = sd.ReferenceModel("brownian_drift", mu0=0.0, sigma0=1.0, x0=0.0)
            phi = sd.make_bump(window6, 0.2)
            oracle.localized_cf(rm, phi, 1.0, np.arange(0, 33) / 4.0)
        xs = np.concatenate([np.ravel(x) for x in nodes])
        assert 0 < xs.size == np.unique(xs).size


class TestSignDriftModel:
    def test_piece_values(self):
        m = sd.sign_drift_model(2.0, xi=1.0)
        assert m.mu(0.0) == -2.0
        assert m.mu(2.0) == 2.0
        assert m.mu(1.0) == 2.0  # right piece applies at the breakpoint
        assert m.sigma(123.0) == 1.0

    def test_drift_functional_is_scaled_sign(self):
        m = sd.sign_drift_model(1.5)
        w = sd.LocalWindow(xi=0.0, delta=2.0, delta0=0.5, l_sigma=1.0)
        s = sd.build_sigma_star(m.sigma, w)
        g = sd.DriftFunctional(m.mu, s)
        xs = np.array([-1.0, -0.1, 0.1, 1.0])
        np.testing.assert_array_equal(g(xs), np.array([-1.5, -1.5, 1.5, 1.5]))


class TestCrossModuleConsistency:
    def test_gbm_law_equals_transformed_bm_pushforward(self):
        # The log-scaled coordinate Y = log(x)/sigma0 of a GBM is a Brownian
        # motion with drift (mu0 - sigma0^2/2)/sigma0; pushing its Gaussian
        # law back through the map must reproduce the lognormal density.
        mu0, sig0, x0, t = 0.05, 0.25, 2.0, 1.0
        rm = sd.ReferenceModel("geometric_bm", mu0=mu0, sigma0=sig0, x0=x0)
        w = sd.LocalWindow(xi=2.0, delta=1.0, delta0=0.25, l_sigma=0.25)
        model = sd.as_coefficient_model(rm)
        lam = sd.build_lamperti_map(model.sigma, w)
        s = lam.sigma_star
        drift_bm = (mu0 - 0.5 * sig0**2) / sig0
        y0 = lam.forward_many(x0)
        rm_y = sd.ReferenceModel("brownian_drift", mu0=drift_bm, sigma0=1.0, x0=y0)
        xs = np.linspace(1.2, 2.9, 31)
        ys = lam.forward_many(xs)
        pushed = sd.exact_density(rm_y, t, ys) / np.abs(s(xs))
        np.testing.assert_allclose(pushed, sd.exact_density(rm, t, xs), rtol=1e-6)
