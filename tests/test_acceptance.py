"""Acceptance suite.

Each test exercises one acceptance criterion end to end at its stated
tolerance and prints a single PASS/FAIL line.  Run with `pytest -s
tests/test_acceptance.py` to see the lines as they complete.  All runs are
seeded, so outcomes are reproducible bit for bit.
"""

import json
import math
import time

import numpy as np
import pytest

import sdedensity as sd
from sdedensity.cli import main as cli_main
from sdedensity.config import PRESETS, RunConfig

from helpers import decay_constant_refinement_oracle, drift_g, loglog_slope, report_of


def report(number: int, name: str, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {number} {name}: {verdict} ({detail})", flush=True)
    assert ok, f"criterion {number} {name}: {detail}"


def gaussian_target(phi, xs):
    return phi(xs) * np.exp(-xs**2 / 2) / math.sqrt(2 * math.pi)


class TestCriterion1GaussianEndToEnd:
    def test_gaussian_end_to_end(self):
        t_start = time.monotonic()
        model = sd.CoefficientModel(
            mu=sd.PiecewiseFunction((), (sd.Constant(0.0),)),
            sigma=sd.PiecewiseFunction((), (sd.Constant(1.0),)),
        )
        w = sd.LocalWindow(xi=0.0, delta=6.0, delta0=1.0, l_sigma=1.0)
        phi = sd.make_bump(w, 0.2)
        s = sd.build_sigma_star(model.sigma, w)
        lam = sd.build_lamperti_map(s)
        cfg = sd.SimConfig(x0=0.0, t_final=1.0, h=2.0**-6, n_paths=1_000_000,
                           seed=20240801)
        ens = sd.simulate(model, cfg, threads=2)

        grid = sd.FrequencyGrid.uniform(16.0, 1.0 / 16.0)
        cf = sd.estimate_localized(ens, phi, lam, grid, 1.0, threads=2)
        xg = np.linspace(lam.forward_many(phi.a), lam.forward_many(phi.b), 501)
        q = sd.pushforward(sd.invert(cf, xg), lam, s)
        mc_err = float(np.max(np.abs(q.values - gaussian_target(phi, q.x_grid))))

        # same inverter fed the exact localized CF instead of the MC estimate
        rm = sd.brownian_drift(0.0, 1.0, 0.0)
        grid_a = sd.FrequencyGrid.uniform(96.0, 1.0 / 16.0)
        ys = grid_a.values[grid_a.half_count:]
        cf_exact = sd.CharFnEstimate.from_values(
            np.exp(-1j * ys * w.lo) * sd.localized_cf(rm, phi, 1.0, ys), grid_a, t=1.0)
        qa = sd.pushforward(sd.invert(cf_exact, xg), lam, s)
        an_err = float(np.max(np.abs(qa.values - gaussian_target(phi, qa.x_grid))))

        elapsed = time.monotonic() - t_start
        ok = mc_err <= 5e-3 and an_err <= 1e-5 and elapsed <= 120.0
        report(1, "gaussian_end_to_end", ok,
               f"mc_sup_err={mc_err:.2e} (tol 5e-3), analytic_sup_err={an_err:.2e} "
               f"(tol 1e-5), elapsed={elapsed:.0f}s (limit 120s)")


class TestCriterion2GbmLamperti:
    def test_gbm_full_pipeline(self):
        rm = sd.geometric_bm(0.05, 0.25, 2.0)
        model = sd.as_coefficient_model(rm)
        w = sd.LocalWindow(xi=2.0, delta=1.0, delta0=0.25, l_sigma=0.25)
        phi = sd.make_bump(w, 0.25)
        s = sd.build_sigma_star(model.sigma, w)
        lam = sd.build_lamperti_map(s)
        cfg = sd.SimConfig(x0=2.0, t_final=1.0, h=2.0**-8, n_paths=1_000_000,
                           seed=20240803)
        ens = sd.simulate(model, cfg, threads=2)
        grid = sd.FrequencyGrid.uniform(32.0, 1.0 / 8.0)
        cf = sd.estimate_localized(ens, phi, lam, grid, 1.0, threads=2)
        xg = np.linspace(lam.forward_many(phi.a), lam.forward_many(phi.b), 501)
        q = sd.pushforward(sd.invert(cf, xg), lam, s)
        target = phi(q.x_grid) * sd.exact_density(rm, 1.0, q.x_grid)
        err = float(np.max(np.abs(q.values - target)))
        ok = err <= 1e-2
        report(2, "gbm_lamperti_oracle", ok, f"sup_err={err:.2e} (tol 1e-2)")


class TestCriterion3MomentScaling:
    def test_stopped_moment_slopes(self):
        model = sd.sign_drift_model(-1.0)
        w = sd.LocalWindow(xi=0.0, delta=1.0, delta0=0.5, l_sigma=1.0)
        cfg = sd.SimConfig(x0=0.0, t_final=0.125, h=2.0**-14, n_paths=100_000,
                           seed=20240805)
        ens = sd.simulate(model, cfg, threads=2)
        eps_list = [2.0**-k for k in range(4, 10)]
        details = []
        ok = True
        for p in (1.0, 2.0, 4.0):
            vals = [sd.stopped_increment_moment(ens, w, eps, 0.125, p).value
                    for eps in eps_list]
            slope = loglog_slope(eps_list, vals)
            details.append(f"p={p:g}: slope={slope:.3f} (target {p / 2:g}+-0.15)")
            ok = ok and abs(slope - p / 2) <= 0.15
        report(3, "moment_scaling", ok, "; ".join(details))


class TestCriterion4RemainderScaling:
    def test_lipschitz_drift_slope(self):
        model = sd.CoefficientModel(
            mu=sd.PiecewiseFunction((-2.0, 2.0), (sd.Constant(-2.0),
                                                  sd.Affine(0.0, 1.0),
                                                  sd.Constant(2.0))),
            sigma=sd.PiecewiseFunction((), (sd.Constant(1.0),)),
        )
        w = sd.LocalWindow(xi=0.0, delta=2.0, delta0=0.5, l_sigma=1.0)
        cfg = sd.SimConfig(x0=0.0, t_final=0.125, h=2.0**-13, n_paths=100_000,
                           seed=20240806)
        ens = sd.simulate(model, cfg, threads=2)
        eps_list = [2.0**-k for k in range(4, 10)]
        g = drift_g(model, w)
        vals = [sd.remainder(ens, g, w, eps, 0.125).value for eps in eps_list]
        slope = loglog_slope(eps_list, vals)

        const = sd.CoefficientModel(
            mu=sd.PiecewiseFunction((), (sd.Constant(1.0),)),
            sigma=sd.PiecewiseFunction((), (sd.Constant(1.0),)),
        )
        ens_c = sd.simulate(const, sd.SimConfig(x0=0.0, t_final=0.125, h=2.0**-8,
                                                n_paths=5_000, seed=1))
        zero = sd.remainder(ens_c, drift_g(const, w), w, 2.0**-4, 0.125).value
        ok = abs(slope - 1.5) <= 0.2 and zero == 0.0
        report(4, "remainder_scaling", ok,
               f"lipschitz slope={slope:.3f} (target 1.5+-0.2); "
               f"constant-drift remainder={zero} (exact 0)")


class TestCriterion5BoundSatisfaction:
    def test_matched_lookback_bound(self):
        model = sd.sign_drift_model(-1.0)
        w = sd.LocalWindow(xi=0.0, delta=2.0, delta0=0.5, l_sigma=1.0)
        phi = sd.make_bump(w, 0.2)
        s = sd.build_sigma_star(model.sigma, w)
        lam = sd.build_lamperti_map(s)
        grid = sd.FrequencyGrid.uniform(128.0, 0.25)
        t = 0.5
        pos = grid.positive()
        y_check = pos[(pos > math.e) & (pos <= 128.0)]

        reports = {}
        for n_paths in (200_000, 400_000):
            cfg = sd.SimConfig(x0=0.0, t_final=t, h=2.0**-10, n_paths=n_paths,
                               seed=20240807)
            ens = sd.simulate(model, cfg, threads=2)
            cf = sd.estimate_localized(ens, phi, lam, grid, t, threads=2)
            reports[n_paths] = (ens, cf)

        ens1, cf1 = reports[200_000]
        g = drift_g(model, w)
        rep1 = report_of(cf1, ens1, g, w, t, y_check)
        c1 = rep1.c_fit
        ens2, cf2 = reports[400_000]
        rep2_cross = report_of(cf2, ens2, g, w, t, y_check, c=c1)
        rep2 = report_of(cf2, ens2, g, w, t, y_check)
        ratio = rep2.c_fit / c1
        ok = (rep2_cross.pass_fraction >= 0.95
              and rep1.pass_fraction >= 0.95
              and max(ratio, 1.0 / ratio) <= 1.5)
        report(5, "bound_satisfaction", ok,
               f"pass_fraction={rep2_cross.pass_fraction:.3f} at doubled paths with "
               f"c_fit={c1:.3f} from the base run (need >=0.95); "
               f"c_fit ratio under doubling={ratio:.3f} (need <=1.5)")


class TestCriterion6HoelderCertification:
    def test_norm_stability(self):
        model = sd.sign_drift_model(-1.0)
        w = sd.LocalWindow(xi=0.0, delta=2.0, delta0=0.5, l_sigma=1.0)
        phi = sd.make_bump(w, 0.2)
        s = sd.build_sigma_star(model.sigma, w)
        lam = sd.build_lamperti_map(s)
        cfg = sd.SimConfig(x0=0.0, t_final=1.0, h=2.0**-10, n_paths=200_000,
                           seed=20240808)
        ens = sd.simulate(model, cfg, threads=2)
        grid = sd.FrequencyGrid.uniform(32.0, 1.0 / 8.0)
        lo, hi = lam.forward_many(phi.a), lam.forward_many(phi.b)
        norms = {}
        for t in (0.25, 0.5, 0.75, 1.0):
            cf = sd.estimate_localized(ens, phi, lam, grid, t, threads=2)
            row = {}
            for n_x in (257, 513):
                xg = np.linspace(lo, hi, n_x)
                q = sd.pushforward(sd.invert(cf, xg), lam, s)
                row[n_x] = sd.holder_norm(q.x_grid, q.values, 0.5)
            norms[t] = row
        coarse = np.array([norms[t][257] for t in sorted(norms)])
        fine = np.array([norms[t][513] for t in sorted(norms)])
        growth = float(np.max(fine / coarse))
        spread = float(np.max(fine) / np.min(fine))
        finite = bool(np.all(np.isfinite(fine)) and np.all(np.isfinite(coarse)))
        ok = finite and growth <= 1.1 and spread <= 2.0
        report(6, "hoelder_certification", ok,
               f"norms(t)={[f'{v:.3f}' for v in fine]}, grid-halving growth="
               f"{growth:.3f} (need <=1.1), t-spread={spread:.2f} (need <=2)")


class TestCriterion7DecaySmoothnessContract:
    def test_synthetic_caps_and_constant(self):
        rng = np.random.default_rng(20240809)
        gammas = (0.3, 0.5, 0.7)
        worst = 0.0
        cases = 0
        for gamma in gammas:
            d_g = sd.decay_smoothness_constant(gamma)
            oracle = decay_constant_refinement_oracle(gamma)
            assert d_g == pytest.approx(oracle, rel=1e-4)
            for _ in range(7):
                if cases >= 20:
                    break
                c = float(rng.uniform(0.3, 8.0))
                a = float(rng.uniform(0.2, 2.0))
                b = float(rng.uniform(0.0, 3.0))
                kind = cases % 3

                def cap(y, c=c, a=a, b=b, kind=kind, gamma=gamma):
                    base = c * (1 + abs(y)) ** (-(1 + gamma))
                    if kind == 0:
                        return base
                    if kind == 1:
                        return base * abs(math.cos(a * y)) * complex(
                            math.cos(b * y / (1 + y * y)), math.sin(b * y / (1 + y * y)))
                    return base / (1 + a * y * y) * complex(math.cos(b * y),
                                                            math.sin(b * y))

                cf = sd.CharFnEstimate.from_function(
                    cap, sd.FrequencyGrid.uniform(64.0, 1.0 / 16.0))
                xs = np.linspace(-12, 12, 801)
                p = sd.invert(cf, xs)
                ratio = sd.holder_norm(p.x_grid, p.values, gamma) / (d_g * c)
                worst = max(worst, ratio)
                cases += 1
        ok = cases == 20 and worst <= 1.05
        report(7, "decay_smoothness_contract", ok,
               f"{cases} synthetic capped CFs, worst norm/(constant*c)={worst:.3f} "
               f"(need <=1.05); constant matches refinement oracle to 1e-4")


class TestCriterion8Determinism:
    def test_all_commands_byte_identical(self, tmp_path):
        cfg = {
            "model": {
                "mu": {"breakpoints": [0.0],
                       "pieces": [{"kind": "constant", "value": 1.0},
                                  {"kind": "constant", "value": -1.0}]},
                "sigma": {"breakpoints": [], "pieces": [{"kind": "constant", "value": 1.0}]},
            },
            "window": {"xi": 0.0, "delta": 2.0, "delta0": 0.5, "l_sigma": 1.0},
            "cutoff": {"shoulder_fraction": 0.2},
            "simulation": {"x0": 0.0, "t": 0.25, "h": 2.0**-7, "n_paths": 6000,
                           "seed": 424242},
            "frequency_grid": {"y_max": 8.0, "spacing": 0.25},
            "inversion": {"n_points": 101, "margin": 0.05},
            "bounds": {"gamma": 0.5, "eps_rule": "matched", "y_lo": math.e, "y_hi": 8.0},
            "density": {"t_list": [0.125, 0.25]},
            "hoelder": {"gamma_list": [0.4, 0.6], "t_list": [0.25]},
            "certify": {"checks": ["cf_sanity", "mass_consistency"], "mass_slack": 5e-3},
        }
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(cfg))
        commands = ("simulate", "cf", "bound", "density", "hoelder", "certify")
        mismatches = []
        for command in commands:
            digests = []
            for run, threads in (("r1", 1), ("r2", 8)):
                out = tmp_path / f"{command}_{run}"
                code = cli_main([command, "--config", str(cfg_path), "--out", str(out),
                                 "--threads", str(threads)])
                assert code == 0, f"{command} exited {code}"
                blob = {f.name: f.read_bytes() for f in sorted(out.iterdir())}
                digests.append(blob)
            if digests[0] != digests[1]:
                mismatches.append(command)
        ok = not mismatches
        report(8, "cli_determinism", ok,
               f"all 6 commands byte-identical at 1 and 8 threads"
               if ok else f"mismatch in: {mismatches}")


class TestCriterion9CfSanity:
    def test_all_presets(self):
        details = []
        ok = True
        for name, raw in PRESETS.items():
            quick = json.loads(json.dumps(raw))
            quick["simulation"]["n_paths"] = 20_000
            cfg = RunConfig.from_dict(quick)
            pipe = sd.Pipeline(cfg, threads=2)
            cf = pipe.cf_at(cfg.simulation.t_final)
            sup_excess = float(np.max(np.abs(cf.values) - 3.0 * cf.std_errors)) - 1.0
            m = cf.grid.half_count
            symmetric = bool(np.array_equal(
                cf.values[:m], np.conj(cf.values[m + 1:][::-1])))
            this_ok = sup_excess <= 0.0 and symmetric
            ok = ok and this_ok
            details.append(f"{name}: max(|cf|-3se)-1={sup_excess:.2e}, "
                           f"symmetry={'exact' if symmetric else 'BROKEN'}")
        report(9, "cf_sanity", ok, "; ".join(details))
