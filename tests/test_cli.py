import dataclasses
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from sdedensity.certify import CHECKS
from sdedensity.cli import _write_csv, cmd_certify, cmd_simulate, main
from sdedensity.config import PRESETS, Pipeline, RunConfig, preset, t_tag
from sdedensity.simulate import load_ensemble, simulate
from sdedensity.errors import ConfigError
from sdedensity.util import unique


def _record_passes(monkeypatch) -> list:
    """Make ``Pipeline``'s path pass record, per call, its recorded grid steps and
    whether it ran the remainder kernel."""
    from sdedensity import config

    passes, original = [], config.simulate_blocks

    def recording(*args, **kwargs):
        passes.append((tuple(kwargs["record"]), kwargs["band_pass"] is not None))
        return original(*args, **kwargs)

    monkeypatch.setattr(config, "simulate_blocks", recording)
    return passes


def _pieces(*pieces, breakpoints=()):
    return {"breakpoints": list(breakpoints), "pieces": list(pieces)}


# sign(-x) as pieces that carry their own intervals, which tile the line
_INTERVAL_PIECES = [{"kind": "constant", "value": 1.0, "interval": [None, 0.0]},
                    {"kind": "constant", "value": -1.0, "interval": [0.0, None]}]


def tiny_config(**overrides):
    cfg = {
        "model": {
            "mu": {"breakpoints": [], "pieces": [{"kind": "constant", "value": 0.0}]},
            "sigma": {"breakpoints": [], "pieces": [{"kind": "constant", "value": 1.0}]},
        },
        "window": {"xi": 0.0, "delta": 6.0, "delta0": 1.0, "l_sigma": 1.0},
        "cutoff": {"shoulder_fraction": 0.2},
        "simulation": {"x0": 0.0, "t": 0.25, "h": 2.0**-5, "n_paths": 2000, "seed": 99},
        "frequency_grid": {"y_max": 8.0, "spacing": 0.25},
        "inversion": {"n_points": 101, "margin": 0.05},
        "bounds": {"gamma": 0.5, "eps_rule": "matched", "y_lo": math.e, "y_hi": 8.0},
        "density": {"t_list": [0.125, 0.25]},
        "hoelder": {"gamma_list": [0.5], "t_list": [0.25]},
        "reference": {"kind": "brownian_drift", "mu0": 0.0, "sigma0": 1.0, "x0": 0.0},
        "certify": {"checks": ["cf_sanity", "mass_consistency", "density_vs_oracle"],
                    "density_tolerance": 0.1, "mass_slack": 5e-3},
    }
    for key, val in overrides.items():
        cfg[key] = {**cfg.get(key, {}), **val} if isinstance(val, dict) else val
    return cfg


class _Recording:
    """A stand-in for a reference model that notes whether anything read it."""

    def __init__(self, inner):
        self._inner, self.read = inner, False

    def __getattr__(self, name):
        self.read = True
        return getattr(self._inner, name)


@pytest.fixture()
def config_file(tmp_path):
    p = tmp_path / "run.json"
    p.write_text(json.dumps(tiny_config()))
    return p


def test_import_loads_numpy_random_and_no_scipy():
    # SciPy is a test dependency only; numpy.random is imported with the
    # package (simulate.py), not lazily inside the first simulation
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import sys; import sdedensity.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')); "
            "print('numpy.random' in sys.modules)")
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out == "[]\nTrue\n"


def test_no_command_loads_numpy_ma(tmp_path):
    # numpy 2.4's np.unique imports numpy.ma; the package sorts and masks instead
    # (util.unique), so no command on any preset pays for that import
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        "import copy, json, sys\n"
        "from pathlib import Path\n"
        "from sdedensity import cli\n"
        "from sdedensity.config import PRESETS\n"
        "root = Path(sys.argv[1])\n"
        "for name in sorted(PRESETS):\n"
        "    raw = copy.deepcopy(PRESETS[name])\n"
        "    raw['simulation']['n_paths'] = 2000\n"
        "    config = root / (name + '.json')\n"
        "    config.write_text(json.dumps(raw))\n"
        "    for command in sorted(cli._COMMANDS):\n"
        "        out = str(root / name / command)\n"
        "        rc = cli.main([command, '--config', str(config), '--out', out])\n"
        "        assert rc in (0, 1), (name, command, rc)\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run([sys.executable, "-c", code, str(tmp_path)], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out == "False\n"


def test_unique_is_np_unique_bit_for_bit():
    rng = np.random.default_rng(5)
    floats = [rng.integers(-5, 5, 200) * 0.25, np.array([0.0, -0.0, 1.5, -0.0, 1.5]),
              np.array([-0.0, 0.0, -0.0]), np.array([0.0, 0.0, -0.0, -1.0]),
              np.linspace(-1.0, 1.0, 4096)[::-1].copy(), np.array([]), np.array([7.0])]
    ints = [rng.integers(0, 40, 500), np.array([3, 1, 3, 2, 1]), np.array([], dtype=int)]
    for a in floats + ints:
        got, want = unique(a), np.unique(a)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_write_csv_cells_read_back_to_the_same_bits(tmp_path):
    rng = np.random.default_rng(3)
    xs = np.concatenate([rng.standard_normal(64) * 10.0 ** rng.integers(-300, 300, 64),
                         [0.0, -0.0, 1.0 / 3.0, 5e-324, np.finfo(float).max]])
    flags = xs > 0
    path = tmp_path / "t.csv"
    _write_csv(path, "x,flag", xs, flags)
    header, *rows = path.read_text().splitlines()
    assert header == "x,flag" and len(rows) == xs.size
    cells = [row.split(",") for row in rows]
    back = np.array([float(x) for x, _ in cells])
    assert np.array_equal(back.view(np.int64), xs.view(np.int64))
    assert [f for _, f in cells] == ["1" if f else "0" for f in flags]


class TestConfigLoading:
    def test_presets_all_validate(self):
        for name in PRESETS:
            preset(name)

    def test_unknown_preset(self):
        with pytest.raises(ConfigError):
            preset("nope")

    def test_missing_section_rejected(self):
        with pytest.raises(ConfigError):
            RunConfig.from_dict({"model": tiny_config()["model"]})

    def test_lookback_precondition_checked(self, tmp_path, capsys, monkeypatch):
        # the matched lookback at y = 2.75 is longer than t; raising y_lo fixes it
        from sdedensity import cli, config

        bad = tiny_config(simulation={"x0": 0.0, "t": 0.0625, "h": 2.0**-5,
                                      "n_paths": 100, "seed": 1},
                          density={"t_list": [0.0625]},
                          hoelder={"gamma_list": [0.5], "t_list": [0.0625]})
        message = ("bounds.y_lo: lookback rule needs log^2|y|/y^2 < t; violated at "
                   "y=2.75 (t=0.0625)")
        with pytest.raises(ConfigError) as info:
            RunConfig.from_dict(bad)
        assert str(info.value) == message
        calls = []
        monkeypatch.setattr(config, "simulate_blocks", lambda *a, **k: calls.append(a))
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(bad))
        for command in cli._COMMANDS:
            assert main([command, "--config", str(p), "--out", str(tmp_path / command)]) == 2
            assert capsys.readouterr().err == f"error: {message}\n"
        assert calls == []

    @pytest.mark.parametrize("bounds, first", [
        ({"eps_rule": "matched", "y_lo": 1.0}, 1.25),
        ({"eps_rule": 0.0625, "y_lo": 0.5}, 0.75),
    ])
    def test_low_y_lo_accepted_where_every_lookback_exists(self, bounds, first):
        plan = RunConfig.from_dict(tiny_config(bounds=bounds)).bound_plan
        assert plan.y[0] == first and plan.k_steps.min() >= 1

    def test_off_grid_density_time_rejected(self):
        bad = tiny_config(density={"t_list": [0.2]})
        with pytest.raises(ConfigError, match="grid"):
            RunConfig.from_dict(bad)

    def test_hash_is_stable_and_seed_sensitive(self):
        c1 = RunConfig.from_dict(tiny_config())
        c2 = RunConfig.from_dict(tiny_config())
        assert c1.hash == c2.hash
        assert c1.with_seed(123).hash != c1.hash

    @pytest.mark.parametrize("name, digest", [
        ("gaussian", "2ce73861c5706b353b29cb22960c06f623309f2fd516b3b1eb296bb15a2292a9"),
        ("ou", "f97543149e9c48c165e1e06fc92c560d52b5629b93a57775b012b56faad2ef79"),
        ("gbm", "556def8805a473f5926048fff96622c7dc649b83a8d78681ff0500dcf91507ce"),
        ("sign_drift", "07867326afad752d0aebb7fc5289d35aef2047b2eafac40d380c24ea940d1657"),
    ])
    def test_preset_hash_pinned(self, name, digest):
        # the hash covers the merged config, so a changed default, or y_hi/t_list
        # no longer filled in as null, changes it
        assert RunConfig.from_dict(PRESETS[name]).hash == digest


class TestCommands:
    def test_simulate_writes_ensemble(self, config_file, tmp_path):
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(config_file), "--out", str(out)]) == 0
        assert (out / "ensemble.bin").exists()
        info = json.loads((out / "run_info.json").read_text())
        assert info["command"] == "simulate"
        assert len(info["config_hash"]) == 64

    @pytest.mark.parametrize("threads", [1, 2])
    def test_simulate_file_reads_back_as_simulate_states(self, tmp_path, threads):
        # two full path blocks and a partial one, written block by block
        p = tmp_path / "run.json"
        p.write_text(json.dumps(tiny_config(simulation={"n_paths": 2 * 4096 + 100})))
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(p), "--out", str(out),
                     "--threads", str(threads)]) == 0
        cfg = RunConfig.from_file(p)
        back = load_ensemble(out / "ensemble.bin")
        assert back.config == cfg.simulation
        assert back.states.tobytes() == simulate(cfg.model, cfg.simulation).states.tobytes()

    def test_cf_and_density_and_hoelder(self, config_file, tmp_path):
        out = tmp_path / "o"
        for cmd in ("cf", "density", "hoelder"):
            assert main([cmd, "--config", str(config_file), "--out", str(out)]) == 0
        assert (out / "cf.csv").exists()
        assert (out / "density_t0p125.csv").exists()
        assert (out / "density_t0p25.csv").exists()
        assert (out / "hoelder.csv").read_text().splitlines()[0] == "t,gamma,c_gamma_norm"

    def test_bound_outputs(self, config_file, tmp_path):
        out = tmp_path / "o"
        assert main(["bound", "--config", str(config_file), "--out", str(out)]) == 0
        summary = json.loads((out / "bound_summary.json").read_text())
        assert 0.0 <= summary["pass_fraction"] <= 1.0
        assert summary["config_hash"] == RunConfig.from_dict(tiny_config()).hash

    def test_invalid_config_exits_2(self, tmp_path):
        p = tmp_path / "bad.json"
        bad = tiny_config()
        bad["window"]["delta0"] = 10.0
        p.write_text(json.dumps(bad))
        assert main(["cf", "--config", str(p), "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("section, key, value, message", [
        ("window", "delta0", None, "window.delta0: missing"),
        ("simulation", "n_paths", "many", "simulation.n_paths: expected int, got 'many'"),
        ("simulation", "n_paths", 2.7, "simulation.n_paths: expected int, got 2.7"),
        ("simulation", "n_paths", True, "simulation.n_paths: expected int, got True"),
        ("simulation", "seed", 99.5, "simulation.seed: expected int, got 99.5"),
        ("inversion", "n_points", 101.5, "inversion.n_points: expected int, got 101.5"),
        ("inversion", "n_points", False, "inversion.n_points: expected int, got False"),
        # json.load reads NaN and +-Infinity; no number field accepts them
        ("simulation", "h", math.nan, "simulation.h: expected a finite number, got nan"),
        ("simulation", "x0", math.nan, "simulation.x0: expected a finite number, got nan"),
        ("window", "xi", math.nan, "window.xi: expected a finite number, got nan"),
        ("frequency_grid", "y_max", math.inf,
         "frequency_grid.y_max: expected a finite number, got inf"),
        ("frequency_grid", "spacing", math.nan,
         "frequency_grid.spacing: expected a finite number, got nan"),
        ("inversion", "margin", math.nan, "inversion.margin: expected a finite number, got nan"),
        ("bounds", "eps_rule", math.nan,
         "bounds.eps_rule: expected 'matched' or a finite number, got nan"),
        ("bounds", "y_lo", -math.inf, "bounds.y_lo: expected a finite number, got -inf"),
        ("certify", "analytic_y_max", math.inf,
         "certify.analytic_y_max: expected a finite number, got inf"),
        # finite coefficients whose values overflow on the window
        ("model", "mu", _pieces({"kind": "polynomial", "coeffs": [0.0, 1e308]}),
         "model.mu: not finite on the window [-6, 6]"),
        ("model", "sigma", _pieces({"kind": "polynomial", "coeffs": [1.0, 1e308]}),
         "model.sigma: not finite on the window [-6, 6]"),
        # a zero scale divides by zero in the density; a negative one makes it negative
        ("reference", "sigma0", 0.0, "reference: sigma0 must be positive"),
        ("reference", "sigma0", -0.25, "reference: sigma0 must be positive"),
        # a hoelder that measures nothing is a config error, as a certify that checks nothing
        ("hoelder", "gamma_list", [], "hoelder.gamma_list: expected at least one gamma, got []"),
        # null or no entry means [simulation.t]; an empty list is an error, as above
        ("density", "t_list", [], "density.t_list: expected at least one time, got []"),
        ("hoelder", "t_list", [], "hoelder.t_list: expected at least one time, got []"),
        # a negative tolerance fails every check, and a zero pass fraction none
        ("certify", "density_tolerance", -1.0,
         "certify.density_tolerance: must be at least 0, got -1.0"),
        ("certify", "analytic_tolerance", -1e-5,
         "certify.analytic_tolerance: must be at least 0, got -1e-05"),
        ("certify", "mass_slack", -1e-3, "certify.mass_slack: must be at least 0, got -0.001"),
        ("certify", "bound_pass_fraction", 2.0,
         "certify.bound_pass_fraction: must lie in (0, 1], got 2.0"),
        ("certify", "bound_pass_fraction", 0.0,
         "certify.bound_pass_fraction: must lie in (0, 1], got 0.0"),
    ])
    @pytest.mark.filterwarnings("error::RuntimeWarning")  # numpy's warnings reach stderr
    def test_bad_field_exits_2_naming_it(self, tmp_path, capsys, section, key, value, message):
        bad = tiny_config()
        if value is None:
            del bad[section][key]
        else:
            bad[section][key] = value
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(bad))
        assert main(["cf", "--config", str(p), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("edit, message", [
        (lambda c: c["model"].pop("mu"), "model.mu: missing"),
        (lambda c: c["model"].update(mu={"breakpoints": [], "pieces": 5}),
         "model.mu: pieces: expected a list, got 5"),
        (lambda c: c.update(bounds=[]), "bounds: expected an object, got []"),
        (lambda c: c["frequency_grid"].update(y_max="big"),
         "frequency_grid.y_max: expected a finite number, got 'big'"),
        (lambda c: c["certify"].update(analytic_y_max="x"),
         "certify.analytic_y_max: expected a finite number, got 'x'"),
        (lambda c: c["certify"].update(analytic_y_max=-1.0),
         "certify.analytic_y_max: y_max and spacing must be positive"),
        (lambda c: c.update(reference={"kind": "ornstein_uhlenbeck", "sigma0": 1.0, "x0": 0.0}),
         "reference: theta must be positive"),
        # every reference law starts at reference.x0; none is stationary
        (lambda c: c["reference"].pop("x0"), "reference.x0: missing"),
        (lambda c: c.update(reference={"kind": "ornstein_uhlenbeck", "theta": 1.0,
                                       "sigma0": 1.0}),
         "reference.x0: missing"),
        # a field the kind does not read is an error, not silently ignored
        (lambda c: c["reference"].update(theta=1.0),
         "reference.theta: kind 'brownian_drift' does not read it; "
         "its fields are ['mu0', 'sigma0', 'x0']"),
        (lambda c: c["reference"].update(kind="ornstein_uhlenbeck", theta=1.0),
         "reference.mu0: kind 'ornstein_uhlenbeck' does not read it; "
         "its fields are ['theta', 'sigma0', 'x0']"),
        (lambda c: c.update(reference={"kind": "geometric_bm", "mu0": 0.0, "sigma0": 1.0,
                                       "theta": 0.0, "x0": 1.0}),
         "reference.theta: kind 'geometric_bm' does not read it; "
         "its fields are ['mu0', 'sigma0', 'x0']"),
        (lambda c: c["density"].update(t_list=["x"]),
         "density.t_list: expected a list of finite numbers, got ['x']"),
        (lambda c: c["hoelder"].update(gamma_list=0.5),
         "hoelder.gamma_list: expected a list, got 0.5"),
        (lambda c: c["bounds"].update(gama=0.5),
         "bounds: unknown field(s) ['gama']; allowed ['gamma', 'eps_rule', 'y_lo', 'y_hi']"),
        (lambda c: c["window"].update(radius=1.0, center=0.0),
         "window: unknown field(s) ['center', 'radius']; "
         "allowed ['xi', 'delta', 'delta0', 'l_sigma']"),
        (lambda c: c.update(bound={}),
         "config: unknown section(s) ['bound']; allowed ['model', 'window', 'simulation', "
         "'reference', 'cutoff', 'frequency_grid', 'inversion', 'bounds', 'density', "
         "'hoelder', 'certify']"),
        (lambda c: c["certify"].update(checks=["cf_sanity", "nope"]),
         "certify.checks[1]: unknown check 'nope'; one of ['cf_sanity', 'mass_consistency', "
         "'density_vs_oracle', 'analytic_roundtrip', 'bound_check']"),
        (lambda c: c["certify"].update(checks="cf_sanity"),
         "certify.checks: expected a list, got 'cf_sanity'"),
        (lambda c: c["hoelder"].update(gamma_list=[0.5, 1.5]),
         "hoelder.gamma_list: entries must lie in (0, 1], got [0.5, 1.5]"),
        (lambda c: c["bounds"].update(gamma=1.5), "bounds.gamma: must lie in (0, 1), got 1.5"),
        (lambda c: c["inversion"].update(n_points=1),
         "inversion.n_points: must be at least 2, got 1"),
        (lambda c: c["cutoff"].update(shoulder_fraction=0.9),
         "cutoff.shoulder_fraction: shoulder_fraction must lie in (0, 1/2)"),
        (lambda c: c["bounds"].update(eps_rule="bogus"),
         "bounds.eps_rule: expected 'matched' or a finite number, got 'bogus'"),
        (lambda c: c["inversion"].update(margin=3.0),
         "inversion.margin: the inversion grid spans 70, not below the aliasing limit "
         "pi/spacing = 12.57"),
        (lambda c: c["bounds"].update(y_lo=9.0),
         "bounds.y_lo..bounds.y_hi: no frequency_grid frequency lies in (9.0, 8.0]"),
        # a null y_hi is no upper limit
        (lambda c: c["bounds"].update(y_lo=9.0, y_hi=None),
         "bounds.y_lo..bounds.y_hi: no frequency_grid frequency lies in (9.0, inf]"),
        (lambda c: c["bounds"].update(eps_rule=0.5),
         "bounds.eps_rule: fixed lookback must lie in (0, t)"),
        # the grid is H(supp phi) widened by the margin; a negative one folds it
        (lambda c: c["inversion"].update(margin=-0.5),
         "inversion.margin: must be at least 0, got -0.5"),
        # the matched lookback needs |y| > 1: the offending field is y_lo, not eps_rule
        (lambda c: c["bounds"].update(y_lo=0.5),
         "bounds.y_lo: the matched lookback rule needs every checked frequency above 1, "
         "and y=0.75 is not (y_lo=0.5)"),
        # a certify that checks nothing, or one check twice, is a config error
        (lambda c: c["certify"].update(checks=[]),
         "certify.checks: expected at least one check, got []"),
        (lambda c: c["certify"].update(checks=["cf_sanity", "cf_sanity"]),
         "certify.checks[1]: 'cf_sanity' is listed twice"),
        (lambda c: c["certify"].update(checks=[["cf_sanity"]]),
         "certify.checks[0]: unknown check ['cf_sanity']; one of ['cf_sanity', "
         "'mass_consistency', 'density_vs_oracle', 'analytic_roundtrip', 'bound_check']"),
        # piece fields go through the same number reader as every other field,
        # and a piece's error names the piece
        (lambda c: c["model"].update(mu=_pieces({"kind": "polynomial", "coeffs": []})),
         "model.mu: pieces[0]: polynomial piece: coeffs: expected at least one coefficient, "
         "got []"),
        (lambda c: c["model"].update(mu=_pieces({"kind": "polynomial",
                                                 "coeffs": [0.0, math.nan]})),
         "model.mu: pieces[0]: polynomial piece: coeffs: expected a list of finite numbers, "
         "got [0.0, nan]"),
        (lambda c: c["model"].update(mu=_pieces({"kind": "constant", "value": 1.0}, 1,
                                                breakpoints=[0.0])),
         "model.mu: pieces[1]: expected an object, got 1"),
        (lambda c: c["model"].update(mu=_pieces({"kind": "constant", "value": 1.0},
                                                {"kind": "constant", "value": -1.0},
                                                breakpoints=[math.nan])),
         "model.mu: breakpoints: expected a list of finite numbers, got [nan]"),
        (lambda c: c["model"].update(sigma=_pieces({"kind": "constant", "value": "0.5"})),
         "model.sigma: pieces[0]: constant piece: value: expected a finite number, got '0.5'"),
        (lambda c: c["model"].update(sigma=_pieces({"kind": "constant", "value": True})),
         "model.sigma: pieces[0]: constant piece: value: expected a finite number, got True"),
        (lambda c: c["model"].update(mu=_pieces({"kind": ["constant"], "value": 0.0})),
         "model.mu: pieces[0]: unknown piece kind ['constant']; one of ['affine', 'constant', "
         "'polynomial', 'power', 'sinusoid']"),
        # pieces that carry their own intervals, as a list or under "pieces",
        # are not a piecewise object: the one spelling is breakpoints + pieces
        (lambda c: c["model"].update(mu=_INTERVAL_PIECES),
         f"model.mu: expected an object with 'breakpoints' and 'pieces', "
         f"got {_INTERVAL_PIECES!r}"),
        (lambda c: c["model"].update(mu={"pieces": _INTERVAL_PIECES}),
         f"model.mu: expected an object with 'breakpoints' and 'pieces', "
         f"got {{'pieces': {_INTERVAL_PIECES!r}}}"),
        # and so are the keys of the piecewise object itself
        (lambda c: c["model"].update(mu={**_pieces({"kind": "constant", "value": 1.0}),
                                         "breakpiont": [0.0]}),
         "model.mu: unknown field(s) ['breakpiont']; allowed ['breakpoints', 'pieces']"),
        (lambda c: c["model"].update(mu={"pieces": [
            {"kind": "constant", "value": 0.0, "interval": [None, None]}],
            "breakpoints_": [0.0]}),
         "model.mu: unknown field(s) ['breakpoints_']; allowed ['breakpoints', 'pieces']"),
        # two entries on one grid step would write the same density file twice
        # and repeat the hoelder rows
        (lambda c: c["density"].update(t_list=[0.125, 0.25, 0.125]),
         "density.t_list: t=0.125 is on the grid step of an earlier entry"),
        (lambda c: c["hoelder"].update(t_list=[0.125, 0.125 + 1e-12]),
         "hoelder.t_list: t=0.125000000001 is on the grid step of an earlier entry"),
        # the oracle checks compare with the reference model, left out (as in the
        # sign_drift preset) or null
        (lambda c: c.pop("reference"),
         "certify.checks: 'density_vs_oracle' compares with the reference model, "
         "and the config has no 'reference'"),
        (lambda c: c.update(reference=None, certify={"checks": ["analytic_roundtrip"]}),
         "certify.checks: 'analytic_roundtrip' compares with the reference model, "
         "and the config has no 'reference'"),
    ])
    def test_bad_section_exits_2_naming_it(self, tmp_path, capsys, monkeypatch, edit, message):
        from sdedensity import config

        calls = []
        monkeypatch.setattr(config, "simulate_blocks", lambda *a, **k: calls.append(a))
        bad = tiny_config()
        edit(bad)
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(bad))
        assert main(["certify", "--config", str(p), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert calls == []  # every one of these fails before simulating

    def test_density_times_sharing_a_file_tag_exit_2(self, tmp_path, capsys, monkeypatch):
        # t and t + h on a fine grid: distinct grid steps, both tagged 0p5, so
        # the second density_t0p5.csv would overwrite the first
        from sdedensity import config

        calls = []
        monkeypatch.setattr(config, "simulate_blocks", lambda *a, **k: calls.append(a))
        raw = json.loads(json.dumps(PRESETS["gaussian"]))
        raw["simulation"]["h"] = 2.0**-21
        raw["density"]["t_list"] = [0.5, 0.5 + 2.0**-21]
        p = tmp_path / "tags.json"
        p.write_text(json.dumps(raw))
        assert main(["density", "--config", str(p), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == ("error: density.t_list: t=0.5 and "
                                           "t=0.5000004768371582 share the file tag '0p5'\n")
        assert calls == []
        assert not list(tmp_path.glob("o/density_*"))

    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_density_at_the_widest_aliasing_safe_margin(self, tmp_path, name):
        # the grid spans span * (1 + 2 margin) < pi / spacing; just inside that
        # limit the grid reaches far past the window, where H^{-1} is the closed forms
        cfg = preset(name)
        lo, hi = cfg.transform.image(cfg.phi.a, cfg.phi.b)
        widest = (math.pi / cfg.freq_grid.spacing / (hi - lo) - 1.0) / 2.0
        raw = json.loads(json.dumps(PRESETS[name]))
        raw["simulation"]["n_paths"] = 2000
        raw["inversion"]["margin"] = 0.99 * widest
        p = tmp_path / "run.json"
        p.write_text(json.dumps(raw))
        out = tmp_path / "o"
        assert main(["density", "--config", str(p), "--out", str(out)]) == 0
        for t in raw["density"]["t_list"]:
            x = np.loadtxt(out / f"density_t{t_tag(t)}.csv", delimiter=",", skiprows=1)[:, 0]
            assert np.all(np.isfinite(x)) and np.all(np.diff(x) > 0)

    def test_density_on_a_window_far_from_the_origin(self, tmp_path):
        # near 1e6 adjacent floats are farther apart than H^{-1}'s tolerance
        raw = json.loads(json.dumps(PRESETS["gaussian"]))
        raw["simulation"]["n_paths"] = 2000
        raw["window"]["xi"] = raw["simulation"]["x0"] = raw["reference"]["x0"] = 1e6
        p = tmp_path / "far.json"
        p.write_text(json.dumps(raw))
        out = tmp_path / "o"
        assert main(["density", "--config", str(p), "--out", str(out)]) == 0
        x = np.loadtxt(out / "density_t1.csv", delimiter=",", skiprows=1)[:, 0]
        assert np.all(np.diff(x) > 0) and x[0] < 1e6 < x[-1]

    @pytest.mark.parametrize("n_paths", [10**400, 2**62], ids=["10**400", "2**62"])
    def test_unallocatable_n_paths_exits_2(self, tmp_path, capsys, n_paths):
        # numpy rejects both sizes before it allocates anything
        p = tmp_path / "big.json"
        p.write_text(json.dumps(tiny_config(simulation={"n_paths": n_paths})))
        assert main(["cf", "--config", str(p), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: simulation.n_paths: cannot hold {n_paths} paths x 1 ")

    @pytest.mark.parametrize("section, key, value, message", [
        ("inversion", "n_points", 10**12, "inversion.n_points: cannot hold 1000000000000 points"),
        ("inversion", "n_points", 10**400, f"inversion.n_points: cannot hold {10**400} points"),
        ("frequency_grid", "y_max", 1e11,
         "frequency_grid: y_max / spacing is more frequencies than numpy can hold"),
        ("certify", "analytic_y_max", 1e11,
         "certify.analytic_y_max: y_max / spacing is more frequencies than numpy can hold"),
    ], ids=["n_points=10**12", "n_points=10**400", "y_max=1e11", "analytic_y_max=1e11"])
    def test_unallocatable_grid_exits_2_before_simulating(self, tmp_path, section, key, value,
                                                          message):
        # in a child whose address space is 3 GB, so that numpy's allocation
        # fails whatever the machine's overcommit policy
        code = (
            "import json, resource, sys\n"
            "resource.setrlimit(resource.RLIMIT_AS,\n"
            "                   (3 << 30, resource.getrlimit(resource.RLIMIT_AS)[1]))\n"
            "from sdedensity import cli, config\n"
            "def simulate(*args, **kwargs):\n"
            "    raise AssertionError('simulated')\n"
            "config.simulate_blocks = simulate\n"
            "sys.exit(cli.main(['density', '--config', sys.argv[1], '--out', sys.argv[2]]))\n"
        )
        raw = json.loads(json.dumps(PRESETS["gaussian"]))
        raw[section][key] = value
        p = tmp_path / "big.json"
        p.write_text(json.dumps(raw))
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
        out = subprocess.run([sys.executable, "-c", code, str(p), str(tmp_path / "o")],
                             env=env, capture_output=True, text=True)
        assert out.returncode == 2, out.stderr
        assert out.stderr.startswith(f"error: {message}") and out.stderr.count("\n") == 1

    def test_unallocatable_step_count_exits_2_before_any_step(self, tmp_path):
        # h = 2^-40: every grid step recorded is 2,000 x (2^40 + 1) floats.  The
        # list of recorded steps is not built before the states are allocated,
        # so the allocation's refusal is the error; in a 3 GB child, as above,
        # whose noise stream fails if a step is ever drawn
        code = (
            "import importlib, resource, sys\n"
            "resource.setrlimit(resource.RLIMIT_AS,\n"
            "                   (3 << 30, resource.getrlimit(resource.RLIMIT_AS)[1]))\n"
            "from sdedensity import cli\n"
            "def noise(*args):\n"
            "    raise AssertionError('stepped')\n"
            "importlib.import_module('sdedensity.simulate')._noise = noise\n"
            "sys.exit(cli.main(['simulate', '--config', sys.argv[1], '--out', sys.argv[2]]))\n"
        )
        raw = json.loads(json.dumps(PRESETS["gaussian"]))
        raw["simulation"].update(h=2.0**-40, n_paths=2000)
        p = tmp_path / "fine.json"
        p.write_text(json.dumps(raw))
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
        out = subprocess.run([sys.executable, "-c", code, str(p), str(tmp_path / "o")],
                             env=env, capture_output=True, text=True)
        assert out.returncode == 2, out.stderr
        assert out.stderr.startswith("error: simulation.n_paths: cannot hold 2000 paths x "
                                     f"{2**40 + 1} recorded grid steps as float64")
        assert out.stderr.count("\n") == 1

    @pytest.mark.parametrize("failure", ["non-finite", "h=2**-40"])
    def test_failed_simulate_exits_2_and_leaves_no_file(self, tmp_path, failure):
        # both fail after ensemble.bin is opened: the cubic drift of
        # test_simulate.cubic_blowup as a config, and the run of
        # test_unallocatable_step_count_exits_2_before_any_step; in a 3 GB child, as there
        code = (
            "import resource, sys\n"
            "resource.setrlimit(resource.RLIMIT_AS,\n"
            "                   (3 << 30, resource.getrlimit(resource.RLIMIT_AS)[1]))\n"
            "from sdedensity import cli\n"
            "sys.exit(cli.main(['simulate', '--config', sys.argv[1], '--out', sys.argv[2]]))\n"
        )
        if failure == "non-finite":
            raw = tiny_config(
                model={"mu": _pieces({"kind": "polynomial", "coeffs": [0.0, 0.0, 0.0, 1.0]}),
                       "sigma": _pieces({"kind": "constant", "value": 1.5})},
                simulation={"t": 1.0, "h": 2.0**-4, "n_paths": 6000, "seed": 2})
            message = r"path \d+ became non-finite at step \d+ \(t=\S+\)"
        else:
            raw = json.loads(json.dumps(PRESETS["gaussian"]))
            raw["simulation"].update(h=2.0**-40, n_paths=2000)
            message = r"simulation\.n_paths: cannot hold 2000 paths x .*"
        p = tmp_path / "run.json"
        p.write_text(json.dumps(raw))
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
        out = subprocess.run([sys.executable, "-c", code, str(p), str(tmp_path / "o")],
                             env=env, capture_output=True, text=True)
        assert out.returncode == 2, out.stderr
        assert re.fullmatch(f"error: {message}\n", out.stderr)
        assert (tmp_path / "o").is_dir() and not (tmp_path / "o" / "ensemble.bin").exists()

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_threads_below_one_exits_2_naming_the_flag(self, tmp_path, capsys, threads):
        with pytest.raises(SystemExit) as info:
            main(["cf", "--preset", "gaussian", "--out", str(tmp_path / "o"),
                  "--threads", threads])
        assert info.value.code == 2
        assert (f"argument --threads: expected an integer of at least 1, got '{threads}'"
                in capsys.readouterr().err)
        assert not (tmp_path / "o").exists()

    def test_bad_check_name_fails_before_simulating(self, tmp_path, monkeypatch):
        from sdedensity import config

        calls = []
        monkeypatch.setattr(config, "simulate_blocks", lambda *a, **k: calls.append(a))
        bad = tiny_config(certify={"checks": ["cf_sanity", "nope"]})
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(bad))
        assert main(["certify", "--config", str(p), "--out", str(tmp_path / "o")]) == 2
        assert calls == []

    @pytest.mark.parametrize("name", list(CHECKS))
    def test_each_check_needs_what_its_row_declares(self, tmp_path, monkeypatch, name):
        # with no reference unless the row needs one, and then a reference that
        # records whether the check read it; the bound report is read iff declared
        row = CHECKS[name]
        cfg = RunConfig.from_dict(tiny_config(
            certify={"checks": [name]}, **({} if row.needs_reference else {"reference": None})))
        if row.needs_reference:
            cfg = dataclasses.replace(cfg, reference_model=_Recording(cfg.reference_model))
        passes = _record_passes(monkeypatch)
        pipe = Pipeline(cfg)
        bound_reads, bound_report = [], pipe.bound_report
        pipe.bound_report = lambda: bound_reads.append(name) or bound_report()
        report = cmd_certify(pipe, tmp_path)
        assert list(report["checks"]) == [name]
        if row.needs_reference:
            assert cfg.reference_model.read
        assert bool(bound_reads) == row.reads_bound
        # at most one pass over the paths (none for analytic_roundtrip, which
        # reads no path), and it runs the remainder kernel iff the row reads the bound
        assert [bound for _, bound in passes] in ([], [row.reads_bound])

    @pytest.mark.parametrize("under", [False, True], ids=["existing-file", "under-a-file"])
    def test_out_on_a_file_exits_2_naming_it(self, tmp_path, capsys, monkeypatch, under):
        from sdedensity import config

        calls = []
        monkeypatch.setattr(config, "simulate_blocks", lambda *a, **k: calls.append(a))
        (tmp_path / "f").write_text("")
        out = tmp_path / "f" / "sub" if under else tmp_path / "f"
        assert main(["cf", "--preset", "gaussian", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: --out: {out}: ") and err.count("\n") == 1
        assert calls == []

    def test_unwritable_output_file_exits_2_naming_it(self, config_file, tmp_path, capsys):
        (tmp_path / "o" / "cf.csv").mkdir(parents=True)
        assert main(["cf", "--config", str(config_file), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: --out: {tmp_path / 'o' / 'cf.csv'}: ")
        assert err.count("\n") == 1

    def test_null_reference_allowed(self):
        cfg = tiny_config(reference=None, certify={"checks": ["cf_sanity"]})
        assert RunConfig.from_dict(cfg).reference_model is None

    def test_off_grid_read_fails_before_simulating(self, monkeypatch):
        from sdedensity import config

        calls = []
        monkeypatch.setattr(config, "simulate_blocks", lambda *a, **k: calls.append(a))
        pipe = Pipeline(RunConfig.from_dict(tiny_config()))  # h = 1/32
        with pytest.raises(ConfigError, match=r"t=0\.2 is not on the simulation grid"):
            pipe.reads([0.2])
        assert calls == []

    @pytest.mark.parametrize("text", [None, "{not json"], ids=["missing", "invalid"])
    def test_unreadable_config_file_exits_2_naming_it(self, tmp_path, capsys, text):
        p = tmp_path / "run.json"
        if text is not None:
            p.write_text(text)
        assert main(["cf", "--config", str(p), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {p}: ") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_seed_override_changes_output(self, config_file, tmp_path):
        o1, o2 = tmp_path / "a", tmp_path / "b"
        main(["cf", "--config", str(config_file), "--out", str(o1)])
        main(["cf", "--config", str(config_file), "--out", str(o2),
              "--seed-override", "123"])
        assert (o1 / "cf.csv").read_bytes() != (o2 / "cf.csv").read_bytes()


class TestCertify:
    def test_passing_run_exits_zero(self, config_file, tmp_path):
        out = tmp_path / "o"
        assert main(["certify", "--config", str(config_file), "--out", str(out)]) == 0
        report = json.loads((out / "certify.json").read_text())
        assert report["all_pass"] is True
        for check in report["checks"].values():
            assert check["pass"] is True

    def test_exit_code_tracks_verdicts(self, tmp_path):
        rigged = tiny_config(certify={"checks": ["density_vs_oracle"],
                                      "density_tolerance": 1e-9})
        p = tmp_path / "rigged.json"
        p.write_text(json.dumps(rigged))
        out = tmp_path / "o"
        assert main(["certify", "--config", str(p), "--out", str(out)]) == 1
        report = json.loads((out / "certify.json").read_text())
        assert report["all_pass"] is False

    def test_one_cf_estimate_per_distinct_t(self, monkeypatch, tmp_path):
        from sdedensity import charfn
        from sdedensity.cli import cmd_certify
        from sdedensity.config import Pipeline

        seen = []
        original = charfn.CfAccumulator.estimate

        def counting(self, t=0.0):
            seen.append(t)
            return original(self, t)

        monkeypatch.setattr(charfn.CfAccumulator, "estimate", counting)
        cfg = RunConfig.from_dict(tiny_config(certify={
            "checks": ["cf_sanity", "mass_consistency", "density_vs_oracle", "bound_check"]}))
        report = cmd_certify(Pipeline(cfg), tmp_path)
        assert set(report["checks"]) == {"cf_sanity", "mass_consistency",
                                         "density_vs_oracle", "bound_check"}
        assert len(seen) == len(set(seen)) == 1


class TestBoundPlan:
    def test_built_once_per_config_through_certify(self, tmp_path, monkeypatch):
        from sdedensity import bounds

        calls = []
        original = bounds.bound_plan
        monkeypatch.setattr(bounds, "bound_plan",
                            lambda *a, **k: calls.append(a) or original(*a, **k))
        p = tmp_path / "run.json"
        p.write_text(json.dumps(tiny_config(certify={"checks": ["cf_sanity", "bound_check"]})))
        assert main(["certify", "--config", str(p), "--out", str(tmp_path / "o")]) == 0
        assert len(calls) == 1

    def test_report_without_declaring_it_is_refused(self):
        pipe = Pipeline(RunConfig.from_dict(tiny_config()))
        pipe.reads([0.25])
        with pytest.raises(RuntimeError, match=r"reads\(\.\.\., bound=True\)"):
            pipe.bound_report()


class TestRecordingPlan:
    @pytest.mark.parametrize("threads", [1, 2])
    def test_gbm_cf_at_each_read_time_is_that_of_the_full_ensemble(self, tmp_path, monkeypatch,
                                                                    threads):
        from sdedensity import cli
        from sdedensity.charfn import cf_from_samples

        # 4 full path blocks and a partial one: one full CF chunk and a partial one
        raw = json.loads(json.dumps(PRESETS["gbm"]))
        raw["simulation"]["n_paths"] = 4 * 4096 + 100
        cfg = RunConfig.from_dict(raw)
        full = simulate(cfg.model, cfg.simulation, threads=threads)
        passes = _record_passes(monkeypatch)
        # each command reads the CF at t_final (step 256), and hoelder also at
        # t = 0.5; only bound runs the remainder pass
        for command, times, bound in [("cf", (1.0,), False), ("bound", (1.0,), True),
                                      ("density", (1.0,), False),
                                      ("hoelder", (0.5, 1.0), False),
                                      ("certify", (1.0,), False)]:
            passes.clear()
            pipe = Pipeline(cfg, threads=threads)
            cli._COMMANDS[command](pipe, tmp_path)
            steps = tuple(cfg.simulation.step(t) for t in times)
            assert passes == [(steps, bound)], command
            for t in times:
                got = pipe.cf_at(t)
                want = cf_from_samples(full.states_at(t), pipe.phi, pipe.freq_grid, t=t,
                                       transform=pipe.transform)
                assert got.n_paths == want.n_paths == 4 * 4096 + 100
                assert np.array_equal(got.values, want.values), (command, t)
                assert np.array_equal(got.std_errors, want.std_errors), (command, t)

    def test_certify_runs_the_remainder_pass_only_for_bound_check(self, tmp_path, monkeypatch):
        from sdedensity.cli import cmd_certify

        passes = _record_passes(monkeypatch)
        for checks, bound in [(["cf_sanity"], False), (["cf_sanity", "bound_check"], True)]:
            passes.clear()
            pipe = Pipeline(RunConfig.from_dict(tiny_config(certify={"checks": checks})))
            cmd_certify(pipe, tmp_path)
            assert passes == [((8,), bound)]

    def test_reads_after_simulating_is_refused(self):
        pipe = Pipeline(RunConfig.from_dict(tiny_config()))
        pipe.cf_at(0.25)
        with pytest.raises(RuntimeError, match="before the paths are simulated"):
            pipe.reads([0.25])

    def test_undeclared_time_is_refused_after_the_pass(self):
        pipe = Pipeline(RunConfig.from_dict(tiny_config()))
        pipe.reads([0.25])
        with pytest.raises(ConfigError, match=r"grid step 4 \(t=0.125\) was not recorded"):
            pipe.cf_at(0.125)

    def test_cf_memory_is_flat_in_n_paths(self):
        # no array grows with n_paths: the peak traced allocation (numpy's
        # included) of the whole pass at 2^18 paths is that at 2^16, to 1 MiB,
        # where storing the states read would add 3 MiB
        import tracemalloc

        def peak(n_paths):
            raw = json.loads(json.dumps(PRESETS["gaussian"]))
            raw["simulation"]["n_paths"] = n_paths
            pipe = Pipeline(RunConfig.from_dict(raw))
            pipe.model, pipe.phi, pipe.transform, pipe.freq_grid, pipe.cfg.bound_plan
            tracemalloc.start()
            try:
                pipe.cf_at(1.0)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert abs(peak(2**18) - peak(2**16)) < 2**20

    def test_simulate_memory_is_flat_in_n_paths(self, tmp_path):
        # ensemble.bin is written a block at a time: the peak traced allocation of
        # the simulate command at 4 x 2^15 paths is that at 2^15, to 1 MiB, where
        # holding the states would add 3 x 2^15 x 9 x 8 bytes (6.75 MiB)
        import tracemalloc

        def peak(n_paths):
            pipe = Pipeline(RunConfig.from_dict(tiny_config(simulation={"n_paths": n_paths})))
            pipe.model
            tracemalloc.start()
            try:
                cmd_simulate(pipe, tmp_path)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert abs(peak(4 * 2**15) - peak(2**15)) < 2**20


def _sigma(*pieces, breakpoints=()):
    return {"model": {"sigma": _pieces(*pieces, breakpoints=breakpoints)}}


class TestSigmaStarOnce:
    def test_sigma_star_built_once_per_bound_command(self, config_file, tmp_path,
                                                      monkeypatch):
        import sys

        from sdedensity import model

        calls = []
        original = model.build_sigma_star

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        for name, mod in list(sys.modules.items()):  # every alias of the function
            if name.split(".")[0] == "sdedensity":
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        monkeypatch.setattr(mod, attr, counting)
        assert main(["bound", "--config", str(config_file), "--out", str(tmp_path / "o")]) == 0
        assert len(calls) == 1

    def test_sigma_grid_checked_once_per_parse(self, monkeypatch):
        from sdedensity import model

        calls = []
        original = model._check_sigma_on_window
        monkeypatch.setattr(model, "_check_sigma_on_window",
                            lambda *args: calls.append(args) or original(*args))
        RunConfig.from_dict(tiny_config())
        assert len(calls) == 1

    @pytest.mark.parametrize("edit, message", [
        (_sigma({"kind": "constant", "value": 0.5}),
         "model.sigma: inf |sigma| on the window is 0.5 < l_sigma=1.0"),
        ({**_sigma({"kind": "power", "scale": 1.0, "center": 0.0, "exponent": 0.5}),
          "window": {"l_sigma": 0.01}},
         "model.sigma: not Lipschitz on the window"),
        (_sigma({"kind": "constant", "value": 1.0}, {"kind": "constant", "value": -1.0},
                breakpoints=[0.0]),
         "model.sigma: not Lipschitz on the window"),
        # gbm's sigma = 0.25 x on its window widened over the root 0, which lies
        # between the floor check's grid points
        *[({**_sigma({"kind": "affine", "intercept": 0.0, "slope": 0.25}),
            "window": {"xi": 2.0, "delta": delta, "delta0": 1.0, "l_sigma": 0.25}},
           "model.sigma: inf |sigma| on the window is 0 < l_sigma=0.25") for delta in (1e300, 9.0)],
        # 1 + sin(x) is 0 at -pi/2, between the grid points of the window
        # [-2.5, -0.5]; read on the grid alone, the floor passed
        ({**_sigma({"kind": "sinusoid", "offset": 1.0, "amplitude": 1.0, "frequency": 1.0,
                    "phase": 0.0}),
          "window": {"xi": -1.5, "delta": 1.0, "delta0": 0.25, "l_sigma": 1e-9},
          "simulation": {"x0": -1.5}},
         "model.sigma: inf |sigma| on the window is 0 < l_sigma=1e-09"),
    ])
    def test_bad_sigma_messages(self, tmp_path, capsys, edit, message):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(tiny_config(**edit)))
        assert main(["bound", "--config", str(p), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


class TestByteDeterminism:
    def test_cf_bytes_stable_across_threads(self, config_file, tmp_path):
        outs = []
        for tag, threads in (("a", 1), ("b", 8)):
            out = tmp_path / tag
            main(["cf", "--config", str(config_file), "--out", str(out),
                  "--threads", str(threads)])
            outs.append((out / "cf.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_density_bytes_stable_across_runs(self, config_file, tmp_path):
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / tag
            main(["density", "--config", str(config_file), "--out", str(out)])
            outs.append((out / "density_t0p25.csv").read_bytes())
        assert outs[0] == outs[1]


def _as_polynomial(piece):
    """A constant or affine piece spelt as the polynomial it is."""
    coeffs = {"constant": ("value",), "affine": ("intercept", "slope")}[piece["kind"]]
    return {"kind": "polynomial", "coeffs": [piece[k] for k in coeffs]}


def _without_hash(obj):
    if isinstance(obj, dict):
        return {k: _without_hash(v) for k, v in obj.items() if k != "config_hash"}
    return obj


class TestPieceSpellings:
    """constant and affine are spellings of polynomial: same outputs, byte for byte."""

    @pytest.mark.parametrize("name", ["gbm", "sign_drift"])
    def test_polynomial_spelling_gives_the_same_bytes(self, tmp_path, name):
        raw = json.loads(json.dumps(PRESETS[name]))
        raw["simulation"]["n_paths"] = 5000
        respelt = json.loads(json.dumps(raw))
        for key in ("mu", "sigma"):
            respelt["model"][key]["pieces"] = [_as_polynomial(p)
                                               for p in raw["model"][key]["pieces"]]
        assert respelt != raw
        trees = []
        for tag, cfg in (("given", raw), ("polynomial", respelt)):
            config = tmp_path / f"{tag}.json"
            config.write_text(json.dumps(cfg))
            tree = {}
            for command in ("density", "bound", "certify"):
                out = tmp_path / tag / command
                tree[command] = main([command, "--config", str(config), "--out", str(out)])
                for f in sorted(out.iterdir()):
                    if f.suffix == ".json":  # all but config_hash, re-dumped
                        data = _without_hash(json.loads(f.read_text()))
                        tree[f"{command}/{f.name}"] = json.dumps(data, sort_keys=True)
                    else:
                        tree[f"{command}/{f.name}"] = f.read_bytes()
            trees.append(tree)
        assert trees[0] == trees[1]
