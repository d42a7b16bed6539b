"""Run configuration: JSON schema, presets, and the assembled pipeline.

A run config is one human-editable JSON document; every piece of randomness
in a run flows from its single seed.  The SHA-256 hash of the canonical JSON
is carried into every report for provenance.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import bounds as bounds_mod
from . import charfn, oracle
from .cutoff import CutoffFunction, make_bump
from .errors import ConfigError
from .invert import invert as invert_cf, pushforward
from .lamperti import LampertiMap, build_lamperti_map
from .model import (CoefficientModel, LocalWindow, SigmaStar, build_sigma_star,
                    piecewise_from_dict, validate_window)
from .simulate import PathEnsemble, SimConfig, simulate


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def config_hash(raw: dict) -> str:
    return hashlib.sha256(canonical_json(raw).encode()).hexdigest()


def read_section(raw: dict, section: str) -> dict:
    """``raw[section]``; a missing section or one that is not an object is a ConfigError."""
    if section not in raw:
        raise ConfigError(f"config is missing the '{section}' section")
    block = raw[section]
    if not isinstance(block, dict):
        raise ConfigError(f"{section}: expected an object, got {block!r}")
    return block


def read_field(raw: dict, section: str, key: str, kind=float):
    """``kind(raw[section][key])``; a missing or ill-typed field is a ConfigError naming it."""
    block = read_section(raw, section)
    if key not in block:
        raise ConfigError(f"{section}.{key}: missing")
    try:
        return kind(block[key])
    except (TypeError, ValueError):
        raise ConfigError(f"{section}.{key}: expected {kind.__name__}, "
                          f"got {block[key]!r}") from None


def read_list(raw: dict, section: str, key: str) -> list[float]:
    """``raw[section][key]`` as floats; a non-list or non-numeric entry is a ConfigError naming it."""
    values = read_section(raw, section).get(key)
    if not isinstance(values, list):
        raise ConfigError(f"{section}.{key}: expected a list, got {values!r}")
    try:
        return [float(v) for v in values]
    except (TypeError, ValueError):
        raise ConfigError(f"{section}.{key}: expected a list of numbers, "
                          f"got {values!r}") from None


_DEFAULTS = {
    "cutoff": {"shoulder_fraction": 0.2},
    "frequency_grid": {"y_max": 256.0, "spacing": 1.0 / 16.0},
    "inversion": {"n_points": 513, "margin": 0.05},
    "bounds": {"gamma": 0.5, "eps_rule": "matched", "y_lo": math.e, "y_hi": None},
    "density": {"t_list": None},
    "hoelder": {"gamma_list": [0.5], "t_list": None},
    "certify": {
        "checks": ["cf_sanity", "mass_consistency"],
        "density_tolerance": 5e-3,
        "analytic_tolerance": 1e-5,
        "analytic_y_max": 96.0,
        "bound_pass_fraction": 0.95,
        "mass_slack": 1e-3,
    },
}


# names a run's certify.checks may list; the CLI maps each to its check
CERTIFY_CHECKS = ("cf_sanity", "mass_consistency", "density_vs_oracle",
                  "analytic_roundtrip", "bound_check")

# the keys each section may carry
_FIELDS = {
    "model": ("mu", "sigma"),
    "window": ("xi", "delta", "delta0", "l_sigma"),
    "simulation": ("x0", "t", "h", "n_paths", "seed"),
    "reference": ("kind", "mu0", "sigma0", "theta", "x0"),
    **{section: tuple(defaults) for section, defaults in _DEFAULTS.items()},
}


def _reject_unknown_keys(raw: dict) -> None:
    unknown = sorted((k for k in raw if k not in _FIELDS), key=str)
    if unknown:
        raise ConfigError(f"config: unknown section(s) {unknown}; allowed {list(_FIELDS)}")
    for section, fields in _FIELDS.items():
        block = raw.get(section)
        if isinstance(block, dict):
            unknown = sorted((k for k in block if k not in fields), key=str)
            if unknown:
                raise ConfigError(f"{section}: unknown field(s) {unknown}; "
                                  f"allowed {list(fields)}")


_LATE_FIELDS = (
    ("cutoff", "shoulder_fraction", float),
    ("inversion", "n_points", int),
    ("inversion", "margin", float),
    ("bounds", "gamma", float),
    *(("certify", key, float) for key in ("density_tolerance", "analytic_tolerance",
                                          "analytic_y_max", "bound_pass_fraction",
                                          "mass_slack")),
)


@dataclass(frozen=True)
class RunConfig:
    raw: dict

    @classmethod
    def from_dict(cls, raw: dict) -> "RunConfig":
        if not isinstance(raw, dict):
            raise ConfigError(f"config: expected an object, got {raw!r}")
        _reject_unknown_keys(raw)
        merged = dict(raw)
        for key, defaults in _DEFAULTS.items():
            merged[key] = {**defaults, **(read_section(raw, key) if key in raw else {})}
        for required in ("model", "window", "simulation"):
            read_section(merged, required)
        cfg = cls(raw=merged)
        cfg.validate()
        return cfg

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        try:
            with open(path) as fh:
                raw = json.load(fh)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"{path}: {exc}") from None
        return cls.from_dict(raw)

    def with_seed(self, seed: int) -> "RunConfig":
        raw = json.loads(canonical_json(self.raw))
        raw["simulation"]["seed"] = int(seed)
        return RunConfig(raw=raw)

    @property
    def hash(self) -> str:
        return config_hash(self.raw)

    # -- parsed sections ------------------------------------------------------

    def model(self) -> CoefficientModel:
        m = read_section(self.raw, "model")

        def read(key):
            if key not in m:
                raise ConfigError(f"model.{key}: missing")
            try:
                return piecewise_from_dict(m[key])
            except ConfigError as exc:
                raise ConfigError(f"model.{key}: {exc}") from None

        return CoefficientModel(mu=read("mu"), sigma=read("sigma"))

    def window(self) -> LocalWindow:
        return LocalWindow(**{k: read_field(self.raw, "window", k) for k in _FIELDS["window"]})

    def sim_config(self) -> SimConfig:
        def read(key, kind=float):
            return read_field(self.raw, "simulation", key, kind)

        return SimConfig(x0=read("x0"), t_final=read("t"), h=read("h"),
                         n_paths=read("n_paths", int), seed=read("seed", int))

    def frequency_grid(self) -> charfn.FrequencyGrid:
        return charfn.FrequencyGrid.uniform(read_field(self.raw, "frequency_grid", "y_max"),
                                            read_field(self.raw, "frequency_grid", "spacing"))

    def reference(self):
        if self.raw.get("reference") is None:
            return None
        r = read_section(self.raw, "reference")

        def read(key, default):
            return default if key not in r else read_field(self.raw, "reference", key)

        return oracle.ReferenceModel(
            kind=read_field(self.raw, "reference", "kind", str), mu0=read("mu0", 0.0),
            sigma0=read("sigma0", 1.0), theta=read("theta", 0.0),
            x0=None if r.get("x0") is None else read("x0", None),
        )

    def t_list(self, section: str) -> list[float]:
        if not read_section(self.raw, section).get("t_list"):
            return [read_field(self.raw, "simulation", "t")]
        return read_list(self.raw, section, "t_list")

    # -- cross-field validation ----------------------------------------------

    def validate(self) -> None:
        sim = self.sim_config()
        w = self.window()
        model = self.model()
        validate_window(model, w)
        for section in ("density", "hoelder"):
            for t in self.t_list(section):
                k = round(t / sim.h)
                if not (0 < t <= sim.t_final) or abs(k * sim.h - t) > 1e-9:
                    raise ConfigError(f"{section} t={t} is not on the grid or exceeds t_final")
        b = self.raw["bounds"]
        if b["eps_rule"] == "matched":
            y_lo = read_field(self.raw, "bounds", "y_lo")
            if y_lo <= 1.0:
                raise ConfigError("matched lookback needs y_lo > 1")
            if bounds_mod.epsilon_rule(y_lo) >= sim.t_final:
                raise ConfigError(
                    f"lookback at y_lo={y_lo} is {bounds_mod.epsilon_rule(y_lo):.4g} "
                    f">= t={sim.t_final}; raise t or y_lo"
                )
        fg = self.frequency_grid()
        # the aliasing constraint on the inversion grid is checked when the
        # grid is materialized (it depends on the transform); pre-check the
        # obvious part here so bad configs fail before simulating
        if fg.spacing <= 0:
            raise ConfigError("frequency spacing must be positive")
        # fields first read after the simulation: parse them now so a bad one fails first
        for section, key, kind in _LATE_FIELDS:
            read_field(self.raw, section, key, kind)
        read_list(self.raw, "hoelder", "gamma_list")
        checks = self.raw["certify"]["checks"]
        if not isinstance(checks, list):
            raise ConfigError(f"certify.checks: expected a list, got {checks!r}")
        for i, name in enumerate(checks):
            if name not in CERTIFY_CHECKS:
                raise ConfigError(f"certify.checks[{i}]: unknown check {name!r}; "
                                  f"one of {list(CERTIFY_CHECKS)}")
        rm = self.reference()
        if rm is not None:
            try:
                rm.marginal(sim.t_final)
            except ConfigError as exc:
                raise ConfigError(f"reference: {exc}") from None


class Pipeline:
    """Deterministic config -> artifacts wiring shared by all CLI commands."""

    def __init__(self, cfg: RunConfig, threads: int = 1):
        self.cfg = cfg
        self.threads = threads
        # per-t results, shared by every command and certify check of a run
        self._cf: dict[float, charfn.CharFnEstimate] = {}
        self._density: dict[float, tuple] = {}

    @cached_property
    def model(self) -> CoefficientModel:
        return self.cfg.model()

    @cached_property
    def window(self) -> LocalWindow:
        return self.cfg.window()

    @cached_property
    def phi(self) -> CutoffFunction:
        return make_bump(self.window, read_field(self.cfg.raw, "cutoff", "shoulder_fraction"))

    @cached_property
    def sigma_star(self) -> SigmaStar:
        return build_sigma_star(self.model.sigma, self.window)

    @cached_property
    def transform(self) -> LampertiMap:
        return build_lamperti_map(self.sigma_star)

    @cached_property
    def record_plan(self) -> tuple[int, ...]:
        """The grid steps any command can read, worked out from the config alone.

        These are t_final, the density/hoelder t_lists and the bound lookback
        band [k_end - max lookback, k_end], so the plan does not depend on
        which command runs.
        """
        sim = self.cfg.sim_config()
        steps = {sim.n_steps}
        for section in ("density", "hoelder"):
            steps.update(round(t / sim.h) for t in self.cfg.t_list(section))
        try:
            k_steps, _ = bounds_mod.lookback_steps(*self._bound_frequencies(),
                                                   sim.t_final, sim.h)
        except ConfigError:
            pass  # bound_report raises the same error, before it reads any state
        else:
            steps.update(range(sim.n_steps - int(np.max(k_steps)), sim.n_steps))
        return tuple(sorted(steps))

    @cached_property
    def ensemble(self) -> PathEnsemble:
        return simulate(self.model, self.cfg.sim_config(), threads=self.threads,
                        record=self.record_plan)

    @cached_property
    def freq_grid(self) -> charfn.FrequencyGrid:
        return self.cfg.frequency_grid()

    def x_grid(self) -> np.ndarray:
        """Inversion grid in the transformed coordinate, covering H(supp phi)."""
        ha = self.transform.forward(self.phi.a)
        hb = self.transform.forward(self.phi.b)
        lo, hi = min(ha, hb), max(ha, hb)
        margin = read_field(self.cfg.raw, "inversion", "margin") * (hi - lo)
        grid = np.linspace(lo - margin, hi + margin,
                           read_field(self.cfg.raw, "inversion", "n_points", int))
        if (grid[-1] - grid[0]) >= math.pi / self.freq_grid.spacing:
            raise ConfigError("inversion grid violates the aliasing limit; "
                              "reduce the margin or refine the frequency spacing")
        return grid

    def cf_at(self, t: float) -> charfn.CharFnEstimate:
        if t not in self._cf:
            self._cf[t] = charfn.estimate_localized(self.ensemble, self.phi, self.transform,
                                                    self.freq_grid, t, threads=self.threads)
        return self._cf[t]

    def density_at(self, t: float):
        if t not in self._density:
            cf = self.cf_at(t)
            p = invert_cf(cf, self.x_grid())
            q = pushforward(p, self.transform, self.sigma_star)
            self._density[t] = (cf, p, q)
        return self._density[t]

    def _bound_frequencies(self) -> tuple[np.ndarray, str | float]:
        """The frequencies the bound report checks, and its lookback rule."""
        raw = self.cfg.raw
        pos = self.freq_grid.positive()
        mask = pos > read_field(raw, "bounds", "y_lo")
        if raw["bounds"]["y_hi"] is not None:
            mask &= pos <= read_field(raw, "bounds", "y_hi")
        rule = raw["bounds"]["eps_rule"]
        if rule != "matched":
            rule = read_field(raw, "bounds", "eps_rule")
        return pos[mask], rule

    def bound_report(self, c: float | None = None):
        t = self.cfg.sim_config().t_final
        cf = self.cf_at(t)
        y_check, rule = self._bound_frequencies()
        return bounds_mod.bound_report(cf, self.ensemble, self.model, self.window,
                                       t, y_check=y_check, eps_rule=rule, c=c,
                                       threads=self.threads)


# ---------------------------------------------------------------------------
# presets
# ---------------------------------------------------------------------------

def _const(v):
    return {"breakpoints": [], "pieces": [{"kind": "constant", "value": v}]}


def _affine(intercept, slope):
    return {"breakpoints": [], "pieces": [{"kind": "affine", "intercept": intercept,
                                           "slope": slope}]}


PRESETS: dict[str, dict] = {
    "gaussian": {
        "model": {"mu": _const(0.0), "sigma": _const(1.0)},
        "window": {"xi": 0.0, "delta": 6.0, "delta0": 1.0, "l_sigma": 1.0},
        "cutoff": {"shoulder_fraction": 0.2},
        "simulation": {"x0": 0.0, "t": 1.0, "h": 2.0**-6, "n_paths": 1_000_000,
                       "seed": 20240801},
        "frequency_grid": {"y_max": 16.0, "spacing": 1.0 / 16.0},
        "inversion": {"n_points": 501, "margin": 0.05},
        "reference": {"kind": "brownian_drift", "mu0": 0.0, "sigma0": 1.0, "x0": 0.0},
        "density": {"t_list": [1.0]},
        "hoelder": {"gamma_list": [0.5], "t_list": [0.5, 1.0]},
        "bounds": {"gamma": 0.5, "eps_rule": "matched", "y_lo": math.e, "y_hi": 16.0},
        "certify": {"checks": ["cf_sanity", "mass_consistency", "density_vs_oracle",
                               "analytic_roundtrip"],
                    "density_tolerance": 5e-3, "analytic_tolerance": 1e-5,
                    "analytic_y_max": 96.0},
    },
    "ou": {
        "model": {"mu": _affine(0.0, -1.0), "sigma": _const(math.sqrt(2.0))},
        "window": {"xi": 0.0, "delta": 5.0, "delta0": 1.0, "l_sigma": math.sqrt(2.0)},
        "cutoff": {"shoulder_fraction": 0.2},
        "simulation": {"x0": 0.0, "t": 1.0, "h": 2.0**-8, "n_paths": 200_000,
                       "seed": 20240802},
        "frequency_grid": {"y_max": 16.0, "spacing": 1.0 / 16.0},
        "inversion": {"n_points": 501, "margin": 0.05},
        "reference": {"kind": "ornstein_uhlenbeck", "theta": 1.0,
                      "sigma0": math.sqrt(2.0), "x0": 0.0},
        "density": {"t_list": [0.5, 1.0]},
        "hoelder": {"gamma_list": [0.5], "t_list": [0.5, 1.0]},
        "certify": {"checks": ["cf_sanity", "mass_consistency", "density_vs_oracle"],
                    "density_tolerance": 1e-2},
    },
    "gbm": {
        "model": {"mu": _affine(0.0, 0.05), "sigma": _affine(0.0, 0.25)},
        "window": {"xi": 2.0, "delta": 1.0, "delta0": 0.25, "l_sigma": 0.25},
        "cutoff": {"shoulder_fraction": 0.25},
        "simulation": {"x0": 2.0, "t": 1.0, "h": 2.0**-8, "n_paths": 1_000_000,
                       "seed": 20240803},
        "frequency_grid": {"y_max": 32.0, "spacing": 1.0 / 8.0},
        "inversion": {"n_points": 501, "margin": 0.05},
        "reference": {"kind": "geometric_bm", "mu0": 0.05, "sigma0": 0.25, "x0": 2.0},
        "density": {"t_list": [1.0]},
        "hoelder": {"gamma_list": [0.5], "t_list": [0.5, 1.0]},
        "certify": {"checks": ["cf_sanity", "mass_consistency", "density_vs_oracle"],
                    "density_tolerance": 1e-2},
    },
    "sign_drift": {
        "model": {
            "mu": {"breakpoints": [0.0],
                   "pieces": [{"kind": "constant", "value": 1.0},
                              {"kind": "constant", "value": -1.0}]},
            "sigma": _const(1.0),
        },
        "window": {"xi": 0.0, "delta": 2.0, "delta0": 0.5, "l_sigma": 1.0},
        "cutoff": {"shoulder_fraction": 0.2},
        "simulation": {"x0": 0.0, "t": 0.5, "h": 2.0**-10, "n_paths": 200_000,
                       "seed": 20240804},
        "frequency_grid": {"y_max": 128.0, "spacing": 0.25},
        "inversion": {"n_points": 513, "margin": 0.05},
        "density": {"t_list": [0.25, 0.5]},
        "hoelder": {"gamma_list": [0.5], "t_list": [0.25, 0.5]},
        "bounds": {"gamma": 0.5, "eps_rule": "matched", "y_lo": math.e, "y_hi": 128.0},
        "certify": {"checks": ["cf_sanity", "mass_consistency", "bound_check"],
                    "bound_pass_fraction": 0.95},
    },
}


def preset(name: str) -> RunConfig:
    if name not in PRESETS:
        raise ConfigError(f"unknown preset {name!r}; available: {sorted(PRESETS)}")
    return RunConfig.from_dict(json.loads(json.dumps(PRESETS[name])))
