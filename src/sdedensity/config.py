"""Run configuration: one field table, presets, and the assembled pipeline.

A run config is one human-editable JSON document; every piece of randomness
in a run flows from its single seed.  ``RunConfig.from_dict`` parses it once,
against the field table ``FIELDS``, into typed sections; the SHA-256 hash of
the canonical JSON (defaults filled in) is carried into every report for
provenance.
"""

from __future__ import annotations

import hashlib
import json
import math
from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import bounds as bounds_mod
from . import charfn, oracle
from .certify import CHECKS
from .cutoff import CutoffFunction, make_bump
from .errors import ConfigError, SdeDensityError
from .invert import invert as invert_cf, pushforward
from .lamperti import LampertiMap, build_lamperti_map
from .model import (Affine, CoefficientModel, Constant, DriftFunctional, HolderPower,
                    LocalWindow, Piece, PiecewiseFunction, Polynomial, SigmaStar, Sinusoid,
                    build_sigma_star, drift_functional, finite_on_window)
from .simulate import PathEnsemble, SimConfig, simulate


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def config_hash(raw: dict) -> str:
    return hashlib.sha256(canonical_json(raw).encode()).hexdigest()


# ---------------------------------------------------------------------------
# field readers: (value, "section.key") -> typed value, or a ConfigError naming the field
# ---------------------------------------------------------------------------

def _is_number(v) -> bool:
    """A finite JSON number: not a bool, a string, NaN or +-Infinity."""
    try:
        return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)
    except OverflowError:  # an integer beyond the float range
        return False


def _scalar(expected: str, ok, cast):
    def read(v, where):
        if ok(v):
            return cast(v)
        raise ConfigError(f"{where}: expected {expected}, got {v!r}")
    return read


_real = _scalar("a finite number", _is_number, float)
_int = _scalar("int", lambda v: isinstance(v, int) and not isinstance(v, bool)
               or isinstance(v, float) and v.is_integer(), int)
_str = _scalar("str", lambda v: isinstance(v, str), str)
_eps_rule = _scalar("'matched' or a finite number", lambda v: v == "matched" or _is_number(v),
                    lambda v: v if v == "matched" else float(v))


def _reals(v, where: str) -> tuple[float, ...]:
    if not isinstance(v, list):
        raise ConfigError(f"{where}: expected a list, got {v!r}")
    if not all(_is_number(x) for x in v):
        raise ConfigError(f"{where}: expected a list of finite numbers, got {v!r}")
    return tuple(float(x) for x in v)


def _optional(read):
    return lambda v, where: None if v is None else read(v, where)


def _rule(read, ok, text: str):
    """``read``, then reject a value failing ``ok`` with "<where>: <text>, got <value>"."""
    def checked(v, where):
        x = read(v, where)
        if not ok(x):
            raise ConfigError(f"{where}: {text}, got {v!r}")
        return x
    return checked


def _checks(v, where: str) -> tuple[str, ...]:
    if not isinstance(v, list):
        raise ConfigError(f"{where}: expected a list, got {v!r}")
    for i, name in enumerate(v):
        if not isinstance(name, str) or name not in CHECKS:
            raise ConfigError(f"{where}[{i}]: unknown check {name!r}; one of {list(CHECKS)}")
        if name in v[:i]:
            raise ConfigError(f"{where}[{i}]: {name!r} is listed twice")
    return tuple(v)


def t_tag(t: float) -> str:
    """Time t in an output file name: six significant digits, '.' as 'p' and
    '-' as 'm' (0.5 -> '0p5')."""
    return format(t, "g").replace(".", "p").replace("-", "m")


def _built(where: str, make, *args, **kwargs):
    """``make(*args, **kwargs)``; a rule it enforces fails under the field's name."""
    try:
        return make(*args, **kwargs)
    except SdeDensityError as exc:
        raise type(exc)(f"{where}: {exc}") from None


# ---------------------------------------------------------------------------
# pieces: model.mu and model.sigma
# ---------------------------------------------------------------------------

# kind -> (constructor, fields); constant and affine are spellings of polynomial
_PIECE_KINDS = {
    "constant": (Constant, ("value",)),
    "affine": (Affine, ("intercept", "slope")),
    "polynomial": (Polynomial, ("coeffs",)),
    "sinusoid": (Sinusoid, ("offset", "amplitude", "frequency", "phase")),
    "power": (HolderPower, ("scale", "center", "exponent")),
}
_coeffs = _rule(_reals, bool, "expected at least one coefficient")


def piece_from_dict(spec) -> Piece:
    """One piece from its config object; ``coeffs`` is a list of numbers, every
    other field one number."""
    if not isinstance(spec, dict):
        raise ConfigError(f"piece: expected an object, got {spec!r}")
    kind = spec.get("kind")
    if not isinstance(kind, str) or kind not in _PIECE_KINDS:
        raise ConfigError(f"unknown piece kind {kind!r}; one of {sorted(_PIECE_KINDS)}")
    make, fields = _PIECE_KINDS[kind]
    unknown = sorted(set(spec) - {"kind", *fields})
    if unknown:
        raise ConfigError(f"{kind} piece: unknown field(s) {unknown}; allowed {list(fields)}")
    kwargs = {name: (_coeffs if name == "coeffs" else _real)(spec[name], f"{kind} piece: {name}")
              for name in fields if name in spec}
    try:
        return make(**kwargs)
    except TypeError as exc:
        raise ConfigError(f"bad {kind} piece: {exc}") from exc


def piecewise_from_dict(spec) -> PiecewiseFunction:
    """Build a piecewise function from its config object
    ``{"breakpoints": [...], "pieces": [...]}``, with len(pieces) ==
    len(breakpoints) + 1.  A key or piece field that the object or the
    piece's kind does not have is a configuration error.
    """
    if isinstance(spec, dict):
        unknown = sorted((k for k in spec if k not in ("breakpoints", "pieces")), key=str)
        if unknown:
            raise ConfigError(f"unknown field(s) {unknown}; allowed ['breakpoints', 'pieces']")
    if not isinstance(spec, dict) or "breakpoints" not in spec:
        raise ConfigError(f"expected an object with 'breakpoints' and 'pieces', got {spec!r}")
    if not isinstance(spec.get("pieces"), list):
        raise ConfigError(f"pieces: expected a list, got {spec.get('pieces')!r}")
    return PiecewiseFunction(breakpoints=_reals(spec["breakpoints"], "breakpoints"),
                             pieces=tuple(piece_from_dict(p) for p in spec["pieces"]))


def _piecewise(v, where: str):
    return _built(where, piecewise_from_dict, v)


_REQUIRED = object()  # the default of a field that has none

# section -> key -> (reader, default).  The reader carries the field's type and
# its own rule; rules that tie sections together are in RunConfig.validate.  A
# section whose fields all have defaults may be left out, and its defaults are
# filled into RunConfig.raw; "reference" may be left out or null (no oracle).
FIELDS = {
    "model": {"mu": (_piecewise, _REQUIRED), "sigma": (_piecewise, _REQUIRED)},
    "window": {key: (_real, _REQUIRED) for key in ("xi", "delta", "delta0", "l_sigma")},
    "simulation": {"x0": (_real, _REQUIRED), "t": (_real, _REQUIRED), "h": (_real, _REQUIRED),
                   "n_paths": (_int, _REQUIRED), "seed": (_int, _REQUIRED)},
    "reference": {"kind": (_str, _REQUIRED), "mu0": (_real, 0.0), "sigma0": (_real, 1.0),
                  "theta": (_real, 0.0), "x0": (_optional(_real), None)},
    "cutoff": {"shoulder_fraction": (_real, 0.2)},
    "frequency_grid": {"y_max": (_real, 256.0), "spacing": (_real, 1.0 / 16.0)},
    "inversion": {"n_points": (_rule(_int, lambda n: n >= 2, "must be at least 2"), 513),
                  "margin": (_rule(_real, lambda m: m >= 0.0, "must be at least 0"), 0.05)},
    "bounds": {"gamma": (_rule(_real, lambda g: 0.0 < g < 1.0, "must lie in (0, 1)"), 0.5),
               "eps_rule": (_eps_rule, "matched"), "y_lo": (_real, math.e),
               "y_hi": (_optional(_real), None)},
    "density": {"t_list": (_optional(_reals), None)},
    "hoelder": {"gamma_list": (_rule(_reals, lambda gs: all(0.0 < g <= 1.0 for g in gs),
                                     "entries must lie in (0, 1]"), [0.5]),
                "t_list": (_optional(_reals), None)},
    "certify": {"checks": (_rule(_checks, bool, "expected at least one check"),
                           ["cf_sanity", "mass_consistency"]),
                "density_tolerance": (_real, 5e-3), "analytic_tolerance": (_real, 1e-5),
                "analytic_y_max": (_real, 96.0), "bound_pass_fraction": (_real, 0.95),
                "mass_slack": (_real, 1e-3)},
}

# typed sections for the fields that no other class holds; density/hoelder
# t_list default to (simulation.t,)
Inversion, Bounds, Density, Hoelder, Certify = (
    namedtuple(name, FIELDS[name.lower()]) for name in
    ("Inversion", "Bounds", "Density", "Hoelder", "Certify"))


def _parse_fields(raw) -> tuple[dict, dict]:
    """``raw`` with section defaults filled in, and every field read, per section."""
    if not isinstance(raw, dict):
        raise ConfigError(f"config: expected an object, got {raw!r}")
    unknown = sorted((k for k in raw if k not in FIELDS), key=str)
    if unknown:
        raise ConfigError(f"config: unknown section(s) {unknown}; allowed {list(FIELDS)}")
    merged, parsed = dict(raw), {}
    for section, rows in FIELDS.items():
        defaults = {key: d for key, (_, d) in rows.items() if d is not _REQUIRED}
        all_defaulted = len(defaults) == len(rows)
        block = raw.get(section, {} if all_defaulted else None)
        if block is None and section == "reference":
            parsed[section] = None
            continue
        if section not in raw and not all_defaulted:
            raise ConfigError(f"config is missing the '{section}' section")
        if not isinstance(block, dict):
            raise ConfigError(f"{section}: expected an object, got {block!r}")
        unknown = sorted((k for k in block if k not in rows), key=str)
        if unknown:
            raise ConfigError(f"{section}: unknown field(s) {unknown}; allowed {list(rows)}")
        values = {**defaults, **block}
        if all_defaulted:
            merged[section] = values
        parsed[section] = {}
        for key, (read, _) in rows.items():
            if key not in values:
                raise ConfigError(f"{section}.{key}: missing")
            parsed[section][key] = read(values[key], f"{section}.{key}")
    return merged, parsed


@dataclass(frozen=True)
class RunConfig:
    """A parsed run config.  ``raw`` is the merged JSON, kept for the hash."""

    raw: dict
    model: CoefficientModel
    window: LocalWindow
    simulation: SimConfig
    reference_model: oracle.ReferenceModel | None
    phi: CutoffFunction
    freq_grid: charfn.FrequencyGrid
    inversion: Inversion
    bounds: Bounds
    density: Density
    hoelder: Hoelder
    certify: Certify
    sigma_star: SigmaStar
    transform: LampertiMap
    g: DriftFunctional

    @classmethod
    def from_dict(cls, raw: dict) -> "RunConfig":
        merged, p = _parse_fields(raw)
        sim = p["simulation"]
        for section in ("density", "hoelder"):
            p[section]["t_list"] = p[section]["t_list"] or (sim["t"],)
        window = _built("window", LocalWindow, **p["window"])
        model = CoefficientModel(**p["model"])
        sigma_star = build_sigma_star(model.sigma, window)
        cfg = cls(
            raw=merged,
            model=model,
            window=window,
            simulation=_built("simulation", SimConfig, x0=sim["x0"], t_final=sim["t"],
                              h=sim["h"], n_paths=sim["n_paths"], seed=sim["seed"]),
            reference_model=None if p["reference"] is None else oracle.ReferenceModel(
                **p["reference"]),
            phi=_built("cutoff.shoulder_fraction", make_bump, window,
                       p["cutoff"]["shoulder_fraction"]),
            freq_grid=_built("frequency_grid", charfn.FrequencyGrid.uniform,
                             **p["frequency_grid"]),
            inversion=Inversion(**p["inversion"]), bounds=Bounds(**p["bounds"]),
            density=Density(**p["density"]), hoelder=Hoelder(**p["hoelder"]),
            certify=Certify(**p["certify"]),
            sigma_star=sigma_star,
            transform=build_lamperti_map(sigma_star),
            g=drift_functional(model.mu, sigma_star),
        )
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
        return RunConfig.from_dict(raw)

    @property
    def hash(self) -> str:
        return config_hash(self.raw)

    def sim_config(self) -> SimConfig:  # alias of .simulation, kept for perfbench/child.py
        return self.simulation

    def reference(self) -> oracle.ReferenceModel | None:  # kept for perfbench/workloads.py
        return self.reference_model

    @cached_property
    def bound_plan(self) -> bounds_mod.BoundPlan:
        """The bound report's plan at t_final: the grid frequencies in (y_lo, y_hi],
        the lookback of each, and the remainder kernel ``Pipeline.ensemble`` runs."""
        b, sim = self.bounds, self.simulation
        pos = self.freq_grid.positive()
        mask = pos > b.y_lo
        if b.y_hi is not None:
            mask &= pos <= b.y_hi
        y = pos[mask]
        if y.size == 0:
            raise ConfigError(f"bounds.y_lo..bounds.y_hi: no frequency_grid frequency lies "
                              f"in ({b.y_lo}, {b.y_hi}]")
        if b.eps_rule == "matched" and y[0] <= 1.0:
            raise ConfigError(f"bounds.y_lo: the matched lookback rule needs every checked "
                              f"frequency above 1, and y={y[0]} is not (y_lo={b.y_lo})")
        # a matched lookback too long for t is fixed by raising y_lo, a fixed one
        # by choosing another eps
        where = "bounds.y_lo" if b.eps_rule == "matched" else "bounds.eps_rule"
        return _built(where, bounds_mod.bound_plan, self.g, self.window, sim,
                      sim.t_final, y, b.eps_rule)

    @property
    def x_range(self) -> tuple[float, float]:
        """Ends of the inversion grid: H(supp phi) widened by inversion.margin per side."""
        lo, hi = self.transform.image(self.phi.a, self.phi.b)
        margin = self.inversion.margin * (hi - lo)
        return lo - margin, hi + margin

    def validate(self) -> None:
        """The rules that tie fields of different sections together."""
        sim = self.simulation
        finite_on_window(self.model.mu, self.window, "mu")  # sigma: by build_sigma_star
        for section in ("density", "hoelder"):
            steps = set()
            for t in getattr(self, section).t_list:
                if t <= 0:
                    raise ConfigError(f"{section}.t_list: t={t} is not positive")
                k = _built(f"{section}.t_list", sim.step, t)
                if k in steps:  # one output file and one set of rows per grid step
                    raise ConfigError(f"{section}.t_list: t={t} is on the grid step of an "
                                      f"earlier entry")
                steps.add(k)
        tags = {}
        for t in self.density.t_list:  # each entry writes density_t<tag>.csv
            earlier = tags.setdefault(t_tag(t), t)
            if earlier != t:
                raise ConfigError(f"density.t_list: t={earlier!r} and t={t!r} share the "
                                  f"file tag {t_tag(t)!r}")
        self.bound_plan  # built here, so its rules fail at parse time
        lo, hi = self.x_range
        limit = math.pi / self.freq_grid.spacing
        if hi - lo >= limit:
            raise ConfigError(
                f"inversion.margin: the inversion grid spans {hi - lo:.4g}, not below the "
                f"aliasing limit pi/frequency_grid.spacing = {limit:.4g}; reduce the margin "
                f"or refine the frequency spacing")
        _built("certify.analytic_y_max", charfn.FrequencyGrid.uniform,
               self.certify.analytic_y_max, self.freq_grid.spacing)
        if self.reference_model is not None:
            _built("reference", self.reference_model.marginal, sim.t_final)
        for name in self.certify.checks:
            if CHECKS[name].needs_reference and self.reference_model is None:
                raise ConfigError(f"certify.checks: {name!r} compares with the reference "
                                  f"model, and the config has no 'reference'")


class Pipeline:
    """Deterministic config -> artifacts wiring shared by all CLI commands."""

    def __init__(self, cfg: RunConfig, threads: int = 1):
        self.cfg = cfg
        self.threads = threads
        # per-t results, shared by every command and certify check of a run
        self._cf: dict[float, charfn.CharFnEstimate] = {}
        self._density: dict[float, tuple] = {}
        self.reads((cfg.simulation.t_final, *cfg.density.t_list, *cfg.hoelder.t_list), True)

    @property
    def model(self) -> CoefficientModel:
        return self.cfg.model

    @property
    def window(self) -> LocalWindow:
        return self.cfg.window

    @property
    def phi(self) -> CutoffFunction:
        return self.cfg.phi

    @property
    def freq_grid(self) -> charfn.FrequencyGrid:
        return self.cfg.freq_grid

    @property
    def sigma_star(self) -> SigmaStar:
        return self.cfg.sigma_star

    @property
    def transform(self) -> LampertiMap:
        return self.cfg.transform

    def reads(self, times, bound: bool = False) -> None:
        """Declare, before the ensemble is simulated, what the command reads:
        the states at the grid times ``times`` (``SimConfig.step`` rejects any
        other) and, if ``bound``, the bound report.

        Undeclared, a pipeline reads every time the config names (t_final and
        the density/hoelder t_lists) and runs the bound.
        """
        if "ensemble" in self.__dict__:
            raise RuntimeError("reads() must come before the ensemble is simulated")
        self._reads = ([self.cfg.simulation.step(t) for t in times], bound)

    @cached_property
    def ensemble(self) -> PathEnsemble:
        """The paths at the declared times.  If the bound runs, each block's
        states in its lookback band are reduced to remainder moments step by
        step while simulating, and never stored."""
        steps, bound = self._reads
        return simulate(self.model, self.cfg.simulation, threads=self.threads, record=steps,
                        band_pass=self.cfg.bound_plan.kernel if bound else None)

    def x_grid(self) -> np.ndarray:
        """Inversion grid in the transformed coordinate, covering H(supp phi)."""
        return np.linspace(*self.cfg.x_range, self.cfg.inversion.n_points)

    def cf_at(self, t: float) -> charfn.CharFnEstimate:
        if t not in self._cf:
            self._cf[t] = charfn.estimate_localized(self.ensemble, self.phi, self.transform,
                                                    self.freq_grid, t, threads=self.threads)
        return self._cf[t]

    def density_of(self, cf: charfn.CharFnEstimate) -> tuple:
        """A localized CF inverted onto ``x_grid()``: the density p in the
        transformed coordinate and its pushforward q in the state coordinate."""
        p = invert_cf(cf, self.x_grid())
        return p, pushforward(p, self.transform, self.sigma_star)

    def density_at(self, t: float):
        if t not in self._density:
            cf = self.cf_at(t)
            self._density[t] = (cf, *self.density_of(cf))
        return self._density[t]

    def bound_report(self) -> bounds_mod.BoundReport:
        """The bound report at t_final, from the remainder moments ``simulate`` made."""
        if not self._reads[1]:
            raise RuntimeError("bound_report() needs reads(..., bound=True) before the "
                               "ensemble is simulated")
        plan = self.cfg.bound_plan
        return bounds_mod.bound_report(self.cf_at(plan.t), plan, self.ensemble.band_parts)


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
