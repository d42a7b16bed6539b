"""Command-line driver: config -> simulation -> CF -> bounds -> density -> reports.

Every command is deterministic for a fixed config: outputs are byte-identical
across runs and across --threads settings.  Reports carry the config hash.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import oracle
from .bounds import fit_decay
from .config import Pipeline, RunConfig, preset
from .errors import SdeDensityError
from .invert import holder_norm, invert as invert_cf, pushforward
from .simulate import save_ensemble, simulate
from .util import fmt_float


def _json_dump(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _t_tag(t: float) -> str:
    return format(t, "g").replace(".", "p").replace("-", "m")


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_simulate(pipe: Pipeline, out: Path) -> dict:
    # the file holds every grid step, not just the times the other commands read
    ens = simulate(pipe.model, pipe.cfg.simulation, threads=pipe.threads)
    path = out / "ensemble.bin"
    save_ensemble(path, ens)
    return {"ensemble": path.name, "n_paths": ens.n_paths}


def cmd_cf(pipe: Pipeline, out: Path) -> dict:
    t = pipe.cfg.simulation.t_final
    pipe.reads([t])
    cf = pipe.cf_at(t)
    cf.to_csv(out / "cf.csv")
    return {"cf": "cf.csv", "t": t, "y_max": cf.grid.y_max}


def cmd_bound(pipe: Pipeline, out: Path) -> dict:
    pipe.reads([pipe.cfg.simulation.t_final], bound=True)
    report = pipe.bound_report()
    report.to_csv(out / "bound.csv")
    summary = report.summary()
    summary["config_hash"] = pipe.cfg.hash
    _json_dump(out / "bound_summary.json", summary)
    return {"bound": "bound.csv", "pass_fraction": report.pass_fraction,
            "c_fit": report.c_fit}


def cmd_density(pipe: Pipeline, out: Path) -> dict:
    pipe.reads(pipe.cfg.density.t_list)
    files = []
    for t in pipe.cfg.density.t_list:
        _, _, q = pipe.density_at(t)
        name = f"density_t{_t_tag(t)}.csv"
        q.to_csv(out / name)
        files.append(name)
    return {"densities": files}


def cmd_hoelder(pipe: Pipeline, out: Path) -> dict:
    pipe.reads(pipe.cfg.hoelder.t_list)
    rows = []
    for t in pipe.cfg.hoelder.t_list:
        _, _, q = pipe.density_at(t)
        for gamma in pipe.cfg.hoelder.gamma_list:
            rows.append((t, gamma, holder_norm(q, gamma)))
    with open(out / "hoelder.csv", "w", newline="") as fh:
        fh.write("t,gamma,c_gamma_norm\n")
        for t, g, v in rows:
            fh.write(f"{fmt_float(t)},{fmt_float(g)},{fmt_float(v)}\n")
    return {"hoelder": "hoelder.csv", "rows": len(rows)}


def _check_cf_sanity(pipe: Pipeline) -> dict:
    t = pipe.cfg.simulation.t_final
    cf = pipe.cf_at(t)
    excess = float(np.max(np.abs(cf.values) - 3.0 * cf.std_errors)) - pipe.phi.sup_norm
    m = cf.grid.half_count
    symmetric = bool(np.array_equal(cf.values[:m], np.conj(cf.values[m + 1:][::-1])))
    return {"value": excess, "tolerance": 0.0, "pass": bool(excess <= 0.0 and symmetric)}


def _check_mass(pipe: Pipeline) -> dict:
    t = pipe.cfg.simulation.t_final
    cf, p, _ = pipe.density_at(t)
    gamma = pipe.cfg.bounds.gamma
    c_fit = fit_decay(cf, gamma)
    truncation = c_fit / (np.pi * gamma * (1.0 + cf.grid.y_max) ** gamma)
    tol = 2.0 * truncation + 3.0 * cf.se_at(0.0) + pipe.cfg.certify.mass_slack
    gap = abs(p.mass() - cf.value_at(0.0).real)
    return {"value": gap, "tolerance": tol, "pass": bool(gap <= tol)}


def _vs_reference(pipe: Pipeline, q, tol: float) -> dict:
    """The sup error max|q - phi p_t| of a state density q at t_final against the
    reference model's density p_t, and its verdict at ``tol``."""
    t = pipe.cfg.simulation.t_final
    target = pipe.phi(q.x_grid) * oracle.exact_density(pipe.cfg.reference_model, t, q.x_grid)
    err = float(np.max(np.abs(q.values - target)))
    return {"value": err, "tolerance": tol, "pass": bool(err <= tol)}


def _check_density_vs_oracle(pipe: Pipeline) -> dict:
    _, _, q = pipe.density_at(pipe.cfg.simulation.t_final)
    return _vs_reference(pipe, q, pipe.cfg.certify.density_tolerance)


def _check_analytic_roundtrip(pipe: Pipeline) -> dict:
    """Feed the exact localized CF to the inverter and compare densities."""
    from .charfn import CharFnEstimate, FrequencyGrid

    rm = pipe.cfg.reference_model
    t = pipe.cfg.simulation.t_final
    grid = FrequencyGrid.uniform(pipe.cfg.certify.analytic_y_max, pipe.freq_grid.spacing)
    ys = grid.values[grid.half_count:]
    pos = oracle.localized_cf_transformed(rm, pipe.phi, pipe.transform, t, ys)
    cf = CharFnEstimate.from_values(pos, grid, t=t)
    p = invert_cf(cf, pipe.x_grid())
    q = pushforward(p, pipe.transform, pipe.sigma_star)
    return _vs_reference(pipe, q, pipe.cfg.certify.analytic_tolerance)


def _check_bound(pipe: Pipeline) -> dict:
    report = pipe.bound_report()
    frac = report.pass_fraction
    need = pipe.cfg.certify.bound_pass_fraction
    return {"value": frac, "tolerance": need, "pass": bool(frac >= need),
            "c_fit": report.c_fit}


_CHECKS = {
    "cf_sanity": _check_cf_sanity,
    "mass_consistency": _check_mass,
    "density_vs_oracle": _check_density_vs_oracle,
    "analytic_roundtrip": _check_analytic_roundtrip,
    "bound_check": _check_bound,
}


def cmd_certify(pipe: Pipeline, out: Path) -> dict:
    checks = pipe.cfg.certify.checks
    pipe.reads([pipe.cfg.simulation.t_final], bound="bound_check" in checks)
    # the config parser has checked every name against config.CERTIFY_CHECKS
    results = {name: _CHECKS[name](pipe) for name in checks}
    report = {
        "config_hash": pipe.cfg.hash,
        "seed": pipe.cfg.simulation.seed,
        "checks": results,
        "all_pass": bool(all(r["pass"] for r in results.values())),
    }
    _json_dump(out / "certify.json", report)
    return report


_COMMANDS = {
    "simulate": cmd_simulate,
    "cf": cmd_cf,
    "bound": cmd_bound,
    "density": cmd_density,
    "hoelder": cmd_hoelder,
    "certify": cmd_certify,
}


def _threads(text: str) -> int:
    try:
        n = int(text)
    except ValueError:
        n = 0
    if n < 1:
        raise argparse.ArgumentTypeError(f"expected an integer of at least 1, got {text!r}")
    return n


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sdedensity",
        description="Local densities of scalar SDEs via characteristic-function "
                    "bounds, with Monte-Carlo certification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        src = p.add_mutually_exclusive_group(required=True)
        src.add_argument("--config", type=Path, help="path to a JSON run config")
        src.add_argument("--preset", type=str, help="built-in config name")
        p.add_argument("--out", type=Path, required=True, help="output directory")
        p.add_argument("--threads", type=_threads, default=1,
                       help="worker threads (never affects the output bytes)")
        p.add_argument("--seed-override", type=int, default=None,
                       help="replace the config seed")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = preset(args.preset) if args.preset else RunConfig.from_file(args.config)
        if args.seed_override is not None:
            cfg = cfg.with_seed(args.seed_override)
        out = args.out
        out.mkdir(parents=True, exist_ok=True)
        pipe = Pipeline(cfg, threads=args.threads)
        result = _COMMANDS[args.command](pipe, out)
        _json_dump(out / "run_info.json",
                   {"command": args.command, "config_hash": cfg.hash, "result": result})
    except SdeDensityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.command == "certify":
        return 0 if result["all_pass"] else 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
