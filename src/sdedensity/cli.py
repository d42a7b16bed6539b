"""Command-line driver: config -> simulation -> CF -> bounds -> density -> reports.

This module owns the layout of every file a command writes.  Every command is
deterministic for a fixed config: outputs are byte-identical across runs and
across --threads settings.  Reports carry the config hash.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .certify import CHECKS
from .config import Pipeline, RunConfig, preset, t_tag
from .errors import SdeDensityError
from .invert import holder_norm
from .simulate import save_ensemble, simulate


def _json_dump(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _write_csv(path: Path, header: str, *columns) -> None:
    """One row per entry of the equal-length columns.  Each cell is its float
    to 17 significant digits, which reads back to the same bits; a bool
    column is written as 0/1."""
    with open(path, "w", newline="") as fh:
        fh.write(header + "\n")
        for row in zip(*columns, strict=True):
            fh.write(",".join(format(float(v), ".17g") for v in row) + "\n")


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
    _write_csv(out / "cf.csv", "y,re,im,se",
               cf.grid.values, cf.values.real, cf.values.imag, cf.std_errors)
    return {"cf": "cf.csv", "t": t, "y_max": cf.grid.y_max}


def cmd_bound(pipe: Pipeline, out: Path) -> dict:
    pipe.reads([pipe.cfg.simulation.t_final], bound=True)
    r = pipe.bound_report()
    _write_csv(out / "bound.csv", "y,empirical,se,gauss_term,eps_term,remainder_term,bound,pass",
               r.y, r.empirical, r.se, r.gauss_term, r.eps_term, r.remainder_term, r.bound,
               r.passed)
    _json_dump(out / "bound_summary.json", {
        "t": r.t, "eps_rule": r.eps_rule, "n_paths": r.n_paths, "n_frequencies": int(r.y.size),
        "c_fit": r.c_fit, "pass_fraction": r.pass_fraction, "config_hash": pipe.cfg.hash})
    return {"bound": "bound.csv", "pass_fraction": r.pass_fraction, "c_fit": r.c_fit}


def cmd_density(pipe: Pipeline, out: Path) -> dict:
    pipe.reads(pipe.cfg.density.t_list)
    files = []
    for t in pipe.cfg.density.t_list:
        _, _, q = pipe.density_at(t)
        name = f"density_t{t_tag(t)}.csv"
        _write_csv(out / name, "x,q", q.x_grid, q.values)
        files.append(name)
    return {"densities": files}


def cmd_hoelder(pipe: Pipeline, out: Path) -> dict:
    pipe.reads(pipe.cfg.hoelder.t_list)
    rows = []
    for t in pipe.cfg.hoelder.t_list:
        _, _, q = pipe.density_at(t)
        rows += [(t, gamma, holder_norm(q, gamma)) for gamma in pipe.cfg.hoelder.gamma_list]
    _write_csv(out / "hoelder.csv", "t,gamma,c_gamma_norm", *zip(*rows))
    return {"hoelder": "hoelder.csv", "rows": len(rows)}


def cmd_certify(pipe: Pipeline, out: Path) -> dict:
    checks = pipe.cfg.certify.checks
    # the config parser has checked every name against certify.CHECKS
    pipe.reads([pipe.cfg.simulation.t_final], bound=any(CHECKS[n].reads_bound for n in checks))
    results = {name: CHECKS[name].run(pipe) for name in checks}
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
    except OSError as exc:  # creating --out, or writing into it
        print(f"error: --out: {exc.filename or args.out}: {exc.strerror or exc}",
              file=sys.stderr)
        return 2
    if args.command == "certify":
        return 0 if result["all_pass"] else 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
