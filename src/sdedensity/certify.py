"""The certify checks, and one table of what each check needs.

A check reads a set-up ``Pipeline`` and returns its row of ``certify.json``:
``{"value", "tolerance", "pass", ...}``.  A config's ``certify.checks`` names
rows of ``CHECKS``.  A check with ``needs_reference`` compares with the
config's reference model, so the config must have one; a check with
``reads_bound`` reads the bound report, which the command declares before the
paths are simulated.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

from . import oracle
from .bounds import fit_decay
from .charfn import CharFnEstimate


def _check_cf_sanity(pipe) -> dict:
    cf = pipe.cf_at(pipe.cfg.simulation.t_final)
    excess = float(np.max(np.abs(cf.values) - 3.0 * cf.std_errors)) - pipe.phi.sup_norm
    m = cf.grid.half_count
    symmetric = bool(np.array_equal(cf.values[:m], np.conj(cf.values[m + 1:][::-1])))
    return {"value": excess, "tolerance": 0.0, "pass": bool(excess <= 0.0 and symmetric)}


def _check_mass(pipe) -> dict:
    cf, p, _ = pipe.density_at(pipe.cfg.simulation.t_final)
    gamma = pipe.cfg.bounds.gamma
    c_fit = fit_decay(cf, gamma)
    truncation = c_fit / (np.pi * gamma * (1.0 + cf.grid.y_max) ** gamma)
    m = cf.grid.half_count
    tol = 2.0 * truncation + 3.0 * cf.std_errors[m] + pipe.cfg.certify.mass_slack
    gap = abs(p.mass() - cf.values[m].real)
    return {"value": gap, "tolerance": tol, "pass": bool(gap <= tol)}


def _vs_reference(pipe, q, tol: float) -> dict:
    """The sup error max|q - phi p_t| of a state density q at t_final against the
    reference model's density p_t, and its verdict at ``tol``."""
    t = pipe.cfg.simulation.t_final
    target = pipe.phi(q.x_grid) * oracle.exact_density(pipe.cfg.reference_model, t, q.x_grid)
    err = float(np.max(np.abs(q.values - target)))
    return {"value": err, "tolerance": tol, "pass": bool(err <= tol)}


def _check_density_vs_oracle(pipe) -> dict:
    _, _, q = pipe.density_at(pipe.cfg.simulation.t_final)
    return _vs_reference(pipe, q, pipe.cfg.certify.density_tolerance)


def _check_analytic_roundtrip(pipe) -> dict:
    """Feed the exact localized CF to the inverter and compare densities."""
    rm = pipe.cfg.reference_model
    t = pipe.cfg.simulation.t_final
    grid = pipe.cfg.analytic_grid
    ys = grid.values[grid.half_count:]
    pos = oracle.localized_cf_transformed(rm, pipe.phi, pipe.transform, t, ys)
    _, q = pipe.density_of(CharFnEstimate.from_values(pos, grid, t=t))
    return _vs_reference(pipe, q, pipe.cfg.certify.analytic_tolerance)


def _check_bound(pipe) -> dict:
    report = pipe.bound_report()
    frac = report.pass_fraction
    need = pipe.cfg.certify.bound_pass_fraction
    return {"value": frac, "tolerance": need, "pass": bool(frac >= need),
            "c_fit": report.c_fit}


class Check(NamedTuple):
    run: Callable[..., dict]
    needs_reference: bool
    reads_bound: bool


# name: Check(run, needs_reference, reads_bound), in the order of the config error text
CHECKS = {
    "cf_sanity": Check(_check_cf_sanity, False, False),
    "mass_consistency": Check(_check_mass, False, False),
    "density_vs_oracle": Check(_check_density_vs_oracle, True, False),
    "analytic_roundtrip": Check(_check_analytic_roundtrip, True, False),
    "bound_check": Check(_check_bound, False, True),
}
