"""Shared independent oracles for the test suite."""

import math

import numpy as np

import sdedensity as sd


def cf_from_function(f, grid, t=0.0):
    """An analytic CF on the grid: f at the non-negative frequencies, zero
    standard errors, mirrored for symmetry."""
    return sd.CharFnEstimate.from_values([complex(f(y)) for y in grid.values[grid.half_count:]],
                                         grid, t)


def drift_g(model, w):
    """The drift functional g of a model on a window, built as ``RunConfig`` builds it."""
    return sd.DriftFunctional(model.mu, sd.build_sigma_star(model.sigma, w))


def report_of(cf, ens, g, w, t, y, eps_rule="matched", c=None, threads=1):
    """The bound report of a recorded ensemble: the plan, then its kernel replayed
    over the ensemble's band on ``threads`` workers."""
    plan = sd.bound_plan(g, w, ens.config, t, y, eps_rule)
    return sd.bound_report(cf, plan, plan.kernel.block_results(ens, threads), c)


def decay_constant_refinement_oracle(gamma: float, z_cut: float = 2 * math.pi * 2048) -> float:
    """Richardson-style refinement value of the decay-to-smoothness constant.

    Series head on [0, 1/4], trapezoid sums halved until stable on the rest,
    plus the same envelope tail constant used by the implementation.
    """
    s = 0.25
    head = (s ** (1 - gamma) / (1 - gamma)
            - s ** (3 - gamma) / (24 * (3 - gamma))
            + s ** (5 - gamma) / (1920 * (5 - gamma)))
    prev = None
    n = 1 << 18
    core = None
    for _ in range(8):
        zs = np.linspace(s, z_cut, n + 1)
        core = float(np.trapezoid(2 * np.abs(np.sin(zs / 2)) / zs ** (1 + gamma), zs))
        if prev is not None and abs(core - prev) < 1e-7:
            break
        prev = core
        n *= 2
    tail = 2.0 * z_cut ** (-gamma) / gamma
    return (head + core + tail) / math.pi


def loglog_slope(xs, ys) -> float:
    return float(np.polyfit(np.log(np.asarray(xs)), np.log(np.asarray(ys)), 1)[0])
