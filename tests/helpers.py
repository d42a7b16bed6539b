"""Shared independent oracles for the test suite."""

import math

import numpy as np

import sdedensity as sd
from sdedensity.bounds import RemainderPass
from sdedensity.charfn import CfAccumulator
from sdedensity.simulate import simulate_blocks
from sdedensity.util import merge_moments, task_pool


def cf_from_function(f, grid, t=0.0):
    """An analytic CF on the grid: f at the non-negative frequencies, zero
    standard errors, mirrored for symmetry."""
    return sd.CharFnEstimate.from_values([complex(f(y)) for y in grid.values[grid.half_count:]],
                                         grid, t)


def localized_cfs(model, sim, phi, transform, grid, times, threads=1):
    """The localized CF of the paths of (model, sim) at each of ``times``, each
    path block's states fed to the sums as the block finishes: the bits of
    ``estimate_localized`` on ``simulate``'s ensemble, with no ensemble held."""
    steps = [sim.step(t) for t in times]
    with task_pool(threads) as pool:
        sums = {k: CfAccumulator(phi, grid, transform, pool, threads) for k in sorted(set(steps))}
        for _, states, _ in simulate_blocks(model, sim, threads, record=list(sums), pool=pool):
            for acc, x in zip(sums.values(), states):
                acc.add(x)
        return [sums[k].estimate(t) for k, t in zip(steps, times)]


def drift_g(model, w):
    """The drift functional g of a model on a window, built as ``RunConfig`` builds it."""
    return sd.DriftFunctional(model.mu, sd.build_sigma_star(model.sigma, w))


def kernel_parts(model, sim, kernel, threads=1):
    """A remainder kernel's results per path block, in block order, made in the
    Euler loop of the paths of (model, sim) on ``threads`` workers."""
    return [part for _, _, part in simulate_blocks(model, sim, threads, record=[kernel.k_end],
                                                   band_pass=kernel)]


def report_of(cf, model, sim, w, t, y, eps_rule="matched", c=None, threads=1):
    """The bound report of the paths of (model, sim) against ``cf``: the plan, then
    its kernel run in their Euler loop."""
    plan = sd.bound_plan(drift_g(model, w), w, sim, t, y, eps_rule)
    return sd.bound_report(cf, plan, kernel_parts(model, sim, plan.kernel, threads), c)


def remainders(model, sim, w, eps_list, t, threads=1):
    """The remainder estimate of each lookback in ``eps_list`` ending at t, from one
    kernel over their grid lookbacks run in the Euler loop."""
    lookbacks = [k_end - k0 for k0, k_end in (sim.lookback(eps, t) for eps in eps_list)]
    kernel = RemainderPass(drift_g(model, w), w, sim.h, sim.step(t),
                           tuple(sorted(set(lookbacks))))
    ests = dict(zip(kernel.lookbacks, merge_moments(kernel_parts(model, sim, kernel, threads))))
    return [ests[k] for k in lookbacks]


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
