"""Catalogue of the benchmark's metrics: unit, direction, and what each should move.

``END_TO_END`` metrics come from untraced runs (``--trace 0``); ``PER_LAYER``
metrics from traced runs (``--trace 1``).  For a layer metric, ``kind`` says
whether it is measured (spans, counters, ``ru_maxrss``) or computed from the
configuration, and ``moves`` names the end-to-end metric and the workloads it
should move, so a later change can state its claim against it.  A layer
metric whose layer a workload does not run reads 0 there.

Span names: model.coef = PiecewiseFunction.__call__, model.g =
DriftFunctional.__call__, lamperti.forward/inverse = LampertiMap.forward_many /
inverse_many, cutoff.phi = CutoffFunction.__call__, oracle.quad = scipy's quad
as called by the oracle module; the rest are the module functions of the same
name.  "Inclusive" time is the duration of a layer's outermost calls (calls
nested in a call of the same layer are not counted twice); "self" time
subtracts the union of the intervals of all nested spans.
"""

from __future__ import annotations

from typing import NamedTuple


class Metric(NamedTuple):
    name: str
    unit: str
    better: str
    bound: float | None = None
    kind: str = "measured"
    moves: str = ""
    definition: str = ""


SD, GA, GB = "sign_drift_certify", "gaussian_certify", "gbm_density"
ALL = f"{SD}, {GA}, {GB}"

END_TO_END = [
    Metric("setup_s", "s", "lower", 0.25,
           definition="import + config parse/validate + build_sigma_star, build_lamperti_map, "
                      "make_bump and the frequency grid; median over every process of the run"),
    Metric("run_s", "s", "lower", 0.25,
           definition="wall time of cli.main on the command, up to its outputs written and "
                      "checked; median over repetitions"),
    Metric("path_steps_per_s", "1/s", "higher", 0.25,
           definition="n_paths * n_steps / run_s; median over repetitions"),
    Metric("peak_rss_mb", "MB", "lower", 0.1,
           definition="ru_maxrss of the process that ran the command; median over repetitions"),
]

PER_LAYER = [
    Metric("model.coef_calls", "count", "lower", moves=f"run_s on {SD}, {GB}; ~0 on {GA}",
           definition="model.coef spans under simulate.simulate"),
    Metric("model.coef_s", "s", "lower", moves=f"run_s on {SD}, {GB}",
           definition="self time of those spans, summed over threads"),
    Metric("model.g_points", "count", "lower", moves=f"run_s on {SD}",
           definition="points evaluated by model.g spans under bounds.bound_report"),
    Metric("model.g_s", "s", "lower", moves=f"run_s on {SD}",
           definition="inclusive time of those spans"),
    Metric("simulate.s", "s", "lower", moves=f"run_s on {GB}, {SD}",
           definition="inclusive time of simulate.simulate"),
    Metric("simulate.path_steps_per_s", "1/s", "higher", moves=f"run_s on {GB}, {SD}",
           definition="n_paths * n_steps / simulate.s"),
    Metric("simulate.thread_speedup", "ratio", "higher", moves=f"run_s on {GB}, {SD}",
           definition="untraced simulate() at threads=1 over the same call at threads=2"),
    Metric("simulate.noise_floor_s", "s", "lower",
           moves="none: a floor to compare simulate.s with, not a target",
           definition="drawing the same Philox (seed, block) normals alone at threads=2"),
    Metric("simulate.states_mb", "MB", "lower", kind="computed",
           moves=f"peak_rss_mb on {GB}, {SD}",
           definition="n_paths * (n_steps + 1) * 8 bytes"),
    Metric("simulate.rss_delta_mb", "MB", "lower", moves=f"peak_rss_mb on {GB}, {SD}",
           definition="growth of ru_maxrss across simulate.simulate"),
    Metric("lamperti.build_s", "s", "lower", moves=f"setup_s on {ALL}",
           definition="inclusive time of build_lamperti_map"),
    Metric("lamperti.forward_points", "count", "lower", moves=f"run_s on {GB}",
           definition="points of lamperti.forward spans not nested in lamperti.inverse"),
    Metric("lamperti.forward_s", "s", "lower", moves=f"run_s on {GB}",
           definition="inclusive time of those spans"),
    Metric("lamperti.inverse_s", "s", "lower", moves=f"run_s on {GB}",
           definition="inclusive time of lamperti.inverse"),
    Metric("lamperti.newton_iters", "count", "lower", moves=f"run_s on {GB}",
           definition="lamperti.forward spans whose parent is lamperti.inverse "
                      "(the Newton steps plus the two h_range evaluations per call)"),
    Metric("cutoff.s", "s", "lower", moves=f"run_s on {GA}, {GB} (minor)",
           definition="inclusive time of outermost cutoff.phi spans"),
    Metric("charfn.calls", "count", "lower", moves=f"run_s on {GB}, {GA}, {SD}",
           definition="charfn.estimate_localized spans"),
    Metric("charfn.distinct_t", "count", "higher", moves="with charfn.calls: wasted CF work",
           definition="distinct t among those calls"),
    Metric("charfn.s", "s", "lower", moves=f"run_s on {GB}, {GA}",
           definition="self time of charfn.estimate_localized (nested lamperti/cutoff excluded)"),
    Metric("charfn.sample_freqs_per_s", "1/s", "higher", moves=f"run_s on {GB}, {GA}",
           definition="sum of n_paths * grid size over calls / charfn.s"),
    Metric("bounds.s", "s", "lower", moves=f"run_s on {SD}",
           definition="inclusive time of bound_report"),
    Metric("bounds.rss_delta_mb", "MB", "lower", moves=f"peak_rss_mb on {SD}",
           definition="growth of ru_maxrss across bound_report"),
    Metric("bounds.frequencies", "count", "lower", moves=f"run_s on {SD}",
           definition="BoundReport.y size"),
    Metric("bounds.distinct_lookbacks", "count", "lower", moves=f"run_s on {SD}",
           definition="distinct BoundReport.eps_used values"),
    Metric("invert.s", "s", "lower", moves="guard: stays negligible on every workload",
           definition="inclusive time of invert + pushforward"),
    Metric("oracle.quad_calls", "count", "lower", moves=f"run_s on {GA}; 0 on {SD}",
           definition="scipy quad calls made by the oracle module"),
    Metric("oracle.integrand_evals", "count", "lower", moves=f"run_s on {GA}; 0 on {SD}",
           definition="exact_density calls"),
    Metric("oracle.s", "s", "lower", moves=f"run_s on {GA}",
           definition="inclusive time of outermost oracle spans (includes the cutoff.phi "
                      "calls inside the integrands)"),
    Metric("trace.overhead_frac", "ratio", "lower", moves="none: cost of tracing",
           definition="median traced run_s / median untraced run_s - 1"),
    Metric("certify.oracle_err", "abs", "lower", moves="none: accuracy, deterministic per seed",
           definition="max |q - phi * p_exact| (density_vs_oracle check, or recomputed from "
                      "the density file on gbm_density); 0 where there is no oracle"),
    Metric("certify.check_fail_frac", "ratio", "lower", moves="none: must stay 0",
           definition="failed / attempted output checks of the last untraced repetition"),
]
