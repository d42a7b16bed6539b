"""Benchmark workloads: which preset and command, at what size, and how outputs are checked.

Every workload starts from a shipped preset (``sdedensity.config.PRESETS``).
``overrides`` lists the only fields changed from it, each to bring one run of
the command down to seconds so a benchmark run can repeat it.  The seed is
never part of the config: it reaches the program only through
``--seed-override``.

The output checks run inside the timed region of a run (``run_s`` is "up to
its outputs written and checked").  Each returns ``(name, ok, value)``
triples; a command that raises counts every expected check as failed.
"""

from __future__ import annotations

import copy
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

THREADS = 2  # nproc of the 2-CPU reference machine; output bytes never depend on it


@dataclass(frozen=True)
class Workload:
    name: str
    preset: str
    command: str
    overrides: dict = field(default_factory=dict)  # "section.key" -> value
    why: str = ""

    def config(self, presets: dict) -> dict:
        raw = copy.deepcopy(presets[self.preset])
        for dotted, value in self.overrides.items():
            section, key = dotted.split(".")
            raw[section][key] = value
        return raw

    def argv(self, config_path: Path, out: Path, seed: int, threads: int = THREADS) -> list[str]:
        return [self.command, "--config", str(config_path), "--out", str(out),
                "--threads", str(threads), "--seed-override", str(seed)]

    def expected_checks(self, raw: dict) -> list[str]:
        if self.command == "certify":
            return [f"certify.{c}" for c in raw["certify"]["checks"]] + \
                ["certify.exit_code", "certify.seed", "certify.config_hash"]
        return ["density.exit_code", "density.rows", "density.finite",
                "density.x_increasing", "density.oracle_gross"]


# Sizes: sign_drift's checks do not depend on n_paths, so it runs a quarter of
# the preset's paths; gaussian keeps the preset's 1M paths, which its 5e-3
# density_vs_oracle tolerance needs, and checks the analytic round trip up to
# y = 8 instead of 96 (257 instead of 3073 quad calls; that check uses the exact
# CF, so its error, 5.4e-6 against 1e-5, is the same on every seed); gbm at 250k paths
# keeps its oracle error (about 0.02) well inside the oracle gate (0.05).
WORKLOADS = {w.name: w for w in [
    Workload(
        name="sign_drift_certify", preset="sign_drift", command="certify",
        overrides={"simulation.n_paths": 50_000},
        why="only multi-piece discontinuous drift and only bound_check: model dispatch in "
            "the Euler loop and bound_report dominate; lamperti and oracle idle",
    ),
    Workload(
        name="gaussian_certify", preset="gaussian", command="certify",
        overrides={"certify.analytic_y_max": 8.0},
        why="constant coefficients take simulate's fast path and skip bounds: time is in "
            "oracle quadrature and charfn at 1M samples; the no-change side for model/bounds",
    ),
    Workload(
        name="gbm_density", preset="gbm", command="density",
        overrides={"simulation.n_paths": 250_000},
        why="only non-constant sigma: simulate evaluates both coefficients every step and "
            "dominates, its path matrix sets peak RSS, and lamperti is not an affine map",
    ),
]}


def n_steps(raw: dict) -> int:
    s = raw["simulation"]
    return round(float(s["t"]) / float(s["h"]))


# ---------------------------------------------------------------------------
# output checks (run in the child process, inside the timed region)
# ---------------------------------------------------------------------------

def check_outputs(wl: Workload, rc: int, out: Path, pipe, seed: int) -> tuple[list, float | None]:
    """Checks for one command run, and the oracle error where the run has one."""
    gate = oracle_gate(wl, pipe.cfg.raw)
    if wl.command == "certify":
        return _check_certify(rc, out, pipe, seed, gate)
    return _check_density(rc, out, pipe, gate)


# The oracle error of a density is Monte-Carlo noise, so the shipped
# density_tolerance is a statistical check that some seeds miss: gaussian at
# its shipped 1M paths has a median error of 2.5e-3 against a 5e-3 tolerance
# (40 seeds, max 4.4e-3; seed 209572694 gives 5.3e-3), and gbm fails its 1e-2 on
# about one seed in four.  The certify verdict on it is therefore recorded, not
# gated; the gate is this factor times the tolerance scaled to the benchmark's
# n_paths (error ~ 1/sqrt(n_paths)), which passes the noise of every seed seen
# and catches gross errors (a wrong transform or inversion is off by 0.1 or more).
_ORACLE_GATE_FACTOR = 2.5


def oracle_gate(wl: Workload, raw: dict) -> float:
    from sdedensity.config import PRESETS

    shipped_paths = PRESETS[wl.preset]["simulation"]["n_paths"]
    size = math.sqrt(shipped_paths / raw["simulation"]["n_paths"])
    return _ORACLE_GATE_FACTOR * float(raw["certify"]["density_tolerance"]) * size


def _check_certify(rc, out, pipe, seed, gate):
    report = json.loads((out / "certify.json").read_text())
    checks = []
    for name in pipe.cfg.raw["certify"]["checks"]:
        entry = report["checks"].get(name, {})
        value = {"value": entry.get("value"), "tolerance": entry.get("tolerance")}
        ok = entry.get("pass") is True
        if name == "density_vs_oracle":
            value.update(program_pass=entry.get("pass"), gate=gate)
            ok = entry.get("value") is not None and entry["value"] <= gate
        checks.append((f"certify.{name}", ok, value))
    all_pass = report.get("all_pass") is True
    checks.append(("certify.exit_code", rc == (0 if all_pass else 1), rc))
    checks.append(("certify.seed", report.get("seed") == seed, report.get("seed")))
    checks.append(("certify.config_hash", report.get("config_hash") == pipe.cfg.hash, None))
    oracle_err = report["checks"].get("density_vs_oracle", {}).get("value")
    return checks, oracle_err


def _check_density(rc, out, pipe, gate):
    import numpy as np
    from sdedensity import oracle

    raw = pipe.cfg.raw
    t = float(raw["simulation"]["t"])
    name = "density_t" + format(t, "g").replace(".", "p").replace("-", "m") + ".csv"
    data = np.loadtxt(out / name, delimiter=",", skiprows=1, ndmin=2)
    x, q = data[:, 0], data[:, 1]
    target = pipe.phi(x) * oracle.exact_density(pipe.cfg.reference(), t, x)
    err = float(np.max(np.abs(q - target)))
    return [
        ("density.exit_code", rc == 0, rc),
        ("density.rows", x.size == int(raw["inversion"]["n_points"]), int(x.size)),
        ("density.finite", bool(np.all(np.isfinite(data))), None),
        ("density.x_increasing", bool(np.all(np.diff(x) > 0)), None),
        ("density.oracle_gross", err <= gate, {"value": err, "gate": gate}),
    ], err

