"""Benchmark for the simulate -> CF -> bound -> certify pipeline.

Usage (from the repository root):

    python3 perfbench/run.py --workload sign_drift_certify --seed 1 --seconds 38 --trace 0

Every measurement runs in a fresh ``python3 perfbench/child.py`` process, one
at a time, against the sources in ``src/``:

- ``--trace 0`` repeats the workload's CLI command (at least twice) while
  another repetition still ends within ``--seconds`` and reports the
  end-to-end metrics as medians over the repetitions; ``setup_s`` is the
  median over those processes plus three that only set up;
- ``--trace 1`` alternates untraced and traced repetitions for ``--seconds``
  and reports the per-layer metrics (perfbench/metrics.py) from the traced
  ones, plus a ``simulate()`` probe at 1 and 2 threads.

Outputs are checked in every repetition (perfbench/workloads.py); failed
checks are counted in ``failed``.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  Scratch files go
to ``.perfbench_work/`` under the repository root.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from metrics import END_TO_END, PER_LAYER  # noqa: E402
from tracer import COUNT_METRICS  # noqa: E402
from workloads import THREADS, WORKLOADS, n_steps  # noqa: E402

_SC_LEVEL3_CACHE_SIZE = 194  # glibc's sysconf name, absent from os.sysconf_names
RUN_BUDGET_S = 170.0  # a run must finish within 180 s
SETUP_ONLY_PROCESSES = 3
MIN_REPS = 2


class ChildFailed(Exception):
    pass


class Bench:
    def __init__(self, workload: str, seed: int | None, seconds: float,
                 work: Path | None = None):
        self.wl = WORKLOADS[workload]
        self.seed = seed
        self.seconds = seconds
        self.t_start = time.monotonic()
        self.work = work or ROOT / ".perfbench_work" / workload
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.config = self.work / "config.json"
        self.out = self.work / "out"
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
                        OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
        self.attempted = 0
        self.failed = 0
        self.check_log: list = []
        self.n_calls = 0

    # -- child processes --------------------------------------------------------

    def child(self, mode: str, threads: int = THREADS, **extra) -> dict:
        self.n_calls += 1
        result = self.work / f"result_{self.n_calls}.json"
        req = dict(mode=mode, workload=self.wl.name, seed=self.seed, threads=threads,
                   config=str(self.config), out=str(self.out), result=str(result), **extra)
        remaining = RUN_BUDGET_S - (time.monotonic() - self.t_start)
        if remaining <= 1.0:
            raise ChildFailed(f"{mode}: run budget exhausted")
        try:
            proc = subprocess.run([sys.executable, str(HERE / "child.py"), json.dumps(req)],
                                  cwd=ROOT, env=self.env, timeout=remaining,
                                  stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        except subprocess.TimeoutExpired:
            raise ChildFailed(f"{mode}: timed out") from None
        if proc.returncode != 0 or not result.exists():
            tail = "\n".join(proc.stderr.strip().splitlines()[-5:])
            raise ChildFailed(f"{mode}: exit code {proc.returncode}\n{tail}")
        return json.loads(result.read_text())

    def elapsed(self) -> float:
        return time.monotonic() - self.t_start

    def another_fits(self, walls: list[float]) -> bool:
        """Whether one more repetition, as long as the median one so far, ends in time."""
        return self.elapsed() + statistics.median(walls) <= self.seconds

    # -- one repetition of the command -------------------------------------------

    def rep(self, trace: bool = False, threads: int = THREADS) -> dict | None:
        shutil.rmtree(self.out, ignore_errors=True)
        extra = {"threads": threads}
        if trace:
            extra.update(trace=True, spans=str(self.work / f"spans_{self.n_calls + 1}.csv"),
                         trace_id=f"{self.wl.name}-{self.seed}-{self.n_calls + 1}")
        try:
            r = self.child("run", **extra)
        except ChildFailed as exc:
            print(f"# repetition failed: {exc}", file=sys.stderr)
            n = len(self.wl.expected_checks(self.raw))
            self.attempted += n
            self.failed += n
            return None
        r["output_hash"] = self.output_hash()
        for name, ok, value in r["checks"]:
            self.count(name, ok, value)
        return r

    def output_hash(self) -> str:
        h = hashlib.sha256()
        for p in sorted(self.out.iterdir()):
            h.update(p.name.encode() + b"\0" + p.read_bytes())
        return h.hexdigest()

    def count(self, name: str, ok: bool, value=None) -> None:
        self.attempted += 1
        self.failed += 0 if ok else 1
        self.check_log.append((name, bool(ok), value))

    # -- the two kinds of run ---------------------------------------------------

    def prepare(self) -> dict:
        """Write the config (warming the import caches); default the seed to the preset's."""
        info = self.child("prepare")
        self.raw = json.loads(self.config.read_text())
        if self.seed is None:
            self.seed = int(self.raw["simulation"]["seed"])
        return info

    def setup_samples(self) -> list[float]:
        return [self.child("setup")["setup_s"] for _ in range(SETUP_ONLY_PROCESSES)]

    def untraced(self) -> tuple[dict, list]:
        setups = self.setup_samples()
        reps, walls = [], []
        while len(reps) < MIN_REPS or self.another_fits(walls):
            t0 = time.monotonic()
            r = self.rep()
            if r is None:
                break
            reps.append(r)
            walls.append(time.monotonic() - t0)
        self.count_stable(reps, "output.bytes_stable")
        if not reps:
            return {}, reps
        work = self.raw["simulation"]["n_paths"] * n_steps(self.raw)
        runs = [r["run_s"] for r in reps]
        metrics = {
            "setup_s": statistics.median(setups + [r["setup_s"] for r in reps]),
            "run_s": statistics.median(runs),
            "path_steps_per_s": statistics.median(work / s for s in runs),
            "peak_rss_mb": statistics.median(r["rss_kib"] * 1024 / 1e6 for r in reps),
        }
        return metrics, reps

    def traced(self) -> tuple[dict, list]:
        plain, traced, walls = [], [], []
        while len(traced) < 1 or self.another_fits(walls):
            t0 = time.monotonic()
            p = self.rep()
            t = self.rep(trace=True)
            if p is None or t is None:
                break
            plain.append(p)
            traced.append(t)
            walls.append(time.monotonic() - t0)
        self.count_stable(plain + traced, "trace.outputs_unchanged")
        if len(traced) > 1:
            first = {k: traced[0]["layers"][k] for k in COUNT_METRICS}
            for t in traced[1:]:
                again = {k: t["layers"][k] for k in COUNT_METRICS}
                self.count("trace.counts_repeat", again == first, again)
        if not traced:
            return {}, traced
        try:
            probe = self.child("probe")
        except ChildFailed as exc:
            print(f"# probe failed: {exc}", file=sys.stderr)
            self.count("probe.completed", False)
            return {}, traced
        metrics = {}
        for key in traced[0]["layers"]:
            vals = [t["layers"][key] for t in traced]
            metrics[key] = vals[0] if key in COUNT_METRICS else statistics.median(vals)
        cfg = self.raw["simulation"]
        metrics["simulate.states_mb"] = cfg["n_paths"] * (n_steps(self.raw) + 1) * 8 / 1e6
        metrics["simulate.thread_speedup"] = probe["simulate_1t_s"] / probe["simulate_nt_s"]
        metrics["simulate.noise_floor_s"] = probe["noise_floor_s"]
        metrics["trace.overhead_frac"] = (statistics.median(t["run_s"] for t in traced)
                                          / statistics.median(p["run_s"] for p in plain) - 1.0)
        last = plain[-1]
        metrics["certify.oracle_err"] = last["oracle_err"] or 0.0
        metrics["certify.check_fail_frac"] = (sum(not ok for _, ok, _ in last["checks"])
                                              / len(last["checks"]))
        return metrics, traced

    def count_stable(self, reps: list, name: str) -> None:
        for r in reps[1:]:
            self.count(name, r["output_hash"] == reps[0]["output_hash"])


def provenance(seed: int, versions: dict) -> dict:
    llc = "unknown"
    try:
        llc = os.sysconf(_SC_LEVEL3_CACHE_SIZE)
    except (OSError, ValueError):
        pass
    commit = "unknown (not a git checkout)"
    head = ROOT / ".git" / "HEAD"
    if head.exists():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: "):
            target = ROOT / ".git" / ref[5:]
            commit = target.read_text().strip() if target.exists() else ref
    return {"seed": seed, "nproc": os.cpu_count(), "threads": THREADS, "llc_bytes": llc,
            "machine": platform.machine(), "git_commit": commit, **versions}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None,
                        help="program seed (default: the preset's seed)")
    parser.add_argument("--seconds", type=float, default=38.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "sdedensity" / "cli.py").is_file():
        print(f"error: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    wl = WORKLOADS[args.workload]
    bench = Bench(wl.name, args.seed, args.seconds)
    try:
        versions = bench.prepare()["versions"]
    except ChildFailed as exc:
        print(f"error: cannot set up the workload: {exc}", file=sys.stderr)
        return 2

    if args.trace:
        metrics, reps = bench.traced()
        wanted = PER_LAYER
    else:
        metrics, reps = bench.untraced()
        wanted = END_TO_END
    missing = [m.name for m in wanted if m.name not in metrics]
    if missing:
        print(f"error: no measurement for {missing}", file=sys.stderr)
        return 1

    prov = provenance(bench.seed, versions)
    print("# provenance " + json.dumps(prov, sort_keys=True))
    sim = bench.raw["simulation"]
    grid = bench.raw["frequency_grid"]
    n_freq = 2 * round(grid["y_max"] / grid["spacing"]) + 1
    print(f"# workload {wl.name}: sdedensity {wl.command} (preset {wl.preset}, "
          f"n_paths={sim['n_paths']}, n_steps={n_steps(bench.raw)}, {n_freq} frequencies), "
          f"{len(reps)} repetitions in {bench.elapsed():.1f} s")
    print(f"# {'traced ' if args.trace else ''}run_s per repetition: "
          + " ".join(f"{r['run_s']:.4f}" for r in reps))
    seen = {}
    for name, ok, value in bench.check_log:
        n_ok, n, _ = seen.get(name, (0, 0, None))
        seen[name] = (n_ok + ok, n + 1, value)
    for name, (n_ok, n, value) in seen.items():
        print(f"# check {name}: {n_ok}/{n} ok, last {json.dumps(value)}")
    for m in wanted:
        print(f"# {m.name} = {metrics[m.name]:.6g} {m.unit}")
    result = {
        "correct": bench.failed == 0 and bench.attempted > 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {m.name: {"value": float(metrics[m.name]), "unit": m.unit} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
