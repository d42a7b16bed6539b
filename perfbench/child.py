"""One fresh benchmark process: set up the pipeline, run one CLI command, check it.

Run by ``perfbench/run.py`` as ``python3 perfbench/child.py '<json request>'``
with ``PYTHONPATH=src``; it writes its measurements as JSON to the request's
``result`` path.  Modes:

- ``prepare``: write the workload's config file (also warms the import caches);
- ``setup``: time import + config parse/validate + the n_paths-independent
  pipeline set-up, then exit;
- ``run``: set up as above, then time ``sdedensity.cli.main`` on the command
  up to its outputs written and checked; with ``trace`` the layer spans are
  recorded as well;
- ``probe``: time ``simulate()`` alone at 1 and 2 threads, and the Philox
  normals it draws.

The set-up is done once, before ``cli.main``: ``cli.main`` is handed the
already parsed config and the already set-up ``Pipeline`` (checked against
the config hash it computes itself), so set-up time is not counted again in
``run_s``.
"""

from __future__ import annotations

import time

_T_START = time.perf_counter()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from workloads import WORKLOADS, check_outputs  # noqa: E402


def _setup(raw_path: Path, seed: int, threads: int):
    """Parse the config as the CLI does and build the set-up half of the pipeline."""
    from sdedensity import config

    base = config.RunConfig.from_file(raw_path)
    pipe = config.Pipeline(base.with_seed(seed), threads=threads)
    # build the cached properties that do not depend on n_paths (not the ensemble)
    pipe.model, pipe.window, pipe.sigma_star, pipe.transform, pipe.phi, pipe.freq_grid
    return base, pipe


def _hand_to_cli(cli, base, pipe, raw_path: Path) -> None:
    """Make cli.main reuse the parsed config and the set-up pipeline."""

    class _ParsedConfig:
        @staticmethod
        def from_file(path):
            if Path(path) != raw_path:
                raise RuntimeError(f"unexpected config path {path}")
            return base

    def _pipeline(cfg, threads=1):
        if cfg.hash != pipe.cfg.hash or threads != pipe.threads:
            raise RuntimeError("cli.main built a different pipeline than the benchmark set up")
        return pipe

    cli.RunConfig = _ParsedConfig
    cli.Pipeline = _pipeline


def _versions() -> dict:
    import numpy
    import scipy
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__}


def cmd_prepare(req: dict) -> dict:
    from sdedensity.config import PRESETS

    wl = WORKLOADS[req["workload"]]
    Path(req["config"]).write_text(json.dumps(wl.config(PRESETS), indent=2, sort_keys=True))
    return {"versions": _versions()}


def cmd_setup(req: dict) -> dict:
    _setup(Path(req["config"]), req["seed"], req["threads"])
    return {"setup_s": time.perf_counter() - _T_START}


def cmd_run(req: dict) -> dict:
    wl = WORKLOADS[req["workload"]]
    raw_path, out, seed = Path(req["config"]), Path(req["out"]), req["seed"]
    tracer = None
    if req.get("trace"):
        from tracer import Tracer
        tracer = Tracer(req["trace_id"])
        tracer.install()
    base, pipe = _setup(raw_path, seed, req["threads"])
    setup_s = time.perf_counter() - _T_START

    from sdedensity import cli
    _hand_to_cli(cli, base, pipe, raw_path)
    argv = wl.argv(raw_path, out, seed, req["threads"])
    t0 = time.perf_counter()
    if tracer is None:
        rc = cli.main(argv)
        checks, oracle_err = check_outputs(wl, rc, out, pipe, seed)
    else:
        with tracer.region("bench.run"):
            rc = cli.main(argv)
            checks, oracle_err = check_outputs(wl, rc, out, pipe, seed)
    run_s = time.perf_counter() - t0
    result = {
        "setup_s": setup_s, "run_s": run_s,
        "rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "checks": checks, "oracle_err": oracle_err,
    }
    if tracer is not None:
        from tracer import layer_metrics
        result["layers"] = layer_metrics(tracer.spans)
        result["n_spans"] = len(tracer.spans)
        tracer.write_csv(Path(req["spans"]))
    return result


def cmd_probe(req: dict) -> dict:
    import numpy as np
    from sdedensity.simulate import BLOCK_PATHS, RngStreams, simulate
    from sdedensity.util import map_ordered, path_chunks

    _, pipe = _setup(Path(req["config"]), req["seed"], req["threads"])
    cfg = pipe.cfg.sim_config()
    times = {}
    for threads in (1, req["threads"]):
        t0 = time.perf_counter()
        ens = simulate(pipe.model, cfg, threads=threads)
        times[threads] = time.perf_counter() - t0
        del ens

    streams = RngStreams(seed=cfg.seed, block_paths=BLOCK_PATHS)

    def draw(args):
        block, _ = args
        gen = np.random.Generator(np.random.Philox(key=streams.philox_key(block)))
        gen.standard_normal((cfg.n_steps, BLOCK_PATHS))

    tasks = list(enumerate(path_chunks(cfg.n_paths, BLOCK_PATHS)))
    t0 = time.perf_counter()
    map_ordered(draw, tasks, threads=req["threads"])
    noise_s = time.perf_counter() - t0
    return {"simulate_1t_s": times[1], "simulate_nt_s": times[req["threads"]],
            "noise_floor_s": noise_s}


def main() -> None:
    req = json.loads(sys.argv[1])
    result = {"prepare": cmd_prepare, "setup": cmd_setup, "run": cmd_run,
              "probe": cmd_probe}[req["mode"]](req)
    Path(req["result"]).write_text(json.dumps(result))


if __name__ == "__main__":
    main()
