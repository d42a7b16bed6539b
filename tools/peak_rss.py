"""Run one CLI command on a preset in this process and check its peak resident memory.

    PYTHONPATH=src python tools/peak_rss.py COMMAND PRESET OUT --n-paths N \
        [--threads 2] [--max-mb MB]

The preset config with ``simulation.n_paths`` replaced is written to
``OUT/config.json`` and the command runs through ``sdedensity.cli.main`` with
``--out OUT``.  Prints the exit code, the wall time and ``ru_maxrss`` of this
process in MB (10^6 bytes), which includes the interpreter and the imports.
Exits 1 if the command did not exit 0 or, with ``--max-mb``, if the peak is
above it.  Run it in a fresh process, since ``ru_maxrss`` never goes down.
"""

from __future__ import annotations

import argparse
import copy
import json
import resource
import sys
import time
from pathlib import Path

from sdedensity import cli
from sdedensity.config import PRESETS


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("command", choices=sorted(cli._COMMANDS))
    parser.add_argument("preset", choices=sorted(PRESETS))
    parser.add_argument("out", type=Path, help="output directory")
    parser.add_argument("--n-paths", type=int, required=True)
    parser.add_argument("--threads", type=int, default=2)
    parser.add_argument("--max-mb", type=float, default=None)
    args = parser.parse_args(argv)

    raw = copy.deepcopy(PRESETS[args.preset])
    raw["simulation"]["n_paths"] = args.n_paths
    args.out.mkdir(parents=True, exist_ok=True)
    config = args.out / "config.json"
    config.write_text(json.dumps(raw, indent=2, sort_keys=True) + "\n")
    t0 = time.perf_counter()
    rc = cli.main([args.command, "--config", str(config), "--out", str(args.out),
                   "--threads", str(args.threads)])
    wall = time.perf_counter() - t0
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6  # KiB on Linux
    print(f"{args.command} {args.preset} n_paths={args.n_paths} threads={args.threads}: "
          f"exit {rc}, {wall:.1f} s, peak RSS {peak_mb:.0f} MB")
    if rc != 0:
        return 1
    if args.max_mb is not None and peak_mb > args.max_mb:
        print(f"peak RSS {peak_mb:.0f} MB is above {args.max_mb:g} MB", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
