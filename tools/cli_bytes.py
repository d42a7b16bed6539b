"""Run every CLI command on every preset and keep all output bytes in one tree.

    PYTHONPATH=src python tools/cli_bytes.py OUT --threads N [--n-paths 20000]

For each preset, the preset config with ``simulation.n_paths`` replaced is
written to ``OUT/<preset>/config.json``, and each command runs through
``sdedensity.cli.main`` with ``--out OUT/<preset>/<command>``.  The exit code
and whatever the command printed to stderr go to ``exit_code`` and
``stderr.txt`` next to its outputs.  Two trees made from the same source at
different ``--threads`` must agree under ``diff -r``; so must trees made from
two versions of the source whose outputs are meant to be unchanged.
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import io
import json
import sys
from pathlib import Path

from sdedensity import cli
from sdedensity.config import PRESETS


def run_all(out: Path, threads: int, n_paths: int) -> None:
    for name, preset in PRESETS.items():
        raw = copy.deepcopy(preset)
        raw["simulation"]["n_paths"] = n_paths
        base = out / name
        base.mkdir(parents=True, exist_ok=True)
        config = base / "config.json"
        config.write_text(json.dumps(raw, indent=2, sort_keys=True) + "\n")
        for command in cli._COMMANDS:
            dest = base / command
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                rc = cli.main([command, "--config", str(config), "--out", str(dest),
                               "--threads", str(threads)])
            dest.mkdir(parents=True, exist_ok=True)
            (dest / "exit_code").write_text(f"{rc}\n")
            (dest / "stderr.txt").write_text(err.getvalue())
            print(f"{name} {command}: exit {rc}", flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("out", type=Path, help="output tree")
    parser.add_argument("--threads", type=int, required=True)
    parser.add_argument("--n-paths", type=int, default=20_000)
    args = parser.parse_args(argv)
    run_all(args.out, args.threads, args.n_paths)
    return 0


if __name__ == "__main__":
    sys.exit(main())
