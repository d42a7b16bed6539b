"""Run every CLI command on every preset and keep all output bytes in one tree.

    PYTHONPATH=src python tools/cli_bytes.py OUT --threads N [--n-paths 20000]
    PYTHONPATH=src python tools/cli_bytes.py --compare A B

For each preset, the preset config with ``simulation.n_paths`` replaced is
written to ``OUT/<preset>/config.json``, and each command runs through
``sdedensity.cli.main`` with ``--out OUT/<preset>/<command>``.  The exit code
and whatever the command printed to stderr go to ``exit_code`` and
``stderr.txt`` next to its outputs.  Two trees made from the same source at
different ``--threads`` must agree under ``diff -r``; so must trees made from
two versions of the source whose outputs are meant to be unchanged.

``--compare A B`` is for two versions of the source that order some
floating-point operations differently.  It prints, for every file of either
tree, the largest absolute and relative difference between corresponding
numbers (CSV cells and JSON numbers), and exits 1 if anything else differs: a
file present in one tree only, a CSV header or row count, JSON keys, booleans
or strings, or the bytes of any other file (``exit_code``, ``stderr.txt``,
``ensemble.bin``).
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import io
import json
import math
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


class _Mismatch(Exception):
    """Two files differ in something other than the value of a number."""


def _number_diff(a: float, b: float) -> tuple[float, float]:
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0, 0.0
    if not (math.isfinite(a) and math.isfinite(b)):
        raise _Mismatch(f"{a!r} != {b!r}")
    d = abs(a - b)
    return d, d / max(abs(a), abs(b))


def _csv_number(cell: str) -> float | None:
    try:
        return float(cell)
    except ValueError:
        return None


def _csv_diffs(a: str, b: str):
    rows_a, rows_b = a.splitlines(), b.splitlines()
    if rows_a[:1] != rows_b[:1]:
        raise _Mismatch("header differs")
    if len(rows_a) != len(rows_b):
        raise _Mismatch(f"{len(rows_a)} != {len(rows_b)} rows")
    for i, (ra, rb) in enumerate(zip(rows_a[1:], rows_b[1:]), start=2):
        cells_a, cells_b = ra.split(","), rb.split(",")
        if len(cells_a) != len(cells_b):
            raise _Mismatch(f"row {i}: {len(cells_a)} != {len(cells_b)} cells")
        for ca, cb in zip(cells_a, cells_b):
            xa, xb = _csv_number(ca), _csv_number(cb)
            if xa is None or xb is None:
                if ca != cb:
                    raise _Mismatch(f"row {i}: {ca!r} != {cb!r}")
                continue
            yield _number_diff(xa, xb)


def _json_diffs(a, b, where: str = "$"):
    if isinstance(a, dict) and isinstance(b, dict):
        if list(a) != list(b):
            raise _Mismatch(f"{where}: keys {list(a)} != {list(b)}")
        for key in a:
            yield from _json_diffs(a[key], b[key], f"{where}.{key}")
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            raise _Mismatch(f"{where}: {len(a)} != {len(b)} entries")
        for i, (va, vb) in enumerate(zip(a, b)):
            yield from _json_diffs(va, vb, f"{where}[{i}]")
    elif (isinstance(a, (int, float)) and isinstance(b, (int, float))
          and not isinstance(a, bool) and not isinstance(b, bool)):
        yield _number_diff(float(a), float(b))
    elif type(a) is not type(b) or a != b:
        raise _Mismatch(f"{where}: {a!r} != {b!r}")


def _file_diff(a: Path, b: Path) -> tuple[float, float]:
    """Largest absolute and relative difference of the numbers in two files."""
    if a.suffix == ".csv":
        diffs = list(_csv_diffs(a.read_text(), b.read_text()))
    elif a.suffix == ".json":
        diffs = list(_json_diffs(json.loads(a.read_text()), json.loads(b.read_text())))
    elif a.read_bytes() != b.read_bytes():
        raise _Mismatch("bytes differ")
    else:
        diffs = []
    return max((d[0] for d in diffs), default=0.0), max((d[1] for d in diffs), default=0.0)


def compare(a: Path, b: Path) -> int:
    """Print one line per file of either tree; 1 if any file differs in more than numbers."""
    names = sorted({p.relative_to(root) for root in (a, b) for p in root.rglob("*")
                    if p.is_file()})
    failed = False
    print("file\tmax_abs\tmax_rel")
    for name in names:
        try:
            if not ((a / name).is_file() and (b / name).is_file()):
                raise _Mismatch("present in one tree only")
            d_abs, d_rel = _file_diff(a / name, b / name)
        except _Mismatch as exc:
            failed = True
            print(f"{name}\tDIFFERS: {exc}")
            continue
        print(f"{name}\t{d_abs:.3g}\t{d_rel:.3g}")
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("out", type=Path, nargs="?", help="output tree")
    parser.add_argument("--threads", type=int)
    parser.add_argument("--n-paths", type=int, default=20_000)
    parser.add_argument("--compare", type=Path, nargs=2, metavar=("A", "B"),
                        help="compare two output trees instead of making one")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.out is None or args.threads is None:
        parser.error("OUT and --threads are required unless --compare is given")
    run_all(args.out, args.threads, args.n_paths)
    return 0


if __name__ == "__main__":
    sys.exit(main())
