"""Fuzz the config reader through the CLI, and the parser on extreme numbers.

Each example takes a preset at a small path count, drops, retypes or misspells
one or two of its nodes, or empties a list, and runs one command on it.  The
command must exit 0, 1 or 2 (a bad field is a configuration error), never raise.

The parse-only cases set each number of each preset to +-1e300 and +-1e-300;
parsing must succeed or raise an ``SdeDensityError``, with numpy's warnings
raised as errors.  Nothing is simulated.
"""

import contextlib
import copy
import functools
import io
import json
import math
import operator
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from sdedensity import cli
from sdedensity.config import PRESETS, RunConfig
from sdedensity.errors import SdeDensityError

COMMANDS = ("simulate", "cf", "bound", "density", "hoelder", "certify")
N_PATHS = 2000
# the retyped values; [] also empties a list
RETYPED = ("x", True, [], None, math.nan, math.inf, -math.inf)
# the size fields take only invalid values, or these small valid ones
SMALL = {("simulation", "n_paths"): (1, 2, 17, N_PATHS), ("inversion", "n_points"): (2, 3, 101)}
EXTREMES = (1e300, -1e300, 1e-300, -1e-300)


def small_preset(name):
    raw = copy.deepcopy(PRESETS[name])
    raw["simulation"]["n_paths"] = N_PATHS
    return raw


def node_paths(node, prefix=()):
    """The key/index path of every node below ``node``."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield prefix + (key,)
        yield from node_paths(child, prefix + (key,))


def candidate_mutations(raw):
    out = []
    for path in node_paths(raw):
        out.append((path, "drop", None))
        out += [(path, "set", v) for v in RETYPED + SMALL.get(path, ())]
        if isinstance(path[-1], str):
            out.append((path, "misspell", None))
    return out


@st.composite
def mutated_presets(draw):
    name = draw(st.sampled_from(sorted(PRESETS)))
    mutations = draw(st.lists(st.sampled_from(candidate_mutations(small_preset(name))),
                              min_size=1, max_size=2))
    return name, tuple(mutations)


def mutate(raw, mutations):
    raw = copy.deepcopy(raw)
    for path, op, value in mutations:
        try:
            parent = functools.reduce(operator.getitem, path[:-1], raw)
            key = path[-1]
            if op == "drop":
                del parent[key]
            elif op == "misspell":
                parent[key + "x"] = parent.pop(key)
            else:
                parent[key]  # the node must still be there
                parent[key] = copy.deepcopy(value)
        except (AttributeError, KeyError, IndexError, TypeError):
            pass  # an earlier mutation removed or retyped this node
    return raw


def _case(name, path, value):
    return name, ((path, "set", value),)


@settings(derandomize=True, deadline=None)
@given(case=mutated_presets(), command=st.sampled_from(COMMANDS),
       threads=st.sampled_from((1, 2)))
@example(case=_case("gaussian", ("simulation", "h"), math.nan), command="cf", threads=1)
@example(case=_case("gaussian", ("frequency_grid", "y_max"), math.inf), command="cf", threads=1)
@example(case=_case("gbm", ("frequency_grid", "spacing"), math.nan), command="density",
         threads=1)
@example(case=_case("gaussian", ("certify", "analytic_y_max"), math.inf), command="certify",
         threads=2)
@example(case=_case("sign_drift", ("model", "mu", "pieces", 0, "kind"), []), command="bound",
         threads=2)
@example(case=_case("sign_drift", ("model", "mu"), {
    "breakpoints": [], "pieces": [{"kind": "constant", "value": 1.0}], "breakpiont": [0.0]}),
    command="bound", threads=1)
@example(case=_case("gaussian", ("model", "mu"), {
    "pieces": [{"kind": "constant", "value": 0.0, "interval": [None, None]}],
    "breakpoints_": [0.0]}), command="cf", threads=1)
def test_mutated_preset_exits_cleanly(case, command, threads):
    name, mutations = case
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "run.json"
        config.write_text(json.dumps(mutate(small_preset(name), mutations)))
        with contextlib.redirect_stderr(io.StringIO()):
            rc = cli.main([command, "--config", str(config), "--out", str(Path(tmp) / "out"),
                           "--threads", str(threads)])
    assert rc in (0, 1, 2)


def extreme_cases():
    """(preset, path, value) for every number of every preset and each of EXTREMES."""
    out = []
    for name in sorted(PRESETS):
        raw = PRESETS[name]
        for path in node_paths(raw):
            leaf = functools.reduce(operator.getitem, path, raw)
            if isinstance(leaf, (int, float)) and not isinstance(leaf, bool):
                where = ".".join(map(str, path))
                out += [pytest.param(name, path, v, id=f"{name}-{where}={v:g}") for v in EXTREMES]
    return out


@pytest.mark.parametrize("name, path, value", extreme_cases())
def test_extreme_number_parses_or_raises_a_package_error(name, path, value):
    raw = mutate(PRESETS[name], ((path, "set", value),))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            RunConfig.from_dict(raw)
        except SdeDensityError:
            pass
