"""Euler path ensembles with scheduling-independent, per-block keyed randomness.

Paths are grouped into fixed blocks of ``BLOCK_PATHS``; block ``b`` draws all
of its normals from an SFC64 stream seeded by ``SeedSequence([seed, b])``, and
path ``i`` always owns row ``i % BLOCK_PATHS`` of block ``i // BLOCK_PATHS``.
The noise of a path is therefore a pure function of ``(seed, path index,
step)`` -- it does not depend on the number of workers, on scheduling, or on
how many other paths are simulated.  Runs with identical (seed, config) are
bitwise reproducible at any thread count.  NumPy does not freeze this stream
across releases; ``tests/test_simulate.py`` pins its first values.

Because any block can be re-run bit for bit, an ensemble may store only the
grid steps its consumers read (a recording plan): a block whose states turn
non-finite is re-run, checking every step, to name the first bad step.
``simulate_blocks`` yields each block's recorded states as it finishes, so a
consumer that reduces them as they come (the pipeline's CF) stores none;
``simulate`` collects them into one ensemble.
"""

from __future__ import annotations

import math
import os
import struct
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np
from numpy.random import SFC64, Generator, SeedSequence  # at load: numpy imports numpy.random lazily

from .errors import ConfigError, NumericsError
from .model import CoefficientModel, LocalWindow
from .util import MCEstimate, iter_ordered, mean_se, path_chunks

BLOCK_PATHS = 4096
_NOISE_STEPS = 16  # Euler steps per draw from a block's generator
_MOMENT_BLOCK = 16384  # paths per block in stopped_increment_moment
_MAGIC = b"SDEPATH1"
_VERSION = 1


@dataclass(frozen=True)
class SimConfig:
    x0: float
    t_final: float
    h: float
    n_paths: int
    seed: int

    def __post_init__(self):
        if not (0.0 < self.t_final <= 1.0):
            raise ConfigError("t_final must lie in (0, 1]")
        if self.h <= 0.0:
            raise ConfigError("step size must be positive")
        if not self.t_final / self.h < np.iinfo(np.intp).max:
            raise ConfigError("t_final / h is more steps than numpy can index")
        n = self.n_steps
        if n < 1 or abs(n * self.h - self.t_final) > 1e-12:
            raise ConfigError("h must divide t_final (within 1e-12)")
        if self.n_paths < 1:
            raise ConfigError("n_paths must be >= 1")
        if not (0 <= self.seed < 2**64):
            raise ConfigError("seed must fit in 64 bits")

    @property
    def n_steps(self) -> int:
        return round(self.t_final / self.h)

    def step(self, t: float) -> int:
        """The grid step k with k h = t (to 1e-9), 0 <= k <= n_steps."""
        k = round(t / self.h)
        if k < 0 or k > self.n_steps or abs(k * self.h - t) > 1e-9:
            raise ConfigError(f"t={t} is not on the simulation grid of "
                              f"[0, {self.t_final}] (h={self.h})")
        return k

    def lookback(self, eps: float, t: float) -> tuple[int, int]:
        """The grid steps (k0, k_end) of t - eps and t; eps spans at least one step."""
        k_end = self.step(t)
        k0 = self.step(t - eps)
        if k0 >= k_end:
            raise ConfigError("eps must span at least one grid step")
        return k0, k_end


@dataclass(frozen=True)
class RngStreams:
    """Per-block stream keys: block b's SFC64 generator is seeded by
    ``SeedSequence(key(b))``, and path i is row i % block_paths of block
    i // block_paths."""

    seed: int
    block_paths: int

    def key(self, block: int) -> np.ndarray:
        return np.array([self.seed, block], dtype=np.uint64)

    philox_key = key  # alias of key, kept for perfbench/child.py's noise probe


def _noise(streams: RngStreams, block: int, n_steps: int):
    """The normals that drive `block`'s first n_steps steps, as (first step,
    slice of at most ``_NOISE_STEPS`` rows) pairs.  The slices reuse one buffer
    and hold the values of a single (n_steps, BLOCK_PATHS) draw."""
    gen = Generator(SFC64(SeedSequence(streams.key(block))))
    buf = np.empty((min(_NOISE_STEPS, n_steps), streams.block_paths))
    for k0 in range(0, n_steps, _NOISE_STEPS):
        out = buf[:min(_NOISE_STEPS, n_steps - k0)]
        gen.standard_normal(out=out)
        yield k0, out


@dataclass(eq=False)
class PathEnsemble:
    """Simulated paths on the uniform grid, plus RNG provenance.

    ``recorded`` lists, ascending, the grid steps that were stored:
    ``states[i, j]`` is path i at time ``recorded[j] * h``.  Read states
    through ``band``/``states_at``, which index by grid step.  ``band_parts``
    holds, in block order, the results of the ``band_pass`` reduction
    ``simulate`` ran on each block's states at the band's steps, or None if
    it ran none.
    """

    states: np.ndarray
    config: SimConfig
    rng_streams: RngStreams
    recorded: tuple[int, ...]
    band_parts: list | None = None

    @property
    def n_paths(self) -> int:
        return self.states.shape[0]

    def _column(self, k: int) -> int:
        j = bisect_left(self.recorded, k)
        if j == len(self.recorded) or self.recorded[j] != k:
            raise ConfigError(f"grid step {k} (t={k * self.config.h}) was not recorded")
        return j

    def band(self, k0: int, k1: int) -> np.ndarray:
        """States at grid steps k0..k1 inclusive, shape (n_paths, k1 - k0 + 1) (a view)."""
        j0 = self._column(k0)
        steps = range(k0, k1 + 1)
        if self.recorded[j0:j0 + len(steps)] != tuple(steps):
            self._column(min(set(steps) - set(self.recorded)))  # raises, naming the step
        return self.states[:, j0:j0 + len(steps)]

    def states_at(self, t: float) -> np.ndarray:
        k = self.config.step(t)
        return self.band(k, k)[:, 0]


def _plan(cfg: SimConfig, record, band_pass) -> tuple:
    """The grid steps to record, ascending (a range for None: every step, so a
    grid numpy cannot hold is refused before a list of it is made; else a
    tuple), and the band's steps."""
    n_steps = cfg.n_steps
    recorded = range(n_steps + 1) if record is None else tuple(sorted({int(k) for k in record}))
    band = range(0) if band_pass is None else band_pass.steps
    if not recorded or any(s[0] < 0 or s[-1] > n_steps for s in (recorded, band) if s):
        raise ConfigError(f"record must name grid steps in 0..{n_steps}")
    if cfg.n_paths * len(recorded) * 8 > np.iinfo(np.intp).max:
        raise ConfigError(f"simulation.n_paths: cannot hold {cfg.n_paths} paths x "
                          f"{len(recorded)} recorded grid steps as float64 (more bytes "
                          f"than numpy can index)")
    return recorded, band


def simulate_blocks(model: CoefficientModel, cfg: SimConfig, threads: int = 1,
                    record=None, band_pass=None, pool=None):
    """Euler scheme X_{k+1} = X_k + mu(X_k) h + sigma(X_k) sqrt(h) G_{i,k}, a block at a time.

    Yields, in block order, each ``BLOCK_PATHS`` block's (first path, states,
    band_pass result or None): ``states[j]`` holds the block's paths at the
    j-th of the recorded grid steps, ascending.  The blocks run on ``threads``
    workers (``pool``'s, if given; ``util.iter_ordered``), at most 2 x threads
    of them at a time, so nothing held grows with n_paths, and sizes numpy
    could not index are refused before any step.  ``record`` and
    ``band_pass`` are as for ``simulate``.
    """
    recorded, band = _plan(cfg, record, band_pass)
    n_steps = cfg.n_steps
    sqrth = math.sqrt(cfg.h)
    step = model.euler_step(cfg.h)
    streams = RngStreams(seed=cfg.seed, block_paths=BLOCK_PATHS)
    rows_of = {k: j for j, k in enumerate(recorded)}  # recorded grid step -> row

    def euler_block(block, rows, slot, reduction=None, strict=False):
        """A block's states at the steps of ``slot`` (a step -> row map), and
        whether it ended finite; ``reduction`` gets the band's.  ``strict``
        raises at the first step with a non-finite state, naming its lowest path."""
        local = np.empty((len(slot), rows))
        x = np.full(rows, float(cfg.x0))

        def reached(k):
            if k in slot:
                local[slot[k]] = x
            if reduction is not None and k in band:
                reduction.push(x)
            if strict and not np.all(np.isfinite(x)):
                raise NumericsError(f"path {block * BLOCK_PATHS + int(np.argmin(np.isfinite(x)))}"
                                    f" became non-finite at step {k} (t={k * cfg.h})")

        with np.errstate(all="ignore"):
            reached(0)
            for k0, inc in _noise(streams, block, n_steps):
                inc = inc[:, :rows]
                inc *= sqrth
                for k, dw in enumerate(inc, k0 + 1):
                    step(x, dw)
                    reached(k)
        return local, np.all(np.isfinite(x))

    def run_block(args):
        block, (start, stop) = args
        reduction = None if band_pass is None else band_pass.start(stop - start)
        local, finite = euler_block(block, stop - start, rows_of, reduction)
        if not finite:
            euler_block(block, stop - start, {}, strict=True)  # raises
        return start, local, None if reduction is None else reduction.result()

    tasks = enumerate(path_chunks(cfg.n_paths, BLOCK_PATHS))
    yield from iter_ordered(run_block, tasks, threads, pool)


def simulate(model: CoefficientModel, cfg: SimConfig, threads: int = 1,
             record=None, band_pass=None) -> PathEnsemble:
    """The blocks of ``simulate_blocks`` collected into one ensemble.

    The step is compiled once per call (``CoefficientModel.euler_step``).
    ``record`` is the grid steps to store (any order, duplicates ignored);
    None stores every step 0..n_steps.  The paths themselves do not depend
    on it.  ``band_pass``, if given, has a ``steps`` range of grid steps and
    a ``start(rows)`` that opens one block's reduction: on the block's worker
    thread, its ``push`` gets the block's states at each of those steps, in
    step order, as they are simulated, and its ``result()`` lands in
    ``band_parts`` in block order.  No band of states is kept, not even per
    block.  Bitwise deterministic for fixed (seed, cfg) at any thread count.
    A non-finite state stays non-finite under the step, so finiteness is
    checked once per block, after its loop; floating-point warnings are off
    inside it, so the reduction sees non-finite states silently, and its
    result is not taken.  A block that fails is re-run, checking each step,
    to name the first non-finite step.
    """
    recorded, _ = _plan(cfg, record, band_pass)
    try:
        states = np.empty((cfg.n_paths, len(recorded)))
    except (ValueError, MemoryError) as exc:
        raise ConfigError(f"simulation.n_paths: cannot hold {cfg.n_paths} paths x "
                          f"{len(recorded)} recorded grid steps as float64 ({exc})") from None
    parts = []
    for start, local, part in simulate_blocks(model, cfg, threads, record, band_pass):
        states[start:start + local.shape[1]] = local.T
        parts.append(part)
    return PathEnsemble(
        states=states,
        config=cfg,
        rng_streams=RngStreams(seed=cfg.seed, block_paths=BLOCK_PATHS),
        recorded=tuple(recorded),
        band_parts=None if band_pass is None else parts,
    )


def in_window(seg: np.ndarray, w: LocalWindow, closed: bool = True) -> np.ndarray:
    """Elementwise membership of the window [xi-delta, xi+delta] (closed) or
    (xi-delta, xi+delta) (open).  Each caller says why it uses which."""
    dev = np.abs(seg - w.xi)
    return dev <= w.delta if closed else dev < w.delta


def _first_exit(seg: np.ndarray, w: LocalWindow) -> np.ndarray:
    """Index of the first grid state outside the open window, else n_cols.

    Open, because the stopped moment stops a path the first time it reaches
    the window's boundary.
    """
    out = ~in_window(seg, w, closed=False)
    has = out.any(axis=1)
    return np.where(has, out.argmax(axis=1), seg.shape[1])


def stopped_increment_moment(ens: PathEnsemble, w: LocalWindow, eps: float, t: float,
                             p: float) -> MCEstimate:
    """MC estimate of E[ sup_{s in [t-eps, t]} |X^tau_s - X^tau_{t-eps}|^p ]

    where tau is the first grid exit of the open window after t-eps.  Kept
    for the stopped-moment scaling (``test_acceptance.py::TestCriterion3MomentScaling``).
    """
    if p < 1.0:
        raise ConfigError("p must be >= 1")
    k0, k_end = ens.config.lookback(eps, t)
    m = k_end - k0 + 1
    band = ens.band(k0, k_end)
    vals = np.empty(ens.n_paths)
    for start, stop in path_chunks(ens.n_paths, _MOMENT_BLOCK):
        seg = band[start:stop]
        fo = np.minimum(_first_exit(seg, w), m - 1)
        idx = np.minimum(np.arange(m)[None, :], fo[:, None])
        stopped = np.take_along_axis(seg, idx, axis=1)
        sup = np.max(np.abs(stopped - stopped[:, :1]), axis=1)
        vals[start:stop] = sup**p
    return mean_se(vals)


# ---------------------------------------------------------------------------
# binary ensemble artifact
# ---------------------------------------------------------------------------

_HEADER = struct.Struct("<8sIQQdddQI")


def save_ensemble(path, ens: PathEnsemble) -> None:
    """Versioned little-endian dump: header then row-major float64 states.

    The format holds every grid step, so only a fully recorded ensemble
    can be saved.
    """
    cfg = ens.config
    if len(ens.recorded) != cfg.n_steps + 1:
        raise ConfigError(f"{path}: an ensemble file holds every grid step, but this "
                          f"ensemble recorded {len(ens.recorded)} of {cfg.n_steps + 1}")
    header = _HEADER.pack(
        _MAGIC, _VERSION, ens.n_paths, cfg.n_steps,
        cfg.h, cfg.t_final, cfg.x0, cfg.seed, ens.rng_streams.block_paths,
    )
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(ens.states, dtype="<f8"))  # its buffer, not a copy


def load_ensemble(path) -> PathEnsemble:
    """Read a file written by ``save_ensemble``; no command reads one back."""
    with open(path, "rb") as fh:
        raw = fh.read(_HEADER.size)
        if len(raw) < _HEADER.size:
            raise ConfigError(f"{path}: truncated header: expected {_HEADER.size} bytes, "
                              f"got {len(raw)}")
        magic, version, n_paths, n_steps, h, t_final, x0, seed, block_paths = _HEADER.unpack(raw)
        if magic != _MAGIC:
            raise ConfigError(f"{path}: not an ensemble file")
        if version != _VERSION:
            raise ConfigError(f"{path}: unsupported version {version}")
        expected = n_paths * (n_steps + 1) * 8
        size = os.fstat(fh.fileno()).st_size
        if size != _HEADER.size + expected:
            raise ConfigError(f"{path}: expected {_HEADER.size + expected} bytes for "
                              f"{n_paths} paths x {n_steps + 1} grid points, got {size}")
        data = np.fromfile(fh, dtype="<f8").reshape(n_paths, n_steps + 1)
    cfg = SimConfig(x0=x0, t_final=t_final, h=h, n_paths=n_paths, seed=seed)
    return PathEnsemble(
        states=data.astype(float, copy=False),
        config=cfg,
        rng_streams=RngStreams(seed=seed, block_paths=block_paths),
        recorded=tuple(range(n_steps + 1)),
    )
