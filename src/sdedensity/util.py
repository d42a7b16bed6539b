"""Small shared helpers: MC estimates and deterministic chunked execution."""

from __future__ import annotations

from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from functools import reduce
from itertools import islice
from typing import Callable, Iterable, Iterator

import numpy as np


@dataclass(frozen=True)
class MCEstimate:
    """A Monte-Carlo mean with its standard error and sample count."""

    value: float
    std_error: float
    n_samples: int


def mean_se(samples: np.ndarray) -> MCEstimate:
    """Sample mean and standard error of a 1-d array."""
    samples = np.asarray(samples, dtype=float)
    n = samples.size
    m = float(np.mean(samples))
    if n < 2:
        return MCEstimate(m, float("inf"), n)
    se = float(np.std(samples, ddof=1) / np.sqrt(n))
    return MCEstimate(m, se, n)


def unique(values) -> np.ndarray:
    """``np.unique`` of a NaN-free array, same bits (its sort, then the first of
    each run), without the ``numpy.ma`` import ``np.unique`` does in numpy 2.4."""
    ordered = np.sort(np.ravel(values))
    first = np.empty(ordered.shape, dtype=bool)
    first[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    return ordered[first]


def row_moments(rows: np.ndarray) -> tuple[int, np.ndarray, np.ndarray]:
    """(count, mean, M2) of each row of a 2-d array; M2 is the sum of squared
    deviations from the row's mean."""
    mean = rows.mean(axis=1)
    dev = rows - mean[:, None]
    return rows.shape[1], mean, np.square(dev, out=dev).sum(axis=1)


def fold_moments(a: tuple, b: tuple) -> tuple:
    """Two (count, mean, M2) triples merged into one, by the updating formulae
    of Chan, Golub & LeVeque (1979)."""
    n, mean, m2 = a
    nb, mb, m2b = b
    total = n + nb
    delta = mb - mean
    return total, mean + delta * (nb / total), m2 + m2b + delta * delta * (n * nb / total)


def merge_moments(parts: Iterable[tuple]) -> list[MCEstimate]:
    """One mean and standard error per row from per-block ``row_moments``.

    The blocks are folded in one after another, in the given order, by
    ``fold_moments``, so the result is bitwise reproducible for a fixed
    partition, and a running fold merged last gives the same bits; the
    standard error is that of ``mean_se`` on the concatenated rows, up to
    rounding.
    """
    n, mean, m2 = reduce(fold_moments, parts)
    se = np.sqrt(m2 / (n - 1)) / np.sqrt(n) if n > 1 else np.full_like(mean, np.inf)
    return [MCEstimate(float(m), float(s), n) for m, s in zip(mean, se)]


class _Inline:
    """An executor that runs each task as it is submitted, on the calling thread."""

    @staticmethod
    def submit(fn: Callable, *args) -> Future:
        done = Future()
        done.set_result(fn(*args))
        return done


def task_pool(threads: int):
    """A context giving an executor: ``threads`` worker threads, or at 1 one
    that runs each task on the spot."""
    return ThreadPoolExecutor(max_workers=threads) if threads > 1 else nullcontext(_Inline())


def map_ordered(fn: Callable, args: Iterable, threads: int = 1) -> list:
    """Apply `fn` over `args`, returning results in argument order.

    With threads > 1 the work is farmed to a thread pool, but results are
    always collected in submission order, so any reduction performed over
    the returned list is independent of scheduling.
    """
    return list(iter_ordered(fn, args, threads))


def iter_ordered(fn: Callable, args: Iterable, threads: int = 1, pool=None) -> Iterator:
    """``map_ordered`` as an iterator: each result is yielded, in argument order,
    as soon as it and those before it are done.  ``args`` is read lazily, and at
    most 2 x threads calls are running, waiting or done but not yet taken, so a
    consumer that reduces the results as they come holds a bounded number of
    them whatever the length of ``args``.  The calls run on ``pool`` (an
    executor of ``threads`` workers) if given, else on a pool of their own."""
    if threads <= 1:
        yield from map(fn, args)
        return
    if pool is None:
        with task_pool(threads) as pool:
            yield from iter_ordered(fn, args, threads, pool)
        return
    args = iter(args)
    pending = deque(pool.submit(fn, a) for a in islice(args, 2 * threads))
    while pending:
        yield pending.popleft().result()
        pending.extend(pool.submit(fn, a) for a in islice(args, 1))


class KahanSum:
    """A compensated running sum of equally-shaped arrays, added in order.

    The result depends only on the parts and their order, so it is bitwise
    reproducible for a fixed partition of the work.
    """

    def __init__(self):
        self.total = None
        self.comp = None

    def add(self, part: np.ndarray) -> None:
        part = np.asarray(part)
        if self.total is None:
            self.total = part.astype(part.dtype, copy=True)
            self.comp = np.zeros_like(self.total)
            return
        y = part - self.comp
        t = self.total + y
        self.comp = (t - self.total) - y
        self.total = t


def path_chunks(n: int, size: int) -> Iterator[tuple[int, int]]:
    """Fixed [start, stop) chunk boundaries, made as they are read; independent
    of worker count."""
    return ((s, min(s + size, n)) for s in range(0, n, size))
