"""Small shared helpers: MC estimates and deterministic chunked execution."""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

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


def merge_moments(parts: Sequence[tuple]) -> list[MCEstimate]:
    """One mean and standard error per row from per-block ``row_moments``.

    The blocks are folded in one after another, in the given order, by the
    updating formulae of Chan, Golub & LeVeque (1979), so the result is
    bitwise reproducible for a fixed partition; the standard error is that of
    ``mean_se`` on the concatenated rows, up to rounding.
    """
    n, mean, m2 = parts[0]
    for nb, mb, m2b in parts[1:]:
        total = n + nb
        delta = mb - mean
        mean = mean + delta * (nb / total)
        m2 = m2 + m2b + delta * delta * (n * nb / total)
        n = total
    se = np.sqrt(m2 / (n - 1)) / np.sqrt(n) if n > 1 else np.full_like(mean, np.inf)
    return [MCEstimate(float(m), float(s), n) for m, s in zip(mean, se)]


def map_ordered(fn: Callable, args: Sequence, threads: int = 1) -> list:
    """Apply `fn` over `args`, returning results in argument order.

    With threads > 1 the work is farmed to a thread pool, but results are
    always collected in submission order, so any reduction performed over
    the returned list is independent of scheduling.
    """
    return list(iter_ordered(fn, args, threads))


def iter_ordered(fn: Callable, args: Sequence, threads: int = 1) -> Iterator:
    """``map_ordered`` as an iterator: each result is yielded, in argument order,
    as soon as it and those before it are done, so a consumer that reduces them
    as they come holds about one result per worker instead of all of them."""
    if threads <= 1 or len(args) <= 1:
        yield from map(fn, args)
        return
    with ThreadPoolExecutor(max_workers=threads) as pool:
        yield from pool.map(fn, args)


def kahan_merge(partials: Iterable[np.ndarray]) -> np.ndarray:
    """Sum an ordered sequence of equally-shaped arrays with compensated addition.

    The merge order is the iteration order, so the result is bitwise
    reproducible for a fixed partition of the work.
    """
    total = None
    comp = None
    for part in partials:
        part = np.asarray(part)
        if total is None:
            total = part.astype(part.dtype, copy=True)
            comp = np.zeros_like(total)
            continue
        y = part - comp
        t = total + y
        comp = (t - total) - y
        total = t
    if total is None:
        raise ValueError("no partials to merge")
    return total


def path_chunks(n: int, size: int) -> list[tuple[int, int]]:
    """Fixed [start, stop) chunk boundaries; independent of worker count."""
    return [(s, min(s + size, n)) for s in range(0, n, size)]
