"""Monte-Carlo estimation of localized characteristic functions.

The target is E[e^{iyX} w(X)] on a symmetric uniform frequency grid.  Powers
of e^{i dy X} are accumulated by recursion (one complex exponential per
sample instead of one per sample-frequency pair), and second moments come
for free from the double-frequency pass via cos^2 = (1 + cos 2a)/2, which is
exactly the per-sample variance of the real and imaginary summands.  Both
recursions are rows of one (2, chunk) array: one multiply and one row sum per
frequency.  w and H are applied per fixed chunk of 2^14 samples, whose sums
(numpy's pairwise sums) ``kahan_merge`` adds in chunk order, so no full-length
array is made and the bits never depend on the thread count.  A chunk's two
(2, 2^14) complex arrays, 1 MB, stay in a 2 MB per-core L2 through the loop;
chunks of 8,192 and 4,096 took 1.2 and 2.6 times as long, from per-call
dispatch (gaussian preset, 2 threads).

Negative frequencies are filled by conjugation (``CharFnEstimate.from_values``),
which is exact for real samples, so conjugate symmetry holds bitwise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .simulate import PathEnsemble
from .util import kahan_merge, map_ordered, path_chunks

_CF_CHUNK = 1 << 14


@dataclass(frozen=True, eq=False)
class FrequencyGrid:
    """Symmetric uniform grid {-M dy, ..., 0, ..., M dy}, M = half_count, dy = spacing."""

    half_count: int
    spacing: float

    def __post_init__(self):
        m = self.half_count
        object.__setattr__(self, "values", self.spacing * np.arange(-m, m + 1))

    @classmethod
    def uniform(cls, y_max: float, spacing: float) -> "FrequencyGrid":
        if y_max <= 0 or spacing <= 0:
            raise ConfigError("y_max and spacing must be positive")
        try:
            m = int(round(y_max / spacing))
            grid = cls(m, spacing)
        except (OverflowError, ValueError, MemoryError):  # a size numpy refuses or cannot allocate
            raise ConfigError("y_max / spacing is more frequencies than numpy can hold") from None
        if m < 1:
            raise ConfigError("y_max must be at least one spacing")
        return grid

    @property
    def y_max(self) -> float:
        return self.half_count * self.spacing

    def positive(self) -> np.ndarray:
        return self.values[self.half_count + 1:]

    def index(self, y):
        """The positions of the frequencies y (shaped like y); an entry that is
        not a grid frequency, to 1e-9, is an error."""
        y = np.asarray(y, dtype=float)
        with np.errstate(all="ignore"):
            j = np.rint(y / self.spacing) + self.half_count
        ok = (j >= 0) & (j < self.values.size)
        j = np.where(ok, j, 0).astype(np.intp)
        ok &= np.abs(self.values[j] - y) <= 1e-9
        if not np.all(ok):
            raise ConfigError(f"frequency {y[~ok][0]} is not on the grid")
        return j[()]


@dataclass(eq=False)
class CharFnEstimate:
    """Complex CF values with per-frequency standard errors."""

    grid: FrequencyGrid
    values: np.ndarray
    std_errors: np.ndarray
    n_paths: int
    t: float

    @classmethod
    def from_function(cls, f, grid: FrequencyGrid, t: float = 0.0) -> "CharFnEstimate":
        """Wrap an analytic CF (zero standard errors, mirrored for symmetry)."""
        return cls.from_values([complex(f(y)) for y in grid.values[grid.half_count:]], grid, t)

    @classmethod
    def from_values(cls, pos, grid: FrequencyGrid, t: float = 0.0, se=None,
                    n_paths: int = 0) -> "CharFnEstimate":
        """CF values and standard errors (None: zero) at the grid's non-negative
        frequencies, mirrored to the rest: values conjugated, errors as they are."""
        pos = np.asarray(pos, dtype=complex)
        if pos.shape != (grid.half_count + 1,):
            raise ConfigError("need one value per non-negative grid frequency")
        se = np.zeros(pos.size) if se is None else se
        return cls(grid=grid, values=np.concatenate([np.conj(pos[1:])[::-1], pos]),
                   std_errors=np.concatenate([se[1:][::-1], se]), n_paths=n_paths, t=t)


def cf_from_samples(x: np.ndarray, phi, grid: FrequencyGrid, t: float = 0.0,
                    threads: int = 1, transform=None) -> CharFnEstimate:
    """Weighted empirical CF (1/N) sum_i phi(x_i) e^{i y H(x_i)} on the grid, with SEs.

    H is ``transform.forward_many``, or the identity if ``transform`` is None.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.size == 0:
        raise ConfigError("samples must be non-empty and 1-d")
    n = x.size
    m = grid.half_count

    def block_sums(bounds):
        start, stop = bounds
        xs = x[start:stop]
        w = phi(xs)
        z = np.exp(1j * grid.spacing * (xs if transform is None else transform.forward_many(xs)))
        zz = np.stack([z, z * z])
        acc = np.stack([w, w * w]).astype(complex)
        sums = np.empty((m + 1, 2), dtype=complex)
        sums[0] = acc.sum(axis=1)
        for j in range(1, m + 1):
            np.multiply(acc, zz, out=acc)
            sums[j] = acc.sum(axis=1)
        return sums.T

    parts = map_ordered(block_sums, path_chunks(n, _CF_CHUNK), threads=threads)
    totals = kahan_merge(parts)
    mean_a, mean_b = totals / n

    # E[(w cos(yx))^2] = (E[w^2] + Re E[w^2 e^{2iyx}]) / 2, same with a minus for sin
    w2 = mean_b[0].real
    e_r2 = 0.5 * (w2 + mean_b.real)
    e_i2 = 0.5 * (w2 - mean_b.real)
    var_r = np.maximum(e_r2 - mean_a.real**2, 0.0)
    var_i = np.maximum(e_i2 - mean_a.imag**2, 0.0)
    bessel = n / (n - 1.0) if n > 1 else 1.0
    se_pos = np.sqrt(np.maximum(var_r, var_i) * bessel / n)
    return CharFnEstimate.from_values(mean_a, grid, t, se_pos, n)


def estimate_localized(ens: PathEnsemble, phi, transform, grid: FrequencyGrid, t: float,
                       threads: int = 1) -> CharFnEstimate:
    """Empirical CF of the localized law in transformed coordinates.

    This is the object the density bounds speak about: the weight phi is
    evaluated in the original coordinate while the phase uses Y = H(X), i.e.
    E[e^{iyH(X_t)} phi(X_t)] = E[e^{iyY_t} (phi o H^{-1})(Y_t)].
    """
    return cf_from_samples(ens.states_at(t), phi, grid, t=t, threads=threads,
                           transform=transform)
