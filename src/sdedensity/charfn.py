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

Negative frequencies are filled by conjugation, which is exact for real
samples, so conjugate symmetry of the estimate holds bitwise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .simulate import PathEnsemble
from .util import fmt_float, kahan_merge, map_ordered, path_chunks

_CF_CHUNK = 1 << 14


@dataclass(frozen=True, eq=False)
class FrequencyGrid:
    """Symmetric uniform grid {-M dy, ..., 0, ..., M dy}."""

    values: np.ndarray
    y_max: float
    spacing: float

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1 or v.size % 2 == 0:
            raise ConfigError("frequency grid must be 1-d with odd length")
        m = v.size // 2
        if v[m] != 0.0:
            raise ConfigError("frequency grid must contain 0 at its center")
        if not np.array_equal(v[m:], -v[m::-1]):
            raise ConfigError("frequency grid must be symmetric about 0")
        object.__setattr__(self, "values", v)

    @classmethod
    def uniform(cls, y_max: float, spacing: float) -> "FrequencyGrid":
        if y_max <= 0 or spacing <= 0:
            raise ConfigError("y_max and spacing must be positive")
        m = int(round(y_max / spacing))
        if m < 1:
            raise ConfigError("y_max must be at least one spacing")
        vals = spacing * np.arange(-m, m + 1)
        return cls(values=vals, y_max=m * spacing, spacing=spacing)

    @property
    def half_count(self) -> int:
        return self.values.size // 2

    def positive(self) -> np.ndarray:
        return self.values[self.half_count + 1:]


@dataclass(eq=False)
class CharFnEstimate:
    """Complex CF values with per-frequency standard errors."""

    grid: FrequencyGrid
    values: np.ndarray
    std_errors: np.ndarray
    n_paths: int
    t: float

    def _index(self, y: float) -> int:
        j = int(round((y - self.grid.values[0]) / self.grid.spacing))
        if not (0 <= j < self.grid.values.size) or abs(self.grid.values[j] - y) > 1e-9:
            raise ConfigError(f"frequency {y} is not on the grid")
        return j

    def value_at(self, y: float) -> complex:
        return complex(self.values[self._index(y)])

    def se_at(self, y: float) -> float:
        return float(self.std_errors[self._index(y)])

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            fh.write("y,re,im,se\n")
            for y, v, s in zip(self.grid.values, self.values, self.std_errors):
                fh.write(f"{fmt_float(y)},{fmt_float(v.real)},{fmt_float(v.imag)},{fmt_float(s)}\n")

    @classmethod
    def from_function(cls, f, grid: FrequencyGrid, t: float = 0.0) -> "CharFnEstimate":
        """Wrap an analytic CF (zero standard errors, mirrored for symmetry)."""
        return cls.from_values([complex(f(y)) for y in grid.values[grid.half_count:]], grid, t)

    @classmethod
    def from_values(cls, pos, grid: FrequencyGrid, t: float = 0.0) -> "CharFnEstimate":
        """Exact CF values at the grid's non-negative frequencies, mirrored to the rest."""
        pos = np.asarray(pos, dtype=complex)
        if pos.shape != (grid.half_count + 1,):
            raise ConfigError("need one value per non-negative grid frequency")
        vals = np.concatenate([np.conj(pos[1:])[::-1], pos])
        return cls(grid=grid, values=vals, std_errors=np.zeros(grid.values.size),
                   n_paths=0, t=t)


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
    mean_a = totals[0] / n
    mean_b = totals[1] / n

    # E[(w cos(yx))^2] = (E[w^2] + Re E[w^2 e^{2iyx}]) / 2, same with a minus for sin
    w2 = mean_b[0].real
    e_r2 = 0.5 * (w2 + mean_b.real)
    e_i2 = 0.5 * (w2 - mean_b.real)
    var_r = np.maximum(e_r2 - mean_a.real**2, 0.0)
    var_i = np.maximum(e_i2 - mean_a.imag**2, 0.0)
    bessel = n / (n - 1.0) if n > 1 else 1.0
    se_pos = np.sqrt(np.maximum(var_r, var_i) * bessel / n)

    values = np.concatenate([np.conj(mean_a[1:])[::-1], mean_a])
    ses = np.concatenate([se_pos[1:][::-1], se_pos])
    return CharFnEstimate(grid=grid, values=values, std_errors=ses, n_paths=n, t=t)


def estimate_localized(ens: PathEnsemble, phi, transform, grid: FrequencyGrid, t: float,
                       threads: int = 1) -> CharFnEstimate:
    """Empirical CF of the localized law in transformed coordinates.

    This is the object the density bounds speak about: the weight phi is
    evaluated in the original coordinate while the phase uses Y = H(X), i.e.
    E[e^{iyH(X_t)} phi(X_t)] = E[e^{iyY_t} (phi o H^{-1})(Y_t)].
    """
    return cf_from_samples(ens.states_at(t), phi, grid, t=t, threads=threads,
                           transform=transform)
