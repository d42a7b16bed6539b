"""Monte-Carlo estimation of localized characteristic functions.

The target is E[w(X) e^{iyH(X)}] on a symmetric uniform frequency grid
y_j = j dy, |j| <= M, with a standard error per frequency.  With the phases
theta = dy H(X), the sums S(j) = sum_i w_i e^{ij theta_i} are a type-1
nonuniform FFT, computed by Gaussian gridding (Dutt & Rokhlin 1993; Greengard &
Lee 2004, "Accelerating the nonuniform fast Fourier transform"):

- each sample is spread onto the 2 msp nearest points of a periodic grid of
  N = 2^k >= 16 M points with the kernel e^{-(x + theta)^2 / (4 tau)}, whose
  values at the offsets q from the sample's cell are E1 E2^q E3[q]: two ``exp``
  per sample (fast Gaussian gridding).  The rows w and w^2 share the
  positions, one ``np.bincount`` each per offset;
- one real FFT of the grid and the deconvolution sqrt(pi/tau) e^{j^2 tau} / N
  give S(j) of the w row at j <= M and, at the even modes up to 2M, the w^2
  row's sums at double frequency.  Their real parts are the per-sample second
  moments (cos^2 = (1 + cos 2a)/2), so the variances are exact.

Error bound.  Relative to mean |w| (at most 1 for a cutoff), the error at mode
j <= J = 2M is the aliasing sum_{p != 0} e^{-tau pN (2j + pN)} plus the
truncated tail sqrt(pi/tau) e^{j^2 tau} (2/N) sum_{q >= 0} e^{-a (msp + q)^2},
a = pi^2 / (N^2 tau).  tau = pi msp / (N (N - J)) makes both
e^{-pi msp (N - 2J) / (N - J)} at j = J, and N >= 8 J puts the exponent at or
above 6 pi msp / 7.  msp = 13 gives 9.5e-16 at j = J and 1.9e-16 at j <= M,
for every M; the smallest SE on the presets is 7.4e-6.  A grid position
theta N / (2 pi) rounded in plain double is off by up to half an ulp of the
product, a phase error of up to 3.7e-10 at mode 512 for theta = 1e4 (N = 8192),
so the position is formed in double-double and is right to an ulp of its
fraction whatever theta is.  The running sum of the K = ceil(n / 2^14) chunk
grids is off by at most K u (u = 2^-53) of each cell's sum of moduli; a
sample's kernel sums to at most (1 + msp^-1/2) N sqrt(tau/pi), so after the
deconvolution that is K u (1 + msp^-1/2) e^{j^2 tau} of mean |w|: 2.7 K u at
j = J and 1.6 K u at j <= M, or 1.1e-14 for the 62 chunks of 10^6 samples.

w and H are applied per fixed chunk of 2^14 samples; a sample of weight 0 is
dropped before H, since it adds exactly 0 to every grid point.  The samples
may arrive in pieces of any size (``CfAccumulator``: the pipeline feeds each
path block's states as the block finishes); the chunks' grids are added to a
running sum in chunk order as they finish, so no full-length array is made,
at most 2 grids per worker are pending, and the bits never depend on the
thread count or on the pieces.  Chunks of 2^12 and 2^13 samples took 2.3 and
1.5 times as long, from the per-offset work on the N-point grid, and chunks
of 2^15 and 2^16 no less (gaussian preset, 2 threads).

Negative frequencies are filled by conjugation (``CharFnEstimate.from_values``),
which is exact for real samples, and ``CharFnEstimate`` rejects values or
errors that are not exactly mirrored, so every estimate is Hermitian.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .simulate import PathEnsemble
from .util import task_pool

_CF_CHUNK = 1 << 14
_SPREAD = 13  # msp: grid points on each side of a sample
_OVERSAMPLE = 8  # grid points per mode 0..2M, at least
_INV_2PI = (0.15915494309189535, -9.839338337591243e-18)  # 1/(2 pi) as hi + lo
_SPLIT = 134217729.0  # 2^27 + 1: Dekker's split of a double into two halves


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
    """Hermitian CF values with per-frequency standard errors, mirrored alike."""

    grid: FrequencyGrid
    values: np.ndarray
    std_errors: np.ndarray
    n_paths: int
    t: float

    def __post_init__(self):
        if not self.values.shape == self.std_errors.shape == self.grid.values.shape:
            raise ConfigError("need one value and one standard error per grid frequency")
        m = self.grid.half_count
        bad = ((self.values[:m] != np.conj(self.values[m + 1:][::-1]))
               | (self.std_errors[:m] != self.std_errors[m + 1:][::-1]))
        if np.any(bad):
            y = self.grid.values[int(np.argmax(bad))]
            raise ConfigError(f"the CF at frequency {y:g} is not the mirror of the one at "
                              f"{-y:g}: a CF of a real law is Hermitian")

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


def _split(v):
    t = v * _SPLIT
    hi = t - (t - v)
    return hi, v - hi


def _grid_plan(m: int) -> tuple[int, float]:
    """The spread grid for the modes 0..2m: its size N and the kernel's tau."""
    size = 1 << (_OVERSAMPLE * 2 * m - 1).bit_length()
    return size, math.pi * _SPREAD / (size * (size - 2 * m))


def _grid_positions(theta: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray]:
    """-theta size / (2 pi) mod size as (cell, fraction), cells in [0, size) and
    fractions in [0, 1): the product with 1/(2 pi)'s high part is exact (Dekker),
    and its low part adds theta c_lo."""
    c_hi, c_lo = size * _INV_2PI[0], size * _INV_2PI[1]  # exact: size is a power of two
    ch, cl = _split(c_hi)
    th, tl = _split(theta)
    p = theta * c_hi
    err = ((th * ch - p) + th * cl + tl * ch) + tl * cl + theta * c_lo  # theta c = p + err
    whole = np.floor(-p)
    frac = (-p - whole) - err
    carry = np.floor(frac)
    frac -= carry
    return np.mod(whole + carry, size).astype(np.intp), frac


def _spread(theta: np.ndarray, w: np.ndarray, size: int, tau: float) -> np.ndarray:
    """Rows w and w^2 spread at the phases -theta onto the periodic grid of `size`
    points: a (2, size + 2 msp - 1) grid whose first msp - 1 and last msp
    columns wrap around."""
    a = math.pi**2 / (size * size * tau)  # the kernel is e^{-a d^2} at d grid steps
    kern = np.exp(-a * np.arange(_SPREAD + 1.0) ** 2)
    cells, frac = _grid_positions(theta, size)
    padded = size + 2 * _SPREAD - 1
    grid = np.zeros((2, padded))
    # the kernel at offset q from a sample's cell is e^{-a (q - frac)^2}
    # = E1 E2^q E3[q], E1 = e^{-a frac^2}, E2 = e^{2 a frac}, E3[q] = kern[|q|];
    # E2's powers are walked outwards from q = 0, the kernel's peak
    e2 = np.exp(2.0 * a * frac)
    up = np.exp(-a * frac * frac)
    up *= w
    down = up / e2
    row, idx = np.empty_like(w), np.empty_like(cells)
    for kern_w, step, offsets in ((up, e2, range(_SPREAD + 1)),
                                  (down, 1.0 / e2, range(-1, -_SPREAD, -1))):
        for q in offsets:
            if q != offsets[0]:
                kern_w *= step
            np.add(cells, q + _SPREAD - 1, out=idx)
            np.multiply(kern_w, kern[abs(q)], out=row)
            grid[0] += np.bincount(idx, row, minlength=padded)
            row *= w
            grid[1] += np.bincount(idx, row, minlength=padded)
    return grid


def _deconvolution(size: int, tau: float, modes: np.ndarray) -> np.ndarray:
    """The factor that turns the DFT of the spread grid into the sums at `modes`:
    1/size for the DFT, sqrt(pi/tau) e^{j^2 tau} for the kernel's coefficients."""
    return math.sqrt(math.pi / tau) * np.exp(modes * modes * tau) / size


class CfAccumulator:
    """The weighted empirical CF of ``cf_from_samples``, fed its samples in order,
    in pieces of any size.

    The samples are cut into the fixed chunks of ``_CF_CHUNK`` from the first;
    each full chunk is spread as a task on ``pool`` (an executor of ``threads``
    workers, as ``util.task_pool`` makes), and the chunks' grids are summed in
    chunk order as they finish, with at most 2 x threads chunks pending.  So the
    pieces' sizes, the pool and the thread count never change the bits, and
    what is held does not grow with the number of samples.
    """

    def __init__(self, phi, grid: FrequencyGrid, transform, pool, threads: int):
        self.phi, self.grid, self.transform, self.pool = phi, grid, transform, pool
        self.ahead = 2 * threads
        self.size, self.tau = _grid_plan(grid.half_count)
        self.chunk = np.empty(_CF_CHUNK)
        self.fill = 0
        self.n = 0
        self.pending = deque()  # the spread chunks' futures, in chunk order
        self.padded = np.zeros((2, self.size + 2 * _SPREAD - 1))  # the chunk grids' running sum

    def add(self, x) -> None:
        """The next samples, in path order."""
        x = np.asarray(x, dtype=float)
        if x.ndim != 1:
            raise ConfigError("samples must be non-empty and 1-d")
        if not np.all(np.isfinite(x)):
            raise ConfigError("samples must be finite")
        self.n += x.size
        while x.size:
            take = min(_CF_CHUNK - self.fill, x.size)
            self.chunk[self.fill:self.fill + take] = x[:take]
            self.fill += take
            x = x[take:]
            if self.fill == _CF_CHUNK:
                self._submit()

    def _submit(self) -> None:
        self.pending.append(self.pool.submit(self._chunk_grid, self.chunk[:self.fill]))
        self.chunk, self.fill = np.empty(_CF_CHUNK), 0
        while self.pending and (self.pending[0].done() or len(self.pending) > self.ahead):
            self.padded += self.pending.popleft().result()

    def _chunk_grid(self, xs: np.ndarray) -> np.ndarray:
        w = self.phi(xs)
        keep = np.flatnonzero(w)
        xs, w = xs[keep], w[keep]
        theta = self.grid.spacing * (xs if self.transform is None
                                     else self.transform.forward_many(xs))
        return _spread(theta, w, self.size, self.tau)

    def flush(self) -> None:
        """Spread the last, partial chunk and merge every pending grid; the pool
        is not used after this."""
        if self.fill:
            self._submit()
        while self.pending:
            self.padded += self.pending.popleft().result()

    def estimate(self, t: float = 0.0) -> CharFnEstimate:
        """The CF at the grid's frequencies, with SEs, of every sample added so far."""
        self.flush()
        n, m, size = self.n, self.grid.half_count, self.size
        if n == 0:
            raise ConfigError("samples must be non-empty and 1-d")
        lo = _SPREAD - 1
        periodic = self.padded[:, lo:lo + size].copy()
        periodic[:, :_SPREAD] += self.padded[:, lo + size:]
        periodic[:, size - lo:] += self.padded[:, :lo]
        sums = np.fft.rfft(periodic, axis=1)[:, :2 * m + 1]
        sums *= _deconvolution(size, self.tau, np.arange(2 * m + 1)) / n
        mean_a, mean_b = sums[0, :m + 1], sums[1, ::2]

        # E[(w cos(yx))^2] = (E[w^2] + Re E[w^2 e^{2iyx}]) / 2, same with a minus for sin
        w2 = mean_b[0].real
        e_r2 = 0.5 * (w2 + mean_b.real)
        e_i2 = 0.5 * (w2 - mean_b.real)
        var_r = np.maximum(e_r2 - mean_a.real**2, 0.0)
        var_i = np.maximum(e_i2 - mean_a.imag**2, 0.0)
        bessel = n / (n - 1.0) if n > 1 else 1.0
        se_pos = np.sqrt(np.maximum(var_r, var_i) * bessel / n)
        return CharFnEstimate.from_values(mean_a, self.grid, t, se_pos, n)


def cf_from_samples(x: np.ndarray, phi, grid: FrequencyGrid, t: float = 0.0,
                    threads: int = 1, transform=None) -> CharFnEstimate:
    """Weighted empirical CF (1/N) sum_i phi(x_i) e^{i y H(x_i)} on the grid, with SEs.

    H is ``transform.forward_many``, or the identity if ``transform`` is None.
    """
    with task_pool(threads) as pool:
        acc = CfAccumulator(phi, grid, transform, pool, threads)
        acc.add(x)
        return acc.estimate(t)


def estimate_localized(ens: PathEnsemble, phi, transform, grid: FrequencyGrid, t: float,
                       threads: int = 1) -> CharFnEstimate:
    """Empirical CF of the localized law in transformed coordinates.

    This is the object the density bounds speak about: the weight phi is
    evaluated in the original coordinate while the phase uses Y = H(X), i.e.
    E[e^{iyH(X_t)} phi(X_t)] = E[e^{iyY_t} (phi o H^{-1})(Y_t)].
    """
    return cf_from_samples(ens.states_at(t), phi, grid, t=t, threads=threads,
                           transform=transform)
