"""Frequency-domain decay bounds for the localized CF and their MC verdicts.

Two bound shapes are checked against the empirical CF modulus:

  fixed-lookback:  (1 + eps|y|) e^{-eps y^2/2} + eps + (1+|y|) R(eps)
  matched-lookback: |y|^{-log|y|/2} + log^2|y|/y^2 + |y| R(eps_y),
                    eps_y = log^2(|y|)/y^2  (valid for |y| > 1, eps_y < t)

where R(eps) is the Monte-Carlo remainder

  R(eps) = E[ 1_{paths stay in the window on [t-eps, t]}
              | integral_{t-eps}^t g(X_s) - g(X_{t-eps}) ds | ],

with g the drift functional mu/sigma_cont - d(sigma_cont)/2 and the time
integral taken by the trapezoid rule on the path grid.  The multiplicative
constant is never derived from first principles; it is fitted as the least
constant making every checked frequency pass at 3 standard errors, and its
stability under changes of sample size is part of the acceptance story.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .charfn import CharFnEstimate
from .errors import ConfigError, DomainError
from .model import DriftFunctional, LocalWindow
from .simulate import BLOCK_PATHS, PathEnsemble, in_window
from .util import MCEstimate, fmt_float, map_ordered, merge_moments, path_chunks, row_moments


def epsilon_rule(y):
    """The frequency-matched lookback eps_y = log^2(|y|) / y^2, |y| > 1, elementwise."""
    ay = np.abs(np.asarray(y, dtype=float))
    if np.any(ay <= 1.0):
        raise DomainError("epsilon rule requires |y| > 1")
    return np.log(ay) ** 2 / ay**2


def fixed_lookback_bound(y, eps, remainder) -> tuple:
    """(gauss, eps, remainder) terms of the fixed-lookback bound at c = 1, elementwise."""
    y, eps = np.asarray(y, dtype=float), np.asarray(eps, dtype=float)
    if np.any(eps <= 0):
        raise DomainError("eps must be positive")
    ay = np.abs(y)
    return (1.0 + eps * ay) * np.exp(-0.5 * eps * y**2), eps, (1.0 + ay) * remainder


def matched_lookback_bound(y, remainder_at_eps_y) -> tuple:
    """(gauss, eps, remainder) terms of the matched-lookback bound at c = 1, elementwise."""
    ay = np.abs(np.asarray(y, dtype=float))
    eps = epsilon_rule(ay)  # the matched lookback is the eps term; raises for |y| <= 1
    return ay ** (-0.5 * np.log(ay)), eps, ay * remainder_at_eps_y


@dataclass(frozen=True)
class RemainderPass:
    """The remainder kernel: per path block, the moments of every lookback's samples.

    ``lookbacks`` are distinct grid steps, ascending; the block's states at
    grid steps ``steps`` = [k_end - max lookback, k_end] are all it reads.
    Sample u of path i is 1_{path i stays in the closed window on its last
    lookbacks[u] steps} * | trapz g(X_s) ds - eps * g(X_{t-eps}) |, with
    eps = lookbacks[u] * h and the trapezoid sum taken from prefix sums of g.
    A block's result is the (count, mean, M2) of its samples per lookback;
    ``merge_moments`` merges the blocks in block order.  ``start`` opens one
    block's ``BlockRemainder``, which takes the block's states one step at a
    time: ``simulate`` feeds it inside the Euler loop, and ``block_results``
    feeds it an ensemble's recorded band.  Blocks are ``BLOCK_PATHS`` paths
    either way, so the estimates are the same bits for any thread count.
    """

    g: DriftFunctional
    window: LocalWindow
    h: float
    k_end: int
    lookbacks: tuple[int, ...]

    @classmethod
    def of(cls, g: DriftFunctional, w: LocalWindow, h: float, k_end: int,
           k_steps) -> "RemainderPass":
        """The kernel for the distinct lookbacks among ``k_steps``."""
        return cls(g, w, h, k_end, tuple(int(k) for k in np.unique(k_steps)))

    @property
    def steps(self) -> range:
        return range(self.k_end - self.lookbacks[-1], self.k_end + 1)

    def start(self, rows: int) -> "BlockRemainder":
        return BlockRemainder(self, rows)

    def block_results(self, ens: PathEnsemble, threads: int = 1) -> list:
        """The kernel's results per ``BLOCK_PATHS`` block of ``ens``, in block order:
        the ones ``simulate`` made if it ran this kernel, else a pass over the
        recorded band on ``threads`` workers."""
        if ens.band_pass == self:
            return ens.band_parts
        band = ens.band(self.steps[0], self.steps[-1])

        def run(span):
            block = self.start(span[1] - span[0])
            for x in band[span[0]:span[1]].T:
                block.push(x)
            return block.result()

        return map_ordered(run, path_chunks(ens.n_paths, BLOCK_PATHS), threads=threads)


class BlockRemainder:
    """One block's remainder moments, reduced as its states arrive, a step at a time.

    Per path it keeps the running prefix sum of g, g and the prefix at each
    lookback's first step, and the last step spent outside the closed window
    (the path stays on lookback u iff that step is before u's first), so no
    band of states is held.  ``result`` applies the trapezoid rule to these in
    the operation order of a cumulative sum over the band, so the samples are
    the same bits as from the band itself.
    """

    def __init__(self, kernel: RemainderPass, rows: int):
        self.kernel = kernel
        lookbacks = np.asarray(kernel.lookbacks)
        self.first = len(kernel.steps) - 1 - lookbacks  # band row of each lookback's start
        self.slot = {int(r): u for u, r in enumerate(self.first)}
        self.g_first = np.empty((lookbacks.size, rows))
        self.prefix_first = np.empty((lookbacks.size, rows))
        self.last_out = np.full(rows, -1)
        self.row = 0
        self.prefix = self.g_last = None

    def push(self, x: np.ndarray) -> None:
        """The block's states at the next band step."""
        gx = self.kernel.g(x)
        self.prefix = gx if self.prefix is None else self.prefix + gx
        u = self.slot.get(self.row)
        if u is not None:
            self.g_first[u] = gx
            self.prefix_first[u] = self.prefix
        # closed: the ball on which the coefficients are controlled
        self.last_out[~in_window(x, self.kernel.window)] = self.row
        self.g_last = gx
        self.row += 1

    def result(self) -> tuple:
        """``row_moments`` of the samples, a row per lookback, once every band step is in."""
        k = self.kernel
        # |h (P_end - P_first + 0.5 (g_first - g_end)) - eps g_first| in this
        # operation order, in place
        integral = np.subtract(self.prefix, self.prefix_first, out=self.prefix_first)
        half = self.g_first - self.g_last
        half *= 0.5
        integral += half
        integral *= k.h
        self.g_first *= (np.asarray(k.lookbacks) * k.h)[:, None]
        integral -= self.g_first
        np.abs(integral, out=integral)
        return row_moments(np.where(self.last_out < self.first[:, None], integral, 0.0))


def remainder(ens: PathEnsemble, g: DriftFunctional, w: LocalWindow,
              eps: float, t: float) -> MCEstimate:
    """MC estimate of the localized running-increment of the drift functional g.

    Per path:  1_{stay in window} * | trapz g(X_s) ds - eps * g(X_{t-eps}) |.
    The single-lookback case of the estimator ``bound_report`` uses; kept for
    the remainder's scaling exponent (``test_acceptance.py::TestCriterion4RemainderScaling``).
    """
    k0, k_end = ens.config.lookback(eps, t)
    kernel = RemainderPass(g, w, ens.config.h, k_end, (k_end - k0,))
    return merge_moments(kernel.block_results(ens))[0]


def least_constant(empirical, se, bound) -> float:
    """Least c with empirical <= c * bound + 3 SE at every point where bound > 0.

    Subtracting the 3-SE noise allowance before taking the sup makes this the
    smallest constant consistent with MC noise.
    """
    slack = np.maximum(empirical - 3.0 * se, 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(bound > 0, slack / bound, 0.0)
    # nudge up so the binding point passes under float rounding
    return float(np.max(ratios)) * (1.0 + 1e-12)


def within_bound(empirical, se, bound, c: float) -> np.ndarray:
    """The pass rule: empirical <= c * bound + 3 SE, elementwise."""
    return empirical <= c * bound + 3.0 * se


def fit_decay(cf: CharFnEstimate, gamma: float) -> float:
    """Least constant c with |cf(y)| <= c (1+|y|)^{-(1+gamma)} + 3 SE on the grid."""
    if not (0.0 < gamma < 1.0):
        raise DomainError("gamma must lie in (0, 1)")
    return least_constant(np.abs(cf.values), cf.std_errors,
                          (1.0 + np.abs(cf.grid.values)) ** (-(1.0 + gamma)))


@dataclass(eq=False)
class BoundReport:
    """Per-frequency bound-vs-empirical verdicts for one ensemble."""

    y: np.ndarray
    empirical: np.ndarray
    se: np.ndarray
    gauss_term: np.ndarray
    eps_term: np.ndarray
    remainder_term: np.ndarray
    eps_used: np.ndarray
    c_fit: float
    passed: np.ndarray
    t: float
    eps_rule: str
    n_paths: int
    metadata: dict = field(default_factory=dict)

    @property
    def bound(self) -> np.ndarray:
        return self.gauss_term + self.eps_term + self.remainder_term

    @property
    def pass_fraction(self) -> float:
        return float(np.mean(self.passed))

    def to_csv(self, path) -> None:
        cols = zip(self.y, self.empirical, self.se, self.gauss_term,
                   self.eps_term, self.remainder_term, self.bound, self.passed)
        with open(path, "w", newline="") as fh:
            fh.write("y,empirical,se,gauss_term,eps_term,remainder_term,bound,pass\n")
            for y, e, s, g, ep, r, b, p in cols:
                fh.write(",".join([fmt_float(y), fmt_float(e), fmt_float(s),
                                   fmt_float(g), fmt_float(ep), fmt_float(r),
                                   fmt_float(b), str(int(p))]) + "\n")

    def summary(self) -> dict:
        return {
            "t": self.t,
            "eps_rule": self.eps_rule,
            "n_paths": self.n_paths,
            "n_frequencies": int(self.y.size),
            "c_fit": self.c_fit,
            "pass_fraction": self.pass_fraction,
        }


def lookback_steps(y_check: np.ndarray, eps_rule: str | float, t: float,
                   h: float) -> tuple[np.ndarray, str]:
    """Grid lookback (in steps) of each checked frequency, and the rule's name.

    'matched' rounds eps_y to the path grid, a float is one fixed lookback;
    either way at least one step and, since eps < t and rounding is monotone,
    at most the whole path up to a grid time t > 0.  ``Pipeline`` builds its
    ``RemainderPass`` from these steps.
    """
    if y_check.size == 0:
        raise ConfigError("no frequencies to check")
    if eps_rule == "matched":
        eps_exact = epsilon_rule(y_check)
        if np.any(eps_exact >= t):
            bad = y_check[eps_exact >= t][0]
            raise ConfigError(
                f"lookback rule needs log^2|y|/y^2 < t; violated at y={bad} (t={t})"
            )
        rule_name = "matched"
    else:
        eps_exact = np.full(y_check.size, float(eps_rule))
        if np.any(eps_exact >= t) or np.any(eps_exact <= 0):
            raise ConfigError("fixed lookback must lie in (0, t)")
        rule_name = f"fixed:{eps_rule}"
    return np.maximum(np.rint(eps_exact / h).astype(int), 1), rule_name


def bound_report(cf: CharFnEstimate, ens: PathEnsemble, g: DriftFunctional,
                 w: LocalWindow, t: float, y_check: np.ndarray,
                 eps_rule: str | float = "matched", c: float | None = None,
                 threads: int = 1) -> BoundReport:
    """Evaluate the bound at each checked frequency against the empirical CF.

    ``y_check`` are grid frequencies (``RunConfig.bound_frequencies`` picks
    them for a run).  eps_rule 'matched' uses the per-frequency lookback eps_y
    (rounded to the path grid); a float uses that fixed lookback everywhere.
    The remainder is estimated once per distinct grid lookback by one
    ``RemainderPass``: inside ``simulate``, if the ensemble was simulated with
    it, else over the ensemble's recorded band, in path blocks on ``threads``
    workers.  The report does not depend on ``threads``.
    """
    h = ens.config.h
    y_check = np.asarray(y_check, dtype=float)
    k_steps, rule_name = lookback_steps(y_check, eps_rule, t, h)
    eps_used = k_steps * h

    empirical = np.array([abs(cf.value_at(float(y))) for y in y_check])
    se_emp = np.array([cf.se_at(float(y)) for y in y_check])
    # frequencies sharing a grid lookback share the remainder estimate
    kernel = RemainderPass.of(g, w, h, ens.config.step(t), k_steps)
    ests = merge_moments(kernel.block_results(ens, threads))
    rem_by_lookback = np.array([(e.value, e.std_error) for e in ests])
    rem_val, rem_se = rem_by_lookback[np.searchsorted(kernel.lookbacks, k_steps)].T

    if rule_name == "matched":
        gauss, eps_term, rem_term = matched_lookback_bound(y_check, rem_val)
    else:
        gauss, eps_term, rem_term = fixed_lookback_bound(y_check, eps_used, rem_val)
    total = gauss + eps_term + rem_term
    c_fit = least_constant(empirical, se_emp, total) if c is None else float(c)
    return BoundReport(
        y=y_check, empirical=empirical, se=se_emp, gauss_term=gauss,
        eps_term=eps_term, remainder_term=rem_term, eps_used=eps_used,
        c_fit=c_fit, passed=within_bound(empirical, se_emp, total, c_fit), t=t,
        eps_rule=rule_name, n_paths=ens.n_paths,
        metadata={"remainder_se_max": float(np.max(rem_se))},
    )
