"""Adaptive likelihood-annealing SMC with MALA moves.

The sampler walks a particle cloud from the prior (t = 0) to the posterior
(t = 1) along tempered targets p_t propto prior * likelihood^t:

* the next inverse temperature is chosen by bisection so the effective sample
  size (or conditional ESS) of the reweighted cloud hits a target fraction;
* particles are multinomially resampled every step;
* moves are Metropolis-adjusted Langevin steps preconditioned by the weighted
  particle covariance, with the step size picked from a log-spaced grid by
  maximising the median expected squared jumping distance of one trial sweep
  per candidate (a hill climb over the grid, warm-started at the previous
  temperature's choice, that trials a few candidates instead of all), and
  the number of sweeps chosen so that a configured fraction of particles has
  travelled further than the mean inter-particle Mahalanobis distance.

Each accepted temperature is stored as a :class:`Snapshot` (particles,
log-likelihoods, split prior/likelihood gradients) so estimators can reweight
and retemper the populations afterwards; an adaptive pilot run can be frozen
into a :class:`ReplayRecord` and re-run non-adaptively for independent
replicates.  All randomness derives from per-(step, purpose) seed-sequence
spawn keys, so runs are replayable.
"""

from __future__ import annotations

import json
import os
import warnings
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np
from scipy.linalg import cholesky, solve_triangular, LinAlgError

from .errors import (
    ConditioningError,
    ConvergenceError,
    DegenerateWeights,
    InvalidInput,
    InvalidSchedule,
)
from .models import TargetModel, _manifest_fields
from .samples import (
    SampleSet, _as_int, _check_seed, _is_int, _is_real, _read_sample_columns, _readonly,
    _sample_columns, _sample_set_of_columns,
)
from .samples import read_sample_csv  # noqa: F401  (perfbench/tracing.py wraps this name)
from .samples import write_sample_csv  # noqa: F401  (perfbench/tracing.py wraps this name)

_MIN_TEMPERATURE_STEP = 1e-8
_BISECTION_ITERS = 50
_MAX_STEPS = 10_000
_DISTANCE_SUBSAMPLE = 1500
# rows of a whitened cloud whose pair distances one product gives
_DISTANCE_STRIP = 64


@dataclass(frozen=True)
class SmcConfig:
    """Sampler tuning knobs.

    ``rho`` targets ESS = rho * N when picking the next temperature;
    ``rho_tilde`` is the CESS fraction used by post-hoc schedules.  Step sizes
    are tuned over ``h_grid_size`` log-spaced values in [h_min, h_max].  Move
    sweeps repeat until ``jump_fraction`` of the particles exceed the mean (or
    median) inter-particle Mahalanobis distance before the resample, with a
    hard cap of ``max_repeats``.  Counts take the integer rule, the other
    numbers the real-number rule (``samples._is_int``, ``_is_real``), and
    h_max is finite; anything else raises InvalidInput.
    """

    n_particles: int = 1000
    rho: float = 0.5
    rho_tilde: float = 0.9
    h_min: float = 0.01
    h_max: float = 1.0
    h_grid_size: int = 20
    jump_fraction: float = 0.5
    jump_threshold_stat: str = "mean"
    max_repeats: int = 100
    seed: int = 0
    bisection_tol: float = 1e-3   # |criterion - target| <= tol * N

    def __post_init__(self):
        for name in ("n_particles", "h_grid_size", "max_repeats"):
            object.__setattr__(self, name, _as_int(getattr(self, name), name))
        for name in ("rho", "rho_tilde", "h_min", "h_max", "jump_fraction"):
            if not _is_real(getattr(self, name)):
                raise InvalidInput(f"{name} must be a real number, got {getattr(self, name)!r}")
        if self.n_particles < 2:
            raise InvalidInput("need at least two particles")
        if not (0 < self.rho < 1) or not (0 < self.rho_tilde < 1):
            raise InvalidInput("rho and rho_tilde must lie strictly inside (0, 1)")
        if not (0 < self.h_min < self.h_max):
            raise InvalidInput("need 0 < h_min < h_max")
        if not self.h_max < np.inf:
            raise InvalidInput("h_max must be finite")
        if self.h_grid_size < 1:
            raise InvalidInput("step-size grid must be nonempty")
        if not (0 <= self.jump_fraction <= 1):
            raise InvalidInput("jump_fraction must lie in [0, 1]")
        if self.jump_threshold_stat not in ("mean", "median"):
            raise InvalidInput("jump_threshold_stat must be 'mean' or 'median'")
        if self.max_repeats < 1:
            raise InvalidInput("max_repeats must be >= 1")
        _check_seed(self.seed)
        if not (_is_real(self.bisection_tol) and 0 < self.bisection_tol < np.inf):
            raise InvalidInput("bisection_tol must be finite and positive")


def _rng(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=tuple(key)))


# --- weight diagnostics -------------------------------------------------------


def ess(weights) -> float:
    """Effective sample size 1 / sum(W^2) of normalised weights."""
    w = np.asarray(weights, dtype=float)
    total = w.sum()
    if total <= 0:
        raise DegenerateWeights("weights sum to zero")
    w = w / total
    return 1.0 / float(w @ w)


def cess(weights, ratios) -> float:
    """Conditional ESS  N (sum W r)^2 / sum W r^2  of a reweighting step."""
    w = np.asarray(weights, dtype=float)
    r = np.asarray(ratios, dtype=float)
    if w.shape != r.shape:
        raise InvalidInput("weights and ratios must align")
    num = float(w @ r) ** 2
    den = float(w @ (r * r))
    if den <= 0:
        raise DegenerateWeights("all reweighting ratios vanished")
    return w.size * num / den


def _log_weights(weights) -> np.ndarray:
    with np.errstate(divide="ignore"):
        return np.log(weights)


def _logsumexp(a: np.ndarray, b: np.ndarray | None = None) -> float:
    """log(sum(b * exp(a))) of a 1-d array by the steps of scipy.special.logsumexp.

    ``b`` (default: all ones) holds nonnegative weights; entries with b == 0
    become -inf first.  The entries equal to the maximum are taken out of the
    shifted sum s of the others, their weights summed into m, and the result
    is log1p(s / m) + log(m) + max.  A non-finite result (empty, all -inf,
    +inf or NaN input, or all weights zero) is recomputed as
    log(sum(b * exp(a))) on the original ``a``, as scipy does.  The same
    floats as scipy's, without its array-API dispatch, which costs most of a
    call at a few hundred entries.  This is the library's only log-sum-exp:
    the sampler's weights and the evidence ratio factors both go through it.
    """
    c = a if b is None else np.where(b == 0, -np.inf, a)
    c_max = np.max(c, initial=-np.inf)
    top = c == c_max
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        shifted = np.exp(np.where(top, -np.inf, c) - c_max)
        if b is None:
            m, s = np.count_nonzero(top), np.sum(shifted)
        else:
            m, s = np.sum(b * top), np.sum(b * shifted)
        out = np.log1p(s / m) + np.log(m) + c_max
        if not np.isfinite(out):
            out = np.log(np.sum(np.exp(a) if b is None else b * np.exp(a)))
    return float(out)


def _log_ess(log_w_un: np.ndarray) -> float:
    total = _logsumexp(log_w_un)
    if not np.isfinite(total):
        return 0.0
    return float(np.exp(2.0 * total - _logsumexp(2.0 * log_w_un)))


def _log_cess(log_w: np.ndarray, log_r: np.ndarray) -> float:
    num = _logsumexp(log_w + log_r)
    if not np.isfinite(num):
        return 0.0
    den = _logsumexp(log_w + 2.0 * log_r)
    return float(log_w.size * np.exp(2.0 * num - den))


def reweight(weights, log_like, t_old: float, t_new: float):
    """Advance importance weights from t_old to t_new.

    Returns (new_weights, log_increment) with
    log_increment = log sum_i W_i * l_i^(t_new - t_old), the evidence-ratio
    contribution of this step.  t_new < t_old is allowed: post-hoc schedules
    reweight populations backwards.
    """
    w = np.asarray(weights, dtype=float)
    ll = np.asarray(log_like, dtype=float)
    log_un = _log_weights(w) + (t_new - t_old) * ll
    log_inc = _logsumexp(log_un)
    if not np.isfinite(log_inc):
        raise DegenerateWeights(
            "every particle got zero weight in the reweighting step",
            t_old=t_old, t_new=t_new, max_log_like=float(np.max(ll, initial=-np.inf)),
        )
    return np.exp(log_un - log_inc), log_inc


def next_temperature(log_like, weights, t_cur: float, target: float,
                     criterion: str = "ess", tol: float = 1e-3) -> float:
    """Bisect for the largest temperature step meeting an ESS/CESS target.

    ``target`` is in absolute particles (e.g. rho * N).  Returns 1.0 when the
    criterion still clears the target at t = 1.  The step is floored at 1e-8;
    a target unreachable even there raises ConvergenceError.
    """
    ll = np.asarray(log_like, dtype=float)
    w = np.asarray(weights, dtype=float)
    if criterion not in ("ess", "cess"):
        raise InvalidInput(f"unknown temperature criterion {criterion!r}")
    if not (0 <= t_cur < 1):
        raise InvalidInput("t_cur must lie in [0, 1)")
    log_w = _log_weights(w / w.sum())

    def crit(t: float) -> float:
        delta = t - t_cur
        if criterion == "ess":
            return _log_ess(log_w + delta * ll)
        return _log_cess(log_w, delta * ll)

    if crit(1.0) >= target:
        return 1.0
    if crit(t_cur + _MIN_TEMPERATURE_STEP) < target:
        raise ConvergenceError(
            "temperature step collapsed below the 1e-8 floor",
            t_cur=t_cur, target=target,
        )
    lo, hi = t_cur, 1.0   # crit(lo) >= target > crit(hi) throughout
    for _ in range(_BISECTION_ITERS):
        mid = 0.5 * (lo + hi)
        c = crit(mid)
        if abs(c - target) <= tol * w.size:
            return float(mid)
        if c >= target:
            lo = mid
        else:
            hi = mid
    # tolerance never hit (criterion jumps, e.g. -inf log likelihoods);
    # keep the end of the bracket that still meets the target
    t_new = lo if lo > t_cur else t_cur + _MIN_TEMPERATURE_STEP
    return float(t_new)


def resample_multinomial(weights, rng) -> np.ndarray:
    """Ancestor indices drawn iid from the normalised weights."""
    w = np.asarray(weights, dtype=float)
    total = w.sum()
    if total <= 0 or not np.isfinite(total):
        raise DegenerateWeights("cannot resample from degenerate weights")
    return rng.choice(w.size, size=w.size, p=w / total)


# --- preconditioned MALA ------------------------------------------------------


def weighted_covariance(theta: np.ndarray, weights: np.ndarray):
    """Weighted covariance and its Cholesky factor, regularised if needed.

    Adds 1e-8 * trace/d to the diagonal (escalating tenfold) until the factor
    exists; raises ConditioningError if six escalations are not enough.
    """
    w = weights / weights.sum()
    mean = w @ theta
    centred = theta - mean
    denom = 1.0 - float(w @ w)
    if denom <= 0:
        raise DegenerateWeights("weights concentrate on a single particle")
    cov = (centred * w[:, None]).T @ centred / denom
    cov = 0.5 * (cov + cov.T)
    d = cov.shape[0]
    tr = float(np.trace(cov))
    bump = 1e-8 * (tr / d if tr > 0 else 1.0)
    add = 0.0
    for _ in range(7):
        try:
            chol = cholesky(cov + add * np.eye(d), lower=True)
            return cov + add * np.eye(d), chol
        except LinAlgError:
            add = bump if add == 0.0 else add * 10.0
    raise ConditioningError("particle covariance stayed singular", trace=tr)


@dataclass
class _Cloud:
    """Mutable particle state during a run."""

    theta: np.ndarray
    log_like: np.ndarray
    log_prior: np.ndarray
    grad_log_like: np.ndarray
    grad_log_prior: np.ndarray

    def tempered(self, t: float):
        return (
            t * self.log_like + self.log_prior,
            t * self.grad_log_like + self.grad_log_prior,
        )

    def take(self, idx) -> "_Cloud":
        return _Cloud(
            self.theta[idx].copy(),
            self.log_like[idx].copy(),
            self.log_prior[idx].copy(),
            self.grad_log_like[idx].copy(),
            self.grad_log_prior[idx].copy(),
        )


def _evaluate(model: TargetModel, theta: np.ndarray) -> _Cloud:
    return _Cloud(
        theta=theta,
        log_like=model.log_like(theta),
        log_prior=model.log_prior(theta),
        grad_log_like=model.grad_log_like(theta),
        grad_log_prior=model.grad_log_prior(theta),
    )


def _mala_sweep(cloud: _Cloud, model: TargetModel, t: float, h: float,
                cov: np.ndarray, chol: np.ndarray, rng):
    """One preconditioned MALA sweep over all particles.

    Mutates the cloud in place; returns (accept_prob, sq_jump, jump_distance)
    per particle, where sq_jump is the proposed squared Mahalanobis jump and
    jump_distance the realised (accepted) Mahalanobis distance.
    """
    n, d = cloud.theta.shape
    logp, grad = cloud.tempered(t)
    half = 0.5 * h * h
    drift = half * (grad @ cov)
    z = rng.standard_normal((n, d))
    proposal = cloud.theta + drift + h * (z @ chol.T)
    prop = _evaluate(model, proposal)
    logp_new, grad_new = prop.tempered(t)

    mu_rev = proposal + half * (grad_new @ cov)
    back = solve_triangular(chol, (cloud.theta - mu_rev).T, lower=True).T / h
    with np.errstate(invalid="ignore"):
        log_ratio = logp_new - logp - 0.5 * np.sum(back * back, axis=1) + 0.5 * np.sum(z * z, axis=1)
    log_ratio = np.where(np.isfinite(logp_new), log_ratio, -np.inf)

    jump = solve_triangular(chol, (proposal - cloud.theta).T, lower=True).T
    sq_jump = np.sum(jump * jump, axis=1)
    accept_prob = np.exp(np.minimum(log_ratio, 0.0))
    u = rng.uniform(size=n)
    with np.errstate(divide="ignore"):
        accepted = np.log(u) < log_ratio

    if np.any(accepted):
        cloud.theta[accepted] = proposal[accepted]
        cloud.log_like[accepted] = prop.log_like[accepted]
        cloud.log_prior[accepted] = prop.log_prior[accepted]
        cloud.grad_log_like[accepted] = prop.grad_log_like[accepted]
        cloud.grad_log_prior[accepted] = prop.grad_log_prior[accepted]
    distance = np.where(accepted, np.sqrt(sq_jump), 0.0)
    return accept_prob, sq_jump, distance


def step_size_grid(h_min: float, h_max: float, size: int) -> np.ndarray:
    return np.geomspace(h_min, h_max, size)


def tune_step_size(cloud: _Cloud, model: TargetModel, t: float, cov, chol,
                   grid, rng_for, start: int | None = None) -> float:
    """Pick the grid step size maximising the median expected squared jump.

    Candidate ``grid[hi]`` is trialled with one throwaway sweep from the same
    starting cloud, seeded by ``rng_for(hi)``; the per-particle score is
    acceptance probability times squared Mahalanobis jump.  The search is a
    hill climb over grid indices from ``start`` (default: the largest h; a
    run passes the previous temperature's choice): at index i it scores
    i - 1, i and i + 1, moves to the best of them, ties going to the larger
    index, and stops when i itself is best.  No candidate is trialled twice.

    If the climb stops on a median that is not positive, every candidate is
    scored and the largest maximiser is taken, a NaN median again ranking
    below every number; if no median is positive (all proposals rejected)
    the smallest h is returned with a warning.  Since each trial's seed
    depends only on its index, the climb returns exactly what a scan of the
    whole grid (largest maximiser) returns whenever the medians strictly rise
    to their maximum (one index or a run of equal ones) and strictly fall
    after it.
    """
    grid = np.asarray(grid, dtype=float)
    i = grid.size - 1 if start is None else int(start)
    if not 0 <= i < grid.size:
        raise InvalidInput(f"start index {start} is outside the {grid.size}-point grid")
    medians = {}

    def score(hi: int) -> float:
        if hi not in medians:
            trial = cloud.take(slice(None))
            accept_prob, sq_jump, _ = _mala_sweep(trial, model, t, grid[hi], cov, chol,
                                                  rng_for(hi))
            medians[hi] = float(np.median(accept_prob * sq_jump))
        return medians[hi]

    def rank(hi: int):   # a NaN median ranks below every number
        m = score(hi)
        return (m if m == m else -np.inf, hi)

    while True:
        best = max(range(max(i - 1, 0), min(i + 2, grid.size)), key=rank)
        if best == i:
            break
        i = best
    if not medians[i] > 0.0:
        i = max(range(grid.size), key=rank)     # the whole grid's largest maximiser
    if medians[i] > 0.0:
        return float(grid[i])
    warnings.warn("every trial proposal was rejected; keeping the smallest step size",
                  RuntimeWarning)
    return float(grid[0])


def _pair_distances(white: np.ndarray):
    """Yield the distances of the pairs i < j of rows of ``white``, in blocks.

    The cloud is centred first, which moves no distance, and with
    s = ||w||^2 one product of augmented rows [s, 1, -2w] . [1, s, w]
    gives the squared distances of a strip of ``_DISTANCE_STRIP`` rows
    against every later row.  That sum rounds by up to about
    (d + 2) eps (s_i + s_j + 2 |w_i . w_j|) <= 4 (d + 2) eps max(s), so a
    result below that bound is taken as 0: a duplicate row, as resampling
    leaves them, is at distance 0, and a pair closer than the bound's square
    root is off by at most that.  Each strip yields its diagonal block's pairs, then
    the rectangle of the rows after it.
    """
    n, d = white.shape
    w = white - white.mean(axis=0)
    s = np.einsum("ij,ij->i", w, w)
    one = np.ones_like(s)
    rows, cols = np.column_stack([s, one, -2.0 * w]), np.column_stack([one, s, w])
    cut = 4.0 * (d + 2) * np.finfo(float).eps * float(np.max(s))
    upper = np.triu(np.ones((_DISTANCE_STRIP, _DISTANCE_STRIP), dtype=bool), 1)
    for a in range(0, n - 1, _DISTANCE_STRIP):
        b = min(a + _DISTANCE_STRIP, n)
        D = rows[a:b] @ cols[a:].T
        np.copyto(D, 0.0, where=D < cut)
        np.sqrt(D, out=D)
        yield D[:, :b - a][upper[:b - a, :b - a]]
        yield D[:, b - a:]


def mean_interparticle_distance(theta: np.ndarray, chol: np.ndarray,
                                stat: str = "mean", rng=None) -> float:
    """Mean (or median) pairwise Mahalanobis distance of the cloud.

    Clouds beyond 1500 particles are subsampled (seeded) before the O(n^2)
    pairwise computation.  The distances come a strip at a time from
    ``_pair_distances``; the mean keeps a running sum, and only the median
    gathers all n (n - 1) / 2 of them.
    """
    n = theta.shape[0]
    if n < 2:
        return 0.0
    if n > _DISTANCE_SUBSAMPLE:
        rng = np.random.default_rng(rng)
        theta = theta[rng.choice(n, size=_DISTANCE_SUBSAMPLE, replace=False)]
        n = _DISTANCE_SUBSAMPLE
    white = solve_triangular(chol, theta.T, lower=True).T
    pairs = n * (n - 1) // 2
    if stat == "median":
        dists, k = np.empty(pairs), 0
        for block in _pair_distances(white):
            dists[k:k + block.size] = block.reshape(-1)
            k += block.size
        return float(np.median(dists))
    return sum(float(np.sum(block)) for block in _pair_distances(white)) / pairs


def choose_num_repeats(sweep_fn, threshold_distance: float, threshold_fraction: float,
                       cap: int = 100) -> int:
    """Sweep until the fraction of far-travelled particles clears the threshold.

    ``sweep_fn(k)`` performs sweep k and returns per-particle jump distances;
    cumulative distances are compared against ``threshold_distance``.  Always
    performs at least one sweep; stops with a warning at ``cap``.
    """
    totals = None
    sweeps = 0
    while sweeps < cap:
        dist = np.asarray(sweep_fn(sweeps), dtype=float)
        totals = dist if totals is None else totals + dist
        sweeps += 1
        if float(np.mean(totals > threshold_distance)) >= threshold_fraction:
            return sweeps
    warnings.warn(f"move step hit the {cap}-sweep cap before mixing", RuntimeWarning)
    return sweeps


# --- particle system ----------------------------------------------------------


@dataclass(frozen=True)
class Snapshot:
    """Particle population at one temperature, with split gradients.

    Arrays are frozen copies, as a SampleSet's, so the sample set at any
    temperature is a fixed function of the snapshot.  ``_sample_sets[t]`` is
    the one SampleSet :meth:`sample_set` builds at t and returns from then on:
    its retempered weights, and what a report keeps in its memo (CF weights,
    N floats per kernel and lambda_r), serve every later report while the
    snapshot lives.  ``dataclasses.replace`` starts the cache empty.
    """

    t: float
    theta: np.ndarray
    weights: np.ndarray
    log_like: np.ndarray
    log_prior: np.ndarray
    grad_log_like: np.ndarray
    grad_log_prior: np.ndarray
    log_increment: float = 0.0   # log E_prev[l^dt] recorded when stepping INTO t
    h: float | None = None
    repeats: int = 0
    acceptance: float = float("nan")
    _sample_sets: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("theta", "weights", "log_like", "log_prior",
                     "grad_log_like", "grad_log_prior"):
            object.__setattr__(self, name, _readonly(getattr(self, name)))

    @property
    def count(self) -> int:
        return self.theta.shape[0]

    def grad_log_target(self, t: float | None = None) -> np.ndarray:
        t = self.t if t is None else t
        return t * self.grad_log_like + self.grad_log_prior

    def sample_set(self, t: float | None = None) -> SampleSet:
        """The SampleSet at temperature ``t`` (default: own t), built once.

        Retempering reweights by l^(t - own t) and rebuilds the tempered
        gradient; weights pick up the usual importance correction.  The first
        call at t builds the set, and every later call returns that object.
        """
        t = self.t if t is None else t
        s = self._sample_sets.get(t)
        if s is None:
            w = self.weights
            if t != self.t:
                w, _ = reweight(w, self.log_like, self.t, t)
            s = self._sample_sets[t] = SampleSet(
                theta=self.theta,
                grad_log_target=self.grad_log_target(t),
                weights=w,
                log_like=self.log_like,
                log_prior=self.log_prior,
            )
        return s


def _ladder(temperatures, what: str) -> tuple[float, ...]:
    """``temperatures`` as floats, checked to climb from 0 to 1: at least two
    entries, every one finite, the first 0 and the last 1 within 1e-12, and
    each strictly above the one before; else InvalidSchedule."""
    ts = tuple(float(t) for t in temperatures)
    if (len(ts) < 2 or not all(np.isfinite(ts))
            or abs(ts[0]) > 1e-12 or abs(ts[-1] - 1.0) > 1e-12):
        raise InvalidSchedule(f"{what} temperatures must be finite and run from 0 to 1")
    if not all(b > a for a, b in zip(ts, ts[1:])):
        raise InvalidSchedule(f"{what} temperatures must be strictly increasing")
    return ts


@dataclass(frozen=True)
class TemperatureSchedule:
    """Temperatures 0 = t_0 < ... < t_T = 1 with a population index per entry."""

    temperatures: tuple[float, ...]
    population_index: tuple[int, ...]

    def __post_init__(self):
        ts = _ladder(self.temperatures, "schedule")
        pops = tuple(int(p) for p in self.population_index)
        if len(ts) != len(pops):
            raise InvalidSchedule("one population index per temperature required")
        if any(p < 0 for p in pops):
            raise InvalidSchedule("population indices must be nonnegative")
        object.__setattr__(self, "temperatures", ts)
        object.__setattr__(self, "population_index", pops)

    def __len__(self) -> int:
        return len(self.temperatures)


@dataclass(frozen=True)
class ReplayRecord:
    """Frozen schedule of an adaptive run: temperatures, step sizes, sweep counts.

    Step sizes must be finite and positive reals, sweep counts nonnegative
    integers (bools excluded); anything else raises InvalidSchedule.
    """

    temperatures: tuple[float, ...]
    step_sizes: tuple[float, ...]
    repeats: tuple[int, ...]

    def __post_init__(self):
        ts = _ladder(self.temperatures, "replay record")
        if len(self.step_sizes) != len(ts) - 1 or len(self.repeats) != len(ts) - 1:
            raise InvalidSchedule("need one step size and sweep count per move step")
        for h in self.step_sizes:
            if not (_is_real(h) and 0 < h < np.inf):
                raise InvalidSchedule(f"replay step size {h!r} is not finite and positive")
        for r in self.repeats:
            if not (_is_int(r) and r >= 0):
                raise InvalidSchedule(f"replay sweep count {r!r} is not an integer >= 0")
        object.__setattr__(self, "temperatures", ts)
        object.__setattr__(self, "step_sizes", tuple(float(h) for h in self.step_sizes))
        object.__setattr__(self, "repeats", tuple(int(r) for r in self.repeats))


@dataclass
class ParticleSystem:
    """Snapshots of one SMC run plus its configuration."""

    snapshots: list[Snapshot]
    config: SmcConfig
    model_manifest: dict | None = None

    @property
    def log_evidence(self) -> float:
        return float(sum(s.log_increment for s in self.snapshots))

    @property
    def temperatures(self) -> tuple[float, ...]:
        return tuple(s.t for s in self.snapshots)

    def schedule(self) -> TemperatureSchedule:
        return TemperatureSchedule(
            temperatures=self.temperatures,
            population_index=tuple(range(len(self.snapshots))),
        )

    def replay_record(self) -> ReplayRecord:
        return ReplayRecord(
            temperatures=self.temperatures,
            step_sizes=tuple(s.h for s in self.snapshots[1:]),
            repeats=tuple(s.repeats for s in self.snapshots[1:]),
        )


def _snapshot(t: float, cloud: _Cloud, weights, **fields) -> Snapshot:
    """The population ``cloud`` at temperature ``t``; ``fields`` are the
    step's record (log_increment, h, repeats, acceptance).  A Snapshot keeps
    read-only copies, so the cloud stays free to move."""
    return Snapshot(
        t=t, theta=cloud.theta, weights=weights,
        log_like=cloud.log_like, log_prior=cloud.log_prior,
        grad_log_like=cloud.grad_log_like, grad_log_prior=cloud.grad_log_prior,
        **fields,
    )


def run_smc(model: TargetModel, config: SmcConfig,
            replay: ReplayRecord | None = None) -> ParticleSystem:
    """Run the annealing sampler from prior to posterior.

    Pilot and replay run one step loop.  A replay makes no adaptive choice:
    it takes each temperature, step size and sweep count from the record, and
    neither bisects, tunes nor measures the jump threshold.  Randomness still
    derives from config.seed, so a pilot replayed under its own schedule and
    seed reproduces itself exactly.
    """
    n = config.n_particles
    seed = config.seed
    theta0 = np.asarray(model.sample_prior(n, _rng(seed, 0, 0)), dtype=float)
    if theta0.shape != (n, model.dim):
        raise InvalidInput("sample_prior returned the wrong shape")
    cloud = _evaluate(model, theta0)
    if not np.all(np.isfinite(cloud.log_prior)):
        raise InvalidInput("prior draws with non-finite log prior")

    weights = np.full(n, 1.0 / n)
    snapshots = [_snapshot(0.0, cloud, weights)]
    t = 0.0
    step = 0
    grid = step_size_grid(config.h_min, config.h_max, config.h_grid_size)
    h_index = None   # the climb starts from the previous step's choice

    while t < 1.0:
        step += 1
        if step > _MAX_STEPS:
            raise ConvergenceError("temperature ladder exceeded the step cap", steps=step)
        if replay is None:
            t_next = next_temperature(
                cloud.log_like, weights, t, config.rho * n,
                criterion="ess", tol=config.bisection_tol,
            )
        elif step < len(replay.temperatures):
            t_next = replay.temperatures[step]
        else:
            raise InvalidSchedule("replay record ran out of temperatures")
        weights, log_inc = reweight(weights, cloud.log_like, t, t_next)

        cov, chol = weighted_covariance(cloud.theta, weights)
        if replay is None:   # the jump threshold is measured before the resample
            threshold = mean_interparticle_distance(
                cloud.theta, chol, stat=config.jump_threshold_stat, rng=_rng(seed, step, 4)
            )

        idx = resample_multinomial(weights, _rng(seed, step, 1))
        cloud = cloud.take(idx)
        weights = np.full(n, 1.0 / n)
        acceptance = []

        def sweep(k: int) -> np.ndarray:
            accept_prob, _, distance = _mala_sweep(
                cloud, model, t_next, h, cov, chol, _rng(seed, step, 3, k)
            )
            acceptance.append(float(np.mean(accept_prob)))
            return distance

        if replay is None:
            h = tune_step_size(
                cloud, model, t_next, cov, chol, grid,
                rng_for=lambda hi: _rng(seed, step, 2, hi), start=h_index,
            )
            h_index = int(np.searchsorted(grid, h))
            repeats = choose_num_repeats(
                sweep, threshold, config.jump_fraction, cap=config.max_repeats
            )
        else:
            h, repeats = replay.step_sizes[step - 1], replay.repeats[step - 1]
            for k in range(repeats):
                sweep(k)

        t = t_next
        snapshots.append(_snapshot(
            t, cloud, weights, log_increment=log_inc, h=h, repeats=repeats,
            acceptance=sum(acceptance) / max(len(acceptance), 1),
        ))
    return ParticleSystem(snapshots=snapshots, config=config)


def posthoc_schedule(ps: ParticleSystem, rho_tilde: float | None = None,
                     max_length: int = 100_000) -> TemperatureSchedule:
    """Refine a finished run's schedule to a CESS target without new sampling.

    Starting from t = 0, each next temperature is bisected so the conditional
    ESS of reweighting the serving population hits rho_tilde * N; every
    temperature is served by the latest snapshot at or below it.  Larger
    rho_tilde gives denser schedules (rho_tilde -> 1 refines without bound).
    ``rho_tilde`` (the config's when None) takes the real-number rule.  A
    schedule that needs more than ``max_length`` temperatures after t = 0
    raises InvalidSchedule; ``max_length`` takes the integer rule and is at
    least 1.
    """
    cfg = ps.config
    if rho_tilde is None:
        rho_tilde = cfg.rho_tilde
    elif _is_real(rho_tilde):
        rho_tilde = float(rho_tilde)
    else:
        raise InvalidInput(f"rho_tilde must be a real number, got {rho_tilde!r}")
    if not (0 < rho_tilde < 1):
        raise InvalidInput("rho_tilde must lie in (0, 1)")
    max_length = _as_int(max_length, "max_length")
    if max_length < 1:
        raise InvalidInput("max_length must be >= 1")
    snap_ts = [s.t for s in ps.snapshots]
    n = ps.snapshots[0].count
    target = rho_tilde * n

    def serving(t: float) -> int:
        k = int(np.searchsorted(np.asarray(snap_ts), t + 1e-12) - 1)
        return max(k, 0)

    temps = [0.0]
    pops = [0]
    t = 0.0
    while t < 1.0:
        if len(temps) > max_length:
            raise InvalidSchedule("post-hoc schedule exceeded its length cap",
                                  length=len(temps))
        snap = ps.snapshots[serving(t)]
        t_next = next_temperature(
            snap.log_like, snap.sample_set(t).weights, t, target,
            criterion="cess", tol=cfg.bisection_tol,
        )
        temps.append(t_next)
        pops.append(serving(t_next))
        t = t_next
    return TemperatureSchedule(temperatures=tuple(temps),
                               population_index=tuple(pops))


# --- archives -----------------------------------------------------------------

_SNAPSHOT_FORMATS = ("csv", "npy")


def save_particle_system(ps: ParticleSystem, out_dir, model_manifest: dict | None = None):
    """Write one ``t_NNN.npy`` per temperature plus a JSON schedule manifest.

    Each snapshot is one float64 array whose columns are
    ``sample_csv_header(d, True)``: theta, the tempered gradient, weight,
    log_like and log_prior; values round-trip bit-exactly.  The manifest is
    what makes an archive loadable, so an existing one is removed before any
    snapshot is written, together with every old ``t_NNN.csv``/``t_NNN.npy``,
    and the new one is moved into place last: an interrupted save, also over
    an older archive, never loads.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "manifest.json").unlink(missing_ok=True)
    for old in out.glob("t_*"):             # snapshots of the older archive
        if old.suffix[1:] in _SNAPSHOT_FORMATS and old.stem[2:].isdigit():
            old.unlink()
    for i, snap in enumerate(ps.snapshots):
        _write_snapshot(snap.sample_set(), out / f"t_{i:03d}.npy")
    manifest = {
        "format": "npy",
        "temperatures": list(ps.temperatures),
        "log_increments": [s.log_increment for s in ps.snapshots],
        "step_sizes": [s.h for s in ps.snapshots[1:]],
        "repeats": [s.repeats for s in ps.snapshots[1:]],
        "acceptance": [s.acceptance for s in ps.snapshots[1:]],
        "config": asdict(ps.config),
        "model": model_manifest if model_manifest is not None else ps.model_manifest,
        "n_particles": ps.snapshots[0].count,
    }
    tmp = out / "manifest.json.tmp"
    tmp.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    os.replace(tmp, out / "manifest.json")


@dataclass(frozen=True)
class _Manifest:
    """An archive's ``manifest.json`` as :func:`_read_manifest` checked it."""

    format: str
    n_particles: int
    record: ReplayRecord               # temperatures, step sizes, sweep counts
    log_increments: tuple[float, ...]  # one per temperature
    acceptance: tuple[float, ...]      # one per move
    config: SmcConfig
    model: dict | None


def _read_manifest(archive_dir) -> _Manifest:
    """The manifest of the archive in ``archive_dir``, checked as a whole.

    Every loader and command reads an archive's manifest here.  It must be a
    JSON object with a known snapshot ``format`` (none: a CSV archive from
    before the binary snapshots), a positive integer ``n_particles``, a
    ``config`` object that builds an :class:`SmcConfig` once a legacy
    ``"resampling": "multinomial"`` is dropped, a ``model`` that is an object
    or null, and lists that build a :class:`ReplayRecord` plus one log
    increment per temperature and one acceptance rate per move.  Anything
    else, a missing or unreadable file included, raises InvalidInput.
    """
    path = Path(archive_dir) / "manifest.json"
    try:
        m = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise InvalidInput(f"cannot read archive manifest {path}: {exc}") from exc
    with _manifest_fields(f"archive manifest {path}"):
        if not isinstance(m, dict):
            raise TypeError("not a JSON object")
        fmt, n, model = m.get("format", "csv"), m["n_particles"], m.get("model")
        ts, hs, reps, incs, accs = (m[key] for key in (
            "temperatures", "step_sizes", "repeats", "log_increments", "acceptance"))
        if fmt not in _SNAPSHOT_FORMATS:
            raise ValueError(f"unknown snapshot format {fmt!r}")
        if type(n) is not int or n < 1:
            raise ValueError(f"n_particles {n!r} is not a positive integer")
        if model is not None and not isinstance(model, dict):
            raise TypeError("model is neither an object nor null")
        if not all(isinstance(v, list) for v in (ts, hs, reps, incs, accs)):
            raise TypeError("a per-temperature entry is not a list")
        if len(incs) != len(ts) or len(accs) != len(ts) - 1:
            raise ValueError("need one log increment per temperature and "
                             "one acceptance rate per move")
        config = {**m["config"]}    # a copy; a TypeError unless an object
        if (scheme := config.pop("resampling", "multinomial")) != "multinomial":
            raise ValueError(f"unknown resampling scheme {scheme!r}")   # older archives name it
        return _Manifest(fmt, n, ReplayRecord(ts, hs, reps), tuple(map(float, incs)),
                         tuple(map(float, accs)), SmcConfig(**config), model)


def load_replay_record(archive_dir) -> ReplayRecord:
    return _read_manifest(archive_dir).record


def _write_snapshot(s: SampleSet, path: Path) -> None:
    with path.open("wb") as fh:
        np.save(fh, _sample_columns(s), allow_pickle=False)


def _read_snapshot(out: Path, i: int, fmt: str, n_particles: int) -> SampleSet:
    """Snapshot ``i`` of the archive in ``out``, in the format and with the
    row count its manifest names.  A file that is unreadable, corrupt, of the
    wrong shape or dtype, or of another row count raises InvalidInput."""
    path = out / f"t_{i:03d}.{fmt}"
    try:
        if fmt == "csv":
            data, dim, with_logs = _read_sample_columns(path)
            if not with_logs:
                raise InvalidInput(f"{path} lacks the log_like and log_prior columns")
        else:
            with path.open("rb") as fh:
                data = np.lib.format.read_array(fh, allow_pickle=False)
            width = data.shape[1] if data.ndim == 2 else 0
            if data.dtype != np.float64 or width < 5 or width % 2 == 0:
                raise InvalidInput(f"{path} is not a float64 array of 2d + 3 columns "
                                   f"(dtype {data.dtype}, shape {data.shape})")
            dim = (width - 3) // 2
    except (ValueError, EOFError, OSError) as exc:
        raise InvalidInput(f"cannot read snapshot {path}: {exc}") from exc
    # checked before the SampleSet is built, so zero rows is a bad file too
    if data.shape[0] != n_particles:
        raise InvalidInput(f"{path} has {data.shape[0]} rows, the manifest says {n_particles}")
    return _sample_set_of_columns(data, dim, with_logs=True)


def load_particle_system(archive_dir, model: TargetModel) -> ParticleSystem:
    """Rebuild a ParticleSystem from an archive directory.

    Snapshots store the tempered gradient only, so the likelihood/prior split
    is recomputed from the model's analytic gradients at the stored
    particles.  A manifest or snapshot that fails its check
    (:func:`_read_manifest`, :func:`_read_snapshot`) raises InvalidInput.
    """
    out = Path(archive_dir)
    m = _read_manifest(out)
    rec = m.record
    hs, reps, accs = (None, *rec.step_sizes), (0, *rec.repeats), (float("nan"), *m.acceptance)
    snapshots = []
    for i, t in enumerate(rec.temperatures):
        s = _read_snapshot(out, i, m.format, m.n_particles)
        cloud = _Cloud(s.theta, s.log_like, s.log_prior,
                       model.grad_log_like(s.theta), model.grad_log_prior(s.theta))
        snapshots.append(_snapshot(t, cloud, s.weights, log_increment=m.log_increments[i],
                                   h=hs[i], repeats=reps[i], acceptance=accs[i]))
    return ParticleSystem(snapshots=snapshots, config=m.config, model_manifest=m.model)
