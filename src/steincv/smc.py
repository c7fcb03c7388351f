"""Adaptive likelihood-annealing SMC with MALA moves.

The sampler walks a particle cloud from the prior (t = 0) to the posterior
(t = 1) along tempered targets p_t propto prior * likelihood^t:

* the next inverse temperature is chosen by bisection so the effective sample
  size (or conditional ESS) of the reweighted cloud hits a target fraction;
* particles are multinomially resampled every step;
* moves are Metropolis-adjusted Langevin steps preconditioned by the weighted
  particle covariance, with the step size picked from a log-spaced grid by
  maximising the median expected squared jumping distance, and the number of
  sweeps chosen so that a configured fraction of particles has travelled
  further than the mean inter-particle Mahalanobis distance.

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
from scipy.spatial.distance import pdist
from scipy.special import logsumexp

from .errors import (
    ConditioningError,
    ConvergenceError,
    DegenerateWeights,
    InvalidInput,
    InvalidSchedule,
)
from .models import TargetModel, _manifest_fields
from .samples import (
    SampleSet, _read_sample_columns, _readonly, _sample_columns, _sample_set_of_columns,
)
from .samples import read_sample_csv  # noqa: F401  (perfbench/tracing.py wraps this name)
from .samples import write_sample_csv  # noqa: F401  (perfbench/tracing.py wraps this name)

_MIN_TEMPERATURE_STEP = 1e-8
_BISECTION_ITERS = 50
_MAX_STEPS = 10_000
_DISTANCE_SUBSAMPLE = 1500


@dataclass(frozen=True)
class SmcConfig:
    """Sampler tuning knobs.

    ``rho`` targets ESS = rho * N when picking the next temperature;
    ``rho_tilde`` is the CESS fraction used by post-hoc schedules.  Step sizes
    are tuned over ``h_grid_size`` log-spaced values in [h_min, h_max].  Move
    sweeps repeat until ``jump_fraction`` of the particles exceed the
    pre-resampling mean (or median) inter-particle Mahalanobis distance, with
    a hard cap of ``max_repeats``.
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
    resampling: str = "multinomial"
    seed: int = 0
    bisection_tol: float = 1e-3   # |criterion - target| <= tol * N

    def __post_init__(self):
        if self.n_particles < 2:
            raise InvalidInput("need at least two particles")
        if not (0 < self.rho < 1) or not (0 < self.rho_tilde < 1):
            raise InvalidInput("rho and rho_tilde must lie strictly inside (0, 1)")
        if not (0 < self.h_min < self.h_max):
            raise InvalidInput("need 0 < h_min < h_max")
        if self.h_grid_size < 1:
            raise InvalidInput("step-size grid must be nonempty")
        if not (0 <= self.jump_fraction <= 1):
            raise InvalidInput("jump_fraction must lie in [0, 1]")
        if self.jump_threshold_stat not in ("mean", "median"):
            raise InvalidInput("jump_threshold_stat must be 'mean' or 'median'")
        if self.max_repeats < 1:
            raise InvalidInput("max_repeats must be >= 1")
        if self.resampling != "multinomial":
            raise InvalidInput(f"unknown resampling scheme {self.resampling!r}")


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


def _log_ess(log_w_un: np.ndarray) -> float:
    total = logsumexp(log_w_un)
    if not np.isfinite(total):
        return 0.0
    return float(np.exp(2.0 * total - logsumexp(2.0 * log_w_un)))


def _log_cess(log_w: np.ndarray, log_r: np.ndarray) -> float:
    num = logsumexp(log_w + log_r)
    if not np.isfinite(num):
        return 0.0
    den = logsumexp(log_w + 2.0 * log_r)
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
    log_inc = float(logsumexp(log_un))
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


def mala_log_ratio(theta_a, theta_b, logp_a, logp_b, grad_a, grad_b, h, cov, chol):
    """log of the Metropolis-Hastings ratio for a preconditioned MALA move a -> b."""
    half = 0.5 * h * h
    mu_fwd = theta_a + half * (grad_a @ cov)
    mu_rev = theta_b + half * (grad_b @ cov)
    za = solve_triangular(chol, (theta_b - mu_fwd).T, lower=True).T / h
    zb = solve_triangular(chol, (theta_a - mu_rev).T, lower=True).T / h
    return (
        logp_b - logp_a
        - 0.5 * np.sum(zb * zb, axis=-1)
        + 0.5 * np.sum(za * za, axis=-1)
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
    if size == 1:
        return np.array([h_min])
    return np.geomspace(h_min, h_max, size)


def tune_step_size(cloud: _Cloud, model: TargetModel, t: float, cov, chol,
                   grid, rng_for) -> float:
    """Pick the grid step size maximising the median expected squared jump.

    Each candidate is trialled with one seeded throwaway sweep from the same
    starting cloud; the per-particle score is acceptance probability times
    squared Mahalanobis jump.  Ties go to the larger h; if every median is
    zero (all proposals rejected) the smallest h is returned with a warning.
    """
    grid = np.asarray(grid, dtype=float)
    medians = np.empty(grid.size)
    for hi, h in enumerate(grid):
        trial = cloud.take(slice(None))
        accept_prob, sq_jump, _ = _mala_sweep(trial, model, t, h, cov, chol, rng_for(hi))
        medians[hi] = float(np.median(accept_prob * sq_jump))
    best = float(np.max(medians))
    if best <= 0.0:
        warnings.warn("every trial proposal was rejected; keeping the smallest step size",
                      RuntimeWarning)
        return float(grid[0])
    for hi in range(grid.size - 1, -1, -1):
        if medians[hi] == best:
            return float(grid[hi])
    return float(grid[0])


def mean_interparticle_distance(theta: np.ndarray, chol: np.ndarray,
                                stat: str = "mean", rng=None) -> float:
    """Mean (or median) pairwise Mahalanobis distance of the cloud.

    Clouds beyond 1500 particles are subsampled (seeded) before the O(n^2)
    pairwise computation.
    """
    n = theta.shape[0]
    if n < 2:
        return 0.0
    if n > _DISTANCE_SUBSAMPLE:
        rng = np.random.default_rng(rng)
        theta = theta[rng.choice(n, size=_DISTANCE_SUBSAMPLE, replace=False)]
    white = solve_triangular(chol, theta.T, lower=True).T
    dists = pdist(white)
    return float(np.median(dists) if stat == "median" else np.mean(dists))


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

    Arrays are frozen after construction, as a SampleSet's, so the sample set
    at any temperature is a fixed function of the snapshot.  That lets the
    evidence reports keep the CF weights of each retempered sample set here,
    keyed by temperature and then (KernelSpec, lam_r): N floats per entry,
    living as long as the snapshot.
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
    _cf_weights: dict = field(default_factory=dict, init=False, repr=False, compare=False)

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
        """Materialise a SampleSet at temperature ``t`` (default: own t).

        Retempering reweights by l^(t - own t) and rebuilds the tempered
        gradient; weights pick up the usual importance correction.
        """
        t = self.t if t is None else t
        if t == self.t:
            w = self.weights
        else:
            w, _ = reweight(self.weights, self.log_like, self.t, t)
        return SampleSet(
            theta=self.theta,
            grad_log_target=self.grad_log_target(t),
            weights=w,
            log_like=self.log_like,
            log_prior=self.log_prior,
        )


@dataclass(frozen=True)
class TemperatureSchedule:
    """Temperatures 0 = t_0 < ... < t_T = 1 with a population index per entry."""

    temperatures: tuple[float, ...]
    population_index: tuple[int, ...]

    def __post_init__(self):
        ts = tuple(float(t) for t in self.temperatures)
        pops = tuple(int(p) for p in self.population_index)
        if len(ts) < 2:
            raise InvalidSchedule("schedule needs at least two temperatures")
        if len(ts) != len(pops):
            raise InvalidSchedule("one population index per temperature required")
        if abs(ts[0]) > 1e-12 or abs(ts[-1] - 1.0) > 1e-12:
            raise InvalidSchedule("schedule must start at 0 and end at 1")
        if any(b <= a for a, b in zip(ts, ts[1:])):
            raise InvalidSchedule("temperatures must be strictly increasing")
        if any(p < 0 for p in pops):
            raise InvalidSchedule("population indices must be nonnegative")
        object.__setattr__(self, "temperatures", ts)
        object.__setattr__(self, "population_index", pops)

    def __len__(self) -> int:
        return len(self.temperatures)


@dataclass(frozen=True)
class ReplayRecord:
    """Frozen schedule of an adaptive run: temperatures, step sizes, sweep counts."""

    temperatures: tuple[float, ...]
    step_sizes: tuple[float, ...]
    repeats: tuple[int, ...]
    resampling: str = "multinomial"

    def __post_init__(self):
        ts = tuple(float(t) for t in self.temperatures)
        if len(ts) < 2 or abs(ts[0]) > 1e-12 or abs(ts[-1] - 1.0) > 1e-12:
            raise InvalidSchedule("replay temperatures must run from 0 to 1")
        if any(b <= a for a, b in zip(ts, ts[1:])):
            raise InvalidSchedule("replay temperatures must be strictly increasing")
        if len(self.step_sizes) != len(ts) - 1 or len(self.repeats) != len(ts) - 1:
            raise InvalidSchedule("need one step size and sweep count per move step")
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
            resampling=self.config.resampling,
        )


def run_smc(model: TargetModel, config: SmcConfig,
            replay: ReplayRecord | None = None) -> ParticleSystem:
    """Run the annealing sampler from prior to posterior.

    With ``replay`` the temperatures, step sizes and sweep counts are taken
    from the record (no adaptation); randomness still derives from
    config.seed, so a pilot replayed under its own schedule and seed
    reproduces itself exactly.
    """
    n = config.n_particles
    seed = config.seed
    theta0 = np.asarray(model.sample_prior(n, _rng(seed, 0, 0)), dtype=float)
    if theta0.shape != (n, model.dim):
        raise InvalidInput("sample_prior returned the wrong shape")
    cloud = _evaluate(model, theta0)
    if not np.all(np.isfinite(cloud.log_prior)):
        raise InvalidInput("prior draws with non-finite log prior")

    snapshots = [
        Snapshot(
            t=0.0,
            theta=cloud.theta.copy(),
            weights=np.full(n, 1.0 / n),
            log_like=cloud.log_like.copy(),
            log_prior=cloud.log_prior.copy(),
            grad_log_like=cloud.grad_log_like.copy(),
            grad_log_prior=cloud.grad_log_prior.copy(),
        )
    ]
    weights = np.full(n, 1.0 / n)
    t = 0.0
    step = 0
    grid = step_size_grid(config.h_min, config.h_max, config.h_grid_size)

    while t < 1.0:
        step += 1
        if step > _MAX_STEPS:
            raise ConvergenceError("temperature ladder exceeded the step cap", steps=step)
        if replay is not None:
            if step >= len(replay.temperatures):
                raise InvalidSchedule("replay record ran out of temperatures")
            t_next = replay.temperatures[step]
        else:
            t_next = next_temperature(
                cloud.log_like, weights, t, config.rho * n,
                criterion="ess", tol=config.bisection_tol,
            )
        weights, log_inc = reweight(weights, cloud.log_like, t, t_next)

        cov, chol = weighted_covariance(cloud.theta, weights)
        threshold = mean_interparticle_distance(
            cloud.theta, chol, stat=config.jump_threshold_stat, rng=_rng(seed, step, 4)
        )

        idx = resample_multinomial(weights, _rng(seed, step, 1))
        cloud = cloud.take(idx)
        weights = np.full(n, 1.0 / n)

        if replay is not None:
            h = replay.step_sizes[step - 1]
        else:
            h = tune_step_size(
                cloud, model, t_next, cov, chol, grid,
                rng_for=lambda hi: _rng(seed, step, 2, hi),
            )

        acc_total = 0.0
        sweep_count = 0

        def sweep(k: int) -> np.ndarray:
            nonlocal acc_total, sweep_count
            accept_prob, _, distance = _mala_sweep(
                cloud, model, t_next, h, cov, chol, _rng(seed, step, 3, k)
            )
            acc_total += float(np.mean(accept_prob))
            sweep_count += 1
            return distance

        if replay is not None:
            for k in range(replay.repeats[step - 1]):
                sweep(k)
            repeats = replay.repeats[step - 1]
        else:
            repeats = choose_num_repeats(
                sweep, threshold, config.jump_fraction, cap=config.max_repeats
            )

        t = t_next
        snapshots.append(
            Snapshot(
                t=t,
                theta=cloud.theta.copy(),
                weights=weights.copy(),
                log_like=cloud.log_like.copy(),
                log_prior=cloud.log_prior.copy(),
                grad_log_like=cloud.grad_log_like.copy(),
                grad_log_prior=cloud.grad_log_prior.copy(),
                log_increment=log_inc,
                h=float(h),
                repeats=repeats,
                acceptance=acc_total / max(sweep_count, 1),
            )
        )
    return ParticleSystem(snapshots=snapshots, config=config)


def posthoc_schedule(ps: ParticleSystem, rho_tilde: float | None = None,
                     max_length: int = 100_000) -> TemperatureSchedule:
    """Refine a finished run's schedule to a CESS target without new sampling.

    Starting from t = 0, each next temperature is bisected so the conditional
    ESS of reweighting the serving population hits rho_tilde * N; every
    temperature is served by the latest snapshot at or below it.  Larger
    rho_tilde gives denser schedules (rho_tilde -> 1 refines without bound).
    """
    cfg = ps.config
    rho_tilde = cfg.rho_tilde if rho_tilde is None else float(rho_tilde)
    if not (0 < rho_tilde < 1):
        raise InvalidInput("rho_tilde must lie in (0, 1)")
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
        k = serving(t)
        snap = ps.snapshots[k]
        if t == snap.t:
            w = snap.weights
        else:
            w, _ = reweight(snap.weights, snap.log_like, snap.t, t)
        t_next = next_temperature(
            snap.log_like, w, t, target, criterion="cess", tol=cfg.bisection_tol
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


def load_replay_record(archive_dir) -> ReplayRecord:
    manifest = _load_manifest(archive_dir)
    with _manifest_fields(f"archive manifest {Path(archive_dir) / 'manifest.json'}"):
        return ReplayRecord(
            temperatures=tuple(manifest["temperatures"]),
            step_sizes=tuple(manifest["step_sizes"]),
            repeats=tuple(manifest["repeats"]),
            resampling=manifest.get("config", {}).get("resampling", "multinomial"),
        )


def _load_manifest(archive_dir) -> dict:
    path = Path(archive_dir) / "manifest.json"
    try:
        return json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise InvalidInput(f"cannot read archive manifest {path}: {exc}") from exc


def _write_snapshot(s: SampleSet, path: Path) -> None:
    with path.open("wb") as fh:
        np.save(fh, _sample_columns(s), allow_pickle=False)


def _read_snapshot(out: Path, i: int, manifest: dict) -> SampleSet:
    """Snapshot ``i`` of the archive in ``out``, checked against its manifest.

    A manifest without ``"format"`` predates the binary snapshots and
    describes a CSV archive.  Any file that is unreadable, corrupt, of the
    wrong shape or dtype, or whose row count differs from ``n_particles``
    raises InvalidInput.
    """
    with _manifest_fields(f"archive manifest {out / 'manifest.json'}"):
        fmt = manifest.get("format", "csv")
        n_particles = int(manifest["n_particles"])
    if fmt not in _SNAPSHOT_FORMATS:
        raise InvalidInput(f"archive {out} has unknown snapshot format {fmt!r}")
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

    Reads the ``t_NNN.npy`` snapshots that :func:`save_particle_system`
    writes, and the ``t_NNN.csv`` ones of archives whose manifest has no
    ``"format"`` entry (written before the binary format).  Snapshots store
    the tempered gradient only, so the likelihood/prior split is recomputed
    from the model's analytic gradients at the stored particles.  A snapshot
    that is truncated, corrupt, of the wrong dtype or shape, or whose row
    count differs from the manifest's ``n_particles`` is rejected, and so is a
    manifest with a missing entry, a bad value, an unknown format or
    per-temperature lists of unequal length.
    """
    out = Path(archive_dir)
    manifest = _load_manifest(out)
    with _manifest_fields(f"archive manifest {out / 'manifest.json'}"):
        temps = [float(v) for v in manifest["temperatures"]]
        incs = [float(v) for v in manifest["log_increments"]]
        hs = [None] + list(manifest["step_sizes"])
        reps = [0] + [int(r) for r in manifest["repeats"]]
        accs = [float("nan")] + [float(a) for a in manifest["acceptance"]]
        cfg = SmcConfig(**manifest["config"])
        model_manifest = manifest.get("model")
    if not len(temps) == len(incs) == len(hs) == len(reps) == len(accs):
        raise InvalidInput(f"manifest in {out} has per-temperature lists of unequal length")
    snapshots = []
    for i, t in enumerate(temps):
        s = _read_snapshot(out, i, manifest)
        gll = model.grad_log_like(s.theta)
        glp = model.grad_log_prior(s.theta)
        snapshots.append(
            Snapshot(
                t=t, theta=s.theta, weights=s.weights,
                log_like=s.log_like, log_prior=s.log_prior,
                grad_log_like=gll, grad_log_prior=glp,
                log_increment=incs[i],
                h=hs[i], repeats=reps[i], acceptance=accs[i],
            )
        )
    return ParticleSystem(snapshots=snapshots, config=cfg, model_manifest=model_manifest)
