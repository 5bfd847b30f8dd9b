"""Monte-Carlo validation of the analytical uncertainty propagation.

Each trial perturbs the voltage phasors in polar coordinates and the
admittance matrix element-wise, reassembles the sensitivity system and
solves it; the empirical per-coefficient std over trials is the oracle
the analytical propagation is compared against.

Trials run in chunks of a fixed size (see ``_chunk_trials``).  Every
trial draws from its own ``SeedSequence((seed, k))`` stream, so a trial's
draws do not depend on the chunking or on ``n_trials``.  Per chunk, the
perturbations are array expressions, one ``assemble_from_raw`` call
builds the stack of H, and one batched ``np.linalg.solve`` solves it.
The mean and std are streamed across chunks (Chan, Golub & LeVeque
1979), so memory is bounded by one chunk whatever ``n_trials`` is;
only ``store_trials`` (the CLI's ``--dump-trials``) keeps every trial.
"""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass, field, replace

import numpy as np
from scipy import stats

from .coefficients import assemble_from_raw
from .errors import ConfigError
from .loadflow import GridState
from .network import AdmittanceMatrix, Branch, NetworkModel, build_admittance
from .uncertainty import AdmittanceUncertainty, PolarNoiseSpec

INDEPENDENT_ELEMENTS = "independent-elements"
SYMMETRIC_PAIRS = "symmetric-pairs"
BRANCH_PARAMETER = "branch-parameter"
_MODES = (INDEPENDENT_ELEMENTS, SYMMETRIC_PAIRS, BRANCH_PARAMETER)

#: a chunk holds at most this many trials ...
CHUNK_TRIALS = 256
#: ... and an H stack of at most this many bytes
CHUNK_BYTES = 4 * 2**20


@dataclass(frozen=True)
class MCConfig:
    n_trials: int
    seed: int
    polar: PolarNoiseSpec
    yu: AdmittanceUncertainty
    symmetry_mode: str = INDEPENDENT_ELEMENTS
    store_trials: bool = False

    def __post_init__(self):
        if self.n_trials < 1:
            raise ConfigError(f"n_trials must be >= 1, got {self.n_trials}")
        if self.symmetry_mode not in _MODES:
            raise ConfigError(
                f"unknown symmetry_mode {self.symmetry_mode!r} "
                f"(choose from {_MODES})"
            )


@dataclass(frozen=True)
class MCResult:
    mean: np.ndarray
    std: np.ndarray
    trials: np.ndarray | None = field(repr=False, default=None)
    runtime_s: float = 0.0
    trials_failed: int = 0
    n_trials: int = 0


def _trial_rng(seed, k):
    """Per-trial substream: independent generator keyed by (seed, trial).

    Serial and parallel execution orders therefore produce identical
    draws for any given trial index.
    """
    return np.random.default_rng(np.random.SeedSequence((seed, k)))


def _chunk_trials(dim):
    """Trials per chunk for a dim x dim H."""
    return max(1, min(CHUNK_TRIALS, CHUNK_BYTES // (8 * dim * dim)))


def _perturb_voltages(E, polar: PolarNoiseSpec, n_rho, n_theta):
    """Voltages of a chunk from its standard-normal draws, (k, m) each."""
    if polar.sigma_rho == 0.0 and polar.sigma_theta == 0.0:
        # skip the polar round trip so exact zero noise returns E bitwise;
        # it broadcasts over the chunk
        return E
    rho = np.abs(E)
    theta = np.angle(E)
    sig_rho = polar.sigma_rho * rho if polar.relative else polar.sigma_rho
    d_rho = n_rho * sig_rho
    d_theta = n_theta * polar.sigma_theta
    return (rho + d_rho) * np.exp(1j * (theta + d_theta))


def _mirror_upper(d):
    """Each (m, m) slice made symmetric from its upper triangle."""
    return np.triu(d) + np.swapaxes(np.triu(d, 1), -1, -2)


def _perturb_elements(Ym, cfg: MCConfig, n_re, n_im):
    """Admittance stack of a chunk from its standard-normal draws, (k, m, m) each."""
    d_re = n_re * cfg.yu.sigma_re
    d_im = n_im * cfg.yu.sigma_im
    if cfg.symmetry_mode == SYMMETRIC_PAIRS:
        d_re, d_im = _mirror_upper(d_re), _mirror_upper(d_im)
    return Ym + d_re + 1j * d_im


def _perturb_branches(network, frac, rng):
    """One trial's admittance from perturbed series impedances."""
    perturbed = []
    for br in network.branches:
        z = br.z_ohm
        dz = rng.normal(0.0, 1.0, z.shape) * frac * np.abs(z) + 1j * (
            rng.normal(0.0, 1.0, z.shape) * frac * np.abs(z)
        )
        perturbed.append(
            Branch(br.from_bus, br.to_bus, z + dz, br.shunt_b_s, br.length_km)
        )
    return build_admittance(replace(network, branches=tuple(perturbed))).matrix


def _perturb_chunk(network, Y, E0, cfg: MCConfig, trials):
    """Perturbed (Y, E) stacks of the given trial indices.

    Each trial's stream first fills its row of standard-normal draws:
    magnitude and phase noise of the m voltages, then, element-wise, the
    real and imaginary noise of the m x m admittance.  In branch-parameter
    mode the same stream then draws the branch impedance noise.
    """
    m = E0.size
    branch_wise = cfg.symmetry_mode == BRANCH_PARAMETER
    draws = np.empty((len(trials), 2 * m if branch_wise else 2 * m + 2 * m * m))
    branch_Y = []
    for j, k in enumerate(trials):
        rng = _trial_rng(cfg.seed, k)
        rng.standard_normal(out=draws[j])
        if branch_wise:
            branch_Y.append(_perturb_branches(network, cfg.yu.level_pct / 100.0, rng))
    E_k = _perturb_voltages(E0, cfg.polar, draws[:, :m], draws[:, m : 2 * m])
    if branch_wise:
        return np.stack(branch_Y), E_k
    noise = draws[:, 2 * m :].reshape(len(trials), 2, m, m)
    return _perturb_elements(Y.matrix, cfg, noise[:, 0], noise[:, 1]), E_k


def _solve_chunk(H, z):
    """Solutions of a stack of H x = z, and which of them are usable."""
    try:
        x = np.linalg.solve(H, z)
    except np.linalg.LinAlgError:
        # one singular trial fails the batched call: solve this chunk
        # trial by trial, leaving NaN where a trial is singular
        x = np.full(H.shape[:-1] + z.shape[-1:], np.nan)
        for j, H_j in enumerate(H):
            try:
                x[j] = np.linalg.solve(H_j, z)
            except np.linalg.LinAlgError:
                pass
    return x, np.isfinite(x).all(axis=(-2, -1))


class _Moments:
    """Mean and std streamed over stacks of trials.

    Values are shifted by the first trial seen, so a constant sample
    gives a std of exactly 0; chunks merge by the pairwise update of
    Chan, Golub & LeVeque (1979).
    """

    def __init__(self):
        self.count = 0

    def add(self, x):
        """Merge a (k, ...) stack of trials."""
        if self.count == 0:
            self.anchor = x[0].copy()
            self.mean = np.zeros_like(self.anchor)
            self.m2 = np.zeros_like(self.anchor)
        d = x - self.anchor
        k = len(d)
        n = self.count + k
        chunk_mean = d.mean(axis=0)
        d -= chunk_mean
        chunk_m2 = np.square(d, out=d).sum(axis=0)
        delta = chunk_mean - self.mean
        self.mean += delta * (k / n)
        self.m2 += chunk_m2 + delta**2 * (self.count * k / n)
        self.count = n

    def result(self):
        """(mean, std); the std of a single trial is 0."""
        mean = self.anchor + self.mean
        if self.count < 2:
            return mean, np.zeros_like(mean)
        return mean, np.sqrt(self.m2 / (self.count - 1))


def run_monte_carlo(
    network: NetworkModel,
    Y: AdmittanceMatrix,
    state: GridState,
    cfg: MCConfig,
) -> MCResult:
    """Sample noisy (E, Y) pairs and recompute the coefficients per trial.

    Trials whose solve is singular or not finite are dropped and counted
    in ``trials_failed``.
    """
    if not state.converged:
        raise ValueError("nominal operating point is not converged")
    if cfg.symmetry_mode == BRANCH_PARAMETER and cfg.yu.level_pct is None:
        raise ConfigError("branch-parameter mode needs a relative level_pct")
    E0 = state.voltages
    t0 = time.perf_counter()

    dim = 2 * (network.n_nodes - len(network.slack_flat_indices()))
    size = _chunk_trials(dim)
    moments = _Moments()
    kept = []
    failed = 0
    for start in range(0, cfg.n_trials, size):
        trials = range(start, min(start + size, cfg.n_trials))
        Y_k, E_k = _perturb_chunk(network, Y, E0, cfg, trials)
        problem = assemble_from_raw(Y_k, E_k, network)
        x, ok = _solve_chunk(problem.H, problem.z)
        if not ok.all():
            failed += int(np.count_nonzero(~ok))
            x = x[ok]
        if len(x):
            moments.add(x)
            if cfg.store_trials:
                kept.extend(x)

    if moments.count == 0:
        raise ConfigError("all Monte-Carlo trials failed (singular systems)")
    mean, std = moments.result()
    return MCResult(
        mean=mean,
        std=std,
        trials=np.stack(kept, axis=-1) if cfg.store_trials else None,
        runtime_s=time.perf_counter() - t0,
        trials_failed=failed,
        n_trials=cfg.n_trials,
    )


def estimate_stats(trials: np.ndarray):
    """Unbiased mean/std over the last axis of a trial store.

    Returns (mean, std); covariance between two flattened coefficient
    indices is available via trial_covariance.
    """
    trials = np.asarray(trials)
    if trials.shape[-1] < 2:
        raise ValueError("need at least 2 trials for std estimation")
    # anchor on the first trial so a constant sample gives std exactly 0
    anchor = trials[..., :1]
    shifted = trials - anchor
    mean = anchor[..., 0] + shifted.mean(axis=-1)
    return mean, shifted.std(axis=-1, ddof=1)


def trial_covariance(trials: np.ndarray, idx_a, idx_b):
    """Sample covariance between two coefficients of a trial store."""
    a = trials[idx_a]
    b = trials[idx_b]
    return float(np.cov(a, b, ddof=1)[0, 1])


@dataclass(frozen=True)
class QQReport:
    """Paired quantiles of a sample against the fitted normal."""

    theoretical: np.ndarray
    empirical: np.ndarray
    correlation: float
    threshold: float = 0.999

    @property
    def looks_normal(self):
        return self.correlation >= self.threshold

    def to_csv(self, path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["theoretical_quantile", "sample_quantile"])
            for t, e in zip(self.theoretical, self.empirical):
                writer.writerow([repr(float(t)), repr(float(e))])


def qq_normality_check(samples, threshold=0.999) -> QQReport:
    """Ordered sample values against normal quantiles (Blom positions).

    The correlation coefficient of the QQ line is the summary statistic;
    values >= threshold are treated as consistent with normality.
    """
    samples = np.asarray(samples, dtype=float).ravel()
    n = samples.size
    if n < 20:
        raise ValueError(f"need at least 20 samples, got {n}")
    empirical = np.sort(samples)
    positions = (np.arange(1, n + 1) - 0.375) / (n + 0.25)
    theoretical = stats.norm.ppf(positions)
    corr = float(np.corrcoef(theoretical, empirical)[0, 1])
    return QQReport(
        theoretical=theoretical,
        empirical=empirical,
        correlation=corr,
        threshold=threshold,
    )
