"""Monte-Carlo validation of the analytical uncertainty propagation.

Each trial perturbs the voltage phasors in polar coordinates and the
admittance matrix element-wise, reassembles the sensitivity system and
solves it; the empirical per-coefficient std over trials is the oracle
the analytical propagation is compared against.
"""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass, field

import numpy as np
from scipy import stats

from .coefficients import assemble_from_raw
from .errors import ConfigError
from .loadflow import GridState
from .network import AdmittanceMatrix, NetworkModel, build_admittance
from .uncertainty import AdmittanceUncertainty, PolarNoiseSpec

INDEPENDENT_ELEMENTS = "independent-elements"
SYMMETRIC_PAIRS = "symmetric-pairs"
BRANCH_PARAMETER = "branch-parameter"
_MODES = (INDEPENDENT_ELEMENTS, SYMMETRIC_PAIRS, BRANCH_PARAMETER)


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


def _perturb_voltages(E, polar: PolarNoiseSpec, rng):
    if polar.sigma_rho == 0.0 and polar.sigma_theta == 0.0:
        # skip the polar round trip so exact zero noise returns E bitwise
        rng.normal(0.0, 1.0, 2 * E.size)  # keep the stream position aligned
        return E.copy()
    rho = np.abs(E)
    theta = np.angle(E)
    sig_rho = polar.sigma_rho * rho if polar.relative else polar.sigma_rho
    d_rho = rng.normal(0.0, 1.0, E.size) * sig_rho
    d_theta = rng.normal(0.0, 1.0, E.size) * polar.sigma_theta
    return (rho + d_rho) * np.exp(1j * (theta + d_theta))


def _perturb_admittance(network, Y, cfg: MCConfig, rng):
    Ym = Y.matrix
    m = Ym.shape[0]
    if cfg.symmetry_mode == INDEPENDENT_ELEMENTS:
        d_re = rng.normal(0.0, 1.0, (m, m)) * cfg.yu.sigma_re
        d_im = rng.normal(0.0, 1.0, (m, m)) * cfg.yu.sigma_im
        return Ym + d_re + 1j * d_im
    if cfg.symmetry_mode == SYMMETRIC_PAIRS:
        d_re = rng.normal(0.0, 1.0, (m, m)) * cfg.yu.sigma_re
        d_im = rng.normal(0.0, 1.0, (m, m)) * cfg.yu.sigma_im
        upper = np.triu_indices(m)
        for d in (d_re, d_im):
            full = np.zeros_like(d)
            full[upper] = d[upper]
            d[:] = full + np.triu(full, 1).T
        return Ym + d_re + 1j * d_im
    # branch-parameter: perturb series impedances and rebuild
    if cfg.yu.level_pct is None:
        raise ConfigError("branch-parameter mode needs a relative level_pct")
    frac = cfg.yu.level_pct / 100.0
    perturbed = []
    for br in network.branches:
        z = br.z_ohm
        dz = rng.normal(0.0, 1.0, z.shape) * frac * np.abs(z) + 1j * (
            rng.normal(0.0, 1.0, z.shape) * frac * np.abs(z)
        )
        from .network import Branch

        perturbed.append(
            Branch(br.from_bus, br.to_bus, z + dz, br.shunt_b_s, br.length_km)
        )
    from dataclasses import replace

    return build_admittance(replace(network, branches=tuple(perturbed))).matrix


def run_monte_carlo(
    network: NetworkModel,
    Y: AdmittanceMatrix,
    state: GridState,
    cfg: MCConfig,
) -> MCResult:
    """Sample noisy (E, Y) pairs and recompute the coefficients per trial."""
    if not state.converged:
        raise ValueError("nominal operating point is not converged")
    E0 = state.voltages
    t0 = time.perf_counter()

    samples = []
    failed = 0
    z = None  # the same right-hand side for every trial
    for k in range(cfg.n_trials):
        rng = _trial_rng(cfg.seed, k)
        E_k = _perturb_voltages(E0, cfg.polar, rng)
        Y_k = _perturb_admittance(network, Y, cfg, rng)
        problem = assemble_from_raw(Y_k, E_k, network)
        if z is None:
            z = problem.z
        try:
            x = np.linalg.solve(problem.H, z)
        except np.linalg.LinAlgError:
            failed += 1
            continue
        if not np.all(np.isfinite(x)):
            failed += 1
            continue
        samples.append(x)

    if not samples:
        raise ConfigError("all Monte-Carlo trials failed (singular systems)")
    trials = np.stack(samples, axis=-1)
    if trials.shape[-1] > 1:
        mean, std = estimate_stats(trials)
    else:
        mean = trials[..., 0]
        std = np.zeros_like(mean)
    return MCResult(
        mean=mean,
        std=std,
        trials=trials if cfg.store_trials else None,
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
