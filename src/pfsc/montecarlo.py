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

Since trial k reads the same draws in every set, one pass serves several
sets that differ only in their admittance noise ``yu`` and in
``n_trials`` (``run_monte_carlo_sets``, which a report uses for all its
levels and trial counts): each trial's stream and perturbed voltages are
built once, each level's stack is assembled and solved once per chunk,
and each set merges its own prefix of the rows.  Every result is bitwise
that of the set run alone (``run_monte_carlo``, the one-set case).
"""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass, field, fields, is_dataclass, replace

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
    runtime_s: float = 0.0  # the set's share of its pass's wall time
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
        # one row, which broadcasts over the chunk and over any prefix of it
        return E[np.newaxis]
    rho = np.abs(E)
    theta = np.angle(E)
    sig_rho = polar.sigma_rho * rho if polar.relative else polar.sigma_rho
    d_rho = n_rho * sig_rho
    d_theta = n_theta * polar.sigma_theta
    return (rho + d_rho) * np.exp(1j * (theta + d_theta))


def _mirror_upper(d):
    """Each (m, m) slice made symmetric from its upper triangle."""
    return np.triu(d) + np.swapaxes(np.triu(d, 1), -1, -2)


def _perturb_elements(Ym, yu: AdmittanceUncertainty, mode, n_re, n_im):
    """Admittance stack of a chunk from its standard-normal draws, (k, m, m) each."""
    d_re = n_re * yu.sigma_re
    d_im = n_im * yu.sigma_im
    if mode == SYMMETRIC_PAIRS:
        d_re, d_im = _mirror_upper(d_re), _mirror_upper(d_im)
    return Ym + d_re + 1j * d_im


def _perturb_branches(network, frac, noise):
    """Admittance stack of a chunk from perturbed series impedances.

    Each row of ``noise`` holds, branch by branch, the real and then the
    imaginary standard-normal draws of the branch's impedance entries.
    """
    z_k = []
    offset = 0
    for br in network.branches:
        z = br.z_ohm
        n_re, n_im = (
            noise[:, offset + i * z.size : offset + (i + 1) * z.size].reshape((-1,) + z.shape)
            for i in (0, 1)
        )
        offset += 2 * z.size
        z_k.append(z + (n_re * frac * np.abs(z) + 1j * (n_im * frac * np.abs(z))))
    return np.stack([
        build_admittance(replace(network, branches=tuple(
            Branch(br.from_bus, br.to_bus, z[j], br.shunt_b_s, br.length_km)
            for br, z in zip(network.branches, z_k)
        ))).matrix
        for j in range(len(noise))
    ])


def _draws(seed, trials, width):
    """Standard-normal draws of the given trials, one row of ``width`` each.

    Each trial's stream fills its row: magnitude and phase noise of the m
    voltages, then the admittance noise, element-wise the real and
    imaginary noise of the m x m matrix, or in branch-parameter mode that
    of each branch impedance (see ``_perturb_branches``).
    """
    draws = np.empty((len(trials), width))
    for j, k in enumerate(trials):
        _trial_rng(seed, k).standard_normal(out=draws[j])
    return draws


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


class _Set:
    """What a pass has gathered for one set: moments, failures, seconds."""

    def __init__(self, cfg: MCConfig):
        self.cfg = cfg
        self.moments = _Moments()
        self.kept = [] if cfg.store_trials else None
        self.failed = 0
        self.seconds = 0.0

    def add(self, x, ok):
        """Merge the set's solutions of a chunk, ``ok`` marking the usable ones."""
        if not ok.all():
            self.failed += int(np.count_nonzero(~ok))
            x = x[ok]
        if len(x):
            self.moments.add(x)
            if self.kept is not None:
                self.kept.extend(x)

    def result(self, clock):
        """The set's MCResult, its own seconds charged to it by ``clock``."""
        if self.moments.count == 0:
            raise ConfigError("all Monte-Carlo trials failed (singular systems)")
        mean, std = self.moments.result()
        trials = None if self.kept is None else np.stack(self.kept, axis=-1)
        clock.charge([(self, 1)])
        return MCResult(
            mean=mean,
            std=std,
            trials=trials,
            runtime_s=self.seconds,
            trials_failed=self.failed,
            n_trials=self.cfg.n_trials,
        )


class _Clock:
    """Charges a pass's wall time to its sets, so that their seconds add
    up to the pass's."""

    def __init__(self):
        self.last = time.perf_counter()

    def charge(self, shares):
        """Split the seconds since the last charge among ``(set, trials)``
        pairs, in proportion to their trials."""
        now = time.perf_counter()
        elapsed, self.last = now - self.last, now
        total = sum(k for _, k in shares)
        for s, k in shares:
            s.seconds += elapsed * k / total


def _readers(sets, start, end):
    """``(set, trials)`` of each set that reads some of trials start..end-1."""
    shares = [(s, min(s.cfg.n_trials, end) - start) for s in sets]
    return [(s, k) for s, k in shares if k > 0]


#: the fields every set of one pass shares
SHARED_FIELDS = ("seed", "polar", "symmetry_mode", "store_trials")


def _agree(a, b):
    """Whether two config values are equal; dataclass fields may be arrays."""
    if is_dataclass(a) and type(a) is type(b):
        return all(_agree(getattr(a, f.name), getattr(b, f.name)) for f in fields(a))
    return bool(np.array_equal(a, b))


def _solve_level(network, Ym, E_k, noise, yu, mode):
    """Solutions of the first ``len(noise)`` trials of a chunk at one
    level's ``yu``, and which of them are usable.

    The level's admittance and H stacks are freed on return.
    """
    rows = len(noise)
    if mode == BRANCH_PARAMETER:
        Y_k = _perturb_branches(network, yu.level_pct / 100.0, noise)
    else:
        m = len(Ym)
        n = noise.reshape(rows, 2, m, m)
        Y_k = _perturb_elements(Ym, yu, mode, n[:, 0], n[:, 1])
    problem = assemble_from_raw(Y_k, E_k[:rows], network)
    return _solve_chunk(problem.H, problem.z)


def run_monte_carlo_sets(
    network: NetworkModel,
    Y: AdmittanceMatrix,
    state: GridState,
    cfgs: list[MCConfig],
) -> list[MCResult]:
    """Results of several Monte-Carlo sets from one pass over their trials.

    The configs agree on ``SHARED_FIELDS`` and may differ in ``yu`` and
    ``n_trials``; any other difference raises ConfigError.  Trial k draws
    from the same stream in every set, so each result equals, bit for bit,
    that of ``run_monte_carlo`` on its config alone: the pass walks the
    trials of the longest set in the same chunks, builds each trial's
    stream and perturbed voltages once, and, per chunk, perturbs, assembles
    and solves the rows of each distinct ``yu`` object once for all the
    sets that share it.  A set's ``runtime_s`` is its share of the pass's
    wall time (see ``_Clock``), and the shares add up to that time.
    """
    if not cfgs:
        return []
    clock = _Clock()
    for cfg in cfgs[1:]:
        for name in SHARED_FIELDS:
            if not _agree(getattr(cfg, name), getattr(cfgs[0], name)):
                raise ConfigError(f"the Monte-Carlo sets of one pass differ in {name}")
    sets = [_Set(cfg) for cfg in cfgs]
    levels = {}  # id(yu) -> the sets that share it
    for s in sets:
        if s.cfg.symmetry_mode == BRANCH_PARAMETER and s.cfg.yu.level_pct is None:
            raise ConfigError("branch-parameter mode needs a relative level_pct")
        levels.setdefault(id(s.cfg.yu), []).append(s)
    cfg = cfgs[0]
    E0 = state.voltages
    m = E0.size
    if cfg.symmetry_mode == BRANCH_PARAMETER:
        width = 2 * m + sum(2 * br.z_ohm.size for br in network.branches)
    else:
        width = 2 * m + 2 * m * m

    size = _chunk_trials(2 * len(network.nonslack_flat_indices()))
    n_max = max(s.cfg.n_trials for s in sets)
    for start in range(0, n_max, size):
        end = min(start + size, n_max)
        draws = _draws(cfg.seed, range(start, end), width)
        E_k = _perturb_voltages(E0, cfg.polar, draws[:, :m], draws[:, m : 2 * m])
        noise = draws[:, 2 * m :]
        clock.charge(_readers(sets, start, end))
        for level in levels.values():
            shares = _readers(level, start, end)
            if not shares:
                continue
            # x lives until the next level's replaces it: freed together
            # with Y_k and H, it let malloc hand the heap top back to the
            # system, and every chunk faulted those pages in again
            rows = max(k for _, k in shares)
            x, ok = _solve_level(network, Y.matrix, E_k, noise[:rows], level[0].cfg.yu,
                                 cfg.symmetry_mode)
            for s, k in shares:
                s.add(x[:k], ok[:k])
            clock.charge(shares)
    return [s.result(clock) for s in sets]


def run_monte_carlo(
    network: NetworkModel,
    Y: AdmittanceMatrix,
    state: GridState,
    cfg: MCConfig,
) -> MCResult:
    """Sample noisy (E, Y) pairs and recompute the coefficients per trial.

    Trials whose solve is singular or not finite are dropped and counted
    in ``trials_failed``.  The one-set case of ``run_monte_carlo_sets``.
    """
    return run_monte_carlo_sets(network, Y, state, [cfg])[0]


@dataclass(frozen=True)
class QQReport:
    """Paired quantiles of a sample against the fitted normal."""

    theoretical: np.ndarray
    empirical: np.ndarray
    correlation: float

    @property
    def looks_normal(self):
        return self.correlation >= 0.999

    def to_csv(self, path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["theoretical_quantile", "sample_quantile"])
            for t, e in zip(self.theoretical, self.empirical):
                writer.writerow([repr(float(t)), repr(float(e))])


def qq_normality_check(samples) -> QQReport:
    """Ordered sample values against normal quantiles (Blom positions).

    The correlation coefficient of the QQ line is the summary statistic;
    values >= 0.999 are treated as consistent with normality.
    """
    samples = np.asarray(samples, dtype=float).ravel()
    n = samples.size
    if n < 20:
        raise ValueError(f"need at least 20 samples, got {n}")
    empirical = np.sort(samples)
    positions = (np.arange(1, n + 1) - 0.375) / (n + 0.25)
    theoretical = stats.norm.ppf(positions)
    corr = float(np.corrcoef(theoretical, empirical)[0, 1])
    return QQReport(theoretical=theoretical, empirical=empirical, correlation=corr)
