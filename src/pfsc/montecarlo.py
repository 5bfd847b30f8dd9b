"""Monte-Carlo validation of the analytical uncertainty propagation.

Each trial perturbs the voltage phasors in polar coordinates and the
admittance, reassembles the sensitivity system and solves it; the
empirical per-coefficient std over trials is the oracle the analytical
propagation is compared against.  The admittance noise follows one of
two models (``MCConfig.symmetry_mode``): ``independent-elements``, the
model of the analytical propagation, draws every real and imaginary
part of the matrix on its own; ``branch-parameter`` perturbs each
branch's series impedance and stamps the matrix from it with the
package's one stamp, ``network.stamp_admittance``, whose values on Y's
pattern ``network.dense`` scatters into the chunk's stack.  A set's
admittance noise must be made for the network's node count.

Trials run in chunks of a fixed size (see ``_chunk_trials``).  Every
trial draws from its own ``SeedSequence((seed, k))`` stream, so a trial's
draws do not depend on the chunking or on ``n_trials``.  Per chunk, the
perturbations are array expressions, one ``assemble_from_raw`` call
builds the stack of H (the batched dense ``loadflow.jacobian``) and the
z it shares, and one batched ``np.linalg.solve`` solves it.

The streams are NumPy's own (NEP 19), built for a whole chunk at once.
``SeedSequence`` hashes its entropy, the 32-bit words of ``seed`` and
then those of ``k``, into a pool of four words, and ``PCG64`` seeds from
four 64-bit words that the pool generates; ``_stream_states`` runs that
hash as uint32 array arithmetic over the chunk's trials and turns the
words into each stream's PCG64 ``state`` and ``inc``.  ``_draws`` then
sets them on one reused generator before each trial's draws, which are
bitwise those of ``default_rng(SeedSequence((seed, k)))``.
The mean and std are streamed across chunks (Chan, Golub & LeVeque
1979), so memory is bounded by one chunk whatever ``n_trials`` is;
only ``store_trials`` (the CLI's ``--dump-trials``) keeps every trial.

Since trial k reads the same draws in every set, one pass serves several
sets that differ only in their admittance noise ``yu`` and in
``n_trials`` (``run_monte_carlo_sets``, which a report uses for all its
levels and trial counts): each trial's stream and perturbed voltages are
built once, each level's stack is assembled and solved once per chunk,
and each set merges its own prefix of the rows.  Every result is bitwise
that of the set run alone (``run_monte_carlo``, the one-set case).  The
pass reads the clock at its start and at its end, and each set's
``runtime_s`` is that time split in proportion to the sets' trials.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .coefficients import assemble_from_raw, check_nonempty
from .errors import ConfigError
from .loadflow import GridState
from .network import AdmittanceMatrix, NetworkModel, dense, stamp_admittance
from .uncertainty import AdmittanceUncertainty, PolarNoiseSpec

INDEPENDENT_ELEMENTS = "independent-elements"
BRANCH_PARAMETER = "branch-parameter"
_MODES = (INDEPENDENT_ELEMENTS, BRANCH_PARAMETER)

#: a chunk holds at most this many trials ...
CHUNK_TRIALS = 256
#: ... and an H stack of at most this many bytes
CHUNK_BYTES = 4 * 2**20


def check_seed(seed):
    """Raise ConfigError unless ``seed`` is a nonnegative integer (not a bool)."""
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ConfigError(f"seed must be a nonnegative integer, not {seed!r}")


def check_trials(n_trials):
    """Raise ConfigError unless ``n_trials`` is an integer of at least 1."""
    if isinstance(n_trials, bool) or not isinstance(n_trials, (int, np.integer)):
        raise ConfigError(f"n_trials must be an integer, not {n_trials!r}")
    if n_trials < 1:
        raise ConfigError(f"n_trials must be >= 1, got {n_trials}")


@dataclass(frozen=True)
class MCConfig:
    n_trials: int
    seed: int
    polar: PolarNoiseSpec
    yu: AdmittanceUncertainty
    symmetry_mode: str = INDEPENDENT_ELEMENTS
    store_trials: bool = False

    def __post_init__(self):
        check_trials(self.n_trials)
        check_seed(self.seed)
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
    runtime_s: float = 0.0  # its pass's wall time x n_trials / the pass's trials
    trials_failed: int = 0
    n_trials: int = 0


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


def _perturb_branches(network, frac, noise):
    """Admittance stack of a chunk from perturbed series impedances.

    Each row of ``noise`` holds, branch by branch, the real and then the
    imaginary standard-normal draws of the branch's impedance entries.
    """
    p = network.phase_count
    z = network.branch_table.z_ohm
    n = noise.reshape(len(noise), len(z), 2, p, p)
    z_k = z + (n[:, :, 0] * frac * np.abs(z) + 1j * (n[:, :, 1] * frac * np.abs(z)))
    return dense(*stamp_admittance(network, z_k), network.n_nodes)


# The hash of ``numpy.random.SeedSequence`` (pool of 4 words) and the
# seeding of ``PCG64``; the 32-bit constants are Python ints, masked
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


def _words(n):
    """Little-endian 32-bit words of a nonnegative int; [0] for 0."""
    words = [n & _MASK32]
    while n > _MASK32:
        n >>= 32
        words.append(n & _MASK32)
    return words


def _pool(entropy):
    """SeedSequence's pool of each column of ``entropy``, (L, batch) uint32."""
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = (hash_const * _MULT_A) & _MASK32
        value = value * hash_const
        return value ^ (value >> 16)

    def mix(x, y):
        result = x * _MIX_MULT_L - y * _MIX_MULT_R
        return result ^ (result >> 16)

    zero = np.zeros_like(entropy[0])
    pool = [hashmix(entropy[i] if i < len(entropy) else zero) for i in range(_POOL_SIZE)]
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                pool[i_dst] = mix(pool[i_dst], hashmix(pool[i_src]))
    for word in entropy[_POOL_SIZE:]:
        for i_dst in range(_POOL_SIZE):
            pool[i_dst] = mix(pool[i_dst], hashmix(word))
    return pool


def _stream_states(seed, trials):
    """PCG64 ``(state, inc)`` of each trial's ``SeedSequence((seed, k))`` stream.

    Trials whose index takes the same number of 32-bit words share one
    array evaluation of the hash.
    """
    k = np.array(trials, dtype=np.uint64)
    seed_words = _words(int(seed))
    wide = k > _MASK32  # a second entropy word (indices below 2**64)
    states = [None] * len(k)
    for rows, n_words in ((np.flatnonzero(~wide), 1), (np.flatnonzero(wide), 2)):
        if not len(rows):
            continue
        entropy = np.empty((len(seed_words) + n_words, len(rows)), dtype=np.uint32)
        entropy[: len(seed_words)] = np.array(seed_words, dtype=np.uint32)[:, None]
        for i in range(n_words):
            entropy[len(seed_words) + i] = (k[rows] >> np.uint64(32 * i)) & np.uint64(_MASK32)
        # generate_state(4, uint64): 8 words from the cycled pool
        pool = _pool(entropy)
        hash_const = _INIT_B
        out = []
        for i in range(8):
            value = pool[i % _POOL_SIZE] ^ hash_const
            hash_const = (hash_const * _MULT_B) & _MASK32
            value = value * hash_const
            out.append((value ^ (value >> 16)).astype(np.uint64))
        # little-endian pairs; PCG64 takes words 0, 1 as the high and low
        # halves of its seed and 2, 3 as those of its increment
        w = [out[2 * i] | (out[2 * i + 1] << np.uint64(32)) for i in range(4)]
        for j, (s_hi, s_lo, i_hi, i_lo) in zip(rows.tolist(), zip(*(a.tolist() for a in w))):
            inc = ((i_hi << 65) | (i_lo << 1) | 1) & _MASK128
            states[j] = (((s_hi << 64 | s_lo) + inc) * _PCG_MULT + inc) & _MASK128, inc
    return states


def _draws(seed, trials, width):
    """Standard-normal draws of the given trials, one row of ``width`` each.

    Each trial's stream fills its row: magnitude and phase noise of the m
    voltages, then the admittance noise, element-wise the real and
    imaginary noise of the m x m matrix, or in branch-parameter mode that
    of each branch impedance (see ``_perturb_branches``).  The rows are
    bitwise those of ``default_rng(SeedSequence((seed, k)))``.
    """
    draws = np.empty((len(trials), width))
    bit_generator = np.random.PCG64(0)
    generator = np.random.Generator(bit_generator)
    pcg = {"state": 0, "inc": 0}
    state = {"bit_generator": "PCG64", "state": pcg, "has_uint32": 0, "uinteger": 0}
    for row, (pcg_state, inc) in zip(draws, _stream_states(seed, trials)):
        pcg["state"], pcg["inc"] = pcg_state, inc
        bit_generator.state = state
        generator.standard_normal(out=row)
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
    """What a pass has gathered for one set: moments and failures."""

    def __init__(self, cfg: MCConfig):
        self.cfg = cfg
        self.moments = _Moments()
        self.kept = [] if cfg.store_trials else None
        self.failed = 0

    def add(self, x, ok):
        """Merge the set's solutions of a chunk, ``ok`` marking the usable ones."""
        if not ok.all():
            self.failed += int(np.count_nonzero(~ok))
            x = x[ok]
        if len(x):
            self.moments.add(x)
            if self.kept is not None:
                self.kept.extend(x)

    def result(self, runtime_s):
        """The set's MCResult, ``runtime_s`` its share of the pass."""
        if self.moments.count == 0:
            raise ConfigError("all Monte-Carlo trials failed (singular systems)")
        mean, std = self.moments.result()
        trials = None if self.kept is None else np.stack(self.kept, axis=-1)
        return MCResult(
            mean=mean,
            std=std,
            trials=trials,
            runtime_s=runtime_s,
            trials_failed=self.failed,
            n_trials=self.cfg.n_trials,
        )


def _readers(sets, start, end):
    """``(set, trials)`` of each set that reads some of trials start..end-1."""
    shares = [(s, min(s.cfg.n_trials, end) - start) for s in sets]
    return [(s, k) for s, k in shares if k > 0]


#: the fields every set of one pass shares
SHARED_FIELDS = ("seed", "polar", "symmetry_mode", "store_trials")


def _solve_level(network, Ym, E_k, noise, yu, mode):
    """Solutions of the first ``len(noise)`` trials of a chunk at one
    level's ``yu``, and which of them are usable.

    The level's admittance and H stacks are freed on return.
    """
    rows = len(noise)
    if mode == BRANCH_PARAMETER:
        Y_k = _perturb_branches(network, yu.level_pct / 100.0, noise)
    else:
        # Y + n_re sigma_re + 1j (n_im sigma_im) on the stds' pattern; an
        # element with zero stds keeps Y's entry, which is what that sum
        # gives there bitwise (Y's stamped entries hold no -0.0)
        m, at = len(Ym), yu.positions
        n = noise.reshape(rows, 2, m * m)
        Y_k = np.repeat(Ym.reshape(1, m * m), rows, axis=0)
        Y_k[:, at] = Ym.take(at) + n[:, 0, at] * yu.re + 1j * (n[:, 1, at] * yu.im)
        Y_k = Y_k.reshape(rows, m, m)
    system = assemble_from_raw(Y_k, E_k[:rows], network)
    return _solve_chunk(system.H, system.z)


def run_monte_carlo_sets(
    network: NetworkModel,
    Y: AdmittanceMatrix,
    state: GridState,
    cfgs: list[MCConfig],
) -> list[MCResult]:
    """Results of several Monte-Carlo sets from one pass over their trials.

    The configs agree on ``SHARED_FIELDS`` and may differ in ``yu`` and
    ``n_trials``; any other difference raises ConfigError, and a ``yu``
    made for another node count than the network's raises ValueError, as
    the analytical chain does.  Trial k draws
    from the same stream in every set, so each result equals, bit for bit,
    that of ``run_monte_carlo`` on its config alone: the pass walks the
    trials of the longest set in the same chunks, builds each trial's
    stream and perturbed voltages once, and, per chunk, perturbs, assembles
    and solves the rows of each distinct ``yu`` object once for all the
    sets that share it.  A set's ``runtime_s`` is the pass's wall time
    times the set's share of all the sets' trials, so the values add up
    to that time.
    """
    if not cfgs:
        return []
    t0 = time.perf_counter()
    for cfg in cfgs[1:]:
        for name in SHARED_FIELDS:
            if getattr(cfg, name) != getattr(cfgs[0], name):
                raise ConfigError(f"the Monte-Carlo sets of one pass differ in {name}")
    sets = [_Set(cfg) for cfg in cfgs]
    levels = {}  # id(yu) -> the sets that share it
    for s in sets:
        if s.cfg.yu.n_nodes != network.n_nodes:
            raise ValueError("noise spec dimensions do not match the network")
        if s.cfg.symmetry_mode == BRANCH_PARAMETER and s.cfg.yu.level_pct is None:
            raise ConfigError("branch-parameter mode needs a relative level_pct")
        levels.setdefault(id(s.cfg.yu), []).append(s)
    cfg = cfgs[0]
    E0 = state.voltages
    Ym = Y.matrix
    m = E0.size
    if cfg.symmetry_mode == BRANCH_PARAMETER:
        width = 2 * m + 2 * network.branch_table.z_ohm.size
    else:
        width = 2 * m + 2 * m * m

    dim = 2 * len(network.nonslack_flat_indices())
    check_nonempty(dim)
    size = _chunk_trials(dim)
    n_max = max(s.cfg.n_trials for s in sets)
    for start in range(0, n_max, size):
        end = min(start + size, n_max)
        draws = _draws(cfg.seed, range(start, end), width)
        E_k = _perturb_voltages(E0, cfg.polar, draws[:, :m], draws[:, m : 2 * m])
        noise = draws[:, 2 * m :]
        for level in levels.values():
            shares = _readers(level, start, end)
            if not shares:
                continue
            # x lives until the next level's replaces it: freed together
            # with Y_k and H, it let malloc hand the heap top back to the
            # system, and every chunk faulted those pages in again
            rows = max(k for _, k in shares)
            x, ok = _solve_level(network, Ym, E_k, noise[:rows], level[0].cfg.yu,
                                 cfg.symmetry_mode)
            for s, k in shares:
                s.add(x[:k], ok[:k])
    seconds = time.perf_counter() - t0
    total = sum(s.cfg.n_trials for s in sets)
    return [s.result(seconds * s.cfg.n_trials / total) for s in sets]


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
