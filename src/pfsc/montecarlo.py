"""Monte-Carlo validation of the analytical uncertainty propagation.

Each trial perturbs the voltage phasors in polar coordinates and the
admittance, reassembles the sensitivity system and solves it; the
empirical per-coefficient std over trials is the oracle the analytical
propagation is compared against.  The admittance noise follows one of
two models (``MCConfig.symmetry_mode``): ``independent-elements``, the
model of the analytical propagation, draws every real and imaginary
part of the matrix on its own; ``branch-parameter`` perturbs each
branch's series impedance and stamps the matrix from it with the
package's one stamp, ``network.stamp_admittance``, which gives each
trial's entries at the positions it writes.  A set's admittance noise
must be made for the network's node count.

Trial k draws from its own stream, bitwise that of
``default_rng(SeedSequence((seed, k)))`` (NEP 19), so its draws do not
depend on the chunking or on ``n_trials``.  ``_stream_states`` runs
SeedSequence's hash (``_hashmix``, ``_pool``) as uint32 array arithmetic
over up to ``CHUNK_TRIALS`` trials at a time, and ``_draws`` hands each
trial's seed words to ``Generator(PCG64(...))``, what ``default_rng``
builds, through ``_SeedWords``, a NumPy ``ISeedSequence``.

Trials run in chunks (``_chunk_trials``) of at most ``CHUNK_TRIALS``
trials and at most ``CHUNK_BYTES`` of a dense stack of H.  A pass holds
one buffer, which every chunk and level reuses, and no other array as
wide as m² a trial.  Each chunk's draw rows are drawn into the buffer a
few at a time, and only the normals that some level reads are kept
(``_draws``): the voltages', and in independent-elements mode those at
the levels' noise positions.  Per chunk and level, the perturbations are
array expressions, and each trial's Y is held as its entries on the
level's pattern.  K = Y E is the dense product of each trial's Y, formed
in the buffer as many trials at a time as it holds (``_products``), and
one ``assemble_from_raw`` call fills the diagonal blocks of each trial's
H into the buffer, and nothing off them, each block column-major
(``JacobianStack``), with the signs s of the z = diag(s) they share.
Each block is solved on its own (``_solve``) and its solutions written
over it: one of at least ``INVERT_ROWS`` rows is factored and inverted
trial by trial in its own memory by LAPACK ``getrf`` and ``getri``, and
its columns scaled by s; a smaller one is solved by one batched
``np.linalg.solve`` against its z.  A trial with a singular or
non-finite block is dropped and counted once.  The sets merge each
block's trials as rows of its values in the stack's column-major order,
one contiguous run a trial, and the last set to read a chunk merges
them in the buffer, with no temporary of a block's stack.  The mean and
std are streamed across chunks (Chan, Golub & LeVeque 1979), so memory
is bounded by one chunk whatever ``n_trials`` is; only ``store_trials``
(the CLI's ``--dump-trials``) keeps every trial.  The buffer is freed
before the sets build their results.

A level's noise pattern is the set of flat positions its trials' Y can
hold.  In independent-elements mode that is Y's positions and those of
the level's noise, so element noise where Y is zero reaches H.  In
branch-parameter mode it is every position ``stamp_admittance`` writes:
Y does not store an entry where parallel branches' admittances cancel,
such as a series-compensated pair at +-j x, but a perturbed stamp fills
it.  H does not couple nodes that no position of the pattern links: on
a radial feeder each branch leaving the slack starts a subtree of its
own, and with uncoupled phases each phase is a network of its own.
``_partition`` lays out, once per pass for each noise pattern, the
connected components of the non-slack nodes, and one ``JacobianStack``
with its unknowns in that block order, so each trial's H is
block-diagonal and each block is a slice of it.  A set merges its
moments block by block and writes each block's trials into their rows
and columns of the trial store, in network order; its mean and std are
put in their blocks of a +0.0 table at its result.  Off the blocks, the
store, the mean and the std hold +0.0, the value of x there, and every
exact zero of a trial is one of those.  A network whose nodes all link
has one block; below ``INVERT_ROWS`` rows its trials are bitwise those
of ``np.linalg.solve(H, z)`` of the whole H.  Elsewhere they differ from
the whole solve's in their last bits, with the same exact zeros.

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
from typing import NamedTuple

import numpy as np
from numpy.random import Generator, PCG64
from numpy.random.bit_generator import ISeedSequence
from scipy.linalg.lapack import dgetrf, dgetri
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from .coefficients import assemble_from_raw, check_nonempty
from .errors import ConfigError
from .loadflow import GridState, JacobianStack, _blocks
from .network import AdmittanceMatrix, NetworkModel, stamp_admittance, take
from .uncertainty import AdmittanceUncertainty, PolarNoiseSpec

INDEPENDENT_ELEMENTS = "independent-elements"
BRANCH_PARAMETER = "branch-parameter"
_MODES = (INDEPENDENT_ELEMENTS, BRANCH_PARAMETER)

#: a chunk holds at most this many trials ...
CHUNK_TRIALS = 256
#: ... and at most this many bytes of a dense H stack.  The stack holds
#: only H's diagonal blocks, and a pass peaks at up to about 1.5 times a
#: chunk's dense H stack: a 200-trial pass at dim H 118, in chunks of 9
#: trials (1.0 MB of dense H), peaks at 1.53 MB under ``tracemalloc`` on
#: the blocks of 114, 2 and 2 rows of ``make_feeder(60, 4)``, and at
#: 0.87 MB on the blocks of 70, 46 and 2 rows of ``make_feeder(60, 1)``.
#: ``run_pipeline`` medians of the 60-bus full table (seed 1, blocks of
#: 70, 46 and 2 rows) with 200 trials, 10 interleaved repeats on one Xeon
#: core (2 MiB of L2) with one BLAS thread, the big blocks inverted:
#: 58.9 ms at 4 MiB (37 trials), 59.4 at 2 MiB, 63.0 at 1 MiB (9), 62.4 at
#: 768 KiB, 68.9 at 512 KiB and 79.8 at 256 KiB (2).  The chunk stays at
#: 1 MiB: it bounds the pass's memory, and its boundaries set the bits of
#: the streamed moments.
CHUNK_BYTES = 2**20
#: a block of H with at least this many rows is inverted one trial at a
#: time (``_invert``); a smaller one keeps the batched ``np.linalg.solve``,
#: whose single call beats a Python loop of LAPACK calls on small blocks.
#: Per trial on one Xeon core with one BLAS thread, random 9-trial stacks,
#: batched solve -> inverse, µs: 1.6 -> 3.5 at 6 rows, 2.0 -> 3.9 at 8,
#: 3.9 -> 5.0 at 12, 5.8 -> 6.1 at 16, 7.3 -> 7.3 at 18, 15.8 -> 12.7 at
#: 28, 38.9 -> 29.8 at 46, 109 -> 72 at 70 and 361 -> 234 at 114.
INVERT_ROWS = 16


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
    """Admittance stack of a chunk from perturbed series impedances, as
    ``stamp_admittance`` gives it: ``(positions, values)``.

    Each row of ``noise`` holds, branch by branch, the real and then the
    imaginary standard-normal draws of the branch's impedance entries.
    """
    p = network.phase_count
    z = network.branch_table.z_ohm
    n = noise.reshape(len(noise), len(z), 2, p, p)
    z_k = z + (n[:, :, 0] * frac * np.abs(z) + 1j * (n[:, :, 1] * frac * np.abs(z)))
    return stamp_admittance(network, z_k)


# The hash of ``numpy.random.SeedSequence`` (pool of 4 words); the
# 32-bit constants are Python ints, masked
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4


def _words(n):
    """Little-endian 32-bit words of a nonnegative int; [0] for 0."""
    words = [n & _MASK32]
    while n > _MASK32:
        n >>= 32
        words.append(n & _MASK32)
    return words


def _hashmix(hash_const, mult):
    """SeedSequence's ``hashmix`` of one value a call, its constant starting
    at ``hash_const`` and multiplied by ``mult`` at each call."""

    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = (hash_const * mult) & _MASK32
        value = value * hash_const
        return value ^ (value >> 16)

    return hashmix


def _pool(entropy):
    """SeedSequence's pool of each column of ``entropy``, (L, batch) uint32."""
    hashmix = _hashmix(_INIT_A, _MULT_A)

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
    """Seed words of each trial's ``SeedSequence((seed, k))`` stream,
    (trials, 4) uint64: each row is its sequence's ``generate_state(4,
    np.uint64)``, the one call a ``PCG64`` makes of its seed sequence.

    Trials whose index takes the same number of 32-bit words share one
    array evaluation of the hash.
    """
    k = np.array(trials, dtype=np.uint64)
    seed_words = _words(int(seed))
    wide = k > _MASK32  # a second entropy word (indices below 2**64)
    states = np.empty((len(k), 4), dtype=np.uint64)
    for rows, n_words in ((np.flatnonzero(~wide), 1), (np.flatnonzero(wide), 2)):
        if not len(rows):
            continue
        entropy = np.empty((len(seed_words) + n_words, len(rows)), dtype=np.uint32)
        entropy[: len(seed_words)] = np.array(seed_words, dtype=np.uint32)[:, None]
        for i in range(n_words):
            entropy[len(seed_words) + i] = (k[rows] >> np.uint64(32 * i)) & np.uint64(_MASK32)
        # generate_state(4, uint64): 8 words from the cycled pool
        pool, hashmix = _pool(entropy), _hashmix(_INIT_B, _MULT_B)
        out = [hashmix(pool[i % _POOL_SIZE]) for i in range(8)]
        states[rows] = np.stack(out, axis=-1).astype("<u4").view("<u8")
    return states


class _SeedWords(ISeedSequence):
    """A seed sequence that hands out one trial's precomputed seed words."""

    def __init__(self, words):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def _draws(states, width, keep=None, buffer=None):
    """Standard-normal draws of trials from their seed words ``states`` as
    ``_stream_states`` gives them: each trial's row of ``width``, or with
    ``keep`` only the row's columns ``keep``.

    Each trial's stream fills its row: magnitude and phase noise of the m
    voltages, then the admittance noise, element-wise the real and
    imaginary noise of the m x m matrix, or in branch-parameter mode that
    of each branch impedance (see ``_perturb_branches``).  Each row comes
    from ``Generator(PCG64(...))`` of the trial's words, what
    ``default_rng`` builds, so the rows are bitwise those of
    ``default_rng(SeedSequence((seed, k)))``.  With ``keep``, the rows are
    drawn into the flat array ``buffer``, as many at a time as it holds
    (at least one), and their columns ``keep`` copied out, so that no
    chunk of whole rows is held.
    """
    if keep is None:
        draws = np.empty((len(states), width))
        _fill_rows(draws, states)
        return draws
    draws = np.empty((len(states), len(keep)))
    rows = buffer[: len(buffer) // width * width].reshape(-1, width)
    for start in range(0, len(states), len(rows)):
        part = states[start : start + len(rows)]
        _fill_rows(rows, part)
        # "clip" lets take write into out unbuffered; keep is in range
        np.take(rows[: len(part)], keep, axis=1, out=draws[start : start + len(part)], mode="clip")
    return draws


def _fill_rows(rows, states):
    """Each trial's standard normals into its row of ``rows``."""
    for row, words in zip(rows, states):
        Generator(PCG64(_SeedWords(words))).standard_normal(out=row)


class _Partition(NamedTuple):
    """The blocks of H that no trial couples, and the stack H is filled by
    (``_partition``)."""

    nodes: np.ndarray  # the non-slack flat indices in block order
    blocks: list  # per block, the slice of H's rows (and columns) in that order
    at: list  # per block, the index of its rows and columns of x in network order
    fill: JacobianStack  # H's stack on the pattern, its unknowns in block order


def _partition(network, positions):
    """The non-slack nodes in the blocks that H does not couple, and one
    ``JacobianStack`` laid out for them.

    ``positions`` is a noise pattern: the flat positions of the (m, m) Y
    that any of its trials' Y may hold (see ``run_monte_carlo_sets``).
    Two nodes are linked when H has a block for their pair on that
    pattern, the rule of ``loadflow._blocks``, which the stack reads too.
    A block is a connected component of the links, as SciPy's
    ``connected_components`` labels them, its nodes in network order; the
    blocks are ordered by their first node.  H with its
    unknowns in that order is block-diagonal: one block on a network
    whose nodes all link, one per subtree of the slack on a radial feeder.
    """
    nonslack = np.array(network.nonslack_flat_indices())
    n, m = len(nonslack), network.n_nodes
    _, _, r, c = _blocks(positions, nonslack, m)  # the pairs of nodes that H couples
    links = coo_matrix((np.ones(len(r)), (r, c)), shape=(n, n))
    _, label = connected_components(links, directed=False)  # numbered by first node
    order = np.argsort(label, kind="stable")  # each block's nodes in network order
    ends = np.cumsum(2 * np.bincount(label)).tolist()
    spans = [slice(a, b) for a, b in zip([0] + ends, ends)]
    rows = (2 * order[:, None] + [0, 1]).ravel()  # x's row of each row of H
    nodes = nonslack[order]
    return _Partition(nodes, spans, [(rows[s, np.newaxis], rows[s]) for s in spans],
                      JacobianStack(positions, nodes, m, [s.stop - s.start for s in spans]))


def _invert(H, signs):
    """H⁻¹ diag(signs) of each trial of a stack of column-major blocks,
    in their own memory: LAPACK ``getrf`` and then ``getri`` one trial at
    a time, NaN where a trial is singular."""
    for H_j in H:
        lu, piv, info = dgetrf(H_j, overwrite_a=True)
        if info == 0:
            inv, info = dgetri(lu, piv, overwrite_lu=True)
        if info == 0:
            np.multiply(inv, signs, out=H_j)  # scales column c by signs[c]
        else:
            H_j.fill(np.nan)
    return H


def _solve(H, signs):
    """Solutions of a stack of H x = diag(signs), written over H, NaN
    where a trial is singular: inverted trial by trial from
    ``INVERT_ROWS`` rows up, batched below."""
    if H.shape[-1] >= INVERT_ROWS:
        return _invert(H, signs)
    z = np.diag(signs)
    try:
        H[...] = np.linalg.solve(H, z)
    except np.linalg.LinAlgError:
        # one singular trial fails the batched call: solve this stack
        # trial by trial, leaving NaN where a trial is singular
        for H_j in H:
            try:
                H_j[...] = np.linalg.solve(H_j, z)
            except np.linalg.LinAlgError:
                H_j.fill(np.nan)
    return H


class _Moments:
    """Mean and std streamed over stacks of trials.

    Values are shifted by the first trial seen, so a constant sample
    gives a std of exactly 0; chunks merge by the pairwise update of
    Chan, Golub & LeVeque (1979).
    """

    def __init__(self):
        self.count = 0

    def add(self, x, spend=False):
        """Merge a (k, ...) stack of trials; with ``spend``, in x's own
        memory, whose values it overwrites."""
        if self.count == 0:
            self.anchor = x[0].copy()
            self.mean = np.zeros_like(self.anchor)
            self.m2 = np.zeros_like(self.anchor)
        d = np.subtract(x, self.anchor, out=x if spend else None)
        k = len(d)
        n = self.count + k
        delta = d.mean(axis=0)  # the chunk's mean, until made its delta
        d -= delta
        chunk_m2 = np.square(d, out=d).sum(axis=0)
        delta -= self.mean
        # m2 += chunk_m2 + delta² count k / n, and mean += delta k / n, each
        # operation in that order and in place: the first row of d is spent
        term = np.square(delta, out=d[0])
        term *= self.count * k / n
        term += chunk_m2
        self.m2 += term
        delta *= k / n
        self.mean += delta
        self.count = n

    def result(self):
        """(mean, std); the std of a single trial is 0."""
        mean = self.anchor + self.mean
        if self.count < 2:
            return mean, np.zeros_like(mean)
        return mean, np.sqrt(self.m2 / (self.count - 1))


class _Set:
    """What a pass has gathered for one set, block by block of ``part``,
    the ``_Partition`` of the set's level: moments and failures, and with
    ``store_trials`` the usable trials, along the last axis of one store
    of ``n_trials`` in network order, allocated by the first chunk."""

    def __init__(self, cfg: MCConfig, part: _Partition):
        self.cfg = cfg
        self.part = part
        self.moments = [_Moments() for _ in part.blocks]
        self.store = None
        self.failed = 0

    def add(self, xs, ok, k, spend):
        """Merge the first ``k`` trials of a chunk's solutions ``xs``, one
        stack per block, ``ok`` marking the usable trials; with ``spend``,
        in the memory of ``xs``, which no later set reads."""
        ok = ok[:k]
        keep = slice(k)
        if not ok.all():
            failed = int(np.count_nonzero(~ok))
            self.failed += failed
            if failed == k:
                return
            keep = np.flatnonzero(ok)  # the chunk may hold more rows than k
        kept = self.moments[0].count
        for x, moments, at in zip(xs, self.moments, self.part.at):
            x = x[keep]
            if self.cfg.store_trials:
                if self.store is None:
                    # +0.0 off the blocks, where no trial couples its nodes
                    dim = 2 * len(self.part.nodes)
                    self.store = np.zeros((dim, dim, self.cfg.n_trials))
                self.store[at + (slice(kept, kept + len(x)),)] = np.moveaxis(x, 0, -1)
            # a row a trial, its block column-major as the stack holds it:
            # one contiguous run a trial, which the merge reads fastest
            moments.add(x.swapaxes(-1, -2).reshape(len(x), -1), spend)

    def result(self, runtime_s):
        """The set's MCResult, ``runtime_s`` its share of the pass: each
        block's mean and std put in its rows and columns of a +0.0 table."""
        count = self.moments[0].count
        if count == 0:
            raise ConfigError("all Monte-Carlo trials failed (singular systems)")
        dim = 2 * len(self.part.nodes)
        mean, std = np.zeros((dim, dim)), np.zeros((dim, dim))
        for moments, at in zip(self.moments, self.part.at):
            d = len(at[1])
            mean[at], std[at] = (v.reshape(d, d).T for v in moments.result())
        return MCResult(
            mean=mean,
            std=std,
            trials=None if self.store is None else self.store[..., :count],
            runtime_s=runtime_s,
            trials_failed=self.failed,
            n_trials=self.cfg.n_trials,
        )


#: the fields every set of one pass shares
SHARED_FIELDS = ("seed", "polar", "symmetry_mode", "store_trials")


class _Level(NamedTuple):
    """What a pass lays out once for the sets that share one ``yu``."""

    sets: list  # their _Set each, in config order
    values: np.ndarray  # Y's entries on the pattern, ``sets[0].part.fill.positions``
    at: np.ndarray  # the places of ``yu.positions`` in the pattern


def _products(positions, values, E, nodes, buffer):
    """K = (Y E) at ``nodes`` of each trial, its Y the (m, m) matrix of
    its ``values`` (k, L) at the flat ``positions``, zero elsewhere: the
    dense product, formed in ``buffer`` as many trials at a time as it
    holds.  A trial's product does not depend on the stack it is formed
    in, so K holds the bits of the whole stack's batched product."""
    m = E.shape[-1]
    Y = buffer[: len(buffer) // (2 * m * m) * 2 * m * m].view(complex).reshape(-1, m * m)
    K = np.empty((len(values), len(nodes)), dtype=complex)
    for start in range(0, len(values), len(Y)):
        stop = min(start + len(Y), len(values))
        Y_b = Y[: stop - start]
        Y_b.fill(0.0)
        Y_b[:, positions] = values[start:stop]
        E_b = E if len(E) == 1 else E[start:stop]
        K[start:stop] = (Y_b.reshape(-1, m, m) @ E_b[..., None])[..., nodes, 0]
    return K


def _solve_level(network, level, E_k, noise, yu, mode, buffer):
    """Solutions of the first ``len(noise)`` trials of a chunk at one
    ``_Level``, whose noise is ``yu``, one stack per block of its
    partition, and which trials are usable.  ``noise`` holds the trials'
    admittance draws: in branch-parameter mode their rows, in
    independent-elements mode the real and imaginary normals at
    ``yu.positions``, (rows, 2, L).

    Each trial's Y is held as its entries on the level's pattern, and
    its K = Y E is formed in the pass's ``buffer`` (``_products``); no
    stack of dense Y is held.  Each trial's H is block-diagonal, and the
    level's stack fills its diagonal blocks alone into ``buffer``; each
    block is solved on its own (``_solve``), its solutions written over
    it.  A trial with a singular or non-finite block is not usable.
    """
    rows = len(noise)
    E = E_k[:rows]
    part = level.sets[0].part
    pattern = part.fill.positions
    if mode == BRANCH_PARAMETER:
        positions, y = _perturb_branches(network, yu.level_pct / 100.0, noise)
        K = _products(positions, y, E, part.nodes, buffer)
        if not np.array_equal(positions, pattern):
            # a stamp that leaves out a term of the nominal one: zero there
            y = take(positions, np.concatenate([y, np.zeros((rows, 1))], axis=1), pattern)
    else:
        # Y + n_re sigma_re + 1j (n_im sigma_im) at the noise positions, in
        # that order, each real term made complex before it is added, not
        # in a ufunc's cast buffer; an element with zero stds keeps Y's
        # entry, which is what that sum gives there bitwise (Y's stamped
        # entries hold no -0.0)
        noisy = (noise[:, 0] * yu.re).astype(complex)
        np.add(level.values[level.at], noisy, out=noisy)
        im = (noise[:, 1] * yu.im).astype(complex)
        noisy += np.multiply(1j, im, out=im)
        del im
        if len(level.at) == len(pattern):
            y = noisy
        else:
            y = np.repeat(level.values[np.newaxis], rows, axis=0)
            y[:, level.at] = noisy
        del noisy
        K = _products(pattern, y, E, part.nodes, buffer)
    system = assemble_from_raw(y, E, network, part.fill, buffer, K)
    del y, K  # not held through the solve
    xs = [_solve(H, system.signs[s]) for H, s in zip(system.blocks, part.blocks)]
    return xs, np.all([np.isfinite(x).all(axis=(-2, -1)) for x in xs], axis=0)


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
    for cfg in cfgs:
        if cfg.yu.n_nodes != network.n_nodes:
            raise ValueError("noise spec dimensions do not match the network")
        if cfg.symmetry_mode == BRANCH_PARAMETER and cfg.yu.level_pct is None:
            raise ConfigError("branch-parameter mode needs a relative level_pct")
    cfg = cfgs[0]
    E0 = state.voltages
    m = E0.size
    branch = cfg.symmetry_mode == BRANCH_PARAMETER
    if branch:
        width = 2 * m + 2 * network.branch_table.z_ohm.size
    else:
        width = 2 * m + 2 * m * m

    dim = 2 * len(network.nonslack_flat_indices())
    check_nonempty(dim)
    # one _Partition per noise pattern, the positions a level's trials' Y
    # can hold: Y's and the noise's, or every position the stamp writes,
    # which Y lacks where parallel branches cancel.  Its blocks and stack
    # are the same alone as in the pass; sets on equal patterns share them.
    # The patterns' bytes are not held through the pass
    stamped = stamp_admittance(network, network.branch_table.z_ohm)[0] if branch else None
    parts = {}  # the bytes of a pattern's positions -> its _Partition, Y's entries there
    levels = {}  # id(yu) -> its _Level
    sets = []
    for c in cfgs:
        pattern = np.union1d(Y.positions, c.yu.positions) if stamped is None else stamped
        if pattern.tobytes() not in parts:
            parts[pattern.tobytes()] = _partition(network, pattern), Y.take(pattern)
        part, values = parts[pattern.tobytes()]
        if id(c.yu) not in levels:
            levels[id(c.yu)] = _Level([], values, np.searchsorted(pattern, c.yu.positions))
        sets.append(_Set(c, part))
        levels[id(c.yu)].sets.append(sets[-1])
    size = _chunk_trials(dim)
    # one buffer that every chunk and level reuses: each chunk's draw rows
    # are drawn into it, then at each level the trials' dense Y, as many
    # at a time as it holds, for K = Y E, and then their stack of H, which
    # is solved in it.  It holds a draw row, a dense Y and a chunk's stack;
    # a fresh stack per chunk would fault its pages in again
    buffer = np.empty(max(width, 2 * m * m,
                          size * max(part.fill.size for part, _ in parts.values())))
    del parts
    # the draw columns that some level reads: in independent-elements mode
    # the voltage normals, then the real and the imaginary normals at the
    # union of the levels' noise positions; and the bytes of each level's
    # noise positions -> its two rows of those columns past the voltages
    noises = {c.yu.positions.tobytes(): c.yu.positions for c in cfgs}
    held = np.unique(np.concatenate(list(noises.values())))
    gathers = {key: 2 * m + np.searchsorted(held, positions) + [[0], [len(held)]]
               for key, positions in noises.items()}
    reads = () if branch else (np.concatenate([np.arange(2 * m), 2 * m + held,
                                               2 * m + m * m + held]), buffer)
    n_max = max(s.cfg.n_trials for s in sets)
    hashed = size * (CHUNK_TRIALS // size)  # whole chunks, at most CHUNK_TRIALS trials
    for start in range(0, n_max, size):
        end = min(start + size, n_max)
        at = start % hashed
        if at == 0:
            states = _stream_states(cfg.seed, range(start, min(start + hashed, n_max)))
        draws = _draws(states[at : at + end - start], width, *reads)
        if at + end - start == len(states):
            del states  # the last chunk of its hash: not held through the solves
        E_k = _perturb_voltages(E0, cfg.polar, draws[:, :m], draws[:, m : 2 * m])
        if branch:
            noise = dict.fromkeys(gathers, draws[:, 2 * m :])
        else:
            # the normals at each level's noise positions, (rows, 2, L)
            noise = {key: draws[:, cols] for key, cols in gathers.items()}
        del draws  # freed before any level fills a stack, unless branch noise views it
        for level in levels.values():
            # (set, its trials in this chunk) of each set that reads some
            shares = [(s, min(s.cfg.n_trials, end) - start)
                      for s in level.sets if s.cfg.n_trials > start]
            if not shares:
                continue
            rows = max(k for _, k in shares)
            yu = level.sets[0].cfg.yu
            xs, ok = _solve_level(network, level, E_k, noise[yu.positions.tobytes()][:rows], yu,
                                  cfg.symmetry_mode, buffer)
            for s, k in shares:
                s.add(xs, ok, k, spend=s is shares[-1][0])
            # freed before the next chunk's assembly, so that the
            # allocator reuses their room instead of trimming the heap
            # and faulting it in again
            del xs
        del E_k, noise  # not held beside the next chunk's draws
    del buffer, reads  # not held beside the results
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
