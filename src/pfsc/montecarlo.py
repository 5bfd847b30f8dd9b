"""Monte-Carlo validation of the analytical uncertainty propagation.

Each trial perturbs the voltage phasors in polar coordinates and the
admittance, reassembles the sensitivity system and solves it; the
empirical per-coefficient std over trials is the oracle the analytical
propagation is compared against.  The admittance noise follows one of
two models (``MCConfig.symmetry_mode``): ``independent-elements``, the
model of the analytical propagation, draws every real and imaginary
part of the matrix on its own; ``branch-parameter`` perturbs each
branch's series impedance and stamps the matrix from it with the
package's one stamp, ``network.stamp_admittance``, whose values at the
positions it writes ``network.dense`` scatters into the chunk's stack.
A set's admittance noise must be made for the network's node count.

Trial k draws from its own stream, bitwise that of
``default_rng(SeedSequence((seed, k)))`` (NEP 19), so its draws do not
depend on the chunking or on ``n_trials``.  ``_stream_states`` runs
SeedSequence's hash (``_hashmix``, ``_pool``) as uint32 array arithmetic
over up to ``CHUNK_TRIALS`` trials at a time, and ``_draws`` hands each
trial's seed words to ``default_rng`` through ``_SeedWords``, a NumPy
``ISeedSequence``.

Trials run in chunks (``_chunk_trials``) of at most ``CHUNK_TRIALS``
trials and at most ``CHUNK_BYTES`` of a dense stack of H.  Per chunk
and level, the perturbations are array expressions, and one
``assemble_from_raw`` call fills the diagonal blocks of each trial's H,
and nothing off them, each block column-major (``JacobianStack``), with
the signs s of the z = diag(s) they share.  Each block is solved on its
own (``_solve``) and its solutions written over it: one of at least
``INVERT_ROWS`` rows is factored and inverted trial by trial in its own
memory by LAPACK ``getrf`` and ``getri``, and its columns scaled by s;
a smaller one is solved by one batched ``np.linalg.solve`` against its
z.  A trial with a singular or non-finite block is dropped and counted
once.  When a block is inverted, the blocks go into one buffer that the
pass allocates once and every chunk and level refills; otherwise each
chunk's stack is allocated and freed, so that it is not held beside
the next chunk's draws.  In independent-elements mode a level reads a
trial's admittance draws only at its noise positions: those normals are
gathered once per chunk for each noise pattern, and the draw rows are
freed before any stack is filled.  A level's Y stack is freed once the
blocks are filled.  The sets merge each block's trials as rows of its
values in the stack's column-major order, one contiguous run a trial,
and the last set to read a chunk merges them in the stack's own memory,
with no temporary of a block's stack.  The mean and std are streamed
across chunks (Chan, Golub & LeVeque 1979), so memory is bounded by one
chunk whatever ``n_trials`` is; only ``store_trials`` (the CLI's
``--dump-trials``) keeps every trial.

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
from numpy.random.bit_generator import ISeedSequence
from scipy.linalg.lapack import dgetrf, dgetri
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from .coefficients import assemble_from_raw, check_nonempty
from .errors import ConfigError
from .loadflow import GridState, JacobianStack, _blocks
from .network import AdmittanceMatrix, NetworkModel, dense, stamp_admittance
from .uncertainty import AdmittanceUncertainty, PolarNoiseSpec

INDEPENDENT_ELEMENTS = "independent-elements"
BRANCH_PARAMETER = "branch-parameter"
_MODES = (INDEPENDENT_ELEMENTS, BRANCH_PARAMETER)

#: a chunk holds at most this many trials ...
CHUNK_TRIALS = 256
#: ... and at most this many bytes of a dense H stack.  The stack holds
#: only H's diagonal blocks, so a trial's working set is at most about
#: 1.9 times its 8 dim² bytes of H: a 200-trial pass at dim H 118, in
#: chunks of 9 trials, peaks at 1.98 MB under ``tracemalloc`` on the
#: blocks of 114, 2 and 2 rows of ``make_feeder(60, 4)``, and at 1.40 MB
#: on the blocks of 70, 46 and 2 rows of ``make_feeder(60, 1)``.
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
    """Admittance stack of a chunk from perturbed series impedances.

    Each row of ``noise`` holds, branch by branch, the real and then the
    imaginary standard-normal draws of the branch's impedance entries.
    """
    p = network.phase_count
    z = network.branch_table.z_ohm
    n = noise.reshape(len(noise), len(z), 2, p, p)
    z_k = z + (n[:, :, 0] * frac * np.abs(z) + 1j * (n[:, :, 1] * frac * np.abs(z)))
    return dense(*stamp_admittance(network, z_k), network.n_nodes)


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


def _draws(states, width):
    """Standard-normal draws of trials, one row of ``width`` each, from
    their seed words ``states`` as ``_stream_states`` gives them.

    Each trial's stream fills its row: magnitude and phase noise of the m
    voltages, then the admittance noise, element-wise the real and
    imaginary noise of the m x m matrix, or in branch-parameter mode that
    of each branch impedance (see ``_perturb_branches``).  Each row comes
    from ``default_rng`` of the trial's words, so the rows are bitwise
    those of ``default_rng(SeedSequence((seed, k)))``.
    """
    draws = np.empty((len(states), width))
    for row, words in zip(draws, states):
        np.random.default_rng(_SeedWords(words)).standard_normal(out=row)
    return draws


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


def _solve_level(network, Ym, E_k, noise, yu, mode, part, work):
    """Solutions of the first ``len(noise)`` trials of a chunk at one
    level's ``yu``, one stack per block of ``part``, and which trials are
    usable.  ``noise`` holds the trials' admittance draws: in
    branch-parameter mode their rows, in independent-elements mode the
    real and imaginary normals at ``yu.positions``, (rows, 2, L).

    Each trial's H is block-diagonal, and ``part.fill`` writes its
    diagonal blocks alone into the pass's buffer ``work`` (a new stack if
    it is None); each block is solved on its own (``_solve``), its
    solutions written over it.  A trial with a
    singular or non-finite block is not usable.  The level's admittance
    stack is freed once the blocks are filled, before the solve.
    """
    rows = len(noise)
    if mode == BRANCH_PARAMETER:
        Y_k = _perturb_branches(network, yu.level_pct / 100.0, noise)
    else:
        # Y + n_re sigma_re + 1j (n_im sigma_im) on the stds' pattern; an
        # element with zero stds keeps Y's entry, which is what that sum
        # gives there bitwise (Y's stamped entries hold no -0.0)
        m, at = len(Ym), yu.positions
        Y_k = np.repeat(Ym.reshape(1, m * m), rows, axis=0)
        Y_k[:, at] = Ym.take(at) + noise[:, 0] * yu.re + 1j * (noise[:, 1] * yu.im)
        Y_k = Y_k.reshape(rows, m, m)
    system = assemble_from_raw(Y_k, E_k[:rows], network, part.fill, work)
    del Y_k
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
    Ym = Y.matrix
    m = E0.size
    if cfg.symmetry_mode == BRANCH_PARAMETER:
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
    stamped = (stamp_admittance(network, network.branch_table.z_ohm)[0]
               if cfg.symmetry_mode == BRANCH_PARAMETER else None)
    parts = {}  # the bytes of a pattern's positions -> its _Partition
    sets = []
    for c in cfgs:
        pattern = np.union1d(Y.positions, c.yu.positions) if stamped is None else stamped
        if pattern.tobytes() not in parts:
            parts[pattern.tobytes()] = _partition(network, pattern)
        sets.append(_Set(c, parts[pattern.tobytes()]))
    size = _chunk_trials(dim)
    # the blocks of H go into one buffer that every chunk and level reuses
    # when a block is inverted in it; a fresh stack of that size per chunk
    # would fault its pages in again.  Without one, each chunk's stack is
    # allocated and freed, so as not to be held beside the draws
    work = None
    if any(max(part.fill.sizes) >= INVERT_ROWS for part in parts.values()):
        work = np.empty(size * max(part.fill.size for part in parts.values()))
    del parts
    # the bytes of each level's noise positions -> those positions
    gathers = {c.yu.positions.tobytes(): c.yu.positions for c in cfgs}
    levels = {}  # id(yu) -> the sets that share it
    for s in sets:
        levels.setdefault(id(s.cfg.yu), []).append(s)
    n_max = max(s.cfg.n_trials for s in sets)
    hashed = size * (CHUNK_TRIALS // size)  # whole chunks, at most CHUNK_TRIALS trials
    for start in range(0, n_max, size):
        end = min(start + size, n_max)
        at = start % hashed
        if at == 0:
            states = _stream_states(cfg.seed, range(start, min(start + hashed, n_max)))
        draws = _draws(states[at : at + end - start], width)
        if at + end - start == len(states):
            del states  # the last chunk of its hash: not held through the solves
        E_k = _perturb_voltages(E0, cfg.polar, draws[:, :m], draws[:, m : 2 * m])
        if cfg.symmetry_mode == BRANCH_PARAMETER:
            noise = dict.fromkeys(gathers, draws[:, 2 * m :])
        else:
            # the normals at each level's noise positions, (rows, 2, L); the
            # draw rows, mostly never read, are freed before any level
            # builds a stack
            elements = draws[:, 2 * m :].reshape(len(draws), 2, m * m)
            noise = {key: elements[:, :, at] for key, at in gathers.items()}
            del elements, draws
        for level in levels.values():
            # (set, its trials in this chunk) of each set that reads some
            shares = [(s, min(s.cfg.n_trials, end) - start)
                      for s in level if s.cfg.n_trials > start]
            if not shares:
                continue
            rows = max(k for _, k in shares)
            yu = level[0].cfg.yu
            xs, ok = _solve_level(network, Ym, E_k, noise[yu.positions.tobytes()][:rows], yu,
                                  cfg.symmetry_mode, level[0].part, work)
            for s, k in shares:
                s.add(xs, ok, k, spend=s is shares[-1][0])
            # freed before the next chunk's assembly, so that the
            # allocator reuses their room instead of trimming the heap
            # and faulting it in again
            del xs
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
