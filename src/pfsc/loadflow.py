"""AC load flow in rectangular complex coordinates, and its Newton matrix.

The solver produces the operating point (nodal voltage phasors) used both
as the linearization point for the sensitivity computation and as the
ground truth for Monte-Carlo noise studies.

The package's one linearisation of the power flow is the real Newton
matrix H of conj(S) = conj(E) * (Y E) with respect to the non-slack
voltages, d conj(S_i) = conj(E_i) (Y dE)_i + (Y E)_i conj(dE_i).
Realified ordering, for rows and columns alike and throughout the package:
the nodes of ``NetworkModel.nonslack_flat_indices`` (node ordering as
stated in ``pfsc.network``), the real part of node k at 2k and the
imaginary part at 2k + 1.  A term c dE of d conj(S) fills the 2x2 block
of its pair of nodes by one rule (``_term_block``), and a term
c conj(dE) by another (``_conj_term_block``).  The load flow, the
sensitivity system H x = z and the Monte-Carlo trials all assemble H
here, by those rules, in one of two forms:

- ``SparseJacobian``: a CSC matrix on Y's pattern, laid out once per Y
  and refilled for each E and product Y E.  It assembles the H of one
  point: the Newton loop and the targeted coefficient solve factor it
  with SuperLU (``scipy.sparse.linalg.splu``), and the full table
  inverts it made dense.
- ``JacobianStack``: dense and batched over stacks of (Y, E), for the
  Monte-Carlo trials.  It is laid out for the positions where the Y of
  a stack may be nonzero and for diagonal blocks of H that none of them
  links, reads each Y's entries at those positions, and fills the blocks
  into a zeroed stack that holds only those diagonal blocks, each
  column-major.

Both write their blocks by one routine (``_write_blocks``), and, given
the same product Y E, every stored entry equals that of H assembled
densely over every entry of Y under ==.  At a point, Y E is summed over
Y's pattern (``AdmittanceMatrix.dot``): the Newton loop forms it once per
iterate, for the power mismatch and the refill, and no dense Y is built.
``JacobianStack`` takes K = Y E at its unknowns from its caller, and
reads no dense Y: the Monte-Carlo pass forms K as the dense product of
each trial's Y, a few trials at a time in one reused buffer, which keeps
the bits of the whole stack's batched product and on the four-bus
feeder costs less than half of a sum over the pattern of each stack.

H is real-bilinear in (E, Y), so its derivative with respect to each
real input is exact and sparse: ``jacobian_derivative`` lays it out once
per point as a table of signed terms (``JacobianDerivative``), which the
analytical uncertainty propagation squares and weights by the input
variances.  The result lives on H's structural pattern, as a
``PatternArray``: CSC arrays held by numpy alone, since at a few buses
building and multiplying a scipy sparse matrix costs more than the whole
propagation.

One routine, ``_blocks``, lists H's structural pattern for all three:
the 2x2 blocks (k, c) of the non-slack node pairs that a stored
admittance position links, and every diagonal block.  ``_block_layout``
lays them out as CSC arrays and the data offsets of each block.
``SparseJacobian`` reads that for Y's positions and refills the blocks;
``jacobian_derivative`` reads it for the positions of its admittance
inputs, and each term carries the data offset of its entry.  On Y's
pattern they get the same arrays.  ``JacobianStack`` reads the blocks
for the positions of a stack and writes them at their offsets in its
diagonal blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csc_matrix
from scipy.sparse.linalg import splu

from .errors import LoadFlowError
from .network import AdmittanceMatrix, NetworkModel, take

DEFAULT_TOL = 1e-8
DEFAULT_MAX_ITER = 50


@dataclass(frozen=True)
class GridState:
    """Nodal voltage phasors (per-unit) at an operating point."""

    voltages: np.ndarray  # complex, length p*N_b, bus-major ordering
    mismatch: np.ndarray  # complex power residual per node/phase
    iterations: int

    @property
    def max_mismatch(self):
        return float(np.max(np.abs(self.mismatch)))


def nodal_power(voltages, Y: AdmittanceMatrix):
    """Apparent power injected at each node/phase: S_i = E_i * conj((Y E)_i),
    with Y E summed over Y's pattern (``AdmittanceMatrix.dot``)."""
    E = np.asarray(voltages, dtype=complex)
    return E * np.conj(Y.dot(E))


def _term_block(re, im):
    """The 2x2 block of a term c dE, c = re + j im, in H's realified
    ordering (dE = dr + j di): its entries (re, re), (re, im), (im, re),
    (im, im)."""
    return re, -im, im, re


def _conj_term_block(re, im):
    """The block of a term c conj(dE), as ``_term_block`` gives that of c dE."""
    return re, im, im, -re


def _write_blocks(out, at, A, K):
    """Write H's blocks along the last axis of ``out``, at the offsets
    ``at`` (4, blocks) of each block's entries, in ``_block_layout``'s
    entry order: the block of the term A dE of each block, plus, on the
    first ``K.shape[-1]`` blocks (the diagonal ones), that of the term
    diag(K) conj(dE).  ``A`` (..., blocks) and ``K`` (..., n) are complex.
    One entry at a time, so that no temporary holds all four entries of
    a stack's blocks.
    """
    n = K.shape[-1]
    for entry, value, diagonal in zip(at, _term_block(A.real, A.imag),
                                      _conj_term_block(K.real, K.imag)):
        out[..., entry[n:]] = value[..., n:]
        out[..., entry[:n]] = value[..., :n] + diagonal


@dataclass(frozen=True, eq=False)
class PatternArray:
    """A dense-shaped array stored on a sparsity pattern, in CSC form.

    Column j holds ``data[indptr[j]:indptr[j + 1]]`` at the rows
    ``indices[indptr[j]:indptr[j + 1]]``, sorted; every other entry is
    zero.  The pattern may store explicit zeros, and every column holds at
    least one entry.  Numpy arrays only: this is the per-level currency of
    the analytical chain.
    """

    data: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray
    shape: tuple

    @classmethod
    def from_dense(cls, a):
        """Every entry of the 2-D array ``a`` stored, zeros included."""
        rows, cols = a.shape
        return cls(
            np.ravel(a, order="F"),
            np.tile(np.arange(rows), cols),
            np.arange(cols + 1) * rows,
            a.shape,
        )

    def toarray(self):
        """The dense array."""
        out = np.zeros(self.shape)
        out[self.indices, np.repeat(np.arange(self.shape[1]), np.diff(self.indptr))] = self.data
        return out

    def premultiply(self, a):
        """``a @ self`` as a dense array, for a 2-D ``a``.

        Column j of the product sums the columns ``a[:, indices]`` of the
        entries stored in column j, each scaled by its value: one gather,
        one scaling in place and one segment sum, and nothing of the size
        of ``self`` dense.
        """
        terms = a.take(self.indices, axis=1)
        terms *= self.data
        return np.add.reduceat(terms, self.indptr[:-1], axis=1)


def _blocks(positions, nonslack, m):
    """The 2x2 blocks of H's structural pattern for the Y entries at the
    distinct flat ``positions`` r m + n of an (m, m) Y.

    Unknown k is node ``nonslack[k]``.  A position links block (k, c)
    when r is unknown k and n is unknown c, c != k.  The blocks are every
    diagonal block (k, k), in node order, then each linked block, in the
    order of ``positions``.  Returns ``(k, c, row, col)``: per position,
    k the unknown of r (-1 for a slack node) and c that of n when the
    position links a block, else -1; per block, its unknowns k and c.
    """
    diagonal = np.arange(len(nonslack))
    unknown = np.full(m, -1)
    unknown[nonslack] = diagonal
    r, node = np.divmod(positions, m)
    k, c = unknown[r], unknown[node]
    c[(k < 0) | (c == k)] = -1
    linked = c >= 0
    return k, c, np.concatenate([diagonal, k[linked]]), np.concatenate([diagonal, c[linked]])


def _block_layout(positions, nonslack, m):
    """H's structural pattern as CSC arrays, for the blocks of ``_blocks``.

    Returns ``(k, c, at, indices, indptr)``: k and c per position as
    ``_blocks`` gives them;

    - ``at`` (4, blocks), the data offsets of each block's entries
      (2k, 2c), (2k, 2c + 1), (2k + 1, 2c), (2k + 1, 2c + 1);
    - ``indices`` and ``indptr``, the CSC arrays of the (2n, 2n) pattern,
      with rows sorted within each column.
    """
    n = len(nonslack)
    k, c, row, col = _blocks(positions, nonslack, m)
    rank = np.empty(len(row), dtype=np.intp)
    rank[np.argsort(col * n + row)] = np.arange(len(row))  # column-major
    counts = np.bincount(col, minlength=n)
    # node column c holds CSC columns 2c and 2c + 1, each with rows 2k and
    # 2k + 1 of every block (k, c), after four entries of each block before c
    before = (np.cumsum(counts) - counts)[col]
    first = 2 * (rank + before)
    second = first + 2 * counts[col]
    at = np.array((first, second, first + 1, second + 1))
    indices = np.empty(4 * len(row), dtype=np.int32)
    indices[at] = 2 * row + np.array([[0], [0], [1], [1]])
    indptr = np.zeros(2 * n + 1, dtype=np.int32)
    np.cumsum(np.repeat(2 * counts, 2), out=indptr[1:])
    return k, c, at, indices, indptr


@dataclass(frozen=True, eq=False)
class JacobianDerivative:
    """dH/d(input) of H at one point, as groups of signed terms.

    The real inputs are numbered: Re E_n at n and Im E_n at m + n for
    every node n, then Re Y at 2m + q and Im Y at 2m + L + q for the L
    admittance entries ``pairs`` (flat positions r m + n in Y, row r a
    non-slack node).  H's structural pattern is laid out in CSC form, as
    ``SparseJacobian`` lays it out for the same positions: ``indices``
    and ``indptr``.  Group g holds four entries of H, at the data offsets
    ``slot[:, g]`` of that layout, and four inputs ``input[:, g]``: entry
    ``slot[e, g]`` has the derivative ``coefficient[e, v, g]`` with
    respect to input ``input[v, g]``.  No (entry, input) pair occurs
    twice: an input that enters one entry more than once (E_r and Y_rr in
    the diagonal blocks, through both conj(E_r) Y_rr and (Y E)_r) has the
    sum of its coefficients.
    """

    dim: int
    pairs: np.ndarray
    slot: np.ndarray  # (4, G)
    indices: np.ndarray
    indptr: np.ndarray
    input: np.ndarray  # (4, G)
    coefficient: np.ndarray  # (4, 4, G): entry, input, group

    def squared_product(self, values):
        """(J o J) @ values on H's structural pattern, as a
        ``PatternArray``: entry p sums coefficient^2 * values[input] over
        the terms at p.  Each entry receives its terms in the order of the
        dense (dim, dim) bincount over flat positions, so every stored
        value is bitwise that dense entry; entries off the pattern are
        zero."""
        terms = np.square(self.coefficient)
        terms *= values[self.input]
        per_entry = terms.sum(axis=1)
        data = np.bincount(self.slot.ravel(), weights=per_entry.ravel(),
                           minlength=len(self.indices))
        return PatternArray(data, self.indices, self.indptr, (self.dim, self.dim))


def jacobian_derivative(Y: AdmittanceMatrix, E, nonslack, positions=None):
    """The ``JacobianDerivative`` of H at the point (Y, E).

    The admittance inputs are the entries of the non-slack rows at the
    sorted flat ``positions`` of Y; by default Y's own pattern.  Any other
    entry is taken as a zero that has no noise: it has no input, and the
    voltage it multiplies has a zero derivative through it.
    """
    ns = np.asarray(nonslack, dtype=np.intp)
    n, m = len(ns), len(E)
    dim = 2 * n
    pairs = Y.positions if positions is None else positions
    k, c, at, indices, indptr = _block_layout(pairs, ns, m)
    keep = k >= 0
    y = (Y.values if positions is None else Y.take(positions))[keep]
    pairs, k, c = pairs[keep], k[keep], c[keep]
    r, node = np.divmod(pairs, m)
    yr, yi = y.real, y.imag
    er_n, ei_n, er_r, ei_r = E.real[node], E.imag[node], E.real[r], E.imag[r]
    q = np.arange(len(pairs))
    i_yr, i_yi = 2 * m + q, 2 * m + len(pairs) + q
    diag = node == r  # both on block (k, k), with the same inputs: summed
    off = c >= 0

    # Each pair's Y_rn enters H twice: in A = conj(E_r) Y_rn on block
    # (k, c), for n non-slack, and in K = (Y E)_r on block (k, k).  The
    # gradients of Re and Im of each over the inputs (Re Y_rn, Im Y_rn,
    # Re E, Im E), with E = E_r for A and E = E_n for K:
    g_a = np.array([er_r, ei_r, yr, yi, -ei_r, er_r, yi, -yr]).reshape(2, 4, -1)
    g_k = np.array([er_n, -ei_n, yr, -yi, ei_n, er_n, yi, yr]).reshape(2, 4, -1)
    # and of the four entries of a block (A multiplies dE, K conj(dE)),
    # (entry, input, group), written into place: the K group of every
    # pair, then the A group of each off-diagonal one
    coefficient = np.empty((4, 4, len(pairs) + np.count_nonzero(off)))
    coef_k, coef_a = coefficient[..., : len(pairs)], coefficient[..., len(pairs) :]
    coef_k[...] = _conj_term_block(*g_k)
    coef_k[:, :, diag] += _term_block(*g_a[:, :, diag])
    coef_a[...] = _term_block(*g_a[:, :, off])

    return JacobianDerivative(
        dim=dim,
        pairs=pairs,
        slot=np.concatenate([at[:, k], at[:, n:]], axis=1),
        indices=indices,
        indptr=indptr,
        input=np.concatenate(
            [np.array([i_yr, i_yi, node, m + node]), np.array([i_yr, i_yi, r, m + r])[:, off]],
            axis=1,
        ),
        coefficient=coefficient,
    )


class SparseJacobian:
    """H on the pattern of Y, as a CSC matrix refilled per call.

    The pattern is fixed by the stored entries of the ``AdmittanceMatrix``
    ``Y`` among the ``nonslack`` nodes, plus the diagonal blocks
    (``_block_layout``), and the object keeps Y's entries there.  Calling
    it with voltages E and the product ``YE = Y E`` (computed by the
    caller, ``Y.dot(E)`` at a point) writes H(Y, E) into the data of
    ``matrix`` (the same object each call) and returns it.
    """

    def __init__(self, Y: AdmittanceMatrix, nonslack):
        ns = np.asarray(nonslack, dtype=np.intp)
        n, m = len(ns), Y.n_nodes
        _, c, self._at, indices, indptr = _block_layout(Y.positions, ns, m)
        linked = c >= 0
        # the diagonal blocks, then the linked ones: row node and Y entry
        self._row = np.concatenate([ns, Y.positions[linked] // m])
        self._y = np.concatenate([Y.take(ns * (m + 1)), Y.values[linked]])
        self._ns = ns
        self.matrix = csc_matrix(
            (np.zeros(len(indices)), indices, indptr), shape=(2 * n, 2 * n)
        )

    def __call__(self, E, YE):
        # d conj(S) = A dE + diag(K) conj(dE), on the pattern only
        A = np.conj(E[self._row]) * self._y
        _write_blocks(self.matrix.data, self._at, A, YE[self._ns])
        return self.matrix


class JacobianStack:
    """The diagonal blocks of H over stacks of raw (Y, E), dense, filled
    on H's pattern.

    Laid out (``_blocks``) for the sorted, distinct flat ``positions``
    of an (m, m) Y that hold every entry any Y of a stack may have
    nonzero.  ``sizes`` splits H's rows, in the order of the unknowns
    ``nonslack``, into consecutive diagonal blocks, each of an even
    number of rows, that no position links to another (by default one
    block, the whole H).  Each H of a stack is stored as ``size`` values,
    its blocks one after another, each column-major, the layout LAPACK
    factors in place.

    ``on_pattern(y, E, K, out=None)`` takes each Y of the stack as its
    entries ``y`` (..., L) at ``positions`` and K = (Y E) at ``nonslack``
    (..., n), with ``E`` (..., m) whose leading axes broadcast to those of
    ``y``; no dense Y is read.  It zeroes a stack of H, (..., size), in ``out`` (a flat
    float array of at least that many values, reused between calls) or
    in a new array, writes each 2x2 block of the pattern at its offsets,
    and returns a view of each diagonal block of H, (..., d, d).  Calling
    the stack with dense ``Ym`` (..., m, m) and ``E`` does the same with
    y read from ``Ym`` and K from the dense batched product.  Every
    entry equals that of H assembled over every entry of Y with the same
    K under ==, and is the same in any stack; an entry off the pattern
    is +0.0, where the dense assembly may give -0.0.
    """

    def __init__(self, positions, nonslack, m, sizes=None):
        ns = np.asarray(nonslack, dtype=np.intp)
        self._ns, dim = ns, 2 * len(ns)
        self.positions = positions
        self.sizes = [dim] if sizes is None else list(sizes)
        self.size = sum(d**2 for d in self.sizes)
        _, c, row, col = _blocks(positions, ns, m)
        # the diagonal blocks, then the linked ones: the entry of y that
        # each reads (len(positions) for a diagonal not stored, which
        # reads a zero appended to y) and its row node
        self._y = take(positions, np.arange(len(positions) + 1),
                       np.concatenate([ns * (m + 1), positions[c >= 0]]))
        self._pad = bool(np.any(self._y == len(positions)))
        self._row = ns[row]
        # per block of the pattern, the rows d of its diagonal block, that
        # block's first row and its first offset; the offsets of each
        # block's entries, column-major in the diagonal block, in the order
        # of _block_layout's
        sizes = np.array(self.sizes)
        node_block = np.repeat(np.arange(len(sizes)), sizes // 2)[row]
        d = sizes[node_block]
        first = (np.cumsum(sizes) - sizes)[node_block]
        offset = (np.cumsum(sizes**2) - sizes**2)[node_block]
        corner = offset + (2 * col - first) * d + 2 * row - first
        self._at = corner + np.array([np.zeros_like(d), d, np.ones_like(d), d + 1])

    def __call__(self, Ym, E, out=None):
        stack = np.broadcast_shapes(Ym.shape[:-2], E.shape[:-1])
        y = np.broadcast_to(Ym.reshape(Ym.shape[:-2] + (-1,))[..., self.positions],
                            stack + (len(self.positions),))
        return self.on_pattern(y, E, (Ym @ E[..., None])[..., self._ns, 0], out)

    def on_pattern(self, y, E, K, out=None):
        if self._pad:
            y = np.concatenate([y, np.zeros(y.shape[:-1] + (1,), dtype=y.dtype)], axis=-1)
        conj_E = E[..., self._row]
        np.conj(conj_E, out=conj_E)
        A = y[..., self._y]
        np.multiply(conj_E, A, out=A)  # A = conj(E_r) y, in the gathered y
        del conj_E
        stack = A.shape[:-1]
        if out is None:
            H = np.zeros(stack + (self.size,))
        else:
            H = out[: self.size * math.prod(stack)].reshape(stack + (self.size,))
            H.fill(0.0)
        _write_blocks(H, self._at, A, K)
        blocks, at = [], 0
        for d in self.sizes:
            # column-major: the C-order (d, d) view is the block's transpose
            blocks.append(H[..., at : at + d * d].reshape(stack + (d, d)).swapaxes(-1, -2))
            at += d * d
        return blocks


def solve_load_flow(
    network: NetworkModel,
    Y: AdmittanceMatrix,
    initial: GridState | None = None,
) -> GridState:
    """Newton-Raphson load flow with PQ buses and one slack bus.

    Each step factors H with SuperLU on the pattern that one
    ``SparseJacobian`` lays out per call.  The product Y E is summed over
    Y's pattern (``AdmittanceMatrix.dot``), so the loop holds no dense Y.
    Converged once the largest power mismatch is at most DEFAULT_TOL.
    Raises LoadFlowError on non-convergence within DEFAULT_MAX_ITER
    iterations (carrying the last mismatch) or on a Jacobian that SuperLU
    finds exactly singular.
    """
    slack = network.slack_flat_indices()
    pq = np.array(network.nonslack_flat_indices(), dtype=np.intp)
    s_spec = network.injections_pu()

    phasors = network.slack_voltage_phasors()
    E = np.tile(phasors, network.n_bus)  # flat start, phase-rotated per bus
    if initial is not None:
        E = initial.voltages.astype(complex).copy()
    E[slack] = phasors

    H = SparseJacobian(Y, pq)
    for it in range(1, DEFAULT_MAX_ITER + 2):
        YE = Y.dot(E)  # once per iterate: the mismatch and H both read it
        mismatch = s_spec - E * np.conj(YE)
        mismatch[slack] = 0.0
        if it > DEFAULT_MAX_ITER:  # the last step's mismatch is reported, not tested
            break
        if np.max(np.abs(mismatch)) <= DEFAULT_TOL:
            return GridState(voltages=E, mismatch=mismatch, iterations=it - 1)
        rhs = np.empty(2 * len(pq))  # realified conj(mismatch)
        rhs[0::2] = mismatch[pq].real
        rhs[1::2] = -mismatch[pq].imag
        try:
            lu = splu(H(E, YE))
        except RuntimeError as exc:  # SuperLU met an exactly zero pivot
            raise LoadFlowError(
                f"singular load-flow Jacobian at iteration {it}", mismatch=mismatch
            ) from exc
        step = lu.solve(rhs)
        E[pq] += step[0::2] + 1j * step[1::2]

    raise LoadFlowError(
        f"load flow did not converge in {DEFAULT_MAX_ITER} iterations "
        f"(last max mismatch {np.max(np.abs(mismatch)):.3e} pu)",
        mismatch=mismatch,
    )
