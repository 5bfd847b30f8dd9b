"""Voltage sensitivity coefficients from the admittance matrix and grid state.

Differentiating the nodal power balance S_i = E_i * conj((Y E)_i) with
respect to an active or reactive injection at a non-slack node yields, for
each equation node i and each unknown derivative u_n = dE_n/dP (or dQ):

    indicator(i == l) * rhs = K_i * conj(u_i) + conj(E_i) * sum_n Y_in u_n

with K_i = (Y E)_i, rhs = 1 for a P-injection and -j for a Q-injection.
Splitting every complex equation and unknown into real and imaginary parts
gives the square real system  H x = z  solved here.  Its left-hand side is
the linearisation of conj(S) that the load flow's Newton iteration
inverts, so H is ``loadflow.SparseJacobian`` at the operating point;
the realified ordering of rows and columns is stated in
``pfsc.loadflow``, and node k is the k-th non-slack node of the
ordering that ``pfsc.network`` states.
Columns of z: P-injection of node k at 2k, Q-injection at 2k+1.

Every column of z is a signed unit vector (+1 in the real row for a
P-injection, -1 in the imaginary row for a Q-injection), so z = diag(s)
for a sign vector s of alternating +1/-1.  The problem carries only s;
the solve is the column scaling x = H^-1 diag(s) and forms no z.  The
Monte-Carlo stacks, assembled from raw perturbed inputs rather than at
a point, are filled on H's pattern by ``loadflow.JacobianStack``
(``assemble_from_raw``) and solved against the signs, one independent
block of H at a time (``pfsc.montecarlo``).

Full table and targeted solves.  Given the positions in x of the
requested coefficients, ``solve_coefficients`` holds only the rows R and
columns C of x behind them.  A point's H is assembled once, as a CSC
matrix on Y's pattern (``SensitivityProblem.H_csc``).  When R and C
cover every row and column (or no positions are given) it solves the
whole table from a dense inverse of that H made dense.  When they leave
out a row or a column, it takes the targeted path, which never forms a
dense H: the CSC H is factored once by sparse LU
(``scipy.sparse.linalg.splu``), then H^-1[:, C] is solved with H and
H^-1[R, :] with H^T.  Each block, as the full table's H^-1, passes
the residual check max |H B - I| <= RESIDUAL_RTOL, with one step of
iterative refinement when it does not.  The factors clear H only when
||H||_1 (its largest column sum) times the 1-norm estimate of H^-1
(``onenormest`` with t = 1, which draws no random numbers) is at least
ESTIMATE_MARGIN times below COND_MAX / dim.  Any other H takes the
full-table path from the same CSC H, whose dense decision and checks are
the reference, and the result keeps the requested block.  The two paths
agree to rounding (about 1e-14 relative at 300 buses).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from scipy.sparse.linalg import LinearOperator, onenormest, splu

from .errors import ConfigError, SingularSystemError
from .loadflow import (
    GridState,
    JacobianStack,
    SparseJacobian,
    jacobian_derivative,
    solve_load_flow,
)
from .network import AdmittanceMatrix, NetworkModel, with_injections

RESIDUAL_RTOL = 1e-10
#: largest accepted 2-norm condition number of H
COND_MAX = 1e12
#: a 1-norm estimate clears H only this far below the exact bound
ESTIMATE_MARGIN = 10.0
P = "P"
Q = "Q"
PARTS = ("re", "im")  # row offset within a node's row pair
INJECTIONS = (P, Q)  # column offset within a node's column pair


def _offset(name, value, allowed):
    if value not in allowed:
        raise ConfigError(f"{name} must be one of {allowed}, not {value!r}")
    return allowed.index(value)


@dataclass(frozen=True)
class SensitivityProblem:
    """The real linear system H x = z for all voltage sensitivities, at
    the ``point`` (Y, E) that H is the Newton matrix at, with Y an
    ``AdmittanceMatrix`` on its pattern.

    H is assembled once, when first read: ``H_csc`` on Y's pattern by
    ``loadflow.SparseJacobian``, with the product Y E summed over that
    pattern (``AdmittanceMatrix.dot``), and ``H`` is that matrix made
    dense.  ``dH``, the derivative of H with respect to its inputs, is
    derived once, when first read.  ``assemble_problem`` makes a problem.
    """

    signs: np.ndarray  # (2n,); diagonal of z: +1 at 2k (P), -1 at 2k+1 (Q)
    network: NetworkModel  # owner of the node ordering
    point: tuple = field(repr=False)  # (Y, E)

    @functools.cached_property
    def H(self):
        """Dense H, (2n, 2n) with n = p*(N_b - 1): ``H_csc`` made dense."""
        return self.H_csc.toarray()

    @functools.cached_property
    def H_csc(self):
        """H as a CSC matrix on Y's pattern."""
        Y, E = self.point
        return SparseJacobian(Y, self.nonslack)(E, Y.dot(E))

    @functools.cached_property
    def dH(self):
        """dH/d(input) at the point (``loadflow.JacobianDerivative``), with
        the stored entries of Y as the admittance inputs."""
        Y, E = self.point
        return jacobian_derivative(Y, E, self.nonslack)

    @property
    def dim(self):
        """Rows (and columns) of H: twice the number of non-slack nodes."""
        return len(self.signs)

    @property
    def z(self):
        """Dense right-hand side diag(signs); columns are signed unit vectors."""
        return np.diag(self.signs)

    @property
    def nonslack(self):
        """Flat node indices of the unknowns, in order."""
        return self.network.nonslack_flat_indices()

    def node_of(self, bus_index, phase=0):
        """Position within ``nonslack`` of a (bus, phase) pair."""
        return self.nonslack.index(self.network.flat_index(bus_index, phase))

    def row(self, bus_index, phase=0, part="re"):
        k = self.node_of(bus_index, phase)
        return 2 * k + _offset("part", part, PARTS)

    def column(self, bus_index, phase=0, wrt=P):
        k = self.node_of(bus_index, phase)
        return 2 * k + _offset("wrt", wrt, INJECTIONS)


@dataclass(frozen=True)
class SensitivityResult:
    """Solved coefficients with complex accessors.

    ``rows`` and ``cols`` are the sorted positions of the full table held:
    ``x`` is x[rows][:, cols], ``H_inv_rows`` is H^-1[rows, :] and
    ``H_inv_cols`` is H^-1[:, cols].  A full-table solve holds every row
    and column, and both inverse blocks are then the one array H^-1.
    """

    x: np.ndarray
    H_inv_rows: np.ndarray
    H_inv_cols: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    problem: SensitivityProblem

    @property
    def H_inv(self):
        """The full H^-1; only a full-table solve holds it."""
        if self.H_inv_rows is not self.H_inv_cols:
            raise ValueError("a targeted solve holds only blocks of H^-1")
        return self.H_inv_rows

    def block_index(self, rows, cols):
        """Positions in x (and in every table aligned with x) of the
        full-table positions ``rows``, ``cols``.  A position outside
        [0, dim), or one that a targeted solve does not hold, raises
        ValueError."""
        dim = self.problem.dim
        return _positions(self.rows, rows, dim), _positions(self.cols, cols, dim)

    def derivative(self, bus_i, bus_l, phase_i=0, phase_l=0, wrt=P):
        """dE(bus_i, phase_i)/d{P or Q}(bus_l, phase_l) as a complex number."""
        pr = self.problem
        k = pr.node_of(bus_i, phase_i)
        r, c = self.block_index([2 * k, 2 * k + 1], [pr.column(bus_l, phase_l, wrt)])
        return complex(self.x[r[0], c[0]] + 1j * self.x[r[1], c[0]])


def _positions(held, wanted, dim):
    """Positions within the sorted ``held`` of the entries of ``wanted``."""
    wanted = _in_range(wanted, dim)
    if len(held) == dim:  # every position held: the identity
        return wanted
    where = np.full(dim, -1)
    where[held] = np.arange(len(held))
    out = where[wanted]
    if np.any(out < 0):
        raise ValueError("coefficient not held by this targeted solve")
    return out


def assemble_problem(
    Y: AdmittanceMatrix, state: GridState, network: NetworkModel
) -> SensitivityProblem:
    """H and z at the load-flow operating point ``state``.

    H is assembled when the solve reads it, as CSC on Y's pattern (see
    ``SensitivityProblem``).
    """
    E = state.voltages
    n = len(_checked_nonslack(Y.shape, E, network))
    return SensitivityProblem(_rhs_signs(n), network, (Y, E))


class RawSystem(NamedTuple):
    """A stack of H as views of its diagonal blocks (``JacobianStack``),
    and the signs s of the z = diag(s) it is solved against."""

    blocks: list
    signs: np.ndarray

    @property
    def H(self):
        """The dense H (or stack of H) of a one-block stack, the default."""
        (H,) = self.blocks
        return H

    @property
    def z(self):
        """The dense z."""
        return np.diag(self.signs)


def assemble_from_raw(
    Ym: np.ndarray,
    E: np.ndarray,
    network: NetworkModel,
    fill: JacobianStack | None = None,
    out: np.ndarray | None = None,
    K: np.ndarray | None = None,
) -> RawSystem:
    """H at raw inputs, filled on its pattern by ``loadflow.JacobianStack``,
    and the signs of z = diag(signs).

    Used, with perturbed inputs, by the Monte-Carlo trials.  Leading axes
    of ``Ym`` and ``E`` (..., m) broadcast: a stack of inputs gives a
    stack of H, each slice equal to its own assembly; the signs are
    shared by every slice.  Without ``fill``, ``Ym`` is dense,
    (..., m, m), a stack is laid out for the entries nonzero in some
    slice of it, and its blocks are put together in the network's order:
    one block ``H``, (..., 2n, 2n) (``JacobianStack.dense``).  With
    ``fill``, a stack laid out for positions that hold every entry any
    slice of Y has nonzero and for the network's unknowns, ``Ym`` holds
    each Y's entries at ``fill``'s positions, (..., L), ``K`` the
    products (Y E) at ``fill.nodes``, (..., n), and ``out`` the buffer
    to fill, if any: H is held as the diagonal blocks that ``fill`` lays
    out, each (..., d, d), and no dense Y is read
    (``JacobianStack.on_pattern``).  A Monte-Carlo pass lays out one
    ``fill`` per noise pattern and calls it so.
    """
    if fill is None:
        nonslack = _checked_nonslack(Ym.shape, E, network)
        nonzero = Ym.reshape(-1, Ym.shape[-1] ** 2).any(axis=0)
        stack = JacobianStack(np.flatnonzero(nonzero), nonslack, network.n_nodes)
        return RawSystem([stack.dense(Ym, E)], _rhs_signs(len(nonslack)))
    nonslack = _checked_nonslack((network.n_nodes,) * 2, E, network)
    return RawSystem(fill.on_pattern(Ym, E, K, out), _rhs_signs(len(nonslack)))


def _checked_nonslack(shape, E, network):
    """The non-slack flat indices, once the ``shape`` of Y (or of a stack
    of Y) and that of E are checked against them."""
    m = network.n_nodes
    if shape[-2:] != (m, m) or E.shape[-1:] != (m,):
        raise ValueError(
            f"dimension mismatch: Y {shape}, E {E.shape}, nodes {m}"
        )
    return network.nonslack_flat_indices()


@functools.lru_cache(maxsize=8)
def _rhs_signs(n):
    """Diagonal of z for n non-slack nodes; read-only, shared between calls
    so that Monte-Carlo trials do not rebuild it."""
    signs = np.ones(2 * n)  # P-injection: rhs = 1
    signs[1::2] = -1.0  # Q-injection: rhs = -j
    signs.flags.writeable = False
    return signs


def solve_coefficients(
    problem: SensitivityProblem, rows=None, cols=None
) -> SensitivityResult:
    """Solve x = H^-1 z, exposing H^-1 (or the blocks of it that the
    request needs) for error propagation.

    ``rows`` and ``cols`` are the positions in x of the requested
    coefficients, as ``report.coefficient_positions`` returns them; None
    requests every row (column); a position outside [0, dim) raises
    ValueError.  The result holds the rows R and columns C those
    positions touch.  When R or C leaves out a row or a column of
    x, the targeted path runs: one sparse LU of H gives H^-1[R, :] and
    H^-1[:, C], each within the residual bound RESIDUAL_RTOL (after one
    refinement step if needed), and H is cleared when ||H||_1 times the
    t = 1 estimate of ||H^-1||_1 is at most COND_MAX / (ESTIMATE_MARGIN
    dim).  An H it cannot clear, and every full request, take the full
    table path below; its values agree with the targeted ones to rounding.

    Systems with cond_2(H) > COND_MAX are rejected.  Because
    cond_2 <= dim * cond_1, the exact 1-norm condition number from the
    inverse (O(n^2) once H^-1 exists) clears every H with
    cond_1 <= COND_MAX / dim; only the others pay for the SVD behind
    np.linalg.cond, so the decision is that of the 2-norm gate alone.
    """
    s, dim = problem.signs, problem.dim
    check_nonempty(dim)
    R, C = _held(rows, dim), _held(cols, dim)
    targeted = len(R) < dim or len(C) < dim
    blocks = _inverse_blocks(problem.H_csc, R, C) if targeted else None
    if blocks is not None:
        H_inv_rows, H_inv_cols = blocks
        x = H_inv_cols[R] * s[C] + 0.0
        return SensitivityResult(x, H_inv_rows, H_inv_cols, R, C, problem)

    H = problem.H
    try:
        H_inv = np.linalg.inv(H)
        cond_1 = np.linalg.norm(H, 1) * np.linalg.norm(H_inv, 1)
    except np.linalg.LinAlgError:
        H_inv, cond_1 = None, np.inf
    if not cond_1 <= COND_MAX / dim:
        cond = np.linalg.cond(H)
        if H_inv is None or not np.isfinite(cond) or cond > COND_MAX:
            raise SingularSystemError(
                f"Jacobian not invertible (condition number {cond:.3e})"
            )
    full = np.arange(dim)
    H_inv = _refined(H, functools.partial(np.matmul, H_inv), full, H_inv)
    # H^-1 diag(s) as a column scaling; adding 0.0 turns the -0.0 of a zero
    # entry times -1 into +0.0, as the matrix product did
    x = H_inv * s + 0.0
    if targeted:  # H the estimate could not clear: keep the requested block
        return SensitivityResult(x[np.ix_(R, C)], H_inv[R], H_inv[:, C], R, C, problem)
    return SensitivityResult(x, H_inv, H_inv, full, full, problem)


def check_nonempty(dim):
    """Raise ConfigError for an empty H: a network of slack nodes only."""
    if dim == 0:
        raise ConfigError("the network has no non-slack node, so no coefficient to solve")


def _held(positions, dim):
    """Sorted distinct entries of ``positions``; every position for None."""
    if positions is None:
        return np.arange(dim)
    held = np.zeros(dim, dtype=bool)
    held[_in_range(positions, dim)] = True
    return np.flatnonzero(held)


def _in_range(positions, dim):
    """``positions`` as an index array; ValueError unless each is in [0, dim)."""
    positions = np.asarray(positions, dtype=np.intp)
    if np.any((positions < 0) | (positions >= dim)):
        raise ValueError(f"coefficient position outside [0, {dim})")
    return positions


def _inverse_blocks(A, R, C):
    """(H^-1[R, :], H^-1[:, C]) from one sparse LU of H, given as the CSC
    matrix ``A``, or None when the 1-norm estimate cannot clear H (see
    the module docstring)."""
    dim = A.shape[0]
    try:
        lu = splu(A)
    except RuntimeError:  # SuperLU met an exactly zero pivot
        return None
    solve_T = lambda b: lu.solve(b, trans="T")  # noqa: E731
    inverse = LinearOperator(A.shape, matvec=lu.solve, rmatvec=solve_T, dtype=A.dtype)
    norm_1 = abs(A).sum(axis=0).max()  # largest column sum of |H|
    cond_est = norm_1 * onenormest(inverse, t=1)
    if not cond_est <= COND_MAX / (ESTIMATE_MARGIN * dim):
        return None
    return _refined(A.T, solve_T, R).T, _refined(A, lu.solve, C)


def _refined(A, solve, idx, B=None):
    """Columns ``idx`` of A^-1 under the residual bound: ``B``, or by
    default ``solve`` (a solve with A, or a product with an approximate
    A^-1) of those identity columns.

    The residual A B - I[:, idx] is formed in place on the identity
    entries of A B; above RESIDUAL_RTOL, one refinement step updates B in
    place, and a residual still above it raises SingularSystemError.
    """
    diagonal = idx, np.arange(len(idx))
    if B is None:
        B = np.zeros((A.shape[0], len(idx)))
        B[diagonal] = 1.0
        B = solve(B)
    for refine in (True, False):
        residual = A @ B
        residual[diagonal] -= 1.0
        worst = np.max(np.abs(residual), initial=0.0)
        if worst <= RESIDUAL_RTOL:
            return B
        if refine:
            B -= solve(residual)
    raise SingularSystemError(f"solve residual {worst:.3e} exceeds tolerance")


def finite_difference_oracle(
    network: NetworkModel,
    Y: AdmittanceMatrix,
    bus_index,
    phase=0,
    which=P,
    h=1e-5,
    state: GridState | None = None,
):
    """Central-difference voltage derivatives from two full load flows.

    Perturbs the chosen injection by +/- h (per-unit) and returns
    (E(+h) - E(-h)) / 2h for every node/phase.  Independent of the
    linear-system path; used to validate it.
    """
    if h == 0:
        raise ValueError("degenerate step h = 0")
    s0 = network.injections_pu()
    flat = network.flat_index(bus_index, phase)
    delta = (h, 1j * h)[_offset("which", which, INJECTIONS)]
    shifted = []
    for sign in (+1, -1):
        s = s0.copy()
        s[flat] += sign * delta
        st = solve_load_flow(with_injections(network, s), Y, initial=state)
        shifted.append(st.voltages)
    return (shifted[0] - shifted[1]) / (2.0 * h)
