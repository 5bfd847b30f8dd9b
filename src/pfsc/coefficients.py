"""Voltage sensitivity coefficients from the admittance matrix and grid state.

Differentiating the nodal power balance S_i = E_i * conj((Y E)_i) with
respect to an active or reactive injection at a non-slack node yields, for
each equation node i and each unknown derivative u_n = dE_n/dP (or dQ):

    indicator(i == l) * rhs = K_i * conj(u_i) + conj(E_i) * sum_n Y_in u_n

with K_i = (Y E)_i, rhs = 1 for a P-injection and -j for a Q-injection.
Splitting every complex equation and unknown into real and imaginary parts
gives the square real system  H x = z  solved here.  Its left-hand side is
the linearisation of conj(S) that the load flow's Newton iteration
inverts, so H is ``loadflow.jacobian`` at the operating point; the
realified ordering of rows and columns is stated there.  Columns of z:
P-injection of node k at 2k, Q-injection at 2k+1.

Every column of z is a signed unit vector (+1 in the real row for a
P-injection, -1 in the imaginary row for a Q-injection), so z = diag(s)
for a sign vector s of alternating +1/-1.  The problem carries only s;
the solve is the column scaling x = H^-1 diag(s), and the dense z is
derived on request.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, SingularSystemError
from .loadflow import GridState, jacobian, solve_load_flow
from .network import AdmittanceMatrix, NetworkModel, with_injections

RESIDUAL_RTOL = 1e-10
#: largest accepted 2-norm condition number of H
COND_MAX = 1e12
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
    """The real linear system H x = z for all voltage sensitivities."""

    H: np.ndarray  # (2n, 2n) with n = p*(N_b - 1); (..., 2n, 2n) for a stack
    signs: np.ndarray  # (2n,); diagonal of z: +1 at 2k (P), -1 at 2k+1 (Q)
    nonslack: tuple[int, ...]  # flat node indices kept, in order
    phase_count: int
    bus_indices: tuple[int, ...]

    @property
    def z(self):
        """Dense right-hand side diag(signs); columns are signed unit vectors."""
        return np.diag(self.signs)

    def node_of(self, bus_index, phase=0):
        """Position within ``nonslack`` of a (bus, phase) pair."""
        flat = self.bus_indices.index(bus_index) * self.phase_count + phase
        return self.nonslack.index(flat)

    def row(self, bus_index, phase=0, part="re"):
        k = self.node_of(bus_index, phase)
        return 2 * k + _offset("part", part, PARTS)

    def column(self, bus_index, phase=0, wrt=P):
        k = self.node_of(bus_index, phase)
        return 2 * k + _offset("wrt", wrt, INJECTIONS)


@dataclass(frozen=True)
class SensitivityResult:
    """Solved coefficients with complex accessors."""

    x: np.ndarray
    H_inv: np.ndarray
    problem: SensitivityProblem
    voltages: np.ndarray = field(repr=False, default=None)

    def derivative(self, bus_i, bus_l, phase_i=0, phase_l=0, wrt=P):
        """dE(bus_i, phase_i)/d{P or Q}(bus_l, phase_l) as a complex number."""
        pr = self.problem
        col = pr.column(bus_l, phase_l, wrt)
        k = pr.node_of(bus_i, phase_i)
        return complex(self.x[2 * k, col] + 1j * self.x[2 * k + 1, col])

    def magnitude_derivative(self, bus_i, bus_l, phase_i=0, phase_l=0, wrt=P):
        """d|E_i|/d{P or Q}_l, from the complex derivative and the voltage."""
        if self.voltages is None:
            raise ValueError("no operating-point voltages attached")
        pr = self.problem
        flat = pr.bus_indices.index(bus_i) * pr.phase_count + phase_i
        e = self.voltages[flat]
        d = self.derivative(bus_i, bus_l, phase_i, phase_l, wrt)
        return (e.real * d.real + e.imag * d.imag) / abs(e)


def assemble_problem(
    Y: AdmittanceMatrix, state: GridState, network: NetworkModel
) -> SensitivityProblem:
    """Build H and z at a converged operating point."""
    if not state.converged:
        raise ValueError("operating point is not converged")
    E = state.voltages
    return assemble_from_raw(Y.matrix, E, network)


def assemble_from_raw(
    Ym: np.ndarray, E: np.ndarray, network: NetworkModel
) -> SensitivityProblem:
    """Pack ``loadflow.jacobian`` and the signs of z into a SensitivityProblem.

    Used by assemble_problem and, with perturbed inputs, by the
    Monte-Carlo trials.  Leading axes of ``Ym`` (..., m, m) and ``E``
    (..., m) broadcast: a stack of inputs gives a stack of H of shape
    (..., 2n, 2n), each slice bitwise equal to its own assembly.
    """
    m = network.n_nodes
    if Ym.shape[-2:] != (m, m) or E.shape[-1:] != (m,):
        raise ValueError(
            f"dimension mismatch: Y {Ym.shape}, E {E.shape}, nodes {m}"
        )
    nonslack = network.nonslack_flat_indices()
    return SensitivityProblem(
        H=jacobian(Ym, E, nonslack),
        signs=_rhs_signs(len(nonslack)),
        nonslack=nonslack,
        phase_count=network.phase_count,
        bus_indices=tuple(b.index for b in network.buses),
    )


@functools.lru_cache(maxsize=8)
def _rhs_signs(n):
    """Diagonal of z for n non-slack nodes; read-only, shared between calls
    so that Monte-Carlo trials do not rebuild it."""
    signs = np.ones(2 * n)  # P-injection: rhs = 1
    signs[1::2] = -1.0  # Q-injection: rhs = -j
    signs.flags.writeable = False
    return signs


def solve_coefficients(
    problem: SensitivityProblem, voltages=None
) -> SensitivityResult:
    """Solve x = H^-1 z, exposing H^-1 explicitly for error propagation.

    Systems with cond_2(H) > COND_MAX are rejected.  Because
    cond_2 <= dim * cond_1, the exact 1-norm condition number from the
    inverse (O(n^2) once H^-1 exists) clears every H with
    cond_1 <= COND_MAX / dim; only the others pay for the SVD behind
    np.linalg.cond, so the decision is that of the 2-norm gate alone.
    """
    H, s = problem.H, problem.signs
    try:
        H_inv = np.linalg.inv(H)
        cond_1 = np.linalg.norm(H, 1) * np.linalg.norm(H_inv, 1)
    except np.linalg.LinAlgError:
        H_inv, cond_1 = None, np.inf
    if not cond_1 <= COND_MAX / H.shape[0]:
        cond = np.linalg.cond(H)
        if H_inv is None or not np.isfinite(cond) or cond > COND_MAX:
            raise SingularSystemError(
                f"Jacobian not invertible (condition number {cond:.3e})"
            )
    # H^-1 diag(s) as a column scaling; adding 0.0 turns the -0.0 of a zero
    # entry times -1 into +0.0, as the matrix product did
    x = H_inv * s + 0.0
    z = problem.z
    residual = np.max(np.abs(H @ x - z))
    if residual > RESIDUAL_RTOL * np.max(np.abs(z)):
        # one step of iterative refinement keeps the residual bound honest
        x += H_inv @ (z - H @ x)
        residual = np.max(np.abs(H @ x - z))
        if residual > RESIDUAL_RTOL * np.max(np.abs(z)):
            raise SingularSystemError(
                f"solve residual {residual:.3e} exceeds tolerance"
            )
    return SensitivityResult(x=x, H_inv=H_inv, problem=problem, voltages=voltages)


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
