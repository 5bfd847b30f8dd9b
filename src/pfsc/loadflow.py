"""AC load flow in rectangular complex coordinates, and its Newton matrix.

The solver produces the operating point (nodal voltage phasors) used both
as the linearization point for the sensitivity computation and as the
ground truth for Monte-Carlo noise studies.

``jacobian`` is the package's one linearisation of the power flow: the
real Newton matrix H of conj(S) = conj(E) * (Y E) with respect to the
non-slack voltages, d conj(S_i) = conj(E_i) (Y dE)_i + (Y E)_i conj(dE_i).
Realified ordering, for rows and columns alike and throughout the package:
the nodes of ``NetworkModel.nonslack_flat_indices`` (node ordering as
stated in ``pfsc.network``), the real part of node k at 2k and the
imaginary part at 2k + 1.  The load flow, the sensitivity system
H x = z and the Monte-Carlo trials all assemble H here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import LoadFlowError
from .network import AdmittanceMatrix, NetworkModel

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
    """Apparent power injected at each node/phase: S_i = E_i * conj((Y E)_i)."""
    Ym = Y.matrix
    E = np.asarray(voltages, dtype=complex)
    if Ym.shape != (E.size, E.size):
        raise ValueError(
            f"dimension mismatch: Y is {Ym.shape}, voltages length {E.size}"
        )
    return E * np.conj(Ym @ E)


def jacobian(Ym, E, nonslack):
    """Newton matrix H of conj(S) w.r.t. the non-slack voltages, (..., 2n, 2n).

    Leading axes of ``Ym`` (..., m, m) and ``E`` (..., m) broadcast: a
    stack of inputs gives a stack of H, each slice bitwise equal to its
    own assembly.  See the module docstring for the realified ordering.
    """
    ns = np.asarray(nonslack, dtype=np.intp)
    n = len(ns)
    K = (Ym @ E[..., None])[..., 0][..., ns]  # (Y E)_i, multiplies conj(dE_i)
    A = np.conj(E[..., ns, None]) * Ym[..., ns[:, None], ns]  # multiplies dE_n

    # d conj(S) = A dE + diag(K) conj(dE); realify with dE = dr + j di
    H = np.empty(A.shape[:-2] + (2 * n, 2 * n))
    H[..., 0::2, 0::2] = A.real
    H[..., 0::2, 1::2] = -A.imag
    H[..., 1::2, 0::2] = A.imag
    H[..., 1::2, 1::2] = A.real
    # diag(K) touches only the 2x2 diagonal blocks: entry (2k + a, 2k + b)
    # sits at offset k (4n + 2) + 2n a + b of each flattened slice
    flat = H.reshape(H.shape[:-2] + (-1,))
    step = 4 * n + 2
    flat[..., ::step] += K.real
    flat[..., 1::step] += K.imag
    flat[..., 2 * n :: step] += K.imag
    flat[..., 2 * n + 1 :: step] -= K.real
    return H


def solve_load_flow(
    network: NetworkModel,
    Y: AdmittanceMatrix,
    initial: GridState | None = None,
) -> GridState:
    """Newton-Raphson load flow with PQ buses and one slack bus.

    Converged once the largest power mismatch is at most DEFAULT_TOL.
    Raises LoadFlowError on non-convergence within DEFAULT_MAX_ITER
    iterations (carrying the last mismatch) or on a singular Jacobian.
    """
    Ym = Y.matrix
    slack = network.slack_flat_indices()
    pq = np.array(network.nonslack_flat_indices(), dtype=np.intp)
    s_spec = network.injections_pu()

    phasors = network.slack_voltage_phasors()
    E = np.tile(phasors, network.n_bus)  # flat start, phase-rotated per bus
    if initial is not None:
        E = initial.voltages.astype(complex).copy()
    E[slack] = phasors

    mismatch = s_spec - nodal_power(E, Y)
    mismatch[slack] = 0.0
    for it in range(1, DEFAULT_MAX_ITER + 1):
        if np.max(np.abs(mismatch)) <= DEFAULT_TOL:
            return GridState(voltages=E, mismatch=mismatch, iterations=it - 1)
        rhs = np.empty(2 * len(pq))  # realified conj(mismatch)
        rhs[0::2] = mismatch[pq].real
        rhs[1::2] = -mismatch[pq].imag
        try:
            step = np.linalg.solve(jacobian(Ym, E, pq), rhs)
        except np.linalg.LinAlgError as exc:
            raise LoadFlowError(
                f"singular load-flow Jacobian at iteration {it}", mismatch=mismatch
            ) from exc
        E[pq] += step[0::2] + 1j * step[1::2]
        mismatch = s_spec - nodal_power(E, Y)
        mismatch[slack] = 0.0

    raise LoadFlowError(
        f"load flow did not converge in {DEFAULT_MAX_ITER} iterations "
        f"(last max mismatch {np.max(np.abs(mismatch)):.3e} pu)",
        mismatch=mismatch,
    )
