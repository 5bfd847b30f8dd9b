import numpy as np
import pytest
from scipy import optimize
from scipy.sparse import csc_matrix
from scipy.sparse.linalg import splu

import pfsc
from pfsc.errors import LoadFlowError
from pfsc.loadflow import (
    GridState,
    JacobianStack,
    SparseJacobian,
    nodal_power,
    solve_load_flow,
)
from pfsc.network import dense, stamp_admittance

from conftest import make_feeder, make_random_network, make_three_phase_balanced, make_two_bus
from oracles import jacobian

FEEDERS = {
    "ieee4": lambda: pfsc.load_network(pfsc.bundled_network_path()),
    "three-phase": make_three_phase_balanced,
    "mesh12-seed3": lambda: make_random_network(12, 3, radial=False),
    "mesh12-seed8": lambda: make_random_network(12, 8, radial=False),
}
#: FEEDERS and one larger meshed feeder
SPARSE_FEEDERS = {**FEEDERS, "mesh60-seed1": lambda: make_random_network(60, 1, radial=False)}


def realify(z):
    """Interleave real and imaginary parts: [Re z0, Im z0, Re z1, ...]."""
    return np.column_stack((z.real, z.imag)).ravel()


def test_nodal_power_flat_lossless(two_bus):
    Y = pfsc.build_admittance(two_bus)
    s = nodal_power(np.array([1.0 + 0j, 1.0 + 0j]), Y)
    np.testing.assert_allclose(s, 0.0, atol=1e-15)


def test_nodal_power_hand_value(two_bus):
    # S_2 = 0.95 * conj(10j*1 - 10j*0.95) = -0.475j
    Y = pfsc.build_admittance(two_bus)
    s = nodal_power(np.array([1.0 + 0j, 0.95 + 0j]), Y)
    assert s[1] == pytest.approx(-0.475j, abs=1e-15)


def test_nodal_power_dimension_mismatch(two_bus):
    Y = pfsc.build_admittance(two_bus)
    with pytest.raises(ValueError, match="dimension mismatch"):
        nodal_power(np.ones(3, dtype=complex), Y)


def test_zero_injection_flat_solution():
    net = make_two_bus(p2_kw=0.0, q2_kvar=0.0)
    Y = pfsc.build_admittance(net)
    state = solve_load_flow(net, Y)
    np.testing.assert_allclose(state.voltages, 1.0 + 0j, atol=1e-12)


def test_ieee4_voltage_profile(ieee4_solved):
    net, Y, state = ieee4_solved
    mags = np.abs(state.voltages)
    assert np.all((mags > 0.9) & (mags < 1.05))


def test_monotone_drop_under_net_load(ieee4):
    # strip the PV units: every non-slack bus becomes a pure load
    from dataclasses import replace

    from pfsc.network import Bus

    buses = tuple(
        b if b.kind == "slack" else Bus(b.index, "pq", (-300.0,), (-150.0,))
        for b in ieee4.buses
    )
    loaded = replace(ieee4, buses=buses)
    Y = pfsc.build_admittance(loaded)
    state = solve_load_flow(loaded, Y)
    mags = np.abs(state.voltages)
    assert np.all(np.diff(mags) < 0.0)


def test_fixed_point(ieee4_solved):
    net, Y, state = ieee4_solved
    s = nodal_power(state.voltages, Y)
    spec = net.injections_pu()
    pq = [i for i in range(net.n_nodes) if i not in net.slack_flat_indices()]
    assert np.max(np.abs(s[pq] - spec[pq])) <= 1e-8


def test_slack_voltage_untouched(ieee4_solved):
    net, Y, state = ieee4_solved
    assert state.voltages[net.flat_index(1)] == net.slack_voltage_pu


def test_cross_check_with_independent_solver(ieee4_solved):
    # generic root finder on the power mismatch, no Newton machinery shared
    net, Y, state = ieee4_solved
    Ym = Y.matrix
    spec = net.injections_pu()
    slack = net.slack_flat_indices()
    pq = [i for i in range(net.n_nodes) if i not in slack]

    def residual(v):
        E = np.empty(net.n_nodes, dtype=complex)
        E[slack] = net.slack_voltage_pu
        E[pq] = v[: len(pq)] + 1j * v[len(pq) :]
        mis = spec - E * np.conj(Ym @ E)
        return np.concatenate([mis[pq].real, mis[pq].imag])

    v0 = np.concatenate([np.ones(len(pq)), np.zeros(len(pq))])
    sol = optimize.fsolve(residual, v0, full_output=False, xtol=1e-12)
    E_ref = sol[: len(pq)] + 1j * sol[len(pq) :]
    np.testing.assert_allclose(state.voltages[pq], E_ref, atol=1e-9)


def test_absurd_load_does_not_converge():
    net = make_two_bus(p2_kw=-1e3 * 1e3)  # 1e3 pu on the 1 MVA base
    Y = pfsc.build_admittance(net)
    with pytest.raises(LoadFlowError) as excinfo:
        solve_load_flow(net, Y)
    assert excinfo.value.mismatch is not None


def test_deterministic(ieee4):
    Y = pfsc.build_admittance(ieee4)
    a = solve_load_flow(ieee4, Y)
    b = solve_load_flow(ieee4, Y)
    assert np.array_equal(a.voltages, b.voltages)


@pytest.mark.parametrize("feeder", sorted(FEEDERS))
def test_jacobian_matches_central_difference(feeder):
    # conj(S) is quadratic in (Re E, Im E), so the central difference is
    # exact up to rounding (about 1e-12 relative here); the bound is tight
    # enough to see an error of 1e-4 in the small diag(Y E) terms
    net = FEEDERS[feeder]()
    Y = pfsc.build_admittance(net)
    E = solve_load_flow(net, Y).voltages
    ns = np.array(net.nonslack_flat_indices())
    H = jacobian(Y.matrix, E, ns)
    rng = np.random.default_rng(5)
    h = 1e-4
    for _ in range(4):
        delta = rng.standard_normal(2 * len(ns))
        step = np.zeros_like(E)
        step[ns] = h * (delta[0::2] + 1j * delta[1::2])
        plus = np.conj(nodal_power(E + step, Y))[ns]
        minus = np.conj(nodal_power(E - step, Y))[ns]
        fd = realify(plus - minus) / (2 * h)
        lin = H @ delta
        assert np.linalg.norm(fd - lin) <= 1e-9 * np.linalg.norm(lin)


def _jacobian_dense_b(Ym, E, nonslack):
    """The former assembly: diag(Y E) as a dense complex B added to all four blocks."""
    ns = np.asarray(nonslack, dtype=np.intp)
    n = len(ns)
    K = (Ym @ E[..., None])[..., 0]
    A = np.conj(E[..., ns, None]) * Ym[..., ns[:, None], ns]
    B = np.zeros(A.shape, dtype=complex)
    B[..., np.arange(n), np.arange(n)] = K[..., ns]
    H = np.empty(A.shape[:-2] + (2 * n, 2 * n))
    H[..., 0::2, 0::2] = A.real + B.real
    H[..., 0::2, 1::2] = -A.imag + B.imag
    H[..., 1::2, 0::2] = A.imag + B.imag
    H[..., 1::2, 1::2] = A.real - B.real
    return H


@pytest.mark.parametrize("feeder", sorted(FEEDERS))
def test_jacobian_matches_dense_b_form(feeder):
    # equal under ==, single and stacked; the sign of a zero entry is not
    # pinned (adding the dense form's zero B turned -0.0 into +0.0)
    net = FEEDERS[feeder]()
    Y = pfsc.build_admittance(net)
    E = solve_load_flow(net, Y).voltages
    ns = net.nonslack_flat_indices()
    rng = np.random.default_rng(2)
    Y_k = Y.matrix + 1e-3 * rng.standard_normal((3,) + Y.matrix.shape)
    E_k = E + 1e-3 * rng.standard_normal((3,) + E.shape)
    for Ym, E_ in ((Y.matrix, E), (Y_k, E_k), (Y_k, E)):
        assert np.array_equal(jacobian(Ym, E_, ns), _jacobian_dense_b(Ym, E_, ns))


def _sequential_product(Y, E):
    """Y E summed one stored entry of Y at a time, in position order."""
    m = Y.n_nodes
    YE = np.zeros(m, dtype=complex)
    for r, term in zip(Y.positions // m, Y.values * E[Y.positions % m]):
        YE[r] += term
    return YE


def _reference_jacobian(E, Ym, K, pq):
    """Jacobian of [Re S; Im S] w.r.t. [Re E; Im E], built apart from
    ``jacobian``, with K = Y E."""
    n = len(pq)
    A = np.conj(K[pq, None]) * np.eye(len(E))[pq][:, pq]
    B = E[pq, None] * np.conj(Ym[np.ix_(pq, pq)])
    J = np.empty((2 * n, 2 * n))
    J[0::2, 0::2] = A.real + B.real
    J[0::2, 1::2] = -A.imag + B.imag
    J[1::2, 0::2] = A.imag + B.imag
    J[1::2, 1::2] = A.real - B.real
    return J


def _reference_load_flow(net, Y, tol=1e-8, max_iter=50):
    """Newton-Raphson on S itself, with its own Jacobian, from a flat start."""
    Ym = Y.matrix
    slack = net.slack_flat_indices()
    pq = [i for i in range(net.n_nodes) if i not in slack]
    s_spec = net.injections_pu()
    E = np.tile(net.slack_voltage_phasors(), net.n_bus)
    for it in range(1, max_iter + 1):
        YE = _sequential_product(Y, E)
        mismatch = s_spec - E * np.conj(YE)
        mismatch[slack] = 0.0
        if np.max(np.abs(mismatch)) <= tol:
            return E, it - 1, mismatch
        rhs = np.empty(2 * len(pq))
        rhs[0::2] = mismatch[pq].real
        rhs[1::2] = mismatch[pq].imag
        step = splu(csc_matrix(_reference_jacobian(E, Ym, YE, pq))).solve(rhs)
        E[pq] += step[0::2] + 1j * step[1::2]
    raise AssertionError("reference load flow did not converge")


@pytest.mark.parametrize("feeder", sorted(FEEDERS))
def test_load_flow_matches_reference_newton_bitwise(feeder):
    # the Newton matrix of conj(S) is that of S with its odd rows negated,
    # on the same sparsity pattern; SuperLU's ordering reads the pattern
    # only, and its pivoting and rounding are sign-symmetric, so every
    # iterate is equal
    net = FEEDERS[feeder]()
    Y = pfsc.build_admittance(net)
    state = solve_load_flow(net, Y)
    E, iterations, mismatch = _reference_load_flow(net, Y)
    assert state.iterations == iterations
    assert state.voltages.tobytes() == E.tobytes()
    assert state.mismatch.tobytes() == mismatch.tobytes()


@pytest.mark.parametrize("feeder", sorted(SPARSE_FEEDERS))
def test_sparse_jacobian_equals_dense(feeder):
    # every entry under ==, at the solution and at a perturbed point that
    # refills the same matrix; the stored pattern is Y's, with the diagonal
    net = SPARSE_FEEDERS[feeder]()
    Y = pfsc.build_admittance(net)
    E = solve_load_flow(net, Y).voltages
    ns = net.nonslack_flat_indices()
    sparse = SparseJacobian(Y, ns)
    rng = np.random.default_rng(4)
    for E_ in (E, E + 1e-3 * rng.standard_normal(E.shape)):
        H = sparse(E_, (Y.matrix @ E_[:, None])[:, 0])
        assert H is sparse.matrix and H.has_canonical_format
        assert np.array_equal(H.toarray(), jacobian(Y.matrix, E_, ns))
    linked = Y.matrix[np.ix_(ns, ns)] != 0
    assert H.nnz == 4 * np.count_nonzero(linked | np.eye(len(ns), dtype=bool))


STACK_FEEDERS = {
    "ieee4": FEEDERS["ieee4"],
    "mesh12-seed3": FEEDERS["mesh12-seed3"],
    "feeder60-seed1": lambda: make_feeder(60, 1),
}


def _perturbed_stacks(net, Y, rng, k=3):
    """``(positions, Y stack)`` of the three kinds of Monte-Carlo stack:
    Y's entries perturbed on its pattern, Y stamped from perturbed branch
    impedances on the stamp's positions, and every entry perturbed, the
    zeros of Y too."""
    m = net.n_nodes
    z = net.branch_table.z_ohm
    noise = rng.standard_normal((2, k, m, m))
    every = Y.matrix + 1e-3 * (noise[0] + 1j * noise[1])
    elements = np.where(Y.matrix != 0, every, 0.0)
    stamped = stamp_admittance(net, z * (1 + 1e-2 * rng.standard_normal((k,) + z.shape)))
    return {
        "elements": (Y.positions, elements),
        "branches": (stamped[0], dense(*stamped, m)),
        "every-entry": (np.arange(m * m), every),
    }


@pytest.mark.parametrize("feeder", sorted(STACK_FEEDERS))
def test_stack_fill_equals_dense_oracle(feeder):
    # every entry under ==, for stacks of Y with a stack of E, with one E
    # for the whole stack, and for one slice; entries off the pattern are
    # +0.0 in the fill, where the dense oracle may write -0.0
    net = STACK_FEEDERS[feeder]()
    Y = pfsc.build_admittance(net)
    E = solve_load_flow(net, Y).voltages
    ns = net.nonslack_flat_indices()
    rng = np.random.default_rng(6)
    noise = rng.standard_normal((2, 3) + E.shape)
    E_k = E + 1e-3 * (noise[0] + 1j * noise[1])
    for kind, (positions, Y_k) in _perturbed_stacks(net, Y, rng).items():
        fill = JacobianStack(positions, ns, net.n_nodes)
        for Ym, E_ in ((Y_k, E_k), (Y_k, E), (Y_k[0], E_k[0])):
            got, want = fill.dense(Ym, E_), jacobian(Ym, E_, ns)
            assert np.array_equal(got, want), kind
            assert got.tobytes() == (want + 0.0).tobytes(), kind


def test_stack_fill_in_blocks_equals_dense_oracle():
    # the unknowns of make_feeder(60, 1) in the order of its three
    # subtrees off the slack, blocks of 70, 46 and 2 rows: each block is
    # the oracle's H there, column-major in one stack of 7,020 values a
    # trial, and the oracle's H is zero off the blocks; a stack given as
    # ``out`` is zeroed and refilled in place
    net = make_feeder(60, 1)
    Y = pfsc.build_admittance(net)
    E = solve_load_flow(net, Y).voltages
    rng = np.random.default_rng(6)
    E_k = E + 1e-3 * rng.standard_normal((3,) + E.shape)
    positions, Y_k = _perturbed_stacks(net, Y, rng)["elements"]
    fill = JacobianStack(positions, net.nonslack_flat_indices(), net.n_nodes)
    sizes = [s.stop - s.start for s in fill.blocks]
    assert sizes == [70, 46, 2]
    assert fill.size == 70**2 + 46**2 + 2**2
    want = jacobian(Y_k, E_k, fill.nodes)
    inside = np.zeros(want.shape[-2:], dtype=bool)
    out = np.full(5 * fill.size, np.nan)
    for blocks in (fill(Y_k, E_k), fill(Y_k, E_k, out)):
        for H, s in zip(blocks, fill.blocks):
            assert H.shape == (3, s.stop - s.start, s.stop - s.start)
            assert H[0].flags.f_contiguous
            assert H.tobytes() == (want[:, s, s] + 0.0).tobytes()
            inside[s, s] = True
    assert not want[:, ~inside].any()
    assert np.isnan(out[3 * fill.size :]).all()


def _dense_load_flow(net, Y, tol=1e-8, max_iter=50):
    """The Newton loop on conj(S) with the dense ``jacobian`` and
    ``np.linalg.solve``, from a flat start."""
    Ym = Y.matrix
    slack = net.slack_flat_indices()
    pq = np.array(net.nonslack_flat_indices())
    s_spec = net.injections_pu()
    E = np.tile(net.slack_voltage_phasors(), net.n_bus)
    mismatch = s_spec - nodal_power(E, Y)
    mismatch[slack] = 0.0
    for it in range(1, max_iter + 1):
        if np.max(np.abs(mismatch)) <= tol:
            return E, it - 1
        rhs = np.empty(2 * len(pq))
        rhs[0::2] = mismatch[pq].real
        rhs[1::2] = -mismatch[pq].imag
        step = np.linalg.solve(jacobian(Ym, E, pq), rhs)
        E[pq] += step[0::2] + 1j * step[1::2]
        mismatch = s_spec - nodal_power(E, Y)
        mismatch[slack] = 0.0
    raise AssertionError("dense load flow did not converge")


def test_sparse_newton_matches_dense_newton():
    # the sparse and dense solves differ only in rounding
    net = make_random_network(200, 0, radial=False)
    Y = pfsc.build_admittance(net)
    state = solve_load_flow(net, Y)
    E, iterations = _dense_load_flow(net, Y)
    assert iterations > 3
    assert state.iterations == iterations
    np.testing.assert_allclose(state.voltages, E, rtol=1e-12, atol=0)


def test_singular_jacobian_is_load_flow_error():
    # from E2 = 0.5 on a lossless line, |conj(E2) Y22| = |(Y E)_2|: the
    # 2x2 Newton matrix [[0, 10], [0, 0]] is exactly singular
    net = make_two_bus(p2_kw=-50.0)
    Y = pfsc.build_admittance(net)
    start = GridState(np.array([1.0, 0.5 + 0j]), np.zeros(2, dtype=complex), 0)
    with pytest.raises(LoadFlowError, match="singular load-flow Jacobian at iteration 1"):
        solve_load_flow(net, Y, initial=start)
