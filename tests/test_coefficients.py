from dataclasses import dataclass

import numpy as np
import pytest

import pfsc
from pfsc.coefficients import (
    COND_MAX,
    SensitivityProblem,
    assemble_problem,
    finite_difference_oracle,
    solve_coefficients,
)
from pfsc.errors import ConfigError, SingularSystemError
from pfsc.network import AdmittanceMatrix, Bus, NetworkModel
from scipy.sparse import csc_matrix
from scipy.sparse.linalg import splu

from conftest import make_random_network, make_three_phase_balanced, make_two_bus
from oracles import magnitude_derivative


def solved(network):
    Y = pfsc.build_admittance(network)
    state = pfsc.solve_load_flow(network, Y)
    problem = assemble_problem(Y, state, network)
    return Y, state, problem, solve_coefficients(problem)


class TestAssemble:
    def test_two_bus_flat_hand_system(self, two_bus):
        # at the flat no-load point: K_2 = 0, A = conj(E2) Y22 = -10j,
        # so H = [[0, 10], [-10, 0]]
        Y, state, problem, _ = solved(two_bus)
        np.testing.assert_allclose(
            problem.H, np.array([[0.0, 10.0], [-10.0, 0.0]]), atol=1e-9
        )

    def test_z_column_structure(self, ieee4_solved):
        net, Y, state = ieee4_solved
        problem = assemble_problem(Y, state, net)
        for bus in (2, 3, 4):
            col = problem.z[:, problem.column(bus, wrt="P")]
            assert np.count_nonzero(col) == 1
            assert col[problem.row(bus, part="re")] == 1.0
            qcol = problem.z[:, problem.column(bus, wrt="Q")]
            assert np.count_nonzero(qcol) == 1
            assert qcol[problem.row(bus, part="im")] == -1.0
        assert set(np.unique(problem.z)) <= {-1.0, 0.0, 1.0}

    @pytest.mark.parametrize("part", ["Re", "x"])
    def test_row_rejects_unknown_part(self, ieee4_solved, part):
        net, Y, state = ieee4_solved
        problem = assemble_problem(Y, state, net)
        with pytest.raises(ConfigError, match=repr(part)):
            problem.row(2, part=part)

    @pytest.mark.parametrize("wrt", ["p", "x"])
    def test_column_rejects_unknown_injection(self, ieee4_solved, wrt):
        _, _, _, res = solved(ieee4_solved[0])
        with pytest.raises(ConfigError, match=repr(wrt)):
            res.problem.column(3, wrt=wrt)
        with pytest.raises(ConfigError, match=repr(wrt)):
            res.derivative(2, 3, wrt=wrt)

    @pytest.mark.parametrize(
        "other, message",
        [("Y", "dimension mismatch: Y (2, 2), E (4,), nodes 4"),
         ("state", "dimension mismatch: Y (4, 4), E (2,), nodes 4")],
    )
    def test_dimension_mismatch_refused(self, ieee4_solved, other, message):
        # Y or the voltages of the 2-bus network, at the 4-bus one
        net, Y, state = ieee4_solved
        two_bus = make_two_bus()
        Y_2 = pfsc.build_admittance(two_bus)
        if other == "Y":
            Y = Y_2
        else:
            state = pfsc.solve_load_flow(two_bus, Y_2)
        with pytest.raises(ValueError) as info:
            assemble_problem(Y, state, net)
        assert str(info.value) == message

    @pytest.mark.parametrize("three_phase", [False, True], ids=["ieee4", "three-phase"])
    def test_point_H_is_its_csc_H_made_dense(self, ieee4, three_phase, monkeypatch):
        # a point's H is assembled once, by SparseJacobian; the stack
        # fill assembles raw stacks only, and agrees entry by entry: bitwise
        # off the diagonal blocks, and within the rounding of K = Y E on
        # them (summed over Y's pattern at a point, dense in a stack)
        from pfsc import coefficients

        net = make_three_phase_balanced() if three_phase else ieee4
        Y = pfsc.build_admittance(net)
        state = pfsc.solve_load_flow(net, Y)
        problem = assemble_problem(Y, state, net)
        with monkeypatch.context() as patch:
            patch.setattr(coefficients, "JacobianStack", lambda *a: pytest.fail("stack fill"))
            solve_coefficients(problem)
        assert np.array_equal(problem.H, problem.H_csc.toarray())
        raw = coefficients.assemble_from_raw(Y.matrix, state.voltages, net)
        diagonal = np.kron(np.eye(problem.dim // 2), np.ones((2, 2))) == 1
        assert np.array_equal(problem.H[~diagonal], raw.H[~diagonal])
        np.testing.assert_array_max_ulp(problem.H[diagonal], raw.H[diagonal], maxulp=4)
        assert np.array_equal(raw.z, problem.z)
        # a dense Y reaches a point problem through its AdmittanceMatrix
        again = assemble_problem(AdmittanceMatrix(Y.matrix), state, net)
        assert np.array_equal(again.H, problem.H)

    def test_ieee4_H_well_conditioned(self, ieee4_solved):
        net, Y, state = ieee4_solved
        problem = assemble_problem(Y, state, net)
        assert np.isfinite(np.linalg.cond(problem.H))
        assert problem.H.shape == (6, 6)


class TestSolve:
    def test_two_bus_flat_hand_solution(self, two_bus):
        # lossless flat case: dE2/dP2 = jx, dE2/dQ2 = x
        _, _, _, res = solved(two_bus)
        assert res.derivative(2, 2, wrt="P") == pytest.approx(0.1j, abs=1e-12)
        assert res.derivative(2, 2, wrt="Q") == pytest.approx(0.1, abs=1e-12)

    def test_two_bus_with_resistance(self):
        # u solves conj(E2) y u = 1 at flat start, so dE2/dP2 = z = r + jx
        net = make_two_bus(x_pu=0.1, r_pu=0.03)
        _, _, _, res = solved(net)
        assert res.derivative(2, 2, wrt="P") == pytest.approx(
            0.03 + 0.1j, abs=1e-12
        )
        assert res.derivative(2, 2, wrt="Q") == pytest.approx(
            0.1 - 0.03j, abs=1e-12
        )

    def test_residual_bound(self, ieee4_solved):
        net, Y, state = ieee4_solved
        problem = assemble_problem(Y, state, net)
        res = solve_coefficients(problem)
        residual = np.max(np.abs(problem.H @ res.x - problem.z))
        assert residual <= 1e-10 * np.max(np.abs(problem.z))

    def test_slack_not_present(self, ieee4_solved):
        net, Y, state = ieee4_solved
        problem = assemble_problem(Y, state, net)
        res = solve_coefficients(problem)
        assert res.x.shape == (6, 6)
        with pytest.raises(ValueError):
            res.derivative(1, 2)  # slack bus excluded by construction

    def test_no_nonslack_node_is_config_error(self):
        net = NetworkModel(
            buses=(Bus(1, "slack"),), branches=(), phase_count=1, slack_bus=1,
            base_power_va=1e6, base_voltage_v=1e3,
        )
        Y = pfsc.build_admittance(net)
        problem = assemble_problem(Y, pfsc.solve_load_flow(net, Y), net)
        assert problem.H_csc.shape == (0, 0) and problem.H.shape == (0, 0)
        for request in ({}, {"rows": [], "cols": []}):
            with pytest.raises(ConfigError, match="no non-slack node"):
                solve_coefficients(problem, **request)

    def test_singular_H_raises(self, ieee4_solved):
        net, Y, state = ieee4_solved
        problem = assemble_problem(Y, state, net)
        singular = _GateProblem(np.zeros_like(problem.H))
        with pytest.raises(SingularSystemError, match="not invertible"):
            solve_coefficients(singular)

    def test_deterministic_bitwise(self, ieee4_solved):
        net, Y, state = ieee4_solved
        problem = assemble_problem(Y, state, net)
        a = solve_coefficients(problem)
        b = solve_coefficients(problem)
        assert np.array_equal(a.x, b.x)

    def test_three_phase_balanced_symmetry(self):
        # diagonal coefficients agree across phases once the 120-degree
        # slack rotation is divided out
        net = make_three_phase_balanced()
        _, _, _, res = solved(net)
        rot = net.slack_voltage_phasors()
        for bus_i in (2, 3, 4):
            base = res.derivative(bus_i, bus_i, 0, 0)
            for ph in (1, 2):
                d = res.derivative(bus_i, bus_i, ph, ph) / rot[ph]
                assert abs(d - base) / abs(base) < 1e-9


    @pytest.mark.parametrize("scale, refined", [(1 + 1e-7, True), (2.0, False)])
    def test_full_table_residual_check_and_refinement(self, ieee4_solved, monkeypatch,
                                                      scale, refined):
        # a dense inverse off by a relative ``scale - 1`` meets the same
        # refinement step as the targeted blocks: 1e-7 is repaired, 100 % is not
        net, Y, state = ieee4_solved
        problem = assemble_problem(Y, state, net)
        exact = np.linalg.inv(problem.H)
        inv = np.linalg.inv
        monkeypatch.setattr(np.linalg, "inv", lambda A: inv(A) * scale)
        if refined:
            res = solve_coefficients(problem)
            np.testing.assert_allclose(res.x, exact * problem.signs, rtol=1e-10)
            np.testing.assert_allclose(res.H_inv, exact, rtol=1e-10)
        else:
            with pytest.raises(SingularSystemError, match="solve residual"):
                solve_coefficients(problem)

    def test_full_table_forms_no_z(self, monkeypatch):
        net = make_random_network(12, 3, radial=False)
        Y = pfsc.build_admittance(net)
        problem = assemble_problem(Y, pfsc.solve_load_flow(net, Y), net)
        with monkeypatch.context() as patch:
            patch.setattr(SensitivityProblem, "z", property(lambda _: pytest.fail("dense z")))
            res = solve_coefficients(problem)
        residual = np.max(np.abs(problem.H @ res.x - problem.z))
        assert residual <= 1e-10

    def test_x_is_inverse_times_z(self, ieee4_solved):
        # the column scaling H^-1 diag(s) equals the product H^-1 @ z bitwise
        for net in (ieee4_solved[0], make_random_network(12, 3, radial=False)):
            _, _, problem, res = solved(net)
            assert np.array_equal(res.x, res.H_inv @ problem.z)
            assert not np.any(np.signbit(res.x) & (res.x == 0.0))


def _svd_matrix(singular_values, seed=None):
    """6x6 U diag(s) V^T; signed permutations for U, V without a seed."""
    dim = len(singular_values)
    if seed is None:
        U = np.eye(dim)[[3, 0, 5, 1, 4, 2]] * [1, -1, 1, 1, -1, 1]
        V = np.eye(dim)[[1, 4, 0, 2, 5, 3]] * [-1, 1, 1, -1, 1, 1]
    else:
        rng = np.random.default_rng(seed)
        U, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
        V, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
    return U @ np.diag(singular_values) @ V.T


@dataclass(frozen=True)
class _GateProblem:
    """An arbitrary H with the signs of z: what ``solve_coefficients``
    reads of a problem, which looks up no node position."""

    H: np.ndarray

    @property
    def H_csc(self):
        return csc_matrix(self.H)

    @property
    def signs(self):
        return np.tile([1.0, -1.0], len(self.H) // 2)

    @property
    def dim(self):
        return len(self.H)


#: matrices on both sides of the cond_2 > COND_MAX gate and of the
#: cond_1 <= COND_MAX / dim shortcut, and one exactly singular matrix
GATE_MATRICES = [
    _svd_matrix(np.geomspace(1.0, 1 / 5e11, 6), seed=0),
    _svd_matrix(np.geomspace(1.0, 1 / 2e12, 6), seed=0),
    _svd_matrix(np.r_[np.ones(5), 1 / 5e11], seed=1),
    _svd_matrix(np.r_[np.ones(5), 1 / 2e12], seed=1),
    _svd_matrix(np.geomspace(1.0, 1 / (1.001 * COND_MAX / 6), 6)),
    _svd_matrix(np.geomspace(1.0, 1 / (0.999 * COND_MAX / 6), 6)),
    _svd_matrix(np.geomspace(1.0, 1 / 5e11, 6)),
    _svd_matrix(np.geomspace(1.0, 1 / 2e12, 6)),
    np.ones((6, 6)),  # exactly singular: inv raises
]
GATE_IDS = [
    "k2=5e11", "k2=2e12", "k2=5e11-flat", "k2=2e12-flat",
    "k1-above", "k1-below", "k2=5e11-perm", "k2=2e12-perm", "ones",
]


class TestConditionGate:
    """The 1-norm pre-check decides exactly as the cond_2 > 1e12 gate."""

    KAPPA_1_LIMIT = COND_MAX / 6

    @pytest.mark.parametrize("H", GATE_MATRICES, ids=GATE_IDS)
    def test_same_decision_as_cond(self, H, monkeypatch):
        svd_calls = []
        cond = np.linalg.cond
        monkeypatch.setattr(
            np.linalg, "cond", lambda A: svd_calls.append(1) or cond(A)
        )
        rejected = cond(H) > COND_MAX
        try:
            solve_coefficients(_GateProblem(H))
        except SingularSystemError as exc:
            gate_raised = "not invertible" in str(exc)
        else:
            gate_raised = False
        assert gate_raised == rejected
        try:
            kappa_1 = np.linalg.norm(H, 1) * np.linalg.norm(np.linalg.inv(H), 1)
        except np.linalg.LinAlgError:
            kappa_1 = np.inf
        # the SVD runs only when the cheap bound cannot clear H
        assert bool(svd_calls) == (kappa_1 > self.KAPPA_1_LIMIT)

    @pytest.mark.parametrize("factor", [0.999, 1.001])
    def test_accepted_near_limit_solves(self, factor):
        # signed-permutation SVD factors: H^-1 is exact, so the residual
        # check passes and the solve returns on both sides of the limit
        H = _svd_matrix(np.geomspace(1.0, 1 / (factor * self.KAPPA_1_LIMIT), 6))
        res = solve_coefficients(_GateProblem(H))
        np.testing.assert_array_equal(res.x, np.linalg.inv(H) * res.problem.signs)


class TestTargetedSolve:
    """A request that leaves out a row or column of x solves only its block."""

    @staticmethod
    def _request(problem, every=7):
        """Re/P and Im/Q rows and columns of every ``every``-th node, and
        one cross pair."""
        dim = problem.dim
        rows = np.r_[np.arange(0, dim, 2 * every), np.arange(1, dim, 2 * every), 3]
        cols = np.r_[np.arange(0, dim, 2 * every), np.arange(1, dim, 2 * every), 0]
        return rows, cols

    def test_blocks_match_full_table(self):
        net = make_random_network(60, 1, radial=False)
        Y, state, problem, full = solved(net)
        rows, cols = self._request(problem)
        res = solve_coefficients(problem, rows, cols)
        R, C = np.unique(rows), np.unique(cols)
        assert np.array_equal(res.rows, R) and np.array_equal(res.cols, C)
        scale = np.max(np.abs(full.H_inv))
        for got, want in (
            (res.x, full.x[np.ix_(R, C)]),
            (res.H_inv_rows, full.H_inv[R]),
            (res.H_inv_cols, full.H_inv[:, C]),
        ):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-14 * scale)
        # the accessors read the held block
        bus = net.buses[15].index
        assert res.derivative(bus, bus) == pytest.approx(
            full.derivative(bus, bus), rel=1e-12
        )
        with pytest.raises(ValueError, match="not held"):
            res.derivative(bus, net.buses[2].index)
        with pytest.raises(ValueError, match="blocks of H"):
            res.H_inv

    def test_path_follows_request(self, ieee4_solved, monkeypatch):
        net, Y, state = ieee4_solved
        problem = assemble_problem(Y, state, net)
        dim = problem.H.shape[0]
        every = np.arange(dim)
        # every row and every column requested: the dense full table
        full = solve_coefficients(problem, rows=np.r_[every, 0], cols=every[::-1])
        assert full.H_inv is full.H_inv_rows is full.H_inv_cols
        # one column left out: the estimate clears H, no dense inverse is formed
        for name in ("inv", "cond"):
            monkeypatch.setattr(np.linalg, name, lambda *a: pytest.fail(name))
        res = solve_coefficients(problem, rows=every, cols=every[1:])
        assert res.x.shape == (dim, dim - 1)
        np.testing.assert_allclose(res.x, full.x[:, 1:], rtol=1e-12, atol=1e-14)

    @pytest.mark.parametrize("H", GATE_MATRICES, ids=GATE_IDS)
    def test_same_decision_as_full_table(self, H):
        def outcome(**request):
            try:
                return solve_coefficients(_GateProblem(H), **request)
            except SingularSystemError as exc:
                return "gate" if "not invertible" in str(exc) else "residual"

        full = outcome()
        res = outcome(rows=[0, 5], cols=[1])
        if isinstance(full, str):
            assert res == full
        else:  # an H the estimate cannot clear: the dense block
            np.testing.assert_array_equal(res.x, full.x[np.ix_([0, 5], [1])])
        assert (res == "gate") == (np.linalg.cond(H) > COND_MAX)

    def test_empty_request(self, ieee4_solved):
        net, Y, state = ieee4_solved
        problem = assemble_problem(Y, state, net)
        res = solve_coefficients(problem, rows=[], cols=[])
        assert res.x.shape == (0, 0)
        assert res.H_inv_rows.shape == (0, 6) and res.H_inv_cols.shape == (6, 0)
        # the request does not skip the conditioning decision
        with pytest.raises(SingularSystemError, match="not invertible"):
            solve_coefficients(_GateProblem(np.zeros((6, 6))), rows=[], cols=[])

    def test_no_dense_jacobian_at_300_buses(self, monkeypatch):
        # the targeted path reads H as CSC on Y's pattern only; the
        # full table, solved afterwards, agrees to rounding
        from pfsc import coefficients

        net = make_random_network(300, 4, radial=False)
        Y = pfsc.build_admittance(net)
        state = pfsc.solve_load_flow(net, Y)
        problem = assemble_problem(Y, state, net)
        rows, cols = self._request(problem, every=30)
        with monkeypatch.context() as patch:
            patch.setattr(coefficients, "JacobianStack", lambda *a: pytest.fail("dense H"))
            res = solve_coefficients(problem, rows, cols)
        assert "H" not in vars(problem)  # the dense H was never assembled
        full = solve_coefficients(assemble_problem(Y, state, net))
        np.testing.assert_allclose(
            res.x, full.x[np.ix_(res.rows, res.cols)], rtol=1e-12,
            atol=1e-14 * np.max(np.abs(full.H_inv)),
        )

    @pytest.mark.parametrize("rows, cols", [([-1], [0]), ([6], [0]), ([0], [-7]), ([0], [6])])
    def test_position_outside_the_table_is_refused(self, ieee4_solved, rows, cols):
        # dim H is 6 on ieee4: -1 would wrap to row 5, and 6 would index past the end
        net, Y, state = ieee4_solved
        problem = assemble_problem(Y, state, net)
        full = solve_coefficients(problem)
        targeted = solve_coefficients(problem, rows=[0, 5], cols=[0, 5])
        for call in (lambda: solve_coefficients(problem, rows=rows, cols=cols),
                     lambda: full.block_index(rows, cols),
                     lambda: targeted.block_index(rows, cols)):
            with pytest.raises(ValueError, match=r"outside \[0, 6\)") as info:
                call()
            assert "\n" not in str(info.value)

    @pytest.mark.parametrize("scale, refined", [(1 + 1e-7, True), (2.0, False)])
    def test_residual_check_and_refinement(self, ieee4_solved, monkeypatch, scale, refined):
        # a factorisation whose solves are off by a relative ``scale - 1``:
        # one refinement step repairs 1e-7 and cannot repair 100 %
        from pfsc import coefficients

        class Sloppy:
            def __init__(self, A):
                self.lu = splu(A)

            def solve(self, b, trans="N"):
                return self.lu.solve(b, trans=trans) * scale

        monkeypatch.setattr(coefficients, "splu", Sloppy)
        net, Y, state = ieee4_solved
        problem = assemble_problem(Y, state, net)
        if refined:
            res = solve_coefficients(problem, rows=[0, 1], cols=[2])
            exact = np.linalg.inv(problem.H)
            np.testing.assert_allclose(res.H_inv_cols, exact[:, [2]], rtol=1e-10)
            np.testing.assert_allclose(res.H_inv_rows, exact[[0, 1]], rtol=1e-10)
        else:
            with pytest.raises(SingularSystemError, match="solve residual"):
                solve_coefficients(problem, rows=[0, 1], cols=[2])


class TestFiniteDifferenceOracle:
    def test_zero_step_rejected(self, ieee4_solved):
        net, Y, _ = ieee4_solved
        with pytest.raises(ValueError, match="degenerate step"):
            finite_difference_oracle(net, Y, 2, h=0.0)

    def test_unknown_injection_rejected(self, ieee4_solved):
        net, Y, _ = ieee4_solved
        with pytest.raises(ConfigError, match="'p'"):
            finite_difference_oracle(net, Y, 2, which="p")

    @pytest.mark.parametrize("which", ["P", "Q"])
    def test_two_bus_agreement(self, which):
        net = make_two_bus(p2_kw=50.0, q2_kvar=-20.0, x_pu=0.1, r_pu=0.03)
        Y, state, problem, res = solved(net)
        fd = finite_difference_oracle(net, Y, 2, which=which, h=1e-5, state=state)
        an = res.derivative(2, 2, wrt=which)
        assert abs(an - fd[net.flat_index(2)]) < 1e-6

    def test_ieee4_agreement_all_coefficients(self, ieee4_solved):
        net, Y, state = ieee4_solved
        problem = assemble_problem(Y, state, net)
        res = solve_coefficients(problem)
        for bus_l in (2, 3, 4):
            for which in ("P", "Q"):
                fd = finite_difference_oracle(
                    net, Y, bus_l, which=which, h=1e-5, state=state
                )
                for bus_i in (2, 3, 4):
                    an = res.derivative(bus_i, bus_l, wrt=which)
                    ref = fd[net.flat_index(bus_i)]
                    assert abs(an - ref) / max(abs(ref), 1e-9) <= 1e-3

    def test_random_networks_agreement(self):
        for seed in (0, 1, 2):
            net = make_random_network(5, seed=seed)
            Y, state, problem, res = solved(net)
            for bus_l in (2, 3):
                fd = finite_difference_oracle(
                    net, Y, bus_l, which="P", h=1e-5, state=state
                )
                for bus_i in range(2, net.n_bus + 1):
                    an = res.derivative(bus_i, bus_l, wrt="P")
                    ref = fd[net.flat_index(bus_i)]
                    assert abs(an - ref) / max(abs(ref), 1e-9) <= 1e-3


def test_magnitude_sensitivity(ieee4_solved):
    net, Y, state = ieee4_solved
    problem = assemble_problem(Y, state, net)
    res = solve_coefficients(problem)
    # compare against a central difference of |E|
    h = 1e-5
    fd = finite_difference_oracle(net, Y, 3, which="P", h=h, state=state)
    # |E + h dE| - |E - h dE| over 2h equals the magnitude derivative to O(h^2)
    i4 = net.flat_index(4)
    e = state.voltages[i4]
    num = (abs(e + h * fd[i4]) - abs(e - h * fd[i4])) / (2 * h)
    assert magnitude_derivative(res, state.voltages, 4, 3, wrt="P") == pytest.approx(
        num, rel=1e-5
    )
