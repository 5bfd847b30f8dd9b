import json
import re
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

import pfsc
from pfsc import network as network_module
from pfsc.errors import (
    DegenerateBranchError,
    NetworkParseError,
    NetworkValidationError,
    yaml_error_line,
)
from pfsc.network import (
    Branch,
    Bus,
    NetworkModel,
    components,
    emit_network,
    load_network,
    with_injections,
)

from conftest import make_feeder, make_random_network, make_three_phase_balanced
from oracles import network_document, structural_nonzero


def _no_json(text, **kwargs):
    raise ValueError("JSON read switched off")


#: a file value that is not a finite number, and how its refusal ends: a
#: bool used to load as 1.0 or 0.0
_NOT_FINITE = {
    ".nan": "must be finite, not nan",
    ".inf": "must be finite, not inf",
    "-.inf": "must be finite, not -inf",
    "true": "must be numeric, not True",
    "false": "must be numeric, not False",
}


def _admittance_per_branch(network):
    """Branch-by-branch assembly of Y, the reference for the batched one."""
    p = network.phase_count
    m = network.n_nodes
    Y = np.zeros((m, m), dtype=complex)
    for br in network.branches:
        y = np.linalg.inv(br.z_ohm / network.z_base_ohm)
        shunt = br.shunt_b_s
        if shunt.shape != (p, p):  # a 1x1 shunt is per phase: b·I
            shunt = np.diag(np.repeat(shunt[0, 0], p))
        ysh = 1j * shunt * network.z_base_ohm / 2.0
        f = network.flat_index(br.from_bus)
        t = network.flat_index(br.to_bus)
        Y[f : f + p, f : f + p] += y + ysh
        Y[t : t + p, t : t + p] += y + ysh
        Y[f : f + p, t : t + p] -= y
        Y[t : t + p, f : f + p] -= y
    return Y


class TestBuildAdmittance:
    def test_single_branch_analytic_form(self, two_bus):
        Y = pfsc.build_admittance(two_bus)
        expected = np.array([[-10j, 10j], [10j, -10j]])
        np.testing.assert_allclose(Y.matrix, expected, atol=1e-12)

    def test_ieee4_spot_value(self, ieee4):
        # off-diagonal element equals -1/z_line12 in per-unit
        Y = pfsc.build_admittance(ieee4)
        br12 = ieee4.branches[0]
        z_pu = br12.z_ohm[0, 0] / ieee4.z_base_ohm
        assert Y.matrix.shape == (4, 4)
        np.testing.assert_allclose(
            Y.matrix[ieee4.flat_index(1), ieee4.flat_index(2)], -1.0 / z_pu, rtol=1e-12
        )

    def test_degenerate_branch(self):
        with pytest.raises(DegenerateBranchError, match="degenerate branch"):
            net = NetworkModel(
                buses=(Bus(1, "slack"), Bus(2, "pq", (0.0,), (0.0,))),
                branches=(Branch(1, 2, 0.0),),
                phase_count=1,
                slack_bus=1,
                base_power_va=1e6,
                base_voltage_v=1e3,
            )
            pfsc.build_admittance(net)

    def test_disconnected_graph(self):
        with pytest.raises(NetworkValidationError, match="graph not connected"):
            NetworkModel(
                buses=(
                    Bus(1, "slack"),
                    Bus(2, "pq", (0.0,), (0.0,)),
                    Bus(3, "pq", (0.0,), (0.0,)),
                ),
                branches=(Branch(1, 2, 0.1j),),
                phase_count=1,
                slack_bus=1,
                base_power_va=1e6,
                base_voltage_v=1e3,
            )

    @pytest.mark.parametrize("slack", [1, 7])
    def test_disconnected_graph_names_the_first_bus_not_reached(self, slack):
        # buses 9 and 4 are an island of their own, and bus 5 another:
        # the first in bus order that the slack does not reach is named
        buses = [Bus(index, "slack" if index == slack else "pq", (0.0,), (0.0,))
                 for index in (1, 7, 9, 5, 4)]
        with pytest.raises(NetworkValidationError) as excinfo:
            NetworkModel(
                buses=tuple(buses), branches=(Branch(1, 7, 0.1j), Branch(4, 9, 0.1j)),
                phase_count=1, slack_bus=slack, base_power_va=1e6, base_voltage_v=1e3,
            )
        assert str(excinfo.value) == (
            f"graph not connected: no branch path from slack bus {slack} to bus 9"
        )

    def test_row_sums_zero_without_shunts(self, ieee4):
        Y = pfsc.build_admittance(ieee4)
        scale = np.linalg.norm(Y.matrix)
        assert np.max(np.abs(Y.matrix.sum(axis=1))) < 1e-14 * scale

    def test_permutation_equivariance(self):
        net = make_random_network(5, seed=7)
        Y = pfsc.build_admittance(net)
        # reverse the bus list; branches unchanged (they refer to indices)
        swapped = NetworkModel(
            buses=tuple(reversed(net.buses)),
            branches=net.branches,
            phase_count=1,
            slack_bus=net.slack_bus,
            base_power_va=net.base_power_va,
            base_voltage_v=net.base_voltage_v,
        )
        Y2 = pfsc.build_admittance(swapped)
        perm = [swapped.bus_position(b.index) for b in net.buses]
        np.testing.assert_allclose(
            Y2.matrix[np.ix_(perm, perm)], Y.matrix, rtol=1e-15
        )


    @pytest.mark.parametrize("which", ["ieee4", "three-phase", "random40", "feeder300-file"])
    def test_batched_equals_per_branch_loop(self, ieee4, which, tmp_path):
        if which == "feeder300-file":  # branches read from the emitted file
            emit_network(make_feeder(300, 1), tmp_path / "feeder.yaml")
            net = load_network(tmp_path / "feeder.yaml")
        else:
            net = {
                "ieee4": ieee4,
                "three-phase": make_three_phase_balanced(),
                "random40": make_random_network(40, 2, radial=False),
            }[which]
        if which == "three-phase":  # shunts on shared nodes, in branch order
            net = replace(net, branches=tuple(
                Branch(br.from_bus, br.to_bus, br.z_ohm, 1e-4 * (k + 1) * np.eye(3))
                for k, br in enumerate(net.branches)
            ))
        Y = pfsc.build_admittance(net).matrix
        assert Y.tobytes() == _admittance_per_branch(net).tobytes()

    def test_replaced_branches_are_stamped(self, ieee4):
        halved = tuple(Branch(br.from_bus, br.to_bus, br.z_ohm / 2) for br in ieee4.branches)
        net = replace(ieee4, branches=halved)
        Y = pfsc.build_admittance(net).matrix
        assert Y.tobytes() == _admittance_per_branch(net).tobytes()
        np.testing.assert_allclose(Y, 2 * pfsc.build_admittance(ieee4).matrix, rtol=1e-14)

    def test_scalar_shunt_is_per_phase(self, tmp_path):
        # a scalar shunt on a polyphase branch is b·I, not b on every entry
        b = 1e-4
        path = tmp_path / "net.yaml"
        path.write_text(TestLoadNetwork._THREE_PHASE % b)
        net = load_network(path)
        Y = pfsc.build_admittance(net).matrix
        series = pfsc.build_admittance(replace(net, branches=(
            Branch(1, 2, net.branches[0].z_ohm),
        ))).matrix
        for bus in (1, 2):
            f = net.flat_index(bus)
            block = Y[f : f + 3, f : f + 3] - series[f : f + 3, f : f + 3]
            assert Y[f, f + 1] == 0 and Y[f + 1, f + 2] == 0
            # the difference cancels the series admittance: a few ulps of it
            np.testing.assert_allclose(
                block, 1j * b * net.z_base_ohm / 2 * np.eye(3), rtol=1e-9, atol=0
            )

    def test_degenerate_branch_named_in_branch_order(self):
        net = make_random_network(6, 1)
        branches = list(net.branches)
        for k in (2, 4):
            branches[k] = Branch(branches[k].from_bus, branches[k].to_bus, 0.0)
        with pytest.raises(DegenerateBranchError, match="branch 3-4"):
            pfsc.build_admittance(replace(net, branches=tuple(branches)))


def _pattern_network(which):
    if which == "feeder60":
        return make_feeder(60, 1)
    if which == "feeder300":
        return make_feeder(300, 1)
    if which == "random40":
        return make_random_network(40, 2, radial=False)
    net = load_network(pfsc.bundled_network_path()) if which == "ieee4" else make_three_phase_balanced()
    if which.startswith("three-phase-"):  # shunts on shared nodes, in branch order
        square = which.endswith("square")
        net = replace(net, branches=tuple(
            Branch(br.from_bus, br.to_bus, br.z_ohm,
                   1e-4 * (k + 1) * (np.eye(3) if square else 1.0))
            for k, br in enumerate(net.branches)
        ))
    return net


class TestAdmittancePattern:
    """Y is stored on its structural pattern; the dense view is the stamp."""

    @pytest.mark.parametrize("which", ["ieee4", "three-phase-scalar", "three-phase-square",
                                       "random40", "feeder60", "feeder300"])
    def test_dense_view_is_the_dense_stamp(self, which):
        net = _pattern_network(which)
        Y = pfsc.build_admittance(net)
        stamp = _admittance_per_branch(net)
        assert Y.matrix.tobytes() == stamp.tobytes()
        assert np.array_equal(Y.positions, np.flatnonzero(structural_nonzero(stamp)))
        assert np.all(np.diff(Y.positions) > 0)
        assert Y.matrix is not Y.matrix  # built on each read, not kept
        again = pfsc.AdmittanceMatrix(stamp)
        assert np.array_equal(again.positions, Y.positions)
        assert again.values.tobytes() == Y.values.tobytes()

    @pytest.mark.parametrize("which", ["ieee4", "three-phase-square", "feeder300"])
    def test_product_on_the_pattern_is_the_dense_product(self, which):
        # within a few units of rounding of each row's terms, at the load
        # flow's voltages and at random ones
        net = _pattern_network(which)
        Y = pfsc.build_admittance(net)
        rng = np.random.default_rng(5)
        random = rng.standard_normal(net.n_nodes) + 1j * rng.standard_normal(net.n_nodes)
        for E in (pfsc.solve_load_flow(net, Y).voltages, random):
            Ym = Y.matrix
            terms = np.abs(Ym) @ np.abs(E)
            assert np.all(np.abs(Y.dot(E) - Ym @ E) <= 4 * np.finfo(float).eps * terms)

    def test_product_of_a_row_without_entries_is_zero(self, ieee4):
        dense = pfsc.build_admittance(ieee4).matrix
        i = ieee4.flat_index(4)
        dense[i, :] = dense[:, i] = 0
        E = np.array([1, 1j]) @ np.random.default_rng(6).standard_normal((2, 4))
        YE = pfsc.AdmittanceMatrix(dense).dot(E)
        assert YE[i] == 0 and not np.signbit(YE[i].real) and not np.signbit(YE[i].imag)
        assert np.all(YE[:i] != 0)

    def test_product_refuses_voltages_of_another_length(self, ieee4):
        Y = pfsc.build_admittance(ieee4)
        for E in (np.ones(3, dtype=complex), np.ones((4, 1), dtype=complex)):
            with pytest.raises(ValueError, match="dimension mismatch: Y is"):
                Y.dot(E)

    def test_entry_that_stamps_to_zero_is_not_stored(self):
        # branches z and -z in parallel between buses 1 and 2 cancel exactly
        z = 0.1 + 0.2j
        net = NetworkModel(
            buses=(Bus(1, "slack"), Bus(2, "pq", (0.0,), (0.0,)), Bus(3, "pq", (0.0,), (0.0,))),
            branches=(Branch(1, 2, z), Branch(1, 2, -z), Branch(2, 3, 0.1 + 0.3j)),
            phase_count=1,
            slack_bus=1,
            base_power_va=1e6,
            base_voltage_v=1e3,
        )
        stamp = _admittance_per_branch(net)
        assert stamp[0, 0] == 0 and stamp[0, 1] == 0 and stamp[1, 0] == 0
        Y = pfsc.build_admittance(net)
        assert Y.matrix.tobytes() == stamp.tobytes()
        assert np.array_equal(Y.positions, np.flatnonzero(structural_nonzero(stamp)))
        assert not np.isin([0, 1, 3], Y.positions).any()

    def test_stored_arrays_are_read_only(self, ieee4):
        Y = pfsc.build_admittance(ieee4)
        for array in (Y.positions, Y.values):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0

    @pytest.mark.parametrize("shape", [(3,), (2, 3), (2, 2, 2)])
    def test_dense_constructor_takes_a_square_matrix(self, shape):
        with pytest.raises(ValueError, match=re.escape(f"square, not {shape}")):
            pfsc.AdmittanceMatrix(np.ones(shape))


class TestLoadNetwork:
    def test_bundled_ieee4(self, ieee4):
        assert ieee4.n_bus == 4
        assert ieee4.phase_count == 1
        assert ieee4.slack_bus == 1
        by_index = {b.index: b for b in ieee4.buses}
        # net injections: PV generation minus the 300 kW / 150 kVar demand
        assert by_index[2].p_kw == (480.0 - 300.0,)
        assert by_index[3].p_kw == (600.0 - 300.0,)
        assert by_index[4].p_kw == (-300.0,)
        for i in (2, 3, 4):
            assert by_index[i].q_kvar == (-150.0,)

    def test_two_slack_buses(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text(
            """
phases: 1
bases: {s_base_va: 1.0e6, v_base_v: 1000.0}
buses:
  - {index: 1, kind: slack}
  - {index: 2, kind: slack}
branches:
  - {from: 1, to: 2, r_ohm: 0.0, x_ohm: 0.1}
"""
        )
        with pytest.raises(NetworkValidationError, match="exactly one slack"):
            load_network(path)

    def test_dimension_error(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text(
            """
phases: 3
bases: {s_base_va: 1.0e6, v_base_v: 1000.0}
buses:
  - {index: 1, kind: slack}
  - {index: 2, kind: pq, p_kw: [0, 0, 0], q_kvar: [0, 0, 0]}
branches:
  - {from: 1, to: 2, r_ohm: [[0.1, 0.0], [0.0, 0.1]], x_ohm: [[0.1, 0.0], [0.0, 0.1]]}
"""
        )
        with pytest.raises(NetworkParseError, match="impedance block"):
            load_network(path)

    _THREE_PHASE = (
        "phases: 3\nbases: {s_base_va: 1.0e6, v_base_v: 1000.0}\n"
        "buses: [{index: 1, kind: slack}, {index: 2, p_kw: [0, 0, 0], q_kvar: [0, 0, 0]}]\n"
        "branches: [{from: 1, to: 2, r_ohm: [[0.1, 0, 0], [0, 0.1, 0], [0, 0, 0.1]],\n"
        "            x_ohm: [[0.2, 0, 0], [0, 0.2, 0], [0, 0, 0.2]], shunt_b_s: %s}]\n"
    )

    @pytest.mark.parametrize(
        "text, message",
        [
            (_THREE_PHASE % "[[1e-4, 0], [0, 1e-4]]",
             "branches[0]: shunt block is (2, 2), expected (1, 1) or (3, 3)"),
            # three entries used to load as three equal rows, mutual
            # susceptances included
            (_THREE_PHASE % "[1e-4, 2e-4, 3e-4]",
             "branches[0]: shunt block is (1, 3), expected (1, 1) or (3, 3)"),
            ("phases: 1\nbases: {s_base_va: 1.0e6, v_base_v: 1000.0}\n"
             "buses: [{index: 1, kind: slack}, {index: 2}]\n"
             "branches: [{from: 1, to: 2, r_ohm: 0.1, x_ohm: 0.2, shunt_b_s: [1e-4, 1e-4]}]\n",
             "branches[0]: shunt block is (1, 2), expected (1, 1)"),
            ("phases: 1\nbases: {s_base_va: 0, v_base_v: 1000.0}\n"
             "buses: [{index: 1, kind: slack}]\nbranches: []\n",
             "bases s_base_va must be a finite positive number, not 0.0"),
            ("phases: 1\nbases: {s_base_va: -1.0e6, v_base_v: 1000.0}\n"
             "buses: [{index: 1, kind: slack}]\nbranches: []\n",
             "bases s_base_va must be a finite positive number, not -1000000.0"),
            ("phases: 1\nbases: {s_base_va: 1.0e6, v_base_v: 0}\n"
             "buses: [{index: 1, kind: slack}]\nbranches: []\n",
             "bases v_base_v must be a finite positive number, not 0.0"),
            ("phases: 1\nbases: {s_base_va: 1.0e6, v_base_v: .inf}\n"
             "buses: [{index: 1, kind: slack}]\nbranches: []\n",
             "bases v_base_v must be a finite positive number, not inf"),
        ],
        ids=["shunt-2x2", "shunt-row", "shunt-1x2", "s-base-zero", "s-base-negative",
             "v-base-zero", "v-base-inf"],
    )
    def test_shunt_shape_and_bases(self, tmp_path, text, message):
        path = tmp_path / "bad.yaml"
        path.write_text(text)
        with pytest.raises(NetworkParseError, match=re.escape(f"{path}: {message}")):
            load_network(path)

    @pytest.mark.parametrize(
        "shunt", ["1e-4", "[[1e-4]]", "[[1e-4, 0, 0], [0, 2e-4, 0], [0, 0, 3e-4]]"],
        ids=["scalar", "1x1", "3x3"],
    )
    def test_square_shunt_loads(self, tmp_path, shunt):
        path = tmp_path / "net.yaml"
        path.write_text(self._THREE_PHASE % shunt)
        net = load_network(path)
        (branch,) = net.branches
        assert branch.shunt_b_s.shape in ((1, 1), (3, 3))
        Y = pfsc.build_admittance(net).matrix
        assert Y.tobytes() == _admittance_per_branch(net).tobytes()

    def test_impedance_spellings_load_alike(self, tmp_path):
        # a plain number, [x], [[x]], the string YAML 1.1 leaves 1e-05 and
        # an int: each loads to the block the general path gives
        spellings = ["0.01", "[0.02]", "[[0.03]]", "1e-05", "2"]
        values = [0.01, [0.02], [[0.03]], "1e-05", 2]
        branches = ", ".join(
            f"{{from: {k + 1}, to: {k + 2}, r_ohm: {s}, x_ohm: {s}}}"
            for k, s in enumerate(spellings)
        )
        path = tmp_path / "net.yaml"
        path.write_text(
            "phases: 1\nbases: {s_base_va: 1.0e6, v_base_v: 1000.0}\n"
            "buses: [{index: 1, kind: slack}, "
            + ", ".join(f"{{index: {k}}}" for k in range(2, 7)) + "]\n"
            f"branches: [{branches}]\n"
        )
        net = load_network(path)
        for br, value in zip(net.branches, values):
            block = np.atleast_2d(np.asarray(value, dtype=float))
            expected = block + 1j * block
            assert br.z_ohm.shape == (1, 1)
            assert br.z_ohm.tobytes() == expected.tobytes()
        Y = pfsc.build_admittance(net).matrix
        assert Y.tobytes() == _admittance_per_branch(net).tobytes()

    @pytest.mark.parametrize("value", _NOT_FINITE)
    @pytest.mark.parametrize("key", ["r_ohm", "x_ohm", "shunt_b_s", "length_km"])
    def test_nonfinite_branch_value_refused(self, tmp_path, key, value):
        entry = {"r_ohm": "0.1", "x_ohm": "0.2", "shunt_b_s": "1e-4", key: value}
        fields = ", ".join(f"{k}: {v}" for k, v in entry.items())
        path = tmp_path / "net.yaml"
        path.write_text(
            "phases: 1\nbases: {s_base_va: 1.0e6, v_base_v: 1000.0}\n"
            "buses: [{index: 1, kind: slack}, {index: 2}, {index: 3}]\n"
            f"branches: [{{from: 1, to: 2, r_ohm: 0.1, x_ohm: 0.2}}, {{from: 2, to: 3, {fields}}}]\n"
        )
        with pytest.raises(
            NetworkParseError,
            match=re.escape(f"{path}: branches[1] {key} {_NOT_FINITE[value]}"),
        ):
            load_network(path)

    @pytest.mark.parametrize("value", _NOT_FINITE)
    @pytest.mark.parametrize("key", ["p_kw", "q_kvar", "load_kw", "load_kvar",
                                     "gen_kw", "gen_kvar"])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_nonfinite_injection_refused(self, tmp_path, key, value):
        # such a value used to load and fail in the load flow as a
        # singular Jacobian
        path = tmp_path / "net.yaml"
        path.write_text(
            "phases: 1\nbases: {s_base_va: 1.0e6, v_base_v: 1000.0}\n"
            f"buses: [{{index: 1, kind: slack}}, {{index: 2}}, {{index: 3, {key}: {value}}}]\n"
            "branches: [{from: 1, to: 2, r_ohm: 0.1, x_ohm: 0.2},"
            " {from: 2, to: 3, r_ohm: 0.1, x_ohm: 0.2}]\n"
        )
        with pytest.raises(
            NetworkParseError,
            match=re.escape(f"{path}: buses[2] {key} {_NOT_FINITE[value]}"),
        ):
            load_network(path)

    @pytest.mark.parametrize(
        "slack, message",
        [
            ("[.inf, 0.0]", "slack_voltage_pu[0] must be finite, not inf"),
            ("[1.0, .nan]", "slack_voltage_pu[1] must be finite, not nan"),
            (".nan", "slack_voltage_pu must be finite, not (nan+0j)"),
            ("-.inf", "slack_voltage_pu must be finite, not (-inf+0j)"),
            ("true", "slack_voltage_pu must be numeric, not True"),
            ("[1.0, false]", "slack_voltage_pu must be numeric, not False"),
        ],
        ids=["magnitude-inf", "angle-nan", "scalar-nan", "scalar-inf", "scalar-bool",
             "angle-bool"],
    )
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_nonfinite_slack_voltage_refused(self, tmp_path, slack, message):
        # the magnitude and angle are checked before their product, which
        # warned for an infinite magnitude
        path = tmp_path / "net.yaml"
        path.write_text(
            "phases: 3\nbases: {s_base_va: 1.0e6, v_base_v: 1000.0}\n"
            f"slack_voltage_pu: {slack}\n"
            "buses: [{index: 1, kind: slack}, {index: 2}]\n"
            "branches: [{from: 1, to: 2, r_ohm: [[0.1, 0, 0], [0, 0.1, 0], [0, 0, 0.1]],"
            " x_ohm: [[0.2, 0, 0], [0, 0.2, 0], [0, 0, 0.2]]}]\n"
        )
        with pytest.raises(NetworkParseError, match=re.escape(f"{path}: {message}")):
            load_network(path)

    @pytest.mark.parametrize(
        "branches, message",
        [
            # the non-finite branch comes first
            ("[{from: 1, to: 2, r_ohm: 0.1, x_ohm: .nan},"
             " {from: 2, to: 3, r_ohm: [0.1, 0.2], x_ohm: 0.2}]",
             "branches[0] x_ohm must be finite, not nan"),
            ("[{from: 1, to: 2, r_ohm: 0.1, x_ohm: .nan}, {from: 2, to: 3, r_ohm: 0.1}]",
             "branches[0] x_ohm must be finite, not nan"),
            # the malformed branch comes first
            ("[{from: 1, to: 2, r_ohm: [0.1, 0.2], x_ohm: 0.2},"
             " {from: 2, to: 3, r_ohm: .nan, x_ohm: 0.2}]",
             "branches[0]: impedance block is (1, 2)/(1, 1), expected (1, 1)"),
            # on one branch, the checks of its shape and ends come first
            ("[{from: 1, to: 2, r_ohm: .inf, x_ohm: 0.2, shunt_b_s: [1, 2]}]",
             "branches[0]: shunt block is (1, 2), expected (1, 1)"),
            ("[{from: 1, to: 2, r_ohm: 0.1, x_ohm: .inf, shunt_b_s: .nan}]",
             "branches[0] x_ohm must be finite, not inf"),
        ],
        ids=["nonfinite-then-shape", "nonfinite-then-missing", "shape-then-nonfinite",
             "shunt-shape-before-nonfinite", "x-before-shunt"],
    )
    def test_first_bad_branch_in_file_order(self, tmp_path, branches, message):
        path = tmp_path / "net.yaml"
        path.write_text(
            "phases: 1\nbases: {s_base_va: 1.0e6, v_base_v: 1000.0}\n"
            "buses: [{index: 1, kind: slack}, {index: 2}, {index: 3}]\n"
            f"branches: {branches}\n"
        )
        with pytest.raises(NetworkParseError, match=re.escape(f"{path}: {message}")):
            load_network(path)

    @pytest.mark.parametrize(
        "buses, branches, message",
        [
            ("[{kind: slack}, {index: 2}]", "[{from: 1, to: 2}]",
             "buses[0] is missing 'index'"),
            ("[{index: 1, kind: slack}, {index: 2}]", "[{to: 2}]",
             "branches[0] is missing 'from'"),
            ("[{index: 1, kind: slack}, {index: 2}]",
             "[{from: 1, to: 2, r_ohm: 0.1, x_ohm: 0.2}, {from: 2}]",
             "branches[1] is missing 'to'"),
            ("3", "[{from: 1, to: 2}]", "buses must be a list of mappings"),
            ("[{index: 1, kind: slack}, 2]", "[{from: 1, to: 2}]",
             "buses[1] is not a mapping"),
            ("[{index: 1, kind: slack}, {index: 2}]", "{from: 1, to: 2}",
             "branches must be a list of mappings"),
        ],
        ids=["bus-index", "branch-from", "branch-to", "buses-scalar",
             "bus-scalar", "branches-mapping"],
    )
    def test_malformed_entries(self, tmp_path, buses, branches, message):
        path = tmp_path / "bad.yaml"
        path.write_text(
            "phases: 1\nbases: {s_base_va: 1.0e6, v_base_v: 1000.0}\n"
            f"buses: {buses}\nbranches: {branches}\n"
        )
        with pytest.raises(NetworkParseError, match=re.escape(message)):
            load_network(path)

    @pytest.mark.parametrize(
        "net, split",
        [
            ("p_kw: [-10, -10, -10]", "load_kw: [10, 10, 10]"),
            ("q_kvar: [5, 5, 5]", "gen_kvar: [5, 5, 5]"),
        ],
    )
    def test_three_phase_net_form_defaults_per_phase(self, tmp_path, net, split):
        # an omitted net field is per-phase zeros, as in the load/gen form
        def load(fields):
            path = tmp_path / "net.yaml"
            path.write_text(
                "phases: 3\nbases: {s_base_va: 1.0e6, v_base_v: 1000.0}\n"
                "buses:\n  - {index: 1, kind: slack}\n"
                f"  - {{index: 2, {fields}}}\n"
                "branches:\n  - {from: 1, to: 2, r_ohm: [[0.1, 0, 0], [0, 0.1, 0], "
                "[0, 0, 0.1]], x_ohm: [[0.2, 0, 0], [0, 0.2, 0], [0, 0, 0.2]]}\n"
            )
            return load_network(path)

        a, b = load(net), load(split)
        assert a.buses == b.buses
        np.testing.assert_array_equal(a.injections_pu(), b.injections_pu())

    @pytest.mark.parametrize(
        "phases, bases, buses, branches, message",
        [
            ("1", "{s_base_va: 1.0e6, v_base_v: 1000.0}",
             "[{index: abc, kind: slack}, {index: 2}]",
             "[{from: 1, to: 2, r_ohm: 0.1, x_ohm: 0.2}]",
             "buses[0] index must be numeric, not 'abc'"),
            ("1", "{s_base_va: 1.0e6, v_base_v: 1000.0}",
             "[{index: 1, kind: slack}, {index: 2, p_kw: abc}]",
             "[{from: 1, to: 2, r_ohm: 0.1, x_ohm: 0.2}]",
             "buses[1] p_kw must be numeric, not 'abc'"),
            ("1", "{s_base_va: 1.0e6, v_base_v: 1000.0}",
             "[{index: 1, kind: slack}, {index: 2, load_kvar: [x]}]",
             "[{from: 1, to: 2, r_ohm: 0.1, x_ohm: 0.2}]",
             "buses[1] load_kvar must be numeric, not 'x'"),
            ("one", "{s_base_va: 1.0e6, v_base_v: 1000.0}",
             "[{index: 1, kind: slack}]", "[]",
             "phases must be numeric, not 'one'"),
            ("1", "{s_base_va: 1.0e6, v_base_v: high}",
             "[{index: 1, kind: slack}]", "[]",
             "bases v_base_v must be numeric, not 'high'"),
            ("1", "{s_base_va: true, v_base_v: 1000.0}",
             "[{index: 1, kind: slack}]", "[]",
             "bases s_base_va must be numeric, not True"),
            ("1", "{s_base_va: 1.0e6, v_base_v: 1000.0}",
             "[{index: 1, kind: slack}, {index: 2}]",
             "[{from: 1, to: 2, r_ohm: 0.1, x_ohm: low}]",
             "branches[0] x_ohm must be numeric, not 'low'"),
            ("1", "{s_base_va: 1.0e6, v_base_v: 1000.0}",
             "[{index: 1, kind: slack}, {index: 2}]",
             "[{from: 1, to: 2, r_ohm: 0.1, x_ohm: 0.2, shunt_b_s: b}]",
             "branches[0] shunt_b_s must be numeric, not 'b'"),
            ("1", "{s_base_va: 1.0e6, v_base_v: 1000.0}",
             "[{index: 1, kind: slack}, {index: 2}]",
             "[{from: 1, to: two, r_ohm: 0.1, x_ohm: 0.2}]",
             "branches[0] to must be numeric, not 'two'"),
            ("1", "{s_base_va: 1.0e6, v_base_v: 1000.0}",
             "[{index: 1, kind: slack}, {index: 2}]",
             "[{from: 1, to: 2, r_ohm: 0.1, x_ohm: 0.2, length_km: abc}]",
             "branches[0] length_km must be numeric, not 'abc'"),
        ],
        ids=["index", "p_kw", "load_kvar", "phases", "base", "base-bool", "impedance",
             "shunt", "branch-end", "length"],
    )
    def test_non_numeric_value(self, tmp_path, phases, bases, buses, branches, message):
        path = tmp_path / "bad.yaml"
        path.write_text(
            f"phases: {phases}\nbases: {bases}\nbuses: {buses}\nbranches: {branches}\n"
        )
        with pytest.raises(NetworkParseError, match=re.escape(f"{path}: {message}")):
            load_network(path)

    _BUSES = "[{index: 1, kind: slack}, {index: 2}]"
    _BRANCHES = "[{from: 1, to: 2, r_ohm: 0.1, x_ohm: 0.2}]"

    def test_length_is_a_float(self, tmp_path):
        # YAML 1.1 reads an exponent without a dot as a string
        path = tmp_path / "net.yaml"
        path.write_text(
            "phases: 1\nbases: {s_base_va: 1.0e6, v_base_v: 1000.0}\n"
            f"buses: {self._BUSES}\n"
            "branches: [{from: 1, to: 2, r_ohm: 0.1, x_ohm: 0.2, length_km: 1e-3}]\n"
        )
        (branch,) = load_network(path).branches
        assert type(branch.length_km) is float
        assert branch.length_km == 1e-3
        assert Branch(1, 2, 0.1j, length_km=np.int64(2)).length_km == 2.0
        with pytest.raises(NetworkParseError, match="branch length_km must be numeric"):
            Branch(1, 2, 0.1j, length_km="abc")

    @pytest.mark.parametrize(
        "phases, buses, branches, message",
        [
            ("1", "[{index: 1, kind: slack}, {index: 2.7}]", _BRANCHES,
             "buses[1] index must be an integer, not 2.7"),
            ("1", "[{index: 1, kind: slack}, {index: true}]", _BRANCHES,
             "buses[1] index must be an integer, not True"),
            ("1", _BUSES, "[{from: 1.5, to: 2, r_ohm: 0.1, x_ohm: 0.2}]",
             "branches[0] from must be an integer, not 1.5"),
            ("1", _BUSES, "[{from: 1, to: 2.9, r_ohm: 0.1, x_ohm: 0.2}]",
             "branches[0] to must be an integer, not 2.9"),
            ("1.5", _BUSES, _BRANCHES, "phases must be an integer, not 1.5"),
            ("true", _BUSES, _BRANCHES, "phases must be an integer, not True"),
        ],
        ids=["index", "index-bool", "from", "to", "phases", "phases-bool"],
    )
    def test_non_integral_index(self, tmp_path, phases, buses, branches, message):
        # a fraction used to be truncated, so {index: 2.7} loaded as bus 2
        path = tmp_path / "bad.yaml"
        path.write_text(
            f"phases: {phases}\nbases: {{s_base_va: 1.0e6, v_base_v: 1000.0}}\n"
            f"buses: {buses}\nbranches: {branches}\n"
        )
        with pytest.raises(NetworkParseError, match=re.escape(f"{path}: {message}")):
            load_network(path)

    def test_whole_number_index_loads(self, ieee4, tmp_path):
        path = tmp_path / "net.yaml"
        emit_network(ieee4, path)
        text = path.read_text()
        path.write_text(re.sub(r'"index": (\d+)', r'"index": \1.0', text))
        assert path.read_text() != text
        assert load_network(path).buses == ieee4.buses

    def test_yaml_syntax_error_is_one_line(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("name: x\nphases: [\n")
        with pytest.raises(NetworkParseError) as excinfo:
            load_network(path)
        message = str(excinfo.value)
        assert "\n" not in message
        assert message == (
            f"{path}: line 3, column 1: did not find expected node content"
        )

    @pytest.mark.parametrize(
        "data, offset, reason",
        [(b"\xff\xfe", 0, "invalid start byte"),
         (b"name: caf\xe9\nphases: 1\n", 9, "invalid continuation byte")],
        ids=["utf16-bom", "latin1"],
    )
    def test_text_that_is_not_utf8_is_one_line(self, tmp_path, data, offset, reason):
        path = tmp_path / "bad.yaml"
        path.write_bytes(data)
        with pytest.raises(NetworkParseError) as excinfo:
            load_network(path)
        assert str(excinfo.value) == f"{path}: not UTF-8 text: byte {offset} ({reason})"

    def test_missing_section(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("phases: 1\n")
        with pytest.raises(NetworkParseError, match="missing section"):
            load_network(path)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: pfsc.load_network(pfsc.bundled_network_path()),
            make_three_phase_balanced,
            lambda: make_random_network(12, 5, radial=False),
            lambda: make_feeder(60, 3),
            lambda: make_feeder(300, 3),
            lambda: _shunted(pfsc.load_network(pfsc.bundled_network_path()), 2e-4),
            lambda: _shunted(make_three_phase_balanced(),
                             [[1e-4, 2e-5, 0.0], [2e-5, 1e-4, 0.0], [0.0, 0.0, 3e-4]]),
            lambda: _shunted(make_three_phase_balanced(), 1e-4),
        ],
        ids=["ieee4", "three-phase", "random12", "feeder60", "feeder300", "ieee4-shunt",
             "three-phase-3x3-shunt", "three-phase-scalar-shunt"],
    )
    def test_emitted_json_loads_as_its_yaml(self, make, tmp_path, monkeypatch):
        net = make()
        path = tmp_path / "net.yaml"
        emit_network(net, path)
        parsed = []

        def json_loads(text, **kwargs):
            parsed.append(text)
            return json.loads(text, **kwargs)

        monkeypatch.setattr(network_module, "json", SimpleNamespace(loads=json_loads))
        through_json = load_network(path)
        assert parsed == [path.read_text()]
        monkeypatch.setattr(network_module, "json", SimpleNamespace(loads=_no_json))
        through_yaml = load_network(path)
        assert through_json == through_yaml == net
        assert np.array_equal(
            pfsc.build_admittance(through_json).matrix,
            pfsc.build_admittance(through_yaml).matrix,
        )
        # the loaded model writes the bytes it was read from, and a shunt
        # in the shape it was given, 1x1 or p x p
        monkeypatch.undo()
        again = tmp_path / "again.yaml"
        emit_network(through_json, again)
        assert again.read_bytes() == path.read_bytes()
        shunt = net.branches[0].shunt_b_s
        if shunt.any():
            emitted = json.loads(path.read_text())["branches"][0]["shunt_b_s"]
            assert np.shape(emitted) == shunt.shape

    @pytest.mark.parametrize(
        "make",
        [
            lambda: pfsc.load_network(pfsc.bundled_network_path()),
            make_three_phase_balanced,
            lambda: make_random_network(12, 5, radial=False),
            lambda: make_feeder(300, 3),
            lambda: _varied(pfsc.load_network(pfsc.bundled_network_path()), 2e-4),
            lambda: _varied(pfsc.load_network(pfsc.bundled_network_path()), [[3e-4]]),
            lambda: _varied(make_three_phase_balanced(),
                            [[1e-4, 2e-5, 0.0], [2e-5, 1e-4, 0.0], [0.0, 0.0, 3e-4]]),
            lambda: _varied(make_three_phase_balanced(), 1e-4),
            lambda: _varied(make_feeder(60, 1), 1e-5),
            lambda: replace(make_three_phase_balanced(), name='50% "odd"\n\x00 %s name'),
        ],
        ids=["ieee4", "three-phase", "random12", "feeder300", "ieee4-shunt", "ieee4-1x1-shunt",
             "three-phase-3x3-shunt", "three-phase-scalar-shunt", "feeder60-shunts-lengths",
             "odd-name"],
    )
    def test_emitted_bytes_are_the_indented_json_document(self, make, tmp_path):
        # the file is, byte for byte, what json.dumps(doc, indent=2) writes
        # of the document built entry by entry
        net = make()
        path = tmp_path / "net.json"
        emit_network(net, path)
        assert path.read_text() == json.dumps(network_document(net), indent=2) + "\n"

    def test_huge_bus_numbers_load_and_solve(self, tmp_path):
        # bus numbers stay Python ints: one beyond int64 neither overflows
        # nor is rounded, in YAML or in the JSON that is written back
        big = 10**30
        path = tmp_path / "net.yaml"
        path.write_text(
            "phases: 1\nbases: {s_base_va: 1.0e6, v_base_v: 1000.0}\n"
            f"buses: [{{index: 1, kind: slack}}, {{index: {big}, p_kw: -50, q_kvar: -10}}]\n"
            f"branches: [{{from: 1, to: {big}, r_ohm: 0.1, x_ohm: 0.2}}]\n"
        )
        emit_network(load_network(path), tmp_path / "net.json")
        assert (tmp_path / "net.json").read_text() == (
            json.dumps(network_document(load_network(path)), indent=2) + "\n")
        for net in (load_network(path), load_network(tmp_path / "net.json")):
            assert [bus.index for bus in net.buses] == [1, big]
            assert net.branches[0].to_bus == big
            assert net.nonslack_nodes() == [(big, 0)]
            state = pfsc.solve_load_flow(net, pfsc.build_admittance(net))
            assert abs(state.voltages[net.flat_index(big)]) < 1.0

    def test_file_network_builds_no_object_per_entry(self, tmp_path, monkeypatch):
        # a file's network is held as arrays from the file to Y, the load
        # flow, new injections and the file written back
        path = tmp_path / "net.json"
        emit_network(make_feeder(60, 1), path)

        def refuse(*args, **kwargs):
            raise AssertionError("a Bus or Branch was built")

        monkeypatch.setattr(Bus, "__post_init__", refuse)
        monkeypatch.setattr(Branch, "__init__", refuse)
        net = load_network(path)
        state = pfsc.solve_load_flow(net, pfsc.build_admittance(net))
        moved = with_injections(net, 1.01 * net.injections_pu())
        pfsc.solve_load_flow(moved, pfsc.build_admittance(moved), initial=state)
        assert len(net.nonslack_nodes()) == 59
        emit_network(net, tmp_path / "again.json")
        assert (tmp_path / "again.json").read_bytes() == path.read_bytes()

    def test_flow_yaml_with_plain_keys_loads(self, tmp_path):
        path = tmp_path / "flow.yaml"
        path.write_text(
            "  {phases: 1, bases: {s_base_va: 1.0e6, v_base_v: 1000.0},\n"
            f"   buses: {self._BUSES}, branches: {self._BRANCHES}}}\n"
        )
        net = load_network(path)
        assert [bus.index for bus in net.buses] == [1, 2]
        assert net.branches == (Branch(1, 2, 0.1 + 0.2j),)

    def test_truncated_json_gives_the_yaml_error(self, ieee4, tmp_path):
        path = tmp_path / "cut.yaml"
        emit_network(ieee4, path)
        text = path.read_text()
        path.write_text(text[: len(text) // 2])
        with pytest.raises(yaml.YAMLError) as parsed:
            yaml.load(path.read_text(), Loader=network_module._YAML_LOADER)
        with pytest.raises(NetworkParseError) as excinfo:
            load_network(path)
        message = str(excinfo.value)
        assert message == f"{path}: {yaml_error_line(parsed.value)}"
        assert message.startswith(f"{path}: line ")
        assert "\n" not in message

    def test_nan_is_read_as_yaml(self, ieee4, tmp_path):
        # NaN is not JSON: emitted text with a NaN written in by hand is
        # read as YAML, where NaN is a string
        path = tmp_path / "nan.yaml"
        emit_network(ieee4, path)
        emitted = path.read_text()
        path.write_text(emitted.replace('"name": "ieee4-balanced"', '"name": NaN', 1))
        assert path.read_text() != emitted
        again = load_network(path)
        assert again.name == "NaN"
        assert again.buses == ieee4.buses and again.branches == ieee4.branches
        # a number must be finite, and is refused there
        for key, where in (("p_kw", "buses[1]"), ("r_ohm", "branches[0]")):
            path.write_text(re.sub(f'"{key}": [^,\\n]+', f'"{key}": NaN', emitted, count=1))
            with pytest.raises(NetworkParseError,
                               match=re.escape(f"{path}: {where} {key} must be finite, not nan")):
                load_network(path)

    def test_round_trip(self, ieee4, tmp_path):
        out = tmp_path / "rt.yaml"
        emit_network(ieee4, out)
        again = load_network(out)
        assert again.buses == ieee4.buses
        assert again.branches == ieee4.branches
        assert again.phase_count == ieee4.phase_count
        assert again.slack_bus == ieee4.slack_bus
        assert again.base_power_va == ieee4.base_power_va
        assert again.base_voltage_v == ieee4.base_voltage_v
        assert again.slack_voltage_pu == ieee4.slack_voltage_pu

    def test_rotated_slack_voltage_round_trips(self, ieee4, tmp_path):
        # a slack voltage that [abs(v), angle(v)] reads back as another
        # complex number, as 1.02 e^{-0.92j} and -1.0 do, is written as its
        # complex string: each reloads bit for bit and writes its own bytes
        first, again = tmp_path / "first.json", tmp_path / "again.json"
        slacks = [1.02 * np.exp(1j * k / 100) for k in range(-300, 301)] + [-1.0]
        for v in slacks:
            net = replace(ieee4, slack_voltage_pu=v)
            emit_network(net, first)
            back = load_network(first)
            assert np.complex128(back.slack_voltage_pu).tobytes() == np.complex128(v).tobytes()
            assert back == net
            emit_network(back, again)
            assert again.read_bytes() == first.read_bytes()
            assert first.read_text() == json.dumps(network_document(net), indent=2) + "\n"
        emit_network(replace(ieee4, slack_voltage_pu=1.02 * np.exp(-0.92j)), first)
        assert json.loads(first.read_text())["slack_voltage_pu"] == (
            "(0.617936559776332-0.8115136524370934j)")
        emit_network(replace(ieee4, slack_voltage_pu=-1.0), first)
        assert json.loads(first.read_text())["slack_voltage_pu"] == "(-1+0j)"

    def test_per_unit_conversion(self, ieee4):
        s = ieee4.injections_pu()
        i4 = ieee4.flat_index(4)
        assert s[i4] == pytest.approx((-300e3 - 150e3j) / 1e7)


def _with_shunt(net, shunt):
    first, *rest = net.branches
    return (Branch(first.from_bus, first.to_bus, first.z_ohm, shunt), *rest)


def _shunted(net, shunt):
    """``net`` with ``shunt`` on its first branch."""
    return replace(net, branches=_with_shunt(net, shunt))


def _varied(net, shunt):
    """``net`` with ``shunt`` on every third branch and a length on every
    second, so that its branches take four layouts in the file."""
    return replace(net, branches=tuple(
        Branch(br.from_bus, br.to_bus, br.z_ohm, shunt if i % 3 == 0 else None,
               None if i % 2 else 0.5 + i)
        for i, br in enumerate(net.branches)))


@pytest.mark.parametrize(
    "change, message",
    [
        (lambda net: {"base_power_va": 0.0},
         "base_power_va must be a finite positive number, not 0.0"),
        (lambda net: {"base_power_va": -1e6},
         "base_power_va must be a finite positive number, not -1000000.0"),
        (lambda net: {"base_voltage_v": float("nan")},
         "base_voltage_v must be a finite positive number, not nan"),
        (lambda net: {"base_voltage_v": True},
         "base_voltage_v must be a finite positive number, not True"),
        (lambda net: {"branches": _with_shunt(net, [1e-4, 1e-4])},
         "branch 1-2: shunt block is (1, 2), expected (1, 1)"),
        (lambda net: {"branches": _with_shunt(net, float("inf"))},
         "branch 1-2: shunt susceptance must be finite"),
        (lambda net: {"branches": (Branch(1, 2, complex(float("nan"), 0.1)), *net.branches[1:])},
         "branch 1-2: series impedance must be finite"),
        (lambda net: {"branches": (*net.branches[:2], Branch(3, 4, 0.1j, length_km="-inf"))},
         "branch 3-4: length_km must be finite"),
        # the first bad branch is named, whatever its fault
        (lambda net: {"branches": (*net.branches[:2], Branch(3, 3, 0.1j),
                                   Branch(3, 4, complex(0.1, float("inf"))))},
         "branch 3-3 connects a bus to itself"),
        (lambda net: {"branches": (*net.branches[:2], Branch(3, 4, complex(0.1, float("inf"))),
                                   Branch(3, 3, 0.1j))},
         "branch 3-4: series impedance must be finite"),
        (lambda net: {"slack_voltage_pu": complex(float("inf"), 0.0)},
         "slack_voltage_pu must be finite, not (inf+0j)"),
        (lambda net: {"buses": (*net.buses[:2], replace(net.buses[2], p_kw=(float("nan"),)),
                                *net.buses[3:])},
         "bus 3: injection must be finite"),
        (lambda net: {"buses": (*net.buses[:3], replace(net.buses[3], q_kvar=(-float("inf"),)))},
         "bus 4: injection must be finite"),
        (lambda net: {"buses": (*net.buses, net.buses[3])}, "duplicate bus indices"),
        (lambda net: {"slack_bus": 2}, "slack_bus=2 does not match the bus marked slack (1)"),
        (lambda net: {"buses": (*net.buses[:3], Bus(4, "pq", (1.0, 2.0), (0.0, 0.0)))},
         "bus 4: injection needs 1 per-phase entries"),
        (lambda net: {"branches": (*net.branches, Branch(4, 9, 0.1j))},
         "branch 4-9 references unknown bus"),
        (lambda net: {"branches": (Branch(1, 2, 0.1j * np.eye(3)), *net.branches[1:])},
         "branch 1-2: impedance block is (3, 3), expected (1, 1)"),
    ],
    ids=["s-base-zero", "s-base-negative", "v-base-nan", "v-base-bool", "shunt-1x2",
         "shunt-inf", "impedance-nan", "length-inf", "self-loop-first", "nonfinite-first",
         "slack-inf", "p-nan", "q-inf", "duplicate", "slack-mismatch", "injection-length",
         "branch-to-unknown-bus", "impedance-shape"],
)
def test_validate_refuses_bad_bases_and_shunts(ieee4, change, message):
    # a network built in code gets the checks that load_network applies
    with pytest.raises(NetworkValidationError, match=re.escape(message)):
        replace(ieee4, **change(ieee4))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda net: net.flat_index(9), "no bus with index 9"),
        (lambda net: net.flat_index(2, phase=1), "phase 1 out of range"),
    ],
    ids=["unknown-bus", "phase"],
)
def test_lookup_refusals(ieee4, call, message):
    with pytest.raises(NetworkValidationError) as info:
        call(ieee4)
    assert str(info.value) == message


_FILE_BASES = "bases: {s_base_va: 1.0e6, v_base_v: 1000.0}\n"
_FILE_BRANCH = "branches: [{from: 1, to: 2, r_ohm: 0.1, x_ohm: 0.2}]\n"
_FILE_3PH_BRANCH = ("branches: [{from: 1, to: 2, r_ohm: [[0.1, 0, 0], [0, 0.1, 0], [0, 0, 0.1]],"
                    " x_ohm: [[0.2, 0, 0], [0, 0.2, 0], [0, 0, 0.2]]}]\n")


@pytest.mark.parametrize(
    "text, error, message",
    [
        ("phases: 2\n" + _FILE_BASES + "buses: [{index: 1, kind: slack}]\nbranches: []\n",
         NetworkValidationError, "phase_count must be 1 or 3, got 2"),
        # each count but 1 and 3 is refused as it is read: 0 and -1 used to
        # fail in a reshape, and 2 with a branch as a 1x1 impedance block
        *((f"phases: {count}\n" + _FILE_BASES + "buses: [{index: 1, kind: slack}, {index: 2}]\n"
           + _FILE_BRANCH, NetworkValidationError, f"phase_count must be 1 or 3, got {count}")
          for count in (0, -1, 2)),
        ("phases: 3\n" + _FILE_BASES + "buses: [{index: 1, kind: slack}, {index: 2, p_kw: 5}]\n"
         + _FILE_3PH_BRANCH,
         NetworkParseError, "{path}: buses[1] p_kw: scalar given but phases=3"),
        ("phases: 3\n" + _FILE_BASES
         + "buses: [{index: 1, kind: slack}, {index: 2, load_kw: [1, 2]}]\n" + _FILE_3PH_BRANCH,
         NetworkParseError, "{path}: buses[1] load_kw: expected 3 entries, got 2"),
        ("[1, 2]\n", NetworkParseError, "{path}: top level must be a mapping"),
        ("phases: 1\nbases: {s_base_va: 1.0e6}\nbuses: []\nbranches: []\n",
         NetworkParseError, "{path}: bases needs s_base_va and v_base_v"),
        ("phases: 1\n" + _FILE_BASES + "slack_voltage_pu: [1.0, 0.0, 0.0]\n"
         "buses: [{index: 1, kind: slack}, {index: 2}]\n" + _FILE_BRANCH,
         NetworkParseError, "{path}: slack_voltage_pu must be a number or [magnitude, angle_rad]"),
        ("phases: 1\n" + _FILE_BASES
         + "buses: [{index: 1, kind: slack}, {index: 2, p_kw: 5, load_kw: 5}]\n" + _FILE_BRANCH,
         NetworkParseError,
         "{path}: buses[1] give either p_kw/q_kvar or load/gen fields, not both"),
        ("phases: 1\n" + _FILE_BASES + "buses: [{index: 1}, {index: 2}]\n" + _FILE_BRANCH,
         NetworkParseError, "{path}: exactly one slack bus required, found 0"),
        # any kind but slack used to load as a PQ bus with the given injection
        *(("phases: 1\n" + _FILE_BASES
           + f"buses: [{{index: 1, kind: slack}}, {{index: 2, kind: {kind}, p_kw: 100}}]\n"
           + _FILE_BRANCH,
           NetworkParseError, f"{{path}}: buses[1] kind must be 'slack' or 'pq', not {kind!r}")
          for kind in ("pv", "Slack", "PQ", 1)),
        ("phases: 1\n" + _FILE_BASES + "buses: [{index: 1, kind: slack}, {index: 2}, {index: 3}]\n"
         + _FILE_BRANCH,
         NetworkValidationError,
         "{path}: graph not connected: no branch path from slack bus 1 to bus 3"),
        # a file's bus-number refusals name it, as a network built in code's do not
        ("phases: 1\n" + _FILE_BASES + "buses: [{index: 1, kind: slack}, {index: 2}, {index: 2}]\n"
         + _FILE_BRANCH,
         NetworkValidationError, "{path}: duplicate bus indices"),
        ("phases: 1\n" + _FILE_BASES + "buses: [{index: 1, kind: slack}, {index: 2, kind: slack}]\n"
         + _FILE_BRANCH,
         NetworkValidationError, "{path}: exactly one slack bus required, found 2"),
    ],
    ids=["phases-2", "phases-0", "phases-minus-1", "phases-2-with-branch",
         "scalar-for-three-phases", "per-phase-count", "top-level-list",
         "bases-key-missing", "slack-voltage-3-items", "net-and-split", "no-slack",
         "kind-pv", "kind-Slack", "kind-PQ", "kind-1", "island", "repeated-bus",
         "two-slacks"],
)
def test_file_refusals(tmp_path, text, error, message):
    path = tmp_path / "net.yaml"
    path.write_text(text)
    with pytest.raises(error) as info:
        load_network(path)
    assert str(info.value) == message.format(path=path)


#: each constructor argument that names a bus, and what its error calls it
_BUS_NUMBERS = {
    "bus index": lambda v: Bus(v, "pq").index,
    "branch from_bus": lambda v: Branch(v, 1, 0.1j).from_bus,
    "branch to_bus": lambda v: Branch(1, v, 0.1j).to_bus,
}


@pytest.mark.parametrize("what", _BUS_NUMBERS)
@pytest.mark.parametrize("value", [2, 2.0, np.int64(2), np.float64(2.0)],
                         ids=["int", "float", "np-int", "np-float"])
def test_constructors_take_whole_bus_numbers(what, value):
    number = _BUS_NUMBERS[what](value)
    assert number == 2 and type(number) is int


@pytest.mark.parametrize("what", _BUS_NUMBERS)
@pytest.mark.parametrize("value", [2.7, True, np.bool_(False)],
                         ids=["fraction", "bool", "np-bool"])
def test_constructors_refuse_fractional_or_bool_bus_numbers(what, value):
    # Branch(2.7, ...) used to truncate to bus 2, and Bus(2.7, ...) kept 2.7
    with pytest.raises(NetworkParseError,
                       match=re.escape(f"{what} must be an integer, not {value!r}")):
        _BUS_NUMBERS[what](value)


def test_bus_of_unknown_kind_refused_in_code():
    # the file loader names its own refusal first; a Bus built in code
    # checks its kind itself
    with pytest.raises(NetworkValidationError) as info:
        Bus(2, "pv")
    assert str(info.value) == "bus 2: unknown kind 'pv'"


def _graphs():
    """(n, edges): n nodes and up to 2n edges between them, self-loops too;
    nodes that no edge reaches stay isolated."""
    return st.integers(1, 30).flatmap(lambda n: st.tuples(
        st.just(n), st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                             max_size=2 * n)))


@settings(max_examples=200, deadline=None)
@given(_graphs())
def test_components_are_scipys_labels(graph):
    # labels numbered by first node, as SciPy numbers them; the first half
    # of the edges is given twice, so every graph of two edges or more
    # repeats one
    n, edges = graph
    edges += edges[: len(edges) // 2]
    a, b = (np.array([edge[end] for edge in edges], dtype=np.intp) for end in (0, 1))
    _, want = connected_components(coo_matrix((np.ones(len(edges)), (a, b)), shape=(n, n)),
                                   directed=False)
    got = components(n, a, b)
    assert got.dtype == np.intp
    assert got.tolist() == want.tolist()
