import gc
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pfsc
from pfsc import coefficients, uncertainty
from pfsc.coefficients import assemble_problem, solve_coefficients
from pfsc.errors import ConfigError
from pfsc.loadflow import SparseJacobian
from pfsc.network import AdmittanceMatrix
from pfsc.report import coefficient_positions
from pfsc.uncertainty import (
    AdmittanceUncertainty,
    CartesianNoiseSpec,
    PolarNoiseSpec,
    analytical_sigma,
    coefficient_variance,
    inverse_self_variance,
    it_class_to_polar,
    load_noise_config,
    project_polar_noise,
    propagate_to_H,
)

from conftest import make_feeder, make_random_network, make_three_phase_balanced, make_two_bus
from oracles import (
    channel_variance,
    dense_chain_sigma,
    dense_var_H,
    general_variance,
    inverse_cross_covariance,
    inverse_self_variance_reference,
    jacobian,
    repeated_sign_projection,
    term_positions,
)


import functools


@functools.lru_cache(maxsize=1)
def _ieee4_cached():
    net = pfsc.load_network(pfsc.bundled_network_path())
    Y = pfsc.build_admittance(net)
    return net, Y, pfsc.solve_load_flow(net, Y)


def sample_polar_projection(rho, theta, sigma_rho_rel, sigma_theta, n, seed):
    """Sampling oracle: draw polar noise, project, return empirical stds."""
    rng = np.random.default_rng(seed)
    rho_s = rho + rng.normal(0.0, sigma_rho_rel * rho, n)
    theta_s = theta + rng.normal(0.0, sigma_theta, n)
    e = rho_s * np.exp(1j * theta_s)
    return e.real.std(ddof=1), e.imag.std(ddof=1)


class TestProjection:
    def test_zero_noise_exact_zero(self):
        spec = PolarNoiseSpec(0.0, 0.0)
        out = project_polar_noise(np.array([1.0 + 0j, 0.9 + 0.1j]), spec)
        assert np.all(out.sigma_re == 0.0)
        assert np.all(out.sigma_im == 0.0)

    def test_axis_aligned_magnitude_noise(self):
        spec = PolarNoiseSpec(sigma_rho=1e-3, sigma_theta=0.0)
        out = project_polar_noise(np.array([1.0 + 0j]), spec)
        assert out.sigma_re[0] == pytest.approx(1e-3, rel=1e-6)
        assert out.sigma_im[0] == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize("theta", [0.0, np.pi / 6, np.pi / 3, 0.3])
    def test_matches_sampling_oracle(self, theta):
        s_rho = 0.005 / 3
        s_th = 0.006 / 3
        spec = PolarNoiseSpec(s_rho, s_th)
        e = np.array([np.exp(1j * theta)])
        out = project_polar_noise(e, spec)
        sre, sim = sample_polar_projection(1.0, theta, s_rho, s_th, 10**6, seed=9)
        assert out.sigma_re[0] == pytest.approx(sre, rel=0.02)
        assert out.sigma_im[0] == pytest.approx(sim, rel=0.02)

    @pytest.mark.parametrize("it_class", ["0.1", "0.5", "1.0"])
    def test_one_ulp_of_E_moves_the_stds_by_rounding_only(self, it_class):
        # no O(rho^2) terms cancel: one ulp of Re E, either way, moves
        # each std by at most 1e-14 of itself
        net = make_three_phase_balanced()
        state = pfsc.solve_load_flow(net, pfsc.build_admittance(net))
        spec = it_class_to_polar(it_class)
        E = state.voltages
        base = project_polar_noise(E, spec)
        for k in range(E.size):
            for way in (np.inf, -np.inf):
                moved = E.copy()
                moved[k] = complex(np.nextafter(E[k].real, way), E[k].imag)
                got = project_polar_noise(moved, spec)
                for a, b in ((got.sigma_re, base.sigma_re), (got.sigma_im, base.sigma_im)):
                    assert np.all(np.abs(a - b) <= 1e-14 * b)

    @pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                        reason="no extended precision")
    def test_equals_the_differences_in_extended_precision(self):
        # the closed form as differences of O(rho^2) terms, in extended
        # precision, agrees with the cancellation-free form
        net = make_three_phase_balanced()
        E = pfsc.solve_load_flow(net, pfsc.build_admittance(net)).voltages
        E = np.concatenate([E, [1.0 + 0j, 1j, 0.9 + 0.1j, -0.5 - 0.8j]])
        for spec in (it_class_to_polar("0.5"), PolarNoiseSpec(0.01, 0.02, relative=False)):
            got = project_polar_noise(E, spec)
            rho = np.abs(E).astype(np.longdouble)
            theta = np.angle(E).astype(np.longdouble)
            sa = np.longdouble(spec.sigma_rho) / (1 if spec.relative else rho)
            sb = np.longdouble(spec.sigma_theta)
            common = (1 + sa**2) * rho**2 / 2
            tail = 1 - 2 * np.exp(-sb**2 / 2)
            d2 = np.exp(-2 * sb**2) * np.cos(2 * theta)
            var_re = common * (1 + d2) + rho**2 * np.cos(theta) ** 2 * tail
            var_im = common * (1 - d2) + rho**2 * np.sin(theta) ** 2 * tail
            np.testing.assert_allclose(got.sigma_re, np.sqrt(var_re).astype(float), rtol=1e-10)
            np.testing.assert_allclose(got.sigma_im, np.sqrt(var_im).astype(float), rtol=1e-10)

    def test_literal_form_fails_near_axis(self):
        # the repeated-sign variant overstates the imaginary-part std by
        # orders of magnitude for small angles, so the package does not carry it
        spec = PolarNoiseSpec(0.005 / 3, 0.006 / 3)
        e = np.array([1.0 + 0j])
        lit = repeated_sign_projection(e, spec)
        _, sim = sample_polar_projection(1.0, 0.0, 0.005 / 3, 0.006 / 3, 10**5, 3)
        assert lit.sigma_im[0] > 100 * sim


class TestPolarNoiseSpec:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -1e-3, True, 1e-3j, "0.001", None])
    @pytest.mark.parametrize("field", ["sigma_rho", "sigma_theta"])
    def test_std_that_is_not_a_finite_nonnegative_real_is_refused(self, field, bad):
        with pytest.raises(ConfigError, match="finite, nonnegative real") as info:
            PolarNoiseSpec(**{field: bad})
        assert "\n" not in str(info.value)

    @pytest.mark.parametrize("good", [0, 0.0, 1e-3, np.float64(2e-3), np.int64(1)])
    def test_finite_nonnegative_reals_are_accepted(self, good):
        assert PolarNoiseSpec(good, good).sigma_rho == good


class TestITClass:
    def test_class_05(self):
        spec = it_class_to_polar("0.5")
        assert spec.sigma_rho == pytest.approx(0.005 / 3)
        assert spec.sigma_theta == pytest.approx(0.006 / 3)
        assert spec.relative

    def test_unknown_class(self):
        with pytest.raises(ConfigError, match="unknown IT class"):
            it_class_to_polar("7")


class TestNoiseConfig:
    def test_none_reads_bundled_table(self):
        bundled = load_noise_config(pfsc.bundled_noise_config_path())
        assert load_noise_config(None) == bundled
        assert "0.5" in bundled["it_classes"]

    def test_missing_it_classes_rejected(self, tmp_path):
        path = tmp_path / "noise.yaml"
        path.write_text("admittance_sigma_pct: 1.0\n")
        with pytest.raises(ConfigError, match="missing it_classes"):
            load_noise_config(path)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("it_classes:\n  '0.5': {magnitude_pct: 0.5}\n",
             "IT class '0.5': missing phase_rad"),
            ("it_classes: [1, 2]\n", "it_classes must map class labels"),
            ("it_classes:\n  '0.5': {magnitude_pct: abc, phase_rad: 0.006}\n",
             "IT class '0.5': magnitude_pct must be a number, not 'abc'"),
            ("it_classes:\n  '0.5': {magnitude_pct: 0.5, phase_rad: .nan}\n",
             "IT class '0.5': phase_rad must be a number, not nan"),
            ("it_classes:\n  '0.5': {magnitude_pct: 0.5, phase_rad: 0.006, x: 1}\n",
             "IT class '0.5': unknown key 'x'"),
            ("it_classes:\n  '0.5': 0.5\n", "IT class '0.5' must be a mapping"),
            ("it_classes:\n  0.5: {magnitude_pct: 0.5, phase_rad: 0.006}\n",
             "IT class 0.5: the label must be a string"),
            ("it_classes: {}\nadmittance_sigma_pct: 1.0\n",
             "unknown key 'admittance_sigma_pct'"),
        ],
        ids=["missing-key", "list", "text-value", "nan", "extra-key",
             "scalar-class", "float-label", "extra-top-key"],
    )
    def test_malformed_table_rejected(self, tmp_path, text, message):
        path = tmp_path / "noise.yaml"
        path.write_text(text)
        with pytest.raises(ConfigError, match=re.escape(message)):
            load_noise_config(path)

    @pytest.mark.parametrize("key", ["magnitude_pct", "phase_rad"])
    def test_negative_limit_rejected(self, tmp_path, key):
        # refused as the file is read, not later by PolarNoiseSpec, whose
        # message names neither the file nor the class
        path = tmp_path / "noise.yaml"
        limits = {"magnitude_pct": 0.5, "phase_rad": 0.006, key: -1.0}
        path.write_text(f"it_classes:\n  neg: {limits}\n".replace("'", ""))
        with pytest.raises(ConfigError) as excinfo:
            load_noise_config(path)
        assert str(excinfo.value) == f"{path}: IT class 'neg': {key} must be nonnegative, not -1.0"

    def test_yaml_syntax_error_is_one_line(self, tmp_path):
        path = tmp_path / "noise.yaml"
        path.write_text("it_classes:\n  '0.5': {magnitude_pct: [\n")
        with pytest.raises(ConfigError) as excinfo:
            load_noise_config(path)
        message = str(excinfo.value)
        assert "\n" not in message
        assert message.startswith(f"{path}: line 3, column 1: ")
        # read by the network loader's parser: the same line, word for word
        with pytest.raises(pfsc.NetworkParseError) as excinfo:
            pfsc.load_network(path)
        assert str(excinfo.value) == message

    def test_exponent_form_limits_read_as_floats(self, tmp_path):
        # YAML 1.1 leaves 7e-1 and 8e-3 strings (it needs 7.0e-1); the
        # network loader reads such strings as numbers too
        path = tmp_path / "noise.yaml"
        path.write_text("it_classes:\n  lab: {magnitude_pct: 7e-1, phase_rad: 8e-3}\n")
        config = load_noise_config(path)
        assert config["it_classes"]["lab"] == {"magnitude_pct": 0.7, "phase_rad": 0.008}
        assert all(type(v) is float for v in config["it_classes"]["lab"].values())
        spec = it_class_to_polar("lab", config)
        assert spec.sigma_rho == 0.7 / 100.0 / 3.0
        assert spec.sigma_theta == 0.008 / 3.0

    @pytest.mark.parametrize(
        "value, message",
        [("'nan'", "must be a number, not 'nan'"),
         ("'-inf'", "must be a number, not '-inf'"),
         ("'1e400'", "must be a number, not '1e400'"),
         ("-8e-3", "must be nonnegative, not '-8e-3'"),
         ("true", "must be a number, not True")],
        ids=["text-nan", "text-inf", "text-overflow", "negative-exponent", "bool"],
    )
    def test_limits_written_as_text_keep_the_refusals(self, tmp_path, value, message):
        path = tmp_path / "noise.yaml"
        path.write_text(f"it_classes:\n  lab: {{magnitude_pct: 0.7, phase_rad: {value}}}\n")
        with pytest.raises(ConfigError) as excinfo:
            load_noise_config(path)
        assert str(excinfo.value) == f"{path}: IT class 'lab': phase_rad {message}"

    def test_custom_class_is_a_file_entry(self, tmp_path):
        path = tmp_path / "noise.yaml"
        path.write_text("it_classes:\n  lab: {magnitude_pct: 1, phase_rad: 0.01}\n")
        spec = it_class_to_polar("lab", load_noise_config(path))
        assert spec.sigma_rho == pytest.approx(0.01 / 3)
        assert spec.sigma_theta == pytest.approx(0.01 / 3)


def loaded_two_bus():
    net = make_two_bus(p2_kw=50.0, q2_kvar=-30.0, x_pu=0.1, r_pu=0.03)
    Y = pfsc.build_admittance(net)
    state = pfsc.solve_load_flow(net, Y)
    problem = assemble_problem(Y, state, net)
    return net, Y, state, problem


def diagonal_blocks_reference(problem, Y, state, yu, en):
    """Per-node loop over the 2x2 diagonal blocks of var(H).

    Pair coefficients of the product channels (Re E_n, Re Y_rn),
    (Im E_n, Im Y_rn), (Re E_n, Im Y_rn), (Im E_n, Re Y_rn) per named part
    of H_rr = A_rr + K_r, combined with the entry's signs, then squared.
    """
    E, Ym = state.voltages, Y.matrix
    er, ei, yr, yi = E.real, E.imag, Ym.real, Ym.imag
    vEr, vEi = en.sigma_re**2, en.sigma_im**2
    vYr, vYi = yu.sigma_re**2, yu.sigma_im**2
    m = E.size
    out = {}
    for k, fr in enumerate(problem.nonslack):
        onehot = np.zeros(m)
        onehot[fr] = 1.0
        ones, zero = np.ones(m), np.zeros(m)
        parts = {
            "ReA": (onehot, onehot, zero, zero),
            "ImA": (zero, zero, onehot, -onehot),
            "ReK": (ones, -ones, zero, zero),
            "ImK": (zero, zero, ones, ones),
        }
        entries = {
            (0, 0): (("ReA", 1.0), ("ReK", 1.0)),
            (0, 1): (("ImA", -1.0), ("ImK", 1.0)),
            (1, 0): (("ImA", 1.0), ("ImK", 1.0)),
            (1, 1): (("ReA", 1.0), ("ReK", -1.0)),
        }
        for (dr, dc), terms in entries.items():
            c_rr, c_ii, c_ri, c_ir = (
                sum(sign * parts[name][ch] for name, sign in terms)
                for ch in range(4)
            )
            g_yr = c_rr * er + c_ir * ei
            g_yi = c_ii * ei + c_ri * er
            g_er = c_rr * yr[fr] + c_ri * yi[fr]
            g_ei = c_ii * yi[fr] + c_ir * yr[fr]
            v = g_yr**2 @ vYr[fr] + g_yi**2 @ vYi[fr] + g_er**2 @ vEr + g_ei**2 @ vEi
            out[(2 * k + dr, 2 * k + dc)] = v
    return out


NETWORKS = {
    "ieee4": lambda: pfsc.load_network(pfsc.bundled_network_path()),
    "three-phase": make_three_phase_balanced,
    "random12": lambda: make_random_network(12, 5, radial=False),
    "feeder300": lambda: make_feeder(300, 3),
}


def solved(which):
    net = NETWORKS[which]()
    Y = pfsc.build_admittance(net)
    state = pfsc.solve_load_flow(net, Y)
    return net, Y, state, assemble_problem(Y, state, net)


def random_noise(net, Y, seed):
    """Admittance noise on a random third of the entries, at least one of
    them a structural zero of a non-slack row, and random voltage noise."""
    m = net.n_nodes
    rng = np.random.default_rng(seed)
    sigma = [rng.uniform(0, 1e-2, (m, m)) * (rng.uniform(size=(m, m)) < 1 / 3) for _ in "ri"]
    r = net.nonslack_flat_indices()[-1]
    sigma[1][r, np.flatnonzero(Y.matrix[r] == 0)[0]] = 3e-3
    en = CartesianNoiseSpec(rng.uniform(0, 1e-3, m), rng.uniform(0, 1e-3, m))
    return AdmittanceUncertainty(*sigma), en


def assert_matches_channels(got, ref):
    """The same zero pattern, and within 1e-14 relative elsewhere (the
    same terms, summed in another order)."""
    assert np.array_equal(got != 0, ref != 0)
    on = ref != 0
    assert np.max(np.abs(got[on] - ref[on]) / ref[on]) <= 1e-14


def terms(dH):
    """(position, input) of each coefficient of ``dH``, in its shape."""
    shape = dH.coefficient.shape
    return (np.broadcast_to(term_positions(dH)[:, None], shape),
            np.broadcast_to(dH.input[None], shape))


def counted_derivatives(monkeypatch):
    """Count the derivations of dH/d(input): (cached, per call)."""
    calls = {"cached": 0, "per call": 0}

    def counting(name, module):
        build = module.jacobian_derivative

        def counted(*args):
            calls[name] += 1
            return build(*args)

        monkeypatch.setattr(module, "jacobian_derivative", counted)

    counting("cached", coefficients)
    counting("per call", uncertainty)
    return calls


class TestJacobianDerivative:
    @pytest.mark.parametrize("noise", ["relative", "random"])
    @pytest.mark.parametrize("which", list(NETWORKS))
    def test_matches_channel_reference(self, which, noise):
        net, Y, state, problem = solved(which)
        if noise == "relative":
            yu = AdmittanceUncertainty.from_relative(Y, 1.0)
            en = project_polar_noise(state, it_class_to_polar("0.5"))
        else:
            yu, en = random_noise(net, Y, 11)
        assert_matches_channels(propagate_to_H(problem, yu, en).toarray(),
                                channel_variance(problem, Y, state, yu, en))

    @pytest.mark.parametrize("which", ["ieee4", "three-phase"])
    def test_coefficients_are_the_derivatives_of_jacobian(self, which):
        # H is linear in each real input alone, so a central difference
        # is exact up to rounding; this checks the signs that var(H) squares
        net, Y, state, problem = solved(which)
        Ym, E, ns = Y.matrix, state.voltages, problem.nonslack
        m = E.size
        dH = problem.dH
        dense = np.zeros((dH.dim**2, 2 * m + 2 * len(dH.pairs)))
        np.add.at(dense, terms(dH), dH.coefficient)
        h = 1e-3
        for v in range(dense.shape[1]):
            dE, dY = np.zeros(m, complex), np.zeros(m * m, complex)
            if v < 2 * m:
                dE[v % m] = h if v < m else 1j * h
            else:
                q = (v - 2 * m) % len(dH.pairs)
                dY[dH.pairs[q]] = h if v < 2 * m + len(dH.pairs) else 1j * h
            dY = dY.reshape(m, m)
            diff = jacobian(Ym + dY, E + dE, ns) - jacobian(Ym - dY, E - dE, ns)
            np.testing.assert_allclose(dense[:, v], diff.ravel() / (2 * h), atol=1e-9)

    def test_one_term_per_entry_and_input(self):
        dH = solved("three-phase")[3].dH
        position, inputs = (a.ravel() for a in terms(dH))
        flat = position * (inputs.max() + 1) + inputs
        assert len(np.unique(flat)) == len(flat)

    def test_pipeline_derives_once(self, monkeypatch):
        calls = counted_derivatives(monkeypatch)
        cfg = pfsc.RunConfig(network=str(pfsc.bundled_network_path()), mode="analytical",
                             sigma_y_pct=(0.5, 1.0, 2.0))
        report = pfsc.run_pipeline(cfg)
        assert sorted(report.analytical) == [0.5, 1.0, 2.0]
        assert calls == {"cached": 1, "per call": 0}

    def test_edited_Y_gets_its_own_problem(self, monkeypatch):
        net, Y, state, problem = solved("ieee4")
        en = project_polar_noise(state, it_class_to_polar("0.5"))
        yu = AdmittanceUncertainty.from_relative(Y, 1.0)
        before = propagate_to_H(problem, yu, en).toarray()  # derives the cached operator
        calls = counted_derivatives(monkeypatch)
        dense = Y.matrix
        i, j = net.flat_index(2), net.flat_index(3)
        dense[i, j] *= 1.5
        edited = AdmittanceMatrix(dense)
        got = propagate_to_H(assemble_problem(edited, state, net), yu, en).toarray()
        assert calls == {"cached": 1, "per call": 0}
        assert_matches_channels(got, channel_variance(problem, edited, state, yu, en))
        assert not np.allclose(got, before)
        # the first problem keeps its own point and operator
        assert np.array_equal(propagate_to_H(problem, yu, en).toarray(), before)
        assert calls == {"cached": 1, "per call": 0}

    def test_noise_off_the_pattern_is_derived_again(self, monkeypatch):
        net, Y, state, problem = solved("ieee4")
        yu, en = random_noise(net, Y, 5)
        problem.dH  # the cached operator, on Y's pattern
        calls = counted_derivatives(monkeypatch)
        propagate_to_H(problem, yu, en)
        propagate_to_H(problem, AdmittanceUncertainty.from_relative(Y, 1.0), en)
        assert calls == {"cached": 0, "per call": 1}

    def test_noise_off_the_pattern_in_the_slack_rows_only_is_no_input(self, monkeypatch):
        # the slack's rows are no equations of H, so their noise enters no
        # entry: J is not derived again, and var(H) is that without it
        net, Y, state, problem = solved("ieee4")
        en = project_polar_noise(state, it_class_to_polar("0.5"))
        on_Y = AdmittanceUncertainty.from_relative(Y, 1.0)
        sigma_re, sigma_im = on_Y.sigma_re, on_Y.sigma_im
        slack = net.slack_flat_indices()[0]
        zero = np.flatnonzero(Y.matrix[slack] == 0)
        assert len(zero) > 0
        sigma_re[slack, zero] = 4e-3
        sigma_im[slack, zero[0]] = 2e-3
        off_Y = AdmittanceUncertainty(sigma_re, sigma_im)
        assert len(np.setdiff1d(off_Y.positions, Y.positions)) == len(zero)
        want = propagate_to_H(problem, on_Y, en)
        calls = counted_derivatives(monkeypatch)
        got = propagate_to_H(problem, off_Y, en)
        assert calls == {"cached": 0, "per call": 0}
        assert got.data.tobytes() == want.data.tobytes()
        assert got.toarray().tobytes() == want.toarray().tobytes()


class TestPropagateToH:
    @pytest.mark.parametrize("length", [2, 6, 3])
    def test_voltage_stds_of_another_length_are_refused(self, length):
        # ieee4 has m = 4 nodes: 6 used to shift every admittance variance,
        # 3 to fail with a bare IndexError; both stds are checked, alike
        net, Y, state, problem = solved("ieee4")
        yu = AdmittanceUncertainty.from_relative(Y, 1.0)
        en = project_polar_noise(state, it_class_to_polar("0.5"))
        for bad in (CartesianNoiseSpec(en.sigma_re, np.ones(length)),
                    CartesianNoiseSpec(np.ones(length), en.sigma_im)):
            with pytest.raises(ValueError, match="noise spec dimensions") as info:
                propagate_to_H(problem, yu, bad)
            assert "\n" not in str(info.value)

    @pytest.mark.parametrize("which", ["ieee4", "three-phase", "random12"])
    def test_diagonal_blocks_match_loop_reference(self, which):
        net = {
            "ieee4": lambda: pfsc.load_network(pfsc.bundled_network_path()),
            "three-phase": make_three_phase_balanced,
            "random12": lambda: make_random_network(12, 5, radial=False),
        }[which]()
        Y = pfsc.build_admittance(net)
        state = pfsc.solve_load_flow(net, Y)
        problem = assemble_problem(Y, state, net)
        rng = np.random.default_rng(7)
        yu = AdmittanceUncertainty(
            rng.uniform(0, 1e-2, (net.n_nodes,) * 2) * np.abs(Y.matrix),
            rng.uniform(0, 1e-2, (net.n_nodes,) * 2) * np.abs(Y.matrix),
        )
        en = CartesianNoiseSpec(
            rng.uniform(0, 1e-3, net.n_nodes), rng.uniform(0, 1e-3, net.n_nodes)
        )
        hv = propagate_to_H(problem, yu, en).toarray()
        ref = diagonal_blocks_reference(problem, Y, state, yu, en)
        # same terms summed in another order: float64 rounding only
        for (r, c), v in ref.items():
            assert hv[r, c] == pytest.approx(v, rel=1e-13)


    def test_zero_in_zero_out(self, ieee4_solved):
        net, Y, state = ieee4_solved
        problem = assemble_problem(Y, state, net)
        hv = propagate_to_H(
            problem,
            AdmittanceUncertainty.zero(net.n_nodes),
            CartesianNoiseSpec.zero(net.n_nodes),
        ).toarray()
        assert np.all(hv == 0.0)

    def test_single_term_product_rule(self, ieee4_solved):
        # H[row(2,re), col(3,re)] = Re(conj(E_2) Y_23); give noise only to
        # Re(Y_23) and Re(E_2) and check the two-factor product rule
        net, Y, state = ieee4_solved
        problem = assemble_problem(Y, state, net)
        i2, i3 = net.flat_index(2), net.flat_index(3)
        s_y, s_e = 0.01, 0.002
        yu_re = np.zeros((4, 4))
        yu_re[i2, i3] = s_y
        yu = AdmittanceUncertainty(yu_re, np.zeros((4, 4)))
        en_re = np.zeros(4)
        en_re[i2] = s_e
        en = CartesianNoiseSpec(en_re, np.zeros(4))
        hv = propagate_to_H(problem, yu, en).toarray()
        e2 = state.voltages[i2]
        y23 = Y.matrix[i2, i3]
        expected = e2.real**2 * s_y**2 + y23.real**2 * s_e**2
        r = problem.row(2, part="re")
        c = 2 * problem.nonslack.index(i3)  # real column of node 3
        assert hv[r, c] == pytest.approx(expected, rel=1e-12)

    def test_noise_on_structural_zero_reaches_H(self, ieee4_solved):
        # buses 2 and 4 share no branch, so Y_24 = 0; noise on it still
        # enters H[row(2), col(4)] through e_2^2 var(Y_24)
        net, Y, state = ieee4_solved
        problem = assemble_problem(Y, state, net)
        i2, i4 = net.flat_index(2), net.flat_index(4)
        assert Y.matrix[i2, i4] == 0
        s_y = 0.01
        yu_im = np.zeros((4, 4))
        yu_im[i2, i4] = s_y
        yu = AdmittanceUncertainty(np.zeros((4, 4)), yu_im)
        hv = propagate_to_H(problem, yu, CartesianNoiseSpec.zero(4)).toarray()
        e2 = state.voltages[i2]
        r = problem.row(2, part="re")
        c = 2 * problem.nonslack.index(i4)
        assert hv[r, c] == pytest.approx(e2.imag**2 * s_y**2, rel=1e-12)
        assert hv[r, c + 1] == pytest.approx(e2.real**2 * s_y**2, rel=1e-12)

    def test_matches_perturbation_sampling_admittance_only(self):
        net, Y, state, problem = loaded_two_bus()
        yu = AdmittanceUncertainty.from_relative(Y, 1.0)
        en = CartesianNoiseSpec.zero(2)
        hv = propagate_to_H(problem, yu, en).toarray()

        # vectorized re-derivation of the 2x2 H from its definition
        rng = np.random.default_rng(123)
        n = 10**5
        Ys = Y.matrix[None, :, :] + (
            rng.normal(0.0, 1.0, (n, 2, 2)) * yu.sigma_re
            + 1j * rng.normal(0.0, 1.0, (n, 2, 2)) * yu.sigma_im
        )
        E = state.voltages
        K2 = Ys[:, 1, 0] * E[0] + Ys[:, 1, 1] * E[1]
        A = np.conj(E[1]) * Ys[:, 1, 1]
        entries = np.stack(
            [
                A.real + K2.real,
                -A.imag + K2.imag,
                A.imag + K2.imag,
                A.real - K2.real,
            ],
            axis=1,
        )
        sampled = entries.var(axis=0, ddof=1).reshape(2, 2)
        np.testing.assert_allclose(hv, sampled, rtol=0.03)

    def test_matches_perturbation_sampling_voltage_only(self):
        net, Y, state, problem = loaded_two_bus()
        yu = AdmittanceUncertainty.zero(2)
        en = CartesianNoiseSpec(np.array([1e-3, 2e-3]), np.array([2e-3, 1e-3]))
        hv = propagate_to_H(problem, yu, en).toarray()

        rng = np.random.default_rng(321)
        n = 10**5
        E = state.voltages[None, :] + (
            rng.normal(0.0, 1.0, (n, 2)) * en.sigma_re
            + 1j * rng.normal(0.0, 1.0, (n, 2)) * en.sigma_im
        )
        Ym = Y.matrix
        K2 = Ym[1, 0] * E[:, 0] + Ym[1, 1] * E[:, 1]
        A = np.conj(E[:, 1]) * Ym[1, 1]
        entries = np.stack(
            [
                A.real + K2.real,
                -A.imag + K2.imag,
                A.imag + K2.imag,
                A.real - K2.real,
            ],
            axis=1,
        )
        sampled = entries.var(axis=0, ddof=1).reshape(2, 2)
        np.testing.assert_allclose(hv, sampled, rtol=0.03)

    def test_relative_stds_are_one_read_only_array(self, ieee4_solved):
        # stored on Y's pattern; the dense views are new arrays on each read
        _, Y, _ = ieee4_solved
        yu = AdmittanceUncertainty.from_relative(Y, 1.0)
        assert yu.im is yu.re and yu.positions is Y.positions
        with pytest.raises(ValueError, match="read-only"):
            yu.re[0] = 1.0
        assert yu.sigma_re is not yu.sigma_re
        assert np.array_equal(yu.sigma_re, yu.sigma_im)

    @pytest.mark.parametrize("level", [0.0, 0.5, 1.0, 2.0])
    @pytest.mark.parametrize("which", list(NETWORKS))
    def test_relative_stds_are_the_dense_product(self, which, level):
        net = NETWORKS[which]()
        Y = pfsc.build_admittance(net)
        yu = AdmittanceUncertainty.from_relative(Y, level)
        dense = np.abs(Y.matrix) * (level / 100.0)
        assert yu.sigma_re.tobytes() == dense.tobytes()
        assert yu.sigma_im.tobytes() == dense.tobytes()

    def test_dense_stds_are_stored_where_nonzero(self):
        rng = np.random.default_rng(3)
        re = rng.uniform(size=(5, 5)) * (rng.uniform(size=(5, 5)) < 0.4)
        im = rng.uniform(size=(5, 5)) * (rng.uniform(size=(5, 5)) < 0.4)
        yu = AdmittanceUncertainty(re, im)
        assert np.array_equal(yu.positions, np.flatnonzero((re != 0) | (im != 0)))
        assert np.array_equal(yu.sigma_re, re) and np.array_equal(yu.sigma_im, im)
        listed = AdmittanceUncertainty(re.tolist(), im.tolist())
        assert np.array_equal(listed.sigma_re, re) and np.array_equal(listed.sigma_im, im)

    @pytest.mark.parametrize("sigma_re, sigma_im, message", [
        (np.ones((3, 3)), np.zeros((4, 4)),
         "admittance stds sigma_re (3, 3) and sigma_im (4, 4) differ in shape"),
        (np.ones((3, 3)), np.ones(3), "differ in shape"),
        (np.ones(3), np.ones(3), "admittance stds must be a square matrix, not (3,)"),
        (np.ones((2, 3)), np.ones((2, 3)), "must be a square matrix, not (2, 3)"),
        (np.ones((2, 2, 2)), np.ones((2, 2, 2)), "must be a square matrix, not (2, 2, 2)"),
        (np.ones((2, 2)), np.ones((2, 2)) * 1j, "admittance std sigma_im must be real, not complex"),
        ([["a", "b"], ["c", "d"]], np.ones((2, 2)), "admittance std sigma_re must be numeric"),
        ([[0.1, 0.2], [0.1]], np.ones((2, 2)), "admittance std sigma_re must be numeric"),
        (np.ones((2, 2), dtype=bool), np.ones((2, 2)), "must be numeric, not bool"),
    ])
    def test_bad_stds_are_one_config_error(self, sigma_re, sigma_im, message):
        with pytest.raises(ConfigError, match=re.escape(message)) as info:
            AdmittanceUncertainty(sigma_re, sigma_im)
        assert "\n" not in str(info.value)

    def test_negative_variance_input_rejected(self):
        with pytest.raises(ConfigError, match="nonnegative"):
            AdmittanceUncertainty(-np.ones((2, 2)), np.ones((2, 2)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_std_rejected(self, bad):
        sigma = np.ones((2, 2))
        sigma[0, 1] = bad
        with pytest.raises(ConfigError, match="finite and nonnegative"):
            AdmittanceUncertainty(np.ones((2, 2)), sigma)


def monitored(net, every):
    """Positions of the driving-point re/P and im/Q coefficients of every
    ``every``-th bus, as a filtered report keeps them."""
    wanted = tuple((bus, bus, part, wrt) for bus in range(every, net.n_bus + 1, every)
                   for part, wrt in (("re", "P"), ("im", "Q")))
    return coefficient_positions(net, wanted)


class TestPatternForm:
    """var(H) lives on H's structural pattern, in CSC form."""

    @pytest.mark.parametrize("noise", ["relative", "random"])
    @pytest.mark.parametrize("which", list(NETWORKS))
    def test_dense_bincount_bitwise_on_H_pattern(self, which, noise):
        # "random" puts noise on structural zeros of Y: J is derived again
        net, Y, state, problem = solved(which)
        if noise == "relative":
            yu = AdmittanceUncertainty.from_relative(Y, 1.0)
            en = project_polar_noise(state, it_class_to_polar("0.5"))
        else:
            yu, en = random_noise(net, Y, 11)
        hv = propagate_to_H(problem, yu, en)
        assert hv.toarray().tobytes() == dense_var_H(problem, yu, en).tobytes()

        ns = np.array(problem.nonslack)
        linked = (Y.matrix != 0) | (yu.sigma_re != 0) | (yu.sigma_im != 0)
        blocks = linked[np.ix_(ns, ns)] | np.eye(len(ns), dtype=bool)
        pattern = np.kron(blocks, np.ones((2, 2), dtype=bool))
        cols = np.repeat(np.arange(problem.dim), np.diff(hv.indptr))
        assert np.all(pattern[hv.indices, cols])
        assert np.all(np.diff(hv.indptr) > 0)  # every column holds an entry
        for j in range(problem.dim):  # rows sorted and distinct within a column
            assert np.all(np.diff(hv.indices[hv.indptr[j]:hv.indptr[j + 1]]) > 0)
        if noise == "relative":  # on Y's pattern: the one H is assembled on
            assert np.array_equal(hv.indices, problem.H_csc.indices)
            assert np.array_equal(hv.indptr, problem.H_csc.indptr)

    @pytest.mark.parametrize("which", list(NETWORKS))
    def test_derivative_and_sparse_jacobian_share_one_layout(self, which):
        # on Y's pattern: both lay out the same CSC arrays, which store each
        # entry of Y's node pairs among the unknowns and of the diagonal
        # blocks once
        net, Y, state, problem = solved(which)
        dH = problem.dH
        H = SparseJacobian(Y, problem.nonslack).matrix
        assert np.array_equal(dH.indices, H.indices)
        assert np.array_equal(dH.indptr, H.indptr)
        ns = np.array(problem.nonslack)
        blocks = (Y.matrix != 0)[np.ix_(ns, ns)] | np.eye(len(ns), dtype=bool)
        cols = np.repeat(np.arange(problem.dim), np.diff(dH.indptr))
        stored = np.zeros((problem.dim, problem.dim), dtype=int)
        np.add.at(stored, (dH.indices, cols), 1)
        assert np.array_equal(stored, np.kron(blocks, np.ones((2, 2), dtype=int)))

    def test_unlinked_node_keeps_its_diagonal_block(self):
        # no term lands on the block of a node that Y leaves unlinked; its
        # stored zeros keep every column nonempty, which the column sums
        # of inverse_self_variance rely on
        net, Y, state, _ = solved("ieee4")
        dense = Y.matrix
        i = net.flat_index(4)
        dense[i, :] = dense[:, i] = 0
        edited = AdmittanceMatrix(dense)
        problem = assemble_problem(edited, state, net)
        yu = AdmittanceUncertainty.from_relative(edited, 1.0)
        hv = propagate_to_H(problem, yu, project_polar_noise(state, it_class_to_polar("0.5")))
        assert np.all(np.diff(hv.indptr) > 0)
        assert np.all(hv.toarray()[:, -2:] == 0)
        H_inv = np.random.default_rng(2).normal(size=(problem.dim, problem.dim))
        np.testing.assert_allclose(inverse_self_variance(H_inv, hv),
                                   H_inv**2 @ hv.toarray() @ H_inv**2, rtol=1e-13)

    @pytest.mark.parametrize("filtered", [False, True], ids=["full", "filtered"])
    @pytest.mark.parametrize("n_bus", [60, 300])
    def test_stds_match_dense_product_chain(self, n_bus, filtered):
        net = make_feeder(n_bus, 1)
        Y = pfsc.build_admittance(net)
        state = pfsc.solve_load_flow(net, Y)
        problem = assemble_problem(Y, state, net)
        result = solve_coefficients(problem, *(monitored(net, 10) if filtered else ()))
        assert (len(result.rows) < problem.dim) == filtered
        yu = AdmittanceUncertainty.from_relative(Y, 1.0)
        en = project_polar_noise(state, it_class_to_polar("0.5"))
        got = analytical_sigma(result, yu, en)
        ref = dense_chain_sigma(result, propagate_to_H(problem, yu, en).toarray())
        assert np.array_equal(got == 0, ref == 0)
        on = ref != 0
        assert np.max(np.abs(got[on] - ref[on]) / ref[on]) <= 1e-13

    def test_filtered_chain_peaks_below_one_dense_var_H(self):
        """The chain of 20 monitored rows and columns at 300 buses, J
        derived too, peaks at about 0.64 MB under ``tracemalloc``, well
        below the 2.86 MB of one dense var(H).  The bound is 1.5
        times the measured peak."""
        net = make_feeder(300, 1)
        Y = pfsc.build_admittance(net)
        state = pfsc.solve_load_flow(net, Y)
        result = solve_coefficients(assemble_problem(Y, state, net), *monitored(net, 30))
        yu = AdmittanceUncertainty.from_relative(Y, 1.0)
        en = project_polar_noise(state, it_class_to_polar("0.5"))
        tracemalloc.start()
        try:
            analytical_sigma(result, yu, en)  # the first call derives J too
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.problem.dim == 598
        assert peak < 0.96e6, peak

    def test_1000_bus_pipeline_holds_no_dense_Y(self, tmp_path, monkeypatch):
        """Every 50th bus monitored, three levels, analytical only.  A
        dense complex Y would be 16 MB at 1000 buses; the run builds none,
        and peaks at about 4.8 MB under ``tracemalloc``.  The bound is
        1.5 times the measured peak."""
        def config(net):
            path = tmp_path / f"feeder{net.n_bus}.json"
            pfsc.emit_network(net, path)
            wanted = tuple((bus, bus, part, wrt) for bus in range(50, net.n_bus + 1, 50)
                           for part, wrt in (("re", "P"), ("im", "Q")))
            return pfsc.RunConfig(network=str(path), mode="analytical",
                                  sigma_y_pct=(0.5, 1.0, 2.0), coefficients=wanted)

        # what a first run in the process allocates once (lazy imports,
        # caches) is not the chain's: a 100-bus run takes it first
        pfsc.run_pipeline(config(make_feeder(100, 1)))
        net = make_feeder(1000, 1)
        cfg = config(net)
        entered = []

        def recording(*args):
            entered.append(tracemalloc.get_traced_memory()[0])
            return analytical_sigma(*args)

        monkeypatch.setattr(pfsc.report, "analytical_sigma", recording)
        # a full collection empties CPython's free lists, which earlier
        # tests leave filled to different levels: every tuple and float of
        # the run is then allocated, and traced, whatever ran before
        gc.collect()
        tracemalloc.start()
        try:
            pfsc.run_pipeline(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(entered) == 3
        assert max(entered) < 4e6
        assert peak < 7.2e6, peak


class TestInverseVariance:
    @pytest.mark.parametrize(
        "rows, var_H, cols",
        [((3, 4), (3, 3), None), ((3, 4), (4, 4), (3, 2))],
        ids=["var_H-of-another-size", "columns-of-another-size"],
    )
    def test_shape_mismatch_refused(self, rows, var_H, cols):
        H_inv_cols = None if cols is None else np.ones(cols)
        with pytest.raises(ValueError) as info:
            inverse_self_variance(np.ones(rows), np.ones(var_H), H_inv_cols)
        assert str(info.value) == "shape mismatch between H^-1 and its variance"

    def test_zero_in_zero_out(self):
        H_inv = np.linalg.inv(np.array([[2.0, 1.0], [0.5, 3.0]]))
        iv = inverse_self_variance(H_inv, np.zeros((2, 2)))
        assert np.all(iv == 0.0)

    def test_scalar_collapse(self):
        # 1x1: var(1/h) = var(h) / h^4
        h, s = 2.0, 0.1
        iv = inverse_self_variance(
            np.array([[1.0 / h]]), np.array([[s**2]])
        )
        assert iv[0, 0] == pytest.approx(s**2 / h**4, rel=1e-14)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_accelerated_equals_reference(self, seed):
        rng = np.random.default_rng(seed)
        H_inv = rng.normal(size=(10, 10))
        hv = rng.uniform(0.0, 1.0, (10, 10))
        fast = inverse_self_variance(H_inv, hv)
        slow = inverse_self_variance_reference(H_inv, hv)
        np.testing.assert_allclose(fast, slow, rtol=1e-12)

    def test_matches_inversion_sampling(self):
        net, Y, state, problem = loaded_two_bus()
        yu = AdmittanceUncertainty.from_relative(Y, 1.0)
        hv = propagate_to_H(problem, yu, CartesianNoiseSpec.zero(2))
        H_inv = np.linalg.inv(problem.H)
        iv = inverse_self_variance(H_inv, hv)

        rng = np.random.default_rng(77)
        n = 10**5
        Hs = problem.H[None, :, :] + rng.normal(0.0, 1.0, (n, 2, 2)) * np.sqrt(
            hv.toarray()
        )
        # analytic 2x2 inverse, vectorized
        det = Hs[:, 0, 0] * Hs[:, 1, 1] - Hs[:, 0, 1] * Hs[:, 1, 0]
        inv = np.empty_like(Hs)
        inv[:, 0, 0] = Hs[:, 1, 1] / det
        inv[:, 1, 1] = Hs[:, 0, 0] / det
        inv[:, 0, 1] = -Hs[:, 0, 1] / det
        inv[:, 1, 0] = -Hs[:, 1, 0] / det
        sampled = inv.var(axis=0, ddof=1)
        np.testing.assert_allclose(iv, sampled, rtol=0.05)

    def test_cross_covariance_definition_consistency(self):
        net, Y, state, problem = loaded_two_bus()
        yu = AdmittanceUncertainty.from_relative(Y, 1.0)
        hv = propagate_to_H(problem, yu, CartesianNoiseSpec.zero(2))
        H_inv = np.linalg.inv(problem.H)
        iv = inverse_self_variance(H_inv, hv)
        for mn in [(0, 0), (0, 1), (1, 1)]:
            cov = inverse_cross_covariance(H_inv, hv.toarray(), mn, mn)
            assert cov == pytest.approx(iv[mn], rel=1e-12)

    def test_cross_covariance_zero_noise(self):
        H_inv = np.linalg.inv(np.array([[2.0, 1.0], [0.5, 3.0]]))
        assert inverse_cross_covariance(
            H_inv, np.zeros((2, 2)), (0, 0), (1, 1)
        ) == 0.0

    def test_cross_covariance_index_check(self):
        H_inv = np.eye(2)
        with pytest.raises(IndexError):
            inverse_cross_covariance(H_inv, np.zeros((2, 2)), (0, 2), (0, 0))

    def test_cross_covariance_matches_sampling(self):
        net, Y, state, problem = loaded_two_bus()
        yu = AdmittanceUncertainty.from_relative(Y, 1.0)
        hv = propagate_to_H(problem, yu, CartesianNoiseSpec.zero(2))
        H_inv = np.linalg.inv(problem.H)

        rng = np.random.default_rng(55)
        n = 10**5
        Hs = problem.H[None, :, :] + rng.normal(0.0, 1.0, (n, 2, 2)) * np.sqrt(
            hv.toarray()
        )
        det = Hs[:, 0, 0] * Hs[:, 1, 1] - Hs[:, 0, 1] * Hs[:, 1, 0]
        inv = np.empty_like(Hs)
        inv[:, 0, 0] = Hs[:, 1, 1] / det
        inv[:, 1, 1] = Hs[:, 0, 0] / det
        inv[:, 0, 1] = -Hs[:, 0, 1] / det
        inv[:, 1, 0] = -Hs[:, 1, 0] / det
        # pairs with appreciable correlation; weakly correlated pairs are
        # dominated by second-order sampling noise and are not comparable
        for mn, ab in [((0, 0), (0, 1)), ((1, 0), (1, 1))]:
            cov = inverse_cross_covariance(H_inv, hv.toarray(), mn, ab)
            sampled = np.cov(inv[:, mn[0], mn[1]], inv[:, ab[0], ab[1]], ddof=1)[0, 1]
            assert cov == pytest.approx(sampled, rel=0.10)


class TestCoefficientVariance:
    def test_zero_inverse_variance(self, ieee4_solved):
        net, Y, state = ieee4_solved
        problem = assemble_problem(Y, state, net)
        res = solve_coefficients(problem)
        iv = inverse_self_variance(res.H_inv, np.zeros_like(problem.H))
        out = np.sqrt(coefficient_variance(iv, problem.signs))
        assert np.all(out == 0.0)

    def test_reduction_is_bitwise(self, ieee4_solved):
        net, Y, state = ieee4_solved
        problem = assemble_problem(Y, state, net)
        res = solve_coefficients(problem)
        yu = AdmittanceUncertainty.from_relative(Y, 1.0)
        en = project_polar_noise(state, it_class_to_polar("0.5"))
        hv = propagate_to_H(problem, yu, en)
        iv = inverse_self_variance(res.H_inv, hv)
        a = np.sqrt(coefficient_variance(iv, problem.signs))
        b = np.sqrt(general_variance(res.H_inv, iv, problem.z, np.zeros_like(problem.z)))
        assert np.array_equal(a, b)

    def test_non_diagonal_z(self):
        rng = np.random.default_rng(3)
        H_inv = rng.normal(size=(4, 4))
        iv = inverse_self_variance(H_inv, rng.uniform(0, 1, (4, 4)))
        z = np.diag([1.0, -1.0, 1.0, -1.0])
        z[0, 2] = 0.5  # a right-hand side combining two injections
        out = np.sqrt(general_variance(H_inv, iv, z, np.zeros_like(z)))
        np.testing.assert_array_equal(out, np.sqrt(iv @ z**2))

    def test_zv_only_term(self):
        H_inv = np.array([[0.5, 0.2], [0.1, 0.25]])
        iv = inverse_self_variance(H_inv, np.zeros((2, 2)))
        z = np.array([[1.0], [0.0]])
        zv = np.array([[0.04], [0.09]])
        out = np.sqrt(general_variance(H_inv, iv, z, zv))
        expected = np.sqrt(H_inv**2 @ zv)
        np.testing.assert_array_equal(out, expected)

    def test_scalar_hand_case(self):
        # h = 2, z = 1, sigma_h = 0.1, sigma_z = 0.1:
        # var(hinv) = sigma_h^2/h^4; var(x) = hinv^2 sigma_z^2 + var(hinv) z^2
        h, s_h, s_z = 2.0, 0.1, 0.1
        H_inv = np.array([[1.0 / h]])
        iv = inverse_self_variance(H_inv, np.array([[s_h**2]]))
        out = np.sqrt(general_variance(
            H_inv, iv, np.array([[1.0]]), np.array([[s_z**2]])
        ))
        expected = np.sqrt((s_z / h) ** 2 + s_h**2 / h**4)
        assert out[0, 0] == pytest.approx(expected, rel=1e-14)

    @settings(max_examples=10, deadline=None)
    @given(st.floats(min_value=1.0, max_value=10.0))
    def test_scaling_homogeneity(self, k):
        # scaling every input std by k scales every output std by exactly k
        net, Y, state = _ieee4_cached()
        problem = assemble_problem(Y, state, net)
        res = solve_coefficients(problem)
        yu1 = AdmittanceUncertainty.from_relative(Y, 1.0)
        en1 = project_polar_noise(state, it_class_to_polar("0.5"))
        yuk = AdmittanceUncertainty(k * yu1.sigma_re, k * yu1.sigma_im)
        enk = CartesianNoiseSpec(k * en1.sigma_re, k * en1.sigma_im)

        def sigma_x(yu, en):
            hv = propagate_to_H(problem, yu, en)
            iv = inverse_self_variance(res.H_inv, hv)
            return np.sqrt(coefficient_variance(iv, problem.signs))

        a = sigma_x(yu1, en1)
        b = sigma_x(yuk, enk)
        np.testing.assert_allclose(b, k * a, rtol=1e-12)
        assert np.all(b >= a)


class TestChannelFidelity:
    """How well the entry-independent inverse propagation tracks the MC
    oracle, per input channel.  See the README's known-limitations note."""

    def _mc_std(self, net, Y, state, polar, yu, n=20000):
        from pfsc.montecarlo import MCConfig, run_monte_carlo

        cfg = MCConfig(n_trials=n, seed=5, polar=polar, yu=yu)
        return run_monte_carlo(net, Y, state, cfg).std

    def test_admittance_channel_tracks_mc(self):
        # admittance-element noise maps near-one-to-one onto H entries,
        # so the entry-independence assumption is benign here
        net, Y, state = _ieee4_cached()
        problem = assemble_problem(Y, state, net)
        res = solve_coefficients(problem)
        yu = AdmittanceUncertainty.from_relative(Y, 0.5)
        unc = analytical_sigma(
            res, yu, CartesianNoiseSpec.zero(net.n_nodes)
        )
        mc = self._mc_std(net, Y, state, PolarNoiseSpec(0.0, 0.0), yu)
        assert np.max(np.abs(unc - mc) / mc) < 0.05

    def test_voltage_channel_known_overestimate(self):
        # a single voltage error perturbs a whole row of H coherently;
        # dropping those correlations in the inverse propagation loses
        # the cancellation and overstates the stds by several times.
        # This documents the bias so a future fix shows up as a diff.
        net, Y, state = _ieee4_cached()
        problem = assemble_problem(Y, state, net)
        res = solve_coefficients(problem)
        polar = it_class_to_polar("1.0")
        en = project_polar_noise(state, polar)
        unc = analytical_sigma(
            res,
            AdmittanceUncertainty.zero(net.n_nodes), en,
        )
        mc = self._mc_std(net, Y, state, polar,
                          AdmittanceUncertainty.zero(net.n_nodes))
        ratio = unc / mc
        assert np.all(ratio > 1.0)
        assert ratio.max() > 2.0
