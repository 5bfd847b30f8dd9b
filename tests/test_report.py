import csv
import json

import numpy as np
import pytest

import pfsc
from pfsc.errors import ConfigError
from pfsc.report import (
    CoefficientKey,
    RunConfig,
    coefficient_keys,
    emit_report,
    run_pipeline,
)

from conftest import make_three_phase_balanced

NETWORK = pfsc.bundled_network_path("ieee4_balanced")


def small_cfg(**kw):
    defaults = dict(
        network=str(NETWORK),
        n_mc=(50,),
        sigma_y_pct=(1.0,),
        seed=3,
    )
    defaults.update(kw)
    return RunConfig(**defaults)


class TestRunConfig:
    def test_unknown_mode(self):
        with pytest.raises(ConfigError, match="unknown mode"):
            small_cfg(mode="fancy")

    def test_missing_network(self):
        with pytest.raises(ConfigError, match="not found"):
            small_cfg(network="/no/such/net.yaml")

    def test_missing_noise_config(self):
        with pytest.raises(ConfigError, match="noise config"):
            small_cfg(noise_config="/no/such/noise.yaml")


class TestCoefficientKey:
    def test_single_phase_label(self):
        key = CoefficientKey(4, 0, "re", 2, 0, "P")
        assert key.label() == "Re(dE4/dP2)"

    def test_three_phase_label(self):
        key = CoefficientKey(3, 1, "im", 2, 2, "Q")
        assert key.label(phase_count=3) == "Im(dE3b/dQ2c)"


def brute_force_keys(problem, coefficients=None):
    """Nested-loop enumeration of the report keys, row-major over x."""
    p = problem.phase_count
    pairs = [(problem.bus_indices[f // p], f % p) for f in problem.nonslack]
    wanted = None if coefficients is None else {tuple(c) for c in coefficients}
    keys, rows, cols = [], [], []
    for bus_i, ph_i in pairs:
        for part in ("re", "im"):
            for bus_l, ph_l in pairs:
                for wrt in ("P", "Q"):
                    if wanted is not None and (bus_i, bus_l, part, wrt) not in wanted:
                        continue
                    keys.append(CoefficientKey(bus_i, ph_i, part, bus_l, ph_l, wrt))
                    rows.append(problem.row(bus_i, ph_i, part))
                    cols.append(problem.column(bus_l, ph_l, wrt))
    return keys, rows, cols


def _problem(network):
    Y = pfsc.build_admittance(network)
    state = pfsc.solve_load_flow(network, Y)
    return pfsc.assemble_problem(Y, state, network)


class TestCoefficientKeys:
    @pytest.mark.parametrize("three_phase", [False, True])
    @pytest.mark.parametrize(
        "coefficients",
        [
            None,
            ((4, 2, "re", "P"),),
            # every phase pair of two bus pairs, a repeat, and entries
            # that match nothing (unknown bus, part spelled as a label)
            ((3, 2, "im", "Q"), (2, 3, "re", "Q"), (3, 2, "im", "Q"),
             (9, 2, "re", "P"), (2, 2, "Re", "P")),
        ],
    )
    def test_matches_brute_force(self, ieee4, three_phase, coefficients):
        problem = _problem(make_three_phase_balanced() if three_phase else ieee4)
        keys, rows, cols = coefficient_keys(problem, coefficients)
        ref_keys, ref_rows, ref_cols = brute_force_keys(problem, coefficients)
        assert keys == ref_keys
        assert rows.tolist() == ref_rows
        assert cols.tolist() == ref_cols


class TestPipeline:
    def test_both_modes_populated(self):
        report = run_pipeline(small_cfg())
        assert len(report.keys) == 36
        assert set(report.analytical) == {1.0}
        assert set(report.mc) == {(1.0, 50)}
        assert report.nominal.shape == (36,)

    def test_analytical_only(self):
        report = run_pipeline(small_cfg(mode="analytical"))
        assert report.mc == {}
        assert 1.0 in report.analytical

    def test_mc_only(self):
        report = run_pipeline(small_cfg(mode="mc"))
        assert report.analytical == {}

    def test_coefficient_filter(self):
        cfg = small_cfg(coefficients=((4, 2, "re", "P"),), mode="analytical")
        report = run_pipeline(cfg)
        assert len(report.keys) == 1
        assert report.keys[0].label() == "Re(dE4/dP2)"

    def test_empty_filter_gives_empty_report(self):
        cfg = small_cfg(coefficients=(), mode="analytical")
        report = run_pipeline(cfg)
        assert report.keys == []
        assert report.nominal.size == 0

    def test_nominal_matches_direct_solve(self):
        report = run_pipeline(small_cfg(mode="analytical"))
        net = pfsc.load_network(NETWORK)
        Y = pfsc.build_admittance(net)
        state = pfsc.solve_load_flow(net, Y)
        problem = pfsc.assemble_problem(Y, state, net)
        res = pfsc.solve_coefficients(problem)
        for key, val in zip(report.keys, report.nominal):
            r = problem.row(key.bus_i, key.phase_i, key.part)
            c = problem.column(key.bus_l, key.phase_l, key.wrt)
            assert val == res.x[r, c]

    def test_deterministic_modulo_timing(self):
        a = run_pipeline(small_cfg())
        b = run_pipeline(small_cfg())
        assert np.array_equal(a.nominal, b.nominal)
        assert np.array_equal(a.analytical[1.0], b.analytical[1.0])
        assert np.array_equal(a.mc[(1.0, 50)], b.mc[(1.0, 50)])


@pytest.fixture(scope="module")
def report():
    return run_pipeline(small_cfg(n_mc=(20, 50)))


class TestEmission:
    def test_csv_round_trip(self, report, tmp_path):
        paths = emit_report(report, ("csv",), tmp_path)
        assert [p.name for p in paths] == ["report_sigmaY_1pct.csv"]
        with open(paths[0]) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 36
        assert set(rows[0]) == {
            "coefficient",
            "nominal_pu",
            "std_analytical",
            "std_mc_20",
            "std_mc_50",
            "time_s",
        }
        for i, row in enumerate(rows):
            assert float(row["nominal_pu"]) == report.nominal[i]
            assert float(row["std_analytical"]) == report.analytical[1.0][i]
            assert float(row["std_mc_50"]) == report.mc[(1.0, 50)][i]

    def test_json_matches_csv_values(self, report, tmp_path):
        csv_path, json_path = emit_report(report, ("csv", "json"), tmp_path)
        doc = json.loads(json_path.read_text())
        with open(csv_path) as fh:
            rows = list(csv.DictReader(fh))
        assert doc["coefficients"] == [r["coefficient"] for r in rows]
        np.testing.assert_array_equal(
            doc["analytical"]["1.0"]["std"],
            [float(r["std_analytical"]) for r in rows],
        )
        np.testing.assert_array_equal(
            doc["monte_carlo"]["1.0|50"]["std"],
            [float(r["std_mc_50"]) for r in rows],
        )

    def test_json_trials_failed(self, report, tmp_path):
        (path,) = emit_report(report, ("json",), tmp_path)
        doc = json.loads(path.read_text())
        failed = {k: v["trials_failed"] for k, v in doc["monte_carlo"].items()}
        assert failed == {"1.0|20": 0, "1.0|50": 0}
        assert report.mc_failed == {(1.0, 20): 0, (1.0, 50): 0}

    def test_json_trials_failed_counts_failures(self, tmp_path, monkeypatch):
        from pfsc import montecarlo

        real = montecarlo.assemble_from_raw

        def one_singular_trial(Ym, E, network):
            problem = real(Ym, E, network)
            problem.H[0] = 0.0
            return problem

        monkeypatch.setattr(montecarlo, "assemble_from_raw", one_singular_trial)
        report = run_pipeline(small_cfg(mode="mc", n_mc=(20,)))
        (path,) = emit_report(report, ("json",), tmp_path)
        doc = json.loads(path.read_text())
        assert doc["monte_carlo"]["1.0|20"]["trials_failed"] == 1

    def test_json_percent_of_nominal(self, report, tmp_path):
        (path,) = emit_report(report, ("json",), tmp_path)
        doc = json.loads(path.read_text())
        stds = np.array(doc["analytical"]["1.0"]["std"])
        pct = np.array(doc["analytical"]["1.0"]["pct_of_nominal"])
        nominal = np.array(doc["nominal_pu"])
        np.testing.assert_allclose(pct, 100.0 * stds / np.abs(nominal))

    def test_pretty_text(self, report, tmp_path):
        (path,) = emit_report(report, ("pretty-text",), tmp_path)
        text = path.read_text()
        assert "sigma_Y = 1% of |element|" in text
        assert "Re(dE4/dP4)" in text
        assert "timings (s):" in text

    def test_pretty_text_rows(self, report, tmp_path):
        (path,) = emit_report(report, ("pretty-text",), tmp_path)
        lines = path.read_text().splitlines()
        labels = [k.label() for k in report.keys]
        width = max([len(s) for s in labels] + [24])
        columns = [report.analytical[1.0], report.mc[(1.0, 20)], report.mc[(1.0, 50)]]
        for i, label in enumerate(labels):
            row = f"{label:<{width}} {report.nominal[i]:>12.4f}"
            for stds in columns:
                pct = 100.0 * stds[i] / abs(report.nominal[i])
                row += f" {stds[i]:>9.4f} ({pct:4.1f}%)"
            assert lines[2 + i] == row

    def test_csv_time_sums_own_level_only(self, tmp_path):
        # level 0.5 must not pick up the timings of level 0.55
        report = run_pipeline(small_cfg(mode="analytical", sigma_y_pct=(0.5, 0.55)))
        report.timings = {
            "load_flow_s": 1.0,
            "coefficients_s": 2.0,
            "analytical_s[0.5]": 4.0,
            "analytical_s[0.55]": 8.0,
        }
        totals = {}
        for path in emit_report(report, ("csv",), tmp_path):
            with open(path) as fh:
                totals[path.name] = {row["time_s"] for row in csv.DictReader(fh)}
        assert totals == {
            "report_sigmaY_0.5pct.csv": {"7.0"},
            "report_sigmaY_0.55pct.csv": {"11.0"},
        }

    def test_unknown_format(self, report, tmp_path):
        with pytest.raises(ConfigError, match="unknown report format"):
            emit_report(report, ("xml",), tmp_path)

    def test_empty_report_headers_only(self, tmp_path):
        cfg = small_cfg(coefficients=(), mode="analytical")
        report = run_pipeline(cfg)
        (path,) = emit_report(report, ("csv",), tmp_path)
        lines = path.read_text().splitlines()
        assert lines == ["coefficient,nominal_pu,std_analytical,time_s"]

    def test_csv_values_identical_across_runs(self, tmp_path):
        # everything but the wall-clock column must be byte-identical
        def run(sub):
            out = tmp_path / sub
            (path,) = emit_report(run_pipeline(small_cfg()), ("csv",), out)
            with open(path) as fh:
                rows = list(csv.reader(fh))
            return [row[:-1] for row in rows]

        assert run("a") == run("b")
