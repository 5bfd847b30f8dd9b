import csv
import io
import json
import re
import tracemalloc

from dataclasses import FrozenInstanceError, astuple, replace
from pathlib import Path

import numpy as np
import pytest

import pfsc
from pfsc.errors import ConfigError
from pfsc.network import Branch
from pfsc.report import (
    FORMATS,
    CoefficientKey,
    ComparisonReport,
    RunConfig,
    _Column,
    _json_numbers,
    _timing_key,
    coefficient_positions,
    emit_report,
    run_pipeline,
)

from pfsc.coefficients import INJECTIONS, PARTS

from conftest import make_feeder, make_random_network, make_three_phase_balanced
from oracles import brute_force_keys, coefficient_label, positions_by_mask, pretty_text

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

    def test_network_directory(self, tmp_path):
        with pytest.raises(ConfigError, match="network file is a directory"):
            small_cfg(network=str(tmp_path))

    @pytest.mark.parametrize("path", ["{dir}", ""])
    def test_noise_config_directory(self, tmp_path, path):
        # an empty path is the working directory
        with pytest.raises(ConfigError, match="noise config is a directory"):
            small_cfg(noise_config=path.format(dir=tmp_path))

    def test_unknown_format(self):
        with pytest.raises(ConfigError, match="unknown report format 'jsn'"):
            small_cfg(formats=("csv", "jsn"))

    def test_levels_sharing_a_csv_name(self):
        message = ("admittance noise levels 1.0 and 1.0000001 would both write "
                   "report_sigmaY_1pct.csv")
        with pytest.raises(ConfigError, match=re.escape(message)):
            small_cfg(sigma_y_pct=(1.0, 2.0, 1.0000001))
        # equal repeats, and the formats that write no CSV, are kept
        small_cfg(sigma_y_pct=(1, 1.0))
        small_cfg(sigma_y_pct=(1.0, 1.0000001), formats=("json", "pretty-text"))

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"seed": -1}, "seed must be a nonnegative integer, not -1"),
            ({"seed": True}, "seed must be a nonnegative integer, not True"),
            ({"seed": 1.0}, "seed must be a nonnegative integer, not 1.0"),
            ({"n_mc": (100, 0)}, "n_trials must be >= 1, got 0"),
            ({"n_mc": (2.5,)}, "n_trials must be an integer, not 2.5"),
            ({"sigma_y_pct": (1.0, float("nan"))}, "not nan"),
            ({"sigma_y_pct": (-1.0,)}, "not -1.0"),
            ({"sigma_y_pct": ("1",)}, "not '1'"),
        ],
        ids=["negative-seed", "bool-seed", "float-seed", "zero-trials", "float-trials",
             "nan-level", "negative-level", "str-level"],
    )
    def test_run_options_checked_at_construction(self, change, message):
        with pytest.raises(ConfigError, match=re.escape(message)):
            small_cfg(**change)


def _report_at(net, rows, cols):
    """A report of the coefficients of ``net`` at ``rows, cols`` of x, all zero."""
    return ComparisonReport(net.nonslack_nodes(), rows, cols, np.zeros(len(rows)))


def _problem(network):
    Y = pfsc.build_admittance(network)
    state = pfsc.solve_load_flow(network, Y)
    return pfsc.assemble_problem(Y, state, network)


class TestCoefficientKey:
    def test_single_phase_label(self, ieee4):
        problem = _problem(ieee4)
        rows, cols = [problem.row(4, 0, "re")], [problem.column(2, 0, "P")]
        report = _report_at(ieee4, np.array(rows), np.array(cols))
        assert report.keys == [CoefficientKey(4, 0, "re", 2, 0, "P")]
        assert report.labels == ["Re(dE4/dP2)"]

    def test_three_phase_label(self):
        net = make_three_phase_balanced()
        problem = _problem(net)
        rows, cols = [problem.row(3, 1, "im")], [problem.column(2, 2, "Q")]
        report = _report_at(net, np.array(rows), np.array(cols))
        assert report.keys == [CoefficientKey(3, 1, "im", 2, 2, "Q")]
        assert report.labels == ["Im(dE3b/dQ2c)"]


class TestCoefficientKeys:
    @pytest.mark.parametrize("three_phase", [False, True])
    @pytest.mark.parametrize(
        "coefficients",
        [
            None,
            ((4, 2, "re", "P"),),
            # every phase pair of two bus pairs, and a repeat
            ((3, 2, "im", "Q"), (2, 3, "re", "Q"), (3, 2, "im", "Q")),
        ],
    )
    def test_matches_brute_force(self, ieee4, three_phase, coefficients):
        net = make_three_phase_balanced() if three_phase else ieee4
        problem = _problem(net)
        rows, cols = coefficient_positions(net, coefficients)
        ref_keys, ref_rows, ref_cols = brute_force_keys(problem, coefficients)
        assert _report_at(net, rows, cols).keys == ref_keys
        assert rows.tolist() == ref_rows
        assert cols.tolist() == ref_cols

    @pytest.mark.parametrize("which", ["ieee4", "three-phase", "random12"])
    @pytest.mark.parametrize("seed", range(4))
    def test_positions_match_mask_reference(self, ieee4, which, seed):
        net = {
            "ieee4": ieee4,
            "three-phase": make_three_phase_balanced(),
            "random12": make_random_network(12, 5, radial=False),
        }[which]
        buses = [bus for bus, _ in net.nonslack_nodes()]
        rng = np.random.default_rng(seed)
        # random entries, drawn with replacement: duplicates included
        entries = [
            (int(rng.choice(buses)), int(rng.choice(buses)),
             str(rng.choice(PARTS)), str(rng.choice(INJECTIONS)))
            for _ in range(rng.integers(1, 3 * len(buses)))
        ]
        for coefficients in (None, tuple(entries), tuple(entries + entries[:2])):
            rows, cols = coefficient_positions(net, coefficients)
            ref_rows, ref_cols = positions_by_mask(net, coefficients)
            assert rows.dtype == ref_rows.dtype and cols.dtype == ref_cols.dtype
            assert rows.tolist() == ref_rows.tolist()
            assert cols.tolist() == ref_cols.tolist()

    @pytest.mark.parametrize("three_phase", [False, True])
    def test_keys_and_labels_match_brute_force(self, ieee4, three_phase):
        # the keys and the labels are built from columns of field values
        net = make_three_phase_balanced() if three_phase else ieee4
        report = _report_at(net, *coefficient_positions(net))
        keys = report.keys
        ref_keys, _, _ = brute_force_keys(_problem(net))
        assert [astuple(k) for k in keys] == [astuple(k) for k in ref_keys]
        assert [hash(k) for k in keys] == [hash(k) for k in ref_keys]
        assert len(set(keys)) == len(keys)
        labels = report.labels
        assert labels == [coefficient_label(k, net.phase_count) for k in ref_keys]
        with pytest.raises(FrozenInstanceError):
            keys[0].bus_i = 9
        assert replace(keys[0], bus_i=9) == CoefficientKey(9, *astuple(keys[0])[1:])

    @pytest.mark.parametrize(
        "entry",
        [
            (2, 2, "RE", "P"),  # part spelled in capitals
            (2, 2, "re", "p"),  # injection spelled in lower case
            (99, 2, "re", "P"),  # unknown bus
            (1, 2, "re", "P"),  # the slack bus
            (2, 1, "re", "P"),
            ([2], 2, "re", "P"),  # an unhashable bus
            (2, [2], "re", "P"),
        ],
    )
    def test_entry_selecting_nothing_raises(self, ieee4, entry):
        with pytest.raises(ConfigError, match=re.escape(repr(entry))):
            coefficient_positions(ieee4, ((2, 3, "re", "Q"), entry))

    @pytest.mark.parametrize(
        "entry", [(2, 3, "re"), 5, (2, 3, "re", "P", 0)], ids=["3-tuple", "int", "5-tuple"]
    )
    def test_malformed_entry_raises_the_config_error(self, ieee4, entry):
        with pytest.raises(ConfigError) as expected:
            small_cfg(coefficients=(entry,))
        with pytest.raises(ConfigError) as excinfo:
            coefficient_positions(ieee4, ((2, 3, "re", "Q"), entry))
        assert str(excinfo.value) == str(expected.value)
        assert repr(entry) in str(excinfo.value)
        assert len(str(excinfo.value).splitlines()) == 1

    def test_pipeline_rejects_entry_selecting_nothing(self, monkeypatch):
        _no_load_flow(monkeypatch)
        cfg = small_cfg(coefficients=((99, 2, "re", "P"),), mode="analytical")
        with pytest.raises(ConfigError, match="selects nothing"):
            run_pipeline(cfg)


def _no_load_flow(monkeypatch):
    monkeypatch.setattr(
        pfsc.report, "solve_load_flow", lambda *args: pytest.fail("load flow ran")
    )


class TestFilterCheckedBeforeLoadFlow:
    @pytest.mark.parametrize(
        "entry",
        [(2, 3, "re"), (2, 3, "re", "P", 0), "23rP", 4, None],
        ids=["3-tuple", "5-tuple", "str", "int", "none"],
    )
    def test_malformed_entry(self, monkeypatch, entry):
        _no_load_flow(monkeypatch)
        with pytest.raises(ConfigError) as excinfo:
            run_pipeline(small_cfg(coefficients=((2, 3, "re", "Q"), entry)))
        message = str(excinfo.value)
        assert repr(entry) in message
        assert len(message.splitlines()) == 1

    def test_four_item_list_entry_is_kept(self):
        cfg = small_cfg(coefficients=([4, 2, "re", "P"],), mode="analytical")
        assert run_pipeline(cfg).labels == ["Re(dE4/dP2)"]


def _renumbered(net, numbers):
    """``net`` with its bus list reversed (slack last) and bus i renamed
    ``numbers[i]``."""
    branches = tuple(
        Branch(
            numbers[br.from_bus], numbers[br.to_bus], br.z_ohm, br.shunt_b_s,
            br.length_km,
        )
        for br in net.branches
    )
    return replace(
        net,
        buses=tuple(replace(b, index=numbers[b.index]) for b in reversed(net.buses)),
        branches=branches,
        slack_bus=numbers[net.slack_bus],
    )


class TestBusOrder:
    """Reports do not depend on where a bus sits in the file or its number."""

    NUMBERS = {1: 40, 2: 7, 3: 1000, 4: 23}

    @staticmethod
    def _by_key(network, tmp_path, numbers=None):
        """{key: (nominal, analytical std)} of the report, buses renamed by numbers."""
        path = tmp_path / "net.yaml"
        pfsc.emit_network(network, path)
        report = run_pipeline(small_cfg(network=str(path), mode="analytical"))
        numbers = numbers or {b.index: b.index for b in network.buses}
        return {
            astuple(replace(k, bus_i=numbers[k.bus_i], bus_l=numbers[k.bus_l])): (
                report.nominal[i], report.analytical[1.0][i]
            )
            for i, k in enumerate(report.keys)
        }

    @pytest.mark.parametrize("three_phase", [False, True])
    def test_reversed_and_renumbered(self, ieee4, three_phase, tmp_path):
        net = make_three_phase_balanced() if three_phase else ieee4
        moved = _renumbered(net, self.NUMBERS)
        assert moved.buses[-1].index == moved.slack_bus
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        want = self._by_key(net, tmp_path / "a", self.NUMBERS)
        got = self._by_key(moved, tmp_path / "b")
        assert set(got) == set(want)
        keys = sorted(want)
        np.testing.assert_allclose(
            [got[k] for k in keys], [want[k] for k in keys], rtol=1e-10, atol=0
        )

        Y = pfsc.build_admittance(moved)
        state = pfsc.solve_load_flow(moved, Y)
        problem = pfsc.assemble_problem(Y, state, moved)
        rows, cols = coefficient_positions(moved)
        keys = _report_at(moved, rows, cols).keys
        for key, r, c in zip(keys, rows.tolist(), cols.tolist()):
            assert r == problem.row(key.bus_i, key.phase_i, key.part)
            assert c == problem.column(key.bus_l, key.phase_l, key.wrt)
        columns = {}
        for key in keys:
            columns.setdefault((key.bus_l, key.phase_l, key.wrt), []).append(key)
        for (bus_l, ph_l, wrt), col_keys in columns.items():
            fd = pfsc.finite_difference_oracle(moved, Y, bus_l, ph_l, wrt, state=state)
            for key in col_keys:
                d = fd[moved.flat_index(key.bus_i, key.phase_i)]
                ref = d.real if key.part == "re" else d.imag
                nominal, _ = got[astuple(key)]
                assert abs(nominal - ref) <= 1e-3 * max(abs(d), 1e-9)


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
        assert report.labels[0] == "Re(dE4/dP2)"

    @pytest.mark.parametrize("empty", [(), []], ids=["tuple", "list"])
    def test_empty_filter_refused(self, ieee4, empty):
        # refused as the config is built, before any numerical work, and by
        # coefficient_positions called directly: a report of no coefficient
        # used to be written in every format
        message = ("the coefficient filter is empty: it selects no coefficient "
                   "(None keeps the whole table)")
        with pytest.raises(ConfigError) as info:
            small_cfg(coefficients=empty)
        assert str(info.value) == message
        with pytest.raises(ConfigError) as info:
            coefficient_positions(ieee4, empty)
        assert str(info.value) == message

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

    def test_equal_repeated_level_runs_once(self, monkeypatch):
        from pfsc import montecarlo

        calls = {"analytical": 0, "mc": 0}

        def counted(name, real):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(
            pfsc.report, "analytical_sigma", counted("analytical", pfsc.report.analytical_sigma)
        )
        monkeypatch.setattr(montecarlo, "_solve_level", counted("mc", montecarlo._solve_level))
        once = run_pipeline(small_cfg(sigma_y_pct=(1,)))
        one_level = dict(calls)
        assert one_level["analytical"] == 1 and one_level["mc"] >= 1
        calls.update(analytical=0, mc=0)
        twice = run_pipeline(small_cfg(sigma_y_pct=(1, 1.0)))
        assert calls == one_level
        assert sorted(twice.timings) == sorted(once.timings)
        assert set(twice.analytical) == {1} and set(twice.mc) == {(1, 50)}
        assert np.array_equal(twice.analytical[1], once.analytical[1])
        assert np.array_equal(twice.mc[(1, 50)], once.mc[(1, 50)])

    def test_equal_repeated_count_runs_once(self, monkeypatch):
        passes = []

        def recorded(network, Y, state, cfgs):
            passes.append(cfgs)
            return run_monte_carlo_sets(network, Y, state, cfgs)

        run_monte_carlo_sets = pfsc.report.run_monte_carlo_sets
        monkeypatch.setattr(pfsc.report, "run_monte_carlo_sets", recorded)
        once = run_pipeline(small_cfg(n_mc=(100,)))
        twice = run_pipeline(small_cfg(n_mc=(100, 100)))
        assert [[c.n_trials for c in cfgs] for cfgs in passes] == [[100], [100]]
        assert sorted(twice.timings) == sorted(once.timings)
        assert twice.mc_failed == once.mc_failed
        assert set(twice.mc) == set(once.mc) == {(1.0, 100)}
        assert np.array_equal(twice.mc[(1.0, 100)], once.mc[(1.0, 100)])
        assert np.array_equal(twice.analytical[1.0], once.analytical[1.0])
        assert np.array_equal(twice.nominal, once.nominal)

    def test_keys_not_built_by_a_report_op(self, tmp_path):
        report = run_pipeline(small_cfg())
        emit_report(report, FORMATS, tmp_path)
        assert "keys" not in report.__dict__
        assert "labels" not in report.__dict__

    def test_deterministic_modulo_timing(self):
        a = run_pipeline(small_cfg())
        b = run_pipeline(small_cfg())
        assert np.array_equal(a.nominal, b.nominal)
        assert np.array_equal(a.analytical[1.0], b.analytical[1.0])
        assert np.array_equal(a.mc[(1.0, 50)], b.mc[(1.0, 50)])


class TestFilteredReport:
    """A filtered report solves only its rows and columns of H^-1 and agrees
    with the full-table report."""

    NETWORKS = {
        "random60": lambda: make_random_network(60, 1, radial=False),
        "random300": lambda: make_random_network(300, 4, radial=False),
        "three-phase": make_three_phase_balanced,
    }

    @staticmethod
    def _filter(network):
        buses = [b.index for b in network.buses if b.index != network.slack_bus]
        picked = buses[:: max(2, len(buses) // 8)]  # leaves out some rows
        return tuple(
            (bus_i, bus_l, part, wrt)
            for bus_i, bus_l in zip(picked, picked[1:] + picked[:1])
            for part in PARTS
            for wrt in INJECTIONS
        ) + ((picked[0], picked[0], "re", "P"),)

    @pytest.mark.parametrize("which", list(NETWORKS))
    def test_equals_full_table(self, tmp_path, which):
        net = self.NETWORKS[which]()
        path = tmp_path / "net.yaml"
        pfsc.emit_network(net, path)
        cfg = small_cfg(network=str(path), mode="analytical")
        full = run_pipeline(cfg)
        filtered = run_pipeline(replace(cfg, coefficients=self._filter(net)))
        rows, cols = coefficient_positions(net, self._filter(net))
        dim = 2 * len(net.nonslack_flat_indices())
        assert len(set(rows.tolist())) < dim and len(set(cols.tolist())) < dim
        index = {k: i for i, k in enumerate(full.keys)}
        at = [index[k] for k in filtered.keys]
        assert 0 < len(at) < len(full.keys)
        np.testing.assert_allclose(filtered.nominal, full.nominal[at], rtol=1e-12, atol=0)
        np.testing.assert_allclose(
            filtered.analytical[1.0], full.analytical[1.0][at], rtol=1e-12, atol=0
        )

    def test_global_rng_untouched_and_bitwise_repeatable(self, tmp_path):
        net = make_random_network(60, 1, radial=False)
        path = tmp_path / "net.yaml"
        pfsc.emit_network(net, path)
        cfg = small_cfg(network=str(path), mode="analytical", coefficients=self._filter(net))
        np.random.seed(11)
        before = np.random.get_state()
        a = run_pipeline(cfg)
        after = np.random.get_state()
        assert before[0] == after[0] and before[2:] == after[2:]
        assert np.array_equal(before[1], after[1])
        b = run_pipeline(cfg)
        assert a.nominal.tobytes() == b.nominal.tobytes()
        assert a.analytical[1.0].tobytes() == b.analytical[1.0].tobytes()


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
        # a repeated format is written and listed once
        csv_path, json_path = emit_report(report, ("csv", "csv", "json"), tmp_path)
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

        def one_singular_trial(Ym, E, network, *order):
            problem = real(Ym, E, network, *order)
            for H in problem.blocks:
                H[0] = 0.0
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
        labels = [coefficient_label(k) for k in report.keys]
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

    def test_numpy_integer_seed(self, tmp_path):
        # the seed checks accept a numpy integer; report.json holds it as a number
        texts = []
        for seed in (np.int64(3), 3):
            report = run_pipeline(small_cfg(seed=seed, n_mc=(5,)))
            report.timings = dict.fromkeys(report.timings, 0.0)
            out = tmp_path / type(seed).__name__
            emit_report(report, ("csv", "json"), out)
            texts.append((out / "report.json").read_bytes())
        assert texts[0] == texts[1]
        assert json.loads(texts[0])["meta"]["seed"] == 3

    def test_unknown_format(self, report, tmp_path):
        with pytest.raises(ConfigError, match="unknown report format"):
            emit_report(report, ("xml",), tmp_path)

    def test_levels_sharing_a_csv_name(self, tmp_path):
        report = run_pipeline(small_cfg(mode="analytical", sigma_y_pct=(1.0000001, 1.0),
                                        formats=("json",)))
        with pytest.raises(ConfigError, match="1.0 and 1.0000001 would both write"):
            emit_report(report, ("json", "csv"), tmp_path / "out")
        assert list(tmp_path.iterdir()) == []
        (path,) = emit_report(report, ("json",), tmp_path / "out")
        assert sorted(json.loads(path.read_text())["analytical"]) == ["1.0", "1.0000001"]

    def test_csv_values_identical_across_runs(self, tmp_path):
        # everything but the wall-clock column must be byte-identical
        def run(sub):
            out = tmp_path / sub
            (path,) = emit_report(run_pipeline(small_cfg()), ("csv",), out)
            with open(path) as fh:
                rows = list(csv.reader(fh))
            return [row[:-1] for row in rows]

        assert run("a") == run("b")


def _reference_emit_report(report, formats, out_dir):
    """Row-by-row emission, one format at a time: the reference for
    ``emit_report``, whose files must match it byte for byte (JSON aside
    from its non-finite numbers, see ``_json_nulls``)."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    levels = sorted(
        set(report.analytical) | {lvl for lvl, _ in report.mc}
    )
    n_mcs = sorted({n for _, n in report.mc})
    p = report.meta.get("phase_count", 1)
    labels = [coefficient_label(k, p) for k in report.keys]

    for fmt in formats:
        if fmt == "csv":
            for lvl in levels:
                path = out_dir / f"report_sigmaY_{lvl:g}pct.csv"
                summed = {"load_flow_s", "coefficients_s"}
                summed.add(_timing_key("analytical_s", lvl))
                summed.update(_timing_key("mc_s", lvl, n) for n in n_mcs)
                total = sum(
                    v for k, v in report.timings.items() if k in summed
                )
                header = ["coefficient", "nominal_pu"]
                if lvl in report.analytical:
                    header.append("std_analytical")
                header += [f"std_mc_{n}" for n in n_mcs if (lvl, n) in report.mc]
                header.append("time_s")
                with open(path, "w", newline="") as fh:
                    writer = csv.writer(fh)
                    writer.writerow(header)
                    for i, label in enumerate(labels):
                        row = [label, repr(float(report.nominal[i]))]
                        if lvl in report.analytical:
                            row.append(repr(float(report.analytical[lvl][i])))
                        for n in n_mcs:
                            if (lvl, n) in report.mc:
                                row.append(repr(float(report.mc[(lvl, n)][i])))
                        row.append(repr(float(total)))
                        writer.writerow(row)
                written.append(path)
        elif fmt == "json":
            path = out_dir / "report.json"
            with open(path, "w") as fh:
                json.dump(_reference_document(report, labels), fh, indent=2, sort_keys=True)
                fh.write("\n")
            written.append(path)
        else:  # pretty-text
            path = out_dir / "report.txt"
            written.append(_reference_emit_pretty(report, labels, levels, n_mcs, path))
    return written


def _reference_document(report, labels, number=float):
    """The report's JSON document, each array value as ``number`` of it."""

    def numbers(values):
        return [number(v) for v in values.tolist()]

    return {
        "meta": report.meta,
        "timings": report.timings,
        "coefficients": labels,
        "nominal_pu": numbers(report.nominal),
        "analytical": {
            str(lvl): {
                "std": numbers(stds),
                "pct_of_nominal": numbers(report.percent_of_nominal(stds)),
            }
            for lvl, stds in sorted(report.analytical.items())
        },
        "monte_carlo": {
            f"{lvl}|{n}": {
                "std": numbers(stds),
                "pct_of_nominal": numbers(report.percent_of_nominal(stds)),
                "trials_failed": report.mc_failed[(lvl, n)],
            }
            for (lvl, n), stds in sorted(report.mc.items())
        },
    }


def _reference_emit_pretty(report, labels, levels, n_mcs, path):
    d = 4
    width = max([len(s) for s in labels] + [24])
    lines = []
    for lvl in levels:
        lines.append(f"sigma_Y = {lvl:g}% of |element|")
        head = f"{'coefficient':<{width}} {'nominal':>12}"
        columns = []  # (stds, percent of nominal), one per std column
        if lvl in report.analytical:
            head += f" {'analytical':>16}"
            columns.append(report.analytical[lvl])
        for n in n_mcs:
            if (lvl, n) in report.mc:
                head += f" {f'MC n={n}':>16}"
                columns.append(report.mc[(lvl, n)])
        columns = [(c, report.percent_of_nominal(c)) for c in columns]
        lines.append(head)
        for i, label in enumerate(labels):
            row = f"{label:<{width}} {report.nominal[i]:>12.{d}f}"
            for stds, pct in columns:
                row += f" {stds[i]:>9.{d}f} ({pct[i]:4.1f}%)"
            lines.append(row)
        lines.append("")
    lines.append("timings (s):")
    for k in sorted(report.timings):
        lines.append(f"  {k}: {report.timings[k]:.3f}")
    path.write_text("\n".join(lines) + "\n")
    return path


def _json_nulls(text):
    """``text`` with each non-finite array item (``json``'s NaN, Infinity and
    -Infinity tokens) written as null, as ``emit_report`` writes it."""
    return re.sub(r"(?m)^( *)(?:NaN|-?Infinity)(,?)$", r"\1null\2", text)


def _raise_on_constant(token):
    raise ValueError(f"not RFC 8259 JSON: {token}")


def _network_cfg(tmp_path, network, **kw):
    path = tmp_path / "net.yaml"
    pfsc.emit_network(network, path)
    return small_cfg(network=str(path), **kw)


class TestEmissionBytes:
    """``emit_report`` writes the reference's bytes, all formats in one call."""

    CASES = {
        "ieee4": lambda tmp: small_cfg(n_mc=(20, 50)),
        "three-phase": lambda tmp: _network_cfg(tmp, make_three_phase_balanced()),
        "analytical-two-levels": lambda tmp: small_cfg(
            mode="analytical", sigma_y_pct=(0.5, 0.55)
        ),
        # zero nominals: buses in different subtrees under the stiff slack
        "random60-full": lambda tmp: _network_cfg(
            tmp, make_random_network(60, 1, radial=False), n_mc=(20,)
        ),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_same_bytes_as_reference(self, tmp_path, case):
        report = run_pipeline(self.CASES[case](tmp_path))
        # fixed timings, so that the time_s column and the timings compare
        report.timings = {k: 0.125 * (i + 1) for i, k in enumerate(report.timings)}
        got = emit_report(report, FORMATS, tmp_path / "got")
        want = _reference_emit_report(report, FORMATS, tmp_path / "want")
        assert [p.name for p in got] == [p.name for p in want]
        for g, w in zip(got, want):
            expected = w.read_bytes()
            if w.suffix == ".json":
                expected = _json_nulls(expected.decode()).encode()
            assert g.read_bytes() == expected, g.name

    @pytest.mark.parametrize("block", [1, 3, None])
    def test_edge_values_at_any_block_size(self, tmp_path, monkeypatch, block):
        # NaN, +inf, -inf and -0.0 in the nominal and std columns, in rows
        # of blocks of 1 and 3 rows that mix them with finite blocks, and
        # in one block of the whole table (None)
        report = run_pipeline(small_cfg(n_mc=(20,), sigma_y_pct=(0.5, 1.0)))
        report.timings = {k: 0.125 * (i + 1) for i, k in enumerate(report.timings)}
        edge = [np.nan, np.inf, -np.inf, -0.0]
        report.nominal[[0, 5, 10, 17]] = edge
        for stds in [*report.analytical.values(), *report.mc.values()]:
            stds[[1, 5, 12, 35]] = edge[::-1]
        monkeypatch.setattr(pfsc.report, "_BLOCK_ROWS", block or len(report.nominal))
        got = emit_report(report, FORMATS, tmp_path / "got")
        want = _reference_emit_report(report, FORMATS, tmp_path / "want")
        assert [p.name for p in got] == [p.name for p in want]
        for g, w in zip(got, want):
            if g.suffix != ".json":  # csv.writer of repr rows, and the text
                assert g.read_bytes() == w.read_bytes(), g.name
        labels = [coefficient_label(k) for k in report.keys]
        doc = _reference_document(report, labels, lambda v: v if np.isfinite(v) else None)
        json_text = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"
        assert (tmp_path / "got" / "report.json").read_text() == json_text
        assert '"nominal_pu": [\n    null,' in json_text and "\n    -0.0," in json_text

    @pytest.mark.parametrize("case", ["ieee4", "three-phase"])
    def test_csv_is_csv_writers_bytes(self, tmp_path, case):
        # each row fills one "%s,...\r\n" template unquoted: csv.writer
        # writes the same bytes for the fields read back, polyphase labels
        # such as Im(dE3b/dQ2c) included
        report = run_pipeline(self.CASES[case](tmp_path))
        if case == "three-phase":
            assert "Im(dE3b/dQ2c)" in report.labels
        for path in emit_report(report, ("csv",), tmp_path / "out"):
            with open(path, newline="") as fh:
                rows = list(csv.reader(fh))
            again = io.StringIO(newline="")
            csv.writer(again).writerows(rows)
            assert path.read_bytes() == again.getvalue().encode()

    @pytest.mark.parametrize("block", [1, 5, 36])
    def test_same_bytes_whatever_the_block_size(self, tmp_path, monkeypatch, block):
        # ieee4's 36 coefficients, in every format, CSV too, in blocks of
        # one row, of 5 and a partial block, and in one whole block
        report = run_pipeline(small_cfg(n_mc=(20,)))
        want = [p.read_bytes() for p in emit_report(report, FORMATS, tmp_path / "want")]
        monkeypatch.setattr(pfsc.report, "_BLOCK_ROWS", block)
        got = [p.read_bytes() for p in emit_report(report, FORMATS, tmp_path / "got")]
        assert got == want

    def test_zero_nominal_percent_is_null(self, tmp_path):
        cfg = _network_cfg(
            tmp_path, make_random_network(60, 1, radial=False), mode="analytical"
        )
        report = run_pipeline(cfg)
        zero = report.nominal == 0
        assert zero.any()
        (path,) = emit_report(report, ("json",), tmp_path / "out")
        doc = json.loads(path.read_text(), parse_constant=_raise_on_constant)
        pct = doc["analytical"]["1.0"]["pct_of_nominal"]
        assert [v is None for v in pct] == zero.tolist()
        (path,) = emit_report(report, ("pretty-text",), tmp_path / "out")
        assert "nan%)" in path.read_text()


#: networks of the pretty-text oracle test: two whose H is one block, and
#: ``make_feeder(60, 1)``, whose H splits into blocks of 70, 46 and 2 rows
PRETTY_NETWORKS = {
    "ieee4": None,
    "three-phase": make_three_phase_balanced,
    "feeder60-seed1": lambda: make_feeder(60, 1),
}


def _set_edge_rows(report):
    """Set eight rows of ``report`` with nonzero values to the rows the
    pretty table must write as the per-row template does; returns how
    many rows are then all +0.0."""
    columns = [*report.analytical.values(), *report.mc.values()]
    nominal = report.nominal
    usable = nominal != 0
    for stds in columns:
        usable &= stds > 0
    r = np.flatnonzero(usable)[:8]
    nominal[r[:2]] = 0.0  # two all +0.0 rows
    nominal[r[2]] = -0.0  # -0.0 nominal, +0.0 stds
    nominal[r[3]] = 0.0  # +0.0 nominal, one -0.0 std
    nominal[r[4]] = 0.0  # zero nominal, nonzero stds: inf%
    nominal[r[6]] = 0.0  # NaN stds of a zero nominal; r[5]: of a nonzero one
    for stds in columns:
        stds[r[:4]] = 0.0
        stds[r[5:7]] = np.nan
        stds[r[7]] = 0.0  # +0.0 stds of a nonzero nominal
    columns[-1][r[3]] = -0.0
    zero = np.signbit(nominal) | (nominal != 0)
    for stds in columns:
        zero |= np.signbit(stds) | (stds != 0)
    return np.count_nonzero(~zero)


@pytest.mark.parametrize("block", [None, 3])
@pytest.mark.parametrize("network", list(PRETTY_NETWORKS))
def test_pretty_text_is_the_per_row_template(tmp_path, monkeypatch, network, block):
    # all +0.0 rows take a shortcut; -0.0, inf% and NaN rows fill the
    # template, in blocks of rows that mix both (3) and in whole blocks
    make = PRETTY_NETWORKS[network]
    cfg = small_cfg(n_mc=(20, 30)) if make is None else _network_cfg(
        tmp_path, make(), n_mc=(20,))
    report = run_pipeline(cfg)
    report.timings = {k: 0.125 * (i + 1) for i, k in enumerate(report.timings)}
    zeros = _set_edge_rows(report)
    if block is not None:
        monkeypatch.setattr(pfsc.report, "_BLOCK_ROWS", block)
    (path,) = emit_report(report, ("pretty-text",), tmp_path / "out")
    text = path.read_text()
    assert text == pretty_text(report)
    for part in ("     -0.0000 ", " -0.0000 (", "( inf%)", "    nan ( nan%)"):
        assert part in text
    assert zeros == (6_906 if network == "feeder60-seed1" else 2)


def test_json_numbers_format_finite_values_only():
    # the items, one a line, of arbitrary ranges, not only of whole blocks
    values = np.array([1.5, -0.0, np.inf, 0.0, np.nan, -np.inf, 1e-300, -2.5, np.nan])
    for start, stop in ((0, 9), (2, 7), (3, 4), (4, 5), (0, 0)):
        want = [repr(v) if np.isfinite(v) else "null" for v in values[start:stop].tolist()]
        assert _json_numbers(values, start, stop, ", ") == ", ".join(want)
        assert _Column(values).json_items(start, stop, ", ") == ", ".join(want)
    assert _json_numbers(values, 0, 2, ", ") == "1.5, -0.0"


def _traced_peak(run):
    """Peak traced bytes that ``run()`` adds."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        run()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def _emission_peak(report, out_dir):
    """Peak traced bytes that ``emit_report`` of ``report`` in every format adds."""
    return _traced_peak(lambda: emit_report(report, FORMATS, out_dir))


def test_full_table_emission_peak_memory(tmp_path):
    """``emit_report`` of the 13,924-row table of ``make_feeder(60, 1)`` in
    every format peaks at about 1.10 MB under ``tracemalloc``: the labels
    and the shared columns are kept as one text per block of rows, and
    every file is written a block of rows at a time."""
    report = run_pipeline(_network_cfg(tmp_path, make_feeder(60, 1), n_mc=(20,)))
    assert len(report.nominal) == 13_924
    peak = _emission_peak(report, tmp_path / "out")
    assert peak <= 3e6, peak


def test_block_percent_emission_peak_memory(tmp_path):
    """The emission of ``test_full_table_emission_peak_memory`` computes
    each percent-of-nominal column a block of 1,024 rows at a time, and
    holds no array of the whole table beside the report's own: it peaks
    at about 1.10 MB under ``tracemalloc``, where whole-table percent
    columns and blocks of 2,048 rows peaked at 1.62 MB."""
    report = run_pipeline(_network_cfg(tmp_path, make_feeder(60, 1), n_mc=(20,)))
    peak = _emission_peak(report, tmp_path / "out")
    assert peak <= 1.3e6, peak


def test_full_table_pipeline_peak_memory(tmp_path):
    """``run_pipeline`` of that table with 200 Monte-Carlo trials frees the
    point's dense H, H^-1 and x, and each whole table of analytical stds,
    before the pass: it peaks at about 1.35 MB under ``tracemalloc``, in
    the pass, where holding them through the pass peaked at 2.29 MB."""
    cfg = _network_cfg(tmp_path, make_feeder(60, 1), n_mc=(200,))
    run_pipeline(cfg)  # lazy set-up
    peak = _traced_peak(lambda: run_pipeline(cfg))
    assert peak <= 1.6e6, peak


def test_150_bus_analytical_emission_peak_memory(tmp_path):
    """The 88,804-row analytical table of ``make_feeder(150, 1)`` in every
    format peaks at about 4.8 MB under ``tracemalloc``, most of it the
    text of the labels and of the two shared columns."""
    report = run_pipeline(
        _network_cfg(tmp_path, make_feeder(150, 1), mode="analytical"))
    assert len(report.nominal) == 88_804
    peak = _emission_peak(report, tmp_path / "out")
    assert peak <= 8e6, peak
