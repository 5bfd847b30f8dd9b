import csv
import io
import json
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import pfsc
from pfsc import cli
from pfsc.cli import main

from conftest import make_feeder, make_random_network, make_three_phase_balanced
from oracles import brute_force_keys

NETWORK = str(pfsc.bundled_network_path("ieee4_balanced"))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_no_command_is_usage_error(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main([])
    assert excinfo.value.code == 1


def test_solve_prints_profile(capsys):
    code, out, _ = run(capsys, "solve", "--network", NETWORK)
    assert code == 0
    assert "bus 1 phase 0" in out
    assert "converged in" in out


def test_report_on_two_subtrees(capsys, tmp_path):
    # the feeder CI runs from the installed package: H has one block of
    # buses 2 and 4 and one of bus 3, and each of the 16 rows between them
    # reads +0.0 with 0/0 percents, null in JSON
    network = Path(__file__).parent / "data" / "two_subtrees.yaml"
    code, _, _ = run(capsys, "report", "--network", str(network), "--nmc", "50",
                     "--format", "pretty-text,json", "--out", str(tmp_path))
    assert code == 0
    lines = (tmp_path / "report.txt").read_text().splitlines()
    assert len(lines) == 2 + 36 + 1 + 1 + 4  # 4 timings
    zero = [line for line in lines if line.endswith("    0.0000 ( nan%)" * 2)]
    assert len(zero) == 16
    assert zero[0].split()[0] == "Re(dE2/dP3)"
    doc = json.loads((tmp_path / "report.json").read_text())
    for column in (doc["analytical"]["1.0"], doc["monte_carlo"]["1.0|50"]):
        assert column["pct_of_nominal"].count(None) == 16


def test_missing_network_file(capsys):
    code, _, err = run(capsys, "solve", "--network", "/no/such.yaml")
    assert code == 1
    assert "no/such.yaml" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("solve", "--network", "{dir}"),
        ("pfsc", "--network", "{dir}"),
        ("report", "--network", "{dir}", "--out", "{out}"),
        ("propagate", "--network", NETWORK, "--noise-config", "{dir}"),
        ("mc", "--network", NETWORK, "--nmc", "5", "--noise-config", "{dir}"),
        ("report", "--network", NETWORK, "--noise-config", "{dir}", "--out", "{out}"),
    ],
    ids=[
        "solve-network", "pfsc-network", "report-network",
        "propagate-noise", "mc-noise", "report-noise",
    ],
)
def test_directory_path_is_config_error(capsys, tmp_path, argv):
    argv = [a.format(dir=tmp_path, out=tmp_path / "out") for a in argv]
    code, _, err = run(capsys, *argv)
    assert code == 1
    assert err.startswith(f"pfsc {argv[0]}: ")
    assert len(err.splitlines()) == 1
    assert not (tmp_path / "out").exists()


_TABLE_ARGS = {
    "solve": (),
    "pfsc": (),
    "propagate": (),
    "mc": ("--nmc", "5"),
    "report": ("--out", "{out}"),
}


@pytest.mark.parametrize("command", _TABLE_ARGS)
@pytest.mark.parametrize(
    "path, message",
    [
        ("{missing}", "network file not found: {missing}"),
        ("{dir}", "network file is a directory: {dir}"),
    ],
    ids=["missing", "directory"],
)
def test_bad_network_path_reads_alike_on_every_subcommand(
    capsys, tmp_path, command, path, message
):
    # solve and mc used to print the operating system's own text
    names = {"missing": tmp_path / "no-such.yaml", "dir": tmp_path, "out": tmp_path / "out"}
    argv = [command, "--network", path, *_TABLE_ARGS[command]]
    code, out, err = run(capsys, *[a.format(**names) for a in argv])
    assert code == 1
    assert out == ""
    assert err == f"pfsc {command}: {message.format(**names)}\n"
    assert not names["out"].exists()


@pytest.mark.parametrize("command", ["propagate", "mc", "report"])
def test_missing_noise_config_reads_alike(capsys, tmp_path, command, monkeypatch):
    monkeypatch.delenv(cli.CONFIG_DIR_ENV, raising=False)
    missing = tmp_path / "no-such-noise.yaml"
    argv = [command, "--network", NETWORK, "--noise-config", str(missing)]
    argv += [a.format(out=tmp_path / "out") for a in _TABLE_ARGS[command]]
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err == f"pfsc {command}: noise config not found: {missing}\n"


def test_report_unknown_format_before_any_work(capsys, tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "run_pipeline", lambda cfg: pytest.fail("pipeline ran"))
    out = tmp_path / "out"
    code, stdout, err = run(
        capsys, "report", "--network", NETWORK, "--format", "csv,jsn",
        "--out", str(out),
    )
    assert code == 1
    assert "'jsn'" in err
    assert stdout == ""
    assert not out.exists()


def test_pfsc_csv(capsys, tmp_path):
    out_file = tmp_path / "coeff.csv"
    code, _, _ = run(
        capsys, "pfsc", "--network", NETWORK, "--out", str(out_file)
    )
    assert code == 0
    with open(out_file) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 36
    by_key = {
        (r["bus_i"], r["bus_l"], r["part"], r["wrt"]): float(r["value"])
        for r in rows
    }
    # self coefficient at bus 4 carries the largest magnitude sensitivity
    assert by_key[("4", "4", "Re", "P")] > by_key[("2", "2", "Re", "P")]


def test_pfsc_json_stdout(capsys):
    code, out, _ = run(capsys, "pfsc", "--network", NETWORK, "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 36
    assert {"bus_i", "bus_l", "wrt", "part", "value"} <= set(rows[0])


def reference_rows(problem, x, name):
    """One dict per coefficient of x, in table order: the rows that the
    tables' CSV and JSON bytes are checked against."""
    keys, rows, cols = brute_force_keys(problem)
    return [
        {
            "bus_i": key.bus_i,
            "phase_i": key.phase_i,
            "bus_l": key.bus_l,
            "phase_l": key.phase_l,
            "wrt": key.wrt,
            "part": key.part.capitalize(),
            name: value,
        }
        for key, value in zip(keys, x[rows, cols].tolist())
    ]


def reference_bytes(rows, fmt):
    """The text ``json.dumps(rows, indent=2)`` or ``csv.DictWriter`` writes."""
    if fmt == "json":
        return json.dumps(rows, indent=2) + "\n"
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(rows[0]))
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()


TABLE_NETWORKS = {
    "ieee4": lambda: pfsc.load_network(NETWORK),
    "three-phase": make_three_phase_balanced,
    "random60": lambda: make_random_network(60, 1, radial=False),
}


@pytest.mark.parametrize("command", ["pfsc", "propagate", "mc"])
@pytest.mark.parametrize("name", TABLE_NETWORKS)
def test_table_bytes(capsys, tmp_path, name, command):
    network = TABLE_NETWORKS[name]()
    path = tmp_path / "net.yaml"
    pfsc.emit_network(network, path)
    network = pfsc.load_network(path)
    Y = pfsc.build_admittance(network)
    state = pfsc.solve_load_flow(network, Y)
    problem = pfsc.assemble_problem(Y, state, network)
    result = pfsc.solve_coefficients(problem)
    polar = pfsc.it_class_to_polar("0.5")
    yu = pfsc.AdmittanceUncertainty.from_relative(Y, 1.0)
    if command == "pfsc":
        x, column, extra = result.x, "value", []
    elif command == "propagate":
        en = pfsc.project_polar_noise(state, polar)
        x, column, extra = pfsc.analytical_sigma(result, yu, en), "sigma", []
    else:
        cfg = pfsc.MCConfig(n_trials=5, seed=4, polar=polar, yu=yu)
        x = pfsc.run_monte_carlo(network, Y, state, cfg).std
        column, extra = "sigma_mc", ["--nmc", "5", "--seed", "4"]
    rows = reference_rows(problem, x, column)
    for fmt in ("json", "csv"):
        code, out, _ = run(capsys, command, "--network", str(path), "--format", fmt, *extra)
        assert code == 0
        assert out == reference_bytes(rows, fmt)


def test_json_table_spells_nonfinite_values_as_json_does(tmp_path):
    values = [1.5, -0.0, 1e-300, float("nan"), float("inf"), float("-inf")]
    table = {"part": ["Re", "Im\u00e9", "P", "Q", "\"", "x"], "bus_i": list(range(6)),
             "value": values}
    rows = [dict(zip(table, row)) for row in zip(*table.values())]
    out = tmp_path / "table.json"
    cli._write_table(table, out, "json")
    assert out.read_text() == json.dumps(rows, indent=2) + "\n"


def test_propagate_csv(capsys, tmp_path):
    out_file = tmp_path / "sigma.csv"
    code, _, _ = run(
        capsys,
        "propagate",
        "--network",
        NETWORK,
        "--it-class",
        "0.5",
        "--sigma-y-pct",
        "1.0",
        "--out",
        str(out_file),
    )
    assert code == 0
    with open(out_file) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 36
    assert all(float(r["sigma"]) > 0.0 for r in rows)


def test_propagate_unknown_it_class(capsys):
    code, _, err = run(
        capsys, "propagate", "--network", NETWORK, "--it-class", "9.9"
    )
    assert code == 1
    assert "IT class" in err


def test_mc_with_trial_dump(capsys, tmp_path):
    out_file = tmp_path / "mc.csv"
    dump = tmp_path / "trials.csv"
    code, _, err = run(
        capsys,
        "mc",
        "--network",
        NETWORK,
        "--nmc",
        "25",
        "--seed",
        "7",
        "--out",
        str(out_file),
        "--dump-trials",
        str(dump),
    )
    assert code == 0
    assert "25 trials, 0 failed" in err
    with open(out_file) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 36
    trial_rows = dump.read_text().splitlines()
    assert len(trial_rows) == 36
    assert len(trial_rows[0].split(",")) == 25


def test_trial_dump_in_blocks_is_the_whole_arrays_bytes(capsys, tmp_path, monkeypatch):
    # 36 rows of 25 trials in blocks of 7 rows, the last one partial:
    # the bytes csv.writer gives the whole store at once
    monkeypatch.setattr(cli, "_DUMP_BLOCK_VALUES", 7 * 25 + 3)
    dump = tmp_path / "trials.csv"
    code, _, _ = run(capsys, "mc", "--network", NETWORK, "--nmc", "25", "--seed", "7",
                     "--out", str(tmp_path / "mc.csv"), "--dump-trials", str(dump))
    assert code == 0
    net = pfsc.load_network(NETWORK)
    Y = pfsc.build_admittance(net)
    cfg = pfsc.MCConfig(n_trials=25, seed=7, polar=pfsc.it_class_to_polar("0.5"),
                        yu=pfsc.AdmittanceUncertainty.from_relative(Y, 1.0), store_trials=True)
    trials = pfsc.run_monte_carlo(net, Y, pfsc.solve_load_flow(net, Y), cfg).trials
    whole = io.StringIO(newline="")
    csv.writer(whole).writerows(trials.reshape(36, 25).tolist())
    assert dump.read_bytes() == whole.getvalue().encode()


def test_trial_dump_peak_memory(capsys, tmp_path):
    """``pfsc mc --dump-trials`` on ``make_feeder(60, 1)`` with 30 trials:
    the 13,924 x 30 trial store is 3.3 MB.  Written a block of rows at a
    time, the run peaks at about 8.1 MB under ``tracemalloc``: the store,
    the 13,924-row sigma table and one block of the dump as Python floats
    (5.4 MB while the pass fills the store, beside its 1 MiB chunks).
    That the pass holds the store once is bounded by
    ``test_stored_trials_peak_memory``, at a trial count where the store
    dominates."""
    network = tmp_path / "feeder60.yaml"
    pfsc.emit_network(make_feeder(60, 1), network)
    argv = ["mc", "--network", str(network), "--seed", "3", "--out", str(tmp_path / "mc.csv")]
    assert run(capsys, *argv, "--nmc", "2")[0] == 0  # lazy set-up
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        code = main([*argv, "--nmc", "30", "--dump-trials", str(tmp_path / "trials.csv")])
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak <= 12e6, peak


def test_mc_deterministic_for_fixed_seed(capsys, tmp_path):
    def one(name):
        out_file = tmp_path / name
        code, _, _ = run(
            capsys,
            "mc",
            "--network",
            NETWORK,
            "--nmc",
            "20",
            "--seed",
            "11",
            "--out",
            str(out_file),
        )
        assert code == 0
        return out_file.read_text()

    assert one("a.csv") == one("b.csv")


def test_mc_nmc_takes_one_count(capsys, tmp_path):
    # mc runs one trial count: a second one is a usage error, not dropped
    out_file = tmp_path / "mc.csv"
    with pytest.raises(SystemExit) as excinfo:
        main(["mc", "--network", NETWORK, "--nmc", "10", "20",
              "--out", str(out_file)])
    assert excinfo.value.code == 1
    assert "unrecognized arguments: 20" in capsys.readouterr().err
    assert not out_file.exists()
    # report keeps its list of counts
    code, _, _ = run(capsys, "report", "--network", NETWORK, "--mode", "mc",
                     "--nmc", "10", "20", "--format", "json", "--out",
                     str(tmp_path))
    assert code == 0
    doc = json.loads((tmp_path / "report.json").read_text())
    assert set(doc["monte_carlo"]) == {"1.0|10", "1.0|20"}


def test_report_requires_out(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["report", "--network", NETWORK])
    assert excinfo.value.code == 1


@pytest.mark.parametrize(
    "argv, message",
    [
        (("solve", "--out", "x.csv"), "unrecognized arguments: --out x.csv"),
        (("solve", "--format", "json"), "unrecognized arguments: --format json"),
        (("propagate", "--seed", "3"), "unrecognized arguments: --seed 3"),
        (("pfsc", "--format", "xml"), "invalid choice: 'xml'"),
        (("propagate", "--format", "pretty-text"), "invalid choice: 'pretty-text'"),
        (("mc", "--format", "xml"), "invalid choice: 'xml'"),
        (("report",), "the following arguments are required: --out"),
    ],
    ids=["solve-out", "solve-format", "propagate-seed", "pfsc-format",
         "propagate-format", "mc-format", "report-no-out"],
)
def test_unused_settings_are_usage_errors(capsys, tmp_path, monkeypatch, argv, message):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as excinfo:
        main([argv[0], "--network", NETWORK, *argv[1:]])
    assert excinfo.value.code == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert message in err
    assert list(tmp_path.iterdir()) == []


def test_custom_it_class_names_known_classes(capsys):
    code, out, err = run(capsys, "propagate", "--network", NETWORK, "--it-class", "custom")
    assert code == 1
    assert out == ""
    assert err == (
        "pfsc propagate: unknown IT class 'custom' (known: 0.1, 0.2, 0.5, 1.0)\n"
    )


@pytest.mark.parametrize(
    "text, message",
    [
        ("it_classes:\n  '0.5': {magnitude_pct: 0.5, phase_rad: 0.006}\n"
         "admittance_sigma_pct: 1.0\n", "unknown key 'admittance_sigma_pct'"),
        ("it_classes:\n  '0.5': {magnitude_pct: 0.5}\n",
         "IT class '0.5': missing phase_rad"),
    ],
    ids=["unread-key", "missing-phase"],
)
def test_malformed_noise_config_is_one_line(capsys, tmp_path, text, message):
    cfg = tmp_path / "noise.yaml"
    cfg.write_text(text)
    code, out, err = run(
        capsys, "propagate", "--network", NETWORK, "--noise-config", str(cfg)
    )
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("pfsc propagate: ") and message in err


@pytest.mark.parametrize("command, option", [("solve", "--network"), ("propagate", "--network"),
                                             ("propagate", "--noise-config")])
def test_file_that_is_not_utf8_is_one_line(capsys, tmp_path, command, option):
    bad = tmp_path / "bad.yaml"
    bad.write_bytes(b"\xff\xfe")
    files = {"--network": NETWORK, option: str(bad)}
    code, out, err = run(capsys, command, *(word for item in files.items() for word in item))
    assert code == 1
    assert out == ""
    assert err == f"pfsc {command}: {bad}: not UTF-8 text: byte 0 (invalid start byte)\n"


class _ClosedPipe(io.TextIOWrapper):
    """A stdout whose reader has gone, as ``| head`` leaves it."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


def test_closed_stdout_pipe_is_no_traceback(capsys, tmp_path, monkeypatch):
    fake = _ClosedPipe(open(tmp_path / "stdout", "wb"))
    monkeypatch.setattr(sys, "stdout", fake)
    code = main(["pfsc", "--network", NETWORK])
    monkeypatch.undo()
    assert code == 141
    assert capsys.readouterr().err == ""
    # the rest of stdout goes to devnull: the flush at exit raises nothing
    fake.buffer.write(b"rest")
    fake.close()
    assert (tmp_path / "stdout").read_bytes() == b""


_NET_HEAD = "phases: 1\nbases: {s_base_va: 1.0e6, v_base_v: 1000.0}\n"
_NET_TAIL = "branches: [{from: 1, to: 2, r_ohm: 0.1, x_ohm: 0.2}]\n"
_NET_BUSES = "buses: [{index: 1, kind: slack}, {index: 2}]\n"


@pytest.mark.parametrize(
    "text, message",
    [
        (_NET_HEAD + "buses: [{index: abc, kind: slack}, {index: 2}]\n" + _NET_TAIL,
         "buses[0] index must be numeric, not 'abc'"),
        (_NET_HEAD + "buses: [{index: 1, kind: slack}, {index: 2, p_kw: abc}]\n"
         + _NET_TAIL, "buses[1] p_kw must be numeric, not 'abc'"),
        ("phases: [\n", "line 2, column 1: did not find expected node content"),
        (_NET_HEAD + "buses: [{index: 1, kind: slack}, {index: 2.7}]\n"
         + "branches: [{from: 1, to: 2.7, r_ohm: 0.1, x_ohm: 0.2}]\n",
         "buses[1] index must be an integer, not 2.7"),
        ("phases: 3\nbases: {s_base_va: 1.0e6, v_base_v: 1000.0}\n"
         "buses: [{index: 1, kind: slack}, {index: 2, p_kw: [0, 0, 0], q_kvar: [0, 0, 0]}]\n"
         "branches: [{from: 1, to: 2, r_ohm: [[0.1, 0, 0], [0, 0.1, 0], [0, 0, 0.1]],\n"
         "            x_ohm: [[0.2, 0, 0], [0, 0.2, 0], [0, 0, 0.2]],\n"
         "            shunt_b_s: [[1e-4, 0], [0, 1e-4]]}]\n",
         "branches[0]: shunt block is (2, 2), expected (1, 1) or (3, 3)"),
        ("phases: 1\nbases: {s_base_va: 0, v_base_v: 1000.0}\n" + _NET_BUSES + _NET_TAIL,
         "bases s_base_va must be a finite positive number, not 0.0"),
        ("phases: 1\nbases: {s_base_va: -1.0e6, v_base_v: 1000.0}\n" + _NET_BUSES + _NET_TAIL,
         "bases s_base_va must be a finite positive number, not -1000000.0"),
        ("phases: 1\nbases: {s_base_va: 1.0e6, v_base_v: 0}\n" + _NET_BUSES + _NET_TAIL,
         "bases v_base_v must be a finite positive number, not 0.0"),
        # a non-finite impedance used to reach the load flow, warn from
        # numpy and fail there as a singular Jacobian
        (_NET_HEAD + _NET_BUSES + "branches: [{from: 1, to: 2, r_ohm: .nan, x_ohm: 0.2}]\n",
         "branches[0] r_ohm must be finite, not nan"),
        (_NET_HEAD + _NET_BUSES
         + "branches: [{from: 1, to: 2, r_ohm: 0.1, x_ohm: 0.2, shunt_b_s: .inf}]\n",
         "branches[0] shunt_b_s must be finite, not inf"),
        # so did a non-finite injection; an infinite slack magnitude warned
        (_NET_HEAD + "buses: [{index: 1, kind: slack}, {index: 2, p_kw: .nan}]\n" + _NET_TAIL,
         "buses[1] p_kw must be finite, not nan"),
        (_NET_HEAD + "slack_voltage_pu: [.inf, 0.0]\n" + _NET_BUSES + _NET_TAIL,
         "slack_voltage_pu[0] must be finite, not inf"),
    ],
    ids=["index", "p_kw", "yaml-syntax", "non-integral-index", "shunt-shape",
         "s-base-zero", "s-base-negative", "v-base-zero", "r-nan", "shunt-inf",
         "p_kw-nan", "slack-inf"],
)
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_malformed_network_is_one_line(capsys, tmp_path, text, message):
    net = tmp_path / "net.yaml"
    net.write_text(text)
    code, out, err = run(capsys, "solve", "--network", str(net))
    assert code == 1
    assert out == ""
    assert err == f"pfsc solve: {net}: {message}\n"


@pytest.mark.parametrize("level", ["nan", "inf"])
@pytest.mark.parametrize(
    "argv",
    [
        ("report", "--out", "{dir}/rep"),
        ("propagate", "--out", "{dir}/sigma.csv"),
        ("mc", "--nmc", "5", "--out", "{dir}/mc.csv", "--dump-trials", "{dir}/trials.csv"),
    ],
    ids=["report", "propagate", "mc"],
)
def test_nonfinite_admittance_level_is_one_line(capsys, tmp_path, argv, level):
    argv = [a.format(dir=tmp_path) for a in argv]
    code, out, err = run(capsys, *argv, "--network", NETWORK, "--sigma-y-pct", level)
    assert code == 1
    assert out == ""
    assert err == (
        f"pfsc {argv[0]}: admittance noise level must be a finite, nonnegative "
        f"percentage, not {level}\n"
    )
    assert list(tmp_path.iterdir()) == []


def unreachable_load_flow(monkeypatch):
    """Make every load flow the CLI could start fail the test."""
    def load_flow(*args, **kwargs):
        raise AssertionError("the load flow ran before the options were checked")

    monkeypatch.setattr(cli, "solve_load_flow", load_flow)
    monkeypatch.setattr(pfsc.report, "solve_load_flow", load_flow)


OUTPUTS = {
    "report": ("--out", "{dir}/rep"),
    "propagate": ("--out", "{dir}/sigma.csv"),
    "mc": ("--out", "{dir}/mc.csv", "--dump-trials", "{dir}/trials.csv"),
}


@pytest.mark.parametrize(
    "command, options, message",
    [
        ("report", ("--sigma-y-pct", "nan"),
         "admittance noise level must be a finite, nonnegative percentage, not nan"),
        ("report", ("--nmc", "0"), "n_trials must be >= 1, got 0"),
        ("report", ("--seed", "-1"), "seed must be a nonnegative integer, not -1"),
        ("report", ("--mode", "analytical", "--format", "csv",
                    "--sigma-y-pct", "1", "1.0000001"),
         "admittance noise levels 1.0 and 1.0000001 would both write "
         "report_sigmaY_1pct.csv"),
        ("propagate", ("--sigma-y-pct", "nan"),
         "admittance noise level must be a finite, nonnegative percentage, not nan"),
        ("mc", ("--sigma-y-pct", "nan"),
         "admittance noise level must be a finite, nonnegative percentage, not nan"),
        ("mc", ("--nmc", "0"), "n_trials must be >= 1, got 0"),
        ("mc", ("--seed", "-1"), "seed must be a nonnegative integer, not -1"),
        *((command, ("--it-class", "9.9"),
           "unknown IT class '9.9' (known: 0.1, 0.2, 0.5, 1.0)")
          for command in ("report", "propagate", "mc")),
    ],
    ids=["report-level", "report-nmc", "report-seed", "report-csv-name", "propagate-level",
         "mc-level", "mc-nmc", "mc-seed", "report-it-class", "propagate-it-class",
         "mc-it-class"],
)
def test_run_options_checked_before_the_load_flow(capsys, tmp_path, monkeypatch,
                                                   command, options, message):
    unreachable_load_flow(monkeypatch)
    argv = [command, "--network", NETWORK, *options]
    argv += [a.format(dir=tmp_path) for a in OUTPUTS[command]]
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err == f"pfsc {command}: {message}\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("out_dir, message", [
    ("{dir}/file", "output directory is a file: {dir}/file"),
    ("{dir}/file/rep", "output directory lies under a file: {dir}/file"),
], ids=["is-a-file", "under-a-file"])
def test_report_out_on_a_file_checked_before_the_load_flow(capsys, tmp_path, monkeypatch,
                                                           out_dir, message):
    unreachable_load_flow(monkeypatch)
    (tmp_path / "file").write_text("kept\n")
    code, out, err = run(capsys, "report", "--network", NETWORK,
                         "--out", out_dir.format(dir=tmp_path))
    assert code == 1
    assert out == ""
    assert err == f"pfsc report: {message.format(dir=tmp_path)}\n"
    assert [p.name for p in tmp_path.iterdir()] == ["file"]
    assert (tmp_path / "file").read_text() == "kept\n"


@pytest.mark.parametrize("argv", [
    ("pfsc", "--out", "{out}"),
    ("propagate", "--out", "{out}"),
    ("mc", "--nmc", "5", "--out", "{out}"),
    ("mc", "--nmc", "5", "--dump-trials", "{out}"),
], ids=["pfsc", "propagate", "mc-out", "mc-dump-trials"])
@pytest.mark.parametrize("out, message", [
    ("{dir}/no/such/x.csv", "output directory not found: {dir}/no/such"),
    ("{dir}", "output file is a directory: {dir}"),
    ("{dir}/file/x.csv", "output file lies under a file: {dir}/file"),
    ("{dir}/nodir/", "output file name ends in a separator: {dir}/nodir/"),
], ids=["missing-directory", "directory", "under-a-file", "trailing-separator"])
def test_table_out_checked_before_the_load_flow(capsys, tmp_path, monkeypatch,
                                                argv, out, message):
    unreachable_load_flow(monkeypatch)
    (tmp_path / "file").write_text("kept\n")
    argv = [argv[0], "--network", NETWORK,
            *(a.format(out=out.format(dir=tmp_path)) for a in argv[1:])]
    code, stdout, err = run(capsys, *argv)
    assert code == 1
    assert stdout == ""
    assert err == f"pfsc {argv[0]}: {message.format(dir=tmp_path)}\n"
    assert [p.name for p in tmp_path.iterdir()] == ["file"]
    assert (tmp_path / "file").read_text() == "kept\n"


@pytest.mark.parametrize("dump", ["{dir}/same.csv", "{dir}/sub/../same.csv"],
                         ids=["same-path", "same-file"])
def test_mc_table_and_dump_on_one_file_checked_before_the_load_flow(
        capsys, tmp_path, monkeypatch, dump):
    # the dump would overwrite the table after it was written, with exit 0
    unreachable_load_flow(monkeypatch)
    (tmp_path / "sub").mkdir()
    dump = dump.format(dir=tmp_path)
    code, out, err = run(capsys, "mc", "--network", NETWORK, "--nmc", "5",
                         "--out", str(tmp_path / "same.csv"), "--dump-trials", dump)
    assert code == 1
    assert out == ""
    assert err == f"pfsc mc: two outputs name one file: {dump}\n"
    assert [p.name for p in tmp_path.iterdir()] == ["sub"]


def test_mc_empty_dump_path_keeps_no_trials(capsys, tmp_path, monkeypatch):
    # an empty --dump-trials names no file, as for the write, so the pass
    # keeps no trial store either
    cfgs = []
    real = cli.run_monte_carlo

    def recorded(network, Y, state, cfg):
        cfgs.append(cfg)
        return real(network, Y, state, cfg)

    monkeypatch.setattr(cli, "run_monte_carlo", recorded)
    code, _, _ = run(capsys, "mc", "--network", NETWORK, "--nmc", "5",
                     "--out", str(tmp_path / "mc.csv"), "--dump-trials", "")
    assert code == 0
    assert [cfg.store_trials for cfg in cfgs] == [False]
    assert [p.name for p in tmp_path.iterdir()] == ["mc.csv"]


def test_report_equal_levels_write_one_csv(capsys, tmp_path):
    out = tmp_path / "rep"
    code, stdout, _ = run(capsys, "report", "--network", NETWORK, "--out", str(out),
                          "--mode", "analytical", "--sigma-y-pct", "1", "1.0")
    assert code == 0
    assert stdout == f"{out / 'report_sigmaY_1pct.csv'}\n"
    assert [p.name for p in out.iterdir()] == ["report_sigmaY_1pct.csv"]


def test_import_leaves_scipy_stats_out():
    # scipy.stats costs about half a second of every CLI call; only the
    # tests' QQ oracle needs it
    src = str(Path(pfsc.__file__).parents[1])
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import pfsc; "
        "print(sorted(m for m in sys.modules if m.startswith('scipy.stats')))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


@pytest.mark.parametrize("command", ["pfsc", "propagate", "mc", "report"])
def test_network_without_nonslack_node_is_one_line(capsys, tmp_path, command):
    # one slack bus and no branch: the load flow holds, there is no coefficient
    net = tmp_path / "net.yaml"
    net.write_text(_NET_HEAD + "buses: [{index: 1, kind: slack}]\nbranches: []\n")
    argv = [command, "--network", str(net)]
    argv += ["--out", str(tmp_path / "out")] if command == "report" else []
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err == (
        f"pfsc {command}: the network has no non-slack node, so no coefficient to solve\n"
    )


@pytest.mark.parametrize("command", ["solve", "report"])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_load_flow_failure_is_exit_2(capsys, tmp_path, command):
    # a load that the 2-bus feeder cannot carry: the load flow diverges
    net = tmp_path / "net.yaml"
    net.write_text(_NET_HEAD + "buses: [{index: 1, kind: slack}, {index: 2, p_kw: -900000}]\n"
                   + _NET_TAIL)
    argv = [command, "--network", str(net)]
    argv += ["--out", str(tmp_path / "out")] if command == "report" else []
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == (
        f"pfsc {command}: numerical failure: load flow did not converge in 50 "
        "iterations (last max mismatch 2.680e+05 pu)\n"
    )
    assert list(tmp_path.iterdir()) == [net]


def test_pfsc_and_propagate_are_run_pipeline_runs(capsys, monkeypatch):
    calls = []

    def pipeline(cfg):
        calls.append(cfg)
        return pfsc.report.run_pipeline(cfg)

    monkeypatch.setattr(cli, "run_pipeline", pipeline)
    code, out, _ = run(capsys, "pfsc", "--network", NETWORK)
    assert code == 0 and out
    (cfg,) = calls
    assert cfg.sigma_y_pct == ()
    calls.clear()
    code, out, _ = run(capsys, "propagate", "--network", NETWORK, "--sigma-y-pct", "2.5")
    assert code == 0 and out
    (cfg,) = calls
    assert cfg.mode == "analytical" and cfg.sigma_y_pct == (2.5,)


def test_subcommands_agree_with_report(capsys, tmp_path):
    # pfsc and propagate print a column of a run_pipeline report, and mc
    # makes its own run_monte_carlo call; on one seed, level and trial
    # count their columns equal those of pfsc report
    level, seed, nmc = "2.0", "5", "40"

    def table(*argv):
        out_file = tmp_path / f"{argv[0]}.csv"
        code, _, _ = run(capsys, *argv, "--network", NETWORK, "--out", str(out_file))
        assert code == 0
        with open(out_file) as fh:
            return {
                f"{r['part']}(dE{r['bus_i']}/d{r['wrt']}{r['bus_l']})": r
                for r in csv.DictReader(fh)
            }

    nominal = table("pfsc")
    sigma = table("propagate", "--sigma-y-pct", level)
    sigma_mc = table("mc", "--sigma-y-pct", level, "--seed", seed, "--nmc", nmc)
    code, _, _ = run(
        capsys, "report", "--network", NETWORK, "--mode", "both",
        "--sigma-y-pct", level, "--seed", seed, "--nmc", nmc,
        "--format", "json", "--out", str(tmp_path / "rep"),
    )
    assert code == 0
    doc = json.loads((tmp_path / "rep" / "report.json").read_text())
    labels = doc["coefficients"]
    assert len(labels) == 36
    assert set(labels) == set(nominal) == set(sigma) == set(sigma_mc)
    columns = (
        (nominal, "value", doc["nominal_pu"]),
        (sigma, "sigma", doc["analytical"][level]["std"]),
        (sigma_mc, "sigma_mc", doc["monte_carlo"][f"{level}|{nmc}"]["std"]),
    )
    for rows, column, expected in columns:
        for label, want in zip(labels, expected):
            assert float(rows[label][column]) == want, (column, label)


def test_report_end_to_end(capsys, tmp_path):
    code, out, _ = run(
        capsys,
        "report",
        "--network",
        NETWORK,
        "--nmc",
        "30",
        "--sigma-y-pct",
        "1.0",
        "2.0",
        "--format",
        "csv,json,pretty-text",
        "--out",
        str(tmp_path),
    )
    assert code == 0
    names = {line.rsplit("/", 1)[-1] for line in out.splitlines()}
    assert names == {
        "report_sigmaY_1pct.csv",
        "report_sigmaY_2pct.csv",
        "report.json",
        "report.txt",
    }
    doc = json.loads((tmp_path / "report.json").read_text())
    assert set(doc["analytical"]) == {"1.0", "2.0"}
    assert set(doc["monte_carlo"]) == {"1.0|30", "2.0|30"}


def test_noise_config_dir_env(capsys, tmp_path, monkeypatch):
    # a bare file name resolves through PFSC_CONFIG_DIR
    cfg = tmp_path / "noise.yaml"
    cfg.write_text(
        "it_classes:\n"
        "  '0.5':\n"
        "    magnitude_pct: 0.5\n"
        "    phase_rad: 0.006\n"
    )
    monkeypatch.setenv("PFSC_CONFIG_DIR", str(tmp_path))
    code, out, _ = run(
        capsys,
        "propagate",
        "--network",
        NETWORK,
        "--noise-config",
        "noise.yaml",
        "--format",
        "json",
    )
    assert code == 0
    assert len(json.loads(out)) == 36
