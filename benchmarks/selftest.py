"""Self-tests of the benchmark: python3 -m pytest -q benchmarks/selftest.py

Named so that the repository's own test run does not collect them.
"""

import signal
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import calibrate  # noqa: E402
import check  # noqa: E402
import harness  # noqa: E402
import pfsc  # noqa: E402
import pfsc.report  # noqa: E402
from spans import Span, Tracer, op_totals, self_time  # noqa: E402
from workloads import WORKLOADS, Workload, make_feeder  # noqa: E402

SMALL = Workload(
    name="ieee4-small",
    n_bus=None,
    mode="both",
    n_mc=(30,),
    sigma_y_pct=(1.0,),
    formats=("json",),
    check_buses=(2, 3, 4),
)


def test_feeder_bytes_repeat_for_a_seed(tmp_path):
    wl = WORKLOADS["mesh60-full"]
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    a = wl.network_file(7, tmp_path / "a").read_bytes()
    b = wl.network_file(7, tmp_path / "b").read_bytes()
    other = wl.network_file(8, tmp_path / "b").read_bytes()
    assert a == b
    assert a != other


@pytest.mark.parametrize("seed", range(4))
def test_feeder_stays_in_voltage_band(seed):
    net = make_feeder(300, seed)
    state = pfsc.solve_load_flow(net, pfsc.build_admittance(net))
    v = np.abs(state.voltages)
    assert 0.9 <= v.min() and v.max() <= 1.1


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("out")
    path = SMALL.network_file(3, out)
    ref = check.build_reference(SMALL, path, 3)
    report, paths = harness.run_op(SMALL.config(path, 3, out))
    return ref, report, paths


def test_check_accepts_the_program_output(small_run):
    ref, report, paths = small_run
    assert check.check_report(report, ref) == []
    assert check.check_files(paths, ref) == []


@pytest.mark.parametrize("table", ["analytical", "mc"])
def test_check_rejects_a_perturbed_std(small_run, table):
    ref, report, _ = small_run
    stds = next(iter(getattr(report, table).values()))
    saved = stds[5]
    stds[5] *= 1.0 + 1e-6
    try:
        assert check.check_report(report, ref) != []
    finally:
        stds[5] = saved


def test_check_rejects_an_off_nominal(small_run):
    ref, report, _ = small_run
    saved = report.nominal[0]
    report.nominal[0] *= 1.01
    try:
        assert check.check_report(report, ref) != []
    finally:
        report.nominal[0] = saved


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_reference_reproduces_stored_values(tmp_path, name):
    wl = WORKLOADS[name]
    stored = harness.load_stored()[name]
    path = wl.network_file(stored["seed"], tmp_path)
    ref = check.build_reference(wl, path, stored["seed"])
    assert check.stored_mismatches(ref, stored["stds"], wl.check_buses) == []


def test_self_time_subtracts_the_union_of_children():
    spans = [
        Span(0, "root", 0.0, 10.0),
        Span(0, "a", 1.0, 3.0, parent=0),
        Span(0, "b", 2.0, 5.0, parent=0),  # overlaps a
        Span(0, "a.inner", 1.5, 2.5, parent=1),  # grandchild: not root's
        Span(0, "late", 9.0, 12.0, parent=0),  # clipped at the root's end
        Span(1, "root", 0.0, 4.0),
    ]
    assert self_time(spans, 0) == pytest.approx(10.0 - 4.0 - 1.0)
    assert self_time(spans, 1) == pytest.approx(2.0 - 1.0)
    assert self_time(spans, 5) == pytest.approx(4.0)
    seconds, _ = op_totals(spans, 0)
    assert seconds["root"] == pytest.approx(10.0)


def test_tracer_restores_the_layer_functions():
    original = pfsc.report.load_network
    tracer = Tracer()
    with tracer.installed():
        assert pfsc.report.load_network is not original
        pfsc.report.load_network(pfsc.bundled_network_path())
    assert pfsc.report.load_network is original
    assert [s.name for s in tracer.spans] == ["network.load_network"]


def test_calibration_scales_busy_time_to_the_nominal_probe():
    iv = calibrate.Interval(wall_s=3.0, probe_s=1.0,
                            samples=[calibrate.NOMINAL_PROBE_S, 3 * calibrate.NOMINAL_PROBE_S])
    assert iv.busy_s == pytest.approx(2.0)
    assert iv.calibrated_s == pytest.approx(1.0)  # probes ran at half the nominal speed


def test_interval_probes_during_the_block_and_restores_the_timer():
    handler = signal.getsignal(signal.SIGALRM)
    with calibrate.interval() as iv:
        end = time.perf_counter() + 0.2
        while time.perf_counter() < end:
            pass
    assert len(iv.samples) > 2 * calibrate.EDGE_PROBES  # some probes ran inside
    assert 0 < iv.probe_s < iv.wall_s
    assert iv.busy_s == pytest.approx(iv.wall_s - iv.probe_s)
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is handler
