"""Set-up, timing, memory and traced passes of one benchmark run.

One process drives one workload, closed loop, one op at a time:

1. set-up, ``SETUP_REPEATS`` times: ``import pfsc`` in a fresh
   interpreter, generate and write the feeder, then one warm-up op.
   ``setup_s`` is the median.  After the first set-up the reference for
   the seed is built (untimed);
2. timing pass: ops back to back for ``--seconds``.  With ``--trace 1``
   every second op runs traced, so untraced and traced ops interleave,
   and the layers the op never calls are then probed once, untimed;
3. memory pass: one op under ``tracemalloc``.

``setup_s`` and ``report_s`` are calibrated to a reference CPU speed by
probes run during each set-up and untraced op (see calibrate.py); the
wall times are printed beside them.

Every op, warm-ups included, is checked; a failed op counts in
``failed``.  Everything the run writes goes under ``.bench_work/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import traceback
import tracemalloc

import numpy as np
import scipy

import calibrate
import check
import pfsc
import pfsc.report
from spans import Tracer, op_totals, self_time
from workloads import WORKLOADS

SETUP_REPEATS = 3
PROBE_OP = -1
PROBE_TRIALS = 8
#: per-layer metrics of layers an op may not call; a traced run then takes
#: them from a probe outside the ops (see probe_pass)
PROBED = ("montecarlo.run_s", "montecarlo.trial_ms", "montecarlo.assemble_share",
          "montecarlo.useful_ratio", "report.emit_text_s")
COMMITTED_SEED = 1
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REFERENCE_FILE = os.path.join(BENCH_DIR, "reference.json")
EMIT_SPANS = {"csv": "report.emit_csv", "json": "report.emit_json", "pretty-text": "report.emit_text"}

END_TO_END_UNITS = {"setup_s": "s", "report_s": "s", "sigmas_per_s": "1/s", "peak_mem_mb": "MB",
                    "setup_wall_s": "s", "report_wall_s": "s"}
#: printed, but left out of the JSON result: sigmas_per_s is work / report_s,
#: so it gates nothing report_s does not; the wall times are report_s and
#: setup_s before calibration, which carry the host's drift
PRINTED_ONLY = ("sigmas_per_s", "setup_wall_s", "report_wall_s")

#: per-layer metric -> (unit, span name summed per op, or None if derived)
PER_LAYER = {
    "network.load_s": ("s", "network.load_network"),
    "network.admittance_s": ("s", "network.build_admittance"),
    "loadflow.solve_s": ("s", "loadflow.solve_load_flow"),
    "loadflow.iterations": ("count", None),
    "coefficients.assemble_s": ("s", "coefficients.assemble_problem"),
    "coefficients.solve_s": ("s", "coefficients.solve_coefficients"),
    "coefficients.dim_H": ("count", None),
    "uncertainty.propagate_to_H_s": ("s", "uncertainty.propagate_to_H"),
    "uncertainty.inverse_variance_s": ("s", "uncertainty.inverse_self_variance"),
    "uncertainty.coefficient_variance_s": ("s", "uncertainty.coefficient_variance"),
    "uncertainty.analytical_sigma_s": ("s", "uncertainty.analytical_sigma"),
    "montecarlo.run_s": ("s", "montecarlo.run_monte_carlo"),
    "montecarlo.trial_ms": ("ms", None),
    "montecarlo.assemble_share": ("ratio", None),
    "montecarlo.useful_ratio": ("ratio", None),
    "montecarlo.peak_mem_mb": ("MB", None),
    "report.pipeline_s": ("s", "report.run_pipeline"),
    "report.pipeline_self_s": ("s", None),
    "report.emit_csv_s": ("s", "report.emit_csv"),
    "report.emit_json_s": ("s", "report.emit_json"),
    "report.emit_text_s": ("s", "report.emit_text"),
    "report.bytes_written": ("bytes", None),
    "report.coefficients": ("count", None),
    "trace.overhead_s": ("s", None),
}


def parse_args(argv):
    ap = argparse.ArgumentParser(prog="benchmarks/run.py")
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=COMMITTED_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-reference", action="store_true",
                    help="rewrite reference.json at the committed seed and exit")
    args = ap.parse_args(argv)
    if args.workload is None and not args.write_reference:
        ap.error("--workload is required")
    return args


def environment(blas_threads, cpus):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(cpus),
        "pinned_cpu": cpus[0],
        "blas_threads": blas_threads,
    }


def run_op(cfg, tracer=None):
    """One ``pfsc report`` op.  Traced, each format is emitted by its own call."""
    if tracer is None:
        report = pfsc.report.run_pipeline(cfg)
        return report, pfsc.report.emit_report(report, cfg.formats, cfg.out_dir)
    with tracer.span("op") as op:
        with tracer.span("report.run_pipeline"):
            report = pfsc.report.run_pipeline(cfg)
        paths = []
        for fmt in cfg.formats:
            with tracer.span(EMIT_SPANS[fmt]):
                paths += pfsc.report.emit_report(report, (fmt,), cfg.out_dir)
    op.counts["coefficients"] = len(report.keys)
    op.counts["bytes_written"] = sum(p.stat().st_size for p in paths)
    return report, paths


def attempt(fn):
    """Run an op; an exception becomes the op's failure, with its traceback."""
    try:
        return fn(), None
    except Exception:  # the op boundary: record, count, keep measuring
        traceback.print_exc()
        return None, "raised"


class Run:
    """Counts and reference of one benchmark process."""

    def __init__(self, workload, seed, root):
        self.workload = workload
        self.seed = seed
        self.root = root
        self.work = root / ".bench_work"
        self.out = self.work / workload.name
        self.out.mkdir(parents=True, exist_ok=True)
        self.attempted = 0
        self.failed = 0
        self.ref = None
        self.ref_problems = []

    def build_reference(self, path):
        try:
            self.ref = check.build_reference(self.workload, path, self.seed)
        except Exception:  # a seed that cannot be solved fails every op
            traceback.print_exc()
            self.ref_problems = ["no reference for this seed"]
            return
        stored = load_stored().get(self.workload.name, {})
        if stored.get("seed") == self.seed:
            bad = check.stored_mismatches(self.ref, stored["stds"], self.workload.check_buses)
            if bad:
                self.ref_problems = [f"reference off the stored values: {bad[:3]}"]

    def verify(self, outcome, error, what):
        problems = list(self.ref_problems)
        if error is not None:
            problems.append(error)
        elif self.ref is not None:
            report, paths = outcome
            problems += check.check_report(report, self.ref)
            problems += check.check_files(paths, self.ref)
        self.attempted += 1
        if problems:
            self.failed += 1
            print(f"FAILED {what}: {'; '.join(problems)}", file=sys.stderr)


#: run by a fresh interpreter; prints the busy and calibrated seconds of ``import pfsc``
IMPORT_TIMING = """\
import calibrate
with calibrate.interval() as iv:
    import pfsc
print(iv.busy_s, iv.calibrated_s)
"""


def import_interval(root):
    """``import pfsc`` from ``src/`` timed in a fresh interpreter, which this waits for.

    Returns its (busy, calibrated) seconds; the child probes its own CPU.
    """
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(root / "src"), BENCH_DIR]))
    done = subprocess.run([sys.executable, "-c", IMPORT_TIMING], cwd=root, env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    busy, calibrated = map(float, done.stdout.split())
    return busy, calibrated


def setup_pass(run):
    """Import, generate, write and warm up SETUP_REPEATS times.

    The import runs in a fresh interpreter each time, since this process
    has imported pfsc already.  Returns the config, and the busy and the
    calibrated seconds of each set-up.
    """
    busy, calibrated, first_bytes = [], [], None
    for i in range(SETUP_REPEATS):
        import_busy, import_calibrated = import_interval(run.root)
        with calibrate.interval() as iv:
            path = run.workload.network_file(run.seed, run.work)
            cfg = run.workload.config(path, run.seed, run.out)
            outcome, error = attempt(lambda: run_op(cfg))
        busy.append(import_busy + iv.busy_s)
        calibrated.append(import_calibrated + iv.calibrated_s)
        data = path.read_bytes()
        if first_bytes is None:
            first_bytes = data
            run.build_reference(path)
        elif data != first_bytes and error is None:
            error = "network file differs between set-ups of one seed"
        run.verify(outcome, error, f"set-up {i}")
        outcome = None  # the next op starts without this report, as in a fresh process
    return cfg, busy, calibrated


def timing_pass(run, cfg, seconds, tracer):
    """Closed loop for ``seconds``.

    Returns a calibrated ``Interval`` per untraced op, and the wall time of
    each traced op.  Traced ops run without probes, so that no probe
    lands in a span.
    """
    plain, traced = [], []
    start = time.perf_counter()
    i = 0
    while time.perf_counter() - start < seconds or not plain or (tracer and not traced):
        if tracer is not None and i % 2 == 1:
            tracer.op = i
            with tracer.installed():
                t0 = time.perf_counter()
                outcome, error = attempt(lambda: run_op(cfg, tracer))
                traced.append(time.perf_counter() - t0)
        else:
            with calibrate.interval() as iv:
                outcome, error = attempt(lambda: run_op(cfg))
            plain.append(iv)
        run.verify(outcome, error, f"op {i}")
        outcome = None
        i += 1
    return plain, traced


def memory_pass(run, cfg):
    """Peak traced bytes of one op, and the largest Monte-Carlo call's rise."""
    peaks = {"op": 0, "mc": 0}
    original = getattr(pfsc.report, "run_monte_carlo", None)

    def measured(*args, **kwargs):
        base, peak = tracemalloc.get_traced_memory()
        peaks["op"] = max(peaks["op"], peak)
        tracemalloc.reset_peak()
        try:
            return original(*args, **kwargs)
        finally:
            peaks["mc"] = max(peaks["mc"], tracemalloc.get_traced_memory()[1] - base)

    if original is not None:
        pfsc.report.run_monte_carlo = measured
    tracemalloc.start()
    try:
        outcome, error = attempt(lambda: run_op(cfg))
        peaks["op"] = max(peaks["op"], tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()
        if original is not None:
            pfsc.report.run_monte_carlo = original
    run.verify(outcome, error, "memory pass")
    return peaks["op"] / 1e6, peaks["mc"] / 1e6


def probe_pass(run, cfg, tracer):
    """Trace, outside the ops, the layers this workload's op never calls.

    So that every per-layer time is measured on every workload: without
    Monte-Carlo sets, one ``PROBE_TRIALS``-trial run at the first
    admittance level; without pretty text, one text emission of a report.
    Returns the names of the probed layers.
    """
    workload = run.workload
    probed = []
    if not workload.mc_sets():
        probed.append("montecarlo")
    if "pretty-text" not in workload.formats:
        probed.append("pretty-text")

    def probe():
        net = pfsc.load_network(cfg.network)
        Y = pfsc.build_admittance(net)
        state = pfsc.solve_load_flow(net, Y)
        report = pfsc.report.run_pipeline(cfg) if "pretty-text" in probed else None
        tracer.op = PROBE_OP
        with tracer.installed():
            if "montecarlo" in probed:
                mc_cfg = pfsc.MCConfig(
                    n_trials=PROBE_TRIALS,
                    seed=run.seed,
                    polar=pfsc.it_class_to_polar(workload.it_class),
                    yu=pfsc.AdmittanceUncertainty.from_relative(Y, workload.sigma_y_pct[0]),
                )
                pfsc.report.run_monte_carlo(net, Y, state, mc_cfg)
            if report is not None:
                with tracer.span(EMIT_SPANS["pretty-text"]):
                    pfsc.report.emit_report(report, ("pretty-text",), run.work / "probe")

    if probed:
        _, error = attempt(probe)
        if error is not None:
            run.verify(None, error, "layer probe")
    return probed


def layer_row(spans, op):
    """Every per-layer metric of one op, from its spans."""
    seconds, counts = op_totals(spans, op)
    pipeline = [i for i, s in enumerate(spans) if s.op == op and s.name == "report.run_pipeline"]
    row = {name: seconds.get(span, 0.0) for name, (_, span) in PER_LAYER.items() if span}
    mc_s = row["montecarlo.run_s"]
    trials = counts.get("trials", 0)
    row.update({
        "loadflow.iterations": counts.get("iterations", 0),
        "coefficients.dim_H": counts.get("dim_H", 0),
        "montecarlo.trial_ms": 1e3 * mc_s / trials if trials else 0.0,
        "montecarlo.assemble_share":
            seconds.get("coefficients.assemble_from_raw", 0.0) / mc_s if mc_s else 0.0,
        "montecarlo.useful_ratio": counts.get("trials_ok", 0) / trials if trials else 0.0,
        "report.pipeline_self_s": sum(self_time(spans, i) for i in pipeline),
        "report.bytes_written": counts.get("bytes_written", 0),
        "report.coefficients": counts.get("coefficients", 0),
    })
    return row


def layer_metrics(tracer, traced, plain):
    """Median over traced ops of each per-layer metric, and the names taken from the probe."""
    spans = tracer.spans
    ops = sorted({s.op for s in spans} - {PROBE_OP})
    per_op = [layer_row(spans, op) for op in ops]
    out = {name: statistics.median(r[name] for r in per_op) for name in per_op[0]}
    probe = layer_row(spans, PROBE_OP)
    from_probe = [name for name in PROBED if probe[name]]
    out.update({name: probe[name] for name in from_probe})
    out["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    return out, from_probe


def pipeline_accounting(tracer):
    """(children + self, pipeline) seconds summed over every traced op."""
    spans = tracer.spans
    total = covered = 0.0
    for i, s in enumerate(spans):
        if s.name == "report.run_pipeline":
            total += s.duration
            covered += self_time(spans, i) + sum(c.duration for c in spans if c.parent == i)
    return covered, total


def load_stored():
    with open(REFERENCE_FILE) as fh:
        return json.load(fh)


def write_reference(root):
    stored = {}
    work = root / ".bench_work"
    work.mkdir(exist_ok=True)
    for name, workload in WORKLOADS.items():
        path = workload.network_file(COMMITTED_SEED, work)
        ref = check.build_reference(workload, path, COMMITTED_SEED)
        stored[name] = {"seed": COMMITTED_SEED, "stds": ref.stds(workload.check_buses)}
    with open(REFERENCE_FILE, "w") as fh:
        json.dump(stored, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


def main(argv, root, import_s, blas_threads, cpus):
    args = parse_args(argv)
    if args.write_reference:
        return write_reference(root)
    workload = WORKLOADS[args.workload]
    run = Run(workload, args.seed, root)
    env = environment(blas_threads, cpus)
    print(f"workload {workload.name} seed {args.seed} trace {args.trace}")
    print("environment " + json.dumps(env))

    cfg, setups_busy, setups = setup_pass(run)
    print(f"set-up: import pfsc in this process {import_s:.3f} s; set-ups "
          + ", ".join(f"{t:.3f}" for t in setups_busy) + " s, calibrated "
          + ", ".join(f"{t:.3f}" for t in setups) + " s")
    tracer = Tracer() if args.trace else None
    plain, traced = timing_pass(run, cfg, args.seconds, tracer)
    factors = [iv.factor for iv in plain]
    print(f"calibration of the timed ops: {sum(len(iv.samples) for iv in plain)} probes, speed factor"
          f" median {statistics.median(factors):.3f}, range {min(factors):.3f}-{max(factors):.3f}")
    if tracer is not None:
        probed = probe_pass(run, cfg, tracer)
        if probed:
            print("probed outside the ops: " + ", ".join(probed))
    peak_mb, mc_peak_mb = memory_pass(run, cfg)

    report_s = statistics.median(iv.calibrated_s for iv in plain)
    plain_wall = [iv.busy_s for iv in plain]
    n_keys = run.ref.n_keys if run.ref else 0
    work = n_keys * (len(workload.analytical_levels()) + len(workload.mc_sets()))
    if args.trace:
        layers, from_probe = layer_metrics(tracer, traced, plain_wall)
        layers["montecarlo.peak_mem_mb"] = mc_peak_mb
        values = {name: layers[name] for name in PER_LAYER}
        covered, total = pipeline_accounting(tracer)
        print(f"spans: children + self {covered:.6f} s of report.pipeline_s {total:.6f} s")
        tracer.dump(run.work / f"spans-{workload.name}-seed{args.seed}.json")
        units = {name: unit for name, (unit, _) in PER_LAYER.items()}
        counts = {name: len(traced) for name in units}
        counts.update({name: 1 for name in from_probe + ["montecarlo.peak_mem_mb"]})
    else:
        values = {
            "setup_s": statistics.median(setups),
            "report_s": report_s,
            "sigmas_per_s": work / report_s,
            "peak_mem_mb": peak_mb,
            "setup_wall_s": statistics.median(setups_busy),
            "report_wall_s": statistics.median(plain_wall),
        }
        units = END_TO_END_UNITS
        counts = {"setup_s": len(setups), "report_s": len(plain),
                  "sigmas_per_s": len(plain), "peak_mem_mb": 1,
                  "setup_wall_s": len(setups), "report_wall_s": len(plain)}

    for name, value in values.items():
        print(f"{name:38s} {value:14.6g} {units[name]:6s} (n={counts[name]})")
    print(f"{'failed_ratio':38s} {run.failed / run.attempted:14.6g} {'ratio':6s} "
          f"({run.failed} of {run.attempted} ops)")
    metrics = {
        name: {"value": value, "unit": units[name]}
        for name, value in values.items()
        if name not in PRINTED_ONLY
    }
    correct = run.failed == 0
    print(json.dumps({"correct": correct, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0 if correct else 1
