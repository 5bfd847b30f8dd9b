"""Command-line front end.

Subcommands: solve (load flow), pfsc (coefficients), propagate
(analytical stds), mc (Monte-Carlo stds), report (full comparison
pipeline).  The pfsc and propagate tables are one column each of a
``report.run_pipeline`` report; mc makes its own ``run_monte_carlo``
call, the one call that keeps the trials for ``--dump-trials``.  Exit
codes: 0 success, 1 usage/configuration error, 2 numerical failure,
141 (128 + SIGPIPE, as a shell reports a process that SIGPIPE ends)
when the reader of stdout closes it early, as ``| head`` does; the rest
of stdout then goes to ``os.devnull``, and no traceback is printed.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from contextlib import nullcontext
from pathlib import Path

import numpy as np

from .errors import ConfigError, LoadFlowError, PfscError, SingularSystemError
from .loadflow import solve_load_flow
from .montecarlo import MCConfig, run_monte_carlo
from .network import build_admittance, load_network
from .report import (
    FORMATS, MODES, RunConfig, check_input_paths, coefficient_columns, coefficient_positions,
    emit_report, run_pipeline, write_joined,
)
from .uncertainty import AdmittanceUncertainty, it_class_to_polar, load_noise_config

CONFIG_DIR_ENV = "PFSC_CONFIG_DIR"
#: trial values that ``mc --dump-trials`` turns into Python floats at once
_DUMP_BLOCK_VALUES = 2**16


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit with code 1
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _resolve_config(path):
    """Resolve a noise-config path against PFSC_CONFIG_DIR if needed."""
    if path is None:
        return None
    if Path(path).exists():
        return path
    base = os.environ.get(CONFIG_DIR_ENV)
    if base and (Path(base) / path).exists():
        return str(Path(base) / path)
    return path


def _check_output_files(*paths):
    """Raise ConfigError unless each output file can be written where it
    is named: its name does not end in a separator, it is not a directory,
    its directory exists, and no other of the paths resolves to it.  None
    or an empty path names no file."""
    for path in filter(None, paths):  # a Path drops the separator
        if path.endswith((os.sep, os.altsep or os.sep)):
            raise ConfigError(f"output file name ends in a separator: {path}")
    files = [Path(path) for path in paths if path]
    for i, out in enumerate(files):
        if out.resolve() in {earlier.resolve() for earlier in files[:i]}:
            raise ConfigError(f"two outputs name one file: {out}")
        if out.is_dir():
            raise ConfigError(f"output file is a directory: {out}")
        # the nearest path that exists must be its directory
        held = next(p for p in out.parents if p.exists())
        if not held.is_dir():
            raise ConfigError(f"output file lies under a file: {held}")
        if held != out.parent:
            raise ConfigError(f"output directory not found: {out.parent}")


def _coeff_table(nodes, rows, cols, values, name):
    """Columns of a table: the key (i, phase, l, phase, P|Q, Re|Im) of the
    coefficient at each position ``rows, cols`` of x, whose node k is
    ``nodes[k]``, and its value in ``values`` under ``name``."""
    key = coefficient_columns(nodes, rows, cols)
    table = {f: key[f] for f in ("bus_i", "phase_i", "bus_l", "phase_l", "wrt")}
    table["part"] = list(map(str.capitalize, key["part"]))
    table[name] = values.tolist()
    return table


#: how ``json`` spells the floats that a JSON number cannot hold
_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_items(values):
    """The ``json.dumps`` text of each value of a column of str, int or float."""
    if isinstance(values[0], str):
        return list(map(json.encoder.encode_basestring_ascii, values))
    return [_JSON_NONFINITE.get(r, r) for r in map(repr, values)]


def _write_table(table, out, fmt):
    """Write the columns of ``table`` as CSV, or as the list of row objects
    that ``json.dumps(rows, indent=2)`` writes, to the file ``out`` or to
    stdout, a block of rows at a time.

    That encoder runs in pure Python, one call per item, with an indent;
    here each value is formatted once, and each row fills one template.
    """
    with open(out, "w", newline="") if out else nullcontext(sys.stdout) as fh:
        if fmt == "json":
            fields = ",\n".join(
                f"    {json.encoder.encode_basestring_ascii(name)}: %s" for name in table
            )
            row = f"  {{\n{fields}\n  }}"
            columns = list(table.values())

            def rows(start, stop):
                items = zip(*(_json_items(c[start:stop]) for c in columns))
                return ",\n".join(map(row.__mod__, items))

            fh.write("[\n")
            write_joined(fh, len(columns[0]), rows, ",\n")
            fh.write("\n]\n")
        else:
            writer = csv.writer(fh)
            writer.writerow(table)
            writer.writerows(zip(*table.values()))


# -- subcommand handlers -----------------------------------------------------


def _cmd_solve(args):
    check_input_paths(args.network)
    network = load_network(args.network)
    state = solve_load_flow(network, build_admittance(network))
    for flat, e in enumerate(state.voltages):
        bus, ph = network.node(flat)
        print(
            f"bus {bus} phase {ph}: "
            f"|E| = {abs(e):.6f} pu, angle = {np.angle(e):.6f} rad"
        )
    print(
        f"converged in {state.iterations} iterations, "
        f"max mismatch {state.max_mismatch:.3e} pu"
    )
    return 0


def _cmd_pfsc(args):
    cfg = RunConfig(network=args.network, sigma_y_pct=())
    _check_output_files(args.out)
    report = run_pipeline(cfg)
    table = _coeff_table(report.nodes, report.rows, report.cols, report.nominal, "value")
    _write_table(table, args.out, args.format)
    return 0


def _cmd_propagate(args):
    cfg = RunConfig(
        network=args.network,
        noise_config=_resolve_config(args.noise_config),
        mode="analytical",
        sigma_y_pct=(args.sigma_y_pct,),
        it_class=args.it_class,
    )
    _check_output_files(args.out)
    report = run_pipeline(cfg)
    sigma = report.analytical[args.sigma_y_pct]
    table = _coeff_table(report.nodes, report.rows, report.cols, sigma, "sigma")
    _write_table(table, args.out, args.format)
    return 0


def _cmd_mc(args):
    noise_config = _resolve_config(args.noise_config)
    check_input_paths(args.network, noise_config)
    _check_output_files(args.out, args.dump_trials)
    # the constructors check the level, trial count and seed before the load flow
    network = load_network(args.network)
    Y = build_admittance(network)
    cfg = MCConfig(
        n_trials=args.nmc,
        seed=args.seed,
        polar=it_class_to_polar(args.it_class, load_noise_config(noise_config)),
        yu=AdmittanceUncertainty.from_relative(Y, args.sigma_y_pct),
        store_trials=bool(args.dump_trials),  # an empty path names no file, as below
    )
    mc = run_monte_carlo(network, Y, solve_load_flow(network, Y), cfg)
    rows, cols = coefficient_positions(network)
    table = _coeff_table(network.nonslack_nodes(), rows, cols, mc.std[rows, cols], "sigma_mc")
    _write_table(table, args.out, args.format)
    if args.dump_trials:
        n_rows = mc.trials.shape[0] * mc.trials.shape[1]
        flat = mc.trials.reshape(n_rows, -1)
        # a block of rows at a time: a whole-array tolist() holds every
        # trial again as Python floats, about 4 times the array's bytes
        step = max(1, _DUMP_BLOCK_VALUES // flat.shape[1])
        with open(args.dump_trials, "w", newline="") as fh:
            writer = csv.writer(fh)
            for start in range(0, n_rows, step):
                writer.writerows(flat[start : start + step].tolist())
    print(
        f"# {cfg.n_trials} trials, {mc.trials_failed} failed, "
        f"{mc.runtime_s:.2f} s",
        file=sys.stderr,
    )
    return 0


def _cmd_report(args):
    cfg = RunConfig(
        network=args.network,
        noise_config=_resolve_config(args.noise_config),
        mode=args.mode,
        n_mc=tuple(args.nmc),
        sigma_y_pct=tuple(args.sigma_y_pct),
        it_class=args.it_class,
        out_dir=args.out,
        seed=args.seed,
        formats=tuple(args.format.split(",")),
    )
    report = run_pipeline(cfg)
    paths = emit_report(report, cfg.formats, args.out)
    for path in paths:
        print(path)
    return 0


# -- parser ------------------------------------------------------------------


def build_parser():
    parser = _Parser(prog="pfsc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help):
        p = sub.add_parser(name, help=help)
        p.add_argument("--network", required=True, help="network YAML file")
        p.set_defaults(func=func)
        return p

    def table(p):
        p.add_argument("--out", default=None, help="output file (default: stdout)")
        p.add_argument("--format", choices=("csv", "json"), default="csv")

    def noise(p):
        p.add_argument(
            "--noise-config",
            default=None,
            help=f"noise YAML (also searched in ${CONFIG_DIR_ENV})",
        )
        p.add_argument("--it-class", default="0.5")

    command("solve", _cmd_solve, "run the load flow")

    table(command("pfsc", _cmd_pfsc, "voltage sensitivity coefficients"))

    p = command("propagate", _cmd_propagate, "analytical coefficient stds")
    table(p)
    noise(p)
    p.add_argument("--sigma-y-pct", type=float, default=1.0)

    p = command("mc", _cmd_mc, "Monte-Carlo coefficient stds")
    table(p)
    noise(p)
    p.add_argument("--sigma-y-pct", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--nmc", type=int, default=1000)
    p.add_argument(
        "--dump-trials", default=None, help="CSV path for the raw trial store"
    )

    p = command("report", _cmd_report, "full comparison pipeline")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument(
        "--format", default="csv", help=f"comma-separated list of {', '.join(FORMATS)}"
    )
    noise(p)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--nmc", type=int, nargs="+", default=[1000])
    p.add_argument(
        "--sigma-y-pct",
        dest="sigma_y_pct",
        type=float,
        nargs="+",
        default=[1.0],
    )
    p.add_argument("--mode", choices=MODES, default="both")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe raises here, not at exit
        return code
    except BrokenPipeError:
        # the Python docs' note on SIGPIPE: the flush at exit must not
        # find the closed pipe either
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (LoadFlowError, SingularSystemError) as exc:
        print(f"pfsc {args.command}: numerical failure: {exc}", file=sys.stderr)
        return 2
    except PfscError as exc:
        print(f"pfsc {args.command}: {exc}", file=sys.stderr)
        return 1
    except (FileNotFoundError, IsADirectoryError) as exc:
        print(f"pfsc {args.command}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
