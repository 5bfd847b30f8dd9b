"""Command-line front end.

Subcommands: solve (load flow), pfsc (coefficients), propagate
(analytical stds), mc (Monte-Carlo stds), report (full comparison
pipeline).  Exit codes: 0 success, 1 usage/configuration error,
2 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from pathlib import Path

import numpy as np

from .coefficients import assemble_problem, solve_coefficients
from .errors import LoadFlowError, PfscError, SingularSystemError
from .loadflow import solve_load_flow
from .montecarlo import MCConfig, run_monte_carlo
from .network import build_admittance, load_network
from .report import RunConfig, coefficient_keys, emit_report, run_pipeline
from .uncertainty import (
    AdmittanceUncertainty,
    analytical_sigma,
    it_class_to_polar,
    load_noise_config,
    project_polar_noise,
)

CONFIG_DIR_ENV = "PFSC_CONFIG_DIR"


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


def _noise_cfg(args):
    return load_noise_config(_resolve_config(args.noise_config))


def _prepare(args):
    network = load_network(args.network)
    Y = build_admittance(network)
    state = solve_load_flow(network, Y)
    return network, Y, state


def _coeff_rows(problem, x):
    """Flatten x to rows keyed by (i, phase, l, phase, P|Q, Re|Im)."""
    keys, rows, cols = coefficient_keys(problem)
    return [
        {
            "bus_i": key.bus_i,
            "phase_i": key.phase_i,
            "bus_l": key.bus_l,
            "phase_l": key.phase_l,
            "wrt": key.wrt,
            "part": key.part.capitalize(),
            "value": value,
        }
        for key, value in zip(keys, x[rows, cols].tolist())
    ]


def _write_rows(rows, out, fmt):
    if fmt == "json":
        text = json.dumps(rows, indent=2) + "\n"
    else:
        cols = list(rows[0]) if rows else []
        import io

        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=cols)
        writer.writeheader()
        writer.writerows(rows)
        text = buf.getvalue()
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


# -- subcommand handlers -----------------------------------------------------


def _cmd_solve(args):
    network, Y, state = _prepare(args)
    for pos, bus in enumerate(network.buses):
        for ph in range(network.phase_count):
            e = state.voltages[pos * network.phase_count + ph]
            print(
                f"bus {bus.index} phase {ph}: "
                f"|E| = {abs(e):.6f} pu, angle = {np.angle(e):.6f} rad"
            )
    print(
        f"converged in {state.iterations} iterations, "
        f"max mismatch {state.max_mismatch:.3e} pu"
    )
    return 0


def _cmd_pfsc(args):
    network, Y, state = _prepare(args)
    problem = assemble_problem(Y, state, network)
    result = solve_coefficients(problem, voltages=state.voltages)
    _write_rows(_coeff_rows(problem, result.x), args.out, args.format)
    return 0


def _cmd_propagate(args):
    network, Y, state = _prepare(args)
    problem = assemble_problem(Y, state, network)
    result = solve_coefficients(problem, voltages=state.voltages)
    polar = it_class_to_polar(args.it_class, _noise_cfg(args))
    yu = AdmittanceUncertainty.from_relative(Y, args.sigma_y_pct)
    en = project_polar_noise(state, polar)
    rows = _coeff_rows(problem, analytical_sigma(result, Y, state, yu, en))
    for row in rows:
        row["sigma"] = row.pop("value")
    _write_rows(rows, args.out, args.format)
    return 0


def _cmd_mc(args):
    network, Y, state = _prepare(args)
    polar = it_class_to_polar(args.it_class, _noise_cfg(args))
    yu = AdmittanceUncertainty.from_relative(Y, args.sigma_y_pct)
    problem = assemble_problem(Y, state, network)
    cfg = MCConfig(
        n_trials=args.nmc,
        seed=args.seed,
        polar=polar,
        yu=yu,
        store_trials=args.dump_trials is not None,
    )
    mc = run_monte_carlo(network, Y, state, cfg)
    rows = _coeff_rows(problem, mc.std)
    for row in rows:
        row["sigma_mc"] = row.pop("value")
    _write_rows(rows, args.out, args.format)
    if args.dump_trials:
        n_rows = mc.trials.shape[0] * mc.trials.shape[1]
        flat = mc.trials.reshape(n_rows, -1)
        with open(args.dump_trials, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerows(flat.tolist())
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

    def common(p, noise=False):
        p.add_argument("--network", required=True, help="network YAML file")
        p.add_argument("--out", default=None, help="output file or directory")
        p.add_argument(
            "--format", default="csv", help="output format (csv, json)"
        )
        if noise:
            p.add_argument(
                "--noise-config",
                default=None,
                help=f"noise YAML (also searched in ${CONFIG_DIR_ENV})",
            )
            p.add_argument("--it-class", default="0.5")
            p.add_argument("--sigma-y-pct", type=float, default=1.0)
            p.add_argument("--seed", type=int, default=1)

    p = sub.add_parser("solve", help="run the load flow")
    common(p)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("pfsc", help="voltage sensitivity coefficients")
    common(p)
    p.set_defaults(func=_cmd_pfsc)

    p = sub.add_parser("propagate", help="analytical coefficient stds")
    common(p, noise=True)
    p.set_defaults(func=_cmd_propagate)

    p = sub.add_parser("mc", help="Monte-Carlo coefficient stds")
    common(p, noise=True)
    p.add_argument("--nmc", type=int, default=1000)
    p.add_argument(
        "--dump-trials", default=None, help="CSV path for the raw trial store"
    )
    p.set_defaults(func=_cmd_mc)

    p = sub.add_parser("report", help="full comparison pipeline")
    common(p)
    p.add_argument(
        "--noise-config",
        default=None,
        help=f"noise YAML (also searched in ${CONFIG_DIR_ENV})",
    )
    p.add_argument("--it-class", default="0.5")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--nmc", type=int, nargs="+", default=[1000])
    p.add_argument(
        "--sigma-y-pct",
        dest="sigma_y_pct",
        type=float,
        nargs="+",
        default=[1.0],
    )
    p.add_argument(
        "--mode", choices=("analytical", "mc", "both"), default="both"
    )
    p.set_defaults(func=_cmd_report)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "report" and not args.out:
        parser.error("report requires --out")
    try:
        return args.func(args)
    except (LoadFlowError, SingularSystemError) as exc:
        print(f"pfsc {args.command}: numerical failure: {exc}", file=sys.stderr)
        return 2
    except PfscError as exc:
        print(f"pfsc {args.command}: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"pfsc {args.command}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
