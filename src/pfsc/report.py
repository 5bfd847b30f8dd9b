"""End-to-end pipeline orchestration and report emission."""

from __future__ import annotations

import csv
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .coefficients import (
    INJECTIONS,
    PARTS,
    assemble_problem,
    solve_coefficients,
)
from .errors import ConfigError
from .loadflow import solve_load_flow
from .montecarlo import MCConfig, run_monte_carlo
from .network import build_admittance, load_network
from .uncertainty import (
    AdmittanceUncertainty,
    analytical_sigma,
    it_class_to_polar,
    load_noise_config,
    project_polar_noise,
)

PRETTY_DECIMALS = 4
#: the formats ``emit_report`` writes
FORMATS = ("csv", "json", "pretty-text")


@dataclass(frozen=True)
class RunConfig:
    """Configuration of a full comparison run."""

    network: str
    noise_config: str | None = None
    mode: str = "both"  # analytical | mc | both
    n_mc: tuple[int, ...] = (1000,)
    sigma_y_pct: tuple[float, ...] = (1.0,)
    it_class: str = "0.5"
    out_dir: str | None = None
    seed: int = 1
    formats: tuple[str, ...] = ("csv",)
    coefficients: tuple | None = None  # (bus_i, bus_l, part, wrt) filter

    def __post_init__(self):
        if self.mode not in ("analytical", "mc", "both"):
            raise ConfigError(f"unknown mode {self.mode!r}")
        _check_formats(self.formats)
        paths = (("network file", self.network), ("noise config", self.noise_config))
        for what, path in paths:
            if path is None:
                continue
            if not Path(path).exists():
                raise ConfigError(f"{what} not found: {path}")
            if Path(path).is_dir():
                raise ConfigError(f"{what} is a directory: {path}")


def _check_formats(formats):
    for fmt in formats:
        if fmt not in FORMATS:
            raise ConfigError(f"unknown report format {fmt!r} (choose from {FORMATS})")


@dataclass(frozen=True)
class CoefficientKey:
    """Identifies one real coefficient: d{Re|Im} E_i / d{P|Q}_l."""

    bus_i: int
    phase_i: int
    part: str  # "re" | "im"
    bus_l: int
    phase_l: int
    wrt: str  # "P" | "Q"

    def label(self, phase_count=1):
        part = "Re" if self.part == "re" else "Im"
        if phase_count == 1:
            return f"{part}(dE{self.bus_i}/d{self.wrt}{self.bus_l})"
        ph = "abc"
        return (
            f"{part}(dE{self.bus_i}{ph[self.phase_i]}"
            f"/d{self.wrt}{self.bus_l}{ph[self.phase_l]})"
        )


@dataclass
class ComparisonReport:
    """Per-coefficient nominal values and stds from both methods."""

    keys: list[CoefficientKey]
    nominal: np.ndarray
    analytical: dict = field(default_factory=dict)  # sigma_pct -> stds
    mc: dict = field(default_factory=dict)  # (sigma_pct, n_mc) -> stds
    mc_failed: dict = field(default_factory=dict)  # (sigma_pct, n_mc) -> count
    timings: dict = field(default_factory=dict)
    meta: dict = field(default_factory=dict)

    def percent_of_nominal(self, stds):
        with np.errstate(divide="ignore", invalid="ignore"):
            return 100.0 * stds / np.abs(self.nominal)


def coefficient_keys(network, coefficients=None):
    """Keys and positions in x of the coefficients to report.

    Returns ``(keys, rows, cols)`` with ``x[rows, cols]`` the coefficients
    of ``keys``, row-major over x, whose node k is the k-th non-slack node
    of ``network`` (see ``pfsc.network`` for the ordering).
    ``coefficients`` keeps only the ``(bus_i, bus_l, part, wrt)`` tuples it
    lists, for every phase pair of those buses; None keeps the whole
    table.  An entry that selects nothing (a slack or unknown bus, a part
    other than "re"/"im", a ``wrt`` other than "P"/"Q") raises ConfigError.
    """
    nodes = [network.node(f) for f in network.nonslack_flat_indices()]
    dim = 2 * len(nodes)
    if coefficients is None:
        keep = np.ones((dim, dim), dtype=bool)
    else:
        nodes_of = {}
        for k, (bus, _) in enumerate(nodes):
            nodes_of.setdefault(bus, []).append(k)
        keep = np.zeros((dim, dim), dtype=bool)
        for entry in coefficients:
            bus_i, bus_l, part, wrt = entry
            r = c = ()
            if part in PARTS and wrt in INJECTIONS:
                r = [2 * k + PARTS.index(part) for k in nodes_of.get(bus_i, ())]
                c = [2 * k + INJECTIONS.index(wrt) for k in nodes_of.get(bus_l, ())]
            if not (r and c):
                raise ConfigError(
                    f"coefficient filter entry {tuple(entry)!r} selects nothing: "
                    f"buses must be non-slack buses of the network, part one "
                    f"of {PARTS}, wrt one of {INJECTIONS}"
                )
            keep[np.ix_(r, c)] = True
    rows, cols = np.nonzero(keep)
    keys = [
        CoefficientKey(
            *nodes[r // 2], PARTS[r % 2], *nodes[c // 2], INJECTIONS[c % 2]
        )
        for r, c in zip(rows.tolist(), cols.tolist())
    ]
    return keys, rows, cols


def _timing_key(name, *args):
    return f"{name}[{','.join(str(a) for a in args)}]"


def run_pipeline(cfg: RunConfig) -> ComparisonReport:
    """Load flow, coefficient solve, then analytical and/or MC stds."""
    timings = {}
    t0 = time.perf_counter()
    network = load_network(cfg.network)
    Y = build_admittance(network)
    state = solve_load_flow(network, Y)
    timings["load_flow_s"] = time.perf_counter() - t0

    keys, rows, cols = coefficient_keys(network, cfg.coefficients)
    t0 = time.perf_counter()
    problem = assemble_problem(Y, state, network)
    result = solve_coefficients(problem, state.voltages, rows, cols)
    timings["coefficients_s"] = time.perf_counter() - t0
    at = result.block_index(rows, cols)  # the keys' entries of x-aligned tables

    polar = it_class_to_polar(cfg.it_class, load_noise_config(cfg.noise_config))

    report = ComparisonReport(
        keys=keys,
        nominal=result.x[at],
        timings=timings,
        meta={
            "network": str(cfg.network),
            "it_class": str(cfg.it_class),
            "seed": cfg.seed,
            "mode": cfg.mode,
            "phase_count": network.phase_count,
        },
    )

    for lvl in cfg.sigma_y_pct:
        yu = AdmittanceUncertainty.from_relative(Y, lvl)
        if cfg.mode in ("analytical", "both"):
            t0 = time.perf_counter()
            en = project_polar_noise(state, polar)
            sigma = analytical_sigma(result, Y, state, yu, en)
            timings[_timing_key("analytical_s", lvl)] = time.perf_counter() - t0
            report.analytical[lvl] = sigma[at]
        if cfg.mode in ("mc", "both"):
            for n in cfg.n_mc:
                mc_cfg = MCConfig(
                    n_trials=n, seed=cfg.seed, polar=polar, yu=yu
                )
                mc = run_monte_carlo(network, Y, state, mc_cfg)
                timings[_timing_key("mc_s", lvl, n)] = mc.runtime_s
                report.mc[(lvl, n)] = mc.std[rows, cols]
                report.mc_failed[(lvl, n)] = mc.trials_failed
    return report


# -- emission ----------------------------------------------------------------


def emit_report(report: ComparisonReport, formats, out_dir) -> list[Path]:
    """Write the report in the requested formats; returns the paths written.

    CSV: one file per admittance-std level with columns
    {coefficient, nominal_pu, std_analytical, std_mc_<n>..., time_s}.
    JSON: a single file carrying all levels plus percents and timings.
    Pretty text: fixed-point table, 4 decimals.
    """
    _check_formats(formats)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    levels = sorted(
        set(report.analytical) | {lvl for lvl, _ in report.mc}
    )
    n_mcs = sorted({n for _, n in report.mc})
    p = report.meta.get("phase_count", 1)
    labels = [k.label(p) for k in report.keys]

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
            doc = {
                "meta": report.meta,
                "timings": report.timings,
                "coefficients": labels,
                "nominal_pu": [float(v) for v in report.nominal],
                "analytical": {
                    str(lvl): {
                        "std": [float(v) for v in stds],
                        "pct_of_nominal": [
                            float(v) for v in report.percent_of_nominal(stds)
                        ],
                    }
                    for lvl, stds in sorted(report.analytical.items())
                },
                "monte_carlo": {
                    f"{lvl}|{n}": {
                        "std": [float(v) for v in stds],
                        "pct_of_nominal": [
                            float(v) for v in report.percent_of_nominal(stds)
                        ],
                        "trials_failed": report.mc_failed[(lvl, n)],
                    }
                    for (lvl, n), stds in sorted(report.mc.items())
                },
            }
            with open(path, "w") as fh:
                json.dump(doc, fh, indent=2, sort_keys=True)
                fh.write("\n")
            written.append(path)
        else:  # pretty-text
            path = out_dir / "report.txt"
            written.append(_emit_pretty(report, labels, levels, n_mcs, path))
    return written


def _emit_pretty(report, labels, levels, n_mcs, path):
    d = PRETTY_DECIMALS
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
