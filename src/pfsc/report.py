"""End-to-end pipeline orchestration and report emission."""

from __future__ import annotations

import csv
import json
import re
import time
from dataclasses import dataclass, field, fields
from functools import cached_property
from itertools import repeat
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
# run_monte_carlo is not called here but stays importable from this module,
# where the benchmark harness wraps and calls it
from .montecarlo import MCConfig, run_monte_carlo, run_monte_carlo_sets  # noqa: F401
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


@dataclass(frozen=True, slots=True)
class CoefficientKey:
    """Identifies one real coefficient: d{Re|Im} E_i / d{P|Q}_l."""

    bus_i: int
    phase_i: int
    part: str  # "re" | "im"
    bus_l: int
    phase_l: int
    wrt: str  # "P" | "Q"

    def label(self, phase_count=1):
        row = _row_label(self.bus_i, self.phase_i, self.part, phase_count)
        return row + _column_label(self.bus_l, self.phase_l, self.wrt, phase_count)


# A label joins a row half, "Re(dE4", to a column half, "/dP2)"; with more
# than one phase each bus number is followed by its phase letter.
def _row_label(bus, phase, part, phase_count):
    ph = "" if phase_count == 1 else "abc"[phase]
    return f"{'Re' if part == 're' else 'Im'}(dE{bus}{ph}"


def _column_label(bus, phase, wrt, phase_count):
    ph = "" if phase_count == 1 else "abc"[phase]
    return f"/d{wrt}{bus}{ph})"


#: the slot setter of each CoefficientKey field, in field order
_KEY_SETTERS = tuple(getattr(CoefficientKey, f.name).__set__ for f in fields(CoefficientKey))


@dataclass
class ComparisonReport:
    """Per-coefficient nominal values and stds from both methods."""

    keys: list[CoefficientKey]
    labels: list[str]  # keys[i].label(phase_count)
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
    # The slots are set directly: the frozen __init__, one
    # object.__setattr__ per field, is most of the cost of a large table.
    set_bus_i, set_phase_i, set_part, set_bus_l, set_phase_l, set_wrt = _KEY_SETTERS
    keys = []
    for r, c in zip(rows.tolist(), cols.tolist()):
        key = object.__new__(CoefficientKey)
        bus, ph = nodes[r // 2]
        set_bus_i(key, bus)
        set_phase_i(key, ph)
        set_part(key, PARTS[r % 2])
        bus, ph = nodes[c // 2]
        set_bus_l(key, bus)
        set_phase_l(key, ph)
        set_wrt(key, INJECTIONS[c % 2])
        keys.append(key)
    return keys, rows, cols


def _coefficient_labels(network, rows, cols):
    """``key.label(phase_count)`` of each ``coefficient_keys`` entry at ``rows, cols``."""
    p = network.phase_count
    flat = network.nonslack_flat_indices()
    row = {
        r: _row_label(*network.node(flat[r // 2]), PARTS[r % 2], p)
        for r in np.unique(rows).tolist()
    }
    col = {
        c: _column_label(*network.node(flat[c // 2]), INJECTIONS[c % 2], p)
        for c in np.unique(cols).tolist()
    }
    return [row[r] + col[c] for r, c in zip(rows.tolist(), cols.tolist())]


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

    analytical, mc_stds, mc_failed = {}, {}, {}
    mc_sets, mc_cfgs = [], []
    for lvl in cfg.sigma_y_pct:
        yu = AdmittanceUncertainty.from_relative(Y, lvl)
        if cfg.mode in ("analytical", "both"):
            t0 = time.perf_counter()
            en = project_polar_noise(state, polar)
            sigma = analytical_sigma(result, Y, state, yu, en)
            timings[_timing_key("analytical_s", lvl)] = time.perf_counter() - t0
            analytical[lvl] = sigma[at]
        if cfg.mode in ("mc", "both"):
            for n in cfg.n_mc:
                mc_sets.append((lvl, n))
                mc_cfgs.append(MCConfig(n_trials=n, seed=cfg.seed, polar=polar, yu=yu))
    # one pass for every set: a set's seconds are its share of the pass
    for key, mc in zip(mc_sets, run_monte_carlo_sets(network, Y, state, mc_cfgs)):
        timings[_timing_key("mc_s", *key)] = mc.runtime_s
        mc_stds[key] = mc.std[rows, cols]
        mc_failed[key] = mc.trials_failed
    return ComparisonReport(
        keys=keys,
        # made last, so that they are not held through the Monte-Carlo runs
        labels=_coefficient_labels(network, rows, cols),
        nominal=result.x[at],
        analytical=analytical,
        mc=mc_stds,
        mc_failed=mc_failed,
        timings=timings,
        meta={
            "network": str(cfg.network),
            "it_class": str(cfg.it_class),
            "seed": cfg.seed,
            "mode": cfg.mode,
            "phase_count": network.phase_count,
        },
    )


# -- emission ----------------------------------------------------------------

#: An array's slot in the JSON skeleton: the line of its key, whose value is
#: the string "\0<k>" (ASCII-escaped), k the array's position in the list.
_JSON_SLOT = re.compile(r'^( *)(".*": )"\\u0000(\d+)"', re.M)


class _Column:
    """One column of report values, formatted at most once per emission."""

    def __init__(self, values):
        self.values = values

    @cached_property
    def reprs(self):
        """``repr`` of each value: a float's text in CSV and in JSON."""
        return list(map(repr, self.values.tolist()))

    @cached_property
    def json_items(self):
        """``reprs`` with null for each value that is not finite (RFC 8259
        JSON has no NaN or Infinity)."""
        finite = np.isfinite(self.values)
        if finite.all():
            return self.reprs
        return [r if ok else "null" for r, ok in zip(self.reprs, finite.tolist())]


def emit_report(report: ComparisonReport, formats, out_dir) -> list[Path]:
    """Write the report in the requested formats; returns the paths written.

    CSV: one file per admittance-std level with columns
    {coefficient, nominal_pu, std_analytical, std_mc_<n>..., time_s}.
    JSON: a single file carrying all levels plus percents and timings; a
    value that is not finite, such as the percent of a zero nominal, is
    written as null.
    Pretty text: fixed-point table, 4 decimals; the percent of a zero
    nominal reads ``nan%`` or ``inf%``.
    CSV and JSON write a float as its ``repr``, the shortest text that
    reads back to the same double.  Each column is formatted once per call
    and shared by the formats that need it.
    """
    _check_formats(formats)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    levels = sorted(
        set(report.analytical) | {lvl for lvl, _ in report.mc}
    )
    n_mcs = sorted({n for _, n in report.mc})
    nominal = _Column(report.nominal)
    # (n_mc, stds, percent of nominal) of each std column of a level, n_mc
    # None for the analytical one, in report column order
    columns = {lvl: [] for lvl in levels}
    for lvl, n in [(lvl, None) for lvl in report.analytical] + sorted(report.mc):
        stds = report.analytical[lvl] if n is None else report.mc[(lvl, n)]
        columns[lvl].append(
            (n, _Column(stds), _Column(report.percent_of_nominal(stds)))
        )

    for fmt in formats:
        if fmt == "csv":
            for lvl, cols in columns.items():
                path = out_dir / f"report_sigmaY_{lvl:g}pct.csv"
                summed = {"load_flow_s", "coefficients_s"}
                summed.add(_timing_key("analytical_s", lvl))
                summed.update(_timing_key("mc_s", lvl, n) for n in n_mcs)
                total = sum(
                    v for k, v in report.timings.items() if k in summed
                )
                header = ["coefficient", "nominal_pu"]
                header += [
                    "std_analytical" if n is None else f"std_mc_{n}" for n, _, _ in cols
                ]
                header.append("time_s")
                values = [stds.reprs for _, stds, _ in cols]
                with open(path, "w", newline="") as fh:
                    writer = csv.writer(fh)
                    writer.writerow(header)
                    writer.writerows(
                        zip(report.labels, nominal.reprs, *values, repeat(repr(float(total))))
                    )
                written.append(path)
        elif fmt == "json":
            path = out_dir / "report.json"
            path.write_text(_json_text(report, nominal, columns))
            written.append(path)
        else:  # pretty-text
            path = out_dir / "report.txt"
            written.append(_emit_pretty(report, nominal, columns, path))
    return written


def _json_text(report, nominal, columns):
    """``json.dumps(doc, indent=2, sort_keys=True)`` of the report document,
    with a final newline.

    With an indent, ``json`` runs its pure-Python encoder, one call per
    item.  Only the skeleton goes through it, with a slot in place of each
    array; the arrays, already formatted, are joined into their slots.
    """
    arrays = []

    def slot(items):
        arrays.append(items)
        return f"\0{len(arrays) - 1}"

    analytical, monte_carlo = {}, {}
    for lvl, cols in columns.items():
        for n, stds, pct in cols:
            entry = {"std": slot(stds.json_items), "pct_of_nominal": slot(pct.json_items)}
            if n is None:
                analytical[str(lvl)] = entry
            else:
                entry["trials_failed"] = report.mc_failed[(lvl, n)]
                monte_carlo[f"{lvl}|{n}"] = entry
    doc = {
        "meta": report.meta,
        "timings": report.timings,
        "coefficients": slot(list(map(json.encoder.encode_basestring_ascii, report.labels))),
        "nominal_pu": slot(nominal.json_items),
        "analytical": analytical,
        "monte_carlo": monte_carlo,
    }
    skeleton = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"

    def fill(match):
        indent, head, items = match[1], match[2], arrays[int(match[3])]
        if not items:
            return f"{indent}{head}[]"
        inner = f"\n{indent}  "
        return f"{indent}{head}[{inner}{f',{inner}'.join(items)}\n{indent}]"

    return _JSON_SLOT.sub(fill, skeleton)


def _emit_pretty(report, nominal, columns, path):
    d = PRETTY_DECIMALS
    labels = report.labels
    width = max(max(map(len, labels), default=0), 24)
    nominal = nominal.values.tolist()
    lines = []
    for lvl, cols in columns.items():
        lines.append(f"sigma_Y = {lvl:g}% of |element|")
        head = f"{'coefficient':<{width}} {'nominal':>12}"
        row = f"%-{width}s %12.{d}f"
        values = [labels, nominal]
        for n, stds, pct in cols:
            head += f" {'analytical' if n is None else f'MC n={n}':>16}"
            row += f" %9.{d}f (%4.1f%%)"
            values += [stds.values.tolist(), pct.values.tolist()]
        lines.append(head)
        lines.extend(map(row.__mod__, zip(*values)))
        lines.append("")
    lines.append("timings (s):")
    for k in sorted(report.timings):
        lines.append(f"  {k}: {report.timings[k]:.3f}")
    path.write_text("\n".join(lines) + "\n")
    return path
