"""End-to-end pipeline orchestration and report emission."""

from __future__ import annotations

import csv
import json
import re
import time
from dataclasses import dataclass, field
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
from .montecarlo import (  # noqa: F401
    MCConfig,
    check_seed,
    check_trials,
    run_monte_carlo,
    run_monte_carlo_sets,
)
from .network import build_admittance, load_network
from .uncertainty import (
    AdmittanceUncertainty,
    analytical_sigma,
    check_level,
    it_class_to_polar,
    load_noise_config,
    project_polar_noise,
)

PRETTY_DECIMALS = 4
#: the formats ``emit_report`` writes
FORMATS = ("csv", "json", "pretty-text")
#: the ``RunConfig.mode`` values: which stds ``run_pipeline`` computes
MODES = ("analytical", "mc", "both")


@dataclass(frozen=True)
class RunConfig:
    """Configuration of a full comparison run."""

    network: str
    noise_config: str | None = None
    mode: str = "both"  # one of MODES
    n_mc: tuple[int, ...] = (1000,)
    sigma_y_pct: tuple[float, ...] = (1.0,)
    it_class: str = "0.5"
    out_dir: str | None = None
    seed: int = 1
    formats: tuple[str, ...] = ("csv",)
    coefficients: tuple | None = None  # (bus_i, bus_l, part, wrt) filter

    def __post_init__(self):
        if self.mode not in MODES:
            raise ConfigError(f"unknown mode {self.mode!r}")
        for entry in self.coefficients or ():
            _filter_fields(entry)
        for level in self.sigma_y_pct:
            check_level(level)
        _check_outputs(self.formats, self.sigma_y_pct)
        for n in self.n_mc:
            check_trials(n)
        check_seed(self.seed)
        check_input_paths(self.network, self.noise_config)
        if self.out_dir is not None:
            out = Path(self.out_dir)
            # the nearest path that exists must be a directory: out_dir itself,
            # or the ancestor that mkdir would create it under
            held = next(p for p in (out, *out.parents) if p.exists())
            if not held.is_dir():
                where = "is" if held == out else "lies under"
                raise ConfigError(f"output directory {where} a file: {held}")


def check_input_paths(network, noise_config=None):
    """Raise ConfigError unless the network file, and the noise config when
    one is given, exist and are not directories."""
    for what, path in (("network file", network), ("noise config", noise_config)):
        if path is None:
            continue
        if not Path(path).exists():
            raise ConfigError(f"{what} not found: {path}")
        if Path(path).is_dir():
            raise ConfigError(f"{what} is a directory: {path}")


def _check_outputs(formats, levels):
    """Raise ConfigError for an unknown format, or for two different levels
    whose CSV tables would be written to one file."""
    for fmt in formats:
        if fmt not in FORMATS:
            raise ConfigError(f"unknown report format {fmt!r} (choose from {FORMATS})")
    if "csv" in formats:
        first = {}
        for lvl in levels:
            name = _csv_name(lvl)
            other = first.setdefault(name, lvl)
            if other != lvl:
                raise ConfigError(
                    f"admittance noise levels {other!r} and {lvl!r} would both write {name}"
                )


def _csv_name(lvl):
    return f"report_sigmaY_{lvl:g}pct.csv"


@dataclass(frozen=True, slots=True)
class CoefficientKey:
    """Identifies one real coefficient: d{Re|Im} E_i / d{P|Q}_l."""

    bus_i: int
    phase_i: int
    part: str  # "re" | "im"
    bus_l: int
    phase_l: int
    wrt: str  # "P" | "Q"


@dataclass
class ComparisonReport:
    """Per-coefficient nominal values and stds from both methods; their
    keys and labels are built when first read."""

    nodes: list[tuple[int, int]]  # NetworkModel.nonslack_nodes: node k of x
    rows: np.ndarray  # the coefficients are x[rows, cols]
    cols: np.ndarray
    nominal: np.ndarray
    analytical: dict = field(default_factory=dict)  # sigma_pct -> stds
    mc: dict = field(default_factory=dict)  # (sigma_pct, n_mc) -> stds
    mc_failed: dict = field(default_factory=dict)  # (sigma_pct, n_mc) -> count
    timings: dict = field(default_factory=dict)
    meta: dict = field(default_factory=dict)

    @cached_property
    def keys(self) -> list[CoefficientKey]:
        columns = coefficient_columns(self.nodes, self.rows, self.cols)
        return list(map(CoefficientKey, *columns.values()))

    @cached_property
    def labels(self) -> list[str]:
        """Each coefficient's name: ``Re(dE4/dP2)``, or ``Im(dE3b/dQ2c)``
        with each bus number followed by its phase letter when polyphase.
        A label joins its row's half, "Re(dE4", to its column's, "/dP2)";
        each half is formatted once."""
        every = np.arange(2 * len(self.nodes))
        name = coefficient_columns(self.nodes, every, every)
        # a polyphase network has nodes of every phase
        letter = "abc" if any(name["phase_i"]) else ("",) * 3
        row = [
            f"{part.capitalize()}(dE{bus}{letter[ph]}"
            for bus, ph, part in zip(name["bus_i"], name["phase_i"], name["part"])
        ]
        col = [
            f"/d{wrt}{bus}{letter[ph]})"
            for bus, ph, wrt in zip(name["bus_l"], name["phase_l"], name["wrt"])
        ]
        return [row[r] + col[c] for r, c in zip(self.rows.tolist(), self.cols.tolist())]

    def percent_of_nominal(self, stds):
        with np.errstate(divide="ignore", invalid="ignore"):
            return 100.0 * stds / np.abs(self.nominal)


def _filter_fields(entry):
    """The ``(bus_i, bus_l, part, wrt)`` of a coefficient filter entry;
    ConfigError unless it is a 4-item tuple or list."""
    if not (isinstance(entry, (tuple, list)) and len(entry) == 4):
        raise ConfigError(
            f"coefficient filter entry {entry!r} is not a "
            f"(bus_i, bus_l, part, wrt) tuple"
        )
    return entry


def coefficient_positions(network, coefficients=None):
    """Positions in x of the coefficients to report.

    Returns ``(rows, cols)``, row-major over x, whose node k is the k-th
    non-slack node of ``network`` (see ``NetworkModel.nonslack_nodes``).
    ``coefficients`` keeps only the ``(bus_i, bus_l, part, wrt)`` tuples it
    lists, for every phase pair of those buses; None keeps the whole
    table.  An entry that is not a 4-item tuple or list, or that selects
    nothing (a slack or unknown bus, a part other than "re"/"im", a ``wrt``
    other than "P"/"Q"), raises ConfigError.
    """
    nodes = network.nonslack_nodes()
    dim = 2 * len(nodes)
    if coefficients is None:
        return np.divmod(np.arange(dim * dim), dim)
    nodes_of = {}
    for k, (bus, _) in enumerate(nodes):
        nodes_of.setdefault(bus, []).append(k)
    flat = []  # r * dim + c of each selected position
    for entry in coefficients:
        bus_i, bus_l, part, wrt = _filter_fields(entry)
        r = c = ()
        try:  # an unhashable bus, such as a list, is no bus of the network
            if part in PARTS and wrt in INJECTIONS:
                r = [2 * k + PARTS.index(part) for k in nodes_of.get(bus_i, ())]
                c = [2 * k + INJECTIONS.index(wrt) for k in nodes_of.get(bus_l, ())]
        except TypeError:
            pass
        if not (r and c):
            raise ConfigError(
                f"coefficient filter entry {tuple(entry)!r} selects nothing: "
                f"buses must be non-slack buses of the network, part one "
                f"of {PARTS}, wrt one of {INJECTIONS}"
            )
        flat += [i * dim + j for i in r for j in c]
    # sorted and deduplicated: row-major, each position once
    return np.divmod(np.unique(np.array(flat, dtype=np.intp)), dim)


def coefficient_columns(nodes, rows, cols):
    """The ``CoefficientKey`` fields, ``{name: list}`` in field order, of
    the coefficients at ``rows, cols`` of x, whose node k is ``nodes[k]``."""
    bus, phase = np.array(nodes, dtype=np.int64).reshape(-1, 2).T
    (node_r, part), (node_c, wrt) = np.divmod(rows, 2), np.divmod(cols, 2)
    return {
        "bus_i": bus[node_r].tolist(),
        "phase_i": phase[node_r].tolist(),
        "part": np.array(PARTS)[part].tolist(),
        "bus_l": bus[node_c].tolist(),
        "phase_l": phase[node_c].tolist(),
        "wrt": np.array(INJECTIONS)[wrt].tolist(),
    }


def _timing_key(name, *args):
    return f"{name}[{','.join(str(a) for a in args)}]"


def run_pipeline(cfg: RunConfig) -> ComparisonReport:
    """Load flow, coefficient solve, then analytical and/or MC stds."""
    # an unknown IT class is refused before any numerical work
    polar = it_class_to_polar(cfg.it_class, load_noise_config(cfg.noise_config))
    timings = {}
    t0 = time.perf_counter()
    network = load_network(cfg.network)
    # a filter entry that selects nothing is refused before the load flow
    rows, cols = coefficient_positions(network, cfg.coefficients)
    Y = build_admittance(network)
    state = solve_load_flow(network, Y)
    timings["load_flow_s"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    problem = assemble_problem(Y, state, network)
    result = solve_coefficients(problem, rows, cols)
    timings["coefficients_s"] = time.perf_counter() - t0
    at = result.block_index(rows, cols)  # the coefficients' entries of x-aligned tables

    analytical, mc_stds, mc_failed = {}, {}, {}
    mc_sets, mc_cfgs = [], []
    en = project_polar_noise(state, polar) if cfg.mode != "mc" else None
    for lvl in dict.fromkeys(cfg.sigma_y_pct):  # an equal repeated level runs once
        yu = AdmittanceUncertainty.from_relative(Y, lvl)
        if cfg.mode in ("analytical", "both"):
            t0 = time.perf_counter()
            sigma = analytical_sigma(result, yu, en)
            timings[_timing_key("analytical_s", lvl)] = time.perf_counter() - t0
            analytical[lvl] = sigma[at]
        if cfg.mode in ("mc", "both"):
            for n in dict.fromkeys(cfg.n_mc):  # a repeated count runs once too
                mc_sets.append((lvl, n))
                mc_cfgs.append(MCConfig(n_trials=n, seed=cfg.seed, polar=polar, yu=yu))
    # one pass for every set: a set's seconds are the pass's, split in
    # proportion to the sets' trials
    for key, mc in zip(mc_sets, run_monte_carlo_sets(network, Y, state, mc_cfgs)):
        timings[_timing_key("mc_s", *key)] = mc.runtime_s
        mc_stds[key] = mc.std[rows, cols]
        mc_failed[key] = mc.trials_failed
    return ComparisonReport(
        nodes=network.nonslack_nodes(),
        rows=rows,
        cols=cols,
        nominal=result.x[at],
        analytical=analytical,
        mc=mc_stds,
        mc_failed=mc_failed,
        timings=timings,
        meta={
            "network": str(cfg.network),
            "it_class": str(cfg.it_class),
            "seed": int(cfg.seed),  # a numpy integer is no JSON number
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
    {coefficient, nominal_pu, std_analytical, std_mc_<n>..., time_s}; two
    different levels named alike by ``_csv_name`` raise ConfigError.
    JSON: a single file carrying all levels plus percents and timings; a
    value that is not finite, such as the percent of a zero nominal, is
    written as null.
    Pretty text: fixed-point table, 4 decimals; the percent of a zero
    nominal reads ``nan%`` or ``inf%``.
    CSV and JSON write a float as its ``repr``, the shortest text that
    reads back to the same double.  Each column is formatted once per call
    and shared by the formats that need it.
    """
    levels = sorted(
        set(report.analytical) | {lvl for lvl, _ in report.mc}
    )
    _check_outputs(formats, levels)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
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

    for fmt in dict.fromkeys(formats):  # a repeated format is written once
        if fmt == "csv":
            for lvl, cols in columns.items():
                path = out_dir / _csv_name(lvl)
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
