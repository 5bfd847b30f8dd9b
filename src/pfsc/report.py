"""End-to-end pipeline orchestration and report emission."""

from __future__ import annotations

import itertools
import json
import math
import re
import time
from dataclasses import dataclass, field
from functools import cached_property, partial
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
        if self.coefficients is not None:
            for entry in _filter_entries(self.coefficients):
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
        with each bus number followed by its phase letter when polyphase."""
        return self._label_list(0, len(self.rows))

    def _label_list(self, start, stop) -> list[str]:
        """The labels of coefficients start..stop-1.  A label joins its
        row's half, "Re(dE4", to its column's, "/dP2)" (``_label_halves``)."""
        row, col = self._label_halves
        return [row[r] + col[c]
                for r, c in zip(self.rows[start:stop].tolist(), self.cols[start:stop].tolist())]

    @cached_property
    def _label_halves(self) -> tuple[list[str], list[str]]:
        """The labels' row halves and column halves, each list indexed by
        the row or column of x: formatted once for each row in ``rows``
        and each column in ``cols``, "" elsewhere."""
        dim = 2 * len(self.nodes)
        # a polyphase network has nodes of every phase
        letter = "abc" if any(ph for _, ph in self.nodes) else ("",) * 3
        used = [np.flatnonzero(np.bincount(at, minlength=dim)) for at in (self.rows, self.cols)]
        name = coefficient_columns(self.nodes, *used)
        texts = (
            [f"{part.capitalize()}(dE{bus}{letter[ph]}"
             for bus, ph, part in zip(name["bus_i"], name["phase_i"], name["part"])],
            [f"/d{wrt}{bus}{letter[ph]})"
             for bus, ph, wrt in zip(name["bus_l"], name["phase_l"], name["wrt"])],
        )
        halves = ([""] * dim, [""] * dim)
        for half, at, text in zip(halves, used, texts):
            for k, t in zip(at.tolist(), text):
                half[k] = t
        return halves

    def percent_of_nominal(self, stds, rows=slice(None)):
        """100 stds / |nominal| of the coefficients ``rows``, by default of
        all; NaN or inf where the nominal is zero."""
        with np.errstate(divide="ignore", invalid="ignore"):
            return 100.0 * stds[rows] / np.abs(self.nominal[rows])


def _filter_entries(coefficients):
    """The entries of a coefficient filter; ConfigError if it has none."""
    entries = list(coefficients)
    if not entries:
        raise ConfigError("the coefficient filter is empty: it selects no coefficient "
                          "(None keeps the whole table)")
    return entries


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
    table.  An empty filter, or an entry that is not a 4-item tuple or
    list, or that selects nothing (a slack or unknown bus, a part other
    than "re"/"im", a ``wrt`` other than "P"/"Q"), raises ConfigError.
    """
    nodes = network.nonslack_nodes()
    dim = 2 * len(nodes)
    if coefficients is None:
        return np.divmod(np.arange(dim * dim), dim)
    nodes_of = {}
    for k, (bus, _) in enumerate(nodes):
        nodes_of.setdefault(bus, []).append(k)
    flat = []  # r * dim + c of each selected position
    for entry in _filter_entries(coefficients):
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
    # an empty filter, or an entry that selects nothing, is refused before
    # the load flow
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
            del sigma  # the whole table: not held through the pass
        if cfg.mode in ("mc", "both"):
            for n in dict.fromkeys(cfg.n_mc):  # a repeated count runs once too
                mc_sets.append((lvl, n))
                mc_cfgs.append(MCConfig(n_trials=n, seed=cfg.seed, polar=polar, yu=yu))
    # the pass reads nothing of the point's solve (its dense H, H^-1 and
    # x), which is not held beside the pass's buffer
    nominal = result.x[at]
    del problem, result
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
        nominal=nominal,
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


#: rows that emission formats and writes at once
_BLOCK_ROWS = 1024


def write_joined(fh, n, text, sep):
    """Write the text of n rows to ``fh`` a block of rows at a time, with
    ``sep`` between blocks; ``text(start, stop)`` formats rows start..stop-1."""
    for start in range(0, n, _BLOCK_ROWS):
        if start:
            fh.write(sep)
        fh.write(text(start, min(start + _BLOCK_ROWS, n)))


def _json_numbers(values, start, stop, sep, text=None):
    """Items start..stop-1 of ``values`` as JSON numbers joined by ``sep``:
    the lines of their ``repr`` ``text``, formatted here for the finite
    values when not given, with null for each value that is not finite
    (RFC 8259 JSON has no NaN or Infinity)."""
    block = values[start:stop]
    finite = np.isfinite(block)
    if finite.all():
        return sep.join(map(repr, block.tolist())) if text is None else text.replace("\n", sep)
    keep = finite.tolist()
    items = (map(repr, block[finite].tolist()) if text is None
             else itertools.compress(text.split("\n"), keep))
    return sep.join([next(items) if ok else "null" for ok in keep])


class _Sliced:
    """A column read only by slices of rows: ``[start:stop]`` is
    ``rows(slice(start, stop))``, computed when read."""

    def __init__(self, rows):
        self.rows = rows

    def __getitem__(self, rows):
        return self.rows(rows)


class _Column:
    """One column of the report as text, its rows one a line.

    ``lines(start, stop)`` gives the text of rows start..stop-1; each
    range asked for, a block of ``_BLOCK_ROWS`` rows in emission, is
    formatted at most once and kept, so the formats share it.  A column
    of floats, ``values``, writes each as its ``repr``, a float's text in
    CSV and in JSON.
    """

    def __init__(self, values=None, lines=None):
        self.values = values
        self.lines = lines or (lambda start, stop: "\n".join(map(repr, values[start:stop].tolist())))
        self.texts = {}

    def text(self, start, stop):
        """Rows start..stop-1, one a line."""
        if (start, stop) not in self.texts:
            self.texts[start, stop] = self.lines(start, stop)
        return self.texts[start, stop]

    def json_items(self, start, stop, sep):
        """Items start..stop-1 as JSON numbers joined by ``sep``, from ``text``."""
        return _json_numbers(self.values, start, stop, sep, self.text(start, stop))


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
    reads back to the same double.  The labels and the nominal and std
    columns are formatted once per call, a block of rows at a time, and
    each block's text is kept and shared by the formats; every format
    writes its rows a block at a time, so no file's whole text is held at
    once.  A CSV row is its fields joined by commas: no label or float
    text holds a comma, a quote or a line break, so the bytes are those of
    ``csv.writer``.
    """
    levels = sorted(
        set(report.analytical) | {lvl for lvl, _ in report.mc}
    )
    _check_outputs(formats, levels)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    n_mcs = sorted({n for _, n in report.mc})
    labels = _Column(lines=lambda start, stop: "\n".join(report._label_list(start, stop)))
    nominal = _Column(report.nominal)
    # (n_mc, stds, percent of nominal) of each std column of a level, n_mc
    # None for the analytical one, in report column order; a percent is
    # computed a block of rows at a time, as it is written
    columns = {lvl: [] for lvl in levels}
    for lvl, n in [(lvl, None) for lvl in report.analytical] + sorted(report.mc):
        stds = report.analytical[lvl] if n is None else report.mc[(lvl, n)]
        pct = _Sliced(partial(report.percent_of_nominal, stds))
        columns[lvl].append((n, _Column(stds), pct))

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
                texts = [labels, nominal] + [stds for _, stds, _ in cols]
                with open(path, "w", newline="") as fh:
                    fh.write(",".join(header) + "\r\n")
                    write_joined(fh, len(report.nominal),
                                 partial(_csv_rows, texts, repr(float(total))), "")
                written.append(path)
        elif fmt == "json":
            path = out_dir / "report.json"
            with open(path, "w") as fh:
                _write_json(fh, report, labels, nominal, columns)
            written.append(path)
        else:  # pretty-text
            path = out_dir / "report.txt"
            with open(path, "w") as fh:
                _write_pretty(fh, report, labels, nominal, columns)
            written.append(path)
    return written


def _csv_rows(texts, last, start, stop):
    """CSV rows start..stop-1 of the columns ``texts``, each row's fields
    and then ``last`` joined by commas.  The fields fill every other slot
    of one list of the rows' commas and line ends, column by column."""
    k = len(texts)
    cells = [None, ","] * (k - 1) + [None, f",{last}\r\n"]
    cells *= stop - start
    for j, column in enumerate(texts):
        cells[2 * j :: 2 * k] = column.text(start, stop).split("\n")
    return "".join(cells)


def _write_json(fh, report, labels, nominal, columns):
    """Write ``json.dumps(doc, indent=2, sort_keys=True)`` of the report
    document, with a final newline.

    With an indent, ``json`` runs its pure-Python encoder, one call per
    item.  Only the skeleton goes through it, with a slot in place of each
    array; each array's items are written into their slot a block at a
    time: a block of a shared column is its text with each line break
    made the array's separator, and no label needs a JSON escape, so a
    block of labels is quoted by one ``replace``.
    """
    arrays = []  # items(start, stop, sep) of each array, in slot order

    def slot(items):
        arrays.append(items)
        return f"\0{len(arrays) - 1}"

    analytical, monte_carlo = {}, {}
    for lvl, cols in columns.items():
        for n, stds, pct in cols:
            entry = {
                "std": slot(stds.json_items),
                "pct_of_nominal": slot(partial(_json_numbers, pct)),
            }
            if n is None:
                analytical[str(lvl)] = entry
            else:
                entry["trials_failed"] = report.mc_failed[(lvl, n)]
                monte_carlo[f"{lvl}|{n}"] = entry
    doc = {
        "meta": report.meta,
        "timings": report.timings,
        "coefficients": slot(
            lambda start, stop, sep: '"' + labels.text(start, stop).replace("\n", f'"{sep}"') + '"'
        ),
        "nominal_pu": slot(nominal.json_items),
        "analytical": analytical,
        "monte_carlo": monte_carlo,
    }
    skeleton = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"
    n = len(report.nominal)
    done = 0
    for match in _JSON_SLOT.finditer(skeleton):
        indent, head, items = match[1], match[2], arrays[int(match[3])]
        fh.write(skeleton[done : match.start()])
        if n:
            inner = f"\n{indent}  "
            fh.write(f"{indent}{head}[{inner}")
            sep = f",{inner}"
            write_joined(fh, n, partial(items, sep=sep), sep)
            fh.write(f"\n{indent}]")
        else:
            fh.write(f"{indent}{head}[]")
        done = match.end()
    fh.write(skeleton[done:])


def _with_zero_rows(row, tail, width, names, block, zero):
    """The text rows of a block of the pretty table, ``zero`` marking
    those whose nominal and stds are all +0.0: each of those is its label
    padded to ``width`` and one text of ``tail``, the template after the
    label, formatted here once; every other row fills ``row``."""
    zero_tail = tail % (0.0, *(0.0, math.nan) * (len(block) // 2)) + "\n"
    other = ~zero
    filled = map(row.__mod__, zip(itertools.compress(names, other.tolist()),
                                  *(v[other].tolist() for v in block)))
    return [name.ljust(width) + zero_tail if z else next(filled)
            for name, z in zip(names, zero.tolist())]


def _write_pretty(fh, report, labels, nominal, columns):
    """Write the fixed-point table of each level, then the timings.

    A row fills one ``%`` template.  A row whose nominal and every std are
    +0.0, a coefficient between nodes in blocks of H that no trial
    couples, reads the same after its label every time: those zeros and
    their NaN percents are formatted once per block of rows
    (``_with_zero_rows``).
    """
    d = PRETTY_DECIMALS
    # the longest label, from the lengths of its two halves
    row_len, col_len = (np.fromiter(map(len, half), np.intp, len(half))
                        for half in report._label_halves)
    width = max(int((row_len[report.rows] + col_len[report.cols]).max(initial=0)), 24)
    for lvl, cols in columns.items():
        fh.write(f"sigma_Y = {lvl:g}% of |element|\n")
        head = f"{'coefficient':<{width}} {'nominal':>12}"
        tail = f" %12.{d}f"
        values = [nominal.values]
        for n, stds, pct in cols:
            head += f" {'analytical' if n is None else f'MC n={n}':>16}"
            tail += f" %9.{d}f (%4.1f%%)"
            values += [stds.values, pct]
        fh.write(head + "\n")
        row = f"%-{width}s{tail}\n"

        def rows(start, stop):
            block = [v[start:stop] for v in values]
            names = labels.text(start, stop).split("\n")
            if np.count_nonzero(block[0]) < len(names):  # a zero nominal
                zero = np.ones(len(names), dtype=bool)
                for v in block[:1] + block[1::2]:
                    zero &= (v == 0) & ~np.signbit(v)
                if zero.any():
                    return "".join(_with_zero_rows(row, tail, width, names, block, zero))
            return "".join(map(row.__mod__, zip(names, *(v.tolist() for v in block))))

        write_joined(fh, len(report.nominal), rows, "")
        fh.write("\n")
    fh.write("timings (s):\n")
    for k in sorted(report.timings):
        fh.write(f"  {k}: {report.timings[k]:.3f}\n")
