"""Network data model and compound admittance matrix assembly.

Buses, branches and per-unit bases are read from a YAML description file
(see ``load_network`` for the schema).  ``emit_network`` writes the JSON
form of that schema, which is YAML too, and ``read_yaml`` reads such a
file with the ``json`` module.  All electrical quantities are kept in SI
units on the data classes and converted to per-unit on demand, so a
load/emit round trip is lossless.

Node ordering.  Every per-node vector and matrix of the package (voltages,
injections, the rows and columns of Y) is indexed by a flat node index,
bus-major and phase-minor:
``(bus_0, ph_0), (bus_0, ph_1), ..., (bus_1, ph_0), ...``
where buses keep the order they appear in the file.  The unknowns of the
sensitivity system are the non-slack nodes in that order
(``nonslack_flat_indices``).  ``NetworkModel`` owns this table:
``flat_index`` maps a (bus index, phase) pair to its flat index and
``node`` maps it back (``nonslack_nodes`` for every unknown); no other
module computes a position itself.

Branch table.  A ``NetworkModel`` also holds its branches as arrays, in
branch order: the ``BranchTable`` of the flat index of each end, the
series impedances ``(B, p, p)`` and the shunt susceptances ``(B, p, p)``,
where a 1x1 shunt of a polyphase branch is ``b·I``.  It is built once,
when the model is, and ``stamp_admittance`` reads it instead of the
``Branch`` objects.

Admittance pattern.  ``stamp_admittance`` is the one stamp: it sums the
branch terms of a stack of series impedances on Y's pattern, the sorted
flat positions ``r m + c`` that the branches reach.  ``build_admittance``
is its call on the network's own impedances and returns Y as an
``AdmittanceMatrix``; the branch-parameter Monte-Carlo trials call it on
perturbed impedances and scatter the values with ``dense``.  A dense Y
is an ``(m, m)`` array that only the product Y E needs;
``AdmittanceMatrix.matrix`` builds it on each read.

The bases, the slack voltage, the bus injections and the branch values
of a network are finite: ``load_network`` refuses a non-finite one with
the entry and key that hold it, and ``NetworkModel.validate`` refuses one
in a network built in code.
"""

from __future__ import annotations

import cmath
import json
import math
import numbers
from dataclasses import dataclass, replace

import numpy as np
import yaml

from .errors import (
    DegenerateBranchError,
    NetworkParseError,
    NetworkValidationError,
    yaml_error_line,
)

#: libyaml's C parser when PyYAML was built with it; the same safe
#: constructor
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def _refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


def read_yaml(path, error):
    """The document of the YAML file ``path``.

    A file whose first non-blank character is ``{`` is first read as JSON
    (RFC 8259, which YAML 1.2 contains), as ``emit_network`` writes it;
    ``NaN`` and ``Infinity`` are not JSON.  Any other text, and text that
    is not JSON, is read with ``_YAML_LOADER``.  A YAML syntax error raises
    ``error`` with one line: the path, the line and column where the
    parser stopped, and its problem.
    """
    with open(path) as fh:
        text = fh.read()
    if text.lstrip().startswith("{"):
        try:
            return json.loads(text, parse_constant=_refuse_constant)
        except ValueError:
            pass
    try:
        return yaml.load(text, Loader=_YAML_LOADER)
    except yaml.YAMLError as exc:
        raise error(f"{path}: {yaml_error_line(exc)}") from exc


SLACK = "slack"
PQ = "pq"


@dataclass(frozen=True)
class Bus:
    """A network node with its net per-phase power injection.

    ``p_kw``/``q_kvar`` are net injections (generation positive, load
    negative), one entry per phase.  The slack bus carries no specified
    injection.  ``index`` is a whole number: ``2.0`` is kept as ``2``, and
    a fraction or a bool raises NetworkParseError.
    """

    index: int
    kind: str
    p_kw: tuple[float, ...] = ()
    q_kvar: tuple[float, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "index", _integer(self.index, "bus index"))
        if self.kind not in (SLACK, PQ):
            raise NetworkValidationError(
                f"bus {self.index}: unknown kind {self.kind!r}"
            )


class Branch:
    """A series element between two buses.

    The series impedance is a ``p x p`` complex matrix in ohms (scalar for
    the single-phase equivalent).  ``shunt_b_s`` is the total shunt
    susceptance in siemens, split evenly between the two ends; it defaults
    to zero.  The bus ends are whole numbers, checked as ``Bus.index`` is,
    and ``length_km``, when given, is a float.
    """

    def __init__(self, from_bus, to_bus, z_ohm, shunt_b_s=None, length_km=None):
        self.from_bus = _integer(from_bus, "branch from_bus")
        self.to_bus = _integer(to_bus, "branch to_bus")
        self.z_ohm = np.atleast_2d(np.asarray(z_ohm, dtype=complex))
        if shunt_b_s is None:
            self.shunt_b_s = np.zeros(self.z_ohm.shape)
        else:
            self.shunt_b_s = np.atleast_2d(np.asarray(shunt_b_s, dtype=float))
        if length_km is not None:
            length_km = _numeric(length_km, float, "branch length_km")
        self.length_km = length_km

    def __eq__(self, other):
        if not isinstance(other, Branch):
            return NotImplemented
        return (
            self.from_bus == other.from_bus
            and self.to_bus == other.to_bus
            and np.array_equal(self.z_ohm, other.z_ohm)
            and np.array_equal(self.shunt_b_s, other.shunt_b_s)
            and self.length_km == other.length_km
        )

    def __repr__(self):
        return f"Branch({self.from_bus}->{self.to_bus}, z={self.z_ohm!r})"


@dataclass(frozen=True)
class BranchTable:
    """The branches of a network as arrays, in branch order.

    ``from_flat``/``to_flat`` (B,) are the flat indices of phase 0 at the
    two ends, ``z_ohm`` (B, p, p) the series impedances and ``shunt_b_s``
    (B, p, p) the total shunt susceptances; a 1x1 shunt of a polyphase
    branch is per phase, ``b·I``.
    """

    from_flat: np.ndarray
    to_flat: np.ndarray
    z_ohm: np.ndarray
    shunt_b_s: np.ndarray

    @classmethod
    def of(cls, branches, position, p):
        """The table of ``branches``, whose ends are keys of ``position``
        (bus index -> bus position) and whose impedances are p x p."""
        def flat(buses):
            return np.array([position[b] for b in buses], dtype=np.intp) * p

        z_ohm = np.array([br.z_ohm for br in branches], dtype=complex).reshape(-1, p, p)
        blocks = [br.shunt_b_s for br in branches]
        sizes = [b.size for b in blocks]
        full = [k for k, size in enumerate(sizes) if size == p * p]
        one = [k for k, size in enumerate(sizes) if size != p * p]
        shunt = np.zeros(z_ohm.shape)
        if full:
            shunt[full] = np.array([blocks[k] for k in full]).reshape(-1, p, p)
        if one:
            ph = np.arange(p)
            shunt[np.array(one)[:, None], ph, ph] = np.array([blocks[k] for k in one])[:, 0]
        return cls(
            flat([br.from_bus for br in branches]),
            flat([br.to_bus for br in branches]),
            z_ohm,
            shunt,
        )


@dataclass
class NetworkModel:
    """A polyphase network with one slack bus and PQ buses elsewhere.

    The bus -> position table and the ``branch_table`` are built once, at
    construction; change a network with ``dataclasses.replace``, which
    builds a new one.
    """

    buses: tuple[Bus, ...]
    branches: tuple[Branch, ...]
    phase_count: int
    slack_bus: int
    base_power_va: float
    base_voltage_v: float
    slack_voltage_pu: complex = 1.0 + 0.0j
    name: str = ""

    def __post_init__(self):
        self.buses = tuple(self.buses)
        self.branches = tuple(self.branches)
        self._position = {bus.index: pos for pos, bus in enumerate(self.buses)}
        self.validate()

    # -- derived quantities -------------------------------------------------

    @property
    def n_bus(self):
        return len(self.buses)

    @property
    def n_nodes(self):
        """Total node/phase count ``p * N_b``."""
        return self.phase_count * self.n_bus

    @property
    def z_base_ohm(self):
        return self.base_voltage_v**2 / self.base_power_va

    def bus_position(self, bus_index):
        try:
            return self._position[bus_index]
        except KeyError:
            raise NetworkValidationError(f"no bus with index {bus_index}") from None

    def flat_index(self, bus_index, phase=0):
        """Flat node index of (bus, phase) in bus-major ordering."""
        if not 0 <= phase < self.phase_count:
            raise NetworkValidationError(f"phase {phase} out of range")
        return self.bus_position(bus_index) * self.phase_count + phase

    def node(self, flat):
        """(bus index, phase) of a flat node index; inverse of flat_index."""
        pos, phase = divmod(flat, self.phase_count)
        return self.buses[pos].index, phase

    def slack_flat_indices(self):
        base = self.flat_index(self.slack_bus)
        return list(range(base, base + self.phase_count))

    def nonslack_flat_indices(self):
        """Flat indices of the PQ nodes: the unknowns, in order, of H."""
        base = self.flat_index(self.slack_bus)
        return tuple(range(base)) + tuple(range(base + self.phase_count, self.n_nodes))

    def nonslack_nodes(self):
        """(bus index, phase) of each non-slack node, in the order of H's
        unknowns: the k-th owns rows and columns 2k and 2k + 1 of H and of
        the coefficient table x."""
        return [self.node(flat) for flat in self.nonslack_flat_indices()]

    def slack_voltage_phasors(self):
        """Per-phase slack voltages; phases are spaced 120 degrees apart."""
        v = complex(self.slack_voltage_pu)
        if self.phase_count == 1:
            return np.array([v])
        a = np.exp(2j * np.pi / 3.0)
        return v * np.array([1.0 + 0j, a**2, a])

    def injections_pu(self):
        """Complex net injections S = P + jQ per node/phase, in per-unit."""
        s = np.zeros(self.n_nodes, dtype=complex)
        s[list(self.nonslack_flat_indices())] = [
            (p_kw * 1e3 + 1j * q_kvar * 1e3) / self.base_power_va
            for bus in self.buses
            if bus.kind == PQ
            for p_kw, q_kvar in zip(bus.p_kw, bus.q_kvar)
        ]
        return s

    # -- validation ---------------------------------------------------------

    def validate(self):
        """Raise NetworkValidationError for the first fault found, else set
        ``branch_table`` from the checked branches."""
        if self.phase_count not in (1, 3):
            raise NetworkValidationError(
                f"phase_count must be 1 or 3, got {self.phase_count}"
            )
        for name in ("base_power_va", "base_voltage_v"):
            _check_base(getattr(self, name), name, NetworkValidationError)
        if len(self._position) != len(self.buses):
            raise NetworkValidationError("duplicate bus indices")
        slacks = [b.index for b in self.buses if b.kind == SLACK]
        if len(slacks) != 1:
            raise NetworkValidationError(
                f"exactly one slack bus required, found {len(slacks)}"
            )
        if slacks[0] != self.slack_bus:
            raise NetworkValidationError(
                f"slack_bus={self.slack_bus} does not match the bus marked "
                f"slack ({slacks[0]})"
            )
        if not cmath.isfinite(complex(self.slack_voltage_pu)):
            raise NetworkValidationError(
                f"slack_voltage_pu must be finite, not {self.slack_voltage_pu!r}"
            )
        p = self.phase_count
        for bus in self.buses:
            if bus.kind == PQ and (len(bus.p_kw) != p or len(bus.q_kvar) != p):
                raise NetworkValidationError(
                    f"bus {bus.index}: injection needs {p} per-phase entries"
                )
            if not all(map(math.isfinite, bus.p_kw + bus.q_kvar)):
                raise NetworkValidationError(f"bus {bus.index}: injection must be finite")
        # a branch's values are checked for finiteness once its ends and
        # shapes are: a fault in an earlier branch is reported first
        checked, fault = self.branches, None
        for pos, br in enumerate(self.branches):
            fault = self._branch_fault(br)
            if fault is not None:
                checked = self.branches[:pos]
                break
        table = BranchTable.of(checked, self._position, p)
        lengths = np.array([br.length_km or 0.0 for br in checked]).reshape(-1, 1, 1)
        bad = _first_nonfinite(table.z_ohm, table.shunt_b_s, lengths)
        if bad is not None:
            br = checked[bad[0]]
            what = ("series impedance", "shunt susceptance", "length_km")[bad[1]]
            raise NetworkValidationError(
                f"branch {br.from_bus}-{br.to_bus}: {what} must be finite"
            )
        if fault is not None:
            raise NetworkValidationError(fault)
        self._check_connected()
        self.branch_table = table

    def _branch_fault(self, br):
        """The message of the first check that branch ``br`` fails, or None."""
        p = self.phase_count
        name = f"branch {br.from_bus}-{br.to_bus}"
        if br.from_bus == br.to_bus:
            return f"{name} connects a bus to itself"
        if br.from_bus not in self._position or br.to_bus not in self._position:
            return f"{name} references unknown bus"
        if br.z_ohm.shape != (p, p):
            return f"{name}: impedance block is {br.z_ohm.shape}, expected ({p}, {p})"
        return _shunt_fault(br.shunt_b_s.shape, p, name)

    def _check_connected(self):
        adjacency = {i: set() for i in self._position}
        for br in self.branches:
            adjacency[br.from_bus].add(br.to_bus)
            adjacency[br.to_bus].add(br.from_bus)
        seen = {self.slack_bus}
        stack = [self.slack_bus]
        while stack:
            for nxt in adjacency[stack.pop()]:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        if len(seen) != len(adjacency):
            raise NetworkValidationError("graph not connected")


class AdmittanceMatrix:
    """The compound admittance matrix Y in per-unit, stored on its pattern.

    Y is ``(m, m)`` complex, ``m = p*N_b``, indexed by the flat node
    ordering of :class:`NetworkModel` (see the module docstring).  It
    stores its structural nonzeros only: ``positions`` holds their sorted
    flat positions ``r m + c`` and ``values`` the entries there, both
    read-only.  An entry that is exactly zero is not stored, since the
    sparse LU orderings read the pattern.  ``matrix`` is the dense array,
    built afresh on each read, for the steps that need it whole (the
    product Y E); read it once per step.
    """

    def __init__(self, matrix):
        """Y from the dense ``(m, m)`` array ``matrix``: its nonzero
        entries are stored."""
        matrix = np.asarray(matrix, dtype=complex)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ValueError(f"an admittance matrix is square, not {matrix.shape}")
        positions = np.flatnonzero(matrix)
        self._set(positions, matrix.reshape(-1)[positions], len(matrix))

    @classmethod
    def on_pattern(cls, positions, values, n_nodes):
        """Y of ``n_nodes`` nodes holding ``values`` at the sorted distinct
        flat ``positions`` and zero elsewhere; a zero value is dropped."""
        Y = cls.__new__(cls)
        keep = values != 0
        Y._set(positions[keep], values[keep], n_nodes)
        return Y

    def _set(self, positions, values, n_nodes):
        for array in (positions, values):
            array.flags.writeable = False
        self.positions, self.values, self.n_nodes = positions, values, n_nodes
        self._padded = np.append(values, 0)

    @property
    def shape(self):
        return (self.n_nodes, self.n_nodes)

    @property
    def matrix(self):
        """The dense ``(m, m)`` complex array, a new one on each read."""
        return dense(self.positions, self.values, self.n_nodes)

    def take(self, flat):
        """The entries at the flat positions ``flat``; zero off the pattern."""
        return take(self.positions, self._padded, flat)


def dense(positions, values, m):
    """The ``(..., m, m)`` array of ``values`` (..., L) at the flat
    ``positions`` (L,), zero elsewhere."""
    out = np.zeros(values.shape[:-1] + (m * m,), dtype=values.dtype)
    out[..., positions] = values
    return out.reshape(values.shape[:-1] + (m, m))


def take(positions, padded, flat):
    """The entries at the flat positions ``flat`` of an array stored at the
    sorted, distinct ``positions``: ``padded`` holds the stored values
    along its last axis, then a zero, which a position not stored reads."""
    at = np.searchsorted(positions, flat)
    at[np.append(positions, -1)[at] != flat] = len(positions)
    return padded[..., at]


def build_admittance(network: NetworkModel) -> AdmittanceMatrix:
    """Assemble the per-unit compound admittance matrix from branch data.

    Each branch contributes ``inv(z_pu)`` to its two diagonal blocks and
    ``-inv(z_pu)`` to the off-diagonal blocks; half the branch shunt
    susceptance is added at each end (``stamp_admittance`` of the
    network's own impedances).
    """
    positions, values = stamp_admittance(network, network.branch_table.z_ohm)
    return AdmittanceMatrix.on_pattern(positions, values, network.n_nodes)


def stamp_admittance(network: NetworkModel, z_ohm):
    """Y of ``network`` with the series impedances ``z_ohm`` (..., B, p, p,
    in ohms) in place of its branches', on Y's pattern: ``(positions,
    values)``, the sorted flat positions (L,) of the branch terms in the
    ``(m, m)`` Y and the entries there (..., L).

    The terms are the blocks (f, f), (t, t), (f, t), (t, f) of each
    branch, branch by branch, so that an entry shared by several branches
    sums them in branch order.  ``dense`` scatters the values into dense
    matrices.  An entry may sum to zero, which is kept.
    """
    p = network.phase_count
    m = network.n_nodes
    branches = network.branches
    table = network.branch_table
    z_pu = z_ohm / network.z_base_ohm
    degenerate = np.abs(np.linalg.det(z_pu)) < 1e-300
    if np.any(degenerate):
        br = branches[int(np.argmax(degenerate.reshape(-1))) % len(branches)]
        raise DegenerateBranchError(
            f"degenerate branch {br.from_bus}-{br.to_bus}: singular "
            f"series impedance matrix"
        )
    y = np.linalg.inv(z_pu)
    ysh = 1j * table.shunt_b_s * network.z_base_ohm / 2.0
    f, t = table.from_flat, table.to_flat
    first = np.stack([f, t, f, t], axis=1)[:, :, None, None]
    second = np.stack([f, t, t, f], axis=1)[:, :, None, None]
    ph = np.arange(p)
    flat = ((first + ph[:, None]) * m + second + ph).reshape(-1)
    terms = np.stack([y + ysh, y + ysh, -y, -y], axis=-3)
    stack = terms.shape[:-4]
    terms = terms.reshape(stack + (-1,))
    positions = np.unique(flat)
    values = np.zeros(stack + (len(positions),), dtype=complex)
    # stack k's entries start at k L of the flat values
    start = len(positions) * np.arange(math.prod(stack)).reshape(stack + (1,))
    np.add.at(values.reshape(-1), start + np.searchsorted(positions, flat), terms)
    return positions, values


# -- file input / output ----------------------------------------------------


def _numeric(value, cast, what):
    """``cast(value)``; NetworkParseError naming ``what`` if it is not numeric."""
    try:
        return cast(value)
    except (TypeError, ValueError):
        raise NetworkParseError(f"{what} must be numeric, not {value!r}") from None


def _integer(value, what):
    """``value`` as an int; NetworkParseError naming ``what`` unless it is a
    whole number.  A fraction or a bool is refused, not cast."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, (bool, np.bool_)) or not _numeric(value, float, what).is_integer():
        raise NetworkParseError(f"{what} must be an integer, not {value!r}")
    return int(float(value))


def _matrix(value):
    return np.atleast_2d(np.asarray(value, dtype=float))


def _check_base(value, what, error):
    """Raise ``error`` naming ``what`` unless ``value`` is a finite positive
    number (not a bool): every per-unit quantity divides by a base."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not (
        0 < value < math.inf
    ):
        raise error(f"{what} must be a finite positive number, not {value!r}")


def _shunt_fault(shape, p, what):
    """The message naming ``what`` unless a shunt block of ``shape`` is 1x1,
    which is per phase (``b·I``), or p x p; None if it is."""
    if shape in ((1, 1), (p, p)):
        return None
    expected = "(1, 1)" if p == 1 else f"(1, 1) or ({p}, {p})"
    return f"{what}: shunt block is {shape}, expected {expected}"


def _first_nonfinite(*stacks):
    """``(branch, stack)`` of the first branch with a non-finite entry in
    one of ``stacks`` (each (B, p, p)), and the first such stack of it;
    None if every entry is finite."""
    bad = np.stack([~np.isfinite(s).all(axis=(1, 2)) for s in stacks], axis=1)
    hits = np.flatnonzero(bad)
    return divmod(int(hits[0]), len(stacks)) if hits.size else None


def _per_phase(entry, key, p, what):
    """The per-phase values of ``entry[key]``, each a finite float; zero on
    every phase if the key is omitted."""
    if key not in entry:
        return (0.0,) * p
    value = entry[key]
    if not isinstance(value, (list, tuple)):
        if p != 1:
            raise NetworkParseError(f"{what} {key}: scalar given but phases={p}")
        if isinstance(value, (int, float)) and math.isfinite(value):  # the usual case
            return (float(value),)
        value = [value]
    if len(value) != p:
        raise NetworkParseError(f"{what} {key}: expected {p} entries, got {len(value)}")
    name = f"{what} {key}"
    return tuple(_finite(_numeric(v, float, name), name) for v in value)


def _finite(value, what):
    """``value``; NetworkParseError naming ``what`` unless it is finite."""
    if not cmath.isfinite(value):
        raise NetworkParseError(f"{what} must be finite, not {value!r}")
    return value


def _block(value, what):
    """A branch matrix: a float if it is 1x1, else a 2-D float array."""
    if isinstance(value, (int, float)):
        return float(value)
    block = _numeric(value, _matrix, what)
    return float(block[0, 0]) if block.shape == (1, 1) else block


def _shape(block):
    return (1, 1) if isinstance(block, float) else block.shape


def _branch_fields(entry, p, what):
    """``(from, to, r_ohm, x_ohm, shunt_b_s, length_km)`` of a branch entry,
    with every check but finiteness made, in the order ``load_network``
    makes them; each matrix as ``_block`` returns it."""
    r = entry.get("r_ohm")
    x = entry.get("x_ohm")
    if r is None or x is None:
        raise NetworkParseError(f"{what}: missing r_ohm/x_ohm")
    r = _block(r, f"{what} r_ohm")
    x = _block(x, f"{what} x_ohm")
    if _shape(r) != (p, p) or _shape(x) != (p, p):
        raise NetworkParseError(
            f"{what}: impedance block is {_shape(r)}/{_shape(x)}, expected ({p}, {p})"
        )
    shunt = entry.get("shunt_b_s")
    if shunt is not None:
        shunt = _block(shunt, f"{what} shunt_b_s")
        fault = _shunt_fault(_shape(shunt), p, what)
        if fault is not None:
            raise NetworkParseError(fault)
    length = entry.get("length_km")
    if length is not None:
        length = _numeric(length, float, f"{what} length_km")
    from_bus = _integer(entry["from"], f"{what} from")
    to_bus = _integer(entry["to"], f"{what} to")
    return from_bus, to_bus, r, x, shunt, length


def _branch_values(fields, p):
    """The r_ohm, x_ohm and shunt_b_s stacks (B, p, p) and the length_km
    stack (B, 1, 1) of ``_branch_fields`` rows, in the order they are
    checked; an omitted shunt or length is zero."""
    r = np.array([f[2] for f in fields], dtype=float).reshape(-1, p, p)
    x = np.array([f[3] for f in fields], dtype=float).reshape(-1, p, p)
    shunt = np.zeros(r.shape)
    for k, f in enumerate(fields):
        if f[4] is not None:
            shunt[k] = f[4]
    length = np.array([f[5] or 0.0 for f in fields]).reshape(-1, 1, 1)
    return {"r_ohm": r, "x_ohm": x, "shunt_b_s": shunt, "length_km": length}


def _refuse_nonfinite(path, values):
    """NetworkParseError naming the first branch, and its first key, with a
    non-finite entry in ``values`` (``_branch_values``)."""
    bad = _first_nonfinite(*values.values())
    if bad is not None:
        pos, key = bad[0], list(values)[bad[1]]
        block = values[key][pos]
        value = float(block[~np.isfinite(block)][0])
        raise NetworkParseError(
            f"{path}: branches[{pos}] {key} must be finite, not {value!r}"
        )


#: the fields of a bus that gives its load and generation apart
_SPLIT_KEYS = frozenset(("load_kw", "load_kvar", "gen_kw", "gen_kvar"))


def _entries(raw, section, keys, path):
    """The entries of a list section, each a mapping that holds ``keys``."""
    entries = raw[section]
    if not isinstance(entries, list):
        raise NetworkParseError(f"{path}: {section} must be a list of mappings")
    for pos, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise NetworkParseError(f"{path}: {section}[{pos}] is not a mapping")
        for key in keys:
            if key not in entry:
                raise NetworkParseError(f"{path}: {section}[{pos}] is missing {key!r}")
    return entries


def load_network(path) -> NetworkModel:
    """Load a network description file, read by ``read_yaml``.

    Schema (YAML; the JSON that ``emit_network`` writes holds the same
    keys)::

        name: my-feeder          # optional
        phases: 1                # 1 or 3
        bases:
          s_base_va: 1.0e6
          v_base_v: 4160.0
        slack_voltage_pu: 1.0    # optional, may be [mag, angle_rad]
        buses:
          - {index: 1, kind: slack}
          - {index: 2, kind: pq, load_kw: 300, load_kvar: 150,
             gen_kw: 480, gen_kvar: 0}
          - {index: 3, kind: pq, p_kw: -300, q_kvar: -150}   # net injection
        branches:
          - {from: 1, to: 2, r_ohm: 0.01, x_ohm: 0.02, length_km: 0.6}

    Powers are in kW/kVar per phase (scalars for ``phases: 1``, length-p
    lists otherwise); branch impedances in ohms (p x p nested lists for
    ``phases: 3``); an optional branch ``shunt_b_s`` in siemens, p x p or a
    scalar (1x1), which is per phase: ``b·I``.  A bus ``kind`` is
    ``slack`` or ``pq``, the default.  ``r_ohm``, ``x_ohm``, ``shunt_b_s``
    and ``length_km`` are finite; a branch's values are checked for that after
    its other checks, and the first branch in file order with a fault is
    the one named.  Every power field of a bus is finite, and so are the
    slack voltage's magnitude and angle, each checked before their
    product is formed.  Both bases are finite positive numbers.  Net
    injection = generation - load; generation positive.  Either the
    load/gen split or the net ``p_kw``/``q_kvar`` may be given per bus,
    not both; an omitted field is zero on every phase.  Bus indices,
    branch ends and ``phases`` are integers; a fraction or a bool is
    refused, not truncated.  Every other number may also be written as a
    string that Python's ``float`` reads, such as the ``1e-05`` that YAML
    1.1 leaves a string.
    """
    raw = read_yaml(path, NetworkParseError)
    if not isinstance(raw, dict):
        raise NetworkParseError(f"{path}: top level must be a mapping")

    for key in ("phases", "bases", "buses", "branches"):
        if key not in raw:
            raise NetworkParseError(f"{path}: missing section {key!r}")
    p = _integer(raw["phases"], f"{path}: phases")
    bases = raw["bases"]
    if not (isinstance(bases, dict) and {"s_base_va", "v_base_v"} <= set(bases)):
        raise NetworkParseError(f"{path}: bases needs s_base_va and v_base_v")
    s_base = _numeric(bases["s_base_va"], float, f"{path}: bases s_base_va")
    v_base = _numeric(bases["v_base_v"], float, f"{path}: bases v_base_v")
    _check_base(s_base, f"{path}: bases s_base_va", NetworkParseError)
    _check_base(v_base, f"{path}: bases v_base_v", NetworkParseError)

    slack_v = raw.get("slack_voltage_pu", 1.0)
    what = f"{path}: slack_voltage_pu"
    if isinstance(slack_v, (list, tuple)):
        if len(slack_v) != 2:
            raise NetworkParseError(f"{what} must be a number or [magnitude, angle_rad]")
        # both checked before their product, which would warn
        mag, angle = (_finite(_numeric(v, float, what), f"{what}[{k}]")
                      for k, v in enumerate(slack_v))
        slack_v = mag * np.exp(1j * angle)
    else:
        slack_v = _finite(_numeric(slack_v, complex, what), what)

    buses = []
    slack_index = None
    for pos, entry in enumerate(_entries(raw, "buses", ("index",), path)):
        what = f"{path}: buses[{pos}]"
        idx = _integer(entry["index"], f"{what} index")
        kind = entry.get("kind", PQ)
        if kind not in (SLACK, PQ):
            raise NetworkParseError(f"{what} kind must be 'slack' or 'pq', not {kind!r}")
        if kind == SLACK:
            slack_index = idx
            buses.append(Bus(index=idx, kind=SLACK))
            continue
        has_net = "p_kw" in entry or "q_kvar" in entry
        if has_net and not _SPLIT_KEYS.isdisjoint(entry):
            raise NetworkParseError(
                f"bus {idx}: give either p_kw/q_kvar or load/gen fields, not both"
            )
        if has_net:
            p_kw = _per_phase(entry, "p_kw", p, what)
            q_kvar = _per_phase(entry, "q_kvar", p, what)
        else:
            load_p = _per_phase(entry, "load_kw", p, what)
            load_q = _per_phase(entry, "load_kvar", p, what)
            gen_p = _per_phase(entry, "gen_kw", p, what)
            gen_q = _per_phase(entry, "gen_kvar", p, what)
            p_kw = tuple(g - l for g, l in zip(gen_p, load_p))
            q_kvar = tuple(g - l for g, l in zip(gen_q, load_q))
        buses.append(Bus(index=idx, kind=PQ, p_kw=p_kw, q_kvar=q_kvar))

    if slack_index is None:
        raise NetworkValidationError("exactly one slack bus required, found 0")

    entries = _entries(raw, "branches", ("from", "to"), path)
    fields = []
    try:
        for pos, entry in enumerate(entries):
            fields.append(_branch_fields(entry, p, f"{path}: branches[{pos}]"))
    except NetworkParseError:
        # a non-finite value of an earlier branch is the first fault
        _refuse_nonfinite(path, _branch_values(fields, p))
        raise
    values = _branch_values(fields, p)
    _refuse_nonfinite(path, values)
    z_ohm = values["r_ohm"] + 1j * values["x_ohm"]
    branches = [
        Branch(from_bus, to_bus, z, shunt, length)
        for (from_bus, to_bus, _, _, shunt, length), z in zip(fields, z_ohm)
    ]

    return NetworkModel(
        buses=tuple(buses),
        branches=tuple(branches),
        phase_count=p,
        slack_bus=slack_index,
        base_power_va=s_base,
        base_voltage_v=v_base,
        slack_voltage_pu=slack_v,
        name=str(raw.get("name", "")),
    )


def emit_network(network: NetworkModel, path):
    """Write a network in the schema accepted by load_network, as the
    JSON document ``json.dumps(doc, indent=2)``.  JSON is YAML flow syntax,
    so any YAML reader loads the file too."""
    p = network.phase_count

    def scalar_or_list(vals):
        return vals[0] if p == 1 else list(vals)

    doc = {
        "name": network.name,
        "phases": p,
        "bases": {
            "s_base_va": network.base_power_va,
            "v_base_v": network.base_voltage_v,
        },
        "slack_voltage_pu": [
            float(abs(network.slack_voltage_pu)),
            float(np.angle(network.slack_voltage_pu)),
        ],
        "buses": [],
        "branches": [],
    }
    for bus in network.buses:
        entry = {"index": bus.index, "kind": bus.kind}
        if bus.kind == PQ:
            entry["p_kw"] = scalar_or_list(bus.p_kw)
            entry["q_kvar"] = scalar_or_list(bus.q_kvar)
        doc["buses"].append(entry)
    for br in network.branches:
        entry = {
            "from": br.from_bus,
            "to": br.to_bus,
            "r_ohm": float(br.z_ohm[0, 0].real) if p == 1 else br.z_ohm.real.tolist(),
            "x_ohm": float(br.z_ohm[0, 0].imag) if p == 1 else br.z_ohm.imag.tolist(),
        }
        if np.any(br.shunt_b_s):
            entry["shunt_b_s"] = br.shunt_b_s.tolist()
        if br.length_km is not None:
            entry["length_km"] = br.length_km
        doc["branches"].append(entry)
    with open(path, "w") as fh:
        fh.write(json.dumps(doc, indent=2) + "\n")


def with_injections(network: NetworkModel, s_pu) -> NetworkModel:
    """Copy of the network with net injections replaced (per-unit complex).

    ``s_pu`` follows the flat node ordering; slack entries are ignored.
    Used by the finite-difference oracle to perturb single injections.
    """
    s_va = np.asarray(s_pu, dtype=complex) * network.base_power_va
    per_bus = s_va.reshape(network.n_bus, network.phase_count)  # row = bus position
    new_buses = tuple(
        bus
        if bus.kind == SLACK
        else replace(
            bus,
            p_kw=tuple(float(v) for v in sl.real / 1e3),
            q_kvar=tuple(float(v) for v in sl.imag / 1e3),
        )
        for bus, sl in zip(network.buses, per_bus)
    )
    return replace(network, buses=new_buses)
