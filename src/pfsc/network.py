"""Network data model and compound admittance matrix assembly.

Buses, branches and per-unit bases are read from a YAML description file
(see ``load_network`` for the schema).  ``emit_network`` writes the JSON
form of that schema, which is YAML too, and ``read_yaml`` reads such a
file with the ``json`` module.  All electrical quantities are kept in SI
units and converted to per-unit on demand, so a load/emit round trip is
lossless.

Arrays.  A ``NetworkModel`` holds its network as arrays, and they are its
one truth: the bus numbers ``bus_index`` in bus order, the per-phase net
injections ``p_kw``/``q_kvar`` (N, p), zero at the slack, and the
``BranchTable``.  ``load_network`` reads each section of a file column
by column straight into them, with no object per entry.  A network built
in code from ``Bus`` and ``Branch`` objects is laid out into the same
arrays once, and ``buses`` and ``branches`` read such objects back from
the arrays on first use.

Checks.  Each rule of a network is written once, and ``load_network``
and ``NetworkModel.validate`` check the same way.  A rule that holds per
entry is a boolean mask over the entries; ``_raise_first`` stacks the
masks into one fault table of (entries, rules), in the order of their
priority, and names the first entry in order that fails one, by the
first rule it fails.  Both callers share the branch rules
(``_branch_rules``), finiteness (``_finite_rule``, ``_finite``), the bus
numbers (``_bus_positions``), the bases and the phase count.  Each names
its entries its own way: ``{path}: branches[i] r_ohm`` for a file,
``branch f-t: series impedance`` for a network built in code.  A file's
own rules come first for each entry: a value is a number (a bool is
not), a bus number is whole, and a power has one value per phase.

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

Admittance pattern.  ``stamp_admittance`` is the one stamp: it sums the
branch terms of a stack of series impedances on the sorted flat
positions ``r m + c`` that the branches reach with a term nonzero in
some stamp of the stack.  ``build_admittance``
is its call on the network's own impedances and returns Y as an
``AdmittanceMatrix``, whose pattern drops an entry that sums to zero,
as where parallel branches' admittances cancel; the branch-parameter
Monte-Carlo trials call it on perturbed impedances and keep its values.
The product Y E at a point is summed over the pattern
(``AdmittanceMatrix.dot``); a dense Y is an ``(m, m)`` array that only
the Monte-Carlo pass builds, a few trials at a time for their K = Y E,
and ``AdmittanceMatrix.matrix`` builds it on each read, for tests and checks.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass

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
            length_km = _number(length_km, "branch length_km")
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
    (B, p, p) the total shunt susceptances.  ``per_phase`` (B,) marks a
    shunt given 1x1 on a polyphase branch, which is ``b·I``, and
    ``length_km`` (B,) is each branch's length, NaN where none is given.
    """

    from_flat: np.ndarray
    to_flat: np.ndarray
    z_ohm: np.ndarray
    shunt_b_s: np.ndarray
    per_phase: np.ndarray
    length_km: np.ndarray


@dataclass
class NetworkModel:
    """A polyphase network with one slack bus and PQ buses elsewhere.

    The network is held as arrays (see the module docstring), laid out and
    checked once, at construction; ``buses`` and ``branches`` are built
    from them on first read.  Change a network with
    ``dataclasses.replace``, which builds a new one.
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
        self.validate()
        # the arrays hold the network: the objects are read back from them
        del self.buses, self.branches

    def _set(self, bus_index, position, p_kw, q_kvar, branch_table):
        """Hold the checked arrays; NetworkValidationError unless the
        branches connect every bus to the slack."""
        self.bus_index, self._position = tuple(bus_index), position
        self.p_kw, self.q_kvar, self.branch_table = p_kw, q_kvar, branch_table
        p = self.phase_count
        _check_connected(self.n_bus, position[self.slack_bus],
                         branch_table.from_flat // p, branch_table.to_flat // p)

    def __getattr__(self, name):
        # reached only for an attribute not set: ``buses`` and
        # ``branches``, built from the arrays on first read
        if name not in ("buses", "branches"):
            raise AttributeError(name)
        t = self.branch_table
        value = tuple(
            Bus(index, SLACK) if index == self.slack_bus else Bus(index, PQ, tuple(pk), tuple(qk))
            for index, pk, qk in zip(self.bus_index, self.p_kw.tolist(), self.q_kvar.tolist())
        ) if name == "buses" else tuple(
            Branch(self.node(f)[0], self.node(to)[0], z.copy(),
                   (shunt[:1, :1] if one else shunt).copy(), None if math.isnan(km) else km)
            for f, to, z, shunt, one, km in zip(t.from_flat, t.to_flat, t.z_ohm, t.shunt_b_s,
                                                t.per_phase, t.length_km.tolist())
        )
        return self.__dict__.setdefault(name, value)

    # -- derived quantities -------------------------------------------------

    @property
    def n_bus(self):
        return len(self.bus_index)

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
        return self.bus_index[pos], phase

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
        """Complex net injections S = P + jQ per node/phase, in per-unit;
        zero at the slack.  A zero injection is +0.0, whatever its sign."""
        s = np.empty(self.n_nodes, dtype=complex)
        s.real = (self.p_kw.reshape(-1) * 1e3 + 0.0) / self.base_power_va
        s.imag = (self.q_kvar.reshape(-1) * 1e3 + 0.0) / self.base_power_va
        return s

    # -- validation ---------------------------------------------------------

    def validate(self):
        """Raise NetworkValidationError for the first fault of ``buses``
        and ``branches``, else lay them out as the network's arrays."""
        p = self.phase_count
        _check_phases(p)
        for name in ("base_power_va", "base_voltage_v"):
            _check_base(getattr(self, name), name, NetworkValidationError)
        buses, branches = self.buses, self.branches
        index = [bus.index for bus in buses]
        slack = np.array([bus.kind == SLACK for bus in buses], dtype=bool)
        position = _bus_positions(index, slack, self.slack_bus)
        _finite(self.slack_voltage_pu, "slack_voltage_pu", NetworkValidationError)

        # a PQ bus gives p values of each, and a slack bus's are read if it does
        full = np.array([len(bus.p_kw) == len(bus.q_kvar) == p for bus in buses], dtype=bool)
        power = np.array([bus.p_kw + bus.q_kvar if ok else (0.0,) * 2 * p
                          for bus, ok in zip(buses, full)], dtype=float).reshape(-1, 2 * p)
        _raise_first(NetworkValidationError, [
            (~full & ~slack, lambda k: f"bus {index[k]}: injection needs {p} per-phase entries"),
            _finite_rule(lambda k: f"bus {index[k]}: injection", power),
        ])
        power[slack] = 0.0

        def name(k):
            return f"branch {branches[k].from_bus}-{branches[k].to_bus}"

        ends = _ends(position, [br.from_bus for br in branches], [br.to_bus for br in branches])
        z, z_square, _, _ = _blocks([br.z_ohm for br in branches], p, name,
                                    lambda v: np.array(v, dtype=complex))
        shunt, shunt_square, one, _ = _blocks([br.shunt_b_s for br in branches], p, name,
                                              lambda v: np.array(v, dtype=float))
        given, length = _given([br.length_km for br in branches])
        length = np.array(length, dtype=float)
        _raise_first(NetworkValidationError, _branch_rules(
            p, name, ends, (z_square, lambda k: branches[k].z_ohm.shape),
            (shunt_square | one, lambda k: branches[k].shunt_b_s.shape),
            {": series impedance": z, ": shunt susceptance": shunt, ": length_km": length}))
        self._set(index, position, power[:, :p], power[:, p:], BranchTable(
            ends[0] * p, ends[1] * p, z, shunt, one, np.where(given, length, np.nan)))


def _check_connected(n_bus, slack, a, b):
    """NetworkValidationError unless a depth-first walk from bus position
    ``slack`` along the branches between positions ``a`` and ``b`` (B,)
    reaches all ``n_bus`` buses."""
    adjacency = [[] for _ in range(n_bus)]
    for i, j in zip(a.tolist(), b.tolist()):
        adjacency[i].append(j)
        adjacency[j].append(i)
    seen, stack = {slack}, [slack]
    while stack:
        for nxt in adjacency[stack.pop()]:
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    if len(seen) != n_bus:
        raise NetworkValidationError("graph not connected")


class AdmittanceMatrix:
    """The compound admittance matrix Y in per-unit, stored on its pattern.

    Y is ``(m, m)`` complex, ``m = p*N_b``, indexed by the flat node
    ordering of :class:`NetworkModel` (see the module docstring).  It
    stores its structural nonzeros only: ``positions`` holds their sorted
    flat positions ``r m + c`` and ``values`` the entries there, both
    read-only.  An entry that is exactly zero is not stored, since the
    sparse LU orderings read the pattern.  ``dot`` is the product Y E on
    the pattern.  ``matrix`` is the dense array, built afresh on each
    read, for the Monte-Carlo stacks, whose batched product K = Y E is
    dense; read it once per step.
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

    def dot(self, E):
        """The product Y E, (m,) complex: each row sums ``values * E[col]``
        over its stored entries in position order, so a row that stores
        none gives 0.  An ``E`` of another shape than ``(m,)`` raises
        ValueError."""
        E = np.asarray(E)
        if E.shape != (self.n_nodes,):
            raise ValueError(f"dimension mismatch: Y is {self.shape}, voltages {E.shape}")
        rows, cols = np.divmod(self.positions, self.n_nodes)
        terms = self.values * E[cols]
        out = np.empty(self.n_nodes, dtype=complex)
        out.real = np.bincount(rows, terms.real, self.n_nodes)
        out.imag = np.bincount(rows, terms.imag, self.n_nodes)
        return out

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
    in ohms) in place of its branches': ``(positions, values)``, the
    sorted flat positions (L,) of the branch terms in the ``(m, m)`` Y
    that are nonzero in some stamp of the stack, and the entries there
    (..., L).

    The terms are the blocks (f, f), (t, t), (f, t), (t, f) of each
    branch, branch by branch, so that an entry shared by several branches
    sums them in branch order.  A term that is zero in every stamp, as
    between the phases of a branch that does not couple them, is left
    out.  ``dense`` scatters the values into dense matrices.  An entry
    may sum to zero, which is kept.
    """
    p = network.phase_count
    m = network.n_nodes
    table = network.branch_table
    z_pu = z_ohm / network.z_base_ohm
    degenerate = np.abs(np.linalg.det(z_pu)) < 1e-300
    if np.any(degenerate):
        k = int(np.argmax(degenerate.reshape(-1))) % len(table.from_flat)
        raise DegenerateBranchError(
            f"degenerate branch {network.node(table.from_flat[k])[0]}-"
            f"{network.node(table.to_flat[k])[0]}: singular series impedance matrix"
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
    # a term that is zero in every stamp, such as the cross-phase terms of
    # uncoupled phases, writes no position; the sums lose only +-0.0
    held = (terms != 0).any(axis=tuple(range(len(stack))))
    flat, terms = flat[held], terms[..., held]
    positions, at = np.unique(flat, return_inverse=True)
    values = np.zeros(stack + (len(positions),), dtype=complex)
    # stack k's entries start at k L of the flat values
    start = len(positions) * np.arange(math.prod(stack)).reshape(stack + (1,))
    np.add.at(values.reshape(-1), start + at, terms)
    return positions, values


# -- rules ------------------------------------------------------------------


def _check_phases(p):
    if p not in (1, 3):
        raise NetworkValidationError(f"phase_count must be 1 or 3, got {p}")


def _check_base(value, what, error):
    """Raise ``error`` naming ``what`` unless ``value`` is a finite positive
    number (not a bool): every per-unit quantity divides by a base."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not (
        0 < value < math.inf
    ):
        raise error(f"{what} must be a finite positive number, not {value!r}")


def _finite(value, what, error):
    """``value``; ``error`` naming ``what`` unless it is finite."""
    _raise_first(error, [_finite_rule(lambda k: what, np.array([value]))])
    return value


def _bus_positions(index, slack, slack_bus):
    """{bus number: position} of the bus numbers ``index``;
    NetworkValidationError unless they are distinct and ``slack`` (N,)
    marks one bus, numbered ``slack_bus``."""
    position = dict(zip(index, range(len(index))))
    if len(position) != len(index):
        raise NetworkValidationError("duplicate bus indices")
    slacks = [index[k] for k in np.flatnonzero(slack)]
    if len(slacks) != 1:
        raise NetworkValidationError(f"exactly one slack bus required, found {len(slacks)}")
    if slacks[0] != slack_bus:
        raise NetworkValidationError(
            f"slack_bus={slack_bus} does not match the bus marked slack ({slacks[0]})"
        )
    return position


def _ends(position, from_bus, to_bus):
    """The positions (B,) of the branch ends numbered ``from_bus`` and
    ``to_bus``, keys of ``position``: -1 for an unknown from bus and -2
    for an unknown to bus."""
    return [np.array([position.get(bus, unknown) for bus in buses], dtype=np.intp)
            for buses, unknown in ((from_bus, -1), (to_bus, -2))]


def _finite_rule(name, values):
    """The rule that each entry of ``values`` (n, ...) holds finite numbers
    only; ``name(k)`` names entry k, and its message shows the first
    number that is not finite."""
    def message(k):
        row = np.ravel(values[k])
        return f"{name(k)} must be finite, not {row[~np.isfinite(row)][0].item()!r}"
    return ~np.isfinite(values).all(axis=tuple(range(1, np.ndim(values)))), message


def _branch_rules(p, name, ends, impedance, shunt, values):
    """The branch rules, in the order a fault is named: the two ends are one
    bus; an end is unknown (its position, from ``_ends``, is negative); the
    impedance block is not p x p; the shunt block is neither 1x1, per phase
    (``b·I``), nor p x p; each of ``values``, {label: (B, ...)}, is finite.
    ``impedance`` and ``shunt`` are each the mask (B,) of the blocks of a
    right shape and the text of block k's shape; ``name(k)`` names branch k.
    """
    (from_pos, to_pos), (square, z_shape), (shunt_ok, shunt_shape) = ends, impedance, shunt
    expected = "(1, 1)" if p == 1 else f"(1, 1) or ({p}, {p})"
    return [
        (from_pos == to_pos, lambda k: f"{name(k)} connects a bus to itself"),
        ((from_pos < 0) | (to_pos < 0), lambda k: f"{name(k)} references unknown bus"),
        (~square, lambda k: f"{name(k)}: impedance block is {z_shape(k)}, expected ({p}, {p})"),
        (~shunt_ok, lambda k: f"{name(k)}: shunt block is {shunt_shape(k)}, expected {expected}"),
        *(_finite_rule(lambda k, label=label: name(k) + label, array)
          for label, array in values.items()),
    ]


def _raise_first(error, rules):
    """Raise ``error`` naming the first entry, in order, that fails one of
    ``rules``, by the first rule it fails; return if none fails.

    ``rules`` are ``(mask, message)`` pairs in the order of their priority:
    ``mask`` (n,) is set where an entry fails the rule, and ``message(i)``
    says how entry i fails it; a rule that no entry fails may be None.
    The masks form the fault table (n, rules).
    """
    rules = [rule for rule in rules if rule is not None]
    table = np.stack([mask for mask, _ in rules], axis=1)
    if table.any():
        entry, rule = divmod(int(np.argmax(table)), len(rules))
        raise error(rules[rule][1](entry))


def _stack(blocks, p):
    """The (B, p, p) layout of ``blocks`` (B, r, c), or (B,) numbers, or
    (B, c) rows: a p x p block as given, a 1x1 block of a polyphase
    network as ``b·I``, and a block of any other shape as zeros.  Also the
    masks (B,) of the p x p blocks and of those 1x1 ones."""
    if blocks.ndim < 3:
        blocks = blocks.reshape(len(blocks), 1, blocks.shape[1] if blocks.ndim == 2 else 1)
    square = blocks.shape[1:] == (p, p)
    one = blocks.shape[1:] == (1, 1) and not square
    out = blocks if square else np.zeros((len(blocks), p, p), blocks.dtype)
    if one:
        out[:, range(p), range(p)] = blocks[:, 0]
    return out, np.full(len(blocks), square), np.full(len(blocks), one)


def _blocks(values, p, name, read):
    """The ``_stack`` layout of a column of matrices, ``read(values)``, with
    its masks, and the ``_raise_first`` rule of the values that ``read``
    refuses.  Each value is read on its own when the column does not read
    as one array; ``name(k)`` names value k."""
    try:
        return (*_stack(read(values), p), None)
    except _READ_ERRORS:
        pass
    parts, rule = _each(
        values, lambda k, value: _stack(_number(value, name(k), lambda v: read([v])), p),
        _stack(np.zeros((1, 0, 0)), p))
    return (*map(np.concatenate, zip(*parts)), rule)


def _given(values):
    """(n,) mask of the ``values`` that are not None, and the values with
    0.0 in place of None."""
    return (np.array([v is not None for v in values], dtype=bool),
            [0.0 if v is None else v for v in values])


# -- file input / output ----------------------------------------------------

#: what reading a number may raise
_READ_ERRORS = (TypeError, ValueError, OverflowError)


def _number(value, what, cast=float):
    """``cast(value)``; NetworkParseError naming ``what`` if ``value`` is
    not numeric: a bool, or a value that ``cast`` refuses."""
    if not isinstance(value, (bool, np.bool_)):
        try:
            return cast(value)
        except _READ_ERRORS:
            pass
    raise NetworkParseError(f"{what} must be numeric, not {value!r}")


def _integer(value, what):
    """``value`` as an int; NetworkParseError naming ``what`` unless it is a
    whole number.  A fraction or a bool is refused, not cast."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, (bool, np.bool_)) or not _number(value, what).is_integer():
        raise NetworkParseError(f"{what} must be an integer, not {value!r}")
    return int(float(value))


def _floats(values):
    """``values``, a number or nested lists of numbers, as a float array,
    each number read as ``_number`` reads it; one of ``_READ_ERRORS``
    unless each is a number."""
    values = np.array(values, dtype=object)
    # NumPy reads a bool as 1.0 or 0.0 and None as NaN: neither is a number
    if not {bool, type(None)}.isdisjoint(map(type, values.flat)):
        raise TypeError("not a number")
    return values.astype(float)


def _file_shape(value):
    """The shape of a file's matrix ``value``: a number is 1x1."""
    return np.atleast_2d(_floats(value)).shape


def _each(values, read, refused):
    """``read(k, value)`` of each of ``values``, ``refused`` in place of
    each that it refuses with NetworkParseError, and the ``_raise_first``
    rule of those."""
    out, bad = [], {}
    for k, value in enumerate(values):
        try:
            out.append(read(k, value))
        except NetworkParseError as exc:
            out.append(refused)
            bad[k] = str(exc)
    return out, (np.array([k in bad for k in range(len(values))], dtype=bool), bad.get)


def _whole(values, name):
    """``values`` as whole numbers, None in place of each that is not one,
    and the ``_raise_first`` rule of those; ``name(k)`` names value k."""
    if set(map(type, values)) <= {int}:  # the usual case
        return values, None
    return _each(values, lambda k, v: _integer(v, name(k)), None)


def _numbers(values, shape, read):
    """The float array (n, *shape) of ``values``, zeros in place of each
    refused, and the ``_raise_first`` rule of those.  The column is read
    as one array when each value is a number, or numbers, of ``shape``;
    else each value with ``read(k, value)``, which returns one of
    ``shape`` or raises NetworkParseError."""
    try:
        out = _floats(values)
        if out.shape[1:] == shape:
            return out, None
    except _READ_ERRORS:
        pass
    out, rule = _each(values, read, np.zeros(shape))
    return np.array(out, dtype=float).reshape(-1, *shape), rule


def _per_phase(values, p, name):
    """(n, p) floats of one power field, one value a bus, and the
    ``_raise_first`` rule of those refused: a value is a list of p
    numbers, or one number if ``p`` is 1."""

    def read(k, value):
        row = value if isinstance(value, (list, tuple)) else [value]
        if row is not value and p != 1:
            raise NetworkParseError(f"{name(k)}: scalar given but phases={p}")
        if len(row) != p:
            raise NetworkParseError(f"{name(k)}: expected {p} entries, got {len(row)}")
        return np.reshape([_number(v, name(k)) for v in row], shape)

    shape = () if p == 1 else (p,)
    out, rule = _numbers(values, shape, read)
    return out.reshape(-1, p), rule


#: the fields of a bus that gives its net injection
_NET_KEYS = frozenset(("p_kw", "q_kvar"))

#: the fields of a bus that gives its load and generation apart
_SPLIT_KEYS = frozenset(("load_kw", "load_kvar", "gen_kw", "gen_kvar"))

#: the power fields of a bus, in the order they are checked
_POWER_KEYS = ("p_kw", "q_kvar", "load_kw", "load_kvar", "gen_kw", "gen_kvar")


def _read_buses(entries, p, what):
    """The bus numbers, the slack mask (N,) and the net injections
    ``p_kw``, ``q_kvar`` (N, p), zero at the slack, of a file's bus
    ``entries``; NetworkParseError naming the first at fault, ``what[i]``.
    The power fields of a slack bus are not read."""
    n = len(entries)
    present = set().union(*entries)
    index, index_rule = _whole([e["index"] for e in entries], lambda k: f"{what}[{k}] index")
    kinds = [e.get("kind", PQ) for e in entries]
    is_slack = [kind == SLACK for kind in kinds]
    slack = np.array(is_slack, dtype=bool)
    net, split = (np.zeros(n, dtype=bool) if present.isdisjoint(keys)
                  else np.array([not keys.isdisjoint(e) for e in entries], dtype=bool)
                  for keys in (_NET_KEYS, _SPLIT_KEYS))
    rules = [
        index_rule,
        (np.array([kind not in (SLACK, PQ) for kind in kinds], dtype=bool),
         lambda k: f"{what}[{k}] kind must be 'slack' or 'pq', not {kinds[k]!r}"),
        (~slack & net & split,
         lambda k: f"{what}[{k}] give either p_kw/q_kvar or load/gen fields, not both"),
    ]
    zero = 0.0 if p == 1 else [0.0] * p
    power = dict.fromkeys(_NET_KEYS | _SPLIT_KEYS, np.zeros((n, p)))
    for key in filter(present.__contains__, _POWER_KEYS):
        def name(k, key=key):
            return f"{what}[{k}] {key}"

        power[key], rule = _per_phase([zero if s else e.get(key, zero)
                                       for e, s in zip(entries, is_slack)], p, name)
        rules += [rule, _finite_rule(name, power[key])]
    _raise_first(NetworkParseError, rules)
    net = net[:, None]
    return (index, slack, np.where(net, power["p_kw"], power["gen_kw"] - power["load_kw"]),
            np.where(net, power["q_kvar"], power["gen_kvar"] - power["load_kvar"]))


def _read_branches(entries, position, p, what):
    """The ``BranchTable`` of a file's branch ``entries``, whose ends are
    keys of ``position``; NetworkParseError naming the first at fault,
    ``what[i]``."""
    def name(k):
        return f"{what}[{k}]"

    given, values = {}, {}
    for key in ("r_ohm", "x_ohm", "shunt_b_s", "length_km"):
        given[key], values[key] = _given([e.get(key) for e in entries])
    (r, r_square, _, r_rule), (x, x_square, _, x_rule), (shunt, shunt_square, one, shunt_rule) = (
        _blocks(values[key], p, lambda k, key=key: f"{name(k)} {key}", _floats)
        for key in ("r_ohm", "x_ohm", "shunt_b_s"))
    length, length_rule = _numbers(values["length_km"], (),
                                   lambda k, v: _number(v, f"{name(k)} length_km"))
    (from_bus, from_rule), (to_bus, to_rule) = (
        _whole([e[key] for e in entries], lambda k, key=key: f"{name(k)} {key}")
        for key in ("from", "to"))
    ends = _ends(position, from_bus, to_bus)
    _raise_first(NetworkParseError, [
        (~given["r_ohm"] | ~given["x_ohm"], lambda k: f"{name(k)}: missing r_ohm/x_ohm"),
        r_rule, x_rule, shunt_rule, length_rule, from_rule, to_rule,
        *_branch_rules(
            p, name, ends,
            (r_square & x_square,
             lambda k: f"{_file_shape(values['r_ohm'][k])}/{_file_shape(values['x_ohm'][k])}"),
            (shunt_square | one, lambda k: _file_shape(values["shunt_b_s"][k])),
            {" r_ohm": r, " x_ohm": x, " shunt_b_s": shunt, " length_km": length}),
    ])
    return BranchTable(ends[0] * p, ends[1] * p, r + 1j * x, shunt, one & given["shunt_b_s"],
                       np.where(given["length_km"], length, np.nan))


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
                                 # or a string such as "(0.6-0.8j)"
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
    refused, not truncated, and ``phases`` is 1 or 3.  Every other number
    may also be written as a string that Python's ``float`` reads, such
    as the ``1e-05`` that YAML 1.1 leaves a string, but not as a bool.

    Each section is read column by column into the network's arrays.
    """
    raw = read_yaml(path, NetworkParseError)
    if not isinstance(raw, dict):
        raise NetworkParseError(f"{path}: top level must be a mapping")

    for key in ("phases", "bases", "buses", "branches"):
        if key not in raw:
            raise NetworkParseError(f"{path}: missing section {key!r}")
    p = _integer(raw["phases"], f"{path}: phases")
    _check_phases(p)
    bases = raw["bases"]
    if not (isinstance(bases, dict) and {"s_base_va", "v_base_v"} <= set(bases)):
        raise NetworkParseError(f"{path}: bases needs s_base_va and v_base_v")
    s_base, v_base = (_number(bases[key], f"{path}: bases {key}")
                      for key in ("s_base_va", "v_base_v"))
    for key, value in (("s_base_va", s_base), ("v_base_v", v_base)):
        _check_base(value, f"{path}: bases {key}", NetworkParseError)

    slack_v = raw.get("slack_voltage_pu", 1.0)
    what = f"{path}: slack_voltage_pu"
    if isinstance(slack_v, (list, tuple)):
        if len(slack_v) != 2:
            raise NetworkParseError(f"{what} must be a number or [magnitude, angle_rad]")
        # both checked before their product, which would warn
        mag, angle = (_finite(_number(v, what), f"{what}[{k}]", NetworkParseError)
                      for k, v in enumerate(slack_v))
        slack_v = mag * np.exp(1j * angle)
    else:
        slack_v = _finite(_number(slack_v, what, complex), what, NetworkParseError)

    index, slack, p_kw, q_kvar = _read_buses(
        _entries(raw, "buses", ("index",), path), p, f"{path}: buses")
    # a file names its slack bus by its kind: without one there is no
    # slack_bus for _bus_positions to hold the buses to
    if not slack.any():
        raise NetworkParseError(f"{path}: exactly one slack bus required, found 0")
    slack_bus = index[int(np.argmax(slack))]
    position = _bus_positions(index, slack, slack_bus)
    table = _read_branches(
        _entries(raw, "branches", ("from", "to"), path), position, p, f"{path}: branches")
    # the arrays are checked: the network is built from them as they are
    network = NetworkModel.__new__(NetworkModel)
    network.__dict__.update(phase_count=p, slack_bus=slack_bus, base_power_va=s_base,
                            base_voltage_v=v_base, slack_voltage_pu=slack_v,
                            name=str(raw.get("name", "")))
    network._set(index, position, p_kw, q_kvar, table)
    return network


def emit_network(network: NetworkModel, path):
    """Write a network in the schema accepted by load_network, as the
    JSON document ``json.dumps(doc, indent=2)``.  JSON is YAML flow syntax,
    so any YAML reader loads the file too.

    The slack voltage ``v`` is written ``[magnitude, angle_rad]`` where
    ``load_network`` reads that pair back to ``v`` bit for bit, as it does
    every real positive voltage, and elsewhere as the string
    ``str(complex(v))``, such as ``"(0.617936559776332-0.8115136524370934j)"``.
    """
    p, table = network.phase_count, network.branch_table

    def per_phase(values):  # a number a bus or branch if p is 1, else a list
        return values.ravel().tolist() if p == 1 else values.tolist()

    buses = [{"index": index, "kind": SLACK} if index == network.slack_bus
             else {"index": index, "kind": PQ, "p_kw": p_kw, "q_kvar": q_kvar}
             for index, p_kw, q_kvar in zip(
                 network.bus_index, per_phase(network.p_kw), per_phase(network.q_kvar))]
    branches = [{"from": network.node(f)[0], "to": network.node(t)[0], "r_ohm": r, "x_ohm": x}
                for f, t, r, x in zip(table.from_flat.tolist(), table.to_flat.tolist(),
                                      per_phase(table.z_ohm.real), per_phase(table.z_ohm.imag))]
    for entry, shunt, one, length in zip(
            branches, table.shunt_b_s, table.per_phase, table.length_km.tolist()):
        if shunt.any():  # a 1x1 shunt on a polyphase branch is written 1x1
            entry["shunt_b_s"] = (shunt[:1, :1] if one else shunt).tolist()
        if not math.isnan(length):
            entry["length_km"] = length
    v = complex(network.slack_voltage_pu)
    mag, angle = abs(v), float(np.angle(v))
    # str() tells every pair of floats apart, -0.0 from 0.0 too
    polar = str(complex(mag * np.exp(1j * angle))) == str(v)
    doc = {"name": network.name, "phases": p,
           "bases": {"s_base_va": network.base_power_va, "v_base_v": network.base_voltage_v},
           "slack_voltage_pu": [mag, angle] if polar else str(v),
           "buses": buses, "branches": branches}
    with open(path, "w") as fh:
        fh.write(json.dumps(doc, indent=2) + "\n")


def with_injections(network: NetworkModel, s_pu) -> NetworkModel:
    """Copy of the network with net injections replaced (per-unit complex).

    ``s_pu`` follows the flat node ordering; slack entries are ignored.
    Used by the finite-difference oracle to perturb single injections.
    """
    s_va = np.asarray(s_pu, dtype=complex) * network.base_power_va
    per_bus = s_va.reshape(network.n_bus, network.phase_count)  # row = bus position
    p_kw, q_kvar = per_bus.real / 1e3, per_bus.imag / 1e3
    slack = network.bus_position(network.slack_bus)
    p_kw[slack] = q_kvar[slack] = 0.0
    # the same buses and branches: only the injections change, and with
    # them the buses read back from the arrays
    copy = NetworkModel.__new__(NetworkModel)
    copy.__dict__.update({key: value for key, value in vars(network).items() if key != "buses"},
                         p_kw=p_kw, q_kvar=q_kvar)
    return copy
