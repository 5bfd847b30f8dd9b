"""Network data model and compound admittance matrix assembly.

Buses, branches and per-unit bases are read from a YAML description file
(see ``load_network`` for the schema).  All electrical quantities are kept
in SI units on the data classes and converted to per-unit on demand, so a
load/emit round trip is lossless.

Node ordering.  Every per-node vector and matrix of the package (voltages,
injections, the rows and columns of Y) is indexed by a flat node index,
bus-major and phase-minor:
``(bus_0, ph_0), (bus_0, ph_1), ..., (bus_1, ph_0), ...``
where buses keep the order they appear in the file.  The unknowns of the
sensitivity system are the non-slack nodes in that order
(``nonslack_flat_indices``).  ``NetworkModel`` owns this table:
``flat_index`` maps a (bus index, phase) pair to its flat index and
``node`` maps it back; no other module computes a position itself.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import yaml

from .errors import (
    DegenerateBranchError,
    NetworkParseError,
    NetworkValidationError,
    yaml_error_line,
)

#: libyaml's C parser when PyYAML was built with it; same safe constructor
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)

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
    to zero.  The bus ends are whole numbers, checked as ``Bus.index`` is.
    """

    def __init__(self, from_bus, to_bus, z_ohm, shunt_b_s=None, length_km=None):
        self.from_bus = _integer(from_bus, "branch from_bus")
        self.to_bus = _integer(to_bus, "branch to_bus")
        self.z_ohm = np.atleast_2d(np.asarray(z_ohm, dtype=complex))
        if shunt_b_s is None:
            self.shunt_b_s = np.zeros_like(self.z_ohm, dtype=float)
        else:
            self.shunt_b_s = np.atleast_2d(np.asarray(shunt_b_s, dtype=float))
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


@dataclass
class NetworkModel:
    """A polyphase network with one slack bus and PQ buses elsewhere.

    The bus -> position table is built once, at construction; change a
    network with ``dataclasses.replace``, which builds a new one.
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

    def slack_voltage_phasors(self):
        """Per-phase slack voltages; phases are spaced 120 degrees apart."""
        v = complex(self.slack_voltage_pu)
        if self.phase_count == 1:
            return np.array([v])
        a = np.exp(2j * np.pi / 3.0)
        return v * np.array([1.0 + 0j, a**2, a])

    def branch_z_pu(self, branch):
        return branch.z_ohm / self.z_base_ohm

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
        if self.phase_count not in (1, 3):
            raise NetworkValidationError(
                f"phase_count must be 1 or 3, got {self.phase_count}"
            )
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
        p = self.phase_count
        for bus in self.buses:
            if bus.kind == PQ and (len(bus.p_kw) != p or len(bus.q_kvar) != p):
                raise NetworkValidationError(
                    f"bus {bus.index}: injection needs {p} per-phase entries"
                )
        for br in self.branches:
            if br.from_bus == br.to_bus:
                raise NetworkValidationError(
                    f"branch {br.from_bus}-{br.to_bus} connects a bus to itself"
                )
            if br.from_bus not in self._position or br.to_bus not in self._position:
                raise NetworkValidationError(
                    f"branch {br.from_bus}-{br.to_bus} references unknown bus"
                )
            if br.z_ohm.shape != (p, p):
                raise NetworkValidationError(
                    f"branch {br.from_bus}-{br.to_bus}: impedance block is "
                    f"{br.z_ohm.shape}, expected ({p}, {p})"
                )
        self._check_connected()

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


@dataclass(frozen=True)
class AdmittanceMatrix:
    """Dense compound admittance matrix in per-unit.

    ``matrix`` is ``(p*N_b) x (p*N_b)`` complex, indexed by the flat node
    ordering of :class:`NetworkModel` (see the module docstring).
    """

    matrix: np.ndarray


def build_admittance(network: NetworkModel) -> AdmittanceMatrix:
    """Assemble the per-unit compound admittance matrix from branch data.

    Each branch contributes ``inv(z_pu)`` to its two diagonal blocks and
    ``-inv(z_pu)`` to the off-diagonal blocks; half the branch shunt
    susceptance is added at each end.
    """
    p = network.phase_count
    m = network.n_nodes
    branches = network.branches
    z_pu = np.array([network.branch_z_pu(br) for br in branches]).reshape(-1, p, p)
    degenerate = np.abs(np.linalg.det(z_pu)) < 1e-300
    if np.any(degenerate):
        br = branches[int(np.argmax(degenerate))]
        raise DegenerateBranchError(
            f"degenerate branch {br.from_bus}-{br.to_bus}: singular "
            f"series impedance matrix"
        )
    y = np.linalg.inv(z_pu)
    shunts = np.array([np.broadcast_to(br.shunt_b_s, (p, p)) for br in branches])
    shunts = shunts.reshape(-1, p, p)
    ysh = 1j * shunts * network.z_base_ohm / 2.0
    f = np.array([network.flat_index(br.from_bus) for br in branches], dtype=np.intp)
    t = np.array([network.flat_index(br.to_bus) for br in branches], dtype=np.intp)
    # blocks (f, f), (t, t), (f, t), (t, f) of each branch, branch by branch:
    # an entry shared by several branches sums them in branch order
    first = np.stack([f, t, f, t], axis=1)[:, :, None, None]
    second = np.stack([f, t, t, f], axis=1)[:, :, None, None]
    ph = np.arange(p)
    rows = first + ph[:, None]
    cols = second + ph
    blocks = np.stack([y + ysh, y + ysh, -y, -y], axis=1)
    Y = np.zeros((m, m), dtype=complex)
    np.add.at(Y.reshape(-1), rows * m + cols, blocks)
    return AdmittanceMatrix(matrix=Y)


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


def _per_phase(value, p, what):
    if not isinstance(value, (list, tuple)):
        if p != 1:
            raise NetworkParseError(f"{what}: scalar given but phases={p}")
        value = [value]
    if len(value) != p:
        raise NetworkParseError(f"{what}: expected {p} entries, got {len(value)}")
    return tuple(_numeric(v, float, what) for v in value)


def _impedance_block(entry, key_r, key_x, p, what):
    r = entry.get(key_r)
    x = entry.get(key_x)
    if r is None or x is None:
        raise NetworkParseError(f"{what}: missing {key_r}/{key_x}")
    r = _numeric(r, _matrix, f"{what} {key_r}")
    x = _numeric(x, _matrix, f"{what} {key_x}")
    if r.shape != (p, p) or x.shape != (p, p):
        raise NetworkParseError(
            f"{what}: impedance block is {r.shape}/{x.shape}, expected ({p}, {p})"
        )
    return r + 1j * x


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
    """Load a network description file.

    Schema (YAML)::

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
    ``phases: 3``).  Net injection = generation - load; generation
    positive.  Either the load/gen split or the net ``p_kw``/``q_kvar``
    may be given per bus, not both; an omitted field is zero on every
    phase.  Bus indices, branch ends and ``phases`` are integers; a
    fraction or a bool is refused, not truncated.
    """
    try:
        with open(path) as fh:
            raw = yaml.load(fh, Loader=_YAML_LOADER)
    except yaml.YAMLError as exc:
        raise NetworkParseError(f"{path}: {yaml_error_line(exc)}") from exc
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

    slack_v = raw.get("slack_voltage_pu", 1.0)
    what = f"{path}: slack_voltage_pu"
    if isinstance(slack_v, (list, tuple)):
        if len(slack_v) != 2:
            raise NetworkParseError(f"{what} must be a number or [magnitude, angle_rad]")
        mag, angle = (_numeric(v, float, what) for v in slack_v)
        slack_v = mag * np.exp(1j * angle)
    else:
        slack_v = _numeric(slack_v, complex, what)

    buses = []
    slack_index = None
    zeros = 0.0 if p == 1 else [0.0] * p  # an omitted power field, per phase
    for pos, entry in enumerate(_entries(raw, "buses", ("index",), path)):
        what = f"{path}: buses[{pos}]"
        idx = _integer(entry["index"], f"{what} index")
        kind = entry.get("kind", PQ)
        if kind == SLACK:
            slack_index = idx
            buses.append(Bus(index=idx, kind=SLACK))
            continue
        has_net = "p_kw" in entry or "q_kvar" in entry
        has_split = any(
            k in entry for k in ("load_kw", "load_kvar", "gen_kw", "gen_kvar")
        )
        if has_net and has_split:
            raise NetworkParseError(
                f"bus {idx}: give either p_kw/q_kvar or load/gen fields, not both"
            )
        if has_net:
            p_kw = _per_phase(entry.get("p_kw", zeros), p, f"{what} p_kw")
            q_kvar = _per_phase(entry.get("q_kvar", zeros), p, f"{what} q_kvar")
        else:
            load_p = _per_phase(entry.get("load_kw", zeros), p, f"{what} load_kw")
            load_q = _per_phase(entry.get("load_kvar", zeros), p, f"{what} load_kvar")
            gen_p = _per_phase(entry.get("gen_kw", zeros), p, f"{what} gen_kw")
            gen_q = _per_phase(entry.get("gen_kvar", zeros), p, f"{what} gen_kvar")
            p_kw = tuple(g - l for g, l in zip(gen_p, load_p))
            q_kvar = tuple(g - l for g, l in zip(gen_q, load_q))
        buses.append(Bus(index=idx, kind=PQ, p_kw=p_kw, q_kvar=q_kvar))

    if slack_index is None:
        raise NetworkValidationError("exactly one slack bus required, found 0")

    branches = []
    for pos, entry in enumerate(_entries(raw, "branches", ("from", "to"), path)):
        what = f"{path}: branches[{pos}]"
        z = _impedance_block(entry, "r_ohm", "x_ohm", p, what)
        shunt = entry.get("shunt_b_s")
        if shunt is not None:
            shunt = _numeric(shunt, _matrix, f"{what} shunt_b_s")
        branches.append(
            Branch(
                from_bus=_integer(entry["from"], f"{what} from"),
                to_bus=_integer(entry["to"], f"{what} to"),
                z_ohm=z,
                shunt_b_s=shunt,
                length_km=entry.get("length_km"),
            )
        )

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
    """Write a network back to the YAML schema accepted by load_network."""
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
        yaml.safe_dump(doc, fh, sort_keys=False)


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
