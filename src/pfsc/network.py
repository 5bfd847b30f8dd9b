"""Network data model and compound admittance matrix assembly.

Buses, branches and per-unit bases are read from a YAML description file
(see ``load_network`` for the schema).  All electrical quantities are kept
in SI units on the data classes and converted to per-unit on demand, so a
load/emit round trip is lossless.

Flat node/phase ordering is bus-major, phase-minor:
``(bus_0, ph_0), (bus_0, ph_1), ..., (bus_1, ph_0), ...``
where buses keep the order they appear in the file.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import yaml

from .errors import (
    DegenerateBranchError,
    NetworkParseError,
    NetworkValidationError,
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
    injection.
    """

    index: int
    kind: str
    p_kw: tuple[float, ...] = ()
    q_kvar: tuple[float, ...] = ()

    def __post_init__(self):
        if self.kind not in (SLACK, PQ):
            raise NetworkValidationError(
                f"bus {self.index}: unknown kind {self.kind!r}"
            )


class Branch:
    """A series element between two buses.

    The series impedance is a ``p x p`` complex matrix in ohms (scalar for
    the single-phase equivalent).  ``shunt_b_s`` is the total shunt
    susceptance in siemens, split evenly between the two ends; it defaults
    to zero.
    """

    def __init__(self, from_bus, to_bus, z_ohm, shunt_b_s=None, length_km=None):
        self.from_bus = int(from_bus)
        self.to_bus = int(to_bus)
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
    """A polyphase network with one slack bus and PQ buses elsewhere."""

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
        for pos, bus in enumerate(self.buses):
            if bus.index == bus_index:
                return pos
        raise NetworkValidationError(f"no bus with index {bus_index}")

    def flat_index(self, bus_index, phase=0):
        """Flat node index of (bus, phase) in bus-major ordering."""
        if not 0 <= phase < self.phase_count:
            raise NetworkValidationError(f"phase {phase} out of range")
        return self.bus_position(bus_index) * self.phase_count + phase

    def slack_flat_indices(self):
        base = self.bus_position(self.slack_bus) * self.phase_count
        return list(range(base, base + self.phase_count))

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
        for pos, bus in enumerate(self.buses):
            if bus.kind == SLACK:
                continue
            for ph in range(self.phase_count):
                s[pos * self.phase_count + ph] = (
                    bus.p_kw[ph] * 1e3 + 1j * bus.q_kvar[ph] * 1e3
                ) / self.base_power_va
        return s

    # -- validation ---------------------------------------------------------

    def validate(self):
        if self.phase_count not in (1, 3):
            raise NetworkValidationError(
                f"phase_count must be 1 or 3, got {self.phase_count}"
            )
        indices = [b.index for b in self.buses]
        if len(set(indices)) != len(indices):
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
            if br.from_bus not in indices or br.to_bus not in indices:
                raise NetworkValidationError(
                    f"branch {br.from_bus}-{br.to_bus} references unknown bus"
                )
            if br.z_ohm.shape != (p, p):
                raise NetworkValidationError(
                    f"branch {br.from_bus}-{br.to_bus}: impedance block is "
                    f"{br.z_ohm.shape}, expected ({p}, {p})"
                )
        self._check_connected(indices)

    def _check_connected(self, indices):
        adjacency = {i: set() for i in indices}
        for br in self.branches:
            adjacency[br.from_bus].add(br.to_bus)
            adjacency[br.to_bus].add(br.from_bus)
        seen = {indices[0]}
        stack = [indices[0]]
        while stack:
            for nxt in adjacency[stack.pop()]:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        if len(seen) != len(indices):
            raise NetworkValidationError("graph not connected")


@dataclass(frozen=True)
class AdmittanceMatrix:
    """Dense compound admittance matrix in per-unit.

    ``matrix`` is ``(p*N_b) x (p*N_b)`` complex, with the same bus-major
    node ordering as :class:`NetworkModel`.
    """

    matrix: np.ndarray
    phase_count: int
    bus_indices: tuple[int, ...]

    @property
    def n_nodes(self):
        return self.matrix.shape[0]

    def flat_index(self, bus_index, phase=0):
        return self.bus_indices.index(bus_index) * self.phase_count + phase

    def element(self, bus_i, bus_n, phase_i=0, phase_n=0):
        return self.matrix[
            self.flat_index(bus_i, phase_i), self.flat_index(bus_n, phase_n)
        ]


def build_admittance(network: NetworkModel) -> AdmittanceMatrix:
    """Assemble the per-unit compound admittance matrix from branch data.

    Each branch contributes ``inv(z_pu)`` to its two diagonal blocks and
    ``-inv(z_pu)`` to the off-diagonal blocks; half the branch shunt
    susceptance is added at each end.
    """
    p = network.phase_count
    m = network.n_nodes
    Y = np.zeros((m, m), dtype=complex)
    for br in network.branches:
        z_pu = network.branch_z_pu(br)
        if abs(np.linalg.det(z_pu)) < 1e-300:
            raise DegenerateBranchError(
                f"degenerate branch {br.from_bus}-{br.to_bus}: singular "
                f"series impedance matrix"
            )
        y = np.linalg.inv(z_pu)
        ysh = 1j * br.shunt_b_s * network.z_base_ohm / 2.0
        f = network.bus_position(br.from_bus) * p
        t = network.bus_position(br.to_bus) * p
        Y[f : f + p, f : f + p] += y + ysh
        Y[t : t + p, t : t + p] += y + ysh
        Y[f : f + p, t : t + p] -= y
        Y[t : t + p, f : f + p] -= y
    return AdmittanceMatrix(
        matrix=Y,
        phase_count=p,
        bus_indices=tuple(b.index for b in network.buses),
    )


# -- file input / output ----------------------------------------------------


def _per_phase(value, p, what):
    if isinstance(value, (int, float)):
        if p != 1:
            raise NetworkParseError(f"{what}: scalar given but phases={p}")
        return (float(value),)
    vals = tuple(float(v) for v in value)
    if len(vals) != p:
        raise NetworkParseError(f"{what}: expected {p} entries, got {len(vals)}")
    return vals


def _impedance_block(entry, key_r, key_x, p, what):
    r = entry.get(key_r)
    x = entry.get(key_x)
    if r is None or x is None:
        raise NetworkParseError(f"{what}: missing {key_r}/{key_x}")
    r = np.atleast_2d(np.asarray(r, dtype=float))
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if r.shape != (p, p) or x.shape != (p, p):
        raise NetworkParseError(
            f"{what}: impedance block is {r.shape}/{x.shape}, expected ({p}, {p})"
        )
    return r + 1j * x


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
    may be given per bus, not both.
    """
    try:
        with open(path) as fh:
            raw = yaml.load(fh, Loader=_YAML_LOADER)
    except yaml.YAMLError as exc:
        raise NetworkParseError(f"{path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise NetworkParseError(f"{path}: top level must be a mapping")

    for key in ("phases", "bases", "buses", "branches"):
        if key not in raw:
            raise NetworkParseError(f"{path}: missing section {key!r}")
    p = int(raw["phases"])
    bases = raw["bases"]
    try:
        s_base = float(bases["s_base_va"])
        v_base = float(bases["v_base_v"])
    except (KeyError, TypeError) as exc:
        raise NetworkParseError(f"{path}: bases needs s_base_va and v_base_v") from exc

    slack_v = raw.get("slack_voltage_pu", 1.0)
    if isinstance(slack_v, (list, tuple)):
        slack_v = slack_v[0] * np.exp(1j * slack_v[1])
    else:
        slack_v = complex(slack_v)

    buses = []
    slack_index = None
    for entry in raw["buses"]:
        idx = int(entry["index"])
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
            p_kw = _per_phase(entry.get("p_kw", 0.0), p, f"bus {idx} p_kw")
            q_kvar = _per_phase(entry.get("q_kvar", 0.0), p, f"bus {idx} q_kvar")
        else:
            zeros = 0.0 if p == 1 else [0.0] * p
            load_p = _per_phase(entry.get("load_kw", zeros), p, f"bus {idx} load_kw")
            load_q = _per_phase(entry.get("load_kvar", zeros), p, f"bus {idx} load_kvar")
            gen_p = _per_phase(entry.get("gen_kw", zeros), p, f"bus {idx} gen_kw")
            gen_q = _per_phase(entry.get("gen_kvar", zeros), p, f"bus {idx} gen_kvar")
            p_kw = tuple(g - l for g, l in zip(gen_p, load_p))
            q_kvar = tuple(g - l for g, l in zip(gen_q, load_q))
        buses.append(Bus(index=idx, kind=PQ, p_kw=p_kw, q_kvar=q_kvar))

    if slack_index is None:
        raise NetworkValidationError("exactly one slack bus required, found 0")

    branches = []
    for entry in raw["branches"]:
        what = f"branch {entry.get('from')}-{entry.get('to')}"
        z = _impedance_block(entry, "r_ohm", "x_ohm", p, what)
        shunt = entry.get("shunt_b_s")
        if shunt is not None:
            shunt = np.atleast_2d(np.asarray(shunt, dtype=float))
        branches.append(
            Branch(
                from_bus=entry["from"],
                to_bus=entry["to"],
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
    s_pu = np.asarray(s_pu, dtype=complex)
    p = network.phase_count
    new_buses = []
    for pos, bus in enumerate(network.buses):
        if bus.kind == SLACK:
            new_buses.append(bus)
            continue
        sl = s_pu[pos * p : (pos + 1) * p] * network.base_power_va
        new_buses.append(
            replace(
                bus,
                p_kw=tuple(float(v) for v in sl.real / 1e3),
                q_kvar=tuple(float(v) for v in sl.imag / 1e3),
            )
        )
    return replace(network, buses=tuple(new_buses))
