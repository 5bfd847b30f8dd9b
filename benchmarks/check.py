"""Output check for every benchmark op.

The reference for a seed is built once, outside the timing, from code that
shares no propagation or sampling path with the program:

* nominal coefficients: the finite-difference load-flow oracle
  (``pfsc.finite_difference_oracle``) on the workload's check columns,
  within ``NOMINAL_RTOL`` of the complex derivative's magnitude, as in the
  oracle-equivalence acceptance gate;
* analytical stds: the paper chain ``(H^-1 o H^-1) var(H) (H^-1 o H^-1)``
  with ``var(H) = sum_v (dH/dv)^2 var(v)`` over the independent inputs.
  ``H`` is bilinear in (Y, E), so ``dH/dv`` is ``H`` assembled with that
  input's unit vector; inputs whose derivatives touch disjoint entries
  share one assembly (see ``h_variance``);
* Monte-Carlo stds: the same per-trial draws as ``pfsc.montecarlo``
  (one ``SeedSequence((seed, trial))`` stream per trial, voltages in polar
  form, then independent admittance elements), solved for the check
  columns only.

Stds must match within ``STD_RTOL``: summing in another order moves them
by ~1e-13 relative, while a changed formula or changed draws moves them by
far more (dropping Bessel's correction alone is 5e-4 at 1000 trials).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

import pfsc
from pfsc.coefficients import assemble_from_raw

NOMINAL_RTOL = 1e-3
STD_RTOL = 1e-8
PARTS = ("re", "im")
INJECTIONS = ("P", "Q")


def key_of(k):
    """Hashable identity of a report coefficient key."""
    return (k.bus_i, k.phase_i, k.part, k.bus_l, k.phase_l, k.wrt)


def key_label(key):
    bus_i, ph_i, part, bus_l, ph_l, wrt = key
    return f"d{part}E[{bus_i},{ph_i}]/d{wrt}[{bus_l},{ph_l}]"


@dataclass
class Reference:
    """Expected values of the check coefficients, keyed like ``key_of``."""

    n_keys: int
    n_files: int
    nominal: dict = field(default_factory=dict)  # key -> (value, scale)
    analytical: dict = field(default_factory=dict)  # level -> {key: std}
    mc: dict = field(default_factory=dict)  # (level, n) -> {key: std}

    def stds(self, buses):
        """Reference stds of the rows at ``buses`` as {label: value}, for storing."""
        out = {}
        for what, table in (("analytical", self.analytical), ("mc", self.mc)):
            for sel, stds in table.items():
                out.update({
                    f"{what}{sel} {key_label(k)}": v for k, v in stds.items() if k[0] in buses
                })
        return out


def _color_distance2(adjacency):
    """Greedy colouring in which nodes within two hops get distinct colours."""
    colors = np.full(len(adjacency), -1)
    for node, near in enumerate(adjacency):
        reach = set(near)
        for other in near:
            reach.update(adjacency[other])
        taken = {colors[j] for j in reach if j != node}
        colors[node] = next(c for c in range(len(adjacency) + 1) if c not in taken)
    return colors


def h_variance(network, Ym, E, sig_y_re, sig_y_im, sig_e_re, sig_e_im):
    """First-order per-entry variance of H over independent Y and E inputs.

    ``dH/d(Re Y_ab)`` lives in row pair a only, so one element per row of
    Y is taken per assembly.  ``dH/d(Re E_n)`` lives in row pair n and in
    the diagonal blocks of n's neighbours, so nodes two or more hops apart
    share an assembly.  Within an assembly the supports are disjoint, so
    squaring the sum equals summing the squares.
    """

    def h(Y_, E_):
        return assemble_from_raw(Y_, E_, network).H

    m = E.size
    nz = Ym != 0
    var = None

    def add(term):
        nonlocal var
        var = term**2 if var is None else var + term**2

    rows_nz = [np.flatnonzero(nz[a]) for a in range(m)]
    for j in range(max(len(r) for r in rows_nz)):
        pick = [(a, r[j]) for a, r in enumerate(rows_nz) if j < len(r)]
        a_idx, b_idx = (np.array(t) for t in zip(*pick))
        for sig, unit in ((sig_y_re, 1.0), (sig_y_im, 1j)):
            D = np.zeros((m, m), dtype=complex)
            D[a_idx, b_idx] = unit * sig[a_idx, b_idx]
            add(h(D, E))

    adjacency = [set(np.flatnonzero(nz[n])) | {n} for n in range(m)]
    colors = _color_distance2(adjacency)
    for c in range(colors.max() + 1):
        members = colors == c
        for sig, unit in ((sig_e_re, 1.0), (sig_e_im, 1j)):
            e = np.zeros(m, dtype=complex)
            e[members] = unit * np.asarray(sig)[members]
            add(h(Ym, e))
    return var


def _perturbed_voltages(E, polar, rng):
    if polar.sigma_rho == 0.0 and polar.sigma_theta == 0.0:
        rng.normal(0.0, 1.0, 2 * E.size)
        return E.copy()
    rho = np.abs(E)
    theta = np.angle(E)
    sig_rho = polar.sigma_rho * rho if polar.relative else polar.sigma_rho
    d_rho = rng.normal(0.0, 1.0, E.size) * sig_rho
    d_theta = rng.normal(0.0, 1.0, E.size) * polar.sigma_theta
    return (rho + d_rho) * np.exp(1j * (theta + d_theta))


def build_reference(workload, network_path, seed) -> Reference:
    """Expected nominal values and stds of the workload's check columns."""
    net = pfsc.load_network(network_path)
    Y = pfsc.build_admittance(net)
    state = pfsc.solve_load_flow(net, Y)
    Ym, E = Y.matrix, state.voltages
    p = net.phase_count
    slack = set(net.slack_flat_indices())
    nonslack = [f for f in range(net.n_nodes) if f not in slack]
    pos = {flat: k for k, flat in enumerate(nonslack)}
    bus_of = {net.flat_index(b.index, ph): (b.index, ph) for b in net.buses for ph in range(p)}

    columns = [(bus, ph, wrt) for bus in workload.check_buses for ph in range(p) for wrt in INJECTIONS]
    col_idx = [2 * pos[net.flat_index(bus, ph)] + INJECTIONS.index(wrt) for bus, ph, wrt in columns]
    col_sign = np.array([1.0 if wrt == "P" else -1.0 for _, _, wrt in columns])
    row_keys = [(bus_of[flat], part) for flat in nonslack for part in PARTS]
    keys = [
        [(bi, pi, part, bus, ph, wrt) for (bi, pi), part in row_keys]
        for bus, ph, wrt in columns
    ]
    ref = Reference(
        n_keys=workload.n_keys(len(nonslack)),
        n_files=sum(len(workload.sigma_y_pct) if f == "csv" else 1 for f in workload.formats),
    )

    for (bus, ph, wrt), col_keys in zip(columns, keys):
        fd = pfsc.finite_difference_oracle(net, Y, bus, ph, wrt, state=state)
        for key in col_keys:
            d = fd[net.flat_index(key[0], key[1])]
            ref.nominal[key] = (d.real if key[2] == "re" else d.imag, max(abs(d), 1e-9))

    polar = pfsc.it_class_to_polar(workload.it_class)
    en = pfsc.project_polar_noise(state, polar)
    H = assemble_from_raw(Ym, E, net).H
    sq = np.linalg.inv(H) ** 2
    for lvl in workload.analytical_levels():
        yu = pfsc.AdmittanceUncertainty.from_relative(Y, lvl)
        var_h = h_variance(net, Ym, E, yu.sigma_re, yu.sigma_im, en.sigma_re, en.sigma_im)
        std = np.sqrt(sq @ (var_h @ sq[:, col_idx]))
        ref.analytical[lvl] = _by_key(keys, std)

    rhs = np.zeros((H.shape[0], len(col_idx)))
    rhs[col_idx, np.arange(len(col_idx))] = col_sign
    for lvl in sorted({lvl for lvl, _ in workload.mc_sets()}):
        yu = pfsc.AdmittanceUncertainty.from_relative(Y, lvl)
        n_max = max(n for l_, n in workload.mc_sets() if l_ == lvl)
        trials, samples = [], []
        for k in range(n_max):
            rng = np.random.default_rng(np.random.SeedSequence((seed, k)))
            E_k = _perturbed_voltages(E, polar, rng)
            d_re = rng.normal(0.0, 1.0, Ym.shape) * yu.sigma_re
            d_im = rng.normal(0.0, 1.0, Ym.shape) * yu.sigma_im
            H_k = assemble_from_raw(Ym + d_re + 1j * d_im, E_k, net).H
            try:
                x = np.linalg.solve(H_k, rhs)
            except np.linalg.LinAlgError:
                continue
            if np.all(np.isfinite(x)):
                trials.append(k)
                samples.append(x)
        trials, samples = np.array(trials), np.stack(samples)
        for l_, n in workload.mc_sets():
            if l_ == lvl:
                ref.mc[(lvl, n)] = _by_key(keys, samples[trials < n].std(axis=0, ddof=1))
    return ref


def _by_key(keys, table):
    """{key: value} from a (rows, check columns) table."""
    return {
        key: float(table[r, c])
        for c, col_keys in enumerate(keys)
        for r, key in enumerate(col_keys)
    }


def check_report(report, ref: Reference) -> list[str]:
    """Mismatches between one op's report and the reference (empty if none)."""
    problems = []
    if len(report.keys) != ref.n_keys:
        problems.append(f"{len(report.keys)} coefficients, expected {ref.n_keys}")
    index = {key_of(k): i for i, k in enumerate(report.keys)}
    checked = [key for key in ref.nominal if key in index]
    if not checked:
        problems.append("no check coefficient in the report")
    bad = [
        key_label(key)
        for key in checked
        if abs(report.nominal[index[key]] - ref.nominal[key][0])
        > NOMINAL_RTOL * ref.nominal[key][1]
    ]
    if bad:
        problems.append(f"nominal off the finite-difference oracle: {bad[:3]}")
    rows = [index[key] for key in checked]
    for what, got, want in (
        ("analytical", report.analytical, ref.analytical),
        ("monte-carlo", report.mc, ref.mc),
    ):
        if set(got) != set(want):
            problems.append(f"{what} sets {sorted(got)}, expected {sorted(want)}")
            continue
        for sel, stds in want.items():
            expect = np.array([stds[key] for key in checked])
            if not np.allclose(got[sel][rows], expect, rtol=STD_RTOL, atol=0.0):
                problems.append(f"{what} stds at {sel} off the reference")
    return problems


def check_files(paths, ref: Reference) -> list[str]:
    """Every expected file was written and holds every coefficient."""
    n_keys = ref.n_keys
    problems = []
    if len(paths) != ref.n_files:
        problems.append(f"{len(paths)} files written, expected {ref.n_files}")
    for path in paths:
        if path.suffix == ".json":
            with open(path) as fh:
                n = len(json.load(fh)["coefficients"])
        elif path.suffix == ".csv":
            with open(path) as fh:
                n = sum(1 for _ in fh) - 1
        else:
            n = path.read_text().count("\n")
            if n < n_keys:
                problems.append(f"{path.name}: {n} lines for {n_keys} coefficients")
            continue
        if n != n_keys:
            problems.append(f"{path.name}: {n} coefficients, expected {n_keys}")
    return problems


def stored_mismatches(ref: Reference, stored: dict, buses) -> list[str]:
    """Reference stds that differ from the values stored for this seed."""
    have = ref.stds(buses)
    if set(have) != set(stored):
        return ["stored reference covers other coefficients"]
    return [
        label
        for label, value in stored.items()
        if not np.isclose(have[label], value, rtol=STD_RTOL, atol=0.0)
    ]
