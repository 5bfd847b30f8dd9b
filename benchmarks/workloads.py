"""Benchmark workloads: the seeded feeder generator and the three report runs.

A workload turns a seed into one network file and one ``RunConfig``; the
benchmark op is then exactly what ``pfsc report`` runs on them.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

import pfsc
from pfsc.network import Branch, Bus, NetworkModel
from pfsc.report import RunConfig

#: Generated feeders carry the injections of the test fixture
#: (uniform +-300 kW, +-150 kVar per bus) scaled by min(1, 15 / (n - 1)),
#: so the expected total absolute injection stays that of a 16-bus fixture
#: feeder whatever the size.  This keeps every bus within 0.90-1.10 pu
#: over seeds 0-199 of the 60- and 100-bus feeders and seeds 0-59 of the
#: 300-bus feeder (the unscaled fixture drops to 0.62 pu at 300 buses, and
#: some seeds do not converge; with 30 in place of 15, five of 200 60-bus
#: feeders leave the band).
SCALE_REFERENCE_BRANCHES = 15


def injection_scale(n_bus):
    """Seed-independent load scale of an ``n_bus`` generated feeder."""
    return min(1.0, SCALE_REFERENCE_BRANCHES / (n_bus - 1))


def make_feeder(n_bus, seed) -> NetworkModel:
    """Random single-phase tree feeder, each bus hung off a random earlier one.

    Same topology, impedance ranges and draw order as the test suite's
    ``make_random_network(radial=False)``; only the injections are scaled
    by ``injection_scale``.
    """
    rng = np.random.default_rng(seed)
    scale = injection_scale(n_bus)
    buses = [Bus(1, "slack")]
    for i in range(2, n_bus + 1):
        p = rng.uniform(-300.0, 300.0) * scale
        q = rng.uniform(-150.0, 150.0) * scale
        buses.append(Bus(i, "pq", (p,), (q,)))
    branches = []
    for i in range(2, n_bus + 1):
        parent = int(rng.integers(1, i))
        r = rng.uniform(0.005, 0.03)
        x = rng.uniform(0.01, 0.05)
        branches.append(Branch(parent, i, complex(r, x)))
    return NetworkModel(
        buses=tuple(buses),
        branches=tuple(branches),
        phase_count=1,
        slack_bus=1,
        base_power_va=1e6,
        base_voltage_v=1e3,
        name=f"bench-feeder-{n_bus}-seed{seed}",
    )


@dataclass(frozen=True)
class Workload:
    """One report run: network source, run options and the checked columns.

    ``n_bus`` None means the bundled ieee4 feeder; otherwise a generated
    feeder of that size.  ``monitor_every`` k restricts the report to the
    driving-point Re/P and Im/Q coefficients of every k-th bus.
    ``check_buses`` name the injection columns compared with the
    finite-difference oracle and the reference stds on every op.
    """

    name: str
    n_bus: int | None
    mode: str
    n_mc: tuple[int, ...]
    sigma_y_pct: tuple[float, ...]
    formats: tuple[str, ...]
    check_buses: tuple[int, ...]
    monitor_every: int | None = None
    it_class: str = "0.5"

    def network_file(self, seed, work_dir) -> Path:
        """Write the seed's feeder into ``work_dir`` (or name the bundled one)."""
        if self.n_bus is None:
            return Path(str(pfsc.bundled_network_path()))
        path = Path(work_dir) / f"{self.name}-seed{seed}.yaml"
        pfsc.emit_network(make_feeder(self.n_bus, seed), path)
        return path

    def coefficients(self):
        if self.monitor_every is None:
            return None
        return tuple(
            (bus, bus, part, wrt)
            for bus in range(self.monitor_every, self.n_bus + 1, self.monitor_every)
            for part, wrt in (("re", "P"), ("im", "Q"))
        )

    def config(self, network_path, seed, out_dir) -> RunConfig:
        return RunConfig(
            network=str(network_path),
            mode=self.mode,
            n_mc=self.n_mc,
            sigma_y_pct=self.sigma_y_pct,
            it_class=self.it_class,
            out_dir=str(out_dir),
            seed=seed,
            formats=self.formats,
            coefficients=self.coefficients(),
        )

    def analytical_levels(self):
        return self.sigma_y_pct if self.mode in ("analytical", "both") else ()

    def mc_sets(self):
        if self.mode not in ("mc", "both"):
            return ()
        return tuple((lvl, n) for lvl in self.sigma_y_pct for n in self.n_mc)

    def n_keys(self, n_nonslack):
        """Coefficients in the report of a feeder with that many PQ buses."""
        wanted = self.coefficients()
        return (2 * n_nonslack) ** 2 if wanted is None else len(wanted)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="ieee4-paper",
            n_bus=None,
            mode="both",
            n_mc=(100, 1000),
            sigma_y_pct=(0.5, 1.0, 2.0),
            formats=("csv", "json", "pretty-text"),
            check_buses=(2, 3, 4),
        ),
        Workload(
            name="mesh300-analytical",
            n_bus=300,
            mode="analytical",
            n_mc=(),
            sigma_y_pct=(0.5, 1.0, 2.0),
            formats=("csv", "json"),
            check_buses=(30, 300),
            monitor_every=30,
        ),
        Workload(
            name="mesh60-full",
            n_bus=60,
            mode="both",
            n_mc=(200,),
            sigma_y_pct=(1.0,),
            formats=("csv", "json", "pretty-text"),
            check_buses=(2, 30, 60),
        ),
    )
}
