import numpy as np
import pytest

import pfsc
from pfsc.network import Branch, Bus, NetworkModel


@pytest.fixture(scope="session")
def ieee4():
    return pfsc.load_network(pfsc.bundled_network_path())


@pytest.fixture(scope="session")
def ieee4_solved(ieee4):
    Y = pfsc.build_admittance(ieee4)
    state = pfsc.solve_load_flow(ieee4, Y)
    return ieee4, Y, state


def make_two_bus(p2_kw=0.0, q2_kvar=0.0, x_pu=0.1, r_pu=0.0):
    """2-bus single-phase network; s_base/v_base chosen so z_base = 1 ohm."""
    buses = (
        Bus(1, "slack"),
        Bus(2, "pq", (p2_kw,), (q2_kvar,)),
    )
    branches = (Branch(1, 2, complex(r_pu, x_pu)),)
    return NetworkModel(
        buses=buses,
        branches=branches,
        phase_count=1,
        slack_bus=1,
        base_power_va=1e6,
        base_voltage_v=1e3,
    )


@pytest.fixture
def two_bus():
    return make_two_bus()


def make_random_network(n_bus, seed, radial=True, scale=1.0):
    """Random connected PQ network with moderate impedances and loads,
    the loads scaled by ``scale``."""
    rng = np.random.default_rng(seed)
    buses = [Bus(1, "slack")]
    for i in range(2, n_bus + 1):
        p = rng.uniform(-300.0, 300.0) * scale
        q = rng.uniform(-150.0, 150.0) * scale
        buses.append(Bus(i, "pq", (p,), (q,)))
    branches = []
    for i in range(2, n_bus + 1):
        parent = int(rng.integers(1, i)) if not radial else i - 1
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
    )


def make_feeder(n_bus, seed):
    """The benchmark's seeded tree feeder of ``n_bus`` buses: a non-radial
    random network whose loads shrink as min(1, 15 / (n_bus - 1)), so that
    large feeders stay within 0.9-1.1 pu."""
    return make_random_network(n_bus, seed, radial=False, scale=min(1.0, 15.0 / (n_bus - 1)))


def make_three_phase_balanced(mutual=0.35):
    """Balanced transposed 3-phase feeder mirroring the bundled 4-bus data."""

    def block(r, x):
        z = complex(r, x)
        return z * mutual * np.ones((3, 3)) + z * (1 - mutual) * np.eye(3)

    buses = (
        Bus(1, "slack"),
        Bus(2, "pq", (60.0,) * 3, (-50.0,) * 3),
        Bus(3, "pq", (100.0,) * 3, (-50.0,) * 3),
        Bus(4, "pq", (-100.0,) * 3, (-50.0,) * 3),
    )
    branches = (
        Branch(1, 2, block(0.0123, 0.0133)),
        Branch(2, 3, block(0.0140, 0.0171)),
        Branch(3, 4, block(0.0151, 0.0194)),
    )
    return NetworkModel(
        buses=buses,
        branches=branches,
        phase_count=3,
        slack_bus=1,
        base_power_va=1e7,
        base_voltage_v=4160.0,
    )
