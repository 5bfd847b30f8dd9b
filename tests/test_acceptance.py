"""End-to-end acceptance checks.

Each test covers one release criterion and prints a single PASS/FAIL
line (run with ``pytest tests/test_acceptance.py -v -s`` to see them).
The thresholds are the package's release gates; see the README for the
rationale behind each tolerance.
"""

import time
import timeit

import numpy as np
import pytest

import pfsc
from pfsc.coefficients import finite_difference_oracle
from pfsc.montecarlo import MCConfig, run_monte_carlo
from pfsc.uncertainty import (
    AdmittanceUncertainty,
    CartesianNoiseSpec,
    PolarNoiseSpec,
    analytical_sigma,
    coefficient_variance,
    inverse_self_variance,
    it_class_to_polar,
    project_polar_noise,
    propagate_to_H,
)

from conftest import make_random_network
from oracles import (
    general_variance,
    inverse_cross_covariance,
    inverse_self_variance_reference,
    qq_normality_check,
    repeated_sign_projection,
)

SEED = 17

# six reference coefficients: (bus_i, part, bus_l), all with respect to P
REFERENCE = (
    (3, "re", 2),
    (3, "re", 4),
    (4, "re", 4),
    (3, "im", 2),
    (3, "im", 3),
    (4, "im", 4),
)
REFERENCE_NOMINAL = (0.0071, 0.0152, 0.0239, 0.0077, 0.0176, 0.0288)


def _verdict(name, ok, detail):
    print(f"\nACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def case(ieee4_solved):
    net, Y, state = ieee4_solved
    problem = pfsc.assemble_problem(Y, state, net)
    result = pfsc.solve_coefficients(problem)
    return net, Y, state, problem, result


def _reference_indices(problem):
    return [
        (problem.row(b, part=p), problem.column(l, wrt="P"))
        for b, p, l in REFERENCE
    ]


@pytest.fixture(scope="module")
def mc_10k(case):
    net, Y, state, problem, result = case
    cfg = MCConfig(
        n_trials=10000,
        seed=SEED,
        polar=it_class_to_polar("0.5"),
        yu=AdmittanceUncertainty.from_relative(Y, 1.0),
    )
    return run_monte_carlo(net, Y, state, cfg)


def test_oracle_equivalence(case):
    """Analytical coefficients match the finite-difference load-flow
    oracle within 1e-3 relative, in under 5 seconds."""
    t0 = time.perf_counter()
    worst = 0.0
    nets = [case[0], make_random_network(3, seed=0)]
    for net in nets:
        Y = pfsc.build_admittance(net)
        state = pfsc.solve_load_flow(net, Y)
        problem = pfsc.assemble_problem(Y, state, net)
        res = pfsc.solve_coefficients(problem)
        buses = [b.index for b in net.buses if b.kind != "slack"]
        for bus_l in buses:
            for which in ("P", "Q"):
                fd = finite_difference_oracle(
                    net, Y, bus_l, which=which, h=1e-5, state=state
                )
                for bus_i in buses:
                    an = res.derivative(bus_i, bus_l, wrt=which)
                    ref = fd[net.flat_index(bus_i)]
                    worst = max(worst, abs(an - ref) / max(abs(ref), 1e-9))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-3 and elapsed < 5.0
    _verdict(
        "oracle-equivalence",
        ok,
        f"max rel dev {worst:.2e} vs 1e-3, {elapsed:.1f}s vs 5s",
    )


def test_std_agreement_reference_case(case, mc_10k):
    """With IT class 0.5 voltage noise and 1% admittance std, analytical
    and 10000-trial Monte-Carlo stds agree within 20% on every
    coefficient; the six reference nominal values land within 15% of
    their published benchmarks.  Runs in under 10 minutes."""
    net, Y, state, problem, result = case
    t0 = time.perf_counter()
    en = project_polar_noise(state, it_class_to_polar("0.5"))
    yu = AdmittanceUncertainty.from_relative(Y, 1.0)
    unc = analytical_sigma(result, yu, en)
    gap = np.max(np.abs(unc - mc_10k.std) / mc_10k.std)
    nominal = np.array(
        [result.x[r, c] for r, c in _reference_indices(problem)]
    )
    nom_dev = np.max(
        np.abs(nominal - REFERENCE_NOMINAL) / np.array(REFERENCE_NOMINAL)
    )
    elapsed = time.perf_counter() - t0
    ok = gap <= 0.20 and nom_dev <= 0.15 and elapsed < 600.0
    _verdict(
        "std-agreement",
        ok,
        f"max std gap {gap * 100:.1f}% vs 20%, "
        f"max nominal dev {nom_dev * 100:.2f}% vs 15%, {elapsed:.1f}s",
    )


def test_admittance_sweep_trend(case):
    """Sweeping the admittance std through 0.5/1/2 % (1000 trials,
    IT 1.0 measurement noise on the sampled voltages):
    (a) both methods scale linearly in the admittance std (1% over 0.5%
    ratio within [1.8, 2.2]); (b) the analytical-vs-MC gap at 2% exceeds
    the gap at 0.5%; (c) at 2% the mean relative std across the
    reference coefficients reaches the 15-22% range.

    The analytical side of the sweep isolates the admittance channel
    (voltage noise enters through the sampled trials only); the
    entry-independent inverse propagation overstates the voltage-noise
    channel, see README."""
    net, Y, state, problem, result = case
    t0 = time.perf_counter()
    idx = _reference_indices(problem)
    polar = it_class_to_polar("1.0")
    no_en = CartesianNoiseSpec.zero(net.n_nodes)
    al, mc, gap = {}, {}, {}
    for lvl in (0.5, 1.0, 2.0):
        yu = AdmittanceUncertainty.from_relative(Y, lvl)
        unc = analytical_sigma(result, yu, no_en)
        run = run_monte_carlo(
            net,
            Y,
            state,
            MCConfig(n_trials=1000, seed=SEED, polar=polar, yu=yu),
        )
        al[lvl] = np.array([unc[r, c] for r, c in idx])
        mc[lvl] = np.array([run.std[r, c] for r, c in idx])
        gap[lvl] = np.mean(np.abs(al[lvl] - mc[lvl]) / mc[lvl])
    ratios = np.concatenate([al[1.0] / al[0.5], mc[1.0] / mc[0.5]])
    linear = np.all((ratios >= 1.8) & (ratios <= 2.2))
    widening = gap[2.0] > gap[0.5]
    nominal = np.array(
        [result.x[r, c] for r, c in _reference_indices(problem)]
    )
    rel2 = np.mean(mc[2.0] / np.abs(nominal))
    in_band = 0.15 <= rel2 <= 0.22
    elapsed = time.perf_counter() - t0
    ok = linear and widening and in_band and elapsed < 900.0
    _verdict(
        "admittance-sweep-trend",
        ok,
        f"ratios [{ratios.min():.2f}, {ratios.max():.2f}] vs [1.8, 2.2], "
        f"gap 0.5%={gap[0.5] * 100:.1f}% < gap 2%={gap[2.0] * 100:.1f}%: "
        f"{widening}, mean rel std at 2% = {rel2 * 100:.1f}% vs 15-22%",
    )


def test_mc_convergence(case, mc_10k):
    """100-trial and 10000-trial Monte-Carlo stds agree within 10%
    relative on the six reference coefficients."""
    net, Y, state, problem, result = case
    cfg = MCConfig(
        n_trials=100,
        seed=SEED,
        polar=it_class_to_polar("0.5"),
        yu=AdmittanceUncertainty.from_relative(Y, 1.0),
    )
    small = run_monte_carlo(net, Y, state, cfg)
    idx = _reference_indices(problem)
    s100 = np.array([small.std[r, c] for r, c in idx])
    s10k = np.array([mc_10k.std[r, c] for r, c in idx])
    gap = np.max(np.abs(s100 - s10k) / s10k)
    ok = gap <= 0.10
    _verdict("mc-convergence", ok, f"max gap {gap * 100:.1f}% vs 10%")


def test_speed_ratio(case):
    """Analytical propagation is at least 10x faster than a 100-trial
    Monte-Carlo run on the bundled four-bus case.  Each side is timed as
    the best of 5 calls after a warm-up call; the calls alternate, so that
    a spell of load on the host falls on both sides."""
    net, Y, state, problem, result = case
    polar = it_class_to_polar("0.5")
    yu = AdmittanceUncertainty.from_relative(Y, 1.0)
    en = project_polar_noise(state, polar)
    mc_cfg = MCConfig(n_trials=100, seed=SEED, polar=polar, yu=yu)

    def analytical():
        analytical_sigma(result, yu, en)

    def monte_carlo():
        run_monte_carlo(net, Y, state, mc_cfg)

    analytical()  # warm up
    monte_carlo()
    times = [[timeit.timeit(call, number=1) for call in (analytical, monte_carlo)]
             for _ in range(5)]
    t_an, t_mc = np.min(times, axis=0)
    ratio = t_mc / t_an
    ok = ratio >= 10.0
    _verdict(
        "speed-ratio",
        ok,
        f"analytical {t_an * 1e3:.2f}ms, MC(100) {t_mc * 1e3:.0f}ms, "
        f"ratio {ratio:.0f}x vs 10x",
    )


def test_projection_correctness():
    """The polar-to-Cartesian projected stds match the empirical stds of
    1e6 sampled polar-noise draws within 2% relative at several phase
    angles.  Both imaginary-part variants are exercised: the package's
    sign-corrected form must pass, and the refuted repeated-sign form,
    built by the test oracle, is recorded (see the README)."""
    rng = np.random.default_rng(SEED)
    polar = PolarNoiseSpec(sigma_rho=0.005 / 3, sigma_theta=0.006 / 3)
    forms = {
        "sign-corrected": project_polar_noise,
        "repeated-sign": repeated_sign_projection,
    }
    results = dict.fromkeys(forms, 0.0)
    for theta in (0.0, np.pi / 6, np.pi / 3):
        E = np.exp(1j * theta)
        rho = 1.0 + rng.normal(0.0, polar.sigma_rho, 10**6)
        ang = theta + rng.normal(0.0, polar.sigma_theta, 10**6)
        draws = rho * np.exp(1j * ang)
        emp_re = draws.real.std(ddof=1)
        emp_im = draws.imag.std(ddof=1)
        for form, project in forms.items():
            en = project(np.array([E]), polar)
            dev = max(
                abs(en.sigma_re[0] - emp_re) / emp_re,
                abs(en.sigma_im[0] - emp_im) / emp_im,
            )
            results[form] = max(results[form], dev)
    ok = results["sign-corrected"] <= 0.02
    _verdict(
        "projection-correctness",
        ok,
        f"default form max dev {results['sign-corrected'] * 100:.2f}% "
        f"vs 2%; alternate form max dev "
        f"{results['repeated-sign'] * 100:.0f}%",
    )


def test_property_suite(case):
    """Structural invariants: zero noise propagates to exactly zero
    stds (both methods); the general variance form with zero injection
    variance reduces bitwise to the constant-injection form; an inverse
    entry's covariance with itself equals its variance; the accelerated
    inverse-variance kernel matches the quadruple-loop reference to
    1e-12 relative; a seeded end-to-end run is byte-identical across
    repetitions; real and imaginary parts of IT-1.0 noisy voltages pass
    the normality check at QQ correlation 0.999."""
    net, Y, state, problem, result = case
    checks = {}

    zero_unc = analytical_sigma(
        result,
        AdmittanceUncertainty.zero(net.n_nodes),
        CartesianNoiseSpec.zero(net.n_nodes),
    )
    zero_mc = run_monte_carlo(
        net,
        Y,
        state,
        MCConfig(
            n_trials=25,
            seed=SEED,
            polar=PolarNoiseSpec(0.0, 0.0),
            yu=AdmittanceUncertainty.zero(net.n_nodes),
        ),
    )
    checks["zero-in-zero-out"] = np.all(zero_unc == 0.0) and np.all(
        zero_mc.std == 0.0
    )

    en = project_polar_noise(state, it_class_to_polar("1.0"))
    yu = AdmittanceUncertainty.from_relative(Y, 1.0)
    hv = propagate_to_H(problem, yu, en)
    iv = inverse_self_variance(result.H_inv, hv)
    reduced = np.sqrt(coefficient_variance(iv, problem.signs))
    full = np.sqrt(general_variance(
        result.H_inv, iv, problem.z, np.zeros_like(problem.z)
    ))
    checks["general-form-reduction"] = np.array_equal(full, reduced)

    # the two sides take different BLAS summation paths, so the identity
    # is checked at close to machine precision rather than bitwise
    cov = inverse_cross_covariance(result.H_inv, hv.toarray(), (1, 2), (1, 2))
    checks["self-covariance"] = abs(cov - iv[1, 2]) <= 1e-12 * iv[1, 2]

    rng = np.random.default_rng(SEED)
    H = rng.normal(size=(10, 10))
    hvr = rng.uniform(0.01, 1.0, (10, 10))
    Hinv = np.linalg.inv(H)
    fast = inverse_self_variance(Hinv, hvr)
    slow = inverse_self_variance_reference(Hinv, hvr)
    checks["accelerated-kernel"] = np.max(np.abs(fast - slow) / slow) <= 1e-12

    def endtoend():
        unc = analytical_sigma(result, yu, en)
        mc = run_monte_carlo(
            net,
            Y,
            state,
            MCConfig(
                n_trials=50,
                seed=SEED,
                polar=it_class_to_polar("1.0"),
                yu=yu,
            ),
        )
        return unc.tobytes() + mc.std.tobytes()

    checks["seeded-repeatability"] = endtoend() == endtoend()

    polar = it_class_to_polar("1.0")
    e = state.voltages[net.flat_index(3)]
    rho = abs(e) + rng.normal(0.0, polar.sigma_rho * abs(e), 10**5)
    ang = np.angle(e) + rng.normal(0.0, polar.sigma_theta, 10**5)
    draws = rho * np.exp(1j * ang)
    checks["voltage-normality"] = (
        qq_normality_check(draws.real).correlation >= 0.999
        and qq_normality_check(draws.imag).correlation >= 0.999
    )

    failed = [name for name, passed in checks.items() if not passed]
    ok = not failed
    _verdict(
        "property-suite",
        ok,
        "all 6 properties hold" if ok else f"failed: {', '.join(failed)}",
    )
