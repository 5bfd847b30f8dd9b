"""Pass rates of the seeded tier-1 tests that gate a Monte-Carlo statistic.

Each test below draws its samples from one fixed seed, through the
Monte-Carlo engine or a sampling oracle, and compares a statistic of
them with a threshold.  A gate that holds at the suite's seed may still
fail at most others.  This script reruns each test's statistic, as the
test computes it, at seeds 0 .. N-1 in place of the test's own, and
prints a Markdown table: per test, its gate, its statistic at the
suite's seed, how many of the N seeds pass, and the quantiles of the
statistic over them.  It reports only: it changes no gate, threshold or
seed of the suite, and exits 0 whatever the pass rates are.  Pytest does
not collect it (it is not named ``test_*.py``).

Run from the repository root::

    PYTHONPATH=src python tests/seed_audit.py [--seeds 40]
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
import time

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import pfsc  # noqa: E402
from pfsc.montecarlo import MCConfig, run_monte_carlo  # noqa: E402
from pfsc.uncertainty import (  # noqa: E402
    AdmittanceUncertainty,
    CartesianNoiseSpec,
    PolarNoiseSpec,
    analytical_sigma,
    inverse_self_variance,
    it_class_to_polar,
    project_polar_noise,
    propagate_to_H,
)

import test_acceptance as acceptance  # noqa: E402
from oracles import inverse_cross_covariance, qq_normality_check  # noqa: E402
from test_montecarlo import estimate_stats  # noqa: E402
from test_uncertainty import loaded_two_bus, sample_polar_projection  # noqa: E402

QUANTILES = (0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0)


@functools.lru_cache(maxsize=None)
def _ieee4():
    """ieee4, its Y, load flow, problem and coefficients, as the suite's
    ``ieee4_solved`` and ``case`` fixtures build them."""
    net = pfsc.load_network(pfsc.bundled_network_path())
    Y = pfsc.build_admittance(net)
    state = pfsc.solve_load_flow(net, Y)
    problem = pfsc.assemble_problem(Y, state, net)
    return net, Y, state, problem, pfsc.solve_coefficients(problem)


def _mc(n_trials, seed, polar, level=None):
    """The Monte-Carlo result on ieee4 with ``level`` % relative
    admittance noise (none for None)."""
    net, Y, state, _, _ = _ieee4()
    yu = (AdmittanceUncertainty.zero(net.n_nodes) if level is None
          else AdmittanceUncertainty.from_relative(Y, level))
    return run_monte_carlo(net, Y, state, MCConfig(n_trials=n_trials, seed=seed,
                                                   polar=polar, yu=yu))


@functools.lru_cache(maxsize=2)
def _mc_10k(seed):
    """test_acceptance's ``mc_10k`` fixture at ``seed``."""
    return _mc(10000, seed, it_class_to_polar("0.5"), 1.0)


def _references(table):
    """The six reference coefficients of a (dim, dim) table."""
    _, _, _, problem, _ = _ieee4()
    return np.array([table[r, c] for r, c in acceptance._reference_indices(problem)])


# -- test_acceptance.py (the engine at SEED = 17) ---------------------------


def std_agreement(seed):
    """Largest relative gap of the analytical stds to 10,000 trials."""
    _, Y, state, _, result = _ieee4()
    en = project_polar_noise(state, it_class_to_polar("0.5"))
    unc = analytical_sigma(result, AdmittanceUncertainty.from_relative(Y, 1.0), en)
    std = _mc_10k(seed).std
    gap = np.max(np.abs(unc - std) / std)
    return gap <= 0.20, gap


def mc_convergence(seed):
    """Largest relative gap of 100-trial to 10,000-trial stds."""
    s100 = _references(_mc(100, seed, it_class_to_polar("0.5"), 1.0).std)
    s10k = _references(_mc_10k(seed).std)
    gap = np.max(np.abs(s100 - s10k) / s10k)
    return gap <= 0.10, gap


@functools.lru_cache(maxsize=2)
def _sweep(seed):
    """Parts (a), (b) and (c) of test_admittance_sweep_trend: the ratio
    range, the gaps at 0.5 and 2 %, and the mean relative std at 2 %."""
    net, Y, state, _, result = _ieee4()
    no_en = CartesianNoiseSpec.zero(net.n_nodes)
    al, mc, gap = {}, {}, {}
    for lvl in (0.5, 1.0, 2.0):
        yu = AdmittanceUncertainty.from_relative(Y, lvl)
        al[lvl] = _references(analytical_sigma(result, yu, no_en))
        mc[lvl] = _references(_mc(1000, seed, it_class_to_polar("1.0"), lvl).std)
        gap[lvl] = np.mean(np.abs(al[lvl] - mc[lvl]) / mc[lvl])
    ratios = np.concatenate([al[1.0] / al[0.5], mc[1.0] / mc[0.5]])
    rel2 = np.mean(mc[2.0] / np.abs(_references(result.x)))
    return ratios, gap, rel2


def sweep_trend(seed):
    """Mean relative std at 2 %; passes when (a), (b) and (c) all hold."""
    ok = [part(seed)[0] for part in (sweep_linear, sweep_widening, sweep_band)]
    return all(ok), _sweep(seed)[2]


def sweep_linear(seed):
    """(a): the ratio farthest from 2 of the 1 % to 0.5 % stds."""
    ratios = _sweep(seed)[0]
    worst = ratios[np.argmax(np.abs(ratios - 2.0))]
    return bool(np.all((ratios >= 1.8) & (ratios <= 2.2))), worst


def sweep_widening(seed):
    """(b): the gap at 2 % less the gap at 0.5 %."""
    gap = _sweep(seed)[1]
    return gap[2.0] > gap[0.5], gap[2.0] - gap[0.5]


def sweep_band(seed):
    """(c): the mean relative std at 2 %."""
    rel2 = _sweep(seed)[2]
    return 0.15 <= rel2 <= 0.22, rel2


def projection(seed):
    """Largest relative deviation of the projected stds from 10^6 draws
    at three angles (the rng at ``seed``)."""
    rng = np.random.default_rng(seed)
    polar = PolarNoiseSpec(sigma_rho=0.005 / 3, sigma_theta=0.006 / 3)
    worst = 0.0
    for theta in (0.0, np.pi / 6, np.pi / 3):
        E = np.exp(1j * theta)
        rho = 1.0 + rng.normal(0.0, polar.sigma_rho, 10**6)
        ang = theta + rng.normal(0.0, polar.sigma_theta, 10**6)
        draws = rho * np.exp(1j * ang)
        en = project_polar_noise(np.array([E]), polar)
        worst = max(worst, abs(en.sigma_re[0] - draws.real.std(ddof=1)) / draws.real.std(ddof=1),
                    abs(en.sigma_im[0] - draws.imag.std(ddof=1)) / draws.imag.std(ddof=1))
    return worst <= 0.02, worst


def property_normality(seed):
    """Smaller QQ correlation of the IT-1.0 noisy voltage's parts (the
    property suite's rng at ``seed``, after its 10 x 10 draws)."""
    net, _, state, _, _ = _ieee4()
    rng = np.random.default_rng(seed)
    rng.normal(size=(10, 10))
    rng.uniform(0.01, 1.0, (10, 10))
    polar = it_class_to_polar("1.0")
    e = state.voltages[net.flat_index(3)]
    rho = abs(e) + rng.normal(0.0, polar.sigma_rho * abs(e), 10**5)
    ang = np.angle(e) + rng.normal(0.0, polar.sigma_theta, 10**5)
    draws = rho * np.exp(1j * ang)
    corr = min(qq_normality_check(draws.real).correlation,
               qq_normality_check(draws.imag).correlation)
    return corr >= 0.999, corr


# -- test_uncertainty.py ----------------------------------------------------


@functools.lru_cache(maxsize=2)
def _channel_mc(seed, voltage):
    """TestChannelFidelity's 20,000-trial stds and the analytical ones."""
    net, Y, state, _, result = _ieee4()
    if voltage:
        polar = it_class_to_polar("1.0")
        zero = AdmittanceUncertainty.zero(net.n_nodes)
        unc = analytical_sigma(result, zero, project_polar_noise(state, polar))
        return unc, _mc(20000, seed, polar).std
    yu = AdmittanceUncertainty.from_relative(Y, 0.5)
    unc = analytical_sigma(result, yu, CartesianNoiseSpec.zero(net.n_nodes))
    return unc, _mc(20000, seed, PolarNoiseSpec(0.0, 0.0), 0.5).std


def admittance_channel(seed):
    """Largest relative gap of the analytical to the Monte-Carlo stds."""
    unc, mc = _channel_mc(seed, False)
    gap = np.max(np.abs(unc - mc) / mc)
    return gap < 0.05, gap


def voltage_channel(seed):
    """Smallest analytical over Monte-Carlo std; the largest must pass 2."""
    unc, mc = _channel_mc(seed, True)
    ratio = unc / mc
    return bool(np.all(ratio > 1.0) and ratio.max() > 2.0), ratio.min()


def projection_oracle(seed):
    """Largest relative deviation of the projection from 10^6 polar
    draws over TestProjection's four angles."""
    s_rho, s_th = 0.005 / 3, 0.006 / 3
    worst = 0.0
    for theta in (0.0, np.pi / 6, np.pi / 3, 0.3):
        out = project_polar_noise(np.array([np.exp(1j * theta)]), PolarNoiseSpec(s_rho, s_th))
        sre, sim = sample_polar_projection(1.0, theta, s_rho, s_th, 10**6, seed=seed)
        worst = max(worst, abs(out.sigma_re[0] - sre) / sre, abs(out.sigma_im[0] - sim) / sim)
    return worst <= 0.02, worst


def _two_bus_entries(Ym, E):
    """The four entries of the two-bus H, per sample of ``Ym`` or ``E``."""
    K2 = Ym[..., 1, 0] * E[..., 0] + Ym[..., 1, 1] * E[..., 1]
    A = np.conj(E[..., 1]) * Ym[..., 1, 1]
    return np.stack([A.real + K2.real, -A.imag + K2.imag, A.imag + K2.imag, A.real - K2.real],
                    axis=1)


def _worst(got, want):
    """Largest relative deviation, as ``assert_allclose``'s rtol reads it."""
    return np.max(np.abs(got - want) / np.abs(want))


def perturbation_admittance(seed):
    """var(H) of admittance noise against 10^5 sampled H."""
    _, Y, state, problem = loaded_two_bus()
    yu = AdmittanceUncertainty.from_relative(Y, 1.0)
    hv = propagate_to_H(problem, yu, CartesianNoiseSpec.zero(2)).toarray()
    rng = np.random.default_rng(seed)
    n = 10**5
    Ys = Y.matrix[None, :, :] + (rng.normal(0.0, 1.0, (n, 2, 2)) * yu.sigma_re
                                 + 1j * rng.normal(0.0, 1.0, (n, 2, 2)) * yu.sigma_im)
    sampled = _two_bus_entries(Ys, state.voltages).var(axis=0, ddof=1).reshape(2, 2)
    worst = _worst(hv, sampled)
    return worst <= 0.03, worst


def perturbation_voltage(seed):
    """var(H) of voltage noise against 10^5 sampled H."""
    _, Y, state, problem = loaded_two_bus()
    en = CartesianNoiseSpec(np.array([1e-3, 2e-3]), np.array([2e-3, 1e-3]))
    hv = propagate_to_H(problem, AdmittanceUncertainty.zero(2), en).toarray()
    rng = np.random.default_rng(seed)
    n = 10**5
    E = state.voltages[None, :] + (rng.normal(0.0, 1.0, (n, 2)) * en.sigma_re
                                   + 1j * rng.normal(0.0, 1.0, (n, 2)) * en.sigma_im)
    sampled = _two_bus_entries(Y.matrix, E).var(axis=0, ddof=1).reshape(2, 2)
    worst = _worst(hv, sampled)
    return worst <= 0.03, worst


def _sampled_inverses(seed):
    """H⁻¹ of 10^5 two-bus H drawn with var(H), and the analytical parts."""
    _, Y, _, problem = loaded_two_bus()
    hv = propagate_to_H(problem, AdmittanceUncertainty.from_relative(Y, 1.0),
                        CartesianNoiseSpec.zero(2))
    H_inv = np.linalg.inv(problem.H)
    rng = np.random.default_rng(seed)
    Hs = problem.H[None, :, :] + rng.normal(0.0, 1.0, (10**5, 2, 2)) * np.sqrt(hv.toarray())
    det = Hs[:, 0, 0] * Hs[:, 1, 1] - Hs[:, 0, 1] * Hs[:, 1, 0]
    inv = np.empty_like(Hs)
    inv[:, 0, 0] = Hs[:, 1, 1] / det
    inv[:, 1, 1] = Hs[:, 0, 0] / det
    inv[:, 0, 1] = -Hs[:, 0, 1] / det
    inv[:, 1, 0] = -Hs[:, 1, 0] / det
    return H_inv, hv, inv


def inversion(seed):
    """var(H⁻¹) against 10^5 sampled inverses."""
    H_inv, hv, inv = _sampled_inverses(seed)
    worst = _worst(inverse_self_variance(H_inv, hv), inv.var(axis=0, ddof=1))
    return worst <= 0.05, worst


def cross_covariance(seed):
    """Cross-covariances of H⁻¹ entries against 10^5 sampled inverses."""
    H_inv, hv, inv = _sampled_inverses(seed)
    worst = 0.0
    for mn, ab in [((0, 0), (0, 1)), ((1, 0), (1, 1))]:
        cov = inverse_cross_covariance(H_inv, hv.toarray(), mn, ab)
        sampled = np.cov(inv[:, mn[0], mn[1]], inv[:, ab[0], ab[1]], ddof=1)[0, 1]
        worst = max(worst, abs(cov - sampled) / abs(sampled))
    return worst <= 0.10, worst


# -- test_montecarlo.py -----------------------------------------------------


def mean_near_nominal(seed):
    """Largest |mean - x| of 2,000 trials in standard errors."""
    _, _, _, _, result = _ieee4()
    out = _mc(2000, seed, it_class_to_polar("0.5"), 1.0)
    se = out.std / np.sqrt(out.n_trials)
    dev = np.abs(out.mean - result.x)
    ok = bool(np.all(dev < 5 * se + 1e-12))
    on = se > 0
    return ok, np.max(dev[on] / se[on])


def seeded_normal_std(seed):
    """|std - 1| of 10^4 standard normals."""
    _, std = estimate_stats(np.random.default_rng(seed).normal(0.0, 1.0, (1, 10**4)))
    dev = abs(std[0] - 1.0)
    return dev <= 0.03, dev


def qq_normal(seed):
    """QQ correlation of 10^5 normal draws."""
    corr = qq_normality_check(np.random.default_rng(seed).normal(3.0, 2.0, 10**5)).correlation
    return corr >= 0.999, corr


def qq_uniform(seed):
    """QQ correlation of 10^5 uniform draws, which must be flagged."""
    corr = qq_normality_check(np.random.default_rng(seed).uniform(0.0, 1.0, 10**5)).correlation
    return corr < 0.999, corr


def noisy_voltage_normal(seed):
    """Smaller QQ correlation of bus 4's IT-1.0 noisy voltage parts."""
    net, _, state, _, _ = _ieee4()
    polar = it_class_to_polar("1.0")
    rng = np.random.default_rng(seed)
    E = state.voltages[net.flat_index(4)]
    rho = abs(E) + rng.normal(0.0, polar.sigma_rho * abs(E), 10**5)
    theta = np.angle(E) + rng.normal(0.0, polar.sigma_theta, 10**5)
    noisy = rho * np.exp(1j * theta)
    reports = [qq_normality_check(noisy.real), qq_normality_check(noisy.imag)]
    return all(r.looks_normal for r in reports), min(r.correlation for r in reports)


#: (test, gate, the test's own seed, statistic of a seed -> (passes, value))
AUDITS = [
    ("test_acceptance::test_std_agreement_reference_case", "<= 0.20", acceptance.SEED,
     std_agreement),
    ("test_acceptance::test_mc_convergence", "<= 0.10", acceptance.SEED, mc_convergence),
    ("test_acceptance::test_admittance_sweep_trend", "(a), (b) and (c)", acceptance.SEED,
     sweep_trend),
    ("  (a) ratio farthest from 2", "in [1.8, 2.2]", acceptance.SEED, sweep_linear),
    ("  (b) gap at 2 % - gap at 0.5 %", "> 0", acceptance.SEED, sweep_widening),
    ("  (c) mean relative std at 2 %", "in [0.15, 0.22]", acceptance.SEED, sweep_band),
    ("test_acceptance::test_projection_correctness", "<= 0.02", acceptance.SEED, projection),
    ("test_acceptance::test_property_suite (voltage-normality)", ">= 0.999", acceptance.SEED,
     property_normality),
    ("test_uncertainty::TestChannelFidelity::test_admittance_channel_tracks_mc", "< 0.05", 5,
     admittance_channel),
    ("test_uncertainty::TestChannelFidelity::test_voltage_channel_known_overestimate",
     "min > 1, max > 2", 5, voltage_channel),
    ("test_uncertainty::TestProjection::test_matches_sampling_oracle", "<= 0.02", 9,
     projection_oracle),
    ("test_uncertainty::...::test_matches_perturbation_sampling_admittance_only", "<= 0.03", 123,
     perturbation_admittance),
    ("test_uncertainty::...::test_matches_perturbation_sampling_voltage_only", "<= 0.03", 321,
     perturbation_voltage),
    ("test_uncertainty::...::test_matches_inversion_sampling", "<= 0.05", 77, inversion),
    ("test_uncertainty::...::test_cross_covariance_matches_sampling", "<= 0.10", 55,
     cross_covariance),
    ("test_montecarlo::test_mean_near_nominal", "< 5 (+1e-12)", 3, mean_near_nominal),
    ("test_montecarlo::TestEstimateStats::test_seeded_normal_std", "<= 0.03", 11,
     seeded_normal_std),
    ("test_montecarlo::TestQQ::test_normal_input", ">= 0.999", 42, qq_normal),
    ("test_montecarlo::TestQQ::test_uniform_input_flagged", "< 0.999", 42, qq_uniform),
    ("test_montecarlo::TestQQ::test_noisy_voltage_parts_look_normal", "looks normal", 8,
     noisy_voltage_normal),
]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=40,
                        help="rerun each statistic at seeds 0 .. SEEDS-1 (default 40)")
    args = parser.parse_args(argv)
    if args.seeds < 1:
        parser.error("--seeds must be at least 1")
    t0 = time.perf_counter()
    head = ["test", "gate", "at its seed", "pass", *(f"q{round(q * 100)}" for q in QUANTILES)]
    print("| " + " | ".join(head) + " |")
    print("|" + "---|" * len(head))
    for name, gate, own, statistic in AUDITS:
        ok_own, value_own = statistic(own)
        runs = [statistic(seed) for seed in range(args.seeds)]
        values = np.array([value for _, value in runs], dtype=float)
        passed = sum(bool(ok) for ok, _ in runs)
        own_text = f"{value_own:.5g} ({own}, {'pass' if ok_own else 'FAIL'})"
        cells = [name, gate, own_text, f"{passed}/{args.seeds}",
                 *(f"{v:.5g}" for v in np.quantile(values, QUANTILES))]
        print("| " + " | ".join(cells) + " |", flush=True)
    print(f"\n{args.seeds} seeds in {time.perf_counter() - t0:.0f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
