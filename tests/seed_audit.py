"""Pass rates of the seeded tier-1 tests that gate a Monte-Carlo statistic.

Each test below draws its samples from one fixed seed, through the
Monte-Carlo engine or a sampling oracle, and compares a statistic of
them with a threshold.  A gate that holds at the suite's seed may still
fail at most others.  This script reruns each test's gate at seeds
0 .. N-1 in place of the test's own, drawing through the seed-keyed
sampling helpers that the test itself calls, and prints a Markdown
table: per test, its gate, its statistic at the suite's seed, how many
of the N seeds pass, and the quantiles of the statistic over them.  It
changes no gate, threshold or seed of the suite.  Pass rates do not set
its exit status; a failure at a test's own seed does (status 1), since
tier-1 passes there, so such a row no longer computes its test's gate.
Pytest does not collect it (it is not named ``test_*.py``).

Run from the repository root::

    PYTHONPATH=src python tests/seed_audit.py [--seeds 40]
"""

from __future__ import annotations

import argparse
import os
import sys
import time

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from pfsc.uncertainty import inverse_self_variance  # noqa: E402

import test_acceptance  # noqa: E402
import test_montecarlo  # noqa: E402
import test_uncertainty  # noqa: E402
from oracles import inverse_cross_covariance, qq_normality_check  # noqa: E402

QUANTILES = (0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0)


# Each gate below takes a seed and returns (passes, statistic), as its
# test computes them from the samples its helpers draw at that seed.


def std_agreement(seed):
    """Largest relative gap of the analytical stds to 10,000 trials."""
    std = test_acceptance.reference_run(10000, seed).std
    gap = np.max(np.abs(test_acceptance.reference_sigma() - std) / std)
    return gap <= 0.20, gap


def mc_convergence(seed):
    """Largest relative gap of 100-trial to 10,000-trial stds."""
    s100, s10k = (test_acceptance.reference_values(test_acceptance.reference_run(n, seed).std)
                  for n in (100, 10000))
    gap = np.max(np.abs(s100 - s10k) / s10k)
    return gap <= 0.10, gap


def sweep_trend(seed):
    """Mean relative std at 2 %; passes when (a), (b) and (c) all hold."""
    ok = [part(seed)[0] for part in (sweep_linear, sweep_widening, sweep_band)]
    return all(ok), test_acceptance.admittance_sweep(seed)[2]


def sweep_linear(seed):
    """(a): the ratio farthest from 2 of the 1 % to 0.5 % stds."""
    ratios = test_acceptance.admittance_sweep(seed)[0]
    worst = ratios[np.argmax(np.abs(ratios - 2.0))]
    return bool(np.all((ratios >= 1.8) & (ratios <= 2.2))), worst


def sweep_widening(seed):
    """(b): the gap at 2 % less the gap at 0.5 %."""
    gap = test_acceptance.admittance_sweep(seed)[1]
    return gap[2.0] > gap[0.5], gap[2.0] - gap[0.5]


def sweep_band(seed):
    """(c): the mean relative std at 2 %."""
    rel2 = test_acceptance.admittance_sweep(seed)[2]
    return 0.15 <= rel2 <= 0.22, rel2


def projection(seed):
    """Largest relative deviation of the projected stds from 10^6 draws
    at three angles."""
    worst = test_acceptance.projection_deviations(seed)["sign-corrected"]
    return worst <= 0.02, worst


def property_normality(seed):
    """Smaller QQ correlation of the IT-1.0 noisy voltage's parts."""
    draws = test_acceptance.property_draws(seed)[2]
    corr = min(qq_normality_check(draws.real).correlation,
               qq_normality_check(draws.imag).correlation)
    return corr >= 0.999, corr


def admittance_channel(seed):
    """Largest relative gap of the analytical to the Monte-Carlo stds."""
    unc, mc = test_uncertainty.channel_stds(seed, voltage=False)
    gap = np.max(np.abs(unc - mc) / mc)
    return gap < 0.05, gap


def voltage_channel(seed):
    """Smallest analytical over Monte-Carlo std; the largest must pass 2."""
    unc, mc = test_uncertainty.channel_stds(seed, voltage=True)
    ratio = unc / mc
    return bool(np.all(ratio > 1.0) and ratio.max() > 2.0), ratio.min()


def projection_oracle(seed):
    """Largest relative deviation of the projection from 10^6 polar
    draws over the test's four angles."""
    worst = 0.0
    for theta in test_uncertainty.ORACLE_ANGLES:
        out, (sre, sim) = test_uncertainty.projection_against_sampling(theta, seed)
        worst = max(worst, abs(out.sigma_re[0] - sre) / sre, abs(out.sigma_im[0] - sim) / sim)
    return worst <= 0.02, worst


def _worst(got, want):
    """Largest relative deviation, as ``assert_allclose``'s rtol reads it."""
    return np.max(np.abs(got - want) / np.abs(want))


def perturbation(sampled_var_H):
    """var(H) against 10^5 sampled H, as ``sampled_var_H`` draws them."""
    def gate(seed):
        worst = _worst(*sampled_var_H(seed))
        return worst <= 0.03, worst
    return gate


def inversion(seed):
    """var(H⁻¹) against 10^5 sampled inverses."""
    H_inv, hv, inv = test_uncertainty.sampled_inverses(seed)
    worst = _worst(inverse_self_variance(H_inv, hv), inv.var(axis=0, ddof=1))
    return worst <= 0.05, worst


def cross_covariance(seed):
    """Cross-covariances of H⁻¹ entries against 10^5 sampled inverses."""
    H_inv, hv, inv = test_uncertainty.sampled_inverses(seed)
    worst = 0.0
    for mn, ab in [((0, 0), (0, 1)), ((1, 0), (1, 1))]:
        cov = inverse_cross_covariance(H_inv, hv.toarray(), mn, ab)
        sampled = np.cov(inv[:, mn[0], mn[1]], inv[:, ab[0], ab[1]], ddof=1)[0, 1]
        worst = max(worst, abs(cov - sampled) / abs(sampled))
    return worst <= 0.10, worst


def mean_near_nominal(seed):
    """Largest |mean - x| of 2,000 trials in standard errors."""
    out, x = test_montecarlo.mean_run(seed)
    se = out.std / np.sqrt(out.n_trials)
    dev = np.abs(out.mean - x)
    on = se > 0
    return bool(np.all(dev < 5 * se + 1e-12)), np.max(dev[on] / se[on])


def seeded_normal_std(seed):
    """|std - 1| of 10^4 standard normals."""
    _, std = test_montecarlo.estimate_stats(test_montecarlo.standard_normals(seed))
    dev = abs(std[0] - 1.0)
    return dev <= 0.03, dev


def qq_normal(seed):
    """QQ correlation of 10^5 normal draws."""
    corr = qq_normality_check(test_montecarlo.qq_sample(seed, "normal")).correlation
    return corr >= 0.999, corr


def qq_uniform(seed):
    """QQ correlation of 10^5 uniform draws, which must be flagged."""
    corr = qq_normality_check(test_montecarlo.qq_sample(seed, "uniform")).correlation
    return corr < 0.999, corr


def noisy_voltage_normal(seed):
    """Smaller QQ correlation of bus 4's IT-1.0 noisy voltage parts."""
    noisy = test_montecarlo.noisy_voltage(seed)
    reports = [qq_normality_check(noisy.real), qq_normality_check(noisy.imag)]
    return all(r.looks_normal for r in reports), min(r.correlation for r in reports)


SWEEP = "test_acceptance::test_admittance_sweep_trend"
PROPAGATE = "test_uncertainty::TestPropagateToH::"
INVERSE = "test_uncertainty::TestInverseVariance::"

#: (the test's node id, the part of it rerun or "", its gate, its own
#: seed, the gate as a function of a seed -> (passes, statistic))
AUDITS = [
    ("test_acceptance::test_std_agreement_reference_case", "", "<= 0.20", test_acceptance.SEED,
     std_agreement),
    ("test_acceptance::test_mc_convergence", "", "<= 0.10", test_acceptance.SEED,
     mc_convergence),
    (SWEEP, "", "(a), (b) and (c)", test_acceptance.SEED, sweep_trend),
    (SWEEP, "(a) ratio farthest from 2", "in [1.8, 2.2]", test_acceptance.SEED, sweep_linear),
    (SWEEP, "(b) gap at 2 % - gap at 0.5 %", "> 0", test_acceptance.SEED, sweep_widening),
    (SWEEP, "(c) mean relative std at 2 %", "in [0.15, 0.22]", test_acceptance.SEED, sweep_band),
    ("test_acceptance::test_projection_correctness", "", "<= 0.02", test_acceptance.SEED,
     projection),
    ("test_acceptance::test_property_suite", "(voltage-normality)", ">= 0.999",
     test_acceptance.SEED, property_normality),
    ("test_uncertainty::TestChannelFidelity::test_admittance_channel_tracks_mc", "", "< 0.05",
     5, admittance_channel),
    ("test_uncertainty::TestChannelFidelity::test_voltage_channel_known_overestimate", "",
     "min > 1, max > 2", 5, voltage_channel),
    ("test_uncertainty::TestProjection::test_matches_sampling_oracle", "", "<= 0.02", 9,
     projection_oracle),
    (PROPAGATE + "test_matches_perturbation_sampling_admittance_only", "", "<= 0.03", 123,
     perturbation(test_uncertainty.admittance_sampled_var_H)),
    (PROPAGATE + "test_matches_perturbation_sampling_voltage_only", "", "<= 0.03", 321,
     perturbation(test_uncertainty.voltage_sampled_var_H)),
    (INVERSE + "test_matches_inversion_sampling", "", "<= 0.05", 77, inversion),
    (INVERSE + "test_cross_covariance_matches_sampling", "", "<= 0.10", 55, cross_covariance),
    ("test_montecarlo::test_mean_near_nominal", "", "< 5 (+1e-12)", 3, mean_near_nominal),
    ("test_montecarlo::TestEstimateStats::test_seeded_normal_std", "", "<= 0.03", 11,
     seeded_normal_std),
    ("test_montecarlo::TestQQ::test_normal_input", "", ">= 0.999", 42, qq_normal),
    ("test_montecarlo::TestQQ::test_uniform_input_flagged", "", "< 0.999", 42, qq_uniform),
    ("test_montecarlo::TestQQ::test_noisy_voltage_parts_look_normal", "", "looks normal", 8,
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
    failed = []
    for test, part, gate, own, statistic in AUDITS:
        name = f"{test} {part}".rstrip()
        ok_own, value_own = statistic(own)
        if not ok_own:
            failed.append(name)
        runs = [statistic(seed) for seed in range(args.seeds)]
        values = np.array([value for _, value in runs], dtype=float)
        passed = sum(bool(ok) for ok, _ in runs)
        own_text = f"{value_own:.5g} ({own}, {'pass' if ok_own else 'FAIL'})"
        cells = [name, gate, own_text, f"{passed}/{args.seeds}",
                 *(f"{v:.5g}" for v in np.quantile(values, QUANTILES))]
        print("| " + " | ".join(cells) + " |", flush=True)
    print(f"\n{args.seeds} seeds in {time.perf_counter() - t0:.0f} s")
    for name in failed:
        print(f"FAIL at its own seed: {name}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
