import tracemalloc
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

import pfsc
from pfsc import montecarlo
from pfsc.coefficients import assemble_from_raw
from pfsc.errors import ConfigError, DegenerateBranchError
from pfsc.montecarlo import (
    BRANCH_PARAMETER,
    INDEPENDENT_ELEMENTS,
    MCConfig,
    run_monte_carlo,
    run_monte_carlo_sets,
)
from pfsc.network import Branch, Bus, NetworkModel, build_admittance
from pfsc.uncertainty import AdmittanceUncertainty, PolarNoiseSpec, it_class_to_polar

from conftest import make_feeder, make_three_phase_balanced
from oracles import qq_normality_check, trial_rng

MODES = (INDEPENDENT_ELEMENTS, BRANCH_PARAMETER)


def estimate_stats(trials: np.ndarray):
    """Unbiased mean/std over the last axis of a trial store.

    The two-pass reference that the streamed moments of run_monte_carlo
    are checked against.
    """
    trials = np.asarray(trials)
    if trials.shape[-1] < 2:
        raise ValueError("need at least 2 trials for std estimation")
    # anchor on the first trial so a constant sample gives std exactly 0
    anchor = trials[..., :1]
    shifted = trials - anchor
    mean = anchor[..., 0] + shifted.mean(axis=-1)
    return mean, shifted.std(axis=-1, ddof=1)


def mc_setup(ieee4_solved, sigma_y_pct=1.0, it_class="0.5"):
    net, Y, state = ieee4_solved
    polar = it_class_to_polar(it_class)
    yu = AdmittanceUncertainty.from_relative(Y, sigma_y_pct)
    return net, Y, state, polar, yu


def test_zero_noise_degenerate(ieee4_solved):
    net, Y, state = ieee4_solved
    cfg = MCConfig(
        n_trials=50,
        seed=0,
        polar=PolarNoiseSpec(0.0, 0.0),
        yu=AdmittanceUncertainty.zero(net.n_nodes),
    )
    out = run_monte_carlo(net, Y, state, cfg)
    assert np.all(out.std == 0.0)
    assert out.trials_failed == 0


def test_reproducible_bitwise(ieee4_solved):
    net, Y, state, polar, yu = mc_setup(ieee4_solved)
    cfg = MCConfig(n_trials=200, seed=1234, polar=polar, yu=yu)
    a = run_monte_carlo(net, Y, state, cfg)
    b = run_monte_carlo(net, Y, state, cfg)
    assert np.array_equal(a.std, b.std)
    assert np.array_equal(a.mean, b.mean)


def test_trial_prefix_property(ieee4_solved):
    # per-trial substreams: the first k trials of a longer run are the
    # same draws as a run with n_trials = k
    net, Y, state, polar, yu = mc_setup(ieee4_solved)
    short = MCConfig(n_trials=20, seed=7, polar=polar, yu=yu, store_trials=True)
    long = MCConfig(n_trials=60, seed=7, polar=polar, yu=yu, store_trials=True)
    a = run_monte_carlo(net, Y, state, short)
    b = run_monte_carlo(net, Y, state, long)
    assert np.array_equal(a.trials, b.trials[..., :20])


def test_mean_near_nominal(ieee4_solved):
    net, Y, state, polar, yu = mc_setup(ieee4_solved)
    problem = pfsc.assemble_problem(Y, state, net)
    res = pfsc.solve_coefficients(problem)
    cfg = MCConfig(n_trials=2000, seed=3, polar=polar, yu=yu)
    out = run_monte_carlo(net, Y, state, cfg)
    se = out.std / np.sqrt(out.n_trials)
    assert np.all(np.abs(out.mean - res.x) < 5 * se + 1e-12)


def test_invalid_config():
    with pytest.raises(ConfigError, match="n_trials"):
        MCConfig(
            n_trials=0, seed=0, polar=PolarNoiseSpec(), yu=AdmittanceUncertainty.zero(2)
        )
    # symmetric-pairs, a retired mode, is refused like any unknown name
    for mode in ("bogus", "symmetric-pairs"):
        with pytest.raises(ConfigError, match=f"^unknown symmetry_mode '{mode}'"):
            MCConfig(
                n_trials=1,
                seed=0,
                polar=PolarNoiseSpec(),
                yu=AdmittanceUncertainty.zero(2),
                symmetry_mode=mode,
            )


@pytest.mark.parametrize("mode", MODES)
def test_one_trial_has_zero_std(ieee4_solved, mode):
    # a single trial is its own mean, with a std of exactly 0
    net, Y, state, polar, yu = mc_setup(ieee4_solved)
    cfg = MCConfig(n_trials=1, seed=4, polar=polar, yu=yu, symmetry_mode=mode,
                   store_trials=True)
    out = run_monte_carlo(net, Y, state, cfg)
    assert np.array_equal(out.mean, out.trials[..., 0])
    assert np.array_equal(out.std, np.zeros((6, 6)))


@pytest.mark.parametrize("scale", [0.01, 0.0], ids=["relative", "zero"])
def test_branch_parameter_noise_needs_a_level(ieee4_solved, scale):
    # stds given element by element carry no relative level to scale the
    # branch impedances by
    net, Y, state, polar, _ = mc_setup(ieee4_solved)
    sigma = np.abs(Y.matrix) * scale
    cfg = MCConfig(n_trials=10, seed=7, polar=polar, yu=AdmittanceUncertainty(sigma, sigma),
                   symmetry_mode=BRANCH_PARAMETER)
    with pytest.raises(ConfigError) as info:
        run_monte_carlo(net, Y, state, cfg)
    assert str(info.value) == "branch-parameter mode needs a relative level_pct"


def test_alternative_symmetry_modes_run(ieee4_solved):
    net, Y, state, polar, yu = mc_setup(ieee4_solved)
    cfg = MCConfig(n_trials=100, seed=5, polar=polar, yu=yu,
                   symmetry_mode=BRANCH_PARAMETER)
    out = run_monte_carlo(net, Y, state, cfg)
    assert out.std.shape == (6, 6)
    assert np.all(out.std > 0.0)


# -- batched engine against the serial per-trial loop ------------------------


def serial_trials(network, Y, state, cfg):
    """Trial store of the one-trial-at-a-time loop: the reference engine.

    Draws every trial's inputs with ``normal`` calls in the order the
    batched engine's draw rows encode, assembles and solves one trial at
    a time, and drops singular or non-finite trials.
    """
    E0, Ym, polar = state.voltages, Y.matrix, cfg.polar
    m = E0.size
    samples = []
    for k in range(cfg.n_trials):
        rng = trial_rng(cfg.seed, k)
        n_rho = rng.normal(0.0, 1.0, m)
        n_theta = rng.normal(0.0, 1.0, m)
        if polar.sigma_rho == 0.0 and polar.sigma_theta == 0.0:
            E = E0.copy()
        else:
            rho, theta = np.abs(E0), np.angle(E0)
            sig_rho = polar.sigma_rho * rho if polar.relative else polar.sigma_rho
            E = (rho + n_rho * sig_rho) * np.exp(1j * (theta + n_theta * polar.sigma_theta))
        if cfg.symmetry_mode == BRANCH_PARAMETER:
            frac = cfg.yu.level_pct / 100.0
            branches = []
            for br in network.branches:
                z = br.z_ohm
                dz = rng.normal(0.0, 1.0, z.shape) * frac * np.abs(z) + 1j * (
                    rng.normal(0.0, 1.0, z.shape) * frac * np.abs(z)
                )
                branches.append(
                    Branch(br.from_bus, br.to_bus, z + dz, br.shunt_b_s, br.length_km)
                )
            Y_k = build_admittance(replace(network, branches=tuple(branches))).matrix
        else:
            d_re = rng.normal(0.0, 1.0, (m, m)) * cfg.yu.sigma_re
            d_im = rng.normal(0.0, 1.0, (m, m)) * cfg.yu.sigma_im
            Y_k = Ym + d_re + 1j * d_im
        problem = assemble_from_raw(Y_k, E, network)
        try:
            x = np.linalg.solve(problem.H, problem.z)
        except np.linalg.LinAlgError:
            continue
        if np.all(np.isfinite(x)):
            samples.append(x)
    return np.stack(samples, axis=-1)


@pytest.fixture
def seven_trial_chunks(monkeypatch):
    """Chunks of 7 trials, so that chunk boundaries fall inside short runs."""
    monkeypatch.setattr(montecarlo, "_chunk_trials", lambda dim: 7)


@pytest.mark.parametrize("mode", MODES)
def test_batched_equals_serial(ieee4_solved, seven_trial_chunks, mode):
    net, Y, state, polar, yu = mc_setup(ieee4_solved)
    cfg = MCConfig(n_trials=60, seed=7, polar=polar, yu=yu, symmetry_mode=mode,
                   store_trials=True)
    ref = serial_trials(net, Y, state, cfg)
    out = run_monte_carlo(net, Y, state, cfg)
    assert np.array_equal(out.trials, ref)
    ref_mean, ref_std = estimate_stats(ref)
    np.testing.assert_allclose(out.std, ref_std, rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(out.mean, ref_mean, rtol=1e-12, atol=0.0)
    # the first 20 trials end inside the third chunk of 7
    short = run_monte_carlo(net, Y, state, replace(cfg, n_trials=20))
    assert np.array_equal(short.trials, out.trials[..., :20])


def test_singular_perturbed_impedance_names_its_branch(monkeypatch):
    # at a 100 % level, a reactance draw of exactly -1 cancels the purely
    # reactive impedance of branch 2-3 in trial 3 of the chunk
    net = NetworkModel(
        buses=(Bus(1, "slack"), Bus(2, "pq", (50.0,), (10.0,)), Bus(3, "pq", (30.0,), (5.0,))),
        branches=(Branch(1, 2, complex(0.03, 0.1)), Branch(2, 3, complex(0.0, 0.2))),
        phase_count=1, slack_bus=1, base_power_va=1e6, base_voltage_v=1e3,
    )
    Y = build_admittance(net)
    state = pfsc.solve_load_flow(net, Y)

    def draws(seed, trials, width):
        out = np.zeros((len(trials), width))
        out[3, 2 * net.n_nodes + 3] = -1.0  # after (re, im) of branch 1-2, im of 2-3
        return out

    monkeypatch.setattr(montecarlo, "_draws", draws)
    cfg = MCConfig(n_trials=5, seed=1, polar=PolarNoiseSpec(0.0, 0.0),
                   yu=AdmittanceUncertainty.from_relative(Y, 100.0),
                   symmetry_mode=BRANCH_PARAMETER)
    with pytest.raises(DegenerateBranchError, match="^degenerate branch 2-3: singular"):
        run_monte_carlo(net, Y, state, cfg)


def test_zero_voltage_noise_keeps_streams_aligned(ieee4_solved, seven_trial_chunks):
    net, Y, state, _, yu = mc_setup(ieee4_solved)
    cfg = MCConfig(n_trials=20, seed=2, polar=PolarNoiseSpec(0.0, 0.0), yu=yu,
                   store_trials=True)
    assert np.array_equal(run_monte_carlo(net, Y, state, cfg).trials,
                          serial_trials(net, Y, state, cfg))


def poisoned_assembly(monkeypatch, poison):
    """Route the engine's assembly through ``poison(H_stack, call_index)``."""
    calls = []

    def assemble(Ym, E, network):
        problem = assemble_from_raw(Ym, E, network)
        poison(problem.H, len(calls))
        calls.append(len(problem.H))
        return problem

    monkeypatch.setattr(montecarlo, "assemble_from_raw", assemble)
    return calls


def test_failed_trials_dropped_and_counted(ieee4_solved, seven_trial_chunks,
                                           monkeypatch):
    net, Y, state, polar, yu = mc_setup(ieee4_solved)
    cfg = MCConfig(n_trials=20, seed=9, polar=polar, yu=yu, store_trials=True)
    ref = serial_trials(net, Y, state, cfg)

    def poison(H, call):
        if call == 1:  # trials 7-13
            H[1] = 0.0  # exactly singular: the batched solve raises
            H[4] = np.nan  # solves to non-finite values

    calls = poisoned_assembly(monkeypatch, poison)
    out = run_monte_carlo(net, Y, state, cfg)
    assert calls == [7, 7, 6]
    assert out.trials_failed == 2
    kept = np.delete(ref, [8, 11], axis=-1)
    assert np.array_equal(out.trials, kept)
    _, std = estimate_stats(kept)
    np.testing.assert_allclose(out.std, std, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("value", [0.0, np.nan])
def test_all_trials_failed_raises(ieee4_solved, seven_trial_chunks, monkeypatch, value):
    net, Y, state, polar, yu = mc_setup(ieee4_solved)

    def poison(H, call):
        H[...] = value

    poisoned_assembly(monkeypatch, poison)
    cfg = MCConfig(n_trials=10, seed=9, polar=polar, yu=yu)
    with pytest.raises(ConfigError, match="all Monte-Carlo trials failed"):
        run_monte_carlo(net, Y, state, cfg)


# -- one pass for several sets ------------------------------------------------


def poisoned_trial(monkeypatch, network, state, cfg, trial):
    """Make one trial's H exactly singular wherever it is assembled.

    The trial is recognised by its perturbed voltages, which every level
    shares, so the batched solve of its chunk raises at each level.
    """
    m = state.voltages.size
    d = montecarlo._draws(cfg.seed, range(trial, trial + 1), 2 * m)
    target = montecarlo._perturb_voltages(state.voltages, cfg.polar, d[:, :m], d[:, m:])
    hits = []

    def assemble(Ym, E, network):
        problem = assemble_from_raw(Ym, E, network)
        hit = (E == target).all(axis=-1)
        problem.H[hit] = 0.0
        hits.append(int(hit.sum()))
        return problem

    monkeypatch.setattr(montecarlo, "assemble_from_raw", assemble)
    return hits


@pytest.mark.parametrize("poison", [False, True], ids=["clean", "singular-trial"])
@pytest.mark.parametrize("mode", MODES)
def test_shared_pass_equals_separate_runs(ieee4_solved, seven_trial_chunks,
                                          monkeypatch, mode, poison):
    net, Y, state, polar, _ = mc_setup(ieee4_solved)
    cfgs = [
        MCConfig(n_trials=n, seed=7, polar=polar, yu=yu, symmetry_mode=mode,
                 store_trials=True)
        for yu in (AdmittanceUncertainty.from_relative(Y, lvl) for lvl in (0.5, 1.0, 2.0))
        for n in (7, 20, 60)
    ]
    if poison:
        # trial 20 is outside the 20-trial sets but inside the chunk of
        # 14-20 that the pass solves for the 60-trial ones
        hits = poisoned_trial(monkeypatch, net, state, cfgs[0], 20)
    shared = run_monte_carlo_sets(net, Y, state, cfgs)
    if poison:
        assert sum(hits) == 3  # once per level
    for cfg, got in zip(cfgs, shared):
        alone = run_monte_carlo(net, Y, state, cfg)
        assert got.n_trials == cfg.n_trials
        assert got.trials_failed == alone.trials_failed == int(poison and cfg.n_trials > 20)
        assert np.array_equal(got.trials, alone.trials)
        assert np.array_equal(got.mean, alone.mean)
        assert np.array_equal(got.std, alone.std)


def reference_draws(seed, trials, width):
    """``_draws`` one trial at a time, each from its own generator."""
    draws = np.empty((len(trials), width))
    for row, k in zip(draws, trials):
        trial_rng(seed, k).standard_normal(out=row)
    return draws


def mode_widths(network):
    """Draw widths of the two symmetry modes."""
    m = network.n_nodes
    return {2 * m + 2 * m * m, 2 * m + sum(2 * br.z_ohm.size for br in network.branches)}


@pytest.mark.parametrize(
    "seed", [0, 1, 3, 57, 2**32 - 1, 2**32, 2**40 + 5, 2**64 + 3, 2**200 + 12345]
)
def test_batched_streams_equal_per_trial_streams(ieee4, seed):
    # 250..261 crosses the boundary of the first 256-trial chunk; trial
    # indices from 2**32 on take a second entropy word
    three_phase = make_three_phase_balanced()
    for trials in (range(250, 262), range(2**32 - 2, 2**32 + 2)):
        for width in mode_widths(ieee4) | mode_widths(three_phase):
            got = montecarlo._draws(seed, trials, width)
            assert np.array_equal(got, reference_draws(seed, trials, width))


def test_chunked_run_reads_the_per_trial_streams(ieee4_solved):
    # 300 trials: a full 256-trial chunk and part of the next
    net, Y, state, polar, yu = mc_setup(ieee4_solved)
    cfg = MCConfig(n_trials=300, seed=11, polar=polar, yu=yu, store_trials=True)
    assert np.array_equal(run_monte_carlo(net, Y, state, cfg).trials,
                          serial_trials(net, Y, state, cfg))


@pytest.mark.parametrize("seed", [-1, 1.0, True, "1", None])
def test_seed_must_be_a_nonnegative_integer(ieee4_solved, seed):
    net, Y, state, polar, yu = mc_setup(ieee4_solved)
    with pytest.raises(ConfigError, match="seed must be a nonnegative integer"):
        MCConfig(n_trials=10, seed=seed, polar=polar, yu=yu)


def test_report_builds_each_trial_stream_once(monkeypatch):
    streams = []

    def counted(seed, trials, width):
        streams.extend(trials)
        return draws(seed, trials, width)

    draws = montecarlo._draws
    monkeypatch.setattr(montecarlo, "_draws", counted)
    cfg = pfsc.RunConfig(network=str(pfsc.bundled_network_path()), mode="mc",
                         n_mc=(20, 50), sigma_y_pct=(0.5, 1.0, 2.0))
    report = pfsc.run_pipeline(cfg)
    # separate runs built 3 x (20 + 50) = 210
    assert streams == list(range(50))
    assert sorted(report.mc) == [(lvl, n) for lvl in (0.5, 1.0, 2.0) for n in (20, 50)]


def test_shared_pass_seconds_add_up_to_its_wall_time(ieee4_solved, seven_trial_chunks,
                                                    monkeypatch):
    # the pass reads the clock once at its start and once at its end
    ticks = iter([2.0, 9.5])
    monkeypatch.setattr(montecarlo, "time", SimpleNamespace(perf_counter=lambda: next(ticks)))
    net, Y, state, polar, yu = mc_setup(ieee4_solved)
    yu2 = AdmittanceUncertainty.from_relative(Y, 2.0)
    cfgs = [MCConfig(n_trials=n, seed=1, polar=polar, yu=y)
            for y in (yu, yu2) for n in (7, 20)]
    results = run_monte_carlo_sets(net, Y, state, cfgs)
    assert next(ticks, None) is None
    assert sum(r.runtime_s for r in results) == pytest.approx(7.5, rel=1e-12)
    assert [r.runtime_s for r in results] == [7.5 * n / 54 for n in (7, 20, 7, 20)]


@pytest.mark.parametrize(
    "change",
    [{"seed": 8}, {"polar": PolarNoiseSpec(0.0, 0.0)},
     {"symmetry_mode": BRANCH_PARAMETER}, {"store_trials": True}],
    ids=["seed", "polar", "symmetry_mode", "store_trials"],
)
def test_shared_pass_refuses_sets_that_differ_in_their_draws(ieee4_solved, change):
    net, Y, state, polar, yu = mc_setup(ieee4_solved)
    cfg = MCConfig(n_trials=10, seed=7, polar=polar, yu=yu)
    (field,) = change
    with pytest.raises(ConfigError, match=f"differ in {field}"):
        run_monte_carlo_sets(net, Y, state, [cfg, replace(cfg, **change)])


@pytest.mark.parametrize("n_bus", [3, 6])
@pytest.mark.parametrize("mode", MODES)
def test_admittance_noise_of_another_network_is_refused(ieee4_solved, n_bus, mode):
    # ieee4 has 4 nodes: a 3-node noise was read at the wrong positions,
    # a 6-node one failed with a bare IndexError
    net, Y, state, polar, yu = mc_setup(ieee4_solved)
    other = AdmittanceUncertainty.from_relative(build_admittance(make_feeder(n_bus, 1)), 1.0)
    cfg = MCConfig(n_trials=10, seed=7, polar=polar, yu=yu, symmetry_mode=mode)
    with pytest.raises(ValueError, match="noise spec dimensions") as info:
        run_monte_carlo_sets(net, Y, state, [cfg, replace(cfg, yu=other)])
    assert "\n" not in str(info.value)


def traced_peak(run):
    """Peak traced bytes that ``run()`` adds."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        run()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_shared_pass_memory_bounded_in_n_trials(ieee4_solved):
    net, Y, state, polar, yu = mc_setup(ieee4_solved)
    yu2 = AdmittanceUncertainty.from_relative(Y, 2.0)

    def peak(n_trials):
        # two levels, each with a tenth-size set beside the full one
        cfgs = [MCConfig(n_trials=n, seed=4, polar=polar, yu=y)
                for y in (yu, yu2) for n in (n_trials // 10, n_trials)]
        return traced_peak(lambda: run_monte_carlo_sets(net, Y, state, cfgs))

    small, large = peak(500), peak(5000)
    assert large <= 1.1 * small, (small, large)


def test_memory_bounded_in_n_trials(ieee4_solved):
    net, Y, state, polar, yu = mc_setup(ieee4_solved)

    def peak(n_trials):
        cfg = MCConfig(n_trials=n_trials, seed=4, polar=polar, yu=yu)
        return traced_peak(lambda: run_monte_carlo(net, Y, state, cfg))

    small, large = peak(500), peak(5000)
    assert large <= 1.1 * small, (small, large)


class TestEstimateStats:
    def test_constant_rows(self):
        trials = np.ones((3, 10))
        _, std = estimate_stats(trials)
        assert np.all(std == 0.0)

    def test_two_sample_formula(self):
        a, b = 1.0, 4.0
        _, std = estimate_stats(np.array([[a, b]]))
        assert std[0] == pytest.approx(abs(a - b) / np.sqrt(2))

    def test_seeded_normal_std(self):
        rng = np.random.default_rng(11)
        _, std = estimate_stats(rng.normal(0.0, 1.0, (1, 10**4)))
        assert std[0] == pytest.approx(1.0, rel=0.03)

    def test_too_few_trials(self):
        with pytest.raises(ValueError, match="at least 2"):
            estimate_stats(np.ones((3, 1)))


class TestQQ:
    def test_normal_input(self):
        rng = np.random.default_rng(42)
        report = qq_normality_check(rng.normal(3.0, 2.0, 10**5))
        assert report.correlation >= 0.999
        assert report.looks_normal

    def test_uniform_input_flagged(self):
        rng = np.random.default_rng(42)
        report = qq_normality_check(rng.uniform(0.0, 1.0, 10**5))
        assert report.correlation < 0.999
        assert not report.looks_normal

    def test_too_few_samples(self):
        with pytest.raises(ValueError, match="at least 20"):
            qq_normality_check(np.ones(5))

    def test_csv_output(self, tmp_path):
        rng = np.random.default_rng(0)
        report = qq_normality_check(rng.normal(size=100))
        path = tmp_path / "qq.csv"
        report.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "theoretical_quantile,sample_quantile"
        assert len(lines) == 101

    def test_noisy_voltage_parts_look_normal(self, ieee4_solved):
        # real/imag parts of the polar-noise-perturbed voltages
        net, Y, state = ieee4_solved
        polar = it_class_to_polar("1.0")
        rng = np.random.default_rng(8)
        E = state.voltages[net.flat_index(4)]
        rho = abs(E) + rng.normal(0.0, polar.sigma_rho * abs(E), 10**5)
        theta = np.angle(E) + rng.normal(0.0, polar.sigma_theta, 10**5)
        noisy = rho * np.exp(1j * theta)
        assert qq_normality_check(noisy.real).looks_normal
        assert qq_normality_check(noisy.imag).looks_normal
