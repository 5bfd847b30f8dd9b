import functools
import tracemalloc
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.linalg.lapack import dgetrf, dgetri
from scipy.sparse.csgraph import connected_components

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

from conftest import ieee4_case, make_feeder, make_random_network, make_three_phase_balanced
from oracles import jacobian, qq_normality_check, sample_polar_voltage, trial_rng

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


@functools.lru_cache(maxsize=None)
def mean_run(seed):
    """2,000 trials on ieee4 at ``mc_setup``'s noise, and the nominal x."""
    net, Y, state, polar, yu = mc_setup(ieee4_case()[:3])
    cfg = MCConfig(n_trials=2000, seed=seed, polar=polar, yu=yu)
    return run_monte_carlo(net, Y, state, cfg), ieee4_case()[4].x


def test_mean_near_nominal():
    out, x = mean_run(3)
    se = out.std / np.sqrt(out.n_trials)
    assert np.all(np.abs(out.mean - x) < 5 * se + 1e-12)


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


def oracle_systems(network, Y, state, cfg):
    """Each trial's H and right-hand side, the reference engine's.

    Draws every trial's inputs with ``normal`` calls in the order the
    batched engine's draw rows encode and assembles H densely over every
    entry of Y (the ``jacobian`` oracle), in network order.
    """
    E0, Ym, polar = state.voltages, Y.matrix, cfg.polar
    m = E0.size
    nonslack = network.nonslack_flat_indices()
    rhs = np.diag(np.tile([1.0, -1.0], len(nonslack)))  # +1 for P, -1 for Q
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
        yield jacobian(Y_k, E, nonslack), rhs


def components(H):
    """The rows of each connected component of H's nonzeros, ascending,
    ordered by their first row."""
    _, labels = connected_components(H != 0, directed=False)
    return [np.flatnonzero(labels == label) for label in np.unique(labels)]


def invert_and_sign(H, rhs):
    """H⁻¹ rhs for a diagonal ``rhs``: H inverted by LAPACK ``getrf`` and
    then ``getri``, each column scaled by its entry of ``rhs``."""
    lu, piv, info = dgetrf(H)
    if info == 0:
        inv, info = dgetri(lu, piv)
    if info != 0:
        raise np.linalg.LinAlgError("singular matrix")
    return inv * np.diagonal(rhs)


def solve_per_component(H, rhs):
    """Each connected component of H solved on its own, +0.0 off the
    components: the per-block loop's solve.  A component of
    ``INVERT_ROWS`` rows or more is inverted (``invert_and_sign``), a
    smaller one solved by ``np.linalg.solve``."""
    x = np.zeros(np.shape(rhs))
    for rows in components(H):
        block = np.ix_(rows, rows)
        solve = invert_and_sign if len(rows) >= montecarlo.INVERT_ROWS else np.linalg.solve
        x[block] = solve(H[block], rhs[block])
    return x


def serial_trials(network, Y, state, cfg, solve=np.linalg.solve):
    """Trial store of the one-trial-at-a-time loop: the reference engine.

    Solves each trial of ``oracle_systems`` by ``solve``, the dense
    solve of the whole H by default, and drops singular or non-finite
    trials.
    """
    samples = []
    for H, rhs in oracle_systems(network, Y, state, cfg):
        try:
            x = solve(H, rhs)
        except np.linalg.LinAlgError:
            continue
        if np.all(np.isfinite(x)):
            samples.append(x)
    return np.stack(samples, axis=-1)


def cancelled_term():
    """The three-phase fixture with the leaf branch 3-4 at z = (0.5+0.6j)
    [[1, 1, 1], [1, 2, 2], [1, 2, 3]] ohm, whose inverse [[2, -1, 0], [-1,
    2, -1], [0, -1, 1]] / (0.5+0.6j) has exact zeros between phases a and
    c: z links them through phase b, so every perturbed stamp fills those
    terms, while the nominal stamp's values there are 0."""
    base = make_three_phase_balanced()
    z = [br.z_ohm for br in base.branches]
    leaf = complex(0.5, 0.6) * np.array([[1, 1, 1], [1, 2, 2], [1, 2, 3]])
    return replace(base, branches=(Branch(1, 2, z[0]), Branch(2, 3, z[1]), Branch(3, 4, leaf)))


def cancelled_diagonal():
    """Bus 3 between series branches at +0.05j and -0.05j ohm: its
    admittances cancel, so Y stores no diagonal entry for bus 3, and a
    stack laid out on Y's positions (element noise) reads a zero there,
    appended to each trial's entries."""
    return NetworkModel(
        buses=(Bus(1, "slack"), Bus(2, "pq", (50.0,), (10.0,)), Bus(3, "pq", (-30.0,), (-5.0,)),
               Bus(4, "pq", (-40.0,), (-10.0,))),
        branches=(Branch(1, 2, complex(0.01, 0.03)), Branch(2, 3, 0.05j), Branch(3, 4, -0.05j)),
        phase_count=1, slack_bus=1, base_power_va=1e6, base_voltage_v=1e3,
    )


#: feeders on which the engine's stacks are checked byte for byte, with
#: the sizes of the blocks of their H
ORACLE_FEEDERS = {
    "ieee4": (lambda: pfsc.load_network(pfsc.bundled_network_path()), [6]),
    "three-phase": (make_three_phase_balanced, [18]),
    "cancelled-term": (cancelled_term, [18]),
    "cancelled-diagonal": (cancelled_diagonal, [6]),
    "mesh12-seed3": (lambda: make_random_network(12, 3, radial=False), [12, 10]),
    "feeder60-seed1": (lambda: make_feeder(60, 1), [70, 46, 2]),
}
#: largest difference between the trials solved block by block, blocks of
#: ``INVERT_ROWS`` rows or more inverted, and those of the dense loop,
#: relative to the largest |x| in each column of a trial.  Measured on the
#: feeders above, 12 trials, both modes: at most 3.9e-14
#: (``make_feeder(60, 1)``, element noise), 1.7e-15
#: (``make_random_network(12, 3)``), 9.2e-16 (the three-phase feeder's
#: one inverted block of 18) and 0 on ieee4; the partial-pivoting LU of a
#: block-diagonal H works within blocks, and the difference is how LAPACK
#: groups the sums at another size, or in ``getri``'s inverse.
BLOCK_SOLVE_RTOL = 1e-12
#: the engine's streamed stds against the two-pass stds of the dense
#: loop's trials: at most 2.3e-13 relative on those feeders (12 trials,
#: ``make_feeder(60, 1)``, branch noise), 2.3e-14 on the three-phase one
#: and 2.1e-16 on ieee4
STD_RTOL = 1e-11


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("feeder", sorted(ORACLE_FEEDERS))
def test_trials_are_the_dense_oracle_loop_bytes(feeder, mode):
    # H filled on its pattern solves to the bytes of H assembled over every
    # entry of Y, signed zeros included: tobytes, since array_equal takes
    # -0.0 for +0.0 (the oracle writes -0.0 off the pattern, the fill +0.0).
    # The oracle solves each component of its own H on its own, inverting
    # those of INVERT_ROWS rows or more; a one-block H below that size is
    # solved whole, to the dense loop's bytes.  Either way the trials stay
    # within BLOCK_SOLVE_RTOL of the whole solve's, with the same exact
    # zeros, and the stds, put back in network order, are those of the
    # whole solve's trials within STD_RTOL.
    load, sizes = ORACLE_FEEDERS[feeder]
    net = load()
    Y = build_admittance(net)
    state = pfsc.solve_load_flow(net, Y)
    cfg = MCConfig(n_trials=12, seed=3, polar=it_class_to_polar("0.5"),
                   yu=AdmittanceUncertainty.from_relative(Y, 1.0), symmetry_mode=mode,
                   store_trials=True)
    out = run_monte_carlo(net, Y, state, cfg)
    got = out.trials
    H, _ = next(oracle_systems(net, Y, state, cfg))
    assert [len(rows) for rows in components(H)] == sizes
    dense = serial_trials(net, Y, state, cfg)
    _, std = estimate_stats(dense)
    assert np.array_equal(out.std == 0, std == 0)
    np.testing.assert_allclose(out.std, std, rtol=STD_RTOL, atol=0.0)
    if len(sizes) == 1 and sizes[0] < montecarlo.INVERT_ROWS:
        assert got.tobytes() == dense.tobytes()
    assert got.tobytes() == serial_trials(net, Y, state, cfg, solve_per_component).tobytes()
    assert np.array_equal(got == 0, dense == 0)
    scale = np.abs(dense).max(axis=0)
    assert np.all(np.abs(got - dense) <= BLOCK_SOLVE_RTOL * scale)


@pytest.mark.parametrize("feeder", ["ieee4", "mesh12-seed3"])
def test_noise_where_Y_is_zero_fills_those_entries(feeder):
    # stds given densely, nonzero on every element: each chunk's stack is
    # laid out on the entries nonzero in its perturbed Y, so element noise
    # where Y is zero reaches H, and mesh12-seed3's H is one block of 22
    # rows, which is inverted
    net = ORACLE_FEEDERS[feeder][0]()
    Y = build_admittance(net)
    state = pfsc.solve_load_flow(net, Y)
    sigma = np.abs(Y.matrix) * 0.01 + 1e-3
    yu = AdmittanceUncertainty(sigma, sigma)
    assert len(yu.positions) > len(Y.positions)
    cfg = MCConfig(n_trials=12, seed=3, polar=it_class_to_polar("0.5"), yu=yu,
                   store_trials=True)
    got = run_monte_carlo(net, Y, state, cfg).trials
    assert got.tobytes() == serial_trials(net, Y, state, cfg, solve_per_component).tobytes()
    dense = serial_trials(net, Y, state, cfg)
    assert np.array_equal(got == 0, dense == 0)
    scale = np.abs(dense).max(axis=0)
    assert np.all(np.abs(got - dense) <= BLOCK_SOLVE_RTOL * scale)


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

    def draws(states, width):
        out = np.zeros((len(states), width))
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
    """Route the engine's assembly through ``poison(H_stack, call_index)``:
    the stack of H is put together from its diagonal blocks, in the
    engine's order of the unknowns, poisoned, and each block is read back
    from it into the chunk's buffer."""
    calls = []

    def assemble(Ym, E, network, *order):
        problem = assemble_from_raw(Ym, E, network, *order)
        ends = np.cumsum([H.shape[-1] for H in problem.blocks])
        spans = [slice(end - H.shape[-1], end) for H, end in zip(problem.blocks, ends)]
        whole = np.zeros((len(problem.blocks[0]), ends[-1], ends[-1]))
        for H, s in zip(problem.blocks, spans):
            whole[:, s, s] = H
        poison(whole, len(calls))
        for H, s in zip(problem.blocks, spans):
            H[...] = whole[:, s, s]
        calls.append(len(whole))
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


def test_failed_inverted_trials_dropped_and_counted(feeder60, seven_trial_chunks,
                                                    monkeypatch):
    # the twin of the above on blocks of INVERT_ROWS rows or more: a NaN in
    # one trial's 70-row block inverts to non-finite values, a zeroed row
    # in another's is an exactly singular getrf (info > 0)
    net, Y, state, polar, yu = feeder60
    cfg = MCConfig(n_trials=20, seed=9, polar=polar, yu=yu, store_trials=True)
    clean = run_monte_carlo(net, Y, state, cfg)

    def poison(H, call):
        if call == 1:  # trials 7-13
            H[1, 5, 3] = np.nan  # rows and columns 0-69 are the 70-row block
            H[4, 10] = 0.0

    calls = poisoned_assembly(monkeypatch, poison)
    solved = []  # each block's solutions, (rows, a copy), as the solve leaves them
    solve = montecarlo._solve

    def recorded(H, signs):
        x = solve(H, signs)
        solved.append((H.shape[-1], x.copy()))
        return x

    monkeypatch.setattr(montecarlo, "_solve", recorded)
    out = run_monte_carlo(net, Y, state, cfg)
    assert calls == [7, 7, 6]
    # trial 4's 70-row block is singular inside the buffer it is inverted
    # in: getrf stops there and the trial's block is NaN in place; the
    # other trials of that stack, and the next chunk's, which reuses the
    # buffer, invert to finite values
    big = [x for rows, x in solved if rows == 70]
    assert np.isnan(big[1][4]).all()
    assert all(np.isfinite(big[1][j]).all() for j in (0, 2, 3, 5, 6))
    assert np.isfinite(big[2]).all()
    assert out.trials_failed == 2
    kept = np.delete(clean.trials, [8, 11], axis=-1)
    assert out.trials.tobytes() == kept.tobytes()
    _, std = estimate_stats(kept)
    np.testing.assert_allclose(out.std, std, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("network, value",
                         [("ieee4", 0.0), ("ieee4", np.nan),
                          ("feeder60", 0.0), ("feeder60", np.nan)],
                         ids=["0.0", "nan", "feeder60-0.0", "feeder60-nan"])
def test_all_trials_failed_raises(request, seven_trial_chunks, monkeypatch, network, value):
    # ieee4's one block of 6 rows is solved batched, feeder60's blocks of 70
    # and 46 rows are inverted
    if network == "ieee4":
        net, Y, state, polar, yu = mc_setup(request.getfixturevalue("ieee4_solved"))
    else:
        net, Y, state, polar, yu = request.getfixturevalue("feeder60")

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
    d = montecarlo._draws(montecarlo._stream_states(cfg.seed, [trial]), 2 * m)
    target = montecarlo._perturb_voltages(state.voltages, cfg.polar, d[:, :m], d[:, m:])
    hits = []

    def assemble(Ym, E, network, *order):
        problem = assemble_from_raw(Ym, E, network, *order)
        hit = (E == target).all(axis=-1)
        for H in problem.blocks:
            H[hit] = 0.0
        hits.append(int(hit.sum()))
        return problem

    monkeypatch.setattr(montecarlo, "assemble_from_raw", assemble)
    return hits


# the pass solves trials 14-20 as one chunk for the 60-trial sets, of
# which the 20-trial sets read 14-19: trial 15 fails inside their part of
# the chunk, trial 20 outside it
@pytest.mark.parametrize("poison", [None, 15, 20],
                         ids=["clean", "singular-read-trial", "singular-trial"])
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
    if poison is not None:
        hits = poisoned_trial(monkeypatch, net, state, cfgs[0], poison)
    shared = run_monte_carlo_sets(net, Y, state, cfgs)
    if poison is not None:
        assert sum(hits) == 3  # once per level
    for cfg, got in zip(cfgs, shared):
        alone = run_monte_carlo(net, Y, state, cfg)
        assert got.n_trials == cfg.n_trials
        failed = int(poison is not None and cfg.n_trials > poison)
        assert got.trials_failed == alone.trials_failed == failed
        assert np.array_equal(got.trials, alone.trials)
        assert np.array_equal(got.mean, alone.mean)
        assert np.array_equal(got.std, alone.std)


@pytest.mark.parametrize("mode", MODES)
def test_a_chunk_no_set_of_a_level_reads_is_not_solved_at_it(ieee4_solved, seven_trial_chunks,
                                                              monkeypatch, mode):
    # the 0.5 % level's one set has 7 trials and the 2 % level's 20: trials
    # 7-13 and 14-19 are solved at the 2 % level alone
    net, Y, state, polar, _ = mc_setup(ieee4_solved)
    levels = [AdmittanceUncertainty.from_relative(Y, lvl) for lvl in (0.5, 2.0)]
    cfgs = [MCConfig(n_trials=n, seed=7, polar=polar, yu=yu, symmetry_mode=mode,
                     store_trials=True)
            for yu, n in zip(levels, (7, 20))]
    solved = []
    solve_level = montecarlo._solve_level

    def recorded(network, Ym, E_k, noise, yu, *rest):
        solved.append((levels.index(yu), len(noise)))
        return solve_level(network, Ym, E_k, noise, yu, *rest)

    monkeypatch.setattr(montecarlo, "_solve_level", recorded)
    shared = run_monte_carlo_sets(net, Y, state, cfgs)
    assert solved == [(0, 7), (1, 7), (1, 7), (1, 6)]
    for cfg, got in zip(cfgs, shared):
        alone = run_monte_carlo(net, Y, state, cfg)
        assert got.trials.tobytes() == alone.trials.tobytes()
        assert got.mean.tobytes() == alone.mean.tobytes()
        assert got.std.tobytes() == alone.std.tobytes()


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
            got = montecarlo._draws(montecarlo._stream_states(seed, trials), width)
            assert np.array_equal(got, reference_draws(seed, trials, width))
        # the words each trial's generator seeds from
        words = [np.random.SeedSequence((seed, k)).generate_state(4, np.uint64) for k in trials]
        assert np.array_equal(montecarlo._stream_states(seed, trials), words)


@pytest.mark.parametrize("rows_held", [1, 3, 7])
def test_kept_draws_are_the_rows_columns(ieee4, rows_held):
    # drawn into a buffer of 1, 3 (a split inside the 7-trial chunk) and 7
    # rows, the kept columns are bitwise those of the whole rows, at the
    # widths of both modes
    three_phase = make_three_phase_balanced()
    states = montecarlo._stream_states(5, range(250, 257))
    rng = np.random.default_rng(2)
    for width in mode_widths(ieee4) | mode_widths(three_phase):
        keep = np.sort(rng.choice(width, size=width // 3, replace=False))
        buffer = np.full(rows_held * width + width // 2, np.nan)
        got = montecarlo._draws(states, width, keep, buffer)
        assert got.tobytes() == montecarlo._draws(states, width)[:, keep].tobytes()


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

    def counted(seed, trials):
        streams.extend(trials)
        return stream_states(seed, trials)

    stream_states = montecarlo._stream_states
    monkeypatch.setattr(montecarlo, "_stream_states", counted)
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


@pytest.fixture(scope="module")
def feeder60():
    """``make_feeder(60, 1)`` solved, with its 1 % admittance noise: dim H 118."""
    net = make_feeder(60, 1)
    Y = build_admittance(net)
    polar = it_class_to_polar("0.5")
    return net, Y, pfsc.solve_load_flow(net, Y), polar, AdmittanceUncertainty.from_relative(Y, 1.0)


@pytest.mark.parametrize("mode", MODES)
def test_chunk_size_keeps_trials_and_moments(feeder60, monkeypatch, mode):
    """Chunks of 37 trials (4 MiB at dim H 118), 9 (1 MiB) and 7 store the
    same trials bitwise; the streamed moments merge other groups, so they
    agree to rounding: a std within 1e-13 of itself, a mean within 1e-13 of
    its own size or of the std, whichever is larger (a mean near zero holds
    rounding of the trials' spread)."""
    net, Y, state, polar, yu = feeder60
    cfg = MCConfig(n_trials=40, seed=5, polar=polar, yu=yu, symmetry_mode=mode,
                   store_trials=True)
    runs = []
    for chunk_bytes, size in ((4 * 2**20, 37), (2**20, 9)):
        monkeypatch.setattr(montecarlo, "CHUNK_BYTES", chunk_bytes)
        assert montecarlo._chunk_trials(118) == size
        runs.append(run_monte_carlo(net, Y, state, cfg))
    monkeypatch.setattr(montecarlo, "_chunk_trials", lambda dim: 7)
    runs.append(run_monte_carlo(net, Y, state, cfg))
    first = runs[0]
    for other in runs[1:]:
        assert np.array_equal(other.trials, first.trials)
        scale = np.maximum(np.abs(first.mean), first.std)
        assert np.all(np.abs(other.mean - first.mean) <= 1e-13 * scale)
        np.testing.assert_allclose(other.std, first.std, rtol=1e-13, atol=0.0)


def test_full_table_monte_carlo_peak_memory(feeder60):
    """One 200-trial pass at dim H 118, the Monte-Carlo set of a 60-bus
    full-table report, peaks at about 0.87 MB under ``tracemalloc`` in
    chunks of 9 trials (the 1 MiB of a dense H stack), each solved and
    merged block by block, with only the normals its level reads kept of
    each chunk's draw rows."""
    net, Y, state, polar, yu = feeder60
    cfg = MCConfig(n_trials=200, seed=3, polar=polar, yu=yu)
    run_monte_carlo_sets(net, Y, state, [replace(cfg, n_trials=1)])  # lazy set-up
    peak = traced_peak(lambda: run_monte_carlo_sets(net, Y, state, [cfg]))
    assert peak <= 2.2e6, peak


def test_block_stack_monte_carlo_peak_memory(feeder60):
    """The pass of ``test_full_table_monte_carlo_peak_memory`` holds only
    the diagonal blocks of each chunk's H, 7,020 of its 13,924 entries a
    trial, in one buffer that every chunk reuses, and inverts its blocks
    of 70 and 46 rows in that buffer: it peaks at about 0.87 MB under
    ``tracemalloc``, where a dense stack of H and a solution stack beside
    it peaked at 1.96 MB."""
    net, Y, state, polar, yu = feeder60
    cfg = MCConfig(n_trials=200, seed=3, polar=polar, yu=yu)
    run_monte_carlo_sets(net, Y, state, [replace(cfg, n_trials=1)])  # lazy set-up
    peak = traced_peak(lambda: run_monte_carlo_sets(net, Y, state, [cfg]))
    assert peak <= 1.6e6, peak


def test_stored_trials_peak_memory(feeder60):
    """The pass of ``test_full_table_monte_carlo_peak_memory`` with
    ``store_trials`` holds its 22.3 MB trial store once, each chunk's
    blocks written into their rows and columns in network order: it
    peaks at about 23.2 MB under ``tracemalloc``, well below a second
    copy of the store."""
    net, Y, state, polar, yu = feeder60
    cfg = MCConfig(n_trials=200, seed=3, polar=polar, yu=yu, store_trials=True)
    run_monte_carlo_sets(net, Y, state, [replace(cfg, n_trials=1)])  # lazy set-up
    peak = traced_peak(lambda: run_monte_carlo_sets(net, Y, state, [cfg]))
    assert peak <= 40e6, peak


def test_one_buffer_monte_carlo_peak_memory(feeder60):
    """The pass of ``test_full_table_monte_carlo_peak_memory`` keeps only
    the normals its level reads and holds each trial's Y as its entries on
    the pattern: no array as wide as m² a trial but its one buffer, in
    which the chunk's draw rows, its dense Y for K = Y E and its blocks of
    H take turns.  It peaks at about 0.87 MB under ``tracemalloc``, where
    a dense Y stack and whole draw rows per chunk peaked at 1.41 MB."""
    net, Y, state, polar, yu = feeder60
    cfg = MCConfig(n_trials=200, seed=3, polar=polar, yu=yu)
    run_monte_carlo_sets(net, Y, state, [replace(cfg, n_trials=1)])  # lazy set-up
    peak = traced_peak(lambda: run_monte_carlo_sets(net, Y, state, [cfg]))
    assert peak <= 1.15e6, peak


# -- independent blocks of H ---------------------------------------------------


def two_feeder_three_phase():
    """The three-phase fixture's buses on two feeders off the slack, 1-2-3
    and 1-4, with mutually coupled phases."""
    base = make_three_phase_balanced()
    z = [br.z_ohm for br in base.branches]
    branches = (Branch(1, 2, z[0]), Branch(2, 3, z[1]), Branch(1, 4, z[2]))
    return replace(base, branches=branches)


def cancelled_stamp():
    """Buses 2 and 3 off the slack, joined by two parallel branches at
    +-0.1j ohm: their admittances cancel, so Y stores no 2-3 entry, but
    every perturbed stamp fills it and couples the two buses in H."""
    return NetworkModel(
        buses=(Bus(1, "slack"), Bus(2, "pq", (50.0,), (10.0,)), Bus(3, "pq", (30.0,), (5.0,))),
        branches=(Branch(1, 2, complex(0.01, 0.03)), Branch(1, 3, complex(0.01, 0.03)),
                  Branch(2, 3, 0.1j), Branch(2, 3, -0.1j)),
        phase_count=1, slack_bus=1, base_power_va=1e6, base_voltage_v=1e3,
    )


def engine_blocks(monkeypatch, net, Y, state, cfg):
    """The blocks that a pass over ``cfg`` solves, each as the rows of H
    in network order, in the order the engine lays them out."""
    fills = []

    def record(*args):
        fills.append(stack(*args))
        return fills[-1]

    stack = montecarlo.JacobianStack
    monkeypatch.setattr(montecarlo, "JacobianStack", record)
    run_monte_carlo(net, Y, state, cfg)
    (fill,) = fills
    k = np.searchsorted(net.nonslack_flat_indices(), fill.nodes)
    rows = (2 * k[:, None] + [0, 1]).ravel()
    blocks = [rows[s] for s in fill.blocks]
    # the stack's rows and columns of x are those of its nodes
    assert [at[1].tolist() for at in fill.at] == [b.tolist() for b in blocks]
    # ordered by their first node, whatever order the oracle numbers them in
    assert [b[0] for b in blocks] == sorted(b[0] for b in blocks)
    return blocks


PARTITION_FEEDERS = {
    "ieee4": ORACLE_FEEDERS["ieee4"][0],
    "three-phase": make_three_phase_balanced,
    "two-feeder-three-phase": two_feeder_three_phase,
    "mesh12-seed3": ORACLE_FEEDERS["mesh12-seed3"][0],
    "cancelled-stamp": cancelled_stamp,
    "cancelled-term": cancelled_term,
    "cancelled-diagonal": cancelled_diagonal,
    **{f"feeder60-seed{s}": (lambda s=s: make_feeder(60, s)) for s in range(1, 6)},
}


@pytest.mark.parametrize("noise", ["relative", "dense", BRANCH_PARAMETER])
@pytest.mark.parametrize("feeder", sorted(PARTITION_FEEDERS))
def test_blocks_are_the_components_of_the_oracle_H(feeder, noise, monkeypatch):
    # the engine's blocks come from Y's pattern and the noise's; the
    # oracle's from the nonzeros of each trial's dense H
    net = PARTITION_FEEDERS[feeder]()
    Y = build_admittance(net)
    state = pfsc.solve_load_flow(net, Y)
    yu = AdmittanceUncertainty.from_relative(Y, 1.0)
    if noise == "dense":
        sigma = np.abs(Y.matrix) * 0.01 + 1e-3
        yu = AdmittanceUncertainty(sigma, sigma)
    mode = BRANCH_PARAMETER if noise == BRANCH_PARAMETER else INDEPENDENT_ELEMENTS
    cfg = MCConfig(n_trials=3, seed=3, polar=it_class_to_polar("0.5"), yu=yu,
                   symmetry_mode=mode)
    got = engine_blocks(monkeypatch, net, Y, state, cfg)
    for H, _ in oracle_systems(net, Y, state, cfg):
        assert [rows.tolist() for rows in got] == [rows.tolist() for rows in components(H)]
    if noise == "dense":
        assert len(got) == 1
    if net.phase_count > 1:  # every phase of a bus in the block of its phase 0
        flat = np.array(net.nonslack_flat_indices())[np.concatenate(got) // 2]
        bus = flat // net.phase_count
        block = np.repeat(np.arange(len(got)), [len(rows) for rows in got])
        assert all(len(set(block[bus == b])) == 1 for b in set(bus.tolist()))
    if feeder == "two-feeder-three-phase" and noise != "dense":
        assert [len(rows) for rows in got] == [12, 6]


def test_uncoupled_phases_are_blocks_of_their_own(monkeypatch):
    # no mutual impedance: no branch couples two phases, so the stamp
    # writes no cross-phase position and H is a block of 6 rows per phase
    net = make_three_phase_balanced(mutual=0.0)
    Y = build_admittance(net)
    state = pfsc.solve_load_flow(net, Y)
    cfg = MCConfig(n_trials=3, seed=3, polar=it_class_to_polar("0.5"),
                   yu=AdmittanceUncertainty.from_relative(Y, 1.0), symmetry_mode=BRANCH_PARAMETER)
    got = engine_blocks(monkeypatch, net, Y, state, cfg)
    for H, _ in oracle_systems(net, Y, state, cfg):
        assert [rows.tolist() for rows in got] == [rows.tolist() for rows in components(H)]
    assert [len(rows) for rows in got] == [6, 6, 6]


def test_cancelled_stamp_trials_are_the_dense_oracle_loop_bytes():
    # Y lacks the 2-3 entry that every perturbed stamp fills, so the
    # branch-parameter blocks come from the stamp's positions: H is one
    # block, solved whole, and the cross coefficients vary.  Split by Y's
    # positions, the trials were off by up to 3.6e-4 (largest |x| 3.1e-2)
    # and the std of x[0, 2] read 0 where the oracle's is 1.4e-4
    net = cancelled_stamp()
    Y = build_admittance(net)
    assert Y.positions.tolist() == [0, 1, 2, 3, 4, 6, 8]  # no 2-3 entry at 5 or 7
    state = pfsc.solve_load_flow(net, Y)
    cfg = MCConfig(n_trials=50, seed=3, polar=PolarNoiseSpec(0.0, 0.0),
                   yu=AdmittanceUncertainty.from_relative(Y, 1.0),
                   symmetry_mode=BRANCH_PARAMETER, store_trials=True)
    out = run_monte_carlo(net, Y, state, cfg)
    dense = serial_trials(net, Y, state, cfg)
    assert out.trials.tobytes() == dense.tobytes()
    _, std = estimate_stats(dense)
    assert std[0, 2] > 0.0
    np.testing.assert_allclose(out.std, std, rtol=STD_RTOL, atol=0.0)


def test_stamp_writes_the_terms_that_cancel_in_inv_z():
    # the positions come from z's structure: the nominal stamp writes the
    # cancelled terms as zeros, which Y does not store, and a perturbed
    # stack writes the same positions, nonzero there
    net = cancelled_term()
    z = net.branch_table.z_ohm
    positions, nominal = pfsc.network.stamp_admittance(net, z)
    cancelled = np.setdiff1d(positions, build_admittance(net).positions)
    assert len(cancelled) > 0
    at = np.searchsorted(positions, cancelled)
    assert np.all(nominal[at] == 0)
    z_k = z * (1 + 0.01 * np.random.default_rng(4).standard_normal((5,) + z.shape))
    perturbed, y = pfsc.network.stamp_admittance(net, z_k)
    assert np.array_equal(perturbed, positions)
    assert np.all(y[:, at] != 0)


@pytest.mark.parametrize("feeder", sorted(PARTITION_FEEDERS))
def test_branch_pass_takes_its_pattern_from_the_structure(feeder, monkeypatch):
    # stamp_pattern gives the positions the stamp writes, with no stamp
    # values: a branch-parameter pass stamps its trials' perturbed
    # impedances only, stacks with a leading trial axis, and never the
    # network's own
    net = PARTITION_FEEDERS[feeder]()
    z = net.branch_table.z_ohm
    positions, _, _ = pfsc.network.stamp_pattern(net)
    assert np.array_equal(positions, pfsc.network.stamp_admittance(net, z)[0])
    Y = build_admittance(net)
    state = pfsc.solve_load_flow(net, Y)
    stamped = []

    def record(network, z_ohm):
        stamped.append(z_ohm)
        return stamp(network, z_ohm)

    stamp = montecarlo.stamp_admittance
    monkeypatch.setattr(montecarlo, "stamp_admittance", record)
    cfg = MCConfig(n_trials=12, seed=3, polar=it_class_to_polar("0.5"),
                   yu=AdmittanceUncertainty.from_relative(Y, 1.0), symmetry_mode=BRANCH_PARAMETER)
    run_monte_carlo(net, Y, state, cfg)
    assert [z_k.shape[1:] for z_k in stamped] == [z.shape] * len(stamped)
    assert sum(len(z_k) for z_k in stamped) == 12
    assert not any(np.array_equal(z_j, z) for z_k in stamped for z_j in z_k)


@pytest.mark.parametrize("noise", ["relative", "dense", BRANCH_PARAMETER])
@pytest.mark.parametrize("feeder", sorted(PARTITION_FEEDERS) + ["three-phase-uncoupled"])
def test_pattern_fill_with_sub_batched_products_is_the_dense_fill(feeder, noise):
    # five trials' Y as their entries on the pattern, and K = Y E formed a
    # sub-batch of two trials at a time in a buffer, fill every block of
    # the stack with the bytes of the dense stack's fill, which are the
    # oracle's H there; K is the bytes of the whole stack's batched product
    if feeder == "three-phase-uncoupled":
        net = make_three_phase_balanced(mutual=0.0)
    else:
        net = PARTITION_FEEDERS[feeder]()
    Y = build_admittance(net)
    E = pfsc.solve_load_flow(net, Y).voltages
    m = net.n_nodes
    rng = np.random.default_rng(4)
    E_k = E + 1e-3 * (rng.standard_normal((5, m)) + 1j * rng.standard_normal((5, m)))
    if noise == BRANCH_PARAMETER:
        z = net.branch_table.z_ohm
        z_k = z * (1 + 0.01 * rng.standard_normal((5,) + z.shape))
        positions, y = pfsc.network.stamp_admittance(net, z_k)
    else:
        sigma = np.abs(Y.matrix) * 0.01 + (1e-3 if noise == "dense" else 0.0)
        positions = np.union1d(Y.positions, AdmittanceUncertainty(sigma, sigma).positions)
        y = Y.take(positions) + 0.01 * (rng.standard_normal((5, len(positions)))
                                        + 1j * rng.standard_normal((5, len(positions))))
    fill = pfsc.loadflow.JacobianStack(positions, net.nonslack_flat_indices(), m)
    Ym = pfsc.network.dense(positions, y, m)
    buffer = np.full(2 * (2 * m * m) + 3, np.nan)
    K = montecarlo._products(positions, y, E_k, fill.nodes, buffer)
    assert K.tobytes() == (Ym @ E_k[..., None])[..., fill.nodes, 0].tobytes()
    oracle = jacobian(Ym, E_k, fill.nodes)
    for got, want, s in zip(fill.on_pattern(y, E_k, K), fill(Ym, E_k), fill.blocks):
        assert got.tobytes() == want.tobytes()
        assert got.tobytes() == (oracle[:, s, s] + 0.0).tobytes()


@pytest.fixture
def stacks_made(monkeypatch):
    """The positions each ``JacobianStack`` is laid out for, in order."""
    made = []
    init = pfsc.loadflow.JacobianStack.__init__

    def counted(self, positions, nonslack, m, *sizes):
        made.append(positions.tolist())
        init(self, positions, nonslack, m, *sizes)

    monkeypatch.setattr(pfsc.loadflow.JacobianStack, "__init__", counted)
    return made


def test_a_report_pass_lays_out_one_stack(stacks_made):
    # the README's ieee4 report runs 3 levels of 100 and 1000 trials in
    # chunks of 256, 12 level chunks; its levels share Y's positions, so
    # one stack fills them all
    report = pfsc.run_pipeline(pfsc.RunConfig(network=str(pfsc.bundled_network_path()),
                                              n_mc=(100, 1000), sigma_y_pct=(0.5, 1.0, 2.0)))
    assert len(report.mc) == 6
    Y = build_admittance(pfsc.load_network(pfsc.bundled_network_path()))
    assert stacks_made == [Y.positions.tolist()]


@pytest.mark.parametrize("mode", MODES)
def test_a_pass_lays_out_one_stack_per_noise_pattern(stacks_made, mode):
    # element stds on every position are a noise pattern of their own;
    # in branch-parameter mode the pattern is every position the stamp
    # writes, a superset of Y's where the parallel branches cancel
    net = cancelled_stamp()
    Y = build_admittance(net)
    state = pfsc.solve_load_flow(net, Y)
    levels = [AdmittanceUncertainty.from_relative(Y, lvl) for lvl in (0.5, 1.0, 2.0)]
    if mode == INDEPENDENT_ELEMENTS:
        levels.insert(1, AdmittanceUncertainty(np.full((3, 3), 1e-3), np.full((3, 3), 1e-3)))
    run_monte_carlo_sets(net, Y, state, [
        MCConfig(n_trials=300, seed=1, polar=it_class_to_polar("0.5"), yu=yu,
                 symmetry_mode=mode) for yu in levels])
    if mode == INDEPENDENT_ELEMENTS:
        assert stacks_made == [Y.positions.tolist(), list(range(9))]
    else:
        assert stacks_made == [list(range(9))]  # Y lacks the 2-3 entries 5 and 7


@pytest.mark.parametrize("mode", MODES)
def test_levels_on_equal_positions_share_one_stack(ieee4_solved, stacks_made, mode):
    # noise on Y's positions, on another build's equal positions and on
    # none (the zero level) is one noise pattern in either mode; the levels
    # on equal positions share one gather of the element noise
    net, Y, state = ieee4_solved
    levels = [AdmittanceUncertainty.from_relative(Y, 1.0),
              AdmittanceUncertainty.from_relative(build_admittance(net), 2.0),
              AdmittanceUncertainty.zero(net.n_nodes)]
    cfgs = [MCConfig(n_trials=20, seed=1, polar=it_class_to_polar("0.5"), yu=yu,
                     symmetry_mode=mode, store_trials=True) for yu in levels]
    shared = run_monte_carlo_sets(net, Y, state, cfgs)
    assert len(stacks_made) == 1
    for cfg, got in zip(cfgs, shared):
        assert np.array_equal(got.trials, run_monte_carlo(net, Y, state, cfg).trials)


def test_a_singular_block_drops_its_trial_once(feeder60, seven_trial_chunks, monkeypatch):
    # the first row of trial 10 zeroed: its 70-row block alone is singular,
    # so getrf reports it when that block is inverted trial by trial, and
    # the other blocks of the trial solve
    net, Y, state, polar, yu = feeder60
    cfg = MCConfig(n_trials=14, seed=2, polar=polar, yu=yu, store_trials=True)
    clean = run_monte_carlo(net, Y, state, cfg)

    def poison(H, call):
        if call == 1:  # trials 7-13
            H[3, 0] = 0.0

    calls = poisoned_assembly(monkeypatch, poison)
    out = run_monte_carlo(net, Y, state, cfg)
    assert calls == [7, 7]
    assert out.trials_failed == 1
    kept = np.delete(clean.trials, 10, axis=-1)
    assert out.trials.tobytes() == kept.tobytes()
    _, std = estimate_stats(kept)
    np.testing.assert_allclose(out.std, std, rtol=1e-12, atol=0.0)


def test_moments_and_trials_are_kept_per_block(feeder60, monkeypatch):
    # each chunk merges the 70, 46 and 2 rows of its blocks, sum d_b^2 =
    # 7020 entries a trial where H has 118^2 = 13924; off the blocks the
    # mean, the std and every stored trial are +0.0, with no sign bit
    net, Y, state, polar, yu = feeder60
    merged = []
    add = montecarlo._Moments.add

    def recorded(self, x, *spend):
        merged.append(x.shape)
        return add(self, x, *spend)

    monkeypatch.setattr(montecarlo._Moments, "add", recorded)
    cfg = MCConfig(n_trials=20, seed=3, polar=polar, yu=yu, store_trials=True)
    out = run_monte_carlo(net, Y, state, cfg)
    # each block merged as a row of d^2 values a trial
    assert merged == [(k, d * d) for k in (9, 9, 2) for d in (70, 46, 2)]
    H, _ = next(oracle_systems(net, Y, state, cfg))
    inside = np.zeros(H.shape, dtype=bool)
    for rows in components(H):
        inside[np.ix_(rows, rows)] = True
    assert np.count_nonzero(inside) == 70**2 + 46**2 + 2**2
    for table in (out.mean, out.std, out.trials):
        off = table[~inside]
        assert not off.any() and not np.signbit(off).any()
    assert np.all(out.std[inside] > 0)


@pytest.mark.parametrize("mode", MODES)
def test_shared_pass_equals_separate_runs_on_a_decoupled_feeder(feeder60, seven_trial_chunks,
                                                                 mode):
    net, Y, state, polar, _ = feeder60
    sigma = np.abs(Y.matrix) * 0.01 + 1e-3  # dense noise: one block at its level
    levels = [AdmittanceUncertainty.from_relative(Y, lvl) for lvl in (0.5, 2.0)]
    if mode == INDEPENDENT_ELEMENTS:
        levels.append(AdmittanceUncertainty(sigma, sigma))
    cfgs = [MCConfig(n_trials=n, seed=7, polar=polar, yu=yu, symmetry_mode=mode,
                     store_trials=True)
            for yu in levels for n in (5, 12)]
    shared = run_monte_carlo_sets(net, Y, state, cfgs)
    for cfg, got in zip(cfgs, shared):
        alone = run_monte_carlo(net, Y, state, cfg)
        assert got.trials.tobytes() == alone.trials.tobytes()
        assert got.mean.tobytes() == alone.mean.tobytes()
        assert got.std.tobytes() == alone.std.tobytes()


def solve_shapes(monkeypatch):
    """Record the shape of every matrix stack ``np.linalg.solve`` gets,
    (k, d, d), and of every matrix the engine's LAPACK ``getrf`` factors,
    (d, d)."""
    shapes = []

    def recorded(a, b):
        shapes.append(a.shape)
        return solve(a, b)

    def factored(a, *args, **kwargs):
        shapes.append(a.shape)
        return getrf(a, *args, **kwargs)

    solve, getrf = np.linalg.solve, montecarlo.dgetrf
    monkeypatch.setattr(np.linalg, "solve", recorded)
    monkeypatch.setattr(montecarlo, "dgetrf", factored)
    return shapes


def block_calls(k, sizes, inverted):
    """The shapes ``solve_shapes`` records for a chunk of k trials: one
    factorisation per trial of each block whose size is in ``inverted``,
    one batched solve of each other block."""
    return [shape for d in sizes
            for shape in ([(d, d)] * k if d in inverted else [(k, d, d)])]


def test_big_blocks_are_inverted_in_their_stack(feeder60, monkeypatch):
    # every block is solved into the chunk's stack, which every chunk
    # reuses: each solution is the view of its block, filled with the
    # bytes of invert_and_sign of each trial's block for the blocks of 70
    # and 46 rows, and with those of the batched solve for the 2-row one
    net, Y, state, polar, yu = feeder60
    stacks, solved = [], []

    def assemble(Ym, E, network, *rest):
        system = assemble_from_raw(Ym, E, network, *rest)
        stacks.append(system.blocks)
        return system

    solve = montecarlo._solve

    def recorded(H, signs):
        filled = H.copy()
        x = solve(H, signs)
        assert x is H and any(H is block for block in stacks[-1])
        solved.append((filled, x.copy(), signs))
        return x

    monkeypatch.setattr(montecarlo, "assemble_from_raw", assemble)
    monkeypatch.setattr(montecarlo, "_solve", recorded)
    run_monte_carlo(net, Y, state, MCConfig(n_trials=20, seed=3, polar=polar, yu=yu))
    assert [[H.shape for H in blocks] for blocks in stacks] == [
        [(k, d, d) for d in (70, 46, 2)] for k in (9, 9, 2)]
    assert all(np.shares_memory(blocks[0], stacks[0][0]) for blocks in stacks)
    assert len(solved) == 9
    for H, x, signs in solved:
        if H.shape[-1] >= montecarlo.INVERT_ROWS:
            for H_j, x_j in zip(H, x):
                assert x_j.tobytes() == invert_and_sign(H_j, np.diag(signs)).tobytes()
        else:
            assert x.tobytes() == np.linalg.solve(H, np.diag(signs)).tobytes()


def test_decoupled_feeder_solves_no_whole_H(feeder60, monkeypatch):
    # each chunk of 9 trials inverts the 70 and 46 rows of its two big
    # blocks trial by trial and solves the 2 rows of the third batched: a
    # fallback to the dense solve would show a 118 x 118 system
    net, Y, state, polar, yu = feeder60
    shapes = solve_shapes(monkeypatch)
    run_monte_carlo(net, Y, state, MCConfig(n_trials=20, seed=3, polar=polar, yu=yu))
    assert shapes == [call for k in (9, 9, 2) for call in block_calls(k, (70, 46, 2), (70, 46))]


@pytest.mark.parametrize("rows, inverted", [(46, (70, 46)), (47, (70,))])
def test_blocks_of_invert_rows_and_more_are_inverted(feeder60, monkeypatch, rows, inverted):
    # the 46-row block is inverted at INVERT_ROWS 46 and solved batched at
    # 47; either way its trials are the per-component oracle's bytes
    net, Y, state, polar, yu = feeder60
    monkeypatch.setattr(montecarlo, "INVERT_ROWS", rows)
    shapes = solve_shapes(monkeypatch)
    cfg = MCConfig(n_trials=9, seed=3, polar=polar, yu=yu, store_trials=True)
    got = run_monte_carlo(net, Y, state, cfg).trials
    assert shapes == block_calls(9, (70, 46, 2), inverted)
    assert got.tobytes() == serial_trials(net, Y, state, cfg, solve_per_component).tobytes()


def test_one_block_network_solves_H_whole(ieee4_solved, seven_trial_chunks, monkeypatch):
    # one call per chunk and level, on the whole H
    net, Y, state, polar, yu = mc_setup(ieee4_solved)
    shapes = solve_shapes(monkeypatch)
    cfgs = [MCConfig(n_trials=20, seed=3, polar=polar, yu=y)
            for y in (yu, AdmittanceUncertainty.from_relative(Y, 2.0))]
    run_monte_carlo_sets(net, Y, state, cfgs)
    assert shapes == [(k, 6, 6) for k in (7, 7, 6) for _ in cfgs]


def standard_normals(seed):
    """test_seeded_normal_std's sample: one row of 10^4 standard normals."""
    return np.random.default_rng(seed).normal(0.0, 1.0, (1, 10**4))


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
        _, std = estimate_stats(standard_normals(11))
        assert std[0] == pytest.approx(1.0, rel=0.03)

    def test_too_few_trials(self):
        with pytest.raises(ValueError, match="at least 2"):
            estimate_stats(np.ones((3, 1)))


def qq_sample(seed, law):
    """TestQQ's 10^5 draws at ``seed``: normal(3, 2), or for ``law``
    "uniform" the uniform on [0, 1) that the check must flag."""
    rng = np.random.default_rng(seed)
    if law == "uniform":
        return rng.uniform(0.0, 1.0, 10**5)
    return rng.normal(3.0, 2.0, 10**5)


def noisy_voltage(seed):
    """10^5 IT-1.0 noisy voltages of ieee4's bus 4, drawn at ``seed``."""
    net, _, state, _, _ = ieee4_case()
    polar = it_class_to_polar("1.0")
    E = state.voltages[net.flat_index(4)]
    return sample_polar_voltage(
        np.random.default_rng(seed), abs(E), np.angle(E), polar.sigma_rho,
        polar.sigma_theta, 10**5,
    )


class TestQQ:
    def test_normal_input(self):
        report = qq_normality_check(qq_sample(42, "normal"))
        assert report.correlation >= 0.999
        assert report.looks_normal

    def test_uniform_input_flagged(self):
        report = qq_normality_check(qq_sample(42, "uniform"))
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

    def test_noisy_voltage_parts_look_normal(self):
        # real/imag parts of the polar-noise-perturbed voltages
        noisy = noisy_voltage(8)
        assert qq_normality_check(noisy.real).looks_normal
        assert qq_normality_check(noisy.imag).looks_normal
