import math

import numpy as np
import pytest

from bellcert import (
    Distribution,
    OptimizerControls,
    Scenario,
    ScenarioMismatchError,
    SizeLimitError,
    kl_divergence,
    kl_project_lr,
    log_gain,
    maximize_log_gain,
    mixture_distribution,
    sample_encoded,
    standardize,
    strategy_result_indices,
    chsh_functional,
    uniform_outcome_distribution,
)

from bellcert.optim import DEFAULT_CONTROLS, LOCKSTEP_ROWS, _dots, _multiplicative_update, _project_rows
from oracles import (
    _squarem_em_reference,
    enumerate_strategy_distributions,
    golden_section_max,
    kl_project_lr_reference,
    kl_project_lr_squarem_reference,
    maximize_log_gain_reference,
    maximize_log_gain_squarem_reference,
    projected_gradient_kl,
)


def _chsh_columns(scenario):
    r = standardize(chsh_functional(scenario)).table
    return np.column_stack([np.ones(16), r])


def test_log_gain_trivial_weights(chsh_scenario):
    r = _chsh_columns(chsh_scenario)
    f = np.full(16, 1.0 / 16.0)
    assert log_gain(np.array([1.0, 0.0]), r, f) == 0.0


def test_log_gain_single_point():
    r = np.array([[1.0, 2.0]])
    assert log_gain(np.array([0.0, 1.0]), r, np.array([1.0])) == pytest.approx(1.0)


def test_log_gain_zero_mix_signal():
    r = np.array([[1.0, 0.0], [1.0, 2.0]])
    f = np.array([0.5, 0.5])
    assert log_gain(np.array([0.0, 1.0]), r, f) == -math.inf


def test_log_gain_input_errors():
    with pytest.raises(ValueError):
        log_gain(np.array([1.0]), np.array([[1.0, 1.0]]), np.array([1.0]))
    with pytest.raises(ValueError):
        log_gain(np.array([1.0, 0.0]), np.array([[1.0, -0.1]]), np.array([1.0]))
    with pytest.raises(ValueError):
        log_gain(np.array([1.0, 0.0]), np.array([[1.0, 1.0]]), np.array([0.7]))


def test_maximize_single_function():
    opt = maximize_log_gain(np.ones((4, 1)), np.full(4, 0.25))
    assert opt.weights.tolist() == [1.0]
    assert opt.gain == 0.0
    assert opt.converged


def test_maximize_lr_frequencies_gain_zero(chsh_scenario):
    # uniform outcomes are LR-achievable, so no weighting can gain
    r = _chsh_columns(chsh_scenario)
    f = np.full(16, 1.0 / 16.0)
    opt = maximize_log_gain(r, f)
    assert opt.converged
    assert -1e-6 <= opt.gain <= 1e-10


def test_maximize_point_mass_goes_all_in(chsh_scenario):
    # freq concentrated on a result with r = 4/3: objective is monotone in w2
    r = np.array([[1.0, 4.0 / 3.0]])
    f = np.array([1.0])
    opt = maximize_log_gain(r, f, OptimizerControls(rel_tolerance=1e-13))
    assert opt.gain == pytest.approx(math.log2(4.0 / 3.0), abs=1e-6)
    assert opt.weights[1] > 0.999


def test_maximize_requires_trivial_column():
    with pytest.raises(ValueError):
        maximize_log_gain(np.array([[0.5, 1.0]]), np.array([1.0]))
    # the 1e-12 limit is absolute: 5e-6 off is not the trivial column
    with pytest.raises(ValueError):
        maximize_log_gain(np.array([[1.0 + 5e-6, 1.0]]), np.array([1.0]))


def test_maximize_monotone_in_iterations(chsh_q):
    # the multiplicative update never decreases the objective
    r = _chsh_columns(chsh_q.scenario)
    f = chsh_q.probs
    gains = [
        maximize_log_gain(r, f, OptimizerControls(max_iterations=i, rel_tolerance=1e-16)).gain
        for i in range(1, 25)
    ]
    for a, b in zip(gains, gains[1:]):
        assert b >= a - 1e-12


def test_maximize_simplex_preserved():
    rng = np.random.default_rng(0)
    for _ in range(20):
        n, m = rng.integers(2, 12), rng.integers(2, 5)
        r = np.column_stack([np.ones(n), rng.uniform(0.0, 2.0, size=(n, m - 1))])
        f = rng.dirichlet(np.ones(n))
        opt = maximize_log_gain(r, f)
        assert np.all(opt.weights >= 0.0)
        assert opt.weights.sum() == pytest.approx(1.0, abs=1e-12)


def test_maximize_matches_golden_section():
    rng = np.random.default_rng(42)
    for _ in range(10):
        n = rng.integers(2, 10)
        r = np.column_stack([np.ones(n), rng.uniform(0.0, 3.0, size=n)])
        f = rng.dirichlet(np.ones(n))

        def objective(w):
            mix = (1.0 - w) + w * r[:, 1]
            if np.any(mix <= 0.0):
                return -math.inf
            return float(np.dot(f, np.log2(mix)))

        _, best = golden_section_max(objective, 0.0, 1.0)
        opt = maximize_log_gain(r, f, OptimizerControls(rel_tolerance=1e-13))
        assert opt.gain == pytest.approx(best, abs=1e-6)


def test_maximize_nonconvergence_flagged(chsh_q):
    r = _chsh_columns(chsh_q.scenario)
    opt = maximize_log_gain(r, chsh_q.probs, OptimizerControls(max_iterations=2, rel_tolerance=1e-16))
    assert not opt.converged


def test_kl_divergence_cases(chsh_scenario):
    uni = uniform_outcome_distribution(chsh_scenario)
    assert kl_divergence(uni, uni) == 0.0
    point = np.zeros(16)
    point[5] = 1.0
    q = Distribution(chsh_scenario, point, empirical=True)
    assert kl_divergence(q, uni) == pytest.approx(4.0)  # log2(16)
    hole = np.full(16, 1.0 / 15.0)
    hole[5] = 0.0
    p = Distribution(chsh_scenario, hole, empirical=True)
    assert kl_divergence(q, p) == math.inf
    with pytest.raises(ScenarioMismatchError):
        kl_divergence(q, uniform_outcome_distribution(Scenario(2, 2, 3)))
    # equal result-space sizes (36) do not make two scenarios one
    with pytest.raises(ScenarioMismatchError):
        kl_divergence(uniform_outcome_distribution(Scenario(2, 3, 2)), uniform_outcome_distribution(Scenario(2, 2, 3)))


def test_kl_project_lr_achievable(chsh_scenario):
    uni = uniform_outcome_distribution(chsh_scenario)
    # membership witness: the uniform strategy mixture reproduces it exactly
    assert np.allclose(mixture_distribution(chsh_scenario, np.full(16, 1 / 16)).probs, uni.probs)
    proj = kl_project_lr(uni)
    assert proj.converged
    assert proj.divergence == pytest.approx(0.0, abs=1e-6)


def test_kl_project_point_mass(chsh_scenario):
    # projecting a point mass maximizes p(x) over the polytope: a vertex does it
    point = np.zeros(16)
    point[3] = 1.0
    q = Distribution(chsh_scenario, point, empirical=True)
    table = enumerate_strategy_distributions(2, 2, 2)
    target = -math.log2(table[:, 3].max())
    proj = kl_project_lr(q)
    assert proj.divergence == pytest.approx(target, abs=1e-6)
    assert target == pytest.approx(2.0)


def test_kl_project_quantum(cglmp3_q):
    proj = kl_project_lr(cglmp3_q)
    assert proj.converged
    assert proj.divergence == pytest.approx(0.0675, abs=2e-3)
    assert proj.distribution.probs.sum() == pytest.approx(1.0, abs=1e-12)
    # projected mixture is a genuine model distribution (marginals exact)
    marg = proj.distribution.probs.reshape(4, 9).sum(axis=1)
    assert np.allclose(marg, 0.25, atol=1e-9)


def test_kl_project_monotone(cglmp3_q):
    divs = [
        kl_project_lr(cglmp3_q, controls=OptimizerControls(max_iterations=i, rel_tolerance=1e-16)).divergence
        for i in range(1, 20)
    ]
    for a, b in zip(divs, divs[1:]):
        assert b <= a + 1e-12


def test_kl_project_matches_projected_gradient(chsh_scenario):
    rng = np.random.default_rng(123)
    table = enumerate_strategy_distributions(2, 2, 2)
    for _ in range(5):
        q = Distribution(chsh_scenario, rng.dirichlet(np.ones(16)), empirical=True)
        oracle_div, _ = projected_gradient_kl(q.probs, table)
        proj = kl_project_lr(q, controls=OptimizerControls(max_iterations=300_000, rel_tolerance=1e-13))
        assert proj.divergence == pytest.approx(oracle_div, abs=1e-6)


def test_kl_project_cap():
    with pytest.raises(SizeLimitError):
        kl_project_lr(uniform_outcome_distribution(Scenario(2, 2, 40)))


def test_kl_project_nonconvergence_flag(cglmp3_q):
    proj = kl_project_lr(cglmp3_q, controls=OptimizerControls(max_iterations=3, rel_tolerance=1e-16))
    assert not proj.converged


# a converged solve is within log2(1 + gap) <= gap / ln 2 bits of the optimum
GAP_BITS = DEFAULT_CONTROLS.rel_tolerance / math.log(2.0)


def _random_gain_problem(seed):
    rng = np.random.default_rng(seed)
    n_points, n_functions = 30, 6
    r = np.column_stack([np.ones(n_points), rng.random((n_points, n_functions - 1)) * 3.0])
    freq = rng.dirichlet(np.ones(n_points)) * (rng.random(n_points) < 0.6)
    return r, freq / freq.sum()


BUDGETS = [None, 1, 2, 50]


def _controls_for(budget):
    return OptimizerControls() if budget is None else OptimizerControls(max_iterations=budget)


@pytest.mark.parametrize("budget", BUDGETS)
@pytest.mark.parametrize("seed", range(4))
def test_maximize_within_the_gap_of_the_reference_optimum(seed, budget):
    r, freq = _random_gain_problem(seed)
    _, optimum, _, reference_converged = maximize_log_gain_reference(r, freq, 1_000_000, 1e-13)
    assert reference_converged
    controls = _controls_for(budget)
    opt = maximize_log_gain(r, freq, controls)
    assert opt.iterations <= controls.max_iterations
    assert opt.gain <= optimum + GAP_BITS
    assert opt.converged or budget is not None
    if opt.converged:
        assert opt.gain >= optimum - GAP_BITS
        # the stop certifies the gap: no weight's update factor exceeds 1 + gap
        assert (r.T @ (freq / (r @ opt.weights))).max() <= 1.0 + controls.rel_tolerance


@pytest.mark.parametrize("budget", BUDGETS)
@pytest.mark.parametrize("seed", range(4))
def test_maximize_bit_identical_to_reference(seed, budget):
    r, freq = _random_gain_problem(seed)
    controls = _controls_for(budget)
    opt = maximize_log_gain(r, freq, controls)
    w, gain, iterations, converged = maximize_log_gain_squarem_reference(
        r, freq, controls.max_iterations, controls.rel_tolerance
    )
    assert np.array_equal(opt.weights, w)
    assert opt.gain == gain
    assert opt.iterations == iterations
    assert opt.converged == converged


def test_maximize_budget_counts_objective_evaluations():
    r, freq = _random_gain_problem(0)
    full = maximize_log_gain(r, freq)
    for budget in range(1, full.iterations):
        opt = maximize_log_gain(r, freq, OptimizerControls(max_iterations=budget))
        assert opt.iterations == budget and not opt.converged
        assert opt.gain <= full.gain


@pytest.fixture(scope="module")
def cglmp3_projection_cases(cglmp3_q):
    """The full protocol's use: floored frequencies of a growing sample, with the best oracle divergence."""
    table = enumerate_strategy_distributions(2, 2, 3)
    indices, setting_w = strategy_result_indices(cglmp3_q.scenario)
    codes = sample_encoded(cglmp3_q, 616, seed=3)
    cases = []
    for n in (308, 462, 616):
        freq = (1.0 - 1e-9) * np.bincount(codes[:n], minlength=36) / n + 1e-9 / 36
        # each oracle's divergence bounds the optimum from above; projected
        # gradient stalls 0.03 bits high on the n = 308 case
        oracle_div = min(
            projected_gradient_kl(freq, table)[0],
            kl_project_lr_reference(freq, indices, setting_w, 1_000_000, 1e-13)[2],
        )
        cases.append((Distribution(cglmp3_q.scenario, freq, empirical=True), oracle_div))
    return cases


@pytest.mark.parametrize("budget", BUDGETS)
def test_kl_project_within_the_gap_of_the_oracle_optimum(cglmp3_projection_cases, budget):
    for q, oracle_div in cglmp3_projection_cases:
        controls = _controls_for(budget)
        proj = kl_project_lr(q, controls=controls)
        assert proj.iterations <= controls.max_iterations
        assert proj.divergence >= oracle_div - GAP_BITS
        assert proj.converged or budget is not None
        if proj.converged:
            assert proj.divergence <= oracle_div + GAP_BITS


def _assert_projection_is_reference(proj, reference):
    lam, probs, div, iterations, converged = reference
    assert np.array_equal(proj.mixture, lam)
    assert np.array_equal(proj.distribution.probs, probs)
    assert proj.divergence == div
    assert proj.iterations == iterations
    assert proj.converged == converged


@pytest.mark.parametrize("budget", BUDGETS)
def test_kl_project_bit_identical_to_reference(cglmp3_projection_cases, budget):
    # the full protocol's use: each block's projection starts cold
    indices, setting_w = strategy_result_indices(cglmp3_projection_cases[0][0].scenario)
    controls = _controls_for(budget)
    for q, _ in cglmp3_projection_cases:
        proj = kl_project_lr(q, controls)
        reference = kl_project_lr_squarem_reference(
            q.probs, indices, setting_w, controls.max_iterations, controls.rel_tolerance
        )
        _assert_projection_is_reference(proj, reference)


def test_kl_project_unreachable_result_is_reference():
    # no strategy reaches joint setting (2, 2): the projection returns at once
    scenario = Scenario(2, 2, 2, np.array([0.5, 0.25, 0.25, 0.0]))
    freq = np.full(16, 1.0 / 16.0)
    proj = kl_project_lr(Distribution(scenario, freq, empirical=True))
    indices, setting_w = strategy_result_indices(scenario)
    _assert_projection_is_reference(proj, kl_project_lr_reference(freq, indices, setting_w))
    assert proj.divergence == math.inf and proj.iterations == 0


def test_controls_validation():
    with pytest.raises(ValueError):
        OptimizerControls(max_iterations=0)
    with pytest.raises(ValueError):
        OptimizerControls(rel_tolerance=0.0)


def _gain_objective(f, mix, ratio):
    return _dots(f, np.log2(mix))


def _run_axis_gain_problem(seed):
    # one function table, enough frequency rows over the same support to step in lockstep
    rng = np.random.default_rng(seed)
    r = np.column_stack([np.ones(30), rng.random((30, 5)) * 3.0])
    return r, rng.dirichlet(np.full(30, 0.3), size=LOCKSTEP_ROWS + 2)


@pytest.mark.parametrize("budget", BUDGETS)
def test_run_axis_gain_rows_equal_single_solves(budget):
    controls = _controls_for(budget)
    steps = []
    for seed in range(3):
        r, freq = _run_axis_gain_problem(seed)
        start = np.full((len(freq), r.shape[1]), 1.0 / r.shape[1])
        w, gain, evaluations, converged = _multiplicative_update(r, freq, start, _gain_objective, controls)
        for i, f in enumerate(freq):
            one = maximize_log_gain(r, f, controls)
            assert np.array_equal(w[i], one.weights)
            assert (gain[i], evaluations[i], converged[i]) == (one.gain, one.iterations, one.converged)
            reference = _squarem_em_reference(
                r, f, start[i], lambda mix: float(np.dot(f, np.log2(mix))), controls.max_iterations,
                controls.rel_tolerance, steps,
            )
            assert np.array_equal(w[i], reference[0])
            assert (gain[i], evaluations[i], converged[i]) == reference[1:]
    if budget is None:
        # the rows took every kind of extrapolation step between them
        assert {"accepted", "rejected", "non-positive"} <= set(steps)


@pytest.mark.parametrize("budget", BUDGETS)
def test_run_axis_projection_rows_equal_single_solves(cglmp3_q, budget):
    # unfloored prefix frequencies: the early rows have supports of their own
    controls = _controls_for(budget)
    codes = sample_encoded(cglmp3_q, 800, seed=3)
    freq = np.array([np.bincount(codes[:n], minlength=36) / n for n in range(100, 801, 50)])
    supports = [tuple(f > 0.0) for f in freq]
    assert len(set(supports)) > 2 and max(map(supports.count, supports)) >= LOCKSTEP_ROWS
    indices, setting_w = strategy_result_indices(cglmp3_q.scenario)
    lam, probs, div, evaluations, converged = _project_rows(freq, indices, setting_w, controls)
    for i, f in enumerate(freq):
        one = kl_project_lr(Distribution(cglmp3_q.scenario, f, empirical=True), controls)
        assert np.array_equal(lam[i], one.mixture) and np.array_equal(probs[i], one.distribution.probs)
        assert (div[i], evaluations[i], converged[i]) == (one.divergence, one.iterations, one.converged)
        reference = kl_project_lr_squarem_reference(f, indices, setting_w, controls.max_iterations, controls.rel_tolerance)
        assert np.array_equal(lam[i], reference[0]) and np.array_equal(probs[i], reference[1])
        assert (div[i], evaluations[i], converged[i]) == reference[2:]


def test_run_axis_unreachable_rows_keep_uniform_weights():
    # no strategy reaches joint setting (2, 2): rows with mass there return at once, the others are solved
    scenario = Scenario(2, 2, 2, np.array([0.5, 0.25, 0.25, 0.0]))
    indices, setting_w = strategy_result_indices(scenario)
    reachable = np.r_[np.full(12, 1.0 / 12.0), np.zeros(4)]
    skewed = np.r_[np.linspace(1.0, 2.0, 12) / np.linspace(1.0, 2.0, 12).sum(), np.zeros(4)]
    freq = np.array([np.full(16, 1.0 / 16.0), reachable, np.r_[np.zeros(15), 1.0], skewed])
    lam, probs, div, evaluations, converged = _project_rows(freq, indices, setting_w, DEFAULT_CONTROLS)
    for i, f in enumerate(freq):
        reference = kl_project_lr_squarem_reference(f, indices, setting_w)
        assert np.array_equal(lam[i], reference[0]) and np.array_equal(probs[i], reference[1])
        assert (div[i], evaluations[i], converged[i]) == reference[2:]
    assert list(div == math.inf) == [True, False, True, False] and min(evaluations[1], evaluations[3]) > 0
