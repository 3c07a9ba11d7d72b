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
    standardize,
    chsh_functional,
    uniform_outcome_distribution,
    value_table,
)

from oracles import enumerate_strategy_distributions, golden_section_max, projected_gradient_kl


def _chsh_columns(scenario):
    r = value_table(standardize(chsh_functional(scenario)))
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


def test_kl_project_warm_start(cglmp3_q):
    cold = kl_project_lr(cglmp3_q)
    warm = kl_project_lr(cglmp3_q, warm_start=cold.mixture)
    assert warm.divergence == pytest.approx(cold.divergence, abs=1e-9)
    assert warm.iterations <= cold.iterations


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


def test_controls_validation():
    with pytest.raises(ValueError):
        OptimizerControls(max_iterations=0)
    with pytest.raises(ValueError):
        OptimizerControls(rel_tolerance=0.0)
