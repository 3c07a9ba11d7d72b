import numpy as np
import pytest

from bellcert import (
    Scenario,
    SizeLimitError,
    TrialResult,
    chsh_functional,
    encode_result,
    enumerate_strategies,
    mixture_distribution,
    no_signaling_functionals,
    strategy_count,
    strategy_distribution,
    strategy_result_indices,
    uniform_outcome_distribution,
    vertex_expectations,
)

from oracles import enumerate_strategy_distributions


def test_strategy_counts():
    assert strategy_count(Scenario(2, 2, 2)) == 16
    assert strategy_count(Scenario(1, 1, 5)) == 5
    assert strategy_count(Scenario(2, 2, 3)) == 3**4


def test_enumerate_strategies_order_and_uniqueness(chsh_scenario):
    strategies = enumerate_strategies(chsh_scenario)
    assert strategies.shape == (16, 2, 2)
    assert np.array_equal(strategies[0], np.zeros((2, 2)))
    assert np.array_equal(strategies[-1], np.ones((2, 2)))
    # index 6 = digits (0,1,1,0) in party-major order
    assert strategies[6].ravel().tolist() == [0, 1, 1, 0]
    assert len({tuple(s.ravel()) for s in strategies}) == 16


def test_enumerate_cap():
    with pytest.raises(SizeLimitError):
        enumerate_strategies(Scenario(2, 2, 40))  # 40^4 > 2^20


def test_strategy_distribution_all_zero(chsh_scenario):
    dist = strategy_distribution(chsh_scenario, np.zeros((2, 2), dtype=int))
    expected = {encode_result(chsh_scenario, TrialResult((u, v), (0, 0))) for u in (1, 2) for v in (1, 2)}
    assert set(dist.support()) == expected
    assert np.allclose(dist.probs[sorted(expected)], 0.25)
    assert dist.probs.sum() == pytest.approx(1.0)


def test_strategy_distribution_chsh_bound(chsh_scenario):
    # all-outcomes-0 strategy realizes <I_CHSH> = 2: correlations 1 + 1 + 1 - 1
    f = chsh_functional(chsh_scenario)
    dist = strategy_distribution(chsh_scenario, np.zeros((2, 2), dtype=int))
    assert dist.expectation(f.table) == pytest.approx(2.0, abs=1e-12)


def test_strategy_distribution_validation(chsh_scenario):
    with pytest.raises(ValueError):
        strategy_distribution(chsh_scenario, np.zeros((2, 3), dtype=int))
    with pytest.raises(ValueError):
        strategy_distribution(chsh_scenario, np.full((2, 2), 2))


@pytest.mark.parametrize(
    "l,s,d,setting_probs",
    [(2, 2, 2, None), (2, 2, 3, None), (3, 2, 2, None), (2, 3, 2, None), (2, 2, 2, [0.4, 0.1, 0.3, 0.2])],
    ids=["2-2-2", "2-2-3", "3-2-2", "2-3-2", "2-2-2-nonuniform"],
)
def test_strategies_match_oracle(l, s, d, setting_probs):
    # both strategy maps, exactly against direct enumeration
    scenario = Scenario(l, s, d, setting_probs)
    table = enumerate_strategy_distributions(l, s, d, setting_probs)
    indices, weights = strategy_result_indices(scenario)
    for h, strategy in enumerate(enumerate_strategies(scenario)):
        assert np.array_equal(strategy_distribution(scenario, strategy).probs, table[h])
        probs = np.zeros(table.shape[1])
        probs[indices[h]] = weights
        assert np.array_equal(probs, table[h])


def test_strategy_result_indices_consistency(cglmp3_scenario):
    indices, weights = strategy_result_indices(cglmp3_scenario)
    assert indices.shape == (81, 4)
    strategies = enumerate_strategies(cglmp3_scenario)
    rng = np.random.default_rng(5)
    for h in rng.choice(81, size=8, replace=False):
        dist = strategy_distribution(cglmp3_scenario, strategies[h])
        probs = np.zeros(36)
        np.add.at(probs, indices[h], weights)
        assert np.allclose(probs, dist.probs, atol=1e-14)


def test_mixture_point_mass(chsh_scenario):
    lam = np.zeros(16)
    lam[3] = 1.0
    strategies = enumerate_strategies(chsh_scenario)
    assert np.allclose(
        mixture_distribution(chsh_scenario, lam).probs,
        strategy_distribution(chsh_scenario, strategies[3]).probs,
    )


def test_uniform_mixture_is_uniform_outcomes(chsh_scenario):
    mixed = mixture_distribution(chsh_scenario, np.full(16, 1.0 / 16.0))
    assert np.allclose(mixed.probs, uniform_outcome_distribution(chsh_scenario).probs, atol=1e-14)
    f = chsh_functional(chsh_scenario)
    assert mixed.expectation(f.table) == pytest.approx(0.0, abs=1e-12)


def test_mixture_respects_chsh_bound(chsh_scenario):
    f = chsh_functional(chsh_scenario)
    rng = np.random.default_rng(7)
    vertex_max = vertex_expectations(chsh_scenario, f.table).max()
    assert vertex_max == pytest.approx(2.0, abs=1e-12)
    for _ in range(25):
        lam = rng.dirichlet(np.full(16, 0.5))
        mixed = mixture_distribution(chsh_scenario, lam)
        val = mixed.expectation(f.table)
        assert val <= 2.0 + 1e-10
        assert val <= vertex_max + 1e-10  # linear objective peaks at a vertex


def test_mixture_no_signaling_exact(chsh_scenario):
    rng = np.random.default_rng(11)
    ns = no_signaling_functionals(chsh_scenario)
    for _ in range(5):
        mixed = mixture_distribution(chsh_scenario, rng.dirichlet(np.ones(16)))
        for f in ns:
            assert mixed.expectation(f.table) == pytest.approx(0.0, abs=1e-12)


def test_mixture_weight_validation(chsh_scenario):
    with pytest.raises(ValueError):
        mixture_distribution(chsh_scenario, np.full(8, 0.125))
    bad = np.full(16, 1.0 / 16.0)
    bad[0] = -bad[0]
    with pytest.raises(ValueError):
        mixture_distribution(chsh_scenario, bad)
