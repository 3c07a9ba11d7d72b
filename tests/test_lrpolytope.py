import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellcert import lrpolytope
from bellcert import (
    Scenario,
    SizeLimitError,
    chsh_functional,
    encode_result,
    enumerate_strategies,
    mixture_distribution,
    no_signaling_functionals,
    strategy_count,
    strategy_distribution,
    strategy_result_indices,
    uniform_outcome_distribution,
)
from bellcert.lrpolytope import lr_maximum

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
    expected = {encode_result(chsh_scenario, (u, v), (0, 0)) for u in (1, 2) for v in (1, 2)}
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


def test_strategy_result_indices_are_read_only_and_shared():
    scenario = Scenario(2, 2, 3)
    indices, weights = strategy_result_indices(scenario)
    for array in (indices, weights):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0
    again = strategy_result_indices(scenario)
    assert again[0] is indices and again[1] is weights is scenario.setting_distribution


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
    vertex_max = (enumerate_strategy_distributions(2, 2, 2) @ f.table).max()
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


@st.composite
def value_stacks(draw):
    """A scenario of at most 729 strategies, its settings often non-uniform with a zero entry, and a (rows, K) stack."""
    l = draw(st.integers(1, 3))
    s, d = draw(st.integers(1, (4, 3, 2)[l - 1])), draw(st.integers(1, (4, 3, 3)[l - 1]))
    settings = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=s**l, max_size=s**l)))
    if draw(st.booleans()):
        settings[draw(st.integers(0, s**l - 1))] = 0.0
    scenario = Scenario(l, s, d, settings / settings.sum() if settings.sum() > 0.1 else None)
    rows, k = draw(st.integers(1, 3)), (d * s) ** l
    values = draw(st.lists(st.floats(-5.0, 5.0, allow_subnormal=False), min_size=rows * k, max_size=rows * k))
    return scenario, np.array(values).reshape(rows, k)


@settings(max_examples=60, deadline=None)
@given(case=value_stacks())
def test_lr_maximum_is_the_largest_strategy_expectation(case):
    scenario, tables = case
    l, s, d = scenario.parties, scenario.settings_per_party, scenario.outcomes_per_setting
    expected = (enumerate_strategy_distributions(l, s, d, scenario.setting_distribution) @ tables.T).max(axis=0)
    assert np.all(np.abs(lr_maximum(scenario, tables) - expected) <= 1e-12 * np.abs(tables).max())


def test_lr_maximum_cap_and_chunks(monkeypatch):
    # with a cap of 8: (2, 2, 2)'s 4 strategies of party A are one per chunk, (2, 2, 3)'s 9 too many
    monkeypatch.setattr(lrpolytope, "STRATEGY_CAP", 8)
    tables = np.random.default_rng(3).normal(size=(2, 16))
    expected = (enumerate_strategy_distributions(2, 2, 2) @ tables.T).max(axis=0)
    assert np.allclose(lr_maximum(Scenario(2, 2, 2), tables), expected, rtol=0, atol=1e-12)
    with pytest.raises(SizeLimitError, match="9 strategies of parties 1..1 exceed the cap 8"):
        lr_maximum(Scenario(2, 2, 3), np.zeros((1, 36)))


@pytest.mark.parametrize("shape", [(1, 20), (1, 15), (16,), (1, 1, 16), ()], ids=str)
def test_lr_maximum_refuses_a_stack_that_is_not_rows_by_k(shape):
    # a (1, 20) stack on (2, 2, 2) read 16 of its 20 columns and returned [1.]
    with pytest.raises(ValueError, match=r"tables must be a \(rows, 16\) stack"):
        lr_maximum(Scenario(2, 2, 2), np.ones(shape))


def test_lr_maximum_of_no_rows_is_empty():
    top = lr_maximum(Scenario(2, 2, 2), np.zeros((0, 16)))
    assert top.shape == (0,) and top.dtype == float
