import json

import numpy as np
import pytest

from bellcert import (
    Scenario,
    ScenarioMismatchError,
    StandardizationError,
    TrialResult,
    UnknownFunctionalError,
    bounds_by_enumeration,
    build_function_set,
    catalog_names,
    chsh_functional,
    cglmp_functional,
    encode_result,
    expectation,
    functional_from_table,
    load_functional_file,
    no_signaling_functionals,
    standardize,
    trivial_standardized,
    uniform_outcome_distribution,
)
from bellcert.functionals import resolve_catalog_name

from oracles import enumerate_strategy_expectations


def _eval_on(f, settings, outcomes):
    return f.table[encode_result(f.scenario, TrialResult(settings, outcomes))]


def test_chsh_values(chsh_scenario):
    f = chsh_functional(chsh_scenario)
    # outcome index 0 -> +1, 1 -> -1
    assert _eval_on(f, (1, 1), (0, 0)) == 4.0
    assert _eval_on(f, (2, 2), (0, 0)) == -4.0
    assert _eval_on(f, (1, 2), (0, 1)) == 4.0 * 1.0 * (1.0 * -1.0)
    assert (f.bound_B, f.inf_b, f.sup_a) == (2.0, -4.0, 4.0)


def test_chsh_wrong_scenario():
    with pytest.raises(ValueError):
        chsh_functional(Scenario(2, 2, 3))
    with pytest.raises(ValueError):
        chsh_functional(Scenario(2, 2, 2, np.array([0.4, 0.2, 0.2, 0.2])))


def test_standardize_chsh(chsh_scenario):
    f = chsh_functional(chsh_scenario)
    r = standardize(f)
    x_max = TrialResult((1, 1), (0, 0))  # I = 4
    assert r.table[encode_result(chsh_scenario, x_max)] == pytest.approx((4.0 + 4.0) / 6.0)
    x_min = TrialResult((2, 2), (0, 0))  # I = b
    assert r.table[encode_result(chsh_scenario, x_min)] == 0.0


def test_standardize_boundary_values():
    sc = Scenario(1, 1, 3)
    f = functional_from_table(sc, np.array([-1.0, 0.5, 2.0]), bound=0.5)
    r = standardize(f)
    assert _eval_on(r, (1,), (0,)) == 0.0  # I = b
    assert _eval_on(r, (1,), (1,)) == 1.0  # I = B


def test_standardize_undefined():
    sc = Scenario(1, 1, 2)
    const = functional_from_table(sc, np.array([1.0, 1.0]), bound=1.0)
    with pytest.raises(StandardizationError):
        standardize(const)


def test_trivial_function(chsh_scenario):
    triv = trivial_standardized(chsh_scenario)
    assert triv.is_trivial
    assert _eval_on(triv, (1, 1), (0, 0)) == 1.0


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_cglmp_takes_d_values(d):
    f = cglmp_functional(Scenario(2, 2, d))
    distinct = sorted(set(np.round(f.table, 10)))
    assert len(distinct) == d


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_cglmp_lr_bound_attained(d):
    sc = Scenario(2, 2, d)
    f = cglmp_functional(sc)
    vals = enumerate_strategy_expectations(
        2, 2, d, lambda settings, outcomes: _eval_on(f, settings, outcomes)
    )
    assert max(vals) == pytest.approx(2.0, abs=1e-12)


def test_cglmp_d2_is_affine_in_chsh(chsh_scenario):
    f2 = cglmp_functional(chsh_scenario)
    fc = chsh_functional(chsh_scenario)
    # fit I_2 = alpha * I_CHSH + beta over the 16 results
    a = np.column_stack([fc.table, np.ones(16)])
    coef, residual, *_ = np.linalg.lstsq(a, f2.table, rcond=None)
    alpha, beta = coef
    assert np.allclose(a @ coef, f2.table, atol=1e-12)
    # the LR bound 2 maps to 2
    assert alpha * 2.0 + beta == pytest.approx(2.0, abs=1e-12)


def test_cglmp_errors():
    with pytest.raises(ValueError):
        cglmp_functional(Scenario(2, 2, 1))
    with pytest.raises(ValueError):
        cglmp_functional(Scenario(2, 3, 3))


def test_bounds_by_enumeration(chsh_scenario):
    assert bounds_by_enumeration(chsh_functional(chsh_scenario)) == (-4.0, 4.0)
    const = functional_from_table(Scenario(1, 1, 2), np.array([1.0, 1.0]), bound=2.0)
    assert bounds_by_enumeration(const) == (1.0, 1.0)
    f3 = cglmp_functional(Scenario(2, 2, 3))
    distinct = sorted(set(f3.table))
    assert bounds_by_enumeration(f3) == (distinct[0], distinct[-1])


def test_no_signaling_counts():
    assert len(no_signaling_functionals(Scenario(2, 2, 2))) == 16
    assert len(no_signaling_functionals(Scenario(2, 2, 3))) == 24


def test_no_signaling_zero_on_strategies(chsh_scenario):
    for f in no_signaling_functionals(chsh_scenario):
        vals = enumerate_strategy_expectations(
            2, 2, 2, lambda settings, outcomes: _eval_on(f, settings, outcomes)
        )
        assert np.allclose(vals, 0.0, atol=1e-12)
        assert f.bound_B == 0.0
        assert (f.inf_b, f.sup_a) == (-4.0, 4.0)


def test_no_signaling_non_bipartite():
    with pytest.raises(ValueError):
        no_signaling_functionals(Scenario(3, 2, 2))


def test_catalog_lr_bound_property(chsh_scenario, cglmp3_scenario):
    for sc in (chsh_scenario, cglmp3_scenario):
        names = catalog_names(sc)
        for name in names:
            for f in resolve_catalog_name(name, sc):
                vals = enumerate_strategy_expectations(
                    sc.parties,
                    sc.settings_per_party,
                    sc.outcomes_per_setting,
                    lambda settings, outcomes, f=f: _eval_on(f, settings, outcomes),
                )
                assert max(vals) <= f.bound_B + 1e-12


def test_standardized_lr_expectation_at_most_one(chsh_scenario):
    r = standardize(chsh_functional(chsh_scenario))
    vals = enumerate_strategy_expectations(
        2, 2, 2, lambda settings, outcomes: _eval_on(r, settings, outcomes)
    )
    assert max(vals) <= 1.0 + 1e-12
    # all-outcomes-0 strategy: <I> = (4 + 4 + 4 - 4)/4 = 2, <r> = 1 exactly
    f = chsh_functional(chsh_scenario)
    strat_i = enumerate_strategy_expectations(
        2, 2, 2, lambda settings, outcomes: _eval_on(f, settings, outcomes)
    )[0]
    assert strat_i == pytest.approx(2.0, abs=1e-12)
    assert vals[0] == pytest.approx(1.0, abs=1e-12)


def test_expectation_against_uniform(chsh_scenario):
    dist = uniform_outcome_distribution(chsh_scenario)
    assert expectation(chsh_functional(chsh_scenario), dist) == pytest.approx(0.0, abs=1e-12)


def test_value_table_matches_evaluate(chsh_scenario):
    f = chsh_functional(chsh_scenario)
    t = f.table
    assert t.shape == (16,)
    r = standardize(f)
    assert np.allclose(r.table, (t + 4.0) / 6.0)


def test_catalog_names(chsh_scenario, cglmp3_scenario):
    assert catalog_names(chsh_scenario) == ["trivial", "chsh", "cglmp:2", "nosignaling"]
    assert "cglmp:3" in catalog_names(cglmp3_scenario)
    assert "chsh" not in catalog_names(cglmp3_scenario)


def test_build_function_set(chsh_scenario):
    fs = build_function_set(["chsh", "nosignaling"], chsh_scenario)
    assert fs[0].is_trivial
    assert len(fs) == 1 + 1 + 16
    with pytest.raises(UnknownFunctionalError):
        build_function_set(["nope"], chsh_scenario)
    with pytest.raises(UnknownFunctionalError):
        build_function_set(["cglmp:4"], chsh_scenario)


def test_functional_file_roundtrip(tmp_path, chsh_scenario):
    f = chsh_functional(chsh_scenario)
    path = tmp_path / "func.json"
    path.write_text(
        json.dumps({"scenario": {"l": 2, "s": 2, "d": 2}, "B": 2.0, "values": list(f.table), "name": "mine"})
    )
    g = load_functional_file(path)
    assert g.name == "mine"
    assert np.array_equal(g.table, f.table)
    assert (g.inf_b, g.sup_a) == (-4.0, 4.0)
    path.write_text(json.dumps({"scenario": {"l": 2, "s": 2, "d": 2}, "values": [0.0] * 16}))
    from bellcert import TrialFormatError

    with pytest.raises(TrialFormatError):
        load_functional_file(path)


def test_table_functional_keeps_the_callers_array_writeable():
    a = np.array([1.0, -1.0, 3.0, 0.0])
    f = functional_from_table(Scenario(1, 2, 2), a, 2.5)
    assert a.flags.writeable and not f.table.flags.writeable
    a[0] = 9.0
    assert f.table[0] == 1.0


def _functional_file(path, bound, values):
    path.write_text(json.dumps({"scenario": {"l": 2, "s": 2, "d": 2}, "B": bound, "values": list(values)}))
    return path


@pytest.mark.parametrize("bound", [2.0, 2.0 - 1e-12, 3.0])
def test_functional_file_accepts_an_honest_bound(tmp_path, chsh_scenario, bound):
    f = chsh_functional(chsh_scenario)
    assert load_functional_file(_functional_file(tmp_path / "f.json", bound, f.table)).bound_B == bound


@pytest.mark.parametrize("bound", [1.9, 2.0 - 1e-6])
def test_functional_file_refuses_an_understated_bound(tmp_path, chsh_scenario, bound):
    f = chsh_functional(chsh_scenario)
    with pytest.raises(ScenarioMismatchError, match="below the LR maximum 2"):
        load_functional_file(_functional_file(tmp_path / "f.json", bound, f.table))


def test_functional_file_bound_check_on_a_zero_maximum(tmp_path, chsh_scenario):
    # a no-signaling witness has LR maximum 0 up to rounding; B = 0 is honest, B < 0 is not
    ns = no_signaling_functionals(chsh_scenario)[0]
    assert load_functional_file(_functional_file(tmp_path / "f.json", 0.0, ns.table)).bound_B == 0.0
    with pytest.raises(ScenarioMismatchError):
        load_functional_file(_functional_file(tmp_path / "f.json", -0.01, ns.table))
