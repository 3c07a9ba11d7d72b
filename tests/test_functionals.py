import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bellcert.scenario
from bellcert import (
    Functional,
    Scenario,
    ScenarioMismatchError,
    SizeLimitError,
    StandardizationError,
    StandardizedFunctional,
    TrialResult,
    UnknownFunctionalError,
    build_function_set,
    catalog_names,
    chsh_functional,
    cglmp_functional,
    encode_result,
    expectation,
    load_functional_file,
    no_signaling_functionals,
    standardize,
    trivial_standardized,
    uniform_outcome_distribution,
    vertex_expectations,
)
from bellcert.functionals import resolve_catalog_name

from oracles import enumerate_strategy_distributions, enumerate_strategy_expectations


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
    # one setting, so each outcome is a deterministic strategy: the LR maximum is the largest value
    sc = Scenario(1, 1, 3)
    f = Functional("custom", sc, 2.0, np.array([-1.0, 0.5, 2.0]))
    r = standardize(f)
    assert _eval_on(r, (1,), (0,)) == 0.0  # I = b
    assert _eval_on(r, (1,), (1,)) == 0.5
    assert _eval_on(r, (1,), (2,)) == 1.0  # I = B


def test_standardize_undefined():
    sc = Scenario(1, 1, 2)
    const = Functional("custom", sc, 1.0, np.array([1.0, 1.0]))
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


def test_range_is_derived_from_the_table(chsh_scenario):
    f = chsh_functional(chsh_scenario)
    assert (f.inf_b, f.sup_a) == (-4.0, 4.0)
    const = Functional("custom", Scenario(1, 1, 2), 2.0, np.array([1.0, 1.0]))
    assert (const.inf_b, const.sup_a) == (1.0, 1.0)
    f3 = cglmp_functional(Scenario(2, 2, 3))
    distinct = sorted(set(f3.table))
    assert (f3.inf_b, f3.sup_a) == (distinct[0], distinct[-1])
    # a range cannot be declared: [1, 4] would not bound CHSH's trial values
    with pytest.raises(TypeError):
        Functional("chsh", chsh_scenario, 2.0, f.table, inf_b=1.0, sup_a=4.0)


CATALOG_SCENARIOS = [Scenario(2, 2, 2), Scenario(2, 2, 3), Scenario(2, 3, 4)]


@pytest.mark.parametrize("sc", CATALOG_SCENARIOS, ids=["2,2,2", "2,2,3", "2,3,4"])
def test_catalog_bounds_are_the_vertex_maxima(sc):
    # the constructor's vertex check would pass a bound 1e-9 low; the catalog's must be exact
    functionals = [f for name in catalog_names(sc) for f in resolve_catalog_name(name, sc)]
    assert len(functionals) == {2: 18, 3: 25, 4: 144}[sc.outcomes_per_setting]
    for f in functionals:
        assert abs(f.bound_B - vertex_expectations(sc, f.table).max()) <= 1e-12, f.name
        assert (f.inf_b, f.sup_a) == (f.table.min(), f.table.max())


@pytest.mark.parametrize("sc", CATALOG_SCENARIOS, ids=["2,2,2", "2,2,3", "2,3,4"])
def test_function_set_tables_have_vertex_maximum_one(sc):
    for r in build_function_set(catalog_names(sc), sc):
        assert abs(vertex_expectations(sc, r.table).max() - 1.0) <= 1e-12, r.name


def test_a_table_must_be_finite(chsh_scenario):
    # with an infinite value the vertex check's tolerance is nan and passes; spbr then
    # scored that result log2(inf) and reported p = 5e-324 on uniform-outcome LR data
    table = chsh_functional(chsh_scenario).table.copy()
    table[5] = np.inf
    with pytest.raises(ValueError, match="16 finite numbers"):
        Functional("custom", chsh_scenario, 2.0, table)
    with pytest.raises(ValueError, match="16 finite numbers"):
        StandardizedFunctional("r", chsh_scenario, np.where(np.isinf(table), np.inf, 0.25))
    with pytest.raises(ValueError, match="16 finite numbers"):
        Functional("custom", chsh_scenario, 2.0, table[:15])


def test_catalog_rejects_a_malformed_cglmp_name(chsh_scenario):
    with pytest.raises(UnknownFunctionalError, match="malformed catalog name"):
        resolve_catalog_name("cglmp:x", chsh_scenario)


def test_hand_built_weighted_function_is_checked(chsh_scenario):
    r = standardize(chsh_functional(chsh_scenario)).table
    assert not StandardizedFunctional("r", chsh_scenario, r).is_trivial
    StandardizedFunctional("r", chsh_scenario, r * (1.0 + 1e-12))  # within 1e-9 of max |r|
    for bad in (r * (1.0 + 1e-6), r - 0.1):
        with pytest.raises(StandardizationError):
            StandardizedFunctional("bad", chsh_scenario, bad)
    assert StandardizedFunctional("ones", chsh_scenario, np.ones(16)).is_trivial


def test_hand_built_weighted_function_without_strategy_enumeration():
    # (2, 2, 33) has 33^4 > STRATEGY_CAP strategies: only the sign can be checked
    sc = Scenario(2, 2, 33)
    StandardizedFunctional("r", sc, np.full(4356, 5.0))
    with pytest.raises(StandardizationError):
        StandardizedFunctional("r", sc, np.full(4356, -1.0))


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


def test_no_signaling_needs_every_joint_setting():
    with pytest.raises(ValueError, match="positive probability"):
        no_signaling_functionals(Scenario(2, 2, 2, [0.5, 0.0, 0.25, 0.25]))


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
    f = Functional("custom", Scenario(1, 2, 2), 2.5, a)
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


@pytest.mark.parametrize("bound", [1.0, 1.9, 2.0 - 1e-6])
def test_functional_file_refuses_an_understated_bound(tmp_path, chsh_scenario, bound):
    f = chsh_functional(chsh_scenario)
    path = _functional_file(tmp_path / "f.json", bound, f.table)
    with pytest.raises(ScenarioMismatchError, match=f"{path}: declared bound .* below the LR maximum 2"):
        load_functional_file(path)


def test_table_functional_refuses_an_understated_bound(chsh_scenario):
    # with B = 1 mart certified the deterministic strategy reaching CHSH = 2 at p = 1.8e-28 (2,000 trials)
    table = chsh_functional(chsh_scenario).table
    with pytest.raises(ScenarioMismatchError, match="below the LR maximum 2"):
        Functional("under", chsh_scenario, 1.0, table)
    assert Functional("custom", chsh_scenario, 2.0, table).bound_B == 2.0
    for bound in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="bound B must be a finite number"):
            Functional("custom", chsh_scenario, bound, table)


def test_functional_file_bound_check_on_a_zero_maximum(tmp_path, chsh_scenario):
    # a no-signaling witness has LR maximum 0 up to rounding; B = 0 is honest, B < 0 is not
    ns = no_signaling_functionals(chsh_scenario)[0]
    assert load_functional_file(_functional_file(tmp_path / "f.json", 0.0, ns.table)).bound_B == 0.0
    with pytest.raises(ScenarioMismatchError):
        load_functional_file(_functional_file(tmp_path / "f.json", -0.01, ns.table))


SMALL_SCENARIOS = {(1, 2, 2): 4, (2, 2, 2): 16, (2, 2, 3): 36}


@st.composite
def tables_and_bounds(draw):
    lsd = draw(st.sampled_from(sorted(SMALL_SCENARIOS)))
    k = SMALL_SCENARIOS[lsd]
    table = np.array(draw(st.lists(st.floats(-5.0, 5.0, allow_subnormal=False), min_size=k, max_size=k)))
    # offsets from the LR maximum in units of max|t|, kept far from the tolerance edge at -1e-9
    offset = draw(st.sampled_from([-1.0, -1e-3, -1e-7, 0.0, 1e-7, 1.0]))
    return lsd, table, offset


@settings(max_examples=80, deadline=None)
@given(case=tables_and_bounds())
def test_functional_accepts_exactly_the_bounds_at_its_lr_maximum(case):
    (l, s, d), table, offset = case
    top = float((enumerate_strategy_distributions(l, s, d) @ table).max())
    scale = float(np.abs(table).max())
    bound = top + offset * scale
    if bound >= top - 1e-9 * scale:
        assert Functional("t", Scenario(l, s, d), bound, table).bound_B == bound
    else:
        with pytest.raises(ScenarioMismatchError, match="below the LR maximum"):
            Functional("t", Scenario(l, s, d), bound, table)


def test_a_sourced_standardized_table_is_its_sources(chsh_scenario):
    # this table has LR maximum 3; spbr certified the strategy reaching CHSH = 2 at p = 5e-324 (2,000 trials)
    chsh = chsh_functional(chsh_scenario)
    with pytest.raises(StandardizationError, match="not the standardized table of its source"):
        StandardizedFunctional("x", chsh_scenario, chsh.table / 2 + 2, source=chsh)
    r = standardize(chsh)
    assert StandardizedFunctional("r", chsh_scenario, r.table, source=chsh).source is chsh
    with pytest.raises(ScenarioMismatchError):
        StandardizedFunctional("r", Scenario(2, 2, 2, [0.4, 0.2, 0.2, 0.2]), r.table, source=chsh)


def test_functional_file_errors_name_the_file(tmp_path, chsh_scenario):
    path = tmp_path / "f.json"
    path.write_text(json.dumps({"scenario": {"l": 2, "s": 2, "d": 2}, "B": float("nan"), "values": [0.0] * 16}))
    with pytest.raises(ValueError, match=f"{path}: functional 'custom': bound B must be a finite number"):
        load_functional_file(path)


def test_every_table_obeys_the_dense_cap(monkeypatch):
    monkeypatch.setattr(bellcert.scenario, "ENUMERATION_CAP", 64)
    sc = Scenario(2, 2, 5)  # 100 results
    builders = [
        lambda: cglmp_functional(sc),
        lambda: no_signaling_functionals(sc),
        lambda: trivial_standardized(sc),
        lambda: Functional("t", sc, 1.0, np.zeros(100)),
        lambda: StandardizedFunctional("r", sc, np.zeros(100)),
    ]
    for build in builders:
        with pytest.raises(SizeLimitError, match="exceeds the cap 64"):
            build()
