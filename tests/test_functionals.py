import json

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import bellcert.scenario
from bellcert import lrpolytope
from bellcert import (
    Distribution,
    Functional,
    Scenario,
    ScenarioMismatchError,
    SizeLimitError,
    StandardizationError,
    StandardizedFunctional,
    UnknownFunctionalError,
    born_distribution,
    build_function_set,
    catalog_names,
    chsh_config,
    chsh_functional,
    cglmp_functional,
    encode_result,
    expectation,
    load_functional_file,
    no_signaling_functionals,
    run_martingale,
    sample_encoded,
    standardize,
    trivial_standardized,
    uniform_outcome_distribution,
)
from bellcert.functionals import default_function_names, resolve_catalog_name
from bellcert.lrpolytope import LR_EXCESS
from bellcert.optim import DEFAULT_CONTROLS
from bellcert.protocols import PROTOCOLS
from bellcert.scenario import PROBABILITY_TOLERANCE, scenario_to_json

from oracles import embedded_chsh_table, enumerate_strategy_distributions, enumerate_strategy_expectations, ghz_mermin


def _eval_on(f, settings, outcomes):
    return f.table[encode_result(f.scenario, settings, outcomes)]


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
    x_max = encode_result(chsh_scenario, (1, 1), (0, 0))  # I = 4
    assert r.table[x_max] == pytest.approx((4.0 + 4.0) / 6.0)
    x_min = encode_result(chsh_scenario, (2, 2), (0, 0))  # I = b
    assert r.table[x_min] == 0.0


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
    vertices = enumerate_strategy_distributions(sc.parties, sc.settings_per_party, sc.outcomes_per_setting)
    for f in functionals:
        assert abs(f.bound_B - (vertices @ f.table).max()) <= 1e-12, f.name
        assert (f.inf_b, f.sup_a) == (f.table.min(), f.table.max())


@pytest.mark.parametrize("sc", CATALOG_SCENARIOS, ids=["2,2,2", "2,2,3", "2,3,4"])
def test_function_set_tables_have_vertex_maximum_one(sc):
    vertices = enumerate_strategy_distributions(sc.parties, sc.settings_per_party, sc.outcomes_per_setting)
    for r in build_function_set(catalog_names(sc), sc):
        assert abs((vertices @ r.table).max() - 1.0) <= 1e-12, r.name


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
    with pytest.raises(UnknownFunctionalError, match="'cglmp:x'; this scenario's catalog is trivial, chsh, cglmp:2, nosignaling"):
        resolve_catalog_name("cglmp:x", chsh_scenario)


def test_hand_built_weighted_function_is_checked(chsh_scenario):
    r = standardize(chsh_functional(chsh_scenario)).table
    assert not StandardizedFunctional("r", chsh_scenario, r).is_trivial
    StandardizedFunctional("r", chsh_scenario, r * (1.0 + LR_EXCESS / 10))  # within LR_EXCESS of its LR maximum, 1
    for bad in (r * (1.0 + 1e-6), r * (1.0 + 10 * LR_EXCESS), r - 0.1):
        with pytest.raises(StandardizationError):
            StandardizedFunctional("bad", chsh_scenario, bad)
    assert StandardizedFunctional("ones", chsh_scenario, np.ones(16)).is_trivial


def test_hand_built_weighted_function_without_strategy_enumeration():
    # (2, 2, 33) has 33^4 > 2^20 strategies, once too many to check: the constant-5 table
    # (LR maximum 5) passed, and spbr printed p = 5e-324 on uniform-outcome LR data.
    # Party B's best reply to each of party A's 33^2 strategies gives the exact maximum.
    sc = Scenario(2, 2, 33)
    with pytest.raises(StandardizationError, match="LR maximum <= 1"):
        StandardizedFunctional("r", sc, np.full(4356, 5.0))
    assert not StandardizedFunctional("r", sc, np.full(4356, 0.5)).is_trivial
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


@st.composite
def small_scenarios(draw):
    """l, s from 1 to 3 and d from 1 to 4, with uniform settings or one joint setting of probability 0."""
    l, s, d = draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(st.integers(1, 4))
    n = s**l
    zero = draw(st.none() | st.integers(0, n - 1)) if n > 1 else None
    if zero is None:
        return Scenario(l, s, d)
    return Scenario(l, s, d, [0.0 if j == zero else 1.0 / (n - 1) for j in range(n)])


@settings(max_examples=60, deadline=None)
@given(sc=small_scenarios())
def test_names_resolve_exactly_when_the_catalog_lists_them(sc):
    # at (2, 2, 1) the default was cglmp:1, and chsh on (2, 2, 3) raised the builder's ValueError
    listed = catalog_names(sc)
    for name in ("trivial", "chsh", "nosignaling", *(f"cglmp:{d}" for d in range(1, 6)), "cglmp:x"):
        if name in listed:
            resolve_catalog_name(name, sc)
        else:
            with pytest.raises(UnknownFunctionalError, match="catalog is " + ", ".join(listed)):
                resolve_catalog_name(name, sc)
    try:
        (default,) = default_function_names(sc)
    except ValueError as exc:
        assert "no default function set" in str(exc)
    else:
        assert default in listed


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


def test_a_chsh_bound_two_parts_per_billion_low_is_refused(tmp_path, chsh_scenario):
    # the slack was 1e-9 of the LR maximum of |table|, 4e-9 on CHSH, so B = 2 - 2e-9 passed
    table = chsh_functional(chsh_scenario).table
    with pytest.raises(ScenarioMismatchError, match="below the LR maximum 2$"):
        Functional("custom", chsh_scenario, 2.0 - 2e-9, table)
    with pytest.raises(ScenarioMismatchError, match="below the LR maximum 2$"):
        load_functional_file(_functional_file(tmp_path / "f.json", 2.0 - 2e-9, table))


@pytest.mark.parametrize("factor,ok", [(0.5, True), (2.0, False)], ids=["half", "twice"])
def test_lr_excess_is_the_slack_of_every_lr_maximum_check(chsh_scenario, factor, ok):
    # in units of the standardized LR maximum, the LR maximum 4 less inf_b -4 here, not of max|table|, 1e12 here
    sc, table = _chsh_with_a_value_at_setting_4(0.0)
    assert _accepted(lambda: Functional("f", sc, 4.0 - factor * LR_EXCESS * 8.0, table)) is ok
    r = standardize(chsh_functional(chsh_scenario)).table  # LR maximum 1, and so is that of |r|
    assert _accepted(lambda: StandardizedFunctional("r", chsh_scenario, r * (1.0 + factor * LR_EXCESS))) is ok


def test_a_constant_added_to_a_table_does_not_widen_the_bound_check(tmp_path, chsh_scenario):
    # the slack was LR_EXCESS of the LR maximum of |values|, about 1 here, so B = 1e12 + 1.01 passed; its standardized
    # table had LR maximum 1.2, and on 2,000 trials of the LR strategy "all outcomes 0" mart read p = 3.9e-29
    values = 1e12 + chsh_functional(chsh_scenario).table
    with pytest.raises(ScenarioMismatchError, match=r"B=1e\+12 is below the LR maximum 1e\+12$"):
        load_functional_file(_functional_file(tmp_path / "f.json", 1e12 + 1.01, values))
    assert load_functional_file(_functional_file(tmp_path / "f.json", 1e12 + 2.0, values)).bound_B == 1e12 + 2.0


def test_a_file_functional_is_checked_on_the_settings_it_is_scored_with(tmp_path):
    # setting 4 has probability 1e-12 in the file and 1.5e-12 in the data, one scenario within SETTING_TOLERANCE;
    # B = 5 holds on the file's settings, but the 1e12 at result 15 lifts the LR maximum to 5.5 on the data's
    file_scenario, table = _chsh_with_a_value_at_setting_4(1e-12)
    data_scenario = Scenario(2, 2, 2, [(1.0 - 1.5e-12) / 3] * 3 + [1.5e-12])
    path = tmp_path / "f.json"
    path.write_text(json.dumps({"scenario": scenario_to_json(file_scenario), "B": 5.0, "values": table.tolist()}))
    assert load_functional_file(path).bound_B == 5.0
    with pytest.raises(ScenarioMismatchError, match=f"{path}: declared bound B=5 is below the LR maximum 5.49999999999$"):
        resolve_catalog_name(f"file:{path}", data_scenario)
    assert resolve_catalog_name(f"file:{path}", file_scenario)[0].scenario is file_scenario


@pytest.mark.parametrize("h", [2e-13, 5e-13, 9e-13])
def test_the_catalog_lists_its_bound_two_entries_only_at_exactly_uniform_settings(h):
    # within SETTING_TOLERANCE of uniform chsh was listed, then refused from h = 5e-13: "B=2 is below the LR maximum 2"
    near = Scenario(2, 2, 2, [0.25 + h, 0.25 - h, 0.25, 0.25])
    assert catalog_names(near) == ["trivial", "nosignaling"]
    for name in ("chsh", "cglmp:2"):
        with pytest.raises(UnknownFunctionalError, match=f"unknown functional '{name}'"):
            build_function_set([name], near)


def test_functional_file_bound_check_on_a_zero_maximum(tmp_path, chsh_scenario):
    # a no-signaling witness has LR maximum 0 up to rounding; B = 0 is honest, B < 0 is not
    ns = no_signaling_functionals(chsh_scenario)[0]
    assert load_functional_file(_functional_file(tmp_path / "f.json", 0.0, ns.table)).bound_B == 0.0
    with pytest.raises(ScenarioMismatchError):
        load_functional_file(_functional_file(tmp_path / "f.json", -0.01, ns.table))


SMALL_SCENARIOS = {(1, 2, 2): 4, (2, 2, 2): 16, (2, 2, 3): 36}
# offsets from the LR maximum in units of max|t|, kept far from the tolerance edge, within 2 * LR_EXCESS of 0
OFFSETS = [-1.0, -1e-3, -1e-7, 0.0, 1e-7, 1.0]


@st.composite
def tables_and_bounds(draw):
    lsd = draw(st.sampled_from(sorted(SMALL_SCENARIOS)))
    k = SMALL_SCENARIOS[lsd]
    table = np.array(draw(st.lists(st.floats(-5.0, 5.0, allow_subnormal=False), min_size=k, max_size=k)))
    offset = draw(st.sampled_from(OFFSETS))
    return lsd, table, float((enumerate_strategy_distributions(*lsd) @ table).max()), offset


# (2, 3, 16) has 16^6 > 2^20 strategies, once too many to check: with B = 0 (offset -2/9) this table passed
ABOVE_OLD_CAP = ((2, 3, 16), embedded_chsh_table(3, 16), 2.0)


@settings(max_examples=80, deadline=None)
@given(case=tables_and_bounds())
@example(case=(*ABOVE_OLD_CAP, -2.0 / 9.0))
@example(case=(*ABOVE_OLD_CAP, -1e-7))
@example(case=(*ABOVE_OLD_CAP, 0.0))
def test_functional_accepts_exactly_the_bounds_at_its_lr_maximum(case):
    (l, s, d), table, top, offset = case
    scale = float(np.abs(table).max())
    bound = top + offset * scale
    if bound >= top - LR_EXCESS * (top - table.min()):
        assert Functional("t", Scenario(l, s, d), bound, table).bound_B == bound
    else:
        with pytest.raises(ScenarioMismatchError, match="below the LR maximum"):
            Functional("t", Scenario(l, s, d), bound, table)


def _chsh_with_a_value_at_setting_4(rare: float) -> tuple[Scenario, np.ndarray]:
    """(2, 2, 2) with joint setting 4 at probability ``rare``; CHSH on settings 1-3, zero on setting 4 but 1e12 at result 15."""
    table = chsh_functional(Scenario(2, 2, 2)).table.copy()
    table[12:], table[15] = 0.0, 1e12
    return Scenario(2, 2, 2, [(1.0 - rare) / 3] * 3 + [rare]), table


@pytest.mark.parametrize("rare,top", [(0.0, "4"), (1e-12, "5")], ids=["impossible", "rare"])
def test_a_value_at_a_rare_or_impossible_setting_does_not_widen_the_bound_check(rare, top):
    # the slack was 1e-9 of max|table|, 1000 here, so B = -3.5 passed for an LR maximum of 4 (or 5)
    sc, table = _chsh_with_a_value_at_setting_4(rare)
    with pytest.raises(ScenarioMismatchError, match=f"below the LR maximum {top}$"):
        Functional("f", sc, -3.5, table)
    assert Functional("f", sc, float(top), table).bound_B == float(top)


def test_a_hand_built_table_with_a_value_at_an_impossible_result_is_refused():
    # 900 on the possible results of the strategy "all outcomes 0", LR maximum 900, passed with 1e12 at result 15;
    # spbr scored 200 of that strategy's trials at log2 T = 1864.6
    sc, _ = _chsh_with_a_value_at_setting_4(0.0)
    table = np.zeros(16)
    table[[0, 4, 8]], table[15] = 900.0, 1e12
    with pytest.raises(StandardizationError, match="LR maximum <= 1"):
        StandardizedFunctional("r", sc, table)


def _accepted(build) -> bool:
    try:
        build()
    except (ScenarioMismatchError, StandardizationError):
        return False
    return True


def _chsh_source_on(sc: Scenario) -> Distribution:
    """The maximally entangled CHSH source's outcome conditionals on the (2, 2, 2) scenario ``sc``'s settings."""
    conditional = born_distribution(*chsh_config(np.pi / 4.0)).probs.reshape(4, 4) * 4.0
    return Distribution(sc, (conditional * sc.setting_distribution[:, None]).ravel())


def _mart_outcome(f: Functional, trials: np.ndarray, q: Distribution) -> tuple:
    """mart's p-value history for ``f`` on ``trials`` and its rate at source ``q``, or the message that refuses it."""
    functions = [trivial_standardized(f.scenario), standardize(f)] if f.inf_b < f.bound_B else []
    try:
        rate = PROTOCOLS["mart"].rate(q, functions, DEFAULT_CONTROLS)
        return run_martingale(trials, f).history().tolist(), rate
    except ValueError as exc:
        return (str(exc),)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_values_at_results_of_an_impossible_setting_never_change_acceptance(data):
    # joint setting 4 of (2, 2, 2) has probability 0, so its results 12..15 weigh nothing in an LR expectation;
    # bounds are drawn on both sides of the slack edge, in units of the oracle's LR maximum less the minimum over
    # results 0..11, and weighted tables in units of the oracle's LR maximum of |table|
    pi = [1 / 3, 1 / 3, 1 / 3, 0.0]
    sc, vertices = Scenario(2, 2, 2, pi), enumerate_strategy_distributions(2, 2, 2, pi)
    table = np.array(data.draw(st.lists(st.floats(-5.0, 5.0, allow_subnormal=False), min_size=16, max_size=16)))
    top, scale = (vertices @ table).max(), (vertices @ np.abs(table)).max()
    assume(scale > 0.0)
    offset = data.draw(st.sampled_from([-1e-6, -2 * LR_EXCESS, -LR_EXCESS / 2, 0.0, 1e-6]))
    added = np.zeros(16)
    added[12:] = data.draw(st.lists(st.floats(0.0, 1e12, allow_subnormal=False), min_size=4, max_size=4))
    sign = data.draw(st.sampled_from([1.0, -1.0]))
    bound = top + offset * (top - table[:12].min())
    functional = [_accepted(lambda: Functional("t", sc, bound, t)) for t in (table, table + sign * added)]
    r = np.abs(table) / scale * (1.0 + offset)
    weighted = [_accepted(lambda: StandardizedFunctional("r", sc, t)) for t in (r, r + added)]
    assert functional[0] == functional[1] and weighted[0] == weighted[1]
    if functional[0]:
        # neither the range nor anything read from it sees the added values: no trial can score them
        f, g = Functional("t", sc, bound, table), Functional("t", sc, bound, table + sign * added)
        assert (f.inf_b, f.sup_a) == (g.inf_b, g.sup_a)
        if f.inf_b < bound:
            assert np.array_equal(standardize(f).table[:12], standardize(g).table[:12])
        q = _chsh_source_on(sc)
        trials = sample_encoded(q, 40, seed=0)
        slop = np.zeros(16)  # a source may hold up to PROBABILITY_TOLERANCE of mass at the impossible results
        slop[data.draw(st.integers(12, 15))] = data.draw(st.sampled_from([0.0, PROBABILITY_TOLERANCE / 2]))
        source = Distribution(sc, q.probs + slop)
        assert _mart_outcome(f, trials, source) == _mart_outcome(g, trials, source)


def test_the_mermin_functional_has_lr_bound_two():
    # three parties: the last party's best reply to the others' 16 strategies
    sc, (ghz, table) = Scenario(3, 2, 2), ghz_mermin()
    assert (enumerate_strategy_distributions(3, 2, 2) @ table).max() == 2.0 and ghz @ table == 4.0
    assert Functional("mermin", sc, 2.0, table).sup_a == 8.0
    with pytest.raises(ScenarioMismatchError, match="below the LR maximum 2"):
        Functional("mermin", sc, 1.999, table)


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


def test_a_catalog_builds_no_strategy_map(monkeypatch):
    # each of (2, 3, 4)'s 144 witnesses is checked by party B's best reply to party A's 64 strategies
    def build(scenario):
        raise AssertionError("a function set built the strategy map")

    monkeypatch.setattr(lrpolytope, "strategy_result_indices", build)
    monkeypatch.setattr(lrpolytope, "enumerate_strategies", build)
    sizes = [len(build_function_set(catalog_names(sc), sc)) for sc in (Scenario(2, 2, 2), Scenario(2, 2, 3), Scenario(2, 3, 4))]
    assert sizes == [19, 26, 145]
