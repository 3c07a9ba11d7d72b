import ast
import copy
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellcert import (
    Distribution,
    FullPbrAnalysis,
    Functional,
    OptimizerControls,
    Scenario,
    ScenarioMismatchError,
    SimplifiedPbrAnalysis,
    SimulationPlan,
    SizeLimitError,
    StandardizationError,
    StandardizedFunctional,
    azuma_pvalue,
    build_function_set,
    chsh_functional,
    encode_result,
    gain_martingale,
    gain_spbr,
    kl_project_lr,
    martingale_pvalue,
    mixture_distribution,
    no_signaling_functionals,
    pbr_pvalue,
    run_full_pbr,
    run_martingale,
    run_seed_sweep,
    run_simplified_pbr,
    sample_encoded,
    standardize,
    strategy_distribution,
    trivial_standardized,
    uniform_outcome_distribution,
)
from bellcert import gainrates, protocols
from bellcert.protocols import PROTOCOLS, BlockAnalysis, select_protocols
from oracles import enumerate_strategy_distributions, ghz_mermin, run_full_pbr_reference, worst_case_exceedance


def test_pbr_pvalue_basics():
    assert pbr_pvalue(0.0) == 1.0
    assert pbr_pvalue(10.0) == 2.0**-10
    assert pbr_pvalue(-3.0) == 1.0
    assert pbr_pvalue(-math.inf) == 1.0
    assert 0.0 < pbr_pvalue(5000.0) <= 5e-324


def test_martingale_pvalue_at_bound():
    assert martingale_pvalue(2.0, 10, 4.0, -4.0, 2.0) == 1.0
    assert martingale_pvalue(1.0, 10, 4.0, -4.0, 2.0) == 1.0


def test_martingale_pvalue_limit_form():
    # mean at the supremum: ((B - b)/(a - b))^N
    assert martingale_pvalue(4.0, 10, 4.0, -4.0, 2.0) == pytest.approx((6.0 / 8.0) ** 10, rel=1e-12)
    assert (6.0 / 8.0) ** 10 == pytest.approx(5.63e-2, abs=2e-4)


def test_martingale_pvalue_matches_direct_formula():
    # direct float evaluation of the closed-form bound
    a, b, bound, n = 4.0, -4.0, 2.0, 1000
    i_hat = 2.0 * math.sqrt(2.0)
    direct = (((a - bound) / (a - i_hat)) ** ((a - i_hat) / (a - b)) * ((bound - b) / (i_hat - b)) ** ((i_hat - b) / (a - b))) ** n
    p = martingale_pvalue(i_hat, n, a, b, bound)
    assert p == pytest.approx(direct, rel=1e-9)
    # consistency with the rate: log2 p = -N * G at the observed mean
    assert math.log2(p) == pytest.approx(-n * gain_martingale(i_hat, a, b, bound), rel=1e-12)
    assert 46.0 < -math.log2(p) < 46.6


def test_martingale_pvalue_validation():
    with pytest.raises(ValueError):
        martingale_pvalue(5.0, 10, 4.0, -4.0, 2.0)
    with pytest.raises(ValueError):
        martingale_pvalue(3.0, 0, 4.0, -4.0, 2.0)
    with pytest.raises(ValueError):
        martingale_pvalue(3.0, 10, 4.0, -4.0, 6.0)


def test_azuma_pvalue():
    assert azuma_pvalue(2.0, 10, 4.0, -4.0, 2.0) == 1.0
    # plug-in: exp(-2 * 10 * (2/8)^2) = exp(-1.25)
    assert azuma_pvalue(4.0, 10, 4.0, -4.0, 2.0) == pytest.approx(math.exp(-1.25), rel=1e-12)


def test_mart_not_looser_than_azuma_random():
    rng = np.random.default_rng(17)
    for _ in range(1000):
        lo, hi = np.sort(rng.normal(0.0, 5.0, size=2))
        if hi - lo < 1e-6:
            continue
        bound = rng.uniform(lo, hi)
        if not lo < bound < hi:
            continue
        i_hat = rng.uniform(bound, hi)
        n = int(rng.integers(1, 500))
        assert martingale_pvalue(i_hat, n, hi, lo, bound) <= azuma_pvalue(i_hat, n, hi, lo, bound) + 1e-15


def test_run_martingale_alternating(chsh_scenario):
    f = chsh_functional(chsh_scenario)
    plus = encode_result(chsh_scenario, (1, 1), (0, 0))  # I = +4
    minus = encode_result(chsh_scenario, (2, 2), (0, 0))  # I = -4
    analysis = run_martingale(np.array([plus, minus] * 10), f)
    assert analysis.mean == 0.0
    assert analysis.pvalue == 1.0


def test_run_martingale_all_max(chsh_scenario):
    f = chsh_functional(chsh_scenario)
    plus = encode_result(chsh_scenario, (1, 1), (0, 0))
    n = 25
    analysis = run_martingale(np.array([plus] * n), f)
    assert analysis.pvalue == pytest.approx((3.0 / 4.0) ** n, rel=1e-12)
    hist = analysis.history()
    assert hist.shape == (n, 3)
    assert np.all(hist[:, 1] <= f.sup_a) and np.all(hist[:, 1] >= f.inf_b)


def test_run_martingale_mean_rounding_past_the_range_is_clipped(chsh_scenario):
    # three scores of 0.4 sum to 1.2000000000000002, so the raw running mean rounds past sup_a = 0.4
    f = Functional("scaled", chsh_scenario, 0.2, 0.1 * chsh_functional(chsh_scenario).table)
    analysis = run_martingale(np.array([encode_result(chsh_scenario, (1, 1), (0, 0))] * 3), f)
    assert analysis.mean == f.sup_a == 0.4
    assert analysis.pvalue == pytest.approx(0.75**3, rel=1e-12)
    hist = analysis.history()
    assert np.all(hist[:, 1] == 0.4)
    assert hist[:, 2] == pytest.approx(0.75 ** np.arange(1, 4), rel=1e-12)


def _chsh_mart_pvalue(n, k):
    """mart's CHSH p-value after n trials of which k scored +4 and the rest -4, as the engine computes it."""
    return martingale_pvalue(np.asarray(4.0 * (2 * k - n)) / n, n, 4.0, -4.0, 2.0)


def test_mart_final_p_is_valid_against_every_lr_model_on_chsh(chsh_scenario):
    # at uniform settings an LR model scores +4 with probability at most 3/4 given any past, so the recursion
    # over (trial, number of +4 scores) is the exact worst case over every adaptive LR model
    plus, minus = (encode_result(chsh_scenario, (1, 1), (0, o)) for o in (0, 1))  # I = +4, -4
    ups = np.random.default_rng(0).random(200) < 0.75
    history = run_martingale(np.where(ups, plus, minus), chsh_functional(chsh_scenario)).history()
    assert np.array_equal(history[:, 2], [_chsh_mart_pvalue(n, k) for n, k in enumerate(np.cumsum(ups), start=1)])
    for alpha in (0.5, 0.1, 0.02, 0.001):
        final, running = worst_case_exceedance(_chsh_mart_pvalue, 200, alpha, 0.75)
        assert np.all(final <= alpha), (alpha, int(np.argmax(final / alpha)) + 1, float(np.max(final / alpha)))
        if alpha == 0.1:  # the README's figures: the running minimum is not a valid p-value
            assert (round(float(final[-1]), 7), round(float(running[-1]), 6)) == (0.0182386, 0.169771)


def test_run_martingale_rejects_unbounded(chsh_scenario):
    f = chsh_functional(chsh_scenario)
    bad = type(f)(name="bad", scenario=f.scenario, bound_B=5.0, table=f.table)
    with pytest.raises(ValueError):
        run_martingale([], bad)


def test_spbr_single_block_is_trivial(chsh_scenario, chsh_q):
    functions = build_function_set(["chsh"], chsh_scenario)
    enc = sample_encoded(chsh_q, 120, seed=0)
    analysis = run_simplified_pbr(enc, functions, block_size=500)
    assert analysis.log2_t == 0.0
    assert analysis.pvalue == 1.0


def test_spbr_zero_r_data_keeps_trivial_weights(chsh_scenario):
    # every trial sits at r = 0, so any non-trivial weight would lose: the
    # refit returns the trivial weighting and the p-value stays 1.  A trial
    # scores log2 of the trivial weight, so every running total is exactly 0
    # iff every refit keeps weight exactly 1 on the trivial function.
    functions = build_function_set(["chsh"], chsh_scenario)
    x = encode_result(chsh_scenario, (2, 2), (0, 0))  # I = -4, r = 0
    analysis = run_simplified_pbr(np.array([x] * 60), functions, block_size=10)
    assert analysis.log2_t == 0.0
    assert analysis.pvalue == 1.0
    assert np.all(analysis.history()[:, 1] == 0.0)


def test_spbr_refuses_a_hand_built_function_above_lr_expectation_one(chsh_scenario):
    # CHSH / 2 + 2 has LR maximum 3.  Unchecked, 2,000 trials of the deterministic
    # strategy that attains CHSH = 2 gave spbr p = 5e-324 with it.
    table = chsh_functional(chsh_scenario).table / 2.0 + 2.0
    enc = sample_encoded(strategy_distribution(chsh_scenario, [[0, 0], [0, 0]]), 2000, seed=0)
    with pytest.raises(StandardizationError, match="LR maximum <= 1"):
        run_simplified_pbr(enc, [trivial_standardized(chsh_scenario), StandardizedFunctional("inflated", chsh_scenario, table)])


def test_spbr_requires_trivial_first(chsh_scenario):
    functions = build_function_set(["chsh"], chsh_scenario)
    with pytest.raises(ValueError):
        SimplifiedPbrAnalysis(functions[1:])
    with pytest.raises(ValueError):
        SimplifiedPbrAnalysis(functions, block_size=0)


@pytest.mark.parametrize(
    "trivial_scenario,function_scenario",
    [(Scenario(2, 2, 3), Scenario(2, 3, 2)), (Scenario(2, 2, 2), Scenario(2, 2, 2, [0.4, 0.1, 0.3, 0.2]))],
    ids=["equal-K", "setting-distribution"],
)
def test_functions_must_share_one_scenario(trivial_scenario, function_scenario):
    functions = [trivial_standardized(trivial_scenario), standardize(no_signaling_functionals(function_scenario)[0])]
    with pytest.raises(ScenarioMismatchError):
        SimplifiedPbrAnalysis(functions)
    with pytest.raises(ScenarioMismatchError):
        gain_spbr(uniform_outcome_distribution(trivial_scenario), functions)


def _record_predictions(analysis) -> list:
    """Make ``analysis`` record the (counts, n) rows its predictor is handed; returns the record."""
    rows, predict = [], analysis.predict

    def recording(counts, n):
        rows.extend(zip(counts.tolist(), n.tolist()))
        return predict(counts, n)

    analysis.predict = recording
    return rows


def test_spbr_prediction_property(chsh_scenario, chsh_q):
    # permuting trials inside a block changes nothing the protocol can see
    functions = build_function_set(["chsh"], chsh_scenario)
    enc = sample_encoded(chsh_q, 600, seed=21)
    block = 100
    rng = np.random.default_rng(4)
    permuted = enc.copy()
    for start in range(0, 600, block):
        seg = permuted[start : start + block]
        rng.shuffle(seg)
    base, perm = SimplifiedPbrAnalysis(functions, block), SimplifiedPbrAnalysis(functions, block)
    base_rows, perm_rows = _record_predictions(base), _record_predictions(perm)
    base.extend(enc)
    perm.extend(permuted)
    assert base_rows == perm_rows and [n for _, n in base_rows] == [100, 200, 300, 400, 500]
    ends = np.arange(block, 601, block) - 1
    assert np.allclose(base.history()[ends], perm.history()[ends], rtol=1e-12, atol=0)
    assert base.log2_t == pytest.approx(perm.log2_t, rel=1e-12)


def _same(a, b) -> bool:
    if isinstance(a, list):
        return len(a) == len(b) and all(map(_same, a, b))
    return np.array_equal(a, b) if isinstance(a, np.ndarray) else repr(a) == repr(b)


@pytest.mark.parametrize("protocol", ["spbr", "fpbr"])
def test_predictors_are_pure(chsh_q, protocol):
    # a block's table is a function of the prefix counts alone: asking twice gives the same
    # tables and leaves the analysis (n, total, counts, table, flags, _totals, ...) as it was
    enc = sample_encoded(chsh_q, 300, seed=2)
    analysis = _run_named(protocol, enc, chsh_q.scenario, 40)
    counts, n = np.vstack((np.bincount(enc[:120], minlength=16), analysis.counts)), np.array([120, 300])
    state = copy.deepcopy(vars(analysis))
    first, second = analysis.predict(counts, n), analysis.predict(counts, n)
    assert first[0].shape == (2, 16) and first[1].shape == (2,)
    assert all(np.array_equal(a, b) for a, b in zip(first, second))
    assert vars(analysis).keys() == state.keys()
    for name, value in state.items():
        assert _same(getattr(analysis, name), value), name


def test_spbr_prefix_is_valid_certificate(chsh_scenario, chsh_q):
    functions = build_function_set(["chsh"], chsh_scenario)
    enc = sample_encoded(chsh_q, 400, seed=33)
    full = run_simplified_pbr(enc, functions, block_size=50)
    for k in (1, 49, 50, 260, 400):
        partial = run_simplified_pbr(enc[:k], functions, block_size=50)
        assert partial.log2_t == pytest.approx(full.history()[k - 1, 1], rel=1e-12, abs=1e-12)
        assert partial.pvalue == full.history()[k - 1, 2]


def test_spbr_gains_on_quantum_data(chsh_scenario, chsh_q):
    functions = build_function_set(["chsh"], chsh_scenario)
    enc = sample_encoded(chsh_q, 4000, seed=9)
    analysis = run_simplified_pbr(enc, functions, block_size=154)
    assert analysis.pvalue < 1e-20
    assert analysis.flags == []


def test_fpbr_single_block(chsh_scenario, chsh_q):
    enc = sample_encoded(chsh_q, 200, seed=2)
    analysis = run_full_pbr(enc, chsh_scenario, block_size=200)
    assert analysis.log2_t == 0.0
    assert analysis.pvalue == 1.0


def test_fpbr_lr_support_stays_near_one(chsh_scenario):
    # balanced data from one deterministic strategy: the projection is
    # essentially exact, the ratio stays near 1, and no evidence accumulates
    strat = strategy_distribution(chsh_scenario, np.zeros((2, 2), dtype=int))
    support = strat.support()
    trials = np.tile(support, 30)
    analysis = run_full_pbr(trials, chsh_scenario, block_size=20)
    assert abs(analysis.log2_t) < 0.01
    assert analysis.pvalue > 0.99


def test_fpbr_zero_floor_flags_new_results(chsh_scenario):
    # with no floor, a result first seen after the first refit has ratio 0
    seen = encode_result(chsh_scenario, (1, 1), (0, 0))
    newcomer = encode_result(chsh_scenario, (2, 2), (1, 1))
    trials = np.array([seen] * 10 + [newcomer], dtype=np.int64)
    analysis = run_full_pbr(trials, chsh_scenario, block_size=10, floor=0.0)
    assert analysis.log2_t == -math.inf
    assert analysis.pvalue == 1.0
    assert any("zero-valued ratio" in f for f in analysis.flags)


def test_fpbr_gains_on_quantum_data(cglmp3_q):
    enc = sample_encoded(cglmp3_q, 4000, seed=12)
    analysis = run_full_pbr(enc, cglmp3_q.scenario, block_size=154)
    assert analysis.pvalue < 1e-10


def test_fpbr_validation(chsh_scenario):
    with pytest.raises(ValueError):
        FullPbrAnalysis(chsh_scenario, block_size=0)
    with pytest.raises(ValueError):
        FullPbrAnalysis(chsh_scenario, floor=1.0)
    with pytest.raises(ValueError):
        FullPbrAnalysis(chsh_scenario).extend([-1])
    # (2, 2, 13): 13^4 = 28,561 strategies fit STRATEGY_CAP, but a projection over its 676
    # possible results needs a 19,307,236-entry table; it once failed only at the first block
    with pytest.raises(SizeLimitError, match="28561 x 676 exceeds 16777216"):
        FullPbrAnalysis(Scenario(2, 2, 13))
    FullPbrAnalysis(Scenario(2, 2, 12))  # 20,736 x 576 fits


def _run_named(protocol, trials, scenario, block_size=154):
    d = scenario.outcomes_per_setting
    functions = build_function_set(["chsh" if d == 2 else f"cglmp:{d}"], scenario)
    return PROTOCOLS[protocol].run(trials, functions, block_size, OptimizerControls(), 1e-9)


@pytest.mark.parametrize("path", ["run", "rate"])
def test_mart_refuses_a_function_with_no_source(chsh_q, path):
    # a hand-built weighted function is valid for spbr, but mart has no functional to certify
    sc = chsh_q.scenario
    functions = [trivial_standardized(sc), StandardizedFunctional("r", sc, standardize(chsh_functional(sc)).table)]
    with pytest.raises(ValueError, match="'mart' needs a non-trivial sourced functional at position 1"):
        if path == "run":
            PROTOCOLS["mart"].run(sample_encoded(chsh_q, 20, seed=0), functions, 10, OptimizerControls(), 1e-9)
        else:
            PROTOCOLS["mart"].rate(chsh_q, functions, OptimizerControls())


def test_mart_rate_on_a_source_summing_to_one_within_tolerance(chsh_scenario):
    # every result of this source scores inf_b = 6; its mean 6 * (1 - 5e-11) raised "outside the declared range [6.0, 14.0]"
    f = Functional("shifted", chsh_scenario, 12.0, chsh_functional(chsh_scenario).table + 10.0)
    probs = np.where(f.table == 6.0, 1 / 8, 0.0) * (1.0 - 5e-11)
    functions = [trivial_standardized(chsh_scenario), standardize(f)]
    assert PROTOCOLS["mart"].rate(Distribution(chsh_scenario, probs), functions, OptimizerControls()) == 0.0


def test_the_certificates_import_neither_the_analytics_nor_the_simulator():
    tree = ast.parse(Path(protocols.__file__).read_text())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names.update((node.module or "").split("."), (a.name for a in node.names))
        elif isinstance(node, ast.Import):
            names.update(part for a in node.names for part in a.name.split("."))
    assert "numpy" in names and not names & {"gainrates", "quantum"}


def test_select_protocols_names_the_first_unknown_entry():
    # in list order, whatever order a set of the names would iterate in
    for names, first in ((["mart", "zz", "aa"], "zz"), (["aa", "spbr", "zz"], "aa")):
        with pytest.raises(ValueError, match=rf"^unknown protocol '{first}' \(expected one of \('mart', 'spbr', 'fpbr'\)\)$"):
            select_protocols(names, 10)


class FixedMixAnalysis(BlockAnalysis):
    """A protocol known only to this module: every block scores the mean of the trivial and standardized CHSH tables.

    Both tables are >= 0 with LR maximum at most 1, so their mean is too: a valid, never refit, test supermartingale.
    """

    refit_name = "fixed mix"

    def __init__(self, functions, block_size):
        self.mix = 0.5 * (functions[0].table + functions[1].table)
        super().__init__(functions[0].scenario, block_size, self.mix)

    def predict(self, counts, n):
        return np.tile(self.mix, (n.size, 1)), np.ones(n.size, dtype=bool)

    @staticmethod
    def run(trials, functions, block_size, controls, floor):
        analysis = FixedMixAnalysis(functions, block_size)
        analysis.extend(trials)
        return analysis

    @staticmethod
    def rate(q, functions, controls):
        return float(q.probs @ np.log2(0.5 * (functions[0].table + functions[1].table)))


def test_a_protocol_is_its_class_wherever_it_is_defined(monkeypatch, chsh_q):
    # registering the class is all it takes: selection, runs, a seed sweep's rate table and its reports
    monkeypatch.setitem(PROTOCOLS, "mix", FixedMixAnalysis)
    assert select_protocols(["spbr", "mix"], 20) == {"spbr": SimplifiedPbrAnalysis, "mix": FixedMixAnalysis}
    functions, controls = build_function_set(["chsh"], chsh_q.scenario), OptimizerControls()
    enc = sample_encoded(chsh_q, 200, seed=0)
    mix = protocols._run_selection(["mix"], enc, functions, 20, controls, 1e-9)["mix"]
    assert mix.n == 200 and mix.statistic == pytest.approx(np.log2(mix.mix[enc]).sum(), rel=1e-12)
    [result] = run_seed_sweep(SimulationPlan(chsh_q, 200, 0, protocols=("mart", "mix"), block_size=20), [0])
    assert result.rates["mix"] == FixedMixAnalysis.rate(chsh_q, functions, controls) > 0.0
    assert result.rates["mix"] == pytest.approx(float(chsh_q.probs @ np.log2(mix.mix)), rel=1e-12)
    assert np.array_equal(result.analyses["mix"].history(), mix.history())


def test_each_protocol_runs_and_rates_through_its_module_globals(monkeypatch, chsh_q):
    # perfbench/traced.py times protocols.<name>.self_s and the rate spans by rebinding exactly these names
    # (the rate functions' gainrates names are the same objects, so a wrap of every binding reaches both)
    assert gainrates.gain_spbr is protocols.gain_spbr and gainrates.optimal_gain is protocols.optimal_gain
    calls = []

    def counted(name, fn):
        return lambda *args, **kwargs: calls.append(name) or fn(*args, **kwargs)

    for name in ("run_martingale", "run_simplified_pbr", "run_full_pbr", "gain_martingale", "gain_spbr", "optimal_gain"):
        monkeypatch.setattr(protocols, name, counted(name, getattr(protocols, name)))
    routes = {"mart": ["run_martingale", "gain_martingale"], "spbr": ["run_simplified_pbr", "gain_spbr"], "fpbr": ["run_full_pbr", "optimal_gain"]}
    functions, controls = build_function_set(["chsh"], chsh_q.scenario), OptimizerControls()
    assert list(PROTOCOLS) == list(routes)
    for name, cls in PROTOCOLS.items():
        calls.clear()
        assert cls.run(sample_encoded(chsh_q, 40, seed=0), functions, 20, controls, 1e-9).n == 40
        assert cls.rate(chsh_q, functions, controls) > 0.0
        assert calls == routes[name], name


@pytest.mark.parametrize("protocol", ["mart", "spbr", "fpbr"])
@pytest.mark.parametrize(
    "bad",
    [
        np.array([3, 16, 0], dtype=np.int64),
        np.array([3, -1, 0], dtype=np.int64),
        np.array([3, 2**40, 0], dtype=np.int64),
        [((1, 1), (0, 0))] * 3,  # records are encoded at the file boundary, never here
        np.array([3.0, 1.0, 0.0]),
    ],
    ids=["16", "-1", "1099511627776", "records", "floats"],
)
def test_out_of_range_indices_raise(chsh_scenario, protocol, bad):
    with pytest.raises(ValueError):
        _run_named(protocol, bad, chsh_scenario)


@pytest.mark.parametrize("protocol", ["mart", "spbr", "fpbr"])
def test_chunked_extend_matches_one_call(chsh_q, protocol):
    block = 40
    enc = sample_encoded(chsh_q, 700, seed=8)
    whole = _run_named(protocol, enc, chsh_q.scenario, block)
    for size in (1, 7, block, 3 * block + 5):
        chunked = _run_named(protocol, enc[:0], chsh_q.scenario, block)
        for start in range(0, enc.size, size):
            chunked.extend(enc[start : start + size])
        assert chunked.n == whole.n
        assert np.array_equal(chunked.history(), whole.history())
        assert chunked.pvalue == whole.pvalue == whole.history()[-1, 2]


@pytest.mark.parametrize("budget", [5, 50, None])
@pytest.mark.parametrize("floor", [1e-9, 0.0])
@pytest.mark.parametrize("config", ["chsh", "cglmp:3", "zero-setting"])
def test_fpbr_one_pass_projections_match_per_block_calls(chsh_q, cglmp3_q, zero_setting_q, config, floor, budget):
    # all projections of a pass are one run-axis solve; the reference makes one kl_project_lr call per block
    q = {"chsh": chsh_q, "cglmp:3": cglmp3_q, "zero-setting": zero_setting_q}[config]
    controls = OptimizerControls() if budget is None else OptimizerControls(max_iterations=budget)
    block = 25
    enc = sample_encoded(q, 400, seed=3)
    sc = q.scenario

    def project(freq):
        proj = kl_project_lr(Distribution(q.scenario, freq, empirical=True), controls)
        return proj.distribution.probs, proj.converged

    history, log2_t, flags = run_full_pbr_reference(
        enc, sc.parties, sc.settings_per_party, sc.outcomes_per_setting, sc.setting_distribution, block, floor, project
    )
    assert any("hit the iteration budget" in f for f in flags) == (budget is not None)
    assert any("zero-valued ratio" in f for f in flags) == (floor == 0.0)
    # chunks of 1, 7, a block and the whole run; the last run also in passes of 3 blocks
    for size, pass_blocks in ((1, None), (7, None), (block, None), (enc.size, None), (enc.size, 3)):
        analysis = FullPbrAnalysis(q.scenario, block, controls, floor)
        analysis._pass_blocks = pass_blocks or analysis._pass_blocks
        for start in range(0, enc.size, size):
            analysis.extend(enc[start : start + size])
        assert np.array_equal(analysis.history(), history)
        assert analysis.log2_t == log2_t
        assert analysis.flags == flags


def test_fpbr_pass_bounds_the_projection_rows(monkeypatch):
    # a pass holds at most PASS_ENTRIES (block, strategy) weights and (block, result) table entries:
    # (2, 3, 2) has 64 strategies and 36 results, (2, 16, 1) one strategy and 256 results
    project = protocols._project_rows
    for scenario, per_block, engine_blocks in ((Scenario(2, 3, 2), 64, 8), (Scenario(2, 16, 1), 256, 5)):
        rows = []
        monkeypatch.setattr(protocols, "_project_rows", lambda freq, *rest: rows.append(len(freq)) or project(freq, *rest))
        monkeypatch.setattr(protocols, "PASS_ENTRIES", per_block * 5)
        analysis = FullPbrAnalysis(scenario, 2, OptimizerControls(max_iterations=20))
        assert analysis._pass_blocks == 5 and BlockAnalysis(scenario, 2, analysis.table)._pass_blocks == engine_blocks
        analysis.extend(sample_encoded(uniform_outcome_distribution(scenario), 40, seed=1))
        assert rows == [4, 5, 5, 5] and len(analysis.history()) == 40


def test_fpbr_rescales_each_pass_with_one_lr_maximum_call(monkeypatch):
    # two projection steps leave each ratio's LR maximum at 1.2-1.6 on this (3, 2, 2) LR mixture; the rescale
    # is the last party's best reply, and every returned table has enumerated LR maximum at most 1
    scenario = Scenario(3, 2, 2)
    worst, tables, lr_maximum, predict = [], [], protocols.lr_maximum, FullPbrAnalysis.predict
    monkeypatch.setattr(protocols, "lr_maximum", lambda *args: worst.append(lr_maximum(*args)) or worst[-1])
    monkeypatch.setattr(FullPbrAnalysis, "predict", lambda self, *args: tables.append(predict(self, *args)) or tables[-1])
    lam = np.random.default_rng(5).dirichlet(np.ones(64))
    enc = sample_encoded(mixture_distribution(scenario, lam), 2000, seed=2)
    analysis = FullPbrAnalysis(scenario, 50, OptimizerControls(max_iterations=2))
    for start in range(0, enc.size, 300):
        analysis.extend(enc[start : start + 300])
    assert len(worst) == len(tables) == 7
    assert np.concatenate(worst).max() > 1.2
    vertices = enumerate_strategy_distributions(3, 2, 2)
    assert max((vertices @ table.T).max() for table, _ in tables) <= 1.0 + 1e-12


def test_fpbr_on_ghz_data():
    probs, _ = ghz_mermin()
    ghz = Distribution(Scenario(3, 2, 2), probs)
    assert run_full_pbr(sample_encoded(ghz, 20_000, seed=0), ghz.scenario, 50).neg_log2_pvalue > 3000.0


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_history_prefix_is_causal(data):
    # the first m rows of the history depend on the first m trials only, however the trials are chunked
    codes = st.lists(st.integers(0, 15), min_size=1, max_size=60)
    trials = np.array(data.draw(codes), dtype=np.int64)
    m = data.draw(st.integers(0, trials.size))
    other = np.concatenate([trials[:m], np.array(data.draw(codes), dtype=np.int64)])
    block, functions = data.draw(st.integers(1, 12)), build_function_set(["chsh"], Scenario(2, 2, 2))
    for protocol in ("mart", "spbr", "fpbr"):
        histories = []
        for run in (trials, other):
            analysis = PROTOCOLS[protocol].run(run[:0], functions, block, OptimizerControls(max_iterations=50), 1e-9)
            size = data.draw(st.integers(1, 25))
            for start in range(0, run.size, size):
                analysis.extend(run[start : start + size])
            histories.append(analysis.history()[:m])
        assert np.array_equal(*histories), protocol


def test_a_result_at_an_impossible_joint_setting_is_refused(zero_setting_q):
    # one trial at setting (3, 3), of probability 0, made every later fpbr projection fail
    # unflagged: log2 T fell from 489.92 to -4080.36
    scenario = zero_setting_q.scenario
    enc = sample_encoded(zero_setting_q, 20_000, seed=1)
    enc[100] = encode_result(scenario, (3, 3), (0, 1))
    for analysis in (FullPbrAnalysis(scenario, 500), SimplifiedPbrAnalysis([trivial_standardized(scenario)], 500)):
        analysis.extend(enc[:100])
        with pytest.raises(ValueError, match="trial 101: result 33 is at a joint setting of probability 0"):
            analysis.extend(enc[100:])
        assert analysis.n == 100


# Final values with refits that stop on the KKT gap 1e-8 (fpbr projecting from a
# cold start); mart is unchanged since the parent of the single-engine refactor.
PINNED_CGLMP3 = {
    "mart": (2.8536, 2.9232, 2.9476),
    "spbr": (576.3856606935582, 689.0978363457237, 708.7850924506398),
    "fpbr": (446.0261265402477, 584.6264100010923, 574.8983054065931),
}


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_cglmp3_final_values_pinned(cglmp3_q, seed):
    enc = sample_encoded(cglmp3_q, 10_000, seed=seed)
    assert _run_named("mart", enc, cglmp3_q.scenario).mean == PINNED_CGLMP3["mart"][seed]
    for protocol in ("spbr", "fpbr"):
        log2_t = _run_named(protocol, enc, cglmp3_q.scenario).log2_t
        assert log2_t == pytest.approx(PINNED_CGLMP3[protocol][seed], rel=1e-12), protocol


def test_cglmp3_seed4_projections_converge(cglmp3_q):
    # a warm-started projection before trial 9549 used to run the whole budget
    analysis = run_full_pbr(sample_encoded(cglmp3_q, 10_000, seed=4), cglmp3_q.scenario, 154)
    assert not any("hit the iteration budget" in flag for flag in analysis.flags)


def test_lr_data_keeps_pvalues_near_one(chsh_scenario):
    # LR source: median final p over seeds stays at the top of the scale
    uni = uniform_outcome_distribution(chsh_scenario)
    functions = build_function_set(["chsh"], chsh_scenario)
    f = chsh_functional(chsh_scenario)
    finals = {"mart": [], "spbr": [], "fpbr": []}
    controls = OptimizerControls(max_iterations=5000, rel_tolerance=1e-8)
    for seed in range(60):
        enc = sample_encoded(uni, 60, seed=seed)
        finals["mart"].append(run_martingale(enc, f).pvalue)
        finals["spbr"].append(run_simplified_pbr(enc, functions, 15, controls).pvalue)
        finals["fpbr"].append(run_full_pbr(enc, chsh_scenario, 15, controls).pvalue)
    for name, vals in finals.items():
        assert np.median(vals) > 0.9, name
        # crude exceedance sanity at alpha = 0.1 (full check in acceptance)
        assert np.mean(np.asarray(vals) <= 0.1) <= 0.1 + 3.0 * math.sqrt(0.1 / 60.0), name
