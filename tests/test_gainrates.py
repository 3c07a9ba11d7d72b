import math

import numpy as np
import pytest

from bellcert import (
    Distribution,
    OptimizerControls,
    build_function_set,
    cglmp_functional,
    expectation,
    gain_curve,
    gain_martingale,
    gain_spbr,
    log_gain,
    optimal_gain,
    uniform_outcome_distribution,
)
from bellcert.protocols import PROTOCOLS


def test_gain_martingale_no_violation():
    assert gain_martingale(2.0, 4.0, -4.0, 2.0) == 0.0
    assert gain_martingale(1.0, 4.0, -4.0, 2.0) == 0.0


def test_gain_martingale_chsh_value():
    g = gain_martingale(2.0 * math.sqrt(2.0), 4.0, -4.0, 2.0)
    # direct evaluation of the closed form
    iq = 2.0 * math.sqrt(2.0)
    direct = (4 - iq) / 8 * math.log2((4 - iq) / 2) + (iq + 4) / 8 * math.log2((iq + 4) / 6)
    assert g == pytest.approx(direct, rel=1e-14)
    assert g == pytest.approx(0.04633, abs=1e-4)


def test_gain_martingale_upper_limit():
    # analytically continued endpoint value
    assert gain_martingale(4.0, 4.0, -4.0, 2.0) == pytest.approx(math.log2(8.0 / 6.0), rel=1e-14)


def test_gain_martingale_ordering_errors():
    with pytest.raises(ValueError):
        gain_martingale(3.0, 4.0, -4.0, 5.0)  # B > a
    with pytest.raises(ValueError):
        gain_martingale(5.0, 4.0, -4.0, 2.0)  # mean above a
    with pytest.raises(ValueError):
        gain_martingale(-5.0, 4.0, -4.0, 2.0)


def test_gain_spbr_lr_distribution_zero(chsh_scenario):
    functions = build_function_set(["chsh"], chsh_scenario)
    opt = gain_spbr(uniform_outcome_distribution(chsh_scenario), functions)
    assert -1e-6 <= opt.gain <= 1e-10


def test_gain_spbr_requires_trivial(chsh_q):
    functions = build_function_set(["chsh"], chsh_q.scenario)
    with pytest.raises(ValueError):
        gain_spbr(chsh_q, functions[1:])


def test_chsh_two_valued_equality(chsh_q):
    # the CHSH function only takes the values {-4, 4}, so the weighted
    # protocol's best rate collapses to the mean-based closed form
    functions = build_function_set(["chsh"], chsh_q.scenario)
    opt = gain_spbr(chsh_q, functions)
    g_mart = gain_martingale(2.0 * math.sqrt(2.0), 4.0, -4.0, 2.0)
    assert opt.gain == pytest.approx(g_mart, abs=1e-9)


def test_equality_iff_two_valued_support(cglmp3_scenario):
    f = cglmp_functional(cglmp3_scenario)
    functions = build_function_set(["cglmp:3"], cglmp3_scenario)
    table = f.table
    lo, hi = table.min(), table.max()
    # support only on extreme values, violating mean -> equality
    probs = np.zeros(36)
    probs[np.argmax(table)] = 0.85
    probs[np.argmin(table)] = 0.15
    q = Distribution(cglmp3_scenario, probs, empirical=True)
    iq = expectation(f, q)
    assert iq > 2.0
    g_m = gain_martingale(iq, hi, lo, 2.0)
    g_s = gain_spbr(q, functions).gain
    assert abs(g_m - g_s) < 1e-6
    # interior mass -> strict gap
    probs = np.zeros(36)
    probs[np.argmax(table)] = 0.80
    interior = np.flatnonzero(np.abs(table) < 1e-9)[0]
    probs[interior] = 0.20
    q2 = Distribution(cglmp3_scenario, probs, empirical=True)
    iq2 = expectation(f, q2)
    assert iq2 > 2.0
    gap = gain_spbr(q2, functions).gain - gain_martingale(iq2, hi, lo, 2.0)
    assert gap > 1e-6


def test_mart_bounded_by_spbr_randomized(chsh_scenario):
    # the feasible witness w0 = (Iq - B)/(a - B) already reaches the closed form
    rng = np.random.default_rng(99)
    functions = build_function_set(["chsh"], chsh_scenario)
    r = np.column_stack([np.ones(16), functions[1].table])
    f = build_function_set(["chsh"], chsh_scenario)[1].source
    table = f.table
    tight = OptimizerControls(rel_tolerance=1e-13)
    checked = 0
    for _ in range(40):
        q = Distribution(chsh_scenario, rng.dirichlet(np.full(16, 0.25)), empirical=True)
        iq = q.expectation(table)
        g_m = gain_martingale(min(max(iq, -4.0), 4.0), 4.0, -4.0, 2.0)
        g_s = gain_spbr(q, functions, tight).gain
        assert g_m <= g_s + 1e-9
        if iq > 2.0:
            checked += 1
            w0 = (iq - 2.0) / 2.0
            witness = log_gain(np.array([1.0 - w0, w0]), r, q.probs)
            assert witness >= g_m - 1e-9
    assert checked > 3


def test_optimal_gain_bounds(cglmp3_q, chsh_scenario):
    assert optimal_gain(uniform_outcome_distribution(chsh_scenario)) == pytest.approx(0.0, abs=1e-6)
    functions = build_function_set(["cglmp:3"], cglmp3_q.scenario)
    g_s = gain_spbr(cglmp3_q, functions).gain
    s_q = optimal_gain(cglmp3_q)
    assert g_s <= s_q + 1e-6


def test_gain_curve_cglmp():
    reports = gain_curve("cglmp", [2, 3], include_optimal=True)
    assert len(reports) == 2
    assert reports[0].parameter == 2.0
    assert reports[0].gain_spbr == pytest.approx(reports[0].gain_mart, abs=1e-7)
    assert reports[1].optimal == pytest.approx(reports[1].gain_spbr, abs=1e-3)
    assert reports[1].mean_value == pytest.approx(32.0 / 11.0, abs=1e-9)


def test_gain_curve_chsh():
    reports = gain_curve("chsh", [math.pi / 8.0])
    (rep,) = reports
    assert rep.gain_spbr_extended is not None
    assert rep.gain_spbr_extended > rep.gain_spbr
    assert rep.mean_value == pytest.approx(2.0 * math.sqrt(1.0 + math.sin(math.pi / 4.0) ** 2), abs=1e-9)


def test_gain_curve_unknown_sweep():
    with pytest.raises(ValueError):
        gain_curve("bogus", [1])


@pytest.mark.parametrize("name", list(PROTOCOLS))
def test_protocol_rate_is_each_protocols_own_formula(chsh_q, name):
    functions, controls = build_function_set((), chsh_q.scenario), OptimizerControls()
    f = functions[1].source
    direct = {
        "mart": lambda: gain_martingale(expectation(f, chsh_q), f.sup_a, f.inf_b, f.bound_B),
        "spbr": lambda: gain_spbr(chsh_q, functions, controls).gain,
        "fpbr": lambda: optimal_gain(chsh_q, controls),
    }[name]
    assert PROTOCOLS[name].rate(chsh_q, functions, controls) == direct()
