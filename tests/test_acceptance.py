"""End-to-end acceptance criteria.

Each test prints one PASS/FAIL line (run pytest with -s to see them inline);
tolerances are fixed here and nowhere else.
"""
import math

import numpy as np
import pytest

from bellcert import (
    Distribution,
    OptimizerControls,
    Scenario,
    azuma_pvalue,
    build_function_set,
    cglmp_functional,
    chsh_functional,
    expectation,
    gain_curve,
    gain_martingale,
    gain_spbr,
    kl_project_lr,
    martingale_pvalue,
    maximize_log_gain,
    mixture_distribution,
    optimal_gain,
    run_full_pbr,
    run_martingale,
    run_simplified_pbr,
    sample_encoded,
    strategy_distribution,
    uniform_outcome_distribution,
    validity_exceedance,
)

from oracles import enumerate_strategy_distributions, golden_section_max, projected_gradient_kl

pytestmark = pytest.mark.acceptance


def _report(num: int, desc: str, ok: bool, detail: str = "") -> None:
    line = f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {desc}"
    if detail:
        line += f" [{detail}]"
    print(line)
    assert ok, line


def test_criterion_1_cglmp3_gain_rates(cglmp3_q):
    f = cglmp_functional(cglmp3_q.scenario)
    i_q = expectation(f, cglmp3_q)
    g_mart = gain_martingale(i_q, f.sup_a, f.inf_b, f.bound_B)
    functions = build_function_set(["cglmp:3"], cglmp3_q.scenario)
    g_spbr = gain_spbr(cglmp3_q, functions).gain
    s_q = optimal_gain(cglmp3_q)
    ok = abs(g_mart - 0.0565) <= 5e-4 and abs(g_spbr - 0.0675) <= 5e-4 and abs(s_q - g_spbr) < 1e-3
    _report(
        1,
        "d=3 gain rates 0.0565 / 0.0675 with matching optimal rate",
        ok,
        f"G_mart={g_mart:.5f} G_sPBR={g_spbr:.5f} S_q={s_q:.5f}",
    )


def test_criterion_2_weighted_never_below_mean_based():
    rng = np.random.default_rng(2024)
    tight = OptimizerControls(rel_tolerance=1e-13)
    worst_slack = -math.inf
    n_violating = 0
    for scenario, name in ((Scenario(2, 2, 2), "chsh"), (Scenario(2, 2, 3), "cglmp:3")):
        f = chsh_functional(scenario) if name == "chsh" else cglmp_functional(scenario)
        functions = build_function_set([name], scenario)
        k = 16 if name == "chsh" else 36
        for i in range(100):
            alpha = 0.25 if i % 2 == 0 else 1.0
            probs = rng.dirichlet(np.full(k, alpha))
            if i % 3 == 2:
                # tilt toward the violating corner so both regimes are exercised
                tilt = rng.uniform(0.4, 0.9)
                probs = (1.0 - tilt) * probs + tilt * np.eye(k)[np.argmax(f.table)]
            q = Distribution(scenario, probs, empirical=True)
            i_q = min(max(q.expectation(f.table), f.inf_b), f.sup_a)
            g_mart = gain_martingale(i_q, f.sup_a, f.inf_b, f.bound_B)
            g_spbr = gain_spbr(q, functions, tight).gain
            worst_slack = max(worst_slack, g_mart - g_spbr)
            if i_q > f.bound_B:
                n_violating += 1
    ok_order = worst_slack <= 1e-9 and n_violating >= 20

    # constructed equality case: support only on the extreme values of I
    sc3 = Scenario(2, 2, 3)
    f3 = cglmp_functional(sc3)
    functions3 = build_function_set(["cglmp:3"], sc3)
    eq_gaps = []
    for w_hi in (0.8, 0.9, 0.95):
        probs = np.zeros(36)
        probs[np.argmax(f3.table)] = w_hi
        probs[np.argmin(f3.table)] = 1.0 - w_hi
        q = Distribution(sc3, probs, empirical=True)
        i_q = q.expectation(f3.table)
        assert i_q > f3.bound_B
        eq_gaps.append(abs(gain_spbr(q, functions3).gain - gain_martingale(i_q, f3.sup_a, f3.inf_b, f3.bound_B)))
    ok_equal = max(eq_gaps) < 1e-6

    # constructed interior-support case: strict gap
    probs = np.zeros(36)
    probs[np.argmax(f3.table)] = 0.8
    probs[np.flatnonzero(np.abs(f3.table) < 1e-9)[0]] = 0.2
    q = Distribution(sc3, probs, empirical=True)
    i_q = q.expectation(f3.table)
    strict_gap = gain_spbr(q, functions3).gain - gain_martingale(i_q, f3.sup_a, f3.inf_b, f3.bound_B)
    ok_strict = strict_gap > 1e-6

    _report(
        2,
        "weighted rate bounds mean-based rate on 200 random q; equality iff extreme support",
        ok_order and ok_equal and ok_strict,
        f"worst_slack={worst_slack:.2e} violating={n_violating} eq_gap={max(eq_gaps):.2e} strict_gap={strict_gap:.2e}",
    )


def test_criterion_3_chsh_two_valued_equality(chsh_q):
    functions = build_function_set(["chsh"], chsh_q.scenario)
    g_spbr = gain_spbr(chsh_q, functions).gain
    g_mart = gain_martingale(2.0 * math.sqrt(2.0), 4.0, -4.0, 2.0)
    ok = abs(g_spbr - g_mart) < 1e-7 and abs(g_mart - 0.04633) <= 1e-4
    _report(3, "two-valued CHSH: weighted rate equals closed form 0.04633", ok,
            f"G_sPBR={g_spbr:.6f} G_mart={g_mart:.6f}")


def test_criterion_4_ordering_over_outcome_counts():
    reports = gain_curve("cglmp", range(2, 8), include_optimal=False)
    d2 = reports[0]
    ok = abs(d2.gain_spbr - d2.gain_mart) < 1e-7
    detail = [f"d=2 gap={d2.gain_spbr - d2.gain_mart:.1e}"]
    for rep in reports[1:]:
        gap = rep.gain_spbr - rep.gain_mart
        ok = ok and gap > 1e-4
        detail.append(f"d={int(rep.parameter)} gap={gap:.4f}")
    _report(4, "weighted > mean-based strictly for d >= 3, equal at d = 2", ok, " ".join(detail))


def test_criterion_5_no_signaling_improvement():
    thetas = [math.pi / 16.0, math.pi / 8.0, 3.0 * math.pi / 16.0]
    reports = gain_curve("chsh", thetas, include_nosignaling=True)
    margins = [rep.gain_spbr_extended - rep.gain_spbr for rep in reports]
    ok = all(m > 1e-4 for m in margins)
    _report(5, "no-signaling witnesses improve the weighted rate", ok,
            " ".join(f"theta={t:.3f} margin={m:.5f}" for t, m in zip(thetas, margins)))


def test_criterion_6_simulation_study(cglmp3_q):
    n_trials, block, n_seeds = 10_000, 154, 30
    f = cglmp_functional(cglmp3_q.scenario)
    functions = build_function_set(["cglmp:3"], cglmp3_q.scenario)
    g_spbr = gain_spbr(cglmp3_q, functions).gain
    s_q = optimal_gain(cglmp3_q)

    spbr_beats_mart = 0
    spbr_smaller_offset = 0
    slopes = []
    for seed in range(n_seeds):
        enc = sample_encoded(cglmp3_q, n_trials, seed=seed)
        mart = run_martingale(enc, f)
        spbr = run_simplified_pbr(enc, functions, block)
        fpbr = run_full_pbr(enc, cglmp3_q.scenario, block)
        neg_mart = n_trials * gain_martingale(max(mart.mean, f.bound_B), f.sup_a, f.inf_b, f.bound_B)
        neg_spbr = max(spbr.log2_t, 0.0)
        neg_fpbr = max(fpbr.log2_t, 0.0)
        if neg_spbr > neg_mart:
            spbr_beats_mart += 1
        if (n_trials * g_spbr - neg_spbr) < (n_trials * s_q - neg_fpbr):
            spbr_smaller_offset += 1
        hist = spbr.history()
        tail = hist[hist[:, 0] > n_trials - 5000]
        slopes.append(np.polyfit(tail[:, 0], tail[:, 1], 1)[0])
    mean_slope = float(np.mean(slopes))
    ok_a = spbr_beats_mart >= 24
    ok_b = spbr_smaller_offset >= 24
    ok_c = abs(mean_slope - 0.0675) <= 0.1 * 0.0675
    _report(
        6,
        "30-seed simulation: weighted beats mean-based, smaller learning offset, slope ~ 0.0675",
        ok_a and ok_b and ok_c,
        f"beats={spbr_beats_mart}/30 smaller_offset={spbr_smaller_offset}/30 mean_slope={mean_slope:.5f}",
    )


def test_criterion_7_validity_monte_carlo(chsh_scenario):
    n_seeds, n_trials = 10_000, 50
    alphas = [0.5, 0.1, 0.02]
    rng = np.random.default_rng(7)
    mixtures = {
        "uniform-outcomes": uniform_outcome_distribution(chsh_scenario),
        "boundary-strategy": strategy_distribution(chsh_scenario, np.zeros((2, 2), dtype=int)),
        "random-mixture": mixture_distribution(chsh_scenario, rng.dirichlet(np.full(16, 0.5))),
    }
    ok = True
    details = []
    for name, q_lr in mixtures.items():
        rates = validity_exceedance(
            q_lr, n_seeds=n_seeds, n_trials=n_trials, alphas=alphas, block_size=10, base_seed=1000
        )
        for protocol, table in rates.items():
            for alpha, rate in table.items():
                bound = alpha + 3.0 * math.sqrt(alpha / n_seeds)
                if rate > bound:
                    ok = False
                    details.append(f"{name}/{protocol}: P(p<={alpha})={rate:.4f} > {bound:.4f}")
        worst = max(max(t.values()) for t in rates.values())
        details.append(f"{name}: worst-rate={worst:.4f}")
    _report(7, "exceedance Prob(p <= alpha) <= alpha + 3 sigma for all protocols on LR data", ok, "; ".join(details))


def test_criterion_8_mean_bound_tighter_than_azuma():
    rng = np.random.default_rng(8)
    worst = -math.inf
    count = 0
    while count < 10_000:
        lo, hi = np.sort(rng.normal(0.0, 10.0, size=2))
        if hi - lo < 1e-9:
            continue
        bound = rng.uniform(lo, hi)
        if not lo < bound < hi:
            continue
        i_hat = rng.uniform(bound, hi)
        if i_hat <= bound:
            continue
        n = int(rng.integers(1, 10_000))
        p_mart = martingale_pvalue(i_hat, n, hi, lo, bound)
        p_azuma = azuma_pvalue(i_hat, n, hi, lo, bound)
        worst = max(worst, p_mart - p_azuma)
        count += 1
    ok = worst <= 1e-15
    _report(8, "supermartingale bound never looser than the Azuma baseline (10^4 grid)", ok, f"worst diff={worst:.2e}")


def test_criterion_9_optimizer_oracles(chsh_scenario):
    rng = np.random.default_rng(9)
    worst_gain = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 25))
        r = np.column_stack([np.ones(n), rng.uniform(0.0, 4.0, size=n)])
        freq = rng.dirichlet(np.ones(n))

        def objective(w):
            mix = (1.0 - w) + w * r[:, 1]
            if np.any(mix <= 0.0):
                return -math.inf
            return float(np.dot(freq, np.log2(mix)))

        _, oracle = golden_section_max(objective, 0.0, 1.0)
        ours = maximize_log_gain(r, freq, OptimizerControls(rel_tolerance=1e-13)).gain
        worst_gain = max(worst_gain, abs(ours - oracle))
    ok_gain = worst_gain < 1e-6

    table = enumerate_strategy_distributions(2, 2, 2)
    worst_div = 0.0
    for _ in range(20):
        q = Distribution(chsh_scenario, rng.dirichlet(np.full(16, 0.6)), empirical=True)
        oracle_div, _, oracle_converged = projected_gradient_kl(q.probs, table)
        assert oracle_converged, "projected-gradient oracle did not converge"
        ours = kl_project_lr(q, controls=OptimizerControls(max_iterations=400_000, rel_tolerance=1e-13)).divergence
        worst_div = max(worst_div, abs(ours - oracle_div))
    ok_div = worst_div < 1e-6
    _report(
        9,
        "optimizers match golden-section and projected-gradient oracles",
        ok_gain and ok_div,
        f"worst gain diff={worst_gain:.2e} worst divergence diff={worst_div:.2e}",
    )
