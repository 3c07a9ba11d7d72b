import math

import numpy as np
import pytest

from bellcert import (
    GENERATOR_ID,
    Distribution,
    SimulationPlan,
    born_distribution,
    build_function_set,
    chsh_config,
    chsh_functional,
    expectation,
    run_experiment,
    run_seed_sweep,
    sample_encoded,
    uniform_outcome_distribution,
    validity_exceedance,
)
from bellcert import protocols, sim
from bellcert.protocols import DEFAULT_FLOOR, PROTOCOLS
from bellcert.sim import REPORT_CHUNK, VALIDITY_CONTROLS, write_report

from oracles import write_report_reference


def test_sample_empty(chsh_q):
    assert sample_encoded(chsh_q, 0, seed=1).size == 0
    with pytest.raises(ValueError):
        sample_encoded(chsh_q, -1, seed=1)


def test_sample_deterministic(chsh_q):
    a = sample_encoded(chsh_q, 500, seed=9)
    b = sample_encoded(chsh_q, 500, seed=9)
    c = sample_encoded(chsh_q, 500, seed=10)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_sample_mean_within_band(chsh_q):
    f = chsh_functional(chsh_q.scenario)
    n = 100_000
    enc = sample_encoded(chsh_q, n, seed=77)
    values = f.table[enc]
    i_q = expectation(f, chsh_q)
    var = float(np.dot(chsh_q.probs, (f.table - i_q) ** 2))
    assert abs(values.mean() - i_q) < 5.0 * math.sqrt(var / n)


def test_plan_validation(chsh_q):
    with pytest.raises(ValueError):
        SimulationPlan(chsh_q, 0, 1)
    with pytest.raises(ValueError):
        SimulationPlan(chsh_q, 10, 1, protocols=("bogus",))
    with pytest.raises(ValueError):
        SimulationPlan(chsh_q, 10, 1, block_size=0)


def test_plan_refuses_a_source_off_the_setting_distribution(chsh_scenario):
    # an empirical table is exempt from the setting marginals, but the certificates assume them
    skewed = np.zeros(16)
    skewed[::4] = (0.3, 0.3, 0.3, 0.1)
    source = Distribution(chsh_scenario, skewed, empirical=True)
    with pytest.raises(ValueError, match="outcome marginals do not reproduce the setting distribution"):
        SimulationPlan(source, 10, 0)
    with pytest.raises(ValueError, match="outcome marginals do not reproduce the setting distribution"):
        validity_exceedance(source, 1, 10, alphas=[0.1])
    SimulationPlan(Distribution(chsh_scenario, np.full(16, 1 / 16), empirical=True), 10, 0)


def test_run_experiment_lr_source_no_violation(chsh_scenario):
    plan = SimulationPlan(
        uniform_outcome_distribution(chsh_scenario),
        n_trials=400,
        seed=3,
        block_size=50,
    )
    result = run_experiment(plan)
    for protocol in plan.protocols:
        assert result.analyses[protocol].pvalue > 0.5
        assert result.rates[protocol] == pytest.approx(0.0, abs=1e-6)


def test_run_experiment_reports_deterministic(tmp_path, cglmp3_q):
    plan = SimulationPlan(cglmp3_q, n_trials=600, seed=5, block_size=154)
    dir_a, dir_b = tmp_path / "a", tmp_path / "b"
    run_experiment(plan, out_dir=dir_a)
    run_experiment(plan, out_dir=dir_b)
    for name in ("report_mart.csv", "report_spbr.csv", "report_fpbr.csv", "asymptotes.csv"):
        bytes_a = (dir_a / name).read_bytes()
        assert bytes_a == (dir_b / name).read_bytes()
        assert GENERATOR_ID.encode() in bytes_a or name == "asymptotes.csv"
    header = (dir_a / "report_spbr.csv").read_text().splitlines()
    assert header[0].startswith(f"# generator={GENERATOR_ID} seed=5")
    assert header[3] == "n,statistic,p_value"
    assert len(header) == 4 + 600


def test_run_experiment_per_block_rows(tmp_path, cglmp3_q):
    plan = SimulationPlan(cglmp3_q, n_trials=308, seed=5, block_size=154)
    run_experiment(plan, out_dir=tmp_path, per_block=True)
    rows = [l for l in (tmp_path / "report_spbr.csv").read_text().splitlines() if not l.startswith("#")]
    assert rows[0] == "n,statistic,p_value"
    assert [r.split(",")[0] for r in rows[1:]] == ["154", "308"]


def test_run_experiment_rates_match_gain_modules(cglmp3_q):
    plan = SimulationPlan(cglmp3_q, n_trials=200, seed=1, protocols=("mart", "spbr"))
    result = run_experiment(plan)
    assert result.rates["mart"] == pytest.approx(0.0565, abs=5e-4)
    assert result.rates["spbr"] == pytest.approx(0.0675, abs=5e-4)
    # the learning offset: the asymptote n * rate less the achieved -log2 p at the final n
    spbr = result.analyses["spbr"]
    assert math.isfinite(spbr.n * result.rates["spbr"] - spbr.neg_log2_pvalue)


def test_seed_sweep_summary(tmp_path, cglmp3_q):
    plan = SimulationPlan(cglmp3_q, n_trials=200, seed=40, protocols=("mart", "spbr"), block_size=50)
    results = run_seed_sweep(plan, seeds=range(40, 43), out_dir=tmp_path)
    assert [r.plan.seed for r in results] == [40, 41, 42]
    lines = (tmp_path / "seed_summary.csv").read_text().splitlines()
    assert lines[1] == "seed,neg_log2_p_mart,neg_log2_p_spbr"
    assert len(lines) == 2 + 3


def test_seed_sweep_builds_the_function_set_and_rates_once(monkeypatch, chsh_q):
    calls = []

    def counted(name, fn):
        return lambda *args: calls.append(name) or fn(*args)

    monkeypatch.setattr(sim, "build_function_set", counted("functions", sim.build_function_set))
    monkeypatch.setattr(protocols, "optimal_gain", counted("fpbr rate", protocols.optimal_gain))
    results = run_seed_sweep(SimulationPlan(chsh_q, n_trials=60, seed=0, block_size=20), seeds=range(3))
    assert sorted(calls) == ["fpbr rate", "functions"]
    assert [r.plan.seed for r in results] == [0, 1, 2] and all(r.rates is results[0].rates for r in results)


def test_validity_exceedance_smoke(chsh_scenario):
    uni = uniform_outcome_distribution(chsh_scenario)
    rates = validity_exceedance(uni, n_seeds=40, n_trials=30, alphas=[0.5, 0.1], block_size=10, base_seed=7)
    for protocol, table in rates.items():
        for alpha, rate in table.items():
            assert 0.0 <= rate <= alpha + 3.0 * math.sqrt(alpha / 40.0) + 1e-12, protocol


def test_validity_exceedance_counts_rejections():
    # on non-LR data the harness must count rejections, not only stay under its bounds
    q = born_distribution(*chsh_config(np.pi / 4))
    alphas = (0.5, 0.1)
    rates = validity_exceedance(q, n_seeds=20, n_trials=200, alphas=alphas, block_size=10, base_seed=0)
    functions = build_function_set((), q.scenario)
    for protocol, entry in PROTOCOLS.items():
        finals = [
            entry.run(sample_encoded(q, 200, i), functions, 10, VALIDITY_CONTROLS, DEFAULT_FLOOR).pvalue
            for i in range(20)
        ]
        assert rates[protocol] == {a: sum(p <= a for p in finals) / 20 for a in alphas}, protocol
    assert rates["mart"][0.5] >= 0.9


@pytest.mark.parametrize("n_seeds,n_trials", [(0, 30), (-1, 30), (40, 0)])
def test_validity_exceedance_refuses_empty_studies(chsh_scenario, n_seeds, n_trials):
    # no rate over zero runs, and none over runs of zero trials
    with pytest.raises(ValueError, match="n_seeds >= 1 and n_trials >= 1"):
        validity_exceedance(uniform_outcome_distribution(chsh_scenario), n_seeds, n_trials, alphas=[0.1])


class _History:
    """Stand-in analysis whose history is a given (n, statistic, p_value) table."""

    def __init__(self, rows):
        self.rows = rows

    def history(self):
        return self.rows


def _history_rows(n: int, seed: int) -> np.ndarray:
    # special values the report spelling must keep, mixed with doubles over the whole exponent range
    special = np.array([np.inf, -np.inf, -0.0, 0.0, 5e-324, 1.0, np.nan, 1e-300, -2.5e17, 123456789012.5])
    rng = np.random.default_rng(seed)
    values = np.where(
        rng.random((n, 2)) < 0.4,
        rng.choice(special, size=(n, 2)),
        rng.choice([-1.0, 1.0], size=(n, 2)) * 10.0 ** rng.uniform(-320, 308, size=(n, 2)),
    )
    return np.column_stack([np.arange(1, n + 1), values])


@pytest.mark.parametrize("n", [0, 1, 7, REPORT_CHUNK, 2 * REPORT_CHUNK + 455])
@pytest.mark.parametrize("per_block", [False, True])
@pytest.mark.parametrize("block_size", [1, 7, 154])
def test_write_report_matches_csv_reference(tmp_path, n, per_block, block_size):
    analysis = _History(_history_rows(n, seed=n + block_size))
    header = ["# generator=x seed=1", "# protocol=spbr trials=3 block=7 scenario=2,2,2"]
    for lines in ((), header):
        write_report(tmp_path / "new.csv", analysis, lines, per_block=per_block, block_size=block_size)
        write_report_reference(tmp_path / "ref.csv", analysis, lines, per_block=per_block, block_size=block_size)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
