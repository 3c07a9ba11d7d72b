import json

import pytest

from bellcert import (
    Scenario,
    build_function_set,
    read_distribution,
    run_simplified_pbr,
    sample_trials,
    write_trials,
)
from bellcert.cli import main


@pytest.fixture()
def trial_file(tmp_path, chsh_q):
    sc = Scenario(2, 2, 2)
    trials = sample_trials(chsh_q, 80, seed=1)
    path = tmp_path / "trials.jsonl"
    write_trials(path, sc, trials)
    return path, trials


def test_analyze_matches_library(tmp_path, capsys, trial_file, chsh_scenario):
    path, trials = trial_file
    rc = main(
        ["analyze", str(path), "--scenario", "2,2,2", "--functions", "chsh",
         "--protocol", "mart,spbr", "--block", "20", "--out", str(tmp_path / "out")]
    )
    assert rc == 0
    out = capsys.readouterr().out
    functions = build_function_set(["chsh"], chsh_scenario)
    expected = run_simplified_pbr(trials, functions, block_size=20)
    assert f"p_value={expected.pvalue:.10g}" in out
    assert (tmp_path / "out" / "report_spbr.csv").exists()
    assert (tmp_path / "out" / "report_mart.csv").exists()


def test_analyze_unknown_functional(trial_file, capsys):
    path, _ = trial_file
    rc = main(["analyze", str(path), "--scenario", "2,2,2", "--functions", "nope"])
    assert rc == 2
    assert "nope" in capsys.readouterr().err


def test_analyze_empty_file(tmp_path, capsys):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    rc = main(["analyze", str(path), "--scenario", "2,2,2", "--functions", "chsh"])
    assert rc == 3


def test_analyze_malformed_file(tmp_path, capsys):
    path = tmp_path / "bad.jsonl"
    path.write_text("garbage\n")
    rc = main(["analyze", str(path), "--scenario", "2,2,2"])
    assert rc == 2
    assert "line 1" in capsys.readouterr().err


def test_analyze_scenario_mismatch(tmp_path, chsh_q):
    path = tmp_path / "t.jsonl"
    write_trials(path, Scenario(2, 2, 2), sample_trials(chsh_q, 5, seed=0))
    rc = main(["analyze", str(path), "--scenario", "2,2,3"])
    assert rc == 3


def test_simulate_deterministic(tmp_path):
    args = [
        "simulate", "--config", "cglmp:3", "--trials", "400", "--block", "154",
        "--seed", "1", "--protocol", "mart,spbr",
    ]
    rc = main(args + ["--out", str(tmp_path / "a")])
    assert rc == 0
    rc = main(args + ["--out", str(tmp_path / "b")])
    assert rc == 0
    for name in ("report_mart.csv", "report_spbr.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_simulate_multi_seed(tmp_path, capsys):
    rc = main(
        ["simulate", "--config", "chsh:0.7853981633974483", "--trials", "60", "--block", "20",
         "--seed", "5", "--seeds", "3", "--protocol", "spbr", "--out", str(tmp_path)]
    )
    assert rc == 0
    assert (tmp_path / "seed_summary.csv").exists()
    out = capsys.readouterr().out
    assert out.count("seed=") == 3


def test_gain_sweep_row_count(capsys):
    rc = main(["gain", "--sweep", "cglmp", "--d", "2..7"])
    assert rc == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if l]
    assert lines[0].startswith("parameter,")
    assert len(lines) == 1 + 6


def test_gain_single_config(capsys):
    rc = main(["gain", "--config", "cglmp:3", "--with-sq"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    row = lines[1].split(",")
    assert float(row[2]) == pytest.approx(0.0565, abs=5e-4)
    assert float(row[3]) == pytest.approx(0.0675, abs=5e-4)
    assert float(row[5]) == pytest.approx(0.0675, abs=5e-4)


def test_gain_unknown_config(capsys):
    assert main(["gain", "--config", "wat:3"]) == 2


def test_quantum_emits_normalized_distribution(tmp_path):
    out = tmp_path / "dist.json"
    rc = main(["quantum", "--config", "chsh:0.7853981633974483", "--out", str(out)])
    assert rc == 0
    dist = read_distribution(out)
    assert dist.probs.sum() == pytest.approx(1.0, abs=1e-10)
    assert dist.scenario.outcomes_per_setting == 2


def test_quantum_bad_config():
    assert main(["quantum", "--config", "chsh:notanumber"]) == 2


def test_catalog(capsys):
    rc = main(["catalog", "--scenario", "2,2,3"])
    assert rc == 0
    out = capsys.readouterr().out.split()
    assert "cglmp:3" in out
    assert "nosignaling" in out


def test_analyze_custom_functional_file(tmp_path, capsys, trial_file, chsh_q):
    from bellcert import chsh_functional

    path, trials = trial_file
    f = chsh_functional(Scenario(2, 2, 2))
    func_path = tmp_path / "custom.json"
    func_path.write_text(
        json.dumps({"scenario": {"l": 2, "s": 2, "d": 2}, "B": 2.0, "values": list(f.table)})
    )
    rc = main(
        ["analyze", str(path), "--scenario", "2,2,2", "--functions", f"file:{func_path}",
         "--protocol", "mart", "--block", "20"]
    )
    assert rc == 0
    assert "protocol=mart" in capsys.readouterr().out


def test_config_file_merging(tmp_path, capsys, trial_file):
    path, trials = trial_file
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"block": 20, "protocol": "spbr", "per-block": True}))
    rc = main(["analyze", str(path), "--scenario", "2,2,2", "--functions", "chsh", "--config-file", str(cfg)])
    assert rc == 0
    out_merged = capsys.readouterr().out
    assert "protocol=spbr" in out_merged
    # explicit flag wins over the config file
    rc = main(
        ["analyze", str(path), "--scenario", "2,2,2", "--functions", "chsh",
         "--config-file", str(cfg), "--protocol", "mart"]
    )
    assert rc == 0
    assert "protocol=mart" in capsys.readouterr().out


@pytest.mark.parametrize(
    "record",
    [
        '{"settings":[1.9,1],"outcomes":[0,1]}',
        '{"settings":[true,1],"outcomes":[0,1]}',
        '{"settings":"12","outcomes":[0,1]}',
    ],
)
def test_analyze_refuses_non_integer_fields(tmp_path, capsys, record):
    path = tmp_path / "coerced.jsonl"
    path.write_text(record + "\n")
    rc = main(["analyze", str(path), "--scenario", "2,2,2", "--protocol", "mart"])
    assert rc == 2
    assert "line 1" in capsys.readouterr().err


def test_config_file_without_value_is_a_usage_error(trial_file, capsys):
    path, _ = trial_file
    with pytest.raises(SystemExit) as exc:
        main(["analyze", str(path), "--scenario", "2,2,2", "--config-file"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err and "--config-file" in err
