import json

import numpy as np
import pytest

from bellcert import (
    Scenario,
    build_function_set,
    read_distribution,
    run_simplified_pbr,
    sample_encoded,
    write_trials,
)
from bellcert.cli import main


@pytest.fixture()
def trial_file(tmp_path, chsh_q):
    sc = Scenario(2, 2, 2)
    codes = sample_encoded(chsh_q, 80, seed=1)
    path = tmp_path / "trials.jsonl"
    write_trials(path, sc, codes)
    return path, codes


def test_analyze_matches_library(tmp_path, capsys, trial_file, chsh_scenario):
    path, codes = trial_file
    rc = main(
        ["analyze", str(path), "--scenario", "2,2,2", "--functions", "chsh",
         "--protocol", "mart,spbr", "--block", "20", "--out", str(tmp_path / "out")]
    )
    assert rc == 0
    out = capsys.readouterr().out
    functions = build_function_set(["chsh"], chsh_scenario)
    expected = run_simplified_pbr(codes, functions, block_size=20)
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


def test_analyze_refuses_a_scenario_without_three_fields(trial_file, capsys):
    path, _ = trial_file
    assert main(["analyze", str(path), "--scenario", "2,2"]) == 2
    assert "--scenario expects 'l,s,d', got '2,2'" in capsys.readouterr().err


def test_analyze_malformed_file(tmp_path, capsys):
    path = tmp_path / "bad.jsonl"
    path.write_text("garbage\n")
    rc = main(["analyze", str(path), "--scenario", "2,2,2"])
    assert rc == 2
    assert "line 1" in capsys.readouterr().err


def test_analyze_scenario_mismatch(tmp_path, chsh_q):
    path = tmp_path / "t.jsonl"
    write_trials(path, Scenario(2, 2, 2), sample_encoded(chsh_q, 5, seed=0))
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


def test_seed_sweep_prints_each_seeds_warnings(capsys):
    # a sweep whose p-values are pinned to 1 says why: each seed's warnings, after the summary lines
    argv = ["simulate", "--config", "chsh:0.6", "--trials", "500", "--protocol", "fpbr", "--floor", "0",
            "--block", "9", "--max-iter", "50"]
    assert main(argv) == 0
    single = capsys.readouterr().err.splitlines()
    assert len(single) == 30 and all(line.startswith("warning: fpbr: ") for line in single)
    assert main(argv + ["--seeds", "2"]) == 0
    swept = capsys.readouterr().err.splitlines()
    seed0 = [line for line in swept if line.startswith("warning: seed=0 ")]
    assert seed0 == [line.replace("warning: ", "warning: seed=0 ", 1) for line in single]
    assert swept[: len(seed0)] == seed0
    assert all(line.startswith("warning: seed=1 fpbr: ") for line in swept[len(seed0) :])


@pytest.mark.parametrize("seeds", ["0", "-3"])
def test_simulate_refuses_fewer_than_one_seed(tmp_path, capsys, seeds):
    argv = ["simulate", "--config", "chsh:0.785398", "--trials", "300", "--seeds", seeds, "--out", str(tmp_path)]
    assert main(argv) == 2
    assert "--seeds" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_simulate_refuses_per_block_with_several_seeds(tmp_path, capsys):
    argv = ["simulate", "--config", "chsh:0.785398", "--trials", "300", "--seeds", "2", "--per-block", "--out", str(tmp_path)]
    assert main(argv) == 2
    assert "--per-block" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


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


def test_gain_out_writes_the_printed_table(tmp_path, capsys):
    assert main(["gain", "--config", "cglmp:3"]) == 0
    printed = capsys.readouterr().out
    out = tmp_path / "gain.csv"
    assert main(["gain", "--config", "cglmp:3", "--out", str(out)]) == 0
    assert capsys.readouterr().out == f"wrote {out}\n"
    assert out.read_text(encoding="utf-8") == printed


def test_gain_unknown_config(capsys):
    assert main(["gain", "--config", "wat:3"]) == 2


def test_quantum_emits_normalized_distribution(tmp_path):
    out = tmp_path / "dist.json"
    rc = main(["quantum", "--config", "chsh:0.7853981633974483", "--out", str(out)])
    assert rc == 0
    dist = read_distribution(out)
    assert dist.probs.sum() == pytest.approx(1.0, abs=1e-10)
    assert dist.scenario.outcomes_per_setting == 2


def test_quantum_stdout_is_a_distribution_file(tmp_path, capsys, chsh_q):
    assert main(["quantum", "--config", "chsh:0.7853981633974483"]) == 0
    out = tmp_path / "dist.json"
    out.write_text(capsys.readouterr().out)
    dist = read_distribution(out)
    assert (dist.scenario.parties, dist.scenario.settings_per_party, dist.scenario.outcomes_per_setting) == (2, 2, 2)
    assert dist.scenario.is_uniform() and not dist.empirical
    assert np.array_equal(dist.probs, chsh_q.probs)


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


@pytest.mark.parametrize("second", [["--config-file", "b.json"], ["--config-file=b.json"]])
def test_a_second_config_file_is_a_usage_error(tmp_path, capsys, monkeypatch, second):
    monkeypatch.chdir(tmp_path)
    for name, trials in (("a.json", 20), ("b.json", 30)):
        (tmp_path / name).write_text(json.dumps({"trials": trials}))
    argv = ["simulate", "--config", "chsh:0.7", "--protocol", "mart", "--config-file", "a.json", *second]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert "--config-file may be given only once" in captured.err and captured.out == ""


@pytest.mark.parametrize("equals_form", [False, True])
def test_config_file_both_forms(tmp_path, capsys, trial_file, equals_form):
    path, _ = trial_file
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"protocol": "spbr"}))
    flag = [f"--config-file={cfg}"] if equals_form else ["--config-file", str(cfg)]
    rc = main(["analyze", str(path), "--scenario", "2,2,2", "--functions", "chsh", *flag])
    assert rc == 0
    runs = [l.split()[0] for l in capsys.readouterr().out.splitlines() if l.startswith("protocol=")]
    assert runs == ["protocol=spbr"]
    # an explicit --flag=value also wins over the config file
    rc = main(["analyze", str(path), "--scenario", "2,2,2", "--functions", "chsh", *flag, "--protocol=mart"])
    assert rc == 0
    runs = [l.split()[0] for l in capsys.readouterr().out.splitlines() if l.startswith("protocol=")]
    assert runs == ["protocol=mart"]
    # so does the flag written before or after the config file
    for tail in (["--protocol", "mart", *flag], [*flag, "--protocol", "mart"]):
        rc = main(["analyze", str(path), "--scenario", "2,2,2", "--functions", "chsh", *tail])
        assert rc == 0
        runs = [l.split()[0] for l in capsys.readouterr().out.splitlines() if l.startswith("protocol=")]
        assert runs == ["protocol=mart"]


@pytest.mark.parametrize("abbreviated", [["--config-f", "CFG"], ["--config-f=CFG"], ["--proto", "spbr"], ["--to=1e-6"]])
def test_abbreviated_flags_are_usage_errors(tmp_path, capsys, trial_file, abbreviated):
    # "--config-f cfg.json" used to run with the config file silently ignored
    path, _ = trial_file
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"protocol": "spbr"}))
    tail = [a.replace("CFG", str(cfg)) for a in abbreviated]
    with pytest.raises(SystemExit) as exc:
        main(["analyze", str(path), "--scenario", "2,2,2", *tail])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize(
    "obj",
    [
        3,
        {"scenario": {"l": 2, "s": 2, "d": 2}, "probs": {"a": 1}},
        {"scenario": {"l": 2, "s": 2, "d": 2.5}, "probs": [1 / 16] * 16},
        {"scenario": {"l": 2, "s": 2, "d": "2"}, "probs": [1 / 16] * 16},
        {"scenario": {"l": 2, "s": 2, "d": 2}, "probs": [1 / 16] * 16, "empirical": "no"},
        {"scenario": {"l": 2, "s": 2, "d": 2}, "probs": [1 / 16] * 16, "empirical": 1},
        {"scenario": {"l": 2, "s": 2, "d": 2}, "probs": [1 / 16] * 16, "empirical": None},
    ],
)
def test_simulate_refuses_a_wrongly_typed_distribution_file(tmp_path, capsys, obj):
    dist = tmp_path / "d.json"
    dist.write_text(json.dumps(obj))
    assert main(["simulate", "--dist", str(dist), "--trials", "5"]) == 2
    assert "must" in capsys.readouterr().err


def test_analyze_refuses_a_null_functional_bound(tmp_path, capsys, trial_file):
    path, _ = trial_file
    func_path = tmp_path / "f.json"
    func_path.write_text(json.dumps({"scenario": {"l": 2, "s": 2, "d": 2}, "B": None, "values": [0.5] * 16}))
    assert main(["analyze", str(path), "--scenario", "2,2,2", "--functions", f"file:{func_path}"]) == 2
    assert "'B' must hold JSON numbers" in capsys.readouterr().err


@pytest.mark.parametrize("content", ["3", '["--protocol", "spbr"]', '{"protocol": null}', '{"protocol": ["spbr"]}'])
def test_analyze_refuses_a_config_file_that_is_not_flag_values(tmp_path, capsys, trial_file, content):
    path, _ = trial_file
    cfg = tmp_path / "cfg.json"
    cfg.write_text(content)
    assert main(["analyze", str(path), "--scenario", "2,2,2", "--config-file", str(cfg)]) == 2
    assert "config file must be a JSON object" in capsys.readouterr().err


def test_analyze_refuses_an_understated_functional_bound(tmp_path, capsys, trial_file):
    from bellcert import chsh_functional

    path, _ = trial_file
    func_path = tmp_path / "custom.json"
    values = list(chsh_functional(Scenario(2, 2, 2)).table)
    func_path.write_text(json.dumps({"scenario": {"l": 2, "s": 2, "d": 2}, "B": 1.5, "values": values}))
    rc = main(["analyze", str(path), "--scenario", "2,2,2", "--functions", f"file:{func_path}", "--protocol", "mart"])
    assert rc == 3
    assert f"{func_path}: declared bound B=1.5 is below the LR maximum 2" in capsys.readouterr().err


def test_analyze_mart_when_the_running_mean_rounds_past_its_range(tmp_path, capsys):
    # 0.1 x CHSH on three top-scoring trials: the raw mean 0.4000000000000001 exceeded sup_a = 0.4 (exit 2)
    from bellcert import chsh_functional

    func_path = tmp_path / "scaled.json"
    values = list(0.1 * chsh_functional(Scenario(2, 2, 2)).table)
    func_path.write_text(json.dumps({"scenario": {"l": 2, "s": 2, "d": 2}, "B": 0.2, "values": values}))
    trials = tmp_path / "top.jsonl"
    trials.write_text('{"settings":[1,1],"outcomes":[0,0]}\n' * 3)
    rc = main(["analyze", str(trials), "--scenario", "2,2,2", "--functions", f"file:{func_path}", "--protocol", "mart"])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "protocol=mart n=3 mean=0.4 p_value=0.421875"


@pytest.mark.parametrize("command", ["analyze", "catalog"])
def test_a_result_space_past_the_index_limit_is_refused(tmp_path, capsys, command):
    # (2 * 2^33)^2 = 2^68 results: analyze failed on this record's code with "int too big to convert" (exit 1),
    # and catalog listed functionals that could not be built
    trials = tmp_path / "big.jsonl"
    trials.write_text('{"settings":[2,2],"outcomes":[8589934591,8589934591]}\n')
    argv = {"analyze": ["analyze", str(trials), "--functions", "trivial", "--protocol", "mart"], "catalog": ["catalog"]}
    assert main(argv[command] + ["--scenario", "2,2,8589934592"]) == 2
    assert "exceeds the index limit 2^63" in capsys.readouterr().err


def test_analyze_refuses_a_constant_functional(tmp_path, capsys, trial_file):
    # a constant table cannot be standardized: an input error, not an internal one
    path, _ = trial_file
    func_path = tmp_path / "const.json"
    func_path.write_text(json.dumps({"scenario": {"l": 2, "s": 2, "d": 2}, "B": 1.0, "values": [1.0] * 16}))
    rc = main(["analyze", str(path), "--scenario", "2,2,2", "--functions", f"file:{func_path}", "--protocol", "spbr"])
    assert rc == 2
    assert "standardization" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        *(["quantum", "--config", "cglmp:3", flag, "1"] for flag in ("--tol", "--max-iter", "--floor", "--block")),
        ["quantum", "--config", "cglmp:3", "--per-block"],
        *(["gain", "--config", "cglmp:3", flag, "1"] for flag in ("--floor", "--block")),
        ["gain", "--config", "cglmp:3", "--per-block"],
        ["gain", "--config", "chsh:0.5", "--sweep", "cglmp", "--d", "3"],
        ["gain"],
        ["simulate", "--config", "cglmp:3", "--dist", "dist.json", "--trials", "10"],
        ["simulate", "--trials", "10"],
    ],
)
def test_flags_a_command_does_not_read_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "usage:" in capsys.readouterr().err


def test_config_file_entry_for_a_missing_flag_is_a_usage_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"block": 20}))
    with pytest.raises(SystemExit) as exc:
        main(["quantum", "--config", "cglmp:3", "--config-file", str(cfg)])
    assert exc.value.code == 2


@pytest.mark.parametrize("block", ["0", "-1"])
def test_analyze_refuses_a_block_below_one_for_mart(tmp_path, capsys, trial_file, block):
    # mart scores the whole run as one block, but its per-block report reads --block
    path, _ = trial_file
    argv = ["analyze", str(path), "--scenario", "2,2,2", "--protocol", "mart", "--block", block]
    assert main(argv + ["--per-block", "--out", str(tmp_path / "out")]) == 2
    assert "block_size must be >= 1" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    assert main(argv) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--config", "chsh:0.6", "--trials", "50", "--protocol", "mart,mart"],
        ["analyze", "TRIALS", "--scenario", "2,2,2", "--protocol", "mart,spbr, mart"],
    ],
)
def test_duplicate_protocol_names_are_refused(capsys, trial_file, argv):
    path, _ = trial_file
    assert main([str(path) if a == "TRIALS" else a for a in argv]) == 2
    captured = capsys.readouterr()
    assert "protocol names must be distinct" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("d", ["7..2", "2.5", "3,2.5", "inf"])
def test_gain_refuses_an_empty_range_or_a_non_integer_outcome_count(capsys, d):
    assert main(["gain", "--sweep", "cglmp", "--d", d]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "range" in captured.err or "integer outcome count" in captured.err


@pytest.mark.parametrize("argv", [["quantum"], ["simulate", "--trials", "10"], ["gain"]])
def test_unknown_configuration_family_has_one_message(capsys, argv):
    assert main(argv + ["--config", "foo:1"]) == 2
    expected = "error: unknown configuration family 'foo' (expected chsh:<theta> or cglmp:<d>)\n"
    assert capsys.readouterr().err == expected


def test_simulate_takes_a_functional_file(tmp_path, capsys):
    from bellcert import chsh_functional, cglmp_functional

    chsh_path, cglmp_path = tmp_path / "chsh.json", tmp_path / "cglmp3.json"
    values = list(chsh_functional(Scenario(2, 2, 2)).table)
    chsh_path.write_text(json.dumps({"scenario": {"l": 2, "s": 2, "d": 2}, "B": 2.0, "values": values}))
    values = list(cglmp_functional(Scenario(2, 2, 3)).table)
    cglmp_path.write_text(json.dumps({"scenario": {"l": 2, "s": 2, "d": 3}, "B": 2.0, "values": values}))
    argv = ["simulate", "--config", "chsh:0.6", "--trials", "400", "--block", "50", "--protocol", "mart,spbr"]
    assert main(argv + ["--functions", "chsh"]) == 0
    by_name = capsys.readouterr().out
    assert main(argv + ["--functions", f"file:{chsh_path}"]) == 0
    assert capsys.readouterr().out == by_name
    assert main(argv + ["--functions", f"file:{cglmp_path}"]) == 3
    assert "does not match" in capsys.readouterr().err


def test_analyze_defaults_functions_from_the_scenario(tmp_path, capsys, cglmp3_q):
    # without --functions a (2,2,3) file is analyzed with cglmp:3, as simulate does
    path = tmp_path / "t3.jsonl"
    write_trials(path, cglmp3_q.scenario, sample_encoded(cglmp3_q, 200, seed=5))
    outputs = []
    for extra in ([], ["--functions", "cglmp:3"]):
        out = tmp_path / f"out{len(extra)}"
        assert main(["analyze", str(path), "--scenario", "2,2,3", "--out", str(out), *extra]) == 0
        outputs.append((capsys.readouterr().out.replace(str(out), "OUT"), [p.read_bytes() for p in sorted(out.iterdir())]))
    assert outputs[0] == outputs[1] and len(outputs[0][1]) == 2


def test_empty_name_lists_and_missing_defaults_name_the_option(tmp_path, capsys, trial_file):
    # an empty --functions or --protocol is an error, not the default set
    path, _ = trial_file
    for option in ("--functions", "--protocol"):
        for text in ("", ",", " ", " , "):
            assert main(["analyze", str(path), "--scenario", "2,2,2", option, text]) == 2
            assert f"{option} {text!r} names nothing" in capsys.readouterr().err
            assert main(["simulate", "--config", "chsh:0.785398", "--trials", "20", option, text]) == 2
            assert f"{option} {text!r} names nothing" in capsys.readouterr().err
    # blank entries are dropped after stripping, wherever they sit
    argv = ["simulate", "--config", "chsh:0.785398", "--trials", "60", "--block", "20", "--protocol"]
    assert main(argv + ["mart,spbr"]) == 0
    plain = capsys.readouterr()
    assert main(argv + ["mart, ,spbr"]) == 0
    assert capsys.readouterr() == plain
    # a scenario without a default functional asks for --functions
    sc = Scenario(2, 3, 2)
    other = tmp_path / "s3.jsonl"
    write_trials(other, sc, np.zeros(10, dtype=np.int64))
    assert main(["analyze", str(other), "--scenario", "2,3,2"]) == 2
    assert "--functions" in capsys.readouterr().err
