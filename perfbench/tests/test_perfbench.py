"""Fast tests of the benchmark itself: tiny workloads pass their checks, corrupted outputs fail them.

    python3 -m pytest perfbench/tests -q
"""
from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import traced  # noqa: E402
import workloads  # noqa: E402


class TinyAnalyze(workloads.AnalyzeChshNs):
    trials = 3000


class TinySimulate(workloads.SimulateCglmp3):
    trials = 3000


class TinyValidity(workloads.ValidityLrMc):
    seeds = 6


def _run_full(workload, tmp_path: Path, spans: Path | None = None) -> run.Sample:
    runner = run.Runner(tmp_path, time.monotonic() + 120.0)
    sample = runner.run(*workload.command(setup=False), spans=spans)
    assert sample.code == 0
    return sample


@pytest.fixture(scope="module")
def analyzed(tmp_path_factory):
    work = tmp_path_factory.mktemp("analyze")
    workload = TinyAnalyze(work, seed=3)
    return workload, _run_full(workload, work).stdout


@pytest.fixture(scope="module")
def simulated(tmp_path_factory):
    work = tmp_path_factory.mktemp("simulate")
    workload = TinySimulate(work, seed=3)
    return workload, _run_full(workload, work).stdout


@pytest.fixture(scope="module")
def validity(tmp_path_factory):
    work = tmp_path_factory.mktemp("validity")
    workload = TinyValidity(work, seed=3)
    return workload, _run_full(workload, work).stdout


def _replace_field(stdout: str, protocol: str, key: str, value: str) -> str:
    return re.sub(rf"(protocol={protocol} .*?{key}=)\S+", rf"\g<1>{value}", stdout)


def _corrupt_last_row(path: Path, column: int, value: str) -> None:
    lines = path.read_text(encoding="utf-8").splitlines()
    cells = lines[-1].split(",")
    cells[column] = value
    lines[-1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def test_input_distribution_matches_the_package_born_rule():
    from bellcert import born_distribution, chsh_config

    q = born_distribution(*chsh_config(math.pi / 4.0)).probs
    assert np.allclose(inputs.chsh_probabilities(visibility=1.0), q, atol=1e-12)
    assert np.allclose(inputs.chsh_probabilities(), 0.75 * q + 0.25 / 16.0, atol=1e-12)


def test_trial_files_depend_only_on_the_seed(tmp_path):
    paths = []
    for name, seed in (("a", 5), ("b", 5), ("c", 6)):
        paths.append(tmp_path / f"{name}.jsonl")
        inputs.write_trial_file(paths[-1], inputs.sample_chsh_indices(500, seed))
    a, b, c = (p.read_bytes() for p in paths)
    assert a == b and a != c


def test_analyze_passes_and_rejects_corruption(analyzed):
    workload, stdout = analyzed
    workload.check(stdout)
    n, mean = checks.chsh_mean(workload.trials_file)
    assert n == TinyAnalyze.trials
    bad_outputs = [
        _replace_field(stdout, "mart", "mean", repr(mean + 1e-6)),
        _replace_field(stdout, "mart", "p_value", "0.5"),
        _replace_field(stdout, "spbr", "p_value", "1e-3"),
        _replace_field(stdout, "spbr", "n", str(n - 1)),
        stdout.replace("protocol=spbr", "protocol=fpbr"),
    ]
    for bad in bad_outputs:
        assert bad != stdout
        with pytest.raises(checks.CheckFailed):
            workload.check(bad)


@pytest.mark.parametrize("name,column,value", [("mart", 2, "0.5"), ("spbr", 1, "1.5"), ("spbr", 0, "7")])
def test_analyze_rejects_a_corrupted_report(analyzed, name, column, value):
    workload, stdout = analyzed
    report = workload.out / f"report_{name}.csv"
    saved = report.read_bytes()
    try:
        _corrupt_last_row(report, column, value)
        with pytest.raises(checks.CheckFailed):
            workload.check(stdout)
    finally:
        report.write_bytes(saved)


def test_analyze_rejects_a_truncated_report(analyzed):
    workload, stdout = analyzed
    report = workload.out / "report_mart.csv"
    saved = report.read_bytes()
    try:
        lines = saved.decode("utf-8").splitlines()
        report.write_text("\n".join(lines[:-2] + lines[-1:]) + "\n", encoding="utf-8")
        with pytest.raises(checks.CheckFailed):
            workload.check(stdout)
    finally:
        report.write_bytes(saved)


def test_simulate_passes_and_rejects_corruption(simulated):
    workload, stdout = simulated
    workload.check(stdout)
    rows = checks.printed_rows(stdout)
    bits = float(rows["spbr"]["neg_log2_p"])
    bad_outputs = [
        _replace_field(stdout, "spbr", "rate", repr(checks.CGLMP3_RATES["spbr"] + 1e-3)),
        _replace_field(stdout, "mart", "rate", "0.0675"),
        _replace_field(stdout, "spbr", "neg_log2_p", repr(bits + 10 * math.sqrt(TinySimulate.trials))),
        _replace_field(stdout, "fpbr", "neg_log2_p", "0"),
        _replace_field(stdout, "fpbr", "p_value", "1e-30"),
    ]
    for bad in bad_outputs:
        assert bad != stdout
        with pytest.raises(checks.CheckFailed):
            workload.check(bad)


def test_simulate_rejects_corrupted_files(simulated):
    workload, stdout = simulated
    for name, column, value in (("report_fpbr.csv", 2, "0.5"), ("asymptotes.csv", 1, "0.07")):
        path = workload.out / name
        saved = path.read_bytes()
        try:
            _corrupt_last_row(path, column, value)
            with pytest.raises(checks.CheckFailed):
                workload.check(stdout)
        finally:
            path.write_bytes(saved)


def test_validity_passes_and_rejects_corruption(validity):
    workload, stdout = validity
    workload.check(stdout)
    result = json.loads(stdout)
    worst = dict(result, exceedance=json.loads(json.dumps(result["exceedance"])))
    worst["exceedance"]["random-mixture"]["spbr"]["0.02"] = 1.0
    missing = dict(result, exceedance={k: v for k, v in result["exceedance"].items() if k != "uniform-outcomes"})
    odd = dict(result, exceedance=json.loads(json.dumps(result["exceedance"])))
    odd["exceedance"]["boundary-strategy"]["mart"]["0.5"] = 0.01
    for bad in (worst, missing, odd, dict(result, seeds=result["seeds"] + 1)):
        with pytest.raises(checks.CheckFailed):
            workload.check(json.dumps(bad))


def test_exceedance_bound_is_alpha_plus_three_sigma():
    assert checks.exceedance_bound(0.02, 100) == pytest.approx(0.02 + 3.0 * math.sqrt(0.02 / 100))


def test_martingale_p_matches_the_paper_rate_formula():
    # at the CHSH quantum mean 2 sqrt 2 the closed form is 2^-(n g)
    mean, n = 2.0 * math.sqrt(2.0), 100
    hi, lo = (4.0 - mean) / 8.0, (mean + 4.0) / 8.0
    g = hi * math.log2((4.0 - mean) / 2.0) + lo * math.log2((mean + 4.0) / 6.0)
    assert checks.martingale_p(mean, n) == pytest.approx(2.0 ** (-n * g), rel=1e-12)
    assert checks.martingale_p(2.0, n) == 1.0


def test_self_time_subtracts_direct_children():
    spans = [
        {"name": "protocols.spbr", "parent": -1, "start": 0.0, "end": 10.0, "trials": 7},
        {"name": "optim.maximize_log_gain", "parent": 0, "start": 1.0, "end": 4.0, "iterations": 5, "converged": True},
        {"name": "optim.maximize_log_gain", "parent": 0, "start": 5.0, "end": 6.0, "iterations": 2, "converged": False},
    ]
    m = traced.layer_metrics(spans, ["sim.write_report"])
    assert m["protocols.spbr.self_s"] == pytest.approx(6.0)
    assert m["optim.maximize_log_gain.s"] == pytest.approx(4.0)
    assert (m["optim.maximize_log_gain.calls"], m["optim.maximize_log_gain.iterations"]) == (2, 7)
    assert m["protocols.trials_scored"] == 7
    assert m["trace.layers_missing"] == 1
    assert set(m) | {"trace.overhead_s"} == set(traced.METRIC_UNITS)


def test_traced_run_sees_every_binding(analyzed, tmp_path):
    workload, stdout = analyzed
    spans = tmp_path / "spans.json"
    sample = _run_full(workload, tmp_path, spans=spans)
    assert sample.stdout == stdout
    record = json.loads(spans.read_text(encoding="utf-8"))
    assert record["missing"] == []
    m = traced.layer_metrics(record["spans"], record["missing"])
    n = TinyAnalyze.trials
    assert m["scenario.read_trials.trials"] == n
    assert m["protocols.trials_scored"] == 2 * n
    assert m["optim.maximize_log_gain.calls"] == (n - 1) // workloads.BLOCK
    assert m["sim.write_report.bytes"] == sum(p.stat().st_size for p in workload.out.glob("report_*.csv"))
    assert m["optim.kl_project_lr.calls"] == 0 and m["cli.self_s"] > 0.0


def test_a_renamed_layer_is_reported_missing(monkeypatch):
    monkeypatch.setattr(traced, "LAYERS", traced.LAYERS + (("optim", "no_such_solver", "optim.no_such_solver", None),))
    tracer = traced.Tracer()
    missing = traced.install(tracer)
    try:
        assert missing == ["optim.no_such_solver"]
    finally:
        for module_name in [n for n in sys.modules if n == "bellcert" or n.startswith("bellcert.")]:
            del sys.modules[module_name]


def test_reported_metrics_are_the_ones_benchmark_json_lists():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == traced.METRIC_UNITS
    assert {w["name"] for w in bench["workloads"]} <= set(workloads.WORKLOADS)


def test_run_refuses_a_directory_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "simulate_cglmp3", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
