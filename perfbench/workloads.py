"""The benchmark's three workloads: their inputs, commands and output checks.

Each workload is built from a work directory and the workload seed.  Building
it writes every input the commands read; ``command(setup)`` gives the entry
point (``cli`` for ``python -m bellcert.cli``, ``validity`` for the library
driver) and its arguments, at full size or at the one-block size used for the
set-up time; ``check`` verifies a full-size run from what it printed and
wrote.
"""
from __future__ import annotations

import shutil
from pathlib import Path

import checks
import inputs

BLOCK = 154


class AnalyzeChshNs:
    """Recorded-data path: ``bellcert analyze`` with mart and spbr on 200k CHSH trials.

    Spends its time in ingest, per-trial scoring, the 18-function weight refit
    and report writing; it never projects onto the LR polytope.
    """

    name = "analyze_chsh_ns"
    trials = 200_000

    def __init__(self, work: Path, seed: int):
        self.trials_file = work / "trials.jsonl"
        self.setup_file = work / "trials_setup.jsonl"
        self.out = work / "out"
        self.setup_out = work / "out_setup"
        indices = inputs.sample_chsh_indices(self.trials, seed)
        inputs.write_trial_file(self.trials_file, indices)
        inputs.write_trial_file(self.setup_file, indices[:BLOCK])
        self.trials_file.read_bytes()  # leave the input in the page cache

    def command(self, setup: bool) -> tuple[str, list[str]]:
        trials_file, out = (self.setup_file, self.setup_out) if setup else (self.trials_file, self.out)
        return "cli", [
            "analyze", str(trials_file), "--scenario", "2,2,2", "--functions", "chsh,nosignaling",
            "--protocol", "mart,spbr", "--block", str(BLOCK), "--out", str(out),
        ]

    def clear(self) -> None:
        shutil.rmtree(self.out, ignore_errors=True)

    def check(self, stdout: str) -> None:
        checks.check_analyze(stdout, self.out, self.trials_file)


class SimulateCglmp3:
    """The paper's d = 3 experiment: ``bellcert simulate --config cglmp:3`` with all three protocols.

    Reads no file; its time goes to fpbr's 64 warm-started LR projections.
    The command is the same for every workload seed: it keeps the simulator's
    default seed (0), because the projections' work depends so much on the
    sample that single runs on seeds 1 to 5 took 1.2 s to 20 s (README.md).
    """

    name = "simulate_cglmp3"
    trials = 10_000

    def __init__(self, work: Path, seed: int):
        self.out = work / "out"
        self.setup_out = work / "out_setup"

    def command(self, setup: bool) -> tuple[str, list[str]]:
        trials, out = (BLOCK, self.setup_out) if setup else (self.trials, self.out)
        return "cli", [
            "simulate", "--config", "cglmp:3", "--trials", str(trials), "--block", str(BLOCK),
            "--protocol", "mart,spbr,fpbr", "--out", str(out),
        ]

    def clear(self) -> None:
        shutil.rmtree(self.out, ignore_errors=True)

    def check(self, stdout: str) -> None:
        checks.check_simulate(stdout, self.out, self.trials)


class ValidityLrMc:
    """The LR validity Monte Carlo: hundreds of short, mostly budget-capped solves, no file IO.

    Seeds ``seed * seeds`` onward, so distinct workload seeds never share a run.
    """

    name = "validity_lr_mc"
    seeds = 40

    def __init__(self, work: Path, seed: int):
        self.base_seed = seed * self.seeds

    def command(self, setup: bool) -> tuple[str, list[str]]:
        return "validity", ["--seeds", str(1 if setup else self.seeds), "--base-seed", str(self.base_seed)]

    def clear(self) -> None:
        pass

    def check(self, stdout: str) -> None:
        checks.check_validity(stdout, self.seeds)


WORKLOADS = {w.name: w for w in (AnalyzeChshNs, SimulateCglmp3, ValidityLrMc)}
