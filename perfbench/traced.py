"""Traced run of one workload command: spans around the package's public functions.

    PYTHONPATH=src python3 perfbench/traced.py --spans spans.json -- cli analyze trials.jsonl ...
    PYTHONPATH=src python3 perfbench/traced.py --spans spans.json -- validity --seeds 100 --base-seed 0

Each layer function listed in :data:`LAYERS` is replaced, in every
``bellcert`` module that binds it, by a wrapper that records a span (name,
start, end, parent) and a few counts read from its arguments and result.
Spans stay in memory and are written out when the command ends;
:func:`layer_metrics` turns them into the per-layer metrics.  Nothing inside
the package changes.  A layer function that no longer exists is reported
missing instead of failing the run.
"""
from __future__ import annotations

import argparse
import functools
import importlib
import json
import os
import sys
import time
from collections import defaultdict
from pathlib import Path


def _trials(result, args, kwargs) -> dict:
    return {"trials": len(result)}


def _scored(result, args, kwargs) -> dict:
    return {"trials": result.n}


def _solve(result, args, kwargs) -> dict:
    return {"iterations": result.iterations, "converged": bool(result.converged)}


def _bytes_written(result, args, kwargs) -> dict:
    path = kwargs["path"] if "path" in kwargs else args[0]
    return {"bytes": os.path.getsize(path)}


# (module under bellcert, function, span name, counts read after the call)
LAYERS = (
    ("cli", "main", "cli.main", None),
    ("scenario", "read_trials", "scenario.read_trials", _trials),
    ("protocols", "run_martingale", "protocols.mart", _scored),
    ("protocols", "run_simplified_pbr", "protocols.spbr", _scored),
    ("protocols", "run_full_pbr", "protocols.fpbr", _scored),
    ("optim", "maximize_log_gain", "optim.maximize_log_gain", _solve),
    ("optim", "kl_project_lr", "optim.kl_project_lr", _solve),
    ("lrpolytope", "strategy_result_indices", "lrpolytope.strategy_result_indices", None),
    ("functionals", "build_function_set", "functionals.build_function_set", None),
    ("quantum", "born_distribution", "quantum.born_distribution", None),
    ("gainrates", "gain_spbr", "gainrates.gain_spbr", None),
    ("gainrates", "optimal_gain", "gainrates.optimal_gain", None),
    ("sim", "sample_encoded", "sim.sample_encoded", None),
    ("sim", "write_report", "sim.write_report", _bytes_written),
)

# Per-layer metrics with their units, in the order BENCHMARK.json lists them.
METRIC_UNITS = {
    "scenario.read_trials.s": "s",
    "scenario.read_trials.trials": "count",
    "protocols.mart.self_s": "s",
    "protocols.spbr.self_s": "s",
    "protocols.fpbr.self_s": "s",
    "protocols.trials_scored": "count",
    "optim.maximize_log_gain.s": "s",
    "optim.maximize_log_gain.calls": "count",
    "optim.maximize_log_gain.iterations": "count",
    "optim.kl_project_lr.s": "s",
    "optim.kl_project_lr.calls": "count",
    "optim.kl_project_lr.iterations": "count",
    "optim.kl_project_lr.converged": "count",
    "lrpolytope.strategy_result_indices.s": "s",
    "lrpolytope.strategy_result_indices.calls": "count",
    "functionals.build_function_set.s": "s",
    "quantum.born_distribution.s": "s",
    "gainrates.gain_spbr.s": "s",
    "gainrates.optimal_gain.s": "s",
    "sim.sample_encoded.s": "s",
    "sim.write_report.s": "s",
    "sim.write_report.bytes": "bytes",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
    "trace.layers_missing": "count",
}


class Tracer:
    """In-memory span recorder for one single-threaded process."""

    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []

    def wrap(self, name, fn, counts):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            span = {"name": name, "parent": self._open[-1] if self._open else -1, "start": time.perf_counter()}
            self.spans.append(span)
            self._open.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._open.pop()
            if counts is not None:
                span.update(counts(result, args, kwargs))
            return result

        return traced


def install(tracer: Tracer) -> list[str]:
    """Wrap every binding of every layer function; returns the layers that were not found."""
    import bellcert  # noqa: F401  (loads every submodule)

    missing = []
    for module_name, attr, span_name, counts in LAYERS:
        try:
            fn = getattr(importlib.import_module(f"bellcert.{module_name}"), attr)
        except (ImportError, AttributeError):
            missing.append(span_name)
            continue
        wrapper = tracer.wrap(span_name, fn, counts)
        modules = [m for n, m in sys.modules.items() if n == "bellcert" or n.startswith("bellcert.")]
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, key, wrapper)
    return missing


def layer_metrics(spans: list[dict], missing: list[str]) -> dict[str, float]:
    """Per-layer totals, counts and self times from one traced run (``trace.overhead_s`` excluded)."""
    total: dict[str, float] = defaultdict(float)
    self_time: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    sums: dict[tuple[str, str], int] = defaultdict(int)
    for span in spans:
        duration = span["end"] - span["start"]
        total[span["name"]] += duration
        self_time[span["name"]] += duration
        calls[span["name"]] += 1
        if span["parent"] >= 0:
            self_time[spans[span["parent"]]["name"]] -= duration
        for key in ("trials", "iterations", "converged", "bytes"):
            if key in span:
                sums[span["name"], key] += span[key]
    return {
        "scenario.read_trials.s": total["scenario.read_trials"],
        "scenario.read_trials.trials": sums["scenario.read_trials", "trials"],
        "protocols.mart.self_s": self_time["protocols.mart"],
        "protocols.spbr.self_s": self_time["protocols.spbr"],
        "protocols.fpbr.self_s": self_time["protocols.fpbr"],
        "protocols.trials_scored": sum(sums[f"protocols.{p}", "trials"] for p in ("mart", "spbr", "fpbr")),
        "optim.maximize_log_gain.s": total["optim.maximize_log_gain"],
        "optim.maximize_log_gain.calls": calls["optim.maximize_log_gain"],
        "optim.maximize_log_gain.iterations": sums["optim.maximize_log_gain", "iterations"],
        "optim.kl_project_lr.s": total["optim.kl_project_lr"],
        "optim.kl_project_lr.calls": calls["optim.kl_project_lr"],
        "optim.kl_project_lr.iterations": sums["optim.kl_project_lr", "iterations"],
        "optim.kl_project_lr.converged": sums["optim.kl_project_lr", "converged"],
        "lrpolytope.strategy_result_indices.s": total["lrpolytope.strategy_result_indices"],
        "lrpolytope.strategy_result_indices.calls": calls["lrpolytope.strategy_result_indices"],
        "functionals.build_function_set.s": total["functionals.build_function_set"],
        "quantum.born_distribution.s": total["quantum.born_distribution"],
        "gainrates.gain_spbr.s": total["gainrates.gain_spbr"],
        "gainrates.optimal_gain.s": total["gainrates.optimal_gain"],
        "sim.sample_encoded.s": total["sim.sample_encoded"],
        "sim.write_report.s": total["sim.write_report"],
        "sim.write_report.bytes": sums["sim.write_report", "bytes"],
        "cli.self_s": self_time["cli.main"],
        "trace.layers_missing": len(missing),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="run one workload command with per-layer spans")
    parser.add_argument("--spans", type=Path, required=True, help="JSON file the spans are written to")
    parser.add_argument("entry", choices=["cli", "validity"], help="bellcert.cli.main or the validity driver")
    parser.add_argument("args", nargs=argparse.REMAINDER, help="arguments of the entry point, after --")
    args = parser.parse_args(argv)
    entry_args = args.args[1:] if args.args[:1] == ["--"] else args.args

    tracer = Tracer()
    missing = install(tracer)
    try:
        if args.entry == "cli":
            import bellcert.cli

            code = bellcert.cli.main(entry_args)
        else:
            sys.path.insert(0, str(Path(__file__).resolve().parent))
            import validity_driver

            code = validity_driver.main(entry_args)
    finally:
        args.spans.write_text(json.dumps({"missing": missing, "spans": tracer.spans}), encoding="utf-8")
    for name in missing:
        print(f"trace: layer {name} not found", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
