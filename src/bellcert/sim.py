"""Seeded trial sampling and end-to-end experiment running.

Sampling is inverse-CDF over the encoded result index, driven by a named
generator (:data:`GENERATOR_ID`) so that every run is replayable from its
seed.  ``run_experiment`` feeds one sampled sequence to each requested
protocol and pairs the running curves with the exact asymptotic rates.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from .functionals import StandardizedFunctional, build_function_set
from .optim import DEFAULT_CONTROLS, OptimizerControls
from .protocols import PROTOCOLS, get_protocol
from .scenario import Distribution, TrialResult, decode_result

# Algorithm identifier of the random source, recorded in every report header.
GENERATOR_ID = "numpy-pcg64"

PROTOCOL_NAMES = tuple(PROTOCOLS)


def sample_encoded(q: Distribution, n: int, seed: int) -> np.ndarray:
    """n i.i.d. encoded results drawn from q by inverse CDF; seed-deterministic."""
    if n < 0:
        raise ValueError("n must be >= 0")
    rng = np.random.Generator(np.random.PCG64(seed))
    cdf = np.cumsum(q.probs)
    cdf[-1] = 1.0
    idx = np.searchsorted(cdf, rng.random(n), side="right")
    return np.minimum(idx, q.probs.size - 1).astype(np.int64)


def sample_trials(q: Distribution, n: int, seed: int) -> list[TrialResult]:
    """n i.i.d. trials drawn from q; identical seeds give identical sequences."""
    return [decode_result(q.scenario, int(i)) for i in sample_encoded(q, n, seed)]


@dataclass(frozen=True, eq=False)
class SimulationPlan:
    """A reproducible experiment: source distribution, length, seed, and protocol choices."""

    source: Distribution
    n_trials: int
    seed: int
    protocols: tuple[str, ...] = PROTOCOL_NAMES
    function_names: tuple[str, ...] = ()
    block_size: int = 154
    controls: OptimizerControls = DEFAULT_CONTROLS
    floor: float = 1e-9
    label: str = ""

    def __post_init__(self):
        if self.n_trials < 1:
            raise ValueError("n_trials must be >= 1")
        if self.block_size < 1:
            raise ValueError("block_size must be >= 1")
        for p in self.protocols:
            get_protocol(p)


@dataclass
class ExperimentResult:
    """Analyses keyed by protocol name, with the exact asymptotic rates for overlay."""

    plan: SimulationPlan
    analyses: dict = field(default_factory=dict)
    rates: dict = field(default_factory=dict)

    def neg_log2_pvalue(self, protocol: str) -> float:
        return self.analyses[protocol].neg_log2_pvalue

    def learning_offset(self, protocol: str) -> float:
        """Gap between the asymptote n * rate and the achieved -log2 p at the final n."""
        a = self.analyses[protocol]
        return a.n * self.rates[protocol] - self.neg_log2_pvalue(protocol)


def _default_function_names(q: Distribution) -> tuple[str, ...]:
    sc = q.scenario
    if sc.parties == 2 and sc.settings_per_party == 2 and sc.is_uniform():
        if sc.outcomes_per_setting == 2:
            return ("chsh",)
        return (f"cglmp:{sc.outcomes_per_setting}",)
    raise ValueError("no default function set for this scenario; supply function_names")


def run_experiment(plan: SimulationPlan, out_dir: str | Path | None = None, per_block: bool = False) -> ExperimentResult:
    """Sample one sequence and feed it to every requested protocol.

    Writes per-protocol running reports (and the asymptote table) under
    ``out_dir`` when given.  Identical plans produce byte-identical reports.
    """
    q = plan.source
    names = plan.function_names or _default_function_names(q)
    functions = build_function_set(names, q.scenario)
    encoded = sample_encoded(q, plan.n_trials, plan.seed)
    result = ExperimentResult(plan=plan)
    for name in plan.protocols:
        protocol = PROTOCOLS[name]
        result.analyses[name] = protocol.run(encoded, functions, plan.block_size, plan.controls, plan.floor)
        result.rates[name] = protocol.rate(q, functions, plan.controls)

    if out_dir is not None:
        write_reports(result, out_dir, per_block=per_block)
    return result


def _report_header(plan: SimulationPlan, protocol: str, rate: float) -> list[str]:
    return [
        f"# generator={GENERATOR_ID} seed={plan.seed}",
        f"# protocol={protocol} trials={plan.n_trials} block={plan.block_size}"
        f" scenario={plan.source.scenario.parties},{plan.source.scenario.settings_per_party},"
        f"{plan.source.scenario.outcomes_per_setting}",
        f"# asymptotic_rate_bits_per_trial={rate:.12g}",
    ]


def _csv_text(rows) -> str:
    """Rows whose fields need no quoting, in the csv module's layout (comma-separated, CRLF-terminated)."""
    return "".join(",".join(map(str, row)) + "\r\n" for row in rows)


# Report rows formatted per write.  Larger chunks write no faster (200k rows take
# the same time at 32 and 1024) but their transient text and tuples raise peak RSS.
REPORT_CHUNK = 128


def write_report(path: str | Path, analysis, header_lines: Sequence[str] = (), per_block: bool = False, block_size: int = 1) -> None:
    """Write a running report: ``n, statistic, p_value`` per trial (or per block end), CRLF rows."""
    hist = analysis.history()
    if per_block and hist.size:
        keep = hist[:, 0] % block_size == 0
        keep[-1] = True
        hist = hist[keep]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("".join(line + "\n" for line in header_lines) + "n,statistic,p_value\r\n")
        for start in range(0, hist.shape[0], REPORT_CHUNK):
            rows = hist[start : start + REPORT_CHUNK]
            fh.write("%d,%.12g,%.12g\r\n" * rows.shape[0] % tuple(rows.ravel().tolist()))


def write_reports(result: ExperimentResult, out_dir: str | Path, per_block: bool = False) -> dict[str, Path]:
    """Write one report per protocol plus the asymptote table; returns the paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    prefix = (result.plan.label + "_") if result.plan.label else ""
    paths: dict[str, Path] = {}
    for protocol, analysis in result.analyses.items():
        path = out / f"{prefix}report_{protocol}.csv"
        header = _report_header(result.plan, protocol, result.rates[protocol])
        write_report(path, analysis, header, per_block=per_block, block_size=result.plan.block_size)
        paths[protocol] = path
    asym = out / f"{prefix}asymptotes.csv"
    rows = [(p, f"{result.rates[p]:.12g}", a.n, f"{result.neg_log2_pvalue(p):.12g}") for p, a in result.analyses.items()]
    with open(asym, "w", encoding="utf-8", newline="") as fh:
        fh.write(f"# generator={GENERATOR_ID} seed={result.plan.seed}\n")
        fh.write(_csv_text([("protocol", "gain_rate_bits_per_trial", "final_n", "final_neg_log2_p")] + rows))
    paths["asymptotes"] = asym
    return paths


def run_seed_sweep(plan: SimulationPlan, seeds: Sequence[int], out_dir: str | Path | None = None) -> list[ExperimentResult]:
    """Run the same plan under many seeds; optionally write a per-seed summary table."""
    results = [run_experiment(replace(plan, seed=int(seed))) for seed in seeds]
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        prefix = (plan.label + "_") if plan.label else ""
        rows = [[r.plan.seed] + [f"{r.neg_log2_pvalue(p):.12g}" for p in plan.protocols] for r in results]
        with open(out / f"{prefix}seed_summary.csv", "w", encoding="utf-8", newline="") as fh:
            fh.write(f"# generator={GENERATOR_ID}\n")
            fh.write(_csv_text([["seed"] + [f"neg_log2_p_{p}" for p in plan.protocols]] + rows))
    return results


def validity_exceedance(
    q_lr: Distribution,
    n_seeds: int,
    n_trials: int,
    alphas: Sequence[float],
    protocols: Sequence[str] = PROTOCOL_NAMES,
    functions: Sequence[StandardizedFunctional] | None = None,
    block_size: int = 10,
    base_seed: int = 0,
    controls: OptimizerControls | None = None,
    floor: float = 1e-9,
) -> dict[str, dict[float, float]]:
    """Empirical Prob(final p <= alpha) over many seeded runs on LR-model data.

    For data from any LR model every protocol must keep this at or below
    alpha (up to Monte Carlo noise).  The default optimizer budget is small:
    prediction quality never affects validity, only the power to reject.
    """
    controls = controls or OptimizerControls(max_iterations=300, rel_tolerance=1e-6)
    if functions is None:
        functions = build_function_set(_default_function_names(q_lr), q_lr.scenario)
    runs = {p: get_protocol(p).run for p in protocols}
    counts = {p: {float(a): 0 for a in alphas} for p in protocols}
    for i in range(n_seeds):
        encoded = sample_encoded(q_lr, n_trials, base_seed + i)
        for protocol, run in runs.items():
            p_final = run(encoded, functions, block_size, controls, floor).pvalue
            for a in counts[protocol]:
                if p_final <= a:
                    counts[protocol][a] += 1
    return {p: {a: c / n_seeds for a, c in table.items()} for p, table in counts.items()}
