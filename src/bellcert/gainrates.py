"""Asymptotic confidence-gain-rate parameter sweeps.

Every rate, in bits per trial, is the ``rate`` of its protocol's class in ``protocols.PROTOCOLS``.
The rate functions are re-bound here by name: ``gain_martingale`` (mean-based, closed form),
``gain_spbr`` (weighted, optimized) and ``optimal_gain``, the minimum KL divergence to the
LR polytope, which no valid protocol can beat.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from . import quantum
from .functionals import build_function_set, default_function_names, expectation
from .optim import DEFAULT_CONTROLS, OptimizerControls
from .protocols import PROTOCOLS, gain_martingale, gain_spbr, optimal_gain  # noqa: F401  (the rates, re-bound by name)


@dataclass(frozen=True, eq=False)
class GainReport:
    """One row of a gain-rate sweep."""

    parameter: float
    mean_value: float
    gain_mart: float
    gain_spbr: float
    gain_spbr_extended: float | None = None
    optimal: float | None = None


def _report(family: str, value, include_ns: bool, include_optimal: bool, controls: OptimizerControls) -> GainReport:
    q = quantum.named_distribution(family, value)
    names = default_function_names(q.scenario) + (("nosignaling",) if include_ns else ())
    functions = build_function_set(names, q.scenario)
    g_mart = PROTOCOLS["mart"].rate(q, functions, controls)
    g_spbr = PROTOCOLS["spbr"].rate(q, functions[:2], controls)
    g_ext = PROTOCOLS["spbr"].rate(q, functions, controls) if include_ns else None
    s_q = PROTOCOLS["fpbr"].rate(q, functions, controls) if include_optimal else None
    return GainReport(float(value), expectation(functions[1].source, q), g_mart, g_spbr, g_ext, s_q)


def gain_curve(
    sweep: str,
    values: Iterable[float],
    include_optimal: bool = False,
    include_nosignaling: bool = True,
    controls: OptimizerControls = DEFAULT_CONTROLS,
) -> list[GainReport]:
    """Gain-rate table over a parameter sweep.

    ``sweep`` selects the configuration family: ``"cglmp"`` sweeps the outcome
    count d, ``"chsh"`` sweeps the state angle theta (optionally adding the
    no-signaling witnesses as a second weighted-protocol column).
    """
    include_ns = include_nosignaling and sweep == "chsh"
    return [_report(sweep, value, include_ns, include_optimal, controls) for value in values]
