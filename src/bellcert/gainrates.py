"""Asymptotic confidence-gain-rate analytics and parameter sweeps.

All rates are bits per trial.  ``gain_martingale`` (defined with the
certificate it is the exponent of) is the closed-form rate of the mean-based
certificate, ``gain_spbr`` the optimized rate of the weighted protocol, and
``optimal_gain`` the minimum KL divergence to the LR polytope, which no valid
protocol can beat.  :func:`protocol_rate` is the rate of each registered
protocol by name.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from . import quantum
from .functionals import StandardizedFunctional, _function_columns, build_function_set, default_function_names, expectation
from .optim import DEFAULT_CONTROLS, GainOptimum, OptimizerControls, kl_project_lr, maximize_log_gain
from .protocols import _mart_functional, gain_martingale
from .scenario import Distribution


def gain_spbr(
    q: Distribution,
    functions: Sequence[StandardizedFunctional],
    controls: OptimizerControls = DEFAULT_CONTROLS,
) -> GainOptimum:
    """Best log-gain rate over convex weightings of the function set, at exact probabilities q.

    ``functions[0]`` must be the trivial function.
    """
    return maximize_log_gain(_function_columns(functions, q.scenario), q.probs, controls)


def optimal_gain(q: Distribution, controls: OptimizerControls = DEFAULT_CONTROLS) -> float:
    """Minimum KL divergence from q to any LR model: the best achievable rate."""
    return kl_project_lr(q, controls).divergence


def protocol_rate(name: str, q: Distribution, functions: Sequence[StandardizedFunctional], controls: OptimizerControls) -> float:
    """Exact asymptotic rate of the named protocol at probabilities q, in bits per trial.

    ``functions`` is the standardized set the protocol runs with, the trivial
    function first; ValueError for a name that is not a registered protocol.
    """
    if name == "mart":
        f = _mart_functional(functions)
        return gain_martingale(expectation(f, q), f.sup_a, f.inf_b, f.bound_B)
    if name == "spbr":
        return gain_spbr(q, functions, controls).gain
    if name == "fpbr":
        return optimal_gain(q, controls)
    raise ValueError(f"unknown protocol {name!r}")


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
    g_mart = protocol_rate("mart", q, functions, controls)
    g_spbr = protocol_rate("spbr", q, functions[:2], controls)
    g_ext = protocol_rate("spbr", q, functions, controls) if include_ns else None
    s_q = protocol_rate("fpbr", q, functions, controls) if include_optimal else None
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
