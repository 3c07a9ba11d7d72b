"""Asymptotic confidence-gain-rate analytics and parameter sweeps.

All rates are bits per trial.  ``gain_martingale`` is the closed-form rate of
the mean-based certificate, ``gain_spbr`` the optimized rate of the weighted
protocol, and ``optimal_gain`` the minimum KL divergence to the LR polytope,
which no valid protocol can beat.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from . import quantum
from .functionals import StandardizedFunctional, _function_columns, build_function_set, default_function_names, expectation
from .optim import DEFAULT_CONTROLS, GainOptimum, OptimizerControls, kl_project_lr, maximize_log_gain
from .scenario import Distribution


def gain_martingale(i_q, a: float, b: float, bound: float):
    """Asymptotic rate of the mean-based certificate for mean i_q and range [b, a].

    Returns 0 where i_q does not exceed the bound; at i_q = a the analytically
    continued limit log2((a - b)/(B - b)) is used.  Elementwise on an array of
    means (the running means of a certificate); a float mean gives a float.
    """
    if not (b < bound < a):
        raise ValueError(f"need b < B < a, got b={b}, B={bound}, a={a}")
    i = np.asarray(i_q, dtype=float)
    outside = ~((b <= i) & (i <= a))
    if np.any(outside):
        raise ValueError(f"mean {i[outside].flat[0]} outside the declared range [{b}, {a}]")
    span = a - b
    with np.errstate(divide="ignore", invalid="ignore"):
        inner = (a - i) / span * np.log2((a - i) / (a - bound)) + (i - b) / span * np.log2((i - b) / (bound - b))
    rate = np.where(i <= bound, 0.0, np.where(i == a, math.log2((a - b) / (bound - b)), inner))
    return float(rate) if rate.ndim == 0 else rate


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
    f = functions[1].source
    i_q = expectation(f, q)
    g_mart = gain_martingale(i_q, f.sup_a, f.inf_b, f.bound_B)
    g_spbr = gain_spbr(q, functions[:2], controls).gain
    g_ext = gain_spbr(q, functions, controls).gain if include_ns else None
    s_q = optimal_gain(q, controls) if include_optimal else None
    return GainReport(float(value), i_q, g_mart, g_spbr, g_ext, s_q)


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
