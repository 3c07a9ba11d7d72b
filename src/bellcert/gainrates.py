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
from .functionals import (
    StandardizedFunctional,
    build_function_set,
    chsh_functional,
    cglmp_functional,
    expectation,
)
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
    if not functions or not functions[0].is_trivial:
        raise ValueError("functions must start with the trivial function")
    return maximize_log_gain(np.column_stack([f.table for f in functions]), q.probs, controls)


def optimal_gain(q: Distribution, controls: OptimizerControls = DEFAULT_CONTROLS) -> float:
    """Minimum KL divergence from q to any LR model: the best achievable rate."""
    return kl_project_lr(q, controls=controls).divergence


@dataclass(frozen=True, eq=False)
class GainReport:
    """One row of a gain-rate sweep."""

    parameter: float
    mean_value: float
    gain_mart: float
    gain_spbr: float
    gain_spbr_extended: float | None = None
    optimal: float | None = None
    functions: tuple[str, ...] = ()


def _cglmp_report(d: int, include_optimal: bool, controls: OptimizerControls) -> GainReport:
    state, bank = quantum.cglmp_config(d)
    q = quantum.born_distribution(state, bank)
    f = cglmp_functional(q.scenario, d)
    i_q = expectation(f, q)
    g_mart = gain_martingale(i_q, f.sup_a, f.inf_b, f.bound_B)
    functions = build_function_set([f.name], q.scenario)
    g_spbr = gain_spbr(q, functions, controls).gain
    s_q = optimal_gain(q, controls) if include_optimal else None
    return GainReport(float(d), i_q, g_mart, g_spbr, None, s_q, tuple(fn.name for fn in functions))


def _chsh_report(theta: float, include_ns: bool, include_optimal: bool, controls: OptimizerControls) -> GainReport:
    state, bank = quantum.chsh_config(theta)
    q = quantum.born_distribution(state, bank)
    f = chsh_functional(q.scenario)
    i_q = expectation(f, q)
    g_mart = gain_martingale(i_q, f.sup_a, f.inf_b, f.bound_B)
    base = build_function_set(["chsh"], q.scenario)
    g_spbr = gain_spbr(q, base, controls).gain
    g_ext = None
    names = [fn.name for fn in base]
    if include_ns:
        extended = build_function_set(["chsh", "nosignaling"], q.scenario)
        g_ext = gain_spbr(q, extended, controls).gain
        names = [fn.name for fn in extended]
    s_q = optimal_gain(q, controls) if include_optimal else None
    return GainReport(float(theta), i_q, g_mart, g_spbr, g_ext, s_q, tuple(names))


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
    reports = []
    if sweep == "cglmp":
        for d in values:
            reports.append(_cglmp_report(int(d), include_optimal, controls))
    elif sweep == "chsh":
        for theta in values:
            reports.append(_chsh_report(float(theta), include_nosignaling, include_optimal, controls))
    else:
        raise ValueError(f"unknown configuration family {sweep!r} (expected 'cglmp' or 'chsh')")
    return reports
