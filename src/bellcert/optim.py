"""The two convex optimizers behind the weighted protocols.

Both maximize the expected log of a non-negative mixture over simplex
weights, by one multiplicative (expectation-maximization style) update:
log-gain maximization over function weights, and Kullback-Leibler projection
of a distribution onto the local-realistic polytope, a mixture of the
deterministic strategies.  Each update preserves the simplex exactly and
never drives an interior iterate to the boundary, so objectives are monotone
and no observed support point can be assigned zero mass along the way.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ScenarioMismatchError, SizeLimitError
from .lrpolytope import _mixture_probs, strategy_count, strategy_result_indices
from .scenario import Distribution, Scenario, result_space_size

# Dense (strategies x support) work arrays are capped at this many entries.
PROJECTION_TABLE_CAP = 2**24


@dataclass(frozen=True)
class OptimizerControls:
    """Iteration budget and relative objective tolerance."""

    max_iterations: int = 100_000
    rel_tolerance: float = 1e-10

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if not self.rel_tolerance > 0.0:
            raise ValueError("rel_tolerance must be > 0")


DEFAULT_CONTROLS = OptimizerControls()


@dataclass(frozen=True, eq=False)
class GainOptimum:
    """Result of :func:`maximize_log_gain`; ``converged`` is False when the
    iteration budget ran out (the best iterate is still returned)."""

    weights: np.ndarray
    gain: float
    iterations: int
    converged: bool


@dataclass(frozen=True, eq=False)
class LRProjection:
    """Result of :func:`kl_project_lr`: mixture weights over the deterministic
    strategies, the projected distribution, and the divergence in bits."""

    mixture: np.ndarray
    distribution: Distribution
    divergence: float
    iterations: int
    converged: bool


def _check_gain_inputs(r_values: np.ndarray, freq: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    r = np.asarray(r_values, dtype=float)
    f = np.asarray(freq, dtype=float)
    if r.ndim != 2:
        raise ValueError("r_values must be a (support points x functions) table")
    if f.shape != (r.shape[0],):
        raise ValueError(f"freq must have length {r.shape[0]}")
    if not np.all(r >= 0.0):
        raise ValueError("standardized function values must be non-negative")
    if not (np.all(f >= 0.0) and abs(float(f.sum()) - 1.0) <= 1e-9):
        raise ValueError("freq must be a probability assignment over the support points")
    return r, f


def _multiplicative_update(
    table: np.ndarray, freq: np.ndarray, weights: np.ndarray, objective, controls: OptimizerControls, slack=None
) -> tuple[np.ndarray, float, int, bool]:
    """The loop of both optimizers: maximize ``objective(mix, freq / mix)``, ``mix = table @ weights``.

    ``table`` is (support points x components), ``freq`` positive, and
    ``weights`` simplex weights that keep ``mix`` positive.  The update
    ``w <- w * (table.T @ (freq / mix))``, renormalized, never decreases the
    objective.  A solve converges when an iterate gains at most
    ``rel_tolerance`` (relative) and, with ``slack``, no update factor exceeds
    ``1 + slack``.  Returns ``(weights, objective, iterations, converged)``.
    """
    prev = -math.inf
    for it in range(1, controls.max_iterations + 1):
        mix = table @ weights
        ratio = freq / mix
        value = objective(mix, ratio)
        factor = table.T @ ratio
        if (
            it > 1
            and value - prev <= controls.rel_tolerance * max(1.0, abs(value))
            and (slack is None or float(factor.max()) <= 1.0 + slack)
        ):
            return weights, value, it, True
        prev = value
        weights = weights * factor
        weights = weights / weights.sum()
    return weights, value, controls.max_iterations, False


def log_gain(weights: np.ndarray, r_values: np.ndarray, freq: np.ndarray) -> float:
    """Expected log2 of the weighted function under freq; -inf if the mix hits zero on the support."""
    r, f = _check_gain_inputs(r_values, freq)
    w = np.asarray(weights, dtype=float)
    if w.shape != (r.shape[1],):
        raise ValueError(f"weights must have length {r.shape[1]}")
    mix = r @ w
    active = f > 0.0
    if np.any(mix[active] <= 0.0):
        return -math.inf
    return float(np.dot(f[active], np.log2(mix[active])))


def maximize_log_gain(
    r_values: np.ndarray,
    freq: np.ndarray,
    controls: OptimizerControls = DEFAULT_CONTROLS,
) -> GainOptimum:
    """Maximize sum_x freq(x) log2(w . r(x)) over simplex weights w.

    ``r_values[:, 0]`` must be the trivial all-ones column, which both anchors
    the objective at gain 0 and keeps every multiplicative iterate strictly
    positive on the observed support.  The update
    ``w_m <- w_m * sum_x f(x) r_m(x) / (w . r(x))`` preserves the weight sum
    exactly and never decreases the concave objective.
    """
    r, f = _check_gain_inputs(r_values, freq)
    if r.shape[1] < 1:
        raise ValueError("at least the trivial function is required")
    if not np.allclose(r[:, 0], 1.0, atol=1e-12):
        raise ValueError("column 0 of r_values must be the trivial (all ones) function")
    active = f > 0.0
    r, f = r[active], f[active]
    m = r.shape[1]
    return GainOptimum(
        *_multiplicative_update(r, f, np.full(m, 1.0 / m), lambda mix, ratio: float(np.dot(f, np.log2(mix))), controls)
    )


def kl_divergence(q: Distribution, p: Distribution) -> float:
    """Base-2 Kullback-Leibler divergence D(q|p); +inf when q is not absolutely continuous w.r.t. p."""
    if q.scenario is not p.scenario:
        if result_space_size(q.scenario) != result_space_size(p.scenario):
            raise ScenarioMismatchError("distributions live on different result spaces")
    sup = q.probs > 0.0
    if np.any(p.probs[sup] <= 0.0):
        return math.inf
    return float(np.dot(q.probs[sup], np.log2(q.probs[sup] / p.probs[sup])))


def kl_project_lr(
    q: Distribution,
    scenario: Scenario | None = None,
    controls: OptimizerControls = DEFAULT_CONTROLS,
    warm_start: np.ndarray | None = None,
    stationarity_slack: float | None = None,
) -> LRProjection:
    """Project q onto the LR polytope by minimizing the KL divergence (in bits).

    Runs the multiplicative update
    ``lam_h <- lam_h * sum_x q(x) e_h(x) / p_lam(x)`` from uniform (or
    ``warm_start``) weights; the divergence is non-increasing at every step.
    The returned distribution is the projected mixture.

    At the exact projection the update factor is at most 1 for every
    strategy.  When ``stationarity_slack`` is given, convergence additionally
    requires ``max_h factor_h <= 1 + stationarity_slack``, which callers that
    build per-trial ratios from the projection need: it bounds how far the
    ratio's worst-case LR expectation can sit above 1.
    """
    if scenario is None:
        scenario = q.scenario
    elif scenario is not q.scenario and result_space_size(scenario) != result_space_size(q.scenario):
        raise ScenarioMismatchError("q does not live on the supplied scenario's result space")
    h = strategy_count(scenario)
    k = result_space_size(scenario)
    if warm_start is not None:
        lam = np.asarray(warm_start, dtype=float)
        if lam.shape != (h,):
            raise ValueError(f"warm_start must have length {h}")
        if not (np.all(lam >= 0.0) and abs(float(lam.sum()) - 1.0) <= 1e-9):
            raise ValueError("warm_start must be simplex weights")
        # keep every strategy reachable by the multiplicative update
        lam = (1.0 - 1e-12) * lam + 1e-12 / h
    else:
        lam = np.full(h, 1.0 / h)
    indices, setting_w = strategy_result_indices(scenario)
    support = np.flatnonzero(q.probs)
    if h * support.size > PROJECTION_TABLE_CAP:
        raise SizeLimitError(
            f"projection work table {h} x {support.size} exceeds {PROJECTION_TABLE_CAP} entries"
        )
    qs = q.probs[support]

    # dense (H x support) vertex table, built from the sparse index map
    col_of = np.full(k, -1, dtype=np.int64)
    col_of[support] = np.arange(support.size)
    e_sup = np.zeros((h, support.size))
    rows, cols = np.nonzero(col_of[indices] >= 0)
    e_sup[rows, col_of[indices[rows, cols]]] += setting_w[cols]

    if np.any(e_sup.max(axis=0) <= 0.0):
        # some observed result is impossible under every strategy
        lam, neg_div, iterations, converged = np.full(h, 1.0 / h), -math.inf, 0, True
    else:
        # maximize minus the divergence, summed as q log2(q / p)
        lam, neg_div, iterations, converged = _multiplicative_update(
            e_sup.T, qs, lam, lambda mix, ratio: -float(np.dot(qs, np.log2(ratio))), controls, stationarity_slack
        )
    probs = _mixture_probs(indices, setting_w, lam, k)
    return LRProjection(lam, Distribution(scenario, probs / probs.sum()), -neg_div, iterations, converged)
