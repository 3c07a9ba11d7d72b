"""The two convex optimizers behind the weighted protocols.

Both maximize the expected log of a non-negative mixture over simplex
weights, by one multiplicative (expectation-maximization style) update:
log-gain maximization over function weights, and Kullback-Leibler projection
of a distribution onto the local-realistic polytope, a mixture of the
deterministic strategies.  Each update preserves the simplex exactly and
never drives an interior iterate to the boundary; SQUAREM extrapolation
(Varadhan & Roland, Scand. J. Stat. 35, 335, 2008) is kept only where it does
not lower the objective, so objectives are monotone.  A solve stops within
``rel_tolerance / ln 2`` bits of its optimum, certified by concavity.
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
    """Iteration budget (objective evaluations) and KKT stationarity gap."""

    max_iterations: int = 100_000
    rel_tolerance: float = 1e-8

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
    table: np.ndarray, freq: np.ndarray, weights: np.ndarray, objective, controls: OptimizerControls
) -> tuple[np.ndarray, float, int, bool]:
    """The loop of both optimizers: maximize ``objective(mix, freq / mix)``, ``mix = table @ weights``.

    ``table`` is (support points x components), ``freq`` positive with unit
    sum, and ``weights`` simplex weights that keep ``mix`` positive.  The EM
    map ``w <- w * factor``, ``factor = table.T @ (freq / mix)``, renormalized,
    never decreases the objective.  Each SQUAREM step maps ``x0`` to ``x1``
    and ``x2`` and moves to the SqS3 point ``x0 - 2 alpha r + alpha^2 v``
    (``r = x1 - x0``, ``v = x2 - 2 x1 + x0``, ``alpha = min(-|r| / |v|, -1)``)
    if it is positive and no worse than ``x2``, else to ``x2``.  A solve
    converges when ``max(factor) <= 1 + rel_tolerance``; as ``weights . factor
    = 1``, the objective is then within ``log2(1 + rel_tolerance)`` bits of its
    optimum.  Returns ``(weights, objective, objective evaluations, converged)``.
    """
    bound = 1.0 + controls.rel_tolerance
    iterations = 0

    def evaluate(w):
        nonlocal iterations
        iterations += 1
        mix = table @ w
        ratio = freq / mix
        return w, objective(mix, ratio), table.T @ ratio

    path = [evaluate(weights)]  # the current SQUAREM step's (weights, objective, factor) at x0, x1, x2
    while path[-1][2].max() > bound and iterations < controls.max_iterations:
        if len(path) < 3:
            w = path[-1][0] * path[-1][2]
            path.append(evaluate(w / w.sum()))
            continue
        (x0, _, _), (x1, _, _), x2 = path
        path = [x2]
        r, v = x1 - x0, x2[0] - 2.0 * x1 + x0
        rr, vv = float(r @ r), float(v @ v)
        if rr > vv > 0.0:  # -alpha = sqrt(rr / vv) > 1
            x = x0 + 2.0 * math.sqrt(rr / vv) * r + (rr / vv) * v
            if np.all(x > 0.0) and (trial := evaluate(x / x.sum()))[1] >= x2[1]:
                path = [trial]
    w, value, factor = path[-1]
    return w, value, iterations, bool(factor.max() <= bound)


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
) -> LRProjection:
    """Project q onto the LR polytope by minimizing the KL divergence (in bits).

    Runs the multiplicative update
    ``lam_h <- lam_h * sum_x q(x) e_h(x) / p_lam(x)`` from uniform (or
    ``warm_start``) weights; the divergence is non-increasing at every step.
    The returned distribution is the projected mixture.

    At the exact projection the update factor is at most 1 for every
    strategy; a converged solve has ``max_h factor_h <= 1 + rel_tolerance``,
    which also bounds how far the ratio ``q / p`` can sit above LR
    expectation 1 under any strategy.
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
            e_sup.T, qs, lam, lambda mix, ratio: -float(np.dot(qs, np.log2(ratio))), controls
        )
    probs = _mixture_probs(indices, setting_w, lam, k)
    return LRProjection(lam, Distribution(scenario, probs / probs.sum()), -neg_div, iterations, converged)
