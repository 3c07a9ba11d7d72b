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

from .lrpolytope import LR_EXCESS, _mixture_probs, _require_within_caps, _support_table
from .scenario import PROBABILITY_TOLERANCE, Distribution, Scenario, _check_same_scenario, _check_simplex

# Fewer rows than this are solved one at a time, faster than in lockstep.
LOCKSTEP_ROWS = 8


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
    return r, _check_simplex(f, PROBABILITY_TOLERANCE, "freq over the support points")


def _dots(a: np.ndarray, b: np.ndarray):
    """``np.dot`` of two vectors, or of each pair of matching C-contiguous rows, rounded as ``np.dot`` rounds."""
    return np.dot(a, b) if a.ndim == 1 else np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def _update_row(table: np.ndarray, f: np.ndarray, weights: np.ndarray, objective, controls: OptimizerControls):
    """:func:`_multiplicative_update` of one row, with less work per evaluation than the lockstep loop."""
    bound = 1.0 + controls.rel_tolerance
    iterations = 0

    def evaluate(w):
        nonlocal iterations
        iterations += 1
        mix = table @ w
        ratio = f / mix
        return w, objective(f, mix, ratio), table.T @ ratio

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


def _multiplicative_update(
    table: np.ndarray, freq: np.ndarray, weights: np.ndarray, objective, controls: OptimizerControls
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The loop of both optimizers: maximize ``objective(f, mix, f / mix)``, ``mix = table @ w``, for each row.

    ``table`` is (support points x components), each row ``f`` of ``freq``
    positive with unit sum, and each row ``w`` of ``weights`` simplex weights
    that keep ``mix`` positive.  The EM map ``w <- w * factor``, ``factor =
    table.T @ (f / mix)``, renormalized, never decreases the objective.  Each
    SQUAREM step maps ``x0`` to ``x1`` and ``x2`` and moves to the SqS3 point
    ``x0 - 2 alpha r + alpha^2 v`` (``r = x1 - x0``, ``v = x2 - 2 x1 + x0``,
    ``alpha = min(-|r| / |v|, -1)``) if it is positive and no worse than
    ``x2``, else to ``x2``.  A row converges when ``max(factor) <= 1 +
    rel_tolerance``; as ``w . factor = 1``, its objective is then within
    ``log2(1 + rel_tolerance)`` bits of its optimum.  From ``LOCKSTEP_ROWS``
    rows on, rows step in lockstep but stop, count and round exactly as
    one-row solves.  Returns per-row ``(weights, objective, objective
    evaluations, converged)``.
    """
    runs = len(weights)
    if runs < LOCKSTEP_ROWS:
        solved = [_update_row(table, f, w, objective, controls) for f, w in zip(freq, weights)]
        return tuple(map(np.array, zip(*solved)))
    bound = 1.0 + controls.rel_tolerance
    out = (np.empty_like(weights), np.empty(runs), np.zeros(runs, dtype=np.int64), np.zeros(runs, dtype=bool))
    ids, f, count = np.arange(runs), freq, np.zeros(runs, dtype=np.int64)  # the rows still iterating

    def evaluate(w, rows):
        count[rows] += 1
        mix = np.matmul(table, w[:, :, None])[:, :, 0]
        ratio = f[rows] / mix
        return w, objective(f[rows], mix, ratio), np.matmul(table.T, ratio[:, :, None])[:, :, 0]

    path = [evaluate(weights, slice(None))]  # as in _update_row, with a leading row axis
    while ids.size:
        w, value, factor = path[-1]
        gap = factor.max(axis=1)
        go = (gap > bound) & (count < controls.max_iterations)
        if not go.all():  # store the rows that stop and drop them
            for a, b in zip(out, (w, value, count, gap <= bound)):
                a[ids[~go]] = b[~go]
            ids, f, count, path = ids[go], f[go], count[go], [tuple(a[go] for a in x) for x in path]
        elif len(path) < 3:
            w = w * factor
            path.append(evaluate(w / w.sum(axis=1, keepdims=True), slice(None)))
        else:
            (x0, _, _), (x1, _, _), x2 = path
            r, v = x1 - x0, x2[0] - 2.0 * x1 + x0
            rr, vv = _dots(r, r), _dots(v, v)
            s = np.where(vv > 0.0, rr, 0.0) / np.where(vv > 0.0, vv, 1.0)  # alpha^2 (0 if v = 0); s > 1 iff rr > vv > 0
            x = x0 + (2.0 * np.sqrt(s))[:, None] * r + s[:, None] * v
            ext, path = np.flatnonzero((s > 1.0) & np.all(x > 0.0, axis=1)), [x2]
            if ext.size:
                trial = evaluate(x[ext] / x[ext].sum(axis=1, keepdims=True), ext)
                better = trial[1] >= x2[1][ext]
                for a, b in zip(x2, trial):
                    a[ext[better]] = b[better]
    return out


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
    if not np.all(np.abs(r[:, 0] - 1.0) <= LR_EXCESS):  # so its LR maximum is at most 1 + LR_EXCESS
        raise ValueError(f"column 0 of r_values must be the trivial (all ones) function, within {LR_EXCESS:g}")
    active = f > 0.0
    r, f = r[active], f[active]
    m = r.shape[1]
    return GainOptimum(
        *_update_row(r, f, np.full(m, 1.0 / m), lambda f, mix, ratio: float(np.dot(f, np.log2(mix))), controls)
    )


def kl_divergence(q: Distribution, p: Distribution) -> float:
    """Base-2 Kullback-Leibler divergence D(q|p); +inf when q is not absolutely continuous w.r.t. p."""
    _check_same_scenario(q.scenario, p.scenario, "kl_divergence")
    sup = q.probs > 0.0
    if np.any(p.probs[sup] <= 0.0):
        return math.inf
    return float(np.dot(q.probs[sup], np.log2(q.probs[sup] / p.probs[sup])))


def kl_project_lr(q: Distribution, controls: OptimizerControls = DEFAULT_CONTROLS) -> LRProjection:
    """Project q onto the LR polytope of its scenario by minimizing the KL divergence (in bits).

    Runs the multiplicative update
    ``lam_h <- lam_h * sum_x q(x) e_h(x) / p_lam(x)`` from uniform weights,
    which leave every strategy reachable; the divergence is non-increasing at
    every step.  The returned distribution is the projected mixture.

    At the exact projection the update factor is at most 1 for every
    strategy; a converged solve has ``max_h factor_h <= 1 + rel_tolerance``,
    which also bounds how far the ratio ``q / p`` can sit above LR
    expectation 1 under any strategy.
    """
    lam, probs, div, iterations, converged = _project_rows(q.probs[None], q.scenario, controls)
    projection = Distribution(q.scenario, probs[0])
    return LRProjection(lam[0], projection, float(div[0]), int(iterations[0]), bool(converged[0]))


def _project_rows(freq: np.ndarray, scenario: Scenario, controls: OptimizerControls):
    """:func:`kl_project_lr` of each probability row of ``freq``, a (runs, K) array over ``scenario``'s results.

    Rows with one support share one vertex table and one update loop.
    Returns per-row ``(mixture, probabilities, divergence, evaluations, converged)``.
    """
    runs, h = len(freq), _require_within_caps(scenario)
    lam, neg_div = np.full((runs, h), 1.0 / h), np.full(runs, -math.inf)
    iterations, converged = np.zeros(runs, dtype=np.int64), np.ones(runs, dtype=bool)
    supports, group = np.unique(freq > 0.0, axis=0, return_inverse=True)
    for g, support in enumerate(supports):
        e_sup = _support_table(scenario, np.flatnonzero(support))
        if np.all(e_sup.max(axis=0) > 0.0):  # else some observed result is impossible under every strategy
            # maximize minus the divergence, summed as q log2(q / p)
            sel = np.flatnonzero(group == g)
            lam[sel], neg_div[sel], iterations[sel], converged[sel] = _multiplicative_update(
                e_sup.T, freq[np.ix_(sel, support)], lam[sel], lambda f, mix, ratio: -_dots(f, np.log2(ratio)), controls
            )
    probs = np.array([_mixture_probs(scenario, row) for row in lam])
    return lam, probs / probs.sum(axis=1, keepdims=True), -neg_div, iterations, converged
