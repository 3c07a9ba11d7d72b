"""Deterministic local strategies and the mixtures they span.

A deterministic strategy fixes one outcome per party per local setting; the
local-realistic models form the convex hull of the d^(l*s) strategies.
Strategies are represented implicitly by their mixed-radix index (party 1,
setting 1 most significant); their distributions are materialized on demand
through the sparse index map of :func:`strategy_result_indices`, so nothing
here ever scales with the full result space times the strategy count.
"""
from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import SizeLimitError
from .scenario import Distribution, Scenario, result_space_size

# Largest strategy space the full (polytope-searching) protocol will touch.
STRATEGY_CAP = 2**20


def strategy_count(scenario: Scenario) -> int:
    """d^(l*s), the number of deterministic strategies."""
    return scenario.outcomes_per_setting ** (scenario.parties * scenario.settings_per_party)


def _require_within_caps(scenario: Scenario) -> int:
    h = strategy_count(scenario)
    if h > STRATEGY_CAP:
        raise SizeLimitError(f"{h} deterministic strategies exceed the cap {STRATEGY_CAP}")
    return h


def enumerate_strategies(scenario: Scenario) -> np.ndarray:
    """All strategies as an (H, l, s) outcome table, in mixed-radix order."""
    h = _require_within_caps(scenario)
    l, s, d = scenario.parties, scenario.settings_per_party, scenario.outcomes_per_setting
    idx = np.arange(h, dtype=np.int64)
    digits = np.empty((h, l * s), dtype=np.int64)
    for pos in range(l * s):
        digits[:, pos] = (idx // d ** (l * s - 1 - pos)) % d
    return digits.reshape(h, l, s)


def strategy_result_indices(scenario: Scenario) -> tuple[np.ndarray, np.ndarray]:
    """Sparse support of every strategy distribution.

    Returns ``(indices, weights)`` where ``indices[h, j]`` is the encoded
    result produced by strategy h under joint setting j and ``weights[j]`` is
    that setting's probability; strategy h's distribution puts ``weights[j]``
    on ``indices[h, j]`` and nothing elsewhere.
    """
    h = _require_within_caps(scenario)
    l, s, d = scenario.parties, scenario.settings_per_party, scenario.outcomes_per_setting
    n_joint = scenario.n_joint_settings
    strategies = enumerate_strategies(scenario)  # (H, l, s)
    joint = np.arange(n_joint, dtype=np.int64)
    setting_digit = np.empty((n_joint, l), dtype=np.int64)
    for p in range(l):
        setting_digit[:, p] = (joint // s ** (l - 1 - p)) % s
    indices = np.zeros((h, n_joint), dtype=np.int64)
    base_out = d**l
    for j in range(n_joint):
        outcome_index = np.zeros(h, dtype=np.int64)
        for p in range(l):
            outcome_index = outcome_index * d + strategies[:, p, setting_digit[j, p]]
        indices[:, j] = joint[j] * base_out + outcome_index
    return indices, scenario.setting_distribution.copy()


def strategy_distribution(scenario: Scenario, strategy: np.ndarray | Sequence[Sequence[int]]) -> Distribution:
    """Distribution of one deterministic strategy (an (l, s) outcome table)."""
    l, s, d = scenario.parties, scenario.settings_per_party, scenario.outcomes_per_setting
    table = np.asarray(strategy, dtype=np.int64)
    if table.shape != (l, s):
        raise ValueError(f"strategy table must have shape ({l}, {s})")
    if np.any(table < 0) or np.any(table >= d):
        raise ValueError(f"strategy outcomes must lie in 0..{d - 1}")
    k = result_space_size(scenario)
    probs = np.zeros(k)
    n_joint = scenario.n_joint_settings
    for j in range(n_joint):
        digits = [(j // s ** (l - 1 - p)) % s for p in range(l)]
        out_idx = 0
        for p in range(l):
            out_idx = out_idx * d + int(table[p, digits[p]])
        probs[j * d**l + out_idx] = scenario.setting_distribution[j]
    return Distribution(scenario, probs)


def mixture_distribution(scenario: Scenario, weights: np.ndarray) -> Distribution:
    """Convex combination of all strategy distributions with the given simplex weights."""
    h = _require_within_caps(scenario)
    lam = np.asarray(weights, dtype=float)
    if lam.shape != (h,):
        raise ValueError(f"weights must have length {h}")
    if not (np.all(lam >= 0.0) and abs(float(lam.sum()) - 1.0) <= 1e-10):
        raise ValueError("weights must be non-negative and sum to 1 within 1e-10")
    indices, w = strategy_result_indices(scenario)
    return Distribution(scenario, _mixture_probs(indices, w, lam, result_space_size(scenario)))


def _mixture_probs(indices: np.ndarray, setting_w: np.ndarray, lam: np.ndarray, k: int) -> np.ndarray:
    """Result probabilities of the strategy mixture lam, from the index map of :func:`strategy_result_indices`."""
    return np.bincount(indices.ravel(), weights=(lam[:, None] * setting_w[None, :]).ravel(), minlength=k)


def vertex_expectations(scenario: Scenario, values: np.ndarray) -> np.ndarray:
    """Expectation of a per-result value table under every deterministic strategy."""
    indices, w = strategy_result_indices(scenario)
    values = np.asarray(values, dtype=float)
    return values[indices] @ w
