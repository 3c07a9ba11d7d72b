"""Deterministic local strategies and the mixtures they span.

A deterministic strategy fixes one outcome per party per local setting; the
local-realistic models form the convex hull of the d^(l*s) strategies.
Strategies are represented implicitly by their mixed-radix index (party 1,
setting 1 most significant); their distributions are materialized on demand
through the sparse index map of :func:`strategy_result_indices`, so nothing
here ever scales with the full result space times the strategy count.
"""
from __future__ import annotations

import functools
from typing import Sequence

import numpy as np

from .errors import SizeLimitError
from .scenario import ENUMERATION_CAP, PROBABILITY_TOLERANCE, Distribution, Scenario, _check_simplex, _dense_size, _place_values
from .scenario import result_space_size

# Largest strategy space the full (polytope-searching) protocol will touch.
STRATEGY_CAP = 2**20
# LR-maximum slack in units of the standardized table's LR maximum: n trials gain at most n * log2(1 / (1 - it)) unearned bits.
LR_EXCESS = 1e-12


def strategy_count(scenario: Scenario) -> int:
    """d^(l*s), the number of deterministic strategies."""
    return scenario.outcomes_per_setting ** (scenario.parties * scenario.settings_per_party)


def _require_within_caps(scenario: Scenario) -> int:
    h = strategy_count(scenario)
    if h > STRATEGY_CAP:
        raise SizeLimitError(f"{h} deterministic strategies exceed the cap {STRATEGY_CAP}")
    return h


def _require_projection_fits(scenario: Scenario, results: int) -> int:
    """H, refused unless a projection over ``results`` results fits: its H x results strategy table within ENUMERATION_CAP."""
    h = _require_within_caps(scenario)
    if h * results > ENUMERATION_CAP:
        raise SizeLimitError(f"strategy table {h} x {results} exceeds {ENUMERATION_CAP} entries")
    return h


def enumerate_strategies(scenario: Scenario) -> np.ndarray:
    """All strategies as an (H, l, s) outcome table, in mixed-radix order."""
    return _strategies(scenario, np.arange(_require_within_caps(scenario), dtype=np.int64), scenario.parties)


def _strategies(scenario: Scenario, idx: np.ndarray, parties: int) -> np.ndarray:
    """(n, l, s) outcome tables: the first ``parties`` parties play the strategies of mixed-radix index ``idx``, the rest 0."""
    l, s, d = scenario.parties, scenario.settings_per_party, scenario.outcomes_per_setting
    digits = np.zeros((idx.size, l * s), dtype=np.int64)
    for pos in reversed(range(parties * s)):
        idx, digits[:, pos] = np.divmod(idx, d)
    return digits.reshape(-1, l, s)


def lr_maximum(scenario: Scenario, tables: np.ndarray) -> np.ndarray:
    """LR maximum of each row of a (rows, K) table stack: the last party's best reply, setting by setting, to each of the
    others' d^((l-1)s) strategies (SizeLimitError above STRATEGY_CAP), in chunks of at most STRATEGY_CAP gathered values."""
    l, s, d = scenario.parties, scenario.settings_per_party, scenario.outcomes_per_setting
    g, k, tables = d ** ((l - 1) * s), result_space_size(scenario), np.asarray(tables, dtype=float)
    if tables.ndim != 2 or tables.shape[1] != k:
        raise ValueError(f"tables must be a (rows, {k}) stack, got shape {tables.shape}")
    if g > STRATEGY_CAP:
        raise SizeLimitError(f"{g} strategies of parties 1..{l - 1} exceed the cap {STRATEGY_CAP}")
    if not len(tables):
        return np.zeros(0)
    step, top = max(STRATEGY_CAP // (len(tables) * s**l * d), 1), np.full(len(tables), -np.inf)
    for start in range(0, g, step):
        codes = _result_indices(scenario, _strategies(scenario, np.arange(start, min(start + step, g)), l - 1))
        values = tables[:, codes[..., None] + np.arange(d)] * scenario.setting_distribution[:, None]  # + the last outcome digit
        replies = values.reshape(len(tables), len(codes), -1, s, d).sum(axis=2).max(axis=3).sum(axis=2)  # axis 3: last setting
        top = np.maximum(top, replies.max(axis=1))
    return top


@functools.lru_cache(maxsize=1)
def strategy_result_indices(scenario: Scenario) -> tuple[np.ndarray, np.ndarray]:
    """Sparse support of every strategy distribution.

    Returns ``(indices, weights)`` where ``indices[h, j]`` is the encoded
    result produced by strategy h under joint setting j and ``weights[j]`` is
    that setting's probability; strategy h's distribution puts ``weights[j]``
    on ``indices[h, j]`` and nothing elsewhere.  Both arrays are read-only, built
    once per scenario object and shared; only the latest scenario's map is kept.
    """
    indices = _result_indices(scenario, enumerate_strategies(scenario))
    indices.flags.writeable = False
    return indices, scenario.setting_distribution


def _result_indices(scenario: Scenario, strategies: np.ndarray) -> np.ndarray:
    """(H, n_joint) encoded result of each (l, s) outcome table in ``strategies`` under each joint setting."""
    l, s, d = scenario.parties, scenario.settings_per_party, scenario.outcomes_per_setting
    joint = np.arange(scenario.n_joint_settings, dtype=np.int64)
    indices = joint * d**l  # the settings digits
    for p, weight in enumerate(_place_values(scenario)[1]):
        # np.take keeps the table row-major; on a column-major one fpbr's ratio[indices] @ w rounds differently
        indices = indices + np.take(strategies[:, p], (joint // s ** (l - 1 - p)) % s, axis=1) * weight
    return indices


def strategy_distribution(scenario: Scenario, strategy: np.ndarray | Sequence[Sequence[int]]) -> Distribution:
    """Distribution of one deterministic strategy (an (l, s) outcome table)."""
    l, s, d = scenario.parties, scenario.settings_per_party, scenario.outcomes_per_setting
    table = np.asarray(strategy, dtype=np.int64)
    if table.shape != (l, s):
        raise ValueError(f"strategy table must have shape ({l}, {s})")
    if np.any(table < 0) or np.any(table >= d):
        raise ValueError(f"strategy outcomes must lie in 0..{d - 1}")
    probs = np.zeros(_dense_size(scenario))
    probs[_result_indices(scenario, table[None])[0]] = scenario.setting_distribution
    return Distribution(scenario, probs)


def mixture_distribution(scenario: Scenario, weights: np.ndarray) -> Distribution:
    """Convex combination of all strategy distributions with the given simplex weights."""
    h = _require_within_caps(scenario)
    lam = np.asarray(weights, dtype=float)
    if lam.shape != (h,):
        raise ValueError(f"weights must have length {h}")
    return Distribution(scenario, _mixture_probs(scenario, _check_simplex(lam, PROBABILITY_TOLERANCE, "weights")))


def _mixture_probs(scenario: Scenario, lam: np.ndarray) -> np.ndarray:
    """Result probabilities of the strategy mixture with weights lam."""
    indices, w = strategy_result_indices(scenario)
    return np.bincount(indices.ravel(), weights=(lam[:, None] * w[None, :]).ravel(), minlength=result_space_size(scenario))


def _support_table(scenario: Scenario, support: np.ndarray) -> np.ndarray:
    """Dense (strategies x support) table: the probability each strategy gives each listed result."""
    _require_projection_fits(scenario, support.size)
    indices, w = strategy_result_indices(scenario)
    joint = support // scenario.n_joint_outcomes  # the joint setting of each listed result
    return (np.take(indices, joint, axis=1) == support) * w[joint]  # np.take keeps it row-major: column-major rounds differently
