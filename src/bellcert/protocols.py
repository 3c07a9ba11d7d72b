"""The three p-value engines: mean-based (Hoeffding) and the two prediction-based-ratio protocols.

All three are one block-scoring engine, :class:`BlockAnalysis`, and differ
only in their predictor.  Before each block of trials the predictor fixes a
dense score table over the encoded result space, using only the trials seen
before the block; the block is then scored by table lookup and a running sum.

The prediction-based protocols score every trial with a non-negative
function of LR expectation at most 1, so the running product T is a test
supermartingale under every LR model and ``min(1/T, 1)`` is a valid p-value
bound at every stopping time, whatever the data distribution; they sum in
log2 space.  The mean-based certificate sums the functional itself, and its
Hoeffding bound is valid for a number of trials fixed in advance.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import SizeLimitError
from .functionals import Functional, StandardizedFunctional, expectation
from .gainrates import gain_martingale, gain_spbr, optimal_gain
from .lrpolytope import strategy_result_indices
from .optim import DEFAULT_CONTROLS, OptimizerControls, kl_project_lr, maximize_log_gain
from .scenario import (
    ENUMERATION_CAP,
    Distribution,
    Scenario,
    TrialResult,
    encode_trials,
    result_space_size,
)

# Smallest positive double; reported p-values are clamped here instead of 0.
P_FLOOR = 5e-324


def pbr_pvalue(log2_t):
    """min(2^(-log2_T), 1) elementwise, clamped away from exact zero.

    Non-positive ``log2_T`` (also -inf, for flagged runs) gives p = 1.  A
    float argument gives a float, an array gives an array.
    """
    t = np.asarray(log2_t, dtype=float)
    with np.errstate(over="ignore"):
        p = np.where(t > 0.0, np.maximum(np.exp2(-t), P_FLOOR), 1.0)
    return float(p) if p.ndim == 0 else p


def _check_mart_inputs(i_hat: float, n: int, a: float, b: float, bound: float) -> None:
    if n < 1:
        raise ValueError("n must be >= 1")
    if not (b < bound < a):
        raise ValueError(f"need b < B < a, got b={b}, B={bound}, a={a}")
    if not (b <= i_hat <= a):
        raise ValueError(f"mean {i_hat} outside the declared range [{b}, {a}]")


def martingale_pvalue(i_hat: float, n: int, a: float, b: float, bound: float) -> float:
    """Hoeffding-style supermartingale bound on the LR tail of the running mean.

    Equals 2^(-n * g) where g is the closed-form rate of
    :func:`bellcert.gainrates.gain_martingale` at the observed mean; 1 when
    the mean does not exceed the bound.
    """
    _check_mart_inputs(i_hat, n, a, b, bound)
    return pbr_pvalue(n * gain_martingale(i_hat, a, b, bound))


def azuma_pvalue(i_hat: float, n: int, a: float, b: float, bound: float) -> float:
    """Azuma-Hoeffding comparison baseline exp(-2 n (mean - B)^2 / (a - b)^2).

    Never smaller than :func:`martingale_pvalue`; provided only so the two
    bounds can be compared.
    """
    _check_mart_inputs(i_hat, n, a, b, bound)
    if i_hat <= bound:
        return 1.0
    t = (i_hat - bound) / (a - b)
    return max(math.exp(-2.0 * n * t * t), P_FLOOR)


def _encoded(scenario: Scenario, trials, k: int) -> np.ndarray:
    """Trials as int64 result indices: integer indices pass after a range check, records are encoded."""
    if not isinstance(trials, np.ndarray):
        trials = list(trials)
        if trials and isinstance(trials[0], TrialResult):
            return encode_trials(scenario, trials)
    enc = np.asarray(trials)
    if enc.size == 0:
        return np.zeros(0, dtype=np.int64)
    if enc.ndim != 1 or enc.dtype.kind not in "iu":
        raise ValueError("trials must be TrialResult records or a 1-d sequence of integer result indices")
    lo, hi = int(enc.min()), int(enc.max())
    if lo < 0 or hi >= k:
        raise ValueError(f"encoded result index {lo if lo < 0 else hi} outside 0..{k - 1}")
    return enc.astype(np.int64, copy=False)


class BlockAnalysis:
    """The block-scoring engine shared by the three protocols.

    Subclasses are predictors: the constructor passes the score table of the
    first block, and :meth:`_predict` returns the table for each later block
    from the result ``counts`` seen before it.  Trials arrive through
    :meth:`extend`, as encoded indices or :class:`TrialResult` records, in
    chunks of any size; the history does not depend on the chunking.
    """

    statistic_name = "log2_T"

    def __init__(self, scenario: Scenario, block_size: int, table: np.ndarray):
        if block_size < 1:
            raise ValueError("block_size must be >= 1")
        self.scenario = scenario
        self.block_size = block_size
        self.table = table
        self.n = 0
        self.total = 0.0
        self.counts = np.zeros(table.size, dtype=np.int64)
        self.flags: list[str] = []
        self._totals: list[np.ndarray] = []

    def _predict(self) -> np.ndarray:
        """Score table for the block starting at trial n + 1."""
        return self.table

    def _scores(self, values: np.ndarray) -> np.ndarray:
        """Per-trial log2 ratio; a zero ratio scores -inf, which pins the p-value to 1."""
        for i in np.flatnonzero(values <= 0.0):
            self.flags.append(f"zero-valued ratio at trial {self.n + i + 1}; p-value pinned to 1")
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(values > 0.0, np.log2(values), -np.inf)

    def _stats(self, totals, n):
        """(statistic, -log2 p) after n trials with running score sum ``totals``: log2 T twice."""
        return totals, totals

    def extend(self, trials: Iterable) -> None:
        """Score trials in order, refreshing the table at each block boundary."""
        enc = _encoded(self.scenario, trials, self.table.size)
        pos = 0
        while pos < enc.size:
            if self.n and self.n % self.block_size == 0:
                self.table = self._predict()
            block = enc[pos : pos + self.block_size - self.n % self.block_size]
            running = np.cumsum(np.concatenate(([self.total], self._scores(self.table[block]))))[1:]
            self._totals.append(running)
            self.total = float(running[-1])
            np.add.at(self.counts, block, 1)
            self.n += block.size
            pos += block.size

    @property
    def statistic(self) -> float:
        return float(self._stats(self.total, self.n)[0]) if self.n else 0.0

    @property
    def neg_log2_pvalue(self) -> float:
        """-log2 of the p-value before its clamp at P_FLOOR; never negative."""
        return max(float(self._stats(self.total, self.n)[1]), 0.0) if self.n else 0.0

    @property
    def pvalue(self) -> float:
        return pbr_pvalue(self.neg_log2_pvalue)

    def history(self) -> np.ndarray:
        """(N, 3) array of (n, running statistic, p-value)."""
        if len(self._totals) > 1:
            self._totals = [np.concatenate(self._totals)]
        totals = self._totals[0] if self._totals else np.zeros(0)
        n = np.arange(1, totals.size + 1)
        stat, bits = self._stats(totals, n)
        return np.column_stack([n, stat, pbr_pvalue(bits)])


class MartingaleAnalysis(BlockAnalysis):
    """Mean-based certificate for a single bounded functional.

    The functional's table scores every trial, so the whole run is one
    block.  The p-value is a fixed-n bound: valid when the number of trials
    is chosen in advance, not at a data-dependent stopping time.
    """

    statistic_name = "mean"

    def __init__(self, functional: Functional):
        a, b, bound = functional.sup_a, functional.inf_b, functional.bound_B
        if not (math.isfinite(a) and math.isfinite(b)):
            raise ValueError("martingale protocol needs finite functional bounds")
        if not (b < bound < a):
            raise ValueError(f"need inf_b < bound_B < sup_a, got {b}, {bound}, {a}")
        self.functional = functional
        super().__init__(functional.scenario, sys.maxsize, functional.table)

    def _scores(self, values: np.ndarray) -> np.ndarray:
        return values

    def _stats(self, totals, n):
        f = self.functional
        mean = totals / n
        return mean, n * gain_martingale(mean, f.sup_a, f.inf_b, f.bound_B)

    @property
    def mean(self) -> float:
        return self.statistic


class SimplifiedPbrAnalysis(BlockAnalysis):
    """Weighted-function protocol: the table is ``R @ w`` for the function tables R.

    Trials in the first block are scored by the trivial function (log term 0).
    Before each later block the weights are refit by maximizing the empirical
    log gain over all preceding trials; a final partial block is scored with
    the latest weights.

    Args:
        functions: standardized functions, the trivial one first.
        block_size: trials per weight update.
        controls: optimizer budget for the per-block refits.
    """

    def __init__(
        self,
        functions: Sequence[StandardizedFunctional],
        block_size: int = 154,
        controls: OptimizerControls = DEFAULT_CONTROLS,
    ):
        if not functions:
            raise ValueError("at least the trivial function is required")
        if not functions[0].is_trivial:
            raise ValueError("functions[0] must be the trivial function")
        scenario = functions[0].scenario
        for f in functions:
            if f.scenario is not scenario and result_space_size(f.scenario) != result_space_size(scenario):
                raise ValueError("all functions must share one scenario")
        self.functions = tuple(functions)
        self.controls = controls
        self.weights = np.zeros(len(functions))
        self.weights[0] = 1.0
        self.block_weights: list[tuple[int, np.ndarray]] = [(1, self.weights.copy())]
        self._r = np.column_stack([f.table for f in functions])
        super().__init__(scenario, block_size, self._r @ self.weights)

    def _predict(self) -> np.ndarray:
        opt = maximize_log_gain(self._r, self.counts / self.n, self.controls)
        if not opt.converged:
            self.flags.append(f"weight refit before trial {self.n + 1} hit the iteration budget")
        self.weights = opt.weights
        self.block_weights.append((self.n + 1, self.weights.copy()))
        return self._r @ self.weights

    @property
    def log2_t(self) -> float:
        return self.statistic


class FullPbrAnalysis(BlockAnalysis):
    """Polytope-projection protocol: the table is the frequency/projection ratio.

    Before each block (the first uses the constant ratio 1), the empirical
    frequencies of all preceding trials, optionally floored by a uniform
    mixture, are projected onto the LR polytope; the per-trial ratio is the
    frequency over its projection.  Ratios are rescaled whenever any
    deterministic strategy would give them an expectation above 1, so validity
    never depends on the projection's numerical precision.

    Args:
        scenario: the (small) scenario; the strategy and result caps apply.
        block_size: trials per projection refresh.
        controls: optimizer budget for the projections.
        floor: uniform-mixture weight mixed into the frequencies (keeps the
            ratio positive on never-observed results).
    """

    def __init__(
        self,
        scenario: Scenario,
        block_size: int = 154,
        controls: OptimizerControls = DEFAULT_CONTROLS,
        floor: float = 1e-9,
    ):
        if not 0.0 <= floor < 1.0:
            raise ValueError("floor must lie in [0, 1)")
        k = result_space_size(scenario)
        if k > ENUMERATION_CAP:
            raise SizeLimitError(f"full protocol needs a dense result table; {k} exceeds {ENUMERATION_CAP}")
        self.controls = controls
        self.floor = floor
        self._indices, self._setting_w = strategy_result_indices(scenario)
        super().__init__(scenario, block_size, np.ones(k))

    def _predict(self) -> np.ndarray:
        k = self.table.size
        freq = self.counts / self.n
        if self.floor > 0.0:
            freq = (1.0 - self.floor) * freq + self.floor / k
        q = Distribution(self.scenario, freq, empirical=True)
        # a cold start leaves every strategy reachable; convergence keeps the
        # rescue rescale below log2(1 + rel_tolerance) bits per trial
        proj = kl_project_lr(q, controls=self.controls)
        if not proj.converged:
            self.flags.append(f"projection before trial {self.n + 1} hit the iteration budget")
        p = proj.distribution.probs
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(p > 0.0, freq / np.where(p > 0.0, p, 1.0), 0.0)
        # cap the worst-case LR expectation of the ratio at exactly 1
        worst = float((ratio[self._indices] @ self._setting_w).max())
        if worst > 1.0:
            ratio = ratio / worst
        return ratio

    @property
    def log2_t(self) -> float:
        return self.statistic


def run_martingale(trials: Sequence, functional: Functional) -> MartingaleAnalysis:
    """Run the mean-based certificate over a recorded trial sequence."""
    analysis = MartingaleAnalysis(functional)
    analysis.extend(trials)
    return analysis


def run_simplified_pbr(
    trials: Sequence,
    functions: Sequence[StandardizedFunctional],
    block_size: int = 154,
    controls: OptimizerControls = DEFAULT_CONTROLS,
) -> SimplifiedPbrAnalysis:
    """Run the weighted-function protocol over a recorded trial sequence."""
    analysis = SimplifiedPbrAnalysis(functions, block_size, controls)
    analysis.extend(trials)
    return analysis


def run_full_pbr(
    trials: Sequence,
    scenario: Scenario,
    block_size: int = 154,
    controls: OptimizerControls = DEFAULT_CONTROLS,
    floor: float = 1e-9,
) -> FullPbrAnalysis:
    """Run the polytope-projection protocol over a recorded trial sequence."""
    analysis = FullPbrAnalysis(scenario, block_size, controls, floor)
    analysis.extend(trials)
    return analysis


# ---------------------------------------------------------------------------
# protocols by name


@dataclass(frozen=True)
class Protocol:
    """How a named protocol runs and what its asymptotic rate is.

    ``run(trials, functions, block_size, controls, floor)`` returns the
    analysis and ``rate(q, functions, controls)`` the exact rate in bits per
    trial at probabilities q.  ``functions`` is a standardized set with the
    trivial function first; ``mart`` certifies ``functions[1].source``.
    """

    run: Callable[..., BlockAnalysis]
    rate: Callable[..., float]


def _mart_functional(functions: Sequence[StandardizedFunctional]) -> Functional:
    if len(functions) < 2:
        raise ValueError("martingale protocol needs a non-trivial functional")
    return functions[1].source


def _mart_rate(q: Distribution, functions, controls) -> float:
    f = _mart_functional(functions)
    return gain_martingale(max(expectation(f, q), f.bound_B), f.sup_a, f.inf_b, f.bound_B)


# Entries call the run_* and rate functions through their module-global names,
# looked up at call time.
PROTOCOLS = {
    "mart": Protocol(
        run=lambda trials, functions, block_size, controls, floor: run_martingale(trials, _mart_functional(functions)),
        rate=_mart_rate,
    ),
    "spbr": Protocol(
        run=lambda trials, functions, block_size, controls, floor: run_simplified_pbr(
            trials, functions, block_size, controls
        ),
        rate=lambda q, functions, controls: gain_spbr(q, functions, controls).gain,
    ),
    "fpbr": Protocol(
        run=lambda trials, functions, block_size, controls, floor: run_full_pbr(
            trials, functions[0].scenario, block_size, controls, floor
        ),
        rate=lambda q, functions, controls: optimal_gain(q, controls),
    ),
}


def get_protocol(name: str) -> Protocol:
    """The registry entry for a protocol name; ValueError for an unknown one."""
    try:
        return PROTOCOLS[name]
    except KeyError:
        raise ValueError(f"unknown protocol {name!r} (expected one of {tuple(PROTOCOLS)})") from None
