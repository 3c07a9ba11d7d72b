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
from typing import Callable, Sequence

import numpy as np

from .functionals import Functional, StandardizedFunctional, _function_columns, expectation
from .gainrates import gain_martingale, gain_spbr, optimal_gain
from .lrpolytope import strategy_result_indices
from .optim import DEFAULT_CONTROLS, OptimizerControls, _project_rows, maximize_log_gain
from .scenario import Distribution, Scenario, _dense_size, _encoded

# Smallest positive double; reported p-values are clamped here instead of 0.
P_FLOOR = 5e-324

# Defaults of every protocol run: trials per block, and fpbr's frequency floor.
DEFAULT_BLOCK = 154
DEFAULT_FLOOR = 1e-9

# A scoring pass spans at most this many entries of per-block work arrays: (block, result)
# counts and tables, and fpbr's (block, strategy) projection weights.
PASS_ENTRIES = 2**16


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


class BlockAnalysis:
    """The block-scoring engine shared by the three protocols.

    Subclasses are predictors: the constructor passes the score table of the
    first block, and ``_predict(counts, n)`` is a pure function that returns,
    for blocks starting after trials ``n`` that saw the rows of ``counts``,
    their (blocks, K) score tables and a per-block flag, False where the refit
    hit the iteration budget.  Trials arrive through :meth:`extend` as int64
    encoded result indices, in chunks of any size; the history does not depend
    on the chunking.
    """

    statistic_name = "log2_T"

    def __init__(self, block_size: int, table: np.ndarray):
        if block_size < 1:
            raise ValueError("block_size must be >= 1")
        self.block_size = block_size
        self.table = table
        self.n = 0
        self.total = 0.0
        self.counts = np.zeros(table.size, dtype=np.int64)
        self.flags: list[str] = []
        self._totals: list[np.ndarray] = []
        self._pass_blocks = max(PASS_ENTRIES // table.size, 1)

    def _scores(self, values: np.ndarray) -> np.ndarray:
        """Per-trial log2 ratio; a zero ratio scores -inf, which pins the p-value to 1."""
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(values > 0.0, np.log2(values), -np.inf)

    def _stats(self, totals, n):
        """(statistic, -log2 p) after n trials with running score sum ``totals``: log2 T twice."""
        return totals, totals

    def extend(self, trials: np.ndarray) -> None:
        """Score encoded trials in order, with the table refreshed at each block boundary.

        One :meth:`_predict` call per pass gives the tables of the blocks starting in it; a pass
        spans at most ``_pass_blocks`` blocks, which bounds its work arrays and the predictor's.
        """
        k, size = self.table.size, min(self.block_size, sys.maxsize)  # no run reaches sys.maxsize trials
        enc = _encoded(trials, k)
        while enc.size:
            first = self.n // size  # the block of the pass's first trial
            cut = (first + self._pass_blocks) * size - self.n
            chunk, enc = enc[:cut], enc[cut:]
            # (block in the pass, result) of each trial, as one flat index into (blocks, K) arrays
            cell = ((self.n + np.arange(chunk.size)) // size - first) * k + chunk
            seen = np.cumsum(np.bincount(cell, minlength=cell[-1] // k * k + k).reshape(-1, k), axis=0) + self.counts
            starts = (first + np.arange(len(seen))) * size
            fresh = starts >= max(self.n, 1)  # blocks that start in this pass, after trial 1
            tables, capped = self.table[None], starts[:0]
            if fresh.any():
                refits, fitted = self._predict(np.vstack((self.counts, seen[:-1]))[fresh], starts[fresh])
                tables, capped = np.vstack((tables, refits))[-len(seen) :], starts[fresh][~fitted]
            scores = self._scores(tables.ravel()[cell])
            # by trial, each block's budget warning before its zero-ratio warnings
            flags = [(m, 0, f"{self.refit_name} before trial {m + 1} hit the iteration budget") for m in capped]
            zeros = self.n + np.flatnonzero(scores == -np.inf)
            flags += [(t, 1, f"zero-valued ratio at trial {t + 1}; p-value pinned to 1") for t in zeros]
            self.flags += [text for *_, text in sorted(flags)]
            running = np.cumsum(np.concatenate(([self.total], scores)))[1:]
            self._totals.append(running)
            self.total = float(running[-1])
            self.table, self.counts = tables[-1], seen[-1]
            self.n += chunk.size

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
        if not b < bound < a:
            raise ValueError(f"need inf_b < bound_B < sup_a, got {b}, {bound}, {a}")
        self.functional = functional
        super().__init__(sys.maxsize, functional.table)

    def _scores(self, values: np.ndarray) -> np.ndarray:
        return values

    def _stats(self, totals, n):
        f = self.functional
        mean = np.clip(totals / n, f.inf_b, f.sup_a)  # a sum of in-range scores can round past the range
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

    refit_name = "weight refit"

    def __init__(
        self,
        functions: Sequence[StandardizedFunctional],
        block_size: int = DEFAULT_BLOCK,
        controls: OptimizerControls = DEFAULT_CONTROLS,
    ):
        self._r = _function_columns(functions)
        self.controls = controls
        super().__init__(block_size, functions[0].table)

    def _predict(self, counts, n):
        tables, fitted = np.empty(counts.shape), np.empty(n.size, dtype=bool)
        for i, (seen, m) in enumerate(zip(counts, n)):
            opt = maximize_log_gain(self._r, seen / m, self.controls)
            tables[i], fitted[i] = self._r @ opt.weights, opt.converged
        return tables, fitted

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

    refit_name = "projection"

    def __init__(
        self,
        scenario: Scenario,
        block_size: int = DEFAULT_BLOCK,
        controls: OptimizerControls = DEFAULT_CONTROLS,
        floor: float = DEFAULT_FLOOR,
    ):
        if not 0.0 <= floor < 1.0:
            raise ValueError("floor must lie in [0, 1)")
        k = _dense_size(scenario)
        self.controls = controls
        self.floor = floor
        self._indices, self._setting_w = strategy_result_indices(scenario)
        super().__init__(block_size, np.ones(k))
        self._pass_blocks = max(PASS_ENTRIES // len(self._indices), 1)  # a projection holds H >= K weights per block

    def _predict(self, counts, n):
        freq = (1.0 - self.floor) * (counts / n[:, None]) + self.floor / self.table.size
        # a cold start leaves every strategy reachable; convergence keeps the
        # rescue rescale below log2(1 + rel_tolerance) bits per trial
        _, p, _, _, converged = _project_rows(freq, self._indices, self._setting_w, self.controls)
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(p > 0.0, freq / np.where(p > 0.0, p, 1.0), 0.0)
        # cap the worst-case LR expectation of the ratio at exactly 1
        worst = np.array([(row[self._indices] @ self._setting_w).max() for row in ratio])
        return ratio / np.where(worst > 1.0, worst, 1.0)[:, None], converged

    @property
    def log2_t(self) -> float:
        return self.statistic


def run_martingale(trials: np.ndarray, functional: Functional) -> MartingaleAnalysis:
    """Run the mean-based certificate over an array of encoded trials."""
    analysis = MartingaleAnalysis(functional)
    analysis.extend(trials)
    return analysis


def run_simplified_pbr(
    trials: np.ndarray,
    functions: Sequence[StandardizedFunctional],
    block_size: int = DEFAULT_BLOCK,
    controls: OptimizerControls = DEFAULT_CONTROLS,
) -> SimplifiedPbrAnalysis:
    """Run the weighted-function protocol over an array of encoded trials."""
    analysis = SimplifiedPbrAnalysis(functions, block_size, controls)
    analysis.extend(trials)
    return analysis


def run_full_pbr(
    trials: np.ndarray,
    scenario: Scenario,
    block_size: int = DEFAULT_BLOCK,
    controls: OptimizerControls = DEFAULT_CONTROLS,
    floor: float = DEFAULT_FLOOR,
) -> FullPbrAnalysis:
    """Run the polytope-projection protocol over an array of encoded trials."""
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
    return gain_martingale(expectation(f, q), f.sup_a, f.inf_b, f.bound_B)


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


def select_protocols(names: Sequence[str], block_size: int) -> dict[str, Protocol]:
    """Registry entries for one run of distinct named protocols; ValueError for an unknown name or a block size below 1."""
    if block_size < 1:
        raise ValueError("block_size must be >= 1")
    if len(set(names)) < len(names):
        raise ValueError(f"protocol names must be distinct, got {','.join(names)}")
    for name in names:
        if name not in PROTOCOLS:
            raise ValueError(f"unknown protocol {name!r} (expected one of {tuple(PROTOCOLS)})")
    return {name: PROTOCOLS[name] for name in names}
