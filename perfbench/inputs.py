"""Seeded input generation for the benchmark, computed without the package.

The recorded-data workload analyzes trials of the maximally entangled CHSH
configuration (state cos(theta)|00> + sin(theta)|11> at theta = pi/4, party A
measuring along z and x, party B along z cos(mu) +/- x sin(mu) with
tan(mu) = sin(2 theta)), mixed with uniformly random outcomes.  The trial
distribution is written out in closed form here so that the benchmark's inputs
do not depend on the code it measures.
"""
from __future__ import annotations

import math
from pathlib import Path

import numpy as np

THETA = math.pi / 4.0
VISIBILITY = 0.75


def chsh_probabilities(theta: float = THETA, visibility: float = VISIBILITY) -> np.ndarray:
    """The 16 trial probabilities P(u, v, a, b), uniform settings, in the package's result order.

    The index is ``((u * 2 + v) * 2 + a) * 2 + b`` with 0-based settings u, v
    and outcomes a, b; outcome 0 is the measurement value +1.
    """
    mu = math.atan(math.sin(2.0 * theta))
    phi_a = (0.0, math.pi / 2.0)
    phi_b = (mu, -mu)
    c2, s2 = math.cos(2.0 * theta), math.sin(2.0 * theta)
    probs = np.empty(16)
    for u in range(2):
        for v in range(2):
            corr = math.cos(phi_a[u]) * math.cos(phi_b[v]) + s2 * math.sin(phi_a[u]) * math.sin(phi_b[v])
            m_a = c2 * math.cos(phi_a[u])
            m_b = c2 * math.cos(phi_b[v])
            for a in range(2):
                for b in range(2):
                    sa, sb = 1 - 2 * a, 1 - 2 * b
                    quantum = (1.0 + sa * m_a + sb * m_b + sa * sb * corr) / 4.0
                    p = visibility * quantum + (1.0 - visibility) / 4.0
                    probs[((u * 2 + v) * 2 + a) * 2 + b] = p / 4.0
    return probs


def sample_chsh_indices(n: int, seed: int) -> np.ndarray:
    """n i.i.d. result indices from :func:`chsh_probabilities`, from a PCG64 stream seeded by ``seed``."""
    rng = np.random.Generator(np.random.PCG64(seed))
    cdf = np.cumsum(chsh_probabilities())
    cdf[-1] = 1.0
    return np.searchsorted(cdf, rng.random(n), side="right")


def write_trial_file(path: Path, indices: np.ndarray) -> None:
    """JSONL trial records with a scenario header line, 1-based settings and 0-based outcomes."""
    lines = ['{"scenario":{"l":2,"s":2,"d":2}}\n']
    for i in indices.tolist():
        u, v, a, b = i >> 3, (i >> 2) & 1, (i >> 1) & 1, i & 1
        lines.append(f'{{"settings":[{u + 1},{v + 1}],"outcomes":[{a},{b}]}}\n')
    Path(path).write_text("".join(lines), encoding="utf-8")
