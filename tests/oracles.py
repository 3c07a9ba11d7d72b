"""Independent reference implementations used to cross-check the package.

Everything here is deliberately naive: direct enumeration with itertools,
scalar searches, and a generic projected-gradient solver.  Nothing imports
the package code paths it is used to verify.
"""
from __future__ import annotations

import csv
import itertools
import math

import numpy as np


def enumerate_strategy_expectations(l, s, d, value_fn, setting_probs=None):
    """<value> under every deterministic strategy, by direct enumeration.

    ``value_fn(settings, outcomes)`` takes 1-based settings and 0-based
    outcomes.  Returns a list of d^(l*s) expectations.
    """
    joint_settings = list(itertools.product(range(1, s + 1), repeat=l))
    if setting_probs is None:
        setting_probs = [1.0 / len(joint_settings)] * len(joint_settings)
    out = []
    for assignment in itertools.product(range(d), repeat=l * s):
        # assignment[(party) * s + (setting - 1)] is that party's outcome
        total = 0.0
        for pi, settings in zip(setting_probs, joint_settings):
            outcomes = tuple(assignment[p * s + (settings[p] - 1)] for p in range(l))
            total += pi * value_fn(settings, outcomes)
        out.append(total)
    return out


def enumerate_strategy_distributions(l, s, d, setting_probs=None):
    """Dense (H, K) table of deterministic-strategy distributions.

    Results are indexed in the package's mixed-radix order (settings digits
    first), recomputed here from scratch.
    """
    joint_settings = list(itertools.product(range(s), repeat=l))
    if setting_probs is None:
        setting_probs = [1.0 / len(joint_settings)] * len(joint_settings)
    k = (d * s) ** l
    rows = []
    for assignment in itertools.product(range(d), repeat=l * s):
        probs = np.zeros(k)
        for pi, settings in zip(setting_probs, joint_settings):
            idx = 0
            for u in settings:
                idx = idx * s + u
            for p in range(l):
                idx = idx * d + assignment[p * s + settings[p]]
            probs[idx] += pi
        rows.append(probs)
    return np.array(rows)


def golden_section_max(fn, lo, hi, iters=200):
    """Maximize a unimodal scalar function on [lo, hi]."""
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c, d = b - phi * (b - a), a + phi * (b - a)
    fc, fd = fn(c), fn(d)
    for _ in range(iters):
        if fc < fd:
            a, c, fc = c, d, fd
            d = a + phi * (b - a)
            fd = fn(d)
        else:
            b, d, fd = d, c, fc
            c = b - phi * (b - a)
            fc = fn(c)
    x = (a + b) / 2.0
    return x, fn(x)


def project_simplex(v):
    """Euclidean projection onto the probability simplex."""
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - 1.0
    rho = np.nonzero(u * np.arange(1, len(v) + 1) > css)[0][-1]
    theta = css[rho] / (rho + 1.0)
    return np.maximum(v - theta, 0.0)


def projected_gradient_kl(q, vertex_table, iters=20000, tol=1e-14):
    """Minimize D(q | lam @ vertex_table) in bits by projected gradient with backtracking."""
    sup = q > 0.0
    qs = q[sup]
    e = vertex_table[:, sup]
    h = e.shape[0]
    lam = np.full(h, 1.0 / h)

    def div(l):
        p = l @ e
        if np.any(p <= 0.0):
            return math.inf
        return float(np.dot(qs, np.log2(qs / p)))

    cur = div(lam)
    step = 1.0
    for _ in range(iters):
        p = lam @ e
        grad = -(e @ (qs / p)) / math.log(2.0)
        step = min(step * 2.0, 1e6)
        while True:
            cand = project_simplex(lam - step * grad)
            val = div(cand)
            if val <= cur + 1e-18 or step < 1e-18:
                break
            step *= 0.5
        if abs(cur - val) <= tol * max(1.0, abs(cur)) and np.allclose(cand, lam, atol=1e-15):
            lam, cur = cand, val
            break
        lam, cur = cand, val
    return cur, lam


def chsh_angle_oracle(theta, coarse=17, refine_rounds=60):
    """Best CHSH expectation for cos(theta)|00> + sin(theta)|11> over planar settings.

    Correlations are computed from the closed form
    E(pa, pb) = cos(pa) cos(pb) + sin(2 theta) sin(pa) sin(pb); the four
    measurement angles are optimized by a coarse grid followed by cyclic
    golden-section refinement.
    """
    s2 = math.sin(2.0 * theta)

    def corr(pa, pb):
        return math.cos(pa) * math.cos(pb) + s2 * math.sin(pa) * math.sin(pb)

    def chsh(angles):
        a1, a2, b1, b2 = angles
        return corr(a1, b1) + corr(a1, b2) + corr(a2, b1) - corr(a2, b2)

    grid = np.linspace(-math.pi, math.pi, coarse)
    best, best_val = None, -math.inf
    for a1, a2, b1, b2 in itertools.product(grid, repeat=4):
        v = chsh((a1, a2, b1, b2))
        if v > best_val:
            best, best_val = [a1, a2, b1, b2], v
    width = grid[1] - grid[0]
    for _ in range(refine_rounds):
        for i in range(4):
            def slice_fn(x, i=i):
                pt = list(best)
                pt[i] = x
                return chsh(pt)

            x, v = golden_section_max(slice_fn, best[i] - width, best[i] + width)
            best[i], best_val = x, v
        width = max(width * 0.7, 1e-9)
    return best_val


def write_report_reference(path, analysis, header_lines=(), per_block=False, block_size=1):
    """Running report written row by row through ``csv.writer``: the byte layout reports must keep."""
    hist = analysis.history()
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for line in header_lines:
            fh.write(line + "\n")
        writer = csv.writer(fh)
        writer.writerow(["n", "statistic", "p_value"])
        for i in range(hist.shape[0]):
            n = int(hist[i, 0])
            if per_block and n % block_size != 0 and n != hist.shape[0]:
                continue
            writer.writerow([n, f"{hist[i, 1]:.12g}", f"{hist[i, 2]:.12g}"])


def maximize_log_gain_reference(r_values, freq, max_iterations=100_000, rel_tolerance=1e-10):
    """The weight-refit loop as first written, kept as the bit-for-bit reference.

    Returns ``(weights, gain, iterations, converged)``.
    """
    r = np.asarray(r_values, dtype=float)
    f = np.asarray(freq, dtype=float)
    active = f > 0.0
    r, f = r[active], f[active]
    m = r.shape[1]
    w = np.full(m, 1.0 / m)
    prev = -math.inf
    gain = 0.0
    for it in range(1, max_iterations + 1):
        mix = r @ w
        gain = float(np.dot(f, np.log2(mix)))
        if it > 1 and gain - prev <= rel_tolerance * max(1.0, abs(gain)):
            return w, gain, it, True
        prev = gain
        w = w * (r.T @ (f / mix))
        w = w / w.sum()
    return w, gain, max_iterations, False


def kl_project_lr_reference(
    q_probs, indices, setting_w, max_iterations=100_000, rel_tolerance=1e-10, warm_start=None, stationarity_slack=None
):
    """The LR-projection loop as first written, kept as the bit-for-bit reference.

    ``indices[h, j]`` is the result strategy h gives under joint setting j,
    which has probability ``setting_w[j]``.  Returns
    ``(mixture, projected probabilities, divergence, iterations, converged)``.
    """
    h, k = indices.shape[0], q_probs.size
    support = np.flatnonzero(q_probs)
    qs = q_probs[support]
    col_of = np.full(k, -1, dtype=np.int64)
    col_of[support] = np.arange(support.size)
    e_sup = np.zeros((h, support.size))
    rows, cols = np.nonzero(col_of[indices] >= 0)
    e_sup[rows, col_of[indices[rows, cols]]] += setting_w[cols]

    def mixture(lam):
        probs = np.bincount(indices.ravel(), weights=(lam[:, None] * setting_w[None, :]).ravel(), minlength=k)
        return probs / probs.sum()

    if np.any(e_sup.max(axis=0)[qs > 0.0] <= 0.0):
        uniform = np.full(h, 1.0 / h)
        return uniform, mixture(uniform), math.inf, 0, True
    if warm_start is not None:
        lam = (1.0 - 1e-12) * np.asarray(warm_start, dtype=float) + 1e-12 / h
    else:
        lam = np.full(h, 1.0 / h)
    prev = math.inf
    div = math.inf
    converged = False
    iterations = 0
    for it in range(1, max_iterations + 1):
        iterations = it
        p_sup = lam @ e_sup
        div = float(np.dot(qs, np.log2(qs / p_sup)))
        factor = e_sup @ (qs / p_sup)
        stationary = stationarity_slack is None or float(factor.max()) <= 1.0 + stationarity_slack
        if it > 1 and stationary and prev - div <= rel_tolerance * max(1.0, abs(div)):
            converged = True
            break
        prev = div
        lam = lam * factor
        lam = lam / lam.sum()
    return lam, mixture(lam), div, iterations, converged


def _squarem_em_reference(table, freq, weights, objective, max_iterations, rel_tolerance, steps=None):
    """EM with SqS3 SQUAREM steps and a KKT-gap stop, written out step by step.

    Maximizes ``objective(mix)``, ``mix = table @ w``, where the EM map is
    ``w <- w * (table.T @ (freq / mix))`` renormalized.  Each cycle takes two
    EM points x1, x2 from x0, then tries the extrapolated point
    ``x0 + 2 s r + s^2 v`` (``r = x1 - x0``, ``v = x2 - 2 x1 + x0``,
    ``s = |r| / |v|``) when ``s > 1``, keeping it only if it is positive and
    no worse than x2.  Every evaluated point counts against the budget.
    Returns ``(weights, objective, evaluations, converged)``; a ``steps``
    list receives the outcome of each extrapolation: "none" (``s <= 1`` or
    ``v = 0``), "non-positive", "rejected" or "accepted".
    """
    steps = [] if steps is None else steps
    evaluations = 0

    def point(w):
        nonlocal evaluations
        evaluations += 1
        mix = table @ w
        return w, objective(mix), table.T @ (freq / mix)

    def stationary(pt):
        return float(pt[2].max()) <= 1.0 + rel_tolerance

    def em(pt):
        w = pt[0] * pt[2]
        return w / w.sum()

    def done(pt):
        return stationary(pt) or evaluations >= max_iterations

    cur = point(weights)
    while not done(cur):
        x1 = point(em(cur))
        if done(x1):
            cur = x1
            break
        x2 = point(em(x1))
        if done(x2):
            cur = x2
            break
        r = x1[0] - cur[0]
        v = x2[0] - 2.0 * x1[0] + cur[0]
        rr, vv = float(r @ r), float(v @ v)
        nxt = x2
        if vv > 0.0 and rr > vv:
            x = cur[0] + 2.0 * math.sqrt(rr / vv) * r + (rr / vv) * v
            if np.all(x > 0.0):
                trial = point(x / x.sum())
                if trial[1] >= x2[1]:
                    nxt = trial
                steps.append("accepted" if nxt is trial else "rejected")
            else:
                steps.append("non-positive")
        else:
            steps.append("none")
        cur = nxt
    return cur[0], cur[1], evaluations, stationary(cur)


def maximize_log_gain_squarem_reference(r_values, freq, max_iterations=100_000, rel_tolerance=1e-8):
    """The weight refit by EM with SQUAREM steps and a KKT-gap stop, as a plain bit-for-bit reference.

    Returns ``(weights, gain, iterations, converged)``.
    """
    r = np.asarray(r_values, dtype=float)
    f = np.asarray(freq, dtype=float)
    active = f > 0.0
    r, f = r[active], f[active]
    m = r.shape[1]
    return _squarem_em_reference(
        r, f, np.full(m, 1.0 / m), lambda mix: float(np.dot(f, np.log2(mix))), max_iterations, rel_tolerance
    )


def kl_project_lr_squarem_reference(q_probs, indices, setting_w, max_iterations=100_000, rel_tolerance=1e-8):
    """The LR projection by EM with SQUAREM steps and a KKT-gap stop, as a plain bit-for-bit reference.

    ``indices[h, j]`` is the result strategy h gives under joint setting j,
    which has probability ``setting_w[j]``.  Returns
    ``(mixture, projected probabilities, divergence, iterations, converged)``.
    """
    h, k = indices.shape[0], q_probs.size
    support = np.flatnonzero(q_probs)
    qs = q_probs[support]
    col_of = np.full(k, -1, dtype=np.int64)
    col_of[support] = np.arange(support.size)
    e_sup = np.zeros((h, support.size))
    rows, cols = np.nonzero(col_of[indices] >= 0)
    e_sup[rows, col_of[indices[rows, cols]]] += setting_w[cols]

    def mixture(lam):
        probs = np.bincount(indices.ravel(), weights=(lam[:, None] * setting_w[None, :]).ravel(), minlength=k)
        return probs / probs.sum()

    if np.any(e_sup.max(axis=0) <= 0.0):
        uniform = np.full(h, 1.0 / h)
        return uniform, mixture(uniform), math.inf, 0, True
    lam = np.full(h, 1.0 / h)
    # maximize minus the divergence D(q | p) = sum q log2(q / p)
    lam, neg_div, iterations, converged = _squarem_em_reference(
        e_sup.T, qs, lam, lambda p: -float(np.dot(qs, np.log2(qs / p))), max_iterations, rel_tolerance
    )
    return lam, mixture(lam), -neg_div, iterations, converged


def run_full_pbr_reference(trials, indices, setting_w, k, block_size, floor, project):
    """The full protocol as a per-block loop with one projection call per block, as first written.

    ``project(freq)`` returns ``(projected probabilities, converged)`` for one
    floored frequency table over the ``k`` results (one ``kl_project_lr``
    call), and ``(indices, setting_w)`` is the strategy index map.  Returns
    ``(history, log2_t, flags)``; history rows are ``(n, log2 T, p-value)``.
    """
    counts, table, total = np.zeros(k, dtype=np.int64), np.ones(k), 0.0
    totals, flags = [], []
    for start in range(0, len(trials), block_size):
        if start:
            freq = counts / start
            if floor > 0.0:
                freq = (1.0 - floor) * freq + floor / k
            p, converged = project(freq)
            if not converged:
                flags.append(f"projection before trial {start + 1} hit the iteration budget")
            with np.errstate(divide="ignore", invalid="ignore"):
                table = np.where(p > 0.0, freq / np.where(p > 0.0, p, 1.0), 0.0)
            worst = float((table[indices] @ setting_w).max())
            if worst > 1.0:
                table = table / worst
        block = trials[start : start + block_size]
        values = table[block]
        for i in np.flatnonzero(values <= 0.0):
            flags.append(f"zero-valued ratio at trial {start + i + 1}; p-value pinned to 1")
        with np.errstate(divide="ignore"):
            scores = np.where(values > 0.0, np.log2(values), -np.inf)
        running = np.cumsum(np.concatenate(([total], scores)))[1:]
        totals.append(running)
        total = float(running[-1])
        np.add.at(counts, block, 1)
    t = np.concatenate(totals)
    with np.errstate(over="ignore"):
        p_values = np.where(t > 0.0, np.maximum(np.exp2(-t), 5e-324), 1.0)
    return np.column_stack([np.arange(1, t.size + 1), t, p_values]), total, flags
