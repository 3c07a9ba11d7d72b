"""Output checks for the three workloads, computed apart from the package.

Each check reads what a run printed and wrote, recomputes what it can from
the raw inputs or from closed forms, and raises :class:`CheckFailed` on the
first disagreement.  Printed numbers carry 10 significant digits and report
rows 12, so comparisons allow the rounding of the printed text and no more.
"""
from __future__ import annotations

import json
import math
from pathlib import Path

# Relative rounding of a number printed with 10 (12) significant digits.
PRINT_REL = 5e-10
REPORT_REL = 5e-12

# CHSH per-trial functional: values in [-4, 4], LR bound 2.
CHSH_A, CHSH_B, CHSH_BOUND = 4.0, -4.0, 2.0

# Gain rates of the d = 3 configuration (bits per trial) from the paper.
CGLMP3_RATES = {"mart": 0.0565, "spbr": 0.0675, "fpbr": 0.0675}
RATE_TOL = 5e-4

# -log2 p on cglmp:3 must lie in [n rate - L - 6 sd sqrt(n), n rate + 6 sd sqrt(n)].
# sd is the per-trial standard deviation of the log2 score at the asymptotic
# predictor; L = k/2 log2(n) bits is the learning cost of k fitted parameters
# (fpbr: twice its 32 free frequencies, to cover blocks scored from a projection
# that ran out of iterations).  README.md gives the derivation and the spread
# measured over 187 seeds.
CGLMP3_SCORE_SD = {"mart": 0.33, "spbr": 0.40, "fpbr": 0.40}
CGLMP3_FITTED = {"mart": 0, "spbr": 1, "fpbr": 64}


def cglmp3_band(protocol: str, n: int) -> tuple[float, float]:
    """Interval that -log2 p of ``protocol`` must fall in after n trials of cglmp:3."""
    centre = n * CGLMP3_RATES[protocol]
    spread = 6.0 * CGLMP3_SCORE_SD[protocol] * math.sqrt(n)
    return centre - CGLMP3_FITTED[protocol] / 2.0 * math.log2(n) - spread, centre + spread


VALIDITY_SOURCES = ("uniform-outcomes", "boundary-strategy", "random-mixture")
VALIDITY_PROTOCOLS = ("mart", "spbr", "fpbr")
VALIDITY_ALPHAS = (0.5, 0.1, 0.02)


class CheckFailed(Exception):
    """A workload's output disagrees with the independent recomputation."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _close(found: float, expected: float, rel: float, abs_tol: float = 0.0) -> bool:
    return abs(found - expected) <= rel * abs(expected) + abs_tol


def printed_rows(stdout: str) -> dict[str, dict[str, str]]:
    """The ``protocol=.. key=value ..`` lines of a CLI run, keyed by protocol."""
    rows: dict[str, dict[str, str]] = {}
    for line in stdout.splitlines():
        if not line.startswith("protocol="):
            continue
        fields = dict(part.split("=", 1) for part in line.split())
        rows[fields["protocol"]] = fields
    return rows


def chsh_mean(trials_file: Path) -> tuple[int, float]:
    """Trial count and CHSH mean of a JSONL trial file, in plain Python."""
    n = 0
    total = 0.0
    with open(trials_file, "r", encoding="utf-8") as fh:
        for line in fh:
            obj = json.loads(line)
            if "scenario" in obj:
                continue
            (u, v), (a, b) = obj["settings"], obj["outcomes"]
            sign = -1.0 if (u, v) == (2, 2) else 1.0
            total += 4.0 * sign * (1 - 2 * a) * (1 - 2 * b)
            n += 1
    return n, total / n


def martingale_p(mean: float, n: int, a: float = CHSH_A, b: float = CHSH_B, bound: float = CHSH_BOUND) -> float:
    """Closed-form supermartingale bound 2^(-n g(mean)) on the LR tail of a running mean in [b, a]."""
    if mean <= bound:
        return 1.0
    hi, lo = (a - mean) / (a - b), (mean - b) / (a - b)
    rate = lo * math.log2((mean - b) / (bound - b))
    if hi > 0.0:
        rate += hi * math.log2((a - mean) / (a - bound))
    return 2.0 ** (-n * rate)


def _pbr_p_matches(p: float, log2_t: float) -> bool:
    """p = min(2^-log2_T, 1); log2 T is printed to 10 digits, which moves 2^-log2_T by ln 2 times its rounding."""
    return _close(p, min(2.0**-log2_t, 1.0), PRINT_REL + math.log(2.0) * PRINT_REL * abs(log2_t), 1e-300)


def check_report(path: Path, n: int, statistic: float | None, p: float) -> None:
    """A per-trial running report: header, one row per trial, last row equal to the printed result."""
    _require(path.is_file(), f"{path.name}: missing")
    lines = path.read_bytes().decode("utf-8").splitlines()
    body = [line for line in lines if not line.startswith("#")]
    _require(body[0] == "n,statistic,p_value", f"{path.name}: header row is {body[0]!r}")
    _require(len(body) - 1 == n, f"{path.name}: {len(body) - 1} rows for n={n}")
    last_n, last_stat, last_p = body[-1].split(",")
    _require(int(last_n) == n, f"{path.name}: last row n={last_n}, printed n={n}")
    if statistic is not None:
        _require(
            _close(float(last_stat), statistic, PRINT_REL + REPORT_REL, 1e-300),
            f"{path.name}: last statistic {last_stat} != printed {statistic!r}",
        )
    _require(_close(float(last_p), p, PRINT_REL + REPORT_REL, 1e-300), f"{path.name}: last p {last_p} != printed {p!r}")


def check_analyze(stdout: str, out_dir: Path, trials_file: Path) -> None:
    """``bellcert analyze --protocol mart,spbr`` on a CHSH trial file."""
    rows = printed_rows(stdout)
    _require(set(rows) == {"mart", "spbr"}, f"printed protocols {sorted(rows)}")
    n, mean = chsh_mean(trials_file)
    mart, spbr = rows["mart"], rows["spbr"]
    _require(int(mart["n"]) == n and int(spbr["n"]) == n, f"printed n {mart['n']}/{spbr['n']}, file has {n} trials")
    printed_mean = float(mart["mean"])
    _require(_close(printed_mean, mean, PRINT_REL, 1e-12), f"mart mean {printed_mean!r} != recomputed {mean!r}")
    p_mart = float(mart["p_value"])
    expected = martingale_p(mean, n)
    _require(_close(p_mart, expected, 1e-9 + PRINT_REL, 1e-300), f"mart p {p_mart!r} != closed form {expected!r}")
    log2_t, p_spbr = float(spbr["log2_T"]), float(spbr["p_value"])
    _require(_pbr_p_matches(p_spbr, log2_t), f"spbr p {p_spbr!r} != 2^-{log2_t!r}")
    check_report(out_dir / "report_mart.csv", n, printed_mean, p_mart)
    check_report(out_dir / "report_spbr.csv", n, log2_t, p_spbr)


def check_simulate(stdout: str, out_dir: Path, n_trials: int) -> None:
    """``bellcert simulate --config cglmp:3`` with all three protocols."""
    rows = printed_rows(stdout)
    _require(set(rows) == set(CGLMP3_RATES), f"printed protocols {sorted(rows)}")
    asymptotes = {}
    lines = (out_dir / "asymptotes.csv").read_text(encoding="utf-8").splitlines()
    for line in lines[2:]:
        protocol, rate, final_n, final_bits = line.split(",")
        asymptotes[protocol] = (float(rate), int(final_n), float(final_bits))
    for protocol, target in CGLMP3_RATES.items():
        row = rows[protocol]
        n, bits, p, rate = int(row["n"]), float(row["neg_log2_p"]), float(row["p_value"]), float(row["rate"])
        _require(n == n_trials, f"{protocol}: n={n}, expected {n_trials}")
        _require(abs(rate - target) <= RATE_TOL, f"{protocol}: rate {rate!r} not within {RATE_TOL} of {target}")
        low, high = cglmp3_band(protocol, n)
        _require(low <= bits <= high, f"{protocol}: -log2 p = {bits!r} outside [{low:.1f}, {high:.1f}]")
        _require(_pbr_p_matches(p, bits), f"{protocol}: p {p!r} != 2^-{bits!r}")
        statistic = None if protocol == "mart" else bits
        check_report(out_dir / f"report_{protocol}.csv", n, statistic, p)
        a_rate, a_n, a_bits = asymptotes[protocol]
        _require(
            a_n == n and _close(a_rate, rate, PRINT_REL + REPORT_REL) and _close(a_bits, bits, PRINT_REL + REPORT_REL),
            f"asymptotes.csv row for {protocol} disagrees with the printed result",
        )


def exceedance_bound(alpha: float, seeds: int) -> float:
    """Largest Monte Carlo exceedance a valid p-value may show: alpha + 3 sqrt(alpha / seeds)."""
    return alpha + 3.0 * math.sqrt(alpha / seeds)


def check_validity(stdout: str, seeds: int) -> None:
    """Exceedance table of the LR validity Monte Carlo driver."""
    result = json.loads(stdout.strip().splitlines()[-1])
    _require(result["seeds"] == seeds, f"driver ran {result['seeds']} seeds, expected {seeds}")
    table = result["exceedance"]
    _require(set(table) == set(VALIDITY_SOURCES), f"sources {sorted(table)}")
    for source in VALIDITY_SOURCES:
        _require(set(table[source]) == set(VALIDITY_PROTOCOLS), f"{source}: protocols {sorted(table[source])}")
        for protocol in VALIDITY_PROTOCOLS:
            rates = table[source][protocol]
            _require(
                sorted(float(a) for a in rates) == sorted(VALIDITY_ALPHAS),
                f"{source}/{protocol}: alphas {sorted(rates)}",
            )
            for alpha_text, rate in rates.items():
                alpha = float(alpha_text)
                hits = rate * seeds
                _require(
                    0.0 <= rate <= 1.0 and abs(hits - round(hits)) < 1e-6,
                    f"{source}/{protocol}: rate {rate!r} is not a share of {seeds} seeds",
                )
                bound = exceedance_bound(alpha, seeds)
                _require(rate <= bound, f"{source}/{protocol}: P(p <= {alpha}) = {rate} > {bound:.4f}")
