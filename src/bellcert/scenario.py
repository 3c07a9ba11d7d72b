"""Experiment configurations, trial records, the encoded result space, and file IO.

A trial result is encoded as a mixed-radix integer whose most significant
digits are the per-party settings (party 1 first, 0-based internally) followed
by the per-party outcomes.  All distributions over the result space are dense
arrays indexed by that encoding.
"""
from __future__ import annotations

import json
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

import numpy as np

from .errors import ScenarioMismatchError, SizeLimitError, TrialFormatError

# Largest result space a scenario may have, so that every code 0..K-1 fits in int64.
INDEX_LIMIT = 2**63
# Largest result space that operations may enumerate or materialize densely.
ENUMERATION_CAP = 2**24


def _frozen(a: np.ndarray) -> np.ndarray:
    """A read-only float copy; the caller's array stays writeable."""
    a = np.array(a, dtype=float, order="C")
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class Scenario:
    """An (l, s, d) measurement configuration with a fixed joint-setting distribution.

    ``setting_distribution`` is indexed by the mixed-radix encoding of the
    per-party settings (party 1 most significant); it defaults to uniform.
    """

    parties: int
    settings_per_party: int
    outcomes_per_setting: int
    setting_distribution: np.ndarray | None = None

    def __post_init__(self):
        l, s, d = self.parties, self.settings_per_party, self.outcomes_per_setting
        if min(l, s, d) < 1:
            raise ValueError("parties, settings_per_party and outcomes_per_setting must be >= 1")
        if s**l > ENUMERATION_CAP:
            raise SizeLimitError(f"joint-setting space {s}^{l} exceeds the storage cap {ENUMERATION_CAP}")
        if (d * s) ** l > INDEX_LIMIT:
            raise SizeLimitError(f"result space (d*s)^l = {(d * s) ** l} exceeds the index limit 2^63")
        n_joint = s**l
        if self.setting_distribution is None:
            dist = np.full(n_joint, 1.0 / n_joint)
        else:
            dist = np.asarray(self.setting_distribution, dtype=float)
            if dist.shape != (n_joint,):
                raise ValueError(f"setting_distribution must have length {n_joint}")
            if not (np.all(dist >= 0.0) and abs(float(dist.sum()) - 1.0) <= 1e-12):
                raise ValueError("setting_distribution entries must be >= 0 and sum to 1 within 1e-12")
        object.__setattr__(self, "setting_distribution", _frozen(dist))

    @property
    def n_joint_settings(self) -> int:
        return self.settings_per_party**self.parties

    @property
    def n_joint_outcomes(self) -> int:
        return self.outcomes_per_setting**self.parties

    def is_uniform(self) -> bool:
        return bool(np.allclose(self.setting_distribution, 1.0 / self.n_joint_settings, rtol=0, atol=1e-12))


@dataclass(frozen=True)
class TrialResult:
    """One trial: per-party 1-based setting choices and 0-based outcome indices."""

    settings: tuple[int, ...]
    outcomes: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "settings", tuple(int(u) for u in self.settings))
        object.__setattr__(self, "outcomes", tuple(int(a) for a in self.outcomes))

    def validate_for(self, scenario: Scenario) -> None:
        l, s, d = scenario.parties, scenario.settings_per_party, scenario.outcomes_per_setting
        if len(self.settings) != l or len(self.outcomes) != l:
            raise ValueError(f"trial has {len(self.settings)} settings / {len(self.outcomes)} outcomes, expected {l}")
        for i, u in enumerate(self.settings):
            if not 1 <= u <= s:
                raise ValueError(f"setting {u} of party {i + 1} outside 1..{s}")
        for i, a in enumerate(self.outcomes):
            if not 0 <= a < d:
                raise ValueError(f"outcome {a} of party {i + 1} outside 0..{d - 1}")


def result_space_size(scenario: Scenario) -> int:
    """Number of distinct trial results, (d*s)^l; at most 2^63, as every scenario is."""
    return (scenario.outcomes_per_setting * scenario.settings_per_party) ** scenario.parties


def _dense_size(scenario: Scenario) -> int:
    """Result-space size K, refused when a dense (K,) table would exceed ENUMERATION_CAP."""
    k = result_space_size(scenario)
    if k > ENUMERATION_CAP:
        raise SizeLimitError(f"dense table over {k} results exceeds the cap {ENUMERATION_CAP}")
    return k


def _encoded(trials, k: int) -> np.ndarray:
    """Trials as int64 result indices: a 1-d integer array, every entry in 0..k-1."""
    enc = np.asarray(trials)
    if enc.size == 0:
        return np.zeros(0, dtype=np.int64)
    if enc.ndim != 1 or enc.dtype.kind not in "iu":
        raise ValueError("trials must be a 1-d array of integer result indices")
    lo, hi = int(enc.min()), int(enc.max())
    if lo < 0 or hi >= k:
        raise ValueError(f"encoded result index {lo if lo < 0 else hi} outside 0..{k - 1}")
    return enc.astype(np.int64, copy=False)


def _place_values(scenario: Scenario) -> tuple[list[int], list[int]]:
    """Place value of each party's setting digit and of each party's outcome digit in the result code."""
    l, s, d = scenario.parties, scenario.settings_per_party, scenario.outcomes_per_setting
    return [s ** (l - 1 - p) * d**l for p in range(l)], [d ** (l - 1 - p) for p in range(l)]


def encode_result(scenario: Scenario, x: TrialResult) -> int:
    """Bijective mixed-radix index of a trial result (settings digits first)."""
    x.validate_for(scenario)
    settings, outcomes = _place_values(scenario)
    return sum((u - 1) * w for u, w in zip(x.settings, settings)) + sum(a * w for a, w in zip(x.outcomes, outcomes))


def decode_result(scenario: Scenario, index: int) -> TrialResult:
    """Inverse of :func:`encode_result`."""
    k = result_space_size(scenario)
    if not 0 <= index < k:
        raise ValueError(f"index {index} outside 0..{k - 1}")
    settings, outcomes = _place_values(scenario)
    s, d, index = scenario.settings_per_party, scenario.outcomes_per_setting, int(index)
    return TrialResult(tuple(index // w % s + 1 for w in settings), tuple(index // w % d for w in outcomes))


def encode_trials(scenario: Scenario, trials: Iterable[TrialResult]) -> np.ndarray:
    """Encode a trial sequence into an int64 index array."""
    return np.fromiter((encode_result(scenario, x) for x in trials), dtype=np.int64)


@dataclass(frozen=True, eq=False)
class Distribution:
    """Probability assignment over the encoded result space of a scenario.

    Model distributions must reproduce the scenario's joint-setting
    distribution when marginalized over outcomes.  Empirical frequency tables
    (``empirical=True``) are exempt from that requirement.
    """

    scenario: Scenario
    probs: np.ndarray
    empirical: bool = False

    def __post_init__(self):
        k = _dense_size(self.scenario)
        p = np.asarray(self.probs, dtype=float)
        if p.shape != (k,):
            raise ValueError(f"probs must have length {k}")
        if not np.all(p >= 0.0):
            raise ValueError("probabilities must be non-negative")
        if not abs(float(p.sum()) - 1.0) <= 1e-10:
            raise ValueError("probabilities must sum to 1 within 1e-10")
        if not self.empirical:
            marginal = p.reshape(self.scenario.n_joint_settings, -1).sum(axis=1)
            if not np.allclose(marginal, self.scenario.setting_distribution, rtol=0, atol=1e-10):
                raise ValueError("outcome marginals do not reproduce the setting distribution")
        object.__setattr__(self, "probs", _frozen(p))

    def expectation(self, values: np.ndarray) -> float:
        """Expectation of a per-result value table under this distribution."""
        return float(np.dot(self.probs, np.asarray(values, dtype=float)))

    def support(self) -> np.ndarray:
        return np.flatnonzero(self.probs)


def uniform_outcome_distribution(scenario: Scenario) -> Distribution:
    """Outcomes uniformly random given the settings; always LR-achievable."""
    per = np.repeat(scenario.setting_distribution / scenario.n_joint_outcomes, scenario.n_joint_outcomes)
    return Distribution(scenario, per)


def empirical_distribution(scenario: Scenario, codes: np.ndarray) -> Distribution:
    """Empirical frequency table of a non-empty array of encoded results."""
    k = _dense_size(scenario)
    enc = _encoded(codes, k)
    if enc.size == 0:
        raise ValueError("empirical distribution of an empty trial sequence is undefined")
    return Distribution(scenario, np.bincount(enc, minlength=k) / enc.size, empirical=True)


# ---------------------------------------------------------------------------
# file formats


def scenario_to_json(scenario: Scenario) -> dict:
    obj = {
        "l": scenario.parties,
        "s": scenario.settings_per_party,
        "d": scenario.outcomes_per_setting,
    }
    if not scenario.is_uniform():
        obj["setting_distribution"] = [float(v) for v in scenario.setting_distribution]
    return obj


def _json_numbers(value, where: str) -> np.ndarray:
    """A JSON list of numbers (booleans excluded) as a float array; anything else is refused."""
    if not (isinstance(value, list) and all(type(v) in (int, float) for v in value)):
        raise TrialFormatError(f"{where} must hold JSON numbers only, got {value!r}")
    return np.asarray(value, dtype=float)


def scenario_from_json(obj: dict) -> Scenario:
    if not (isinstance(obj, dict) and all(type(obj.get(key)) is int for key in "lsd")):
        raise TrialFormatError(f"scenario object must carry integer fields l, s, d: {obj!r}")
    dist = obj.get("setting_distribution")
    return Scenario(obj["l"], obj["s"], obj["d"], None if dist is None else _json_numbers(dist, "setting_distribution"))


def _check_same_scenario(found: Scenario, expected: Scenario, where: str) -> None:
    """Refuse two scenarios unless l, s, d are equal and the setting distributions agree within 1e-12."""
    lsd = [(sc.parties, sc.settings_per_party, sc.outcomes_per_setting) for sc in (found, expected)]
    if lsd[0] != lsd[1]:
        raise ScenarioMismatchError(f"{where}: scenario (l, s, d) = {lsd[0]} does not match {lsd[1]}")
    a, b = found.setting_distribution, expected.setting_distribution
    if a is not b and not np.allclose(a, b, rtol=0, atol=1e-12):
        raise ScenarioMismatchError(f"{where}: setting distributions of scenario {lsd[0]} differ by more than 1e-12")


# Distinct line texts remembered by read_trials; keeps its memory bounded when every line differs.
LINE_CACHE_SIZE = 2**16


def read_trials(path: str | Path, scenario: Scenario) -> np.ndarray:
    """Read a trial-record file (one JSON object per line, optional scenario header) as int64 result indices.

    Each distinct line text is parsed and validated once; a repeat of a valid
    record is one dictionary lookup.  :func:`decode_result` turns an index
    back into its :class:`TrialResult`.
    """
    codes: dict[str, int] = {}
    out = array("q")
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            code = codes.get(raw)
            if code is None:
                line = raw.strip()
                if not line:
                    continue
                try:
                    obj = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise TrialFormatError(f"{path}: line {lineno}: invalid JSON ({exc.msg})") from exc
                if lineno == 1 and isinstance(obj, dict) and "scenario" in obj:
                    _check_same_scenario(scenario_from_json(obj["scenario"]), scenario, f"{path}: line 1")
                    continue
                if not isinstance(obj, dict) or "settings" not in obj or "outcomes" not in obj:
                    raise TrialFormatError(f"{path}: line {lineno}: record must carry 'settings' and 'outcomes'")
                fields = (obj["settings"], obj["outcomes"])
                # JSON integers only: a float, bool or string would otherwise be coerced by int()
                if not all(isinstance(v, list) and all(type(x) is int for x in v) for v in fields):
                    raise TrialFormatError(f"{path}: line {lineno}: 'settings' and 'outcomes' must be lists of integers")
                try:
                    code = encode_result(scenario, TrialResult(tuple(fields[0]), tuple(fields[1])))
                except ValueError as exc:
                    raise TrialFormatError(f"{path}: line {lineno}: {exc}") from exc
                if len(codes) < LINE_CACHE_SIZE:  # only valid records are remembered
                    codes[raw] = code
            out.append(code)
    return np.frombuffer(out, dtype=np.int64)


def write_trials(path: str | Path, scenario: Scenario, codes: np.ndarray, header: bool = True) -> None:
    """Inverse of :func:`read_trials`: one record per encoded result, after the optional scenario header line."""
    codes = _encoded(codes, result_space_size(scenario))
    with open(path, "w", encoding="utf-8") as fh:
        if header:
            fh.write(json.dumps({"scenario": scenario_to_json(scenario)}, separators=(",", ":")) + "\n")
        for x in (decode_result(scenario, int(i)) for i in codes):
            fh.write(json.dumps({"settings": list(x.settings), "outcomes": list(x.outcomes)}, separators=(",", ":")) + "\n")


def read_distribution(path: str | Path) -> Distribution:
    """Read a distribution file ``{"scenario": .., "probs": [..]}`` with an optional boolean ``"empirical"``."""
    with open(path, "r", encoding="utf-8") as fh:
        obj = json.load(fh)
    if not (isinstance(obj, dict) and "scenario" in obj and "probs" in obj):
        raise TrialFormatError(f"{path}: distribution file must be a JSON object carrying 'scenario' and 'probs'")
    scenario = scenario_from_json(obj["scenario"])
    probs = _json_numbers(obj["probs"], f"{path}: 'probs'")
    empirical = obj.get("empirical", False)
    if type(empirical) is not bool:
        raise TrialFormatError(f"{path}: 'empirical' must be a JSON boolean, got {empirical!r}")
    return Distribution(scenario, probs, empirical=empirical)


def _distribution_json(dist: Distribution) -> dict:
    """The JSON object of a distribution file, as :func:`read_distribution` reads it."""
    obj = {"scenario": scenario_to_json(dist.scenario), "probs": [float(v) for v in dist.probs]}
    if dist.empirical:
        obj["empirical"] = True
    return obj


def write_distribution(path: str | Path, dist: Distribution) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(_distribution_json(dist), fh)
        fh.write("\n")
