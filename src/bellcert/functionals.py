"""Bell and witness functionals: standardization, exact bounds, and the built-in catalog.

A functional is a per-trial real-valued function I together with its null
(local-realistic) expectation bound ``<I> <= B`` and its pointwise range
``[inf_b, sup_a]``.  Standardization maps it to r = (I - b)/(B - b), which is
non-negative with LR expectation at most 1.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import ScenarioMismatchError, SizeLimitError, StandardizationError, TrialFormatError, UnknownFunctionalError
from .lrpolytope import STRATEGY_CAP, strategy_count, vertex_expectations
from .scenario import ENUMERATION_CAP, Distribution, Scenario, _frozen, result_space_size, scenario_from_json
from .scenario import _json_numbers


def _frozen_table(scenario: Scenario, table: np.ndarray) -> np.ndarray:
    t = _frozen(table)
    k = result_space_size(scenario)
    if t.shape != (k,):
        raise ValueError(f"value table must have length {k}")
    return t


@dataclass(frozen=True, eq=False)
class Functional:
    """A per-trial function with declared LR bound B and pointwise range [inf_b, sup_a].

    ``table`` holds the K values ordered by the result encoding, so evaluating
    a trial is one lookup at its encoded index.
    """

    name: str
    scenario: Scenario
    bound_B: float
    inf_b: float
    sup_a: float
    table: np.ndarray

    def __post_init__(self):
        if not self.inf_b <= self.sup_a:
            raise ValueError("inf_b must not exceed sup_a")
        object.__setattr__(self, "table", _frozen_table(self.scenario, self.table))


@dataclass(frozen=True, eq=False)
class StandardizedFunctional:
    """The r-form of a functional: non-negative, LR expectation at most 1, tabulated like its source."""

    name: str
    scenario: Scenario
    table: np.ndarray
    source: Functional | None = None
    is_trivial: bool = False

    def __post_init__(self):
        object.__setattr__(self, "table", _frozen_table(self.scenario, self.table))


def standardize(f: Functional) -> StandardizedFunctional:
    """r(x) = (I(x) - b)/(B - b); requires inf_b < bound_B."""
    b, bb = f.inf_b, f.bound_B
    if not b < bb:
        raise StandardizationError(f"functional {f.name!r}: standardization needs inf_b < bound_B (got {b} >= {bb})")
    return StandardizedFunctional(name=f"std({f.name})", scenario=f.scenario, table=(f.table - b) / (bb - b), source=f)


def trivial_standardized(scenario: Scenario) -> StandardizedFunctional:
    """The constant function r = 1, always a valid (uninformative) weighting target."""
    k = result_space_size(scenario)
    if k > ENUMERATION_CAP:
        raise SizeLimitError(f"cannot tabulate the trivial function: {k} results exceed the cap {ENUMERATION_CAP}")
    return StandardizedFunctional(name="trivial", scenario=scenario, table=np.ones(k), is_trivial=True)


def value_table(f: Functional | StandardizedFunctional) -> np.ndarray:
    """Dense K-vector of values ordered by the result encoding."""
    return f.table


def bounds_by_enumeration(f: Functional) -> tuple[float, float]:
    """Exact (inf, sup) of the functional over the whole result space."""
    t = value_table(f)
    return float(t.min()), float(t.max())


def expectation(f: Functional | StandardizedFunctional, dist: Distribution) -> float:
    """Expectation of the functional under a distribution on the same scenario."""
    return dist.expectation(f.table)


def _table_functional(name: str, scenario: Scenario, table: np.ndarray, bound: float) -> Functional:
    table = np.asarray(table, dtype=float)
    return Functional(
        name=name,
        scenario=scenario,
        bound_B=float(bound),
        inf_b=float(table.min()),
        sup_a=float(table.max()),
        table=table,
    )


def _require_bipartite_two_settings(scenario: Scenario, what: str, d: int | None = None) -> None:
    ok = (
        scenario.parties == 2
        and scenario.settings_per_party == 2
        and (d is None or scenario.outcomes_per_setting == d)
        and scenario.is_uniform()
    )
    if not ok:
        want = f"(2, 2, {d if d is not None else 'd'})"
        raise ValueError(f"{what} requires a {want} scenario with uniform settings")


def chsh_functional(scenario: Scenario) -> Functional:
    """Per-trial CHSH combination, scaled for uniform settings: bound 2, range [-4, 4].

    Outcome index 0 maps to the measurement value +1 and index 1 to -1; the
    setting pair (2, 2) carries the negative sign.
    """
    _require_bipartite_two_settings(scenario, "chsh_functional", d=2)
    table = np.zeros((2, 2, 2, 2))
    for u in range(2):
        for v in range(2):
            sign = -1.0 if u == 1 and v == 1 else 1.0
            for a in range(2):
                for b in range(2):
                    table[u, v, a, b] = 4.0 * sign * (1 - 2 * a) * (1 - 2 * b)
    return _table_functional("chsh", scenario, table.reshape(-1), 2.0)


def _cglmp_table(d: int) -> np.ndarray:
    # Per-trial form of the d-outcome two-setting inequality with bound 2.
    # Probability terms become indicators on the outcome difference mod d; the
    # factor 4 undoes the uniform joint-setting probability.  Party B's two
    # settings are labeled so that d = 2 coincides pointwise with the CHSH
    # functional (negative sign on the setting pair (2, 2)).
    t = np.zeros((2, 2, d, d))
    for k in range(d // 2):
        coef = 1.0 - 2.0 * k / (d - 1)
        for a in range(d):
            for b in range(d):
                plus_ab = (a - b) % d == k
                minus_ab = (a - b) % d == (-(k + 1)) % d
                if plus_ab:
                    t[0, 0, a, b] += 4 * coef
                    t[1, 1, a, b] += 4 * coef
                if minus_ab:
                    t[0, 0, a, b] -= 4 * coef
                    t[1, 1, a, b] -= 4 * coef
                if (b - a) % d == (k + 1) % d:
                    t[1, 0, a, b] += 4 * coef
                if (b - a) % d == (-k) % d:
                    t[1, 0, a, b] -= 4 * coef
                if (b - a) % d == k:
                    t[0, 1, a, b] += 4 * coef
                if (b - a) % d == (-(k + 1)) % d:
                    t[0, 1, a, b] -= 4 * coef
    # swap party B's setting labels (see docstring note on the d = 2 alignment)
    return t[:, ::-1].copy()


def cglmp_functional(scenario: Scenario, d: int | None = None) -> Functional:
    """d-outcome generalization of the CHSH combination, LR bound 2, d distinct values."""
    if d is None:
        d = scenario.outcomes_per_setting
    if d < 2:
        raise ValueError("cglmp_functional requires d >= 2")
    _require_bipartite_two_settings(scenario, "cglmp_functional", d=d)
    return _table_functional(f"cglmp:{d}", scenario, _cglmp_table(d).reshape(-1), 2.0)


def no_signaling_functionals(scenario: Scenario) -> list[Functional]:
    """Signed witnesses of the no-signaling equalities, each with LR bound 0.

    For each party, local setting u, outcome value v and ordered pair
    (w1 < w2) of the other party's settings, the witness estimates
    P(v | u, w1) - P(v | u, w2), which vanishes under every no-signaling
    (hence every LR) model.  Both signs are emitted.
    """
    if scenario.parties != 2:
        raise ValueError("no_signaling_functionals: only bipartite scenarios are supported")
    if np.any(scenario.setting_distribution <= 0.0):
        raise ValueError("no_signaling_functionals: every joint setting must have positive probability")
    s, d = scenario.settings_per_party, scenario.outcomes_per_setting
    pi = scenario.setting_distribution.reshape(s, s)
    out: list[Functional] = []
    party_label = ("A", "B")
    for party in range(2):
        for u in range(s):
            for v in range(d):
                for w1 in range(s):
                    for w2 in range(w1 + 1, s):
                        base = np.zeros((s, s, d, d))
                        if party == 0:
                            base[u, w1, v, :] += 1.0 / pi[u, w1]
                            base[u, w2, v, :] -= 1.0 / pi[u, w2]
                        else:
                            base[w1, u, :, v] += 1.0 / pi[w1, u]
                            base[w2, u, :, v] -= 1.0 / pi[w2, u]
                        for sign, tag in ((1.0, "+"), (-1.0, "-")):
                            name = f"ns:{party_label[party]}{u + 1}:o{v}:{w1 + 1}v{w2 + 1}:{tag}"
                            out.append(_table_functional(name, scenario, (sign * base).reshape(-1), 0.0))
    return out


def functional_from_table(scenario: Scenario, values: np.ndarray, bound: float, name: str = "custom") -> Functional:
    """Wrap a K-length value table (ordered by the result encoding) with a declared bound."""
    return _table_functional(name, scenario, values, bound)


def load_functional_file(path: str | Path) -> Functional:
    """Read a custom functional file ``{"scenario": .., "B": .., "values": [..]}``.

    Where the deterministic strategies can be enumerated, a bound B below the
    largest strategy expectation (beyond 1e-9 of the table's largest
    magnitude) is refused: every p-value computed with it would be invalid.
    """
    with open(path, "r", encoding="utf-8") as fh:
        obj = json.load(fh)
    for key in ("scenario", "B", "values"):
        if not (isinstance(obj, dict) and key in obj):
            raise TrialFormatError(f"{path}: functional file must be a JSON object carrying {key!r}")
    scenario = scenario_from_json(obj["scenario"])
    values = _json_numbers(obj["values"], f"{path}: 'values'")
    bound = float(_json_numbers([obj["B"]], f"{path}: 'B'")[0])
    if not (np.all(np.isfinite(values)) and np.isfinite(bound)):
        raise TrialFormatError(f"{path}: 'B' and 'values' must be finite numbers")
    f = functional_from_table(scenario, values, bound, str(obj.get("name", "custom")))
    if strategy_count(scenario) <= STRATEGY_CAP:
        top = float(vertex_expectations(scenario, f.table).max())
        if f.bound_B < top - 1e-9 * float(np.abs(f.table).max()):
            raise ScenarioMismatchError(f"{path}: declared bound B={f.bound_B:.12g} is below the LR maximum {top:.12g}")
    return f


# ---------------------------------------------------------------------------
# catalog


def catalog_names(scenario: Scenario) -> list[str]:
    """Catalog identifiers applicable to a scenario."""
    names = ["trivial"]
    two_by_two = scenario.parties == 2 and scenario.settings_per_party == 2 and scenario.is_uniform()
    if two_by_two and scenario.outcomes_per_setting == 2:
        names.append("chsh")
    if two_by_two and scenario.outcomes_per_setting >= 2:
        names.append(f"cglmp:{scenario.outcomes_per_setting}")
    if scenario.parties == 2 and np.all(scenario.setting_distribution > 0.0):
        names.append("nosignaling")
    return names


def resolve_catalog_name(name: str, scenario: Scenario) -> list[Functional]:
    """Resolve one catalog identifier to its functional(s); 'trivial' resolves to none."""
    name = name.strip()
    if name == "trivial":
        return []
    if name == "chsh":
        return [chsh_functional(scenario)]
    if name == "nosignaling":
        return no_signaling_functionals(scenario)
    if name.startswith("cglmp:"):
        try:
            d = int(name.split(":", 1)[1])
        except ValueError:
            raise UnknownFunctionalError(f"malformed catalog name {name!r}") from None
        if d != scenario.outcomes_per_setting:
            raise UnknownFunctionalError(f"{name!r} does not match the scenario's {scenario.outcomes_per_setting} outcomes")
        return [cglmp_functional(scenario, d)]
    raise UnknownFunctionalError(f"unknown functional {name!r}")


def build_function_set(names: Sequence[str], scenario: Scenario) -> list[StandardizedFunctional]:
    """Standardized function set for the weighted protocols; the trivial function always leads."""
    functions = [trivial_standardized(scenario)]
    for name in names:
        for f in resolve_catalog_name(name, scenario):
            functions.append(standardize(f))
    return functions
