"""Bell and witness functionals: standardization, exact bounds, and the built-in catalog.

A functional is a per-trial real-valued function I together with its null
(local-realistic) expectation bound ``<I> <= B`` and its pointwise range
``[inf_b, sup_a]``.  Standardization maps it to r = (I - b)/(B - b), which is
non-negative with LR expectation at most 1.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import ScenarioMismatchError, StandardizationError, TrialFormatError, UnknownFunctionalError
from .lrpolytope import STRATEGY_CAP, strategy_count, vertex_expectations
from .scenario import Distribution, Scenario, _check_same_scenario, _dense_size, _frozen, result_space_size
from .scenario import _json_numbers, scenario_from_json


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
    k = _dense_size(scenario)
    return StandardizedFunctional(name="trivial", scenario=scenario, table=np.ones(k), is_trivial=True)


def bounds_by_enumeration(f: Functional) -> tuple[float, float]:
    """Exact (inf, sup) of the functional over the whole result space."""
    return float(f.table.min()), float(f.table.max())


def expectation(f: Functional | StandardizedFunctional, dist: Distribution) -> float:
    """Expectation of the functional under a distribution on the same scenario."""
    return dist.expectation(f.table)


def _two_by_two(scenario: Scenario) -> bool:
    return scenario.parties == 2 and scenario.settings_per_party == 2 and scenario.is_uniform()


def chsh_functional(scenario: Scenario) -> Functional:
    """Per-trial CHSH combination, scaled for uniform settings: bound 2, range [-4, 4].

    The d = 2 member of :func:`cglmp_functional`.  Outcome index 0 maps to the
    measurement value +1 and index 1 to -1; the setting pair (2, 2) carries
    the negative sign.
    """
    if not (_two_by_two(scenario) and scenario.outcomes_per_setting == 2):
        raise ValueError("chsh_functional requires a (2, 2, 2) scenario with uniform settings")
    return replace(cglmp_functional(scenario), name="chsh")


def _cglmp_table(d: int) -> np.ndarray:
    # Per-trial form of the d-outcome two-setting inequality with bound 2.
    # Probability terms become indicators on the outcome difference a - b mod d;
    # the factor 4 undoes the uniform joint-setting probability.  Each setting
    # pair (x, y) scores +coef where the difference is `plus` and -coef where it
    # is `minus`.  Party B's two settings are labeled so that d = 2 coincides
    # pointwise with the CHSH functional (negative sign on the setting pair (2, 2)).
    delta = np.subtract.outer(np.arange(d), np.arange(d)) % d
    t = np.zeros((2, 2, d, d))
    for k in range(d // 2):
        coef = 4 * (1.0 - 2.0 * k / (d - 1))
        for x, y, plus, minus in ((0, 1, k, -k - 1), (1, 0, k, -k - 1), (1, 1, -k - 1, k), (0, 0, -k, k + 1)):
            t[x, y] += coef * (delta == plus % d) - coef * (delta == minus % d)
    return t


def cglmp_functional(scenario: Scenario) -> Functional:
    """d-outcome generalization of the CHSH combination (d from the scenario), LR bound 2, d distinct values."""
    d = scenario.outcomes_per_setting
    if not (_two_by_two(scenario) and d >= 2):
        raise ValueError("cglmp_functional requires a (2, 2, d) scenario with d >= 2 and uniform settings")
    return functional_from_table(scenario, _cglmp_table(d).reshape(-1), 2.0, f"cglmp:{d}")


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
    # each witness is built on the axes (this party's setting, the other's, then the outcomes)
    for label, p, axes in (("A", pi, (0, 1, 2, 3)), ("B", pi.T, (1, 0, 3, 2))):
        for u in range(s):
            for v in range(d):
                for w1 in range(s):
                    for w2 in range(w1 + 1, s):
                        base = np.zeros((s, s, d, d))
                        base[u, w1, v, :] += 1.0 / p[u, w1]
                        base[u, w2, v, :] -= 1.0 / p[u, w2]
                        for sign, tag in ((1.0, "+"), (-1.0, "-")):
                            name = f"ns:{label}{u + 1}:o{v}:{w1 + 1}v{w2 + 1}:{tag}"
                            out.append(functional_from_table(scenario, (sign * base.transpose(axes)).reshape(-1), 0.0, name))
    return out


def functional_from_table(scenario: Scenario, values: np.ndarray, bound: float, name: str = "custom") -> Functional:
    """Wrap a K-length value table (ordered by the result encoding) with a declared bound."""
    table = np.asarray(values, dtype=float)
    return Functional(
        name=name,
        scenario=scenario,
        bound_B=float(bound),
        inf_b=float(table.min()),
        sup_a=float(table.max()),
        table=table,
    )


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
    if _two_by_two(scenario) and scenario.outcomes_per_setting == 2:
        names.append("chsh")
    if _two_by_two(scenario) and scenario.outcomes_per_setting >= 2:
        names.append(f"cglmp:{scenario.outcomes_per_setting}")
    if scenario.parties == 2 and np.all(scenario.setting_distribution > 0.0):
        names.append("nosignaling")
    return names


def default_function_names(scenario: Scenario) -> tuple[str, ...]:
    """The catalog Bell functional of a (2, 2, d) scenario with uniform settings: ``chsh`` or ``cglmp:<d>``."""
    if not _two_by_two(scenario):
        raise ValueError("no default function set for this scenario; supply function_names (CLI: --functions)")
    d = scenario.outcomes_per_setting
    return ("chsh",) if d == 2 else (f"cglmp:{d}",)


def resolve_catalog_name(name: str, scenario: Scenario) -> list[Functional]:
    """Resolve a catalog identifier or a ``file:<path>`` functional file to its functional(s); 'trivial' resolves to none."""
    name = name.strip()
    if name.startswith("file:"):
        f = load_functional_file(name[5:])
        _check_same_scenario(f.scenario, scenario, name[5:])
        return [f]
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
        return [cglmp_functional(scenario)]
    raise UnknownFunctionalError(f"unknown functional {name!r}")


def build_function_set(names: Sequence[str], scenario: Scenario) -> list[StandardizedFunctional]:
    """Standardized function set for the weighted protocols; the trivial function always leads.

    Empty ``names`` means the scenario's default set, :func:`default_function_names`.
    """
    functions = [trivial_standardized(scenario)]
    for name in names or default_function_names(scenario):
        for f in resolve_catalog_name(name, scenario):
            functions.append(standardize(f))
    return functions
