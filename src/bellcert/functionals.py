"""Bell and witness functionals: standardization, exact bounds, and the built-in catalog.

A functional is a per-trial real-valued function I, tabulated on the result
encoding, with its null (local-realistic) expectation bound ``<I> <= B``; its
pointwise range ``[inf_b, sup_a]`` is read off the table.  Standardization
maps it to r = (I - b)/(B - b), non-negative with LR expectation at most 1.
"""
from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import ScenarioMismatchError, StandardizationError, TrialFormatError, UnknownFunctionalError
from .lrpolytope import STRATEGY_CAP, strategy_count, vertex_expectations
from .scenario import Distribution, Scenario, _check_same_scenario, _dense_size, _frozen
from .scenario import _json_numbers, scenario_from_json


def _freeze_table(f: Functional | StandardizedFunctional) -> np.ndarray:
    """Replace ``f.table`` by a read-only copy, refused unless it holds K finite values; returns the copy."""
    k = _dense_size(f.scenario)
    t = _frozen(f.table)
    if t.shape != (k,) or not np.all(np.isfinite(t)):
        raise ValueError(f"value table must hold {k} finite numbers")
    object.__setattr__(f, "table", t)
    return t


def _lr_maximum_above(scenario: Scenario, table: np.ndarray, bound: float) -> float | None:
    """The table's LR maximum where it exceeds ``bound`` beyond 1e-9 of its largest |value|; else (or unenumerable) None."""
    if strategy_count(scenario) > STRATEGY_CAP:
        return None
    top = float(vertex_expectations(scenario, table).max())
    return top if bound < top - 1e-9 * float(np.abs(table).max()) else None


@dataclass(frozen=True, eq=False)
class Functional:
    """A per-trial function with declared LR bound B; its range [inf_b, sup_a] is the table's.

    ``table`` holds the K values ordered by the result encoding, so evaluating
    a trial is one lookup at its encoded index.  A non-finite bound raises ValueError, and one
    below the table's LR maximum, where enumerable, :class:`ScenarioMismatchError`.
    """

    name: str
    scenario: Scenario
    bound_B: float
    table: np.ndarray
    inf_b: float = field(init=False)
    sup_a: float = field(init=False)

    def __post_init__(self):
        t = _freeze_table(self)
        object.__setattr__(self, "inf_b", float(t.min()))
        object.__setattr__(self, "sup_a", float(t.max()))
        if not np.isfinite(self.bound_B):
            raise ValueError(f"functional {self.name!r}: bound B must be a finite number, got {self.bound_B}")
        top = _lr_maximum_above(self.scenario, t, self.bound_B)
        if top is not None:
            raise ScenarioMismatchError(f"declared bound B={self.bound_B:.12g} is below the LR maximum {top:.12g}")


@dataclass(frozen=True, eq=False)
class StandardizedFunctional:
    """The r-form of a functional: non-negative, LR expectation at most 1, tabulated like its source.

    The all-ones table is the trivial function.  A table with a ``source`` must be exactly its
    standardized table; any other must be non-negative with LR maximum at most 1 where enumerable.
    """

    name: str
    scenario: Scenario
    table: np.ndarray
    source: Functional | None = None
    is_trivial: bool = field(init=False)

    def __post_init__(self):
        t = _freeze_table(self)
        object.__setattr__(self, "is_trivial", bool(np.all(t == 1.0)))
        if self.source is not None:
            _check_same_scenario(self.scenario, self.source.scenario, f"weighted function {self.name!r}")
            if not np.array_equal(t, _standardized_table(self.source)):
                raise StandardizationError(f"weighted function {self.name!r} is not the standardized table of its source")
        elif not self.is_trivial:
            if np.any(t < 0.0) or _lr_maximum_above(self.scenario, t, 1.0) is not None:
                raise StandardizationError(f"weighted function {self.name!r} needs values >= 0 and LR maximum <= 1")


def _standardized_table(f: Functional) -> np.ndarray:
    """(I - b)/(B - b) over the table; requires inf_b < bound_B."""
    b, bb = f.inf_b, f.bound_B
    if not b < bb:
        raise StandardizationError(f"functional {f.name!r}: standardization needs inf_b < bound_B (got {b} >= {bb})")
    return (f.table - b) / (bb - b)


def standardize(f: Functional) -> StandardizedFunctional:
    """r(x) = (I(x) - b)/(B - b); requires inf_b < bound_B."""
    return StandardizedFunctional(name=f"std({f.name})", scenario=f.scenario, table=_standardized_table(f), source=f)


def trivial_standardized(scenario: Scenario) -> StandardizedFunctional:
    """The constant function r = 1, always a valid (uninformative) weighting target."""
    return StandardizedFunctional(name="trivial", scenario=scenario, table=np.ones(_dense_size(scenario)))


def _function_columns(functions: Sequence[StandardizedFunctional], scenario: Scenario | None = None) -> np.ndarray:
    """(K, F) columns of a weighted function set: trivial first, all on ``scenario`` (default: the first's)."""
    if not functions or not functions[0].is_trivial:
        raise ValueError("functions must start with the trivial function")
    for f in functions:
        _check_same_scenario(f.scenario, scenario or functions[0].scenario, f"function {f.name!r}")
    return np.column_stack([f.table for f in functions])


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
    return Functional("chsh", scenario, 2.0, _cglmp_table(2).reshape(-1))  # not replace(): it would rerun the vertex check


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
    _dense_size(scenario)
    d = scenario.outcomes_per_setting
    if not (_two_by_two(scenario) and d >= 2):
        raise ValueError("cglmp_functional requires a (2, 2, d) scenario with d >= 2 and uniform settings")
    return Functional(f"cglmp:{d}", scenario, 2.0, _cglmp_table(d).reshape(-1))


def no_signaling_functionals(scenario: Scenario) -> list[Functional]:
    """Signed witnesses of the no-signaling equalities, each with LR bound 0.

    For each party, local setting u, outcome value v and ordered pair
    (w1 < w2) of the other party's settings, the witness estimates
    P(v | u, w1) - P(v | u, w2), which vanishes under every no-signaling
    (hence every LR) model.  Both signs are emitted.
    """
    _dense_size(scenario)
    if scenario.parties != 2:
        raise ValueError("no_signaling_functionals: only bipartite scenarios are supported")
    if np.any(scenario.setting_distribution <= 0.0):
        raise ValueError("no_signaling_functionals: every joint setting must have positive probability")
    s, d = scenario.settings_per_party, scenario.outcomes_per_setting
    pi = scenario.setting_distribution.reshape(s, s)
    out: list[Functional] = []
    # each witness is built on the axes (this party's setting, the other's, then the outcomes)
    for label, p, axes in (("A", pi, (0, 1, 2, 3)), ("B", pi.T, (1, 0, 3, 2))):
        for u, v, (w1, w2) in itertools.product(range(s), range(d), itertools.combinations(range(s), 2)):
            base = np.zeros((s, s, d, d))
            base[u, w1, v, :], base[u, w2, v, :] = 1.0 / p[u, w1], -1.0 / p[u, w2]
            for sign, tag in ((1.0, "+"), (-1.0, "-")):
                name = f"ns:{label}{u + 1}:o{v}:{w1 + 1}v{w2 + 1}:{tag}"
                out.append(Functional(name, scenario, 0.0, (sign * base.transpose(axes)).reshape(-1)))
    return out


def load_functional_file(path: str | Path) -> Functional:
    """Read a custom functional file ``{"scenario": .., "B": .., "values": [..]}``; checked as :class:`Functional` is."""
    with open(path, "r", encoding="utf-8") as fh:
        obj = json.load(fh)
    for key in ("scenario", "B", "values"):
        if not (isinstance(obj, dict) and key in obj):
            raise TrialFormatError(f"{path}: functional file must be a JSON object carrying {key!r}")
    scenario = scenario_from_json(obj["scenario"])
    values = _json_numbers(obj["values"], f"{path}: 'values'")
    bound = float(_json_numbers([obj["B"]], f"{path}: 'B'")[0])
    try:
        return Functional(str(obj.get("name", "custom")), scenario, bound, values)
    except (ScenarioMismatchError, ValueError) as exc:
        raise type(exc)(f"{path}: {exc}") from None


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
