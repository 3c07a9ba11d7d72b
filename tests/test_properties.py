"""Property tests for the result encoding and the two JSON input files.

The encoding must be a bijection on every scenario within the caps.  A distribution file or a functional
file with a non-finite, negative or non-normalised entry, or with a key
missing, must be refused by its reader and make the command that reads it
exit 2.
"""
import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bellcert import (
    BellcertError,
    Scenario,
    decode_result,
    encode_result,
    load_functional_file,
    read_distribution,
    result_space_size,
)
from bellcert.cli import main
from bellcert.scenario import ENUMERATION_CAP, INDEX_LIMIT

from oracles import enumerate_strategy_distributions

SETTINGS = settings(max_examples=60, deadline=None)


@st.composite
def scenarios_within_caps(draw):
    l, s, d = draw(st.integers(1, 24)), draw(st.integers(1, 4)), draw(st.integers(1, 8))
    assume(s**l <= ENUMERATION_CAP and (d * s) ** l <= INDEX_LIMIT)
    return Scenario(l, s, d)


@st.composite
def results(draw, sc):
    l, s, d = sc.parties, sc.settings_per_party, sc.outcomes_per_setting
    settings_ = draw(st.lists(st.integers(1, s), min_size=l, max_size=l))
    outcomes = draw(st.lists(st.integers(0, d - 1), min_size=l, max_size=l))
    return tuple(settings_), tuple(outcomes)


@SETTINGS
@given(data=st.data())
def test_decode_inverts_encode(data):
    sc = data.draw(scenarios_within_caps())
    x = data.draw(results(sc))
    index = encode_result(sc, *x)
    assert 0 <= index < result_space_size(sc)
    assert decode_result(sc, index) == x
    i = data.draw(st.integers(0, result_space_size(sc) - 1))
    assert encode_result(sc, *decode_result(sc, i)) == i


# one corrupted entry: non-finite, JSON null, or negative
BAD_ENTRY = st.sampled_from([math.nan, math.inf, -math.inf, None]) | st.floats(1e-12, 10.0).map(lambda v: -v)
# a factor that moves a sum of 1 well outside every tolerance the readers use
BAD_SCALE = st.floats(0.5, 0.999) | st.floats(1.001, 2.0)
SCENARIO_2X2X2 = {"l": 2, "s": 2, "d": 2}


def _corrupt_scenario(draw):
    """The (2, 2, 2) scenario object with a key dropped or a bad setting distribution."""
    obj = dict(SCENARIO_2X2X2)
    if draw(st.booleans()):
        del obj[draw(st.sampled_from(sorted(obj)))]
    else:
        dist = [0.25] * 4
        if draw(st.booleans()):
            dist[draw(st.integers(0, 3))] = draw(BAD_ENTRY)
        else:
            dist = [v * draw(BAD_SCALE) for v in dist]
        obj["setting_distribution"] = dist
    return obj


@st.composite
def bad_distribution_files(draw):
    probs = [float(v) for v in np.random.default_rng(draw(st.integers(0, 2**32 - 1))).dirichlet(np.ones(16))]
    obj = {"scenario": dict(SCENARIO_2X2X2), "probs": probs, "empirical": True}
    how = draw(st.sampled_from(["entry", "scale", "missing", "scenario"]))
    if how == "entry":
        probs[draw(st.integers(0, 15))] = draw(BAD_ENTRY)
    elif how == "scale":
        obj["probs"] = [v * draw(BAD_SCALE) for v in probs]
    elif how == "missing":
        del obj[draw(st.sampled_from(["scenario", "probs"]))]
    else:
        obj["scenario"] = _corrupt_scenario(draw)
    return obj


@st.composite
def bad_functional_files(draw):
    values = draw(st.lists(st.floats(-5.0, 5.0), min_size=16, max_size=16))
    bound = float((enumerate_strategy_distributions(2, 2, 2) @ np.array(values)).max()) + 0.5
    obj = {"scenario": dict(SCENARIO_2X2X2), "B": bound, "values": values}
    how = draw(st.sampled_from(["entry", "bound", "missing", "scenario"]))
    if how == "entry":
        values[draw(st.integers(0, 15))] = draw(st.sampled_from([math.nan, math.inf, -math.inf, None]))
    elif how == "bound":
        obj["B"] = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
    elif how == "missing":
        del obj[draw(st.sampled_from(["scenario", "B", "values"]))]
    else:
        obj["scenario"] = _corrupt_scenario(draw)
    return obj


@pytest.fixture(scope="module")
def chsh_trials(tmp_path_factory):
    path = tmp_path_factory.mktemp("trials") / "t.jsonl"
    path.write_text('{"settings":[1,2],"outcomes":[0,1]}\n' * 4, encoding="utf-8")
    return path


def test_the_uncorrupted_files_are_accepted(tmp_path):
    dist = tmp_path / "dist.json"
    dist.write_text(json.dumps({"scenario": SCENARIO_2X2X2, "probs": [1.0 / 16] * 16, "empirical": True}))
    assert read_distribution(dist).probs.sum() == pytest.approx(1.0)
    func = tmp_path / "func.json"
    func.write_text(json.dumps({"scenario": SCENARIO_2X2X2, "B": 1.0, "values": [0.5] * 15 + [2.0]}))
    assert load_functional_file(func).bound_B == 1.0


@SETTINGS
@given(obj=bad_distribution_files())
def test_bad_distribution_files_are_refused(tmp_path_factory, obj):
    path = tmp_path_factory.mktemp("dist") / "dist.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    with pytest.raises((BellcertError, ValueError)):
        read_distribution(path)
    assert main(["simulate", "--dist", str(path), "--trials", "10", "--protocol", "mart"]) == 2


@SETTINGS
@given(obj=bad_functional_files())
def test_bad_functional_files_are_refused(tmp_path_factory, chsh_trials, obj):
    path = tmp_path_factory.mktemp("func") / "func.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    with pytest.raises((BellcertError, ValueError)):
        load_functional_file(path)
    argv = ["analyze", str(chsh_trials), "--scenario", "2,2,2", "--functions", f"file:{path}", "--protocol", "spbr"]
    assert main(argv) == 2
