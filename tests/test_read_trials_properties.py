"""Property tests for the line-cached trial ingest, ``read_trials``.

Each check compares the int64 codes read back from a file against the codes
that were written, or pins the line number that a malformed file is refused
at.
"""
import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bellcert.scenario as scenario_module
from bellcert import (
    Scenario,
    TrialFormatError,
    decode_result,
    read_trials,
    result_space_size,
    write_trials,
)
from bellcert.scenario import scenario_to_json

SETTINGS = settings(max_examples=60, deadline=None)


@st.composite
def scenarios_and_codes(draw, max_trials=40):
    sc = Scenario(draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(st.integers(1, 3)))
    k = result_space_size(sc)
    return sc, np.array(draw(st.lists(st.integers(0, k - 1), max_size=max_trials)), dtype=np.int64)


# a line as write_trials emits it, or the same record with other key order and spacing
line_variant = st.tuples(st.booleans(), st.sampled_from([(",", ":"), (", ", ": ")]), st.sampled_from(["", " ", "\t", "  "]))


def _vary(line: str, variant) -> str:
    reorder, separators, pad = variant
    obj = json.loads(line)
    if reorder:
        obj = dict(reversed(list(obj.items())))
    return pad + json.dumps(obj, separators=separators) + pad


@SETTINGS
@given(data=scenarios_and_codes(), header=st.booleans(), variants=st.lists(line_variant, max_size=40), blanks=st.booleans())
def test_written_records_read_back_as_their_codes(tmp_path_factory, data, header, variants, blanks):
    sc, codes = data
    path = tmp_path_factory.mktemp("rt") / "t.jsonl"
    write_trials(path, sc, codes, header=header)
    lines = path.read_text(encoding="utf-8").splitlines()
    first = 1 if header else 0
    for i, variant in enumerate(variants[: len(lines) - first]):
        lines[first + i] = _vary(lines[first + i], variant)
    text = "\n".join(line + ("\n" if blanks else "") for line in lines)
    path.write_text(text + ("\n" if lines else ""), encoding="utf-8")
    back = read_trials(path, sc)
    assert back.dtype == np.int64
    assert np.array_equal(back, codes)


MALFORMED = [
    "not json",
    '{"settings":[1,1]}',
    '{"settings":[1,3],"outcomes":[0,0]}',
    '{"settings":[1,1],"outcomes":[0,2]}',
    '{"settings":[1.0,1],"outcomes":[0,0]}',
    '{"settings":[1,1,1],"outcomes":[0,0,0]}',
    "[1, 1, 0, 0]",
]


@SETTINGS
@given(
    valid=st.lists(st.integers(0, 15), min_size=1, max_size=30),
    bad=st.sampled_from(MALFORMED),
    repeats=st.lists(st.integers(0, 30), min_size=1, max_size=4),
)
def test_repeated_malformed_line_fails_at_its_first_line(tmp_path_factory, valid, bad, repeats):
    sc = Scenario(2, 2, 2)
    good = [json.dumps({"settings": list(x.settings), "outcomes": list(x.outcomes)}) for x in (decode_result(sc, i) for i in valid)]
    lines = good + [bad]
    for r in repeats:  # later copies of the same text, among further valid lines
        lines += [good[r % len(good)], bad]
    path = tmp_path_factory.mktemp("bad") / "t.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(TrialFormatError, match=rf": line {len(good) + 1}: "):
        read_trials(path, sc)


@SETTINGS
@given(before=st.integers(1, 20), header_first=st.booleans())
def test_scenario_header_after_line_one_is_refused(tmp_path_factory, before, header_first):
    sc = Scenario(2, 2, 2)
    header = json.dumps({"scenario": scenario_to_json(sc)})
    record = '{"settings":[1,2],"outcomes":[0,1]}'
    lines = ([header] if header_first else []) + [record] * before + [header, record]
    path = tmp_path_factory.mktemp("hdr") / "t.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(TrialFormatError, match=rf": line {len(lines) - 1}: "):
        read_trials(path, sc)


@SETTINGS
@given(data=scenarios_and_codes(max_trials=60), cap=st.integers(0, 5))
def test_more_distinct_lines_than_the_cache_holds(tmp_path_factory, data, cap):
    sc, codes = data
    # an extra key gives one record several line texts, so the cache fills after `cap` of them
    trials = [decode_result(sc, int(c)) for c in codes]
    lines = [json.dumps({"settings": list(x.settings), "outcomes": list(x.outcomes), "id": i % 7}) for i, x in enumerate(trials)]
    path = tmp_path_factory.mktemp("cap") / "t.jsonl"
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    with mock.patch.object(scenario_module, "LINE_CACHE_SIZE", cap):
        back = read_trials(path, sc)
    assert np.array_equal(back, codes)


def test_full_cache_still_validates_new_lines(tmp_path):
    sc = Scenario(2, 2, 2)
    n = scenario_module.LINE_CACHE_SIZE + 500
    codes = np.arange(n) % 16
    lines = [
        json.dumps({"settings": list(x.settings), "outcomes": list(x.outcomes), "id": i})
        for i, x in enumerate(decode_result(sc, int(c)) for c in codes)
    ]
    path = tmp_path / "t.jsonl"
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    assert np.array_equal(read_trials(path, sc), codes)
    path.write_text("".join(line + "\n" for line in lines) + '{"settings":[3,1],"outcomes":[0,0],"id":0}\n', encoding="utf-8")
    with pytest.raises(TrialFormatError, match=rf": line {n + 1}: "):
        read_trials(path, sc)
