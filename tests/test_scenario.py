import json
import math
import re

import numpy as np
import pytest

from bellcert import (
    Distribution,
    Scenario,
    ScenarioMismatchError,
    SizeLimitError,
    TrialFormatError,
    chsh_functional,
    decode_result,
    empirical_distribution,
    encode_result,
    mixture_distribution,
    read_distribution,
    read_trials,
    result_space_size,
    sample_encoded,
    uniform_outcome_distribution,
    write_distribution,
    write_trials,
)
from bellcert.scenario import PROBABILITY_TOLERANCE, SETTING_TOLERANCE, _check_same_scenario, scenario_from_json
from bellcert.scenario import scenario_to_json, setting_log2_pvalue


def test_result_space_size():
    assert result_space_size(Scenario(2, 2, 2)) == 16
    assert result_space_size(Scenario(1, 1, 1)) == 1
    # direct evaluation of (3*2)^2
    assert result_space_size(Scenario(2, 2, 3)) == 6**2


def test_result_space_size_overflow():
    with pytest.raises(SizeLimitError):
        Scenario(8, 4, 1000)  # (4000)^8 > 2^63


def test_scenario_validation():
    with pytest.raises(ValueError):
        Scenario(0, 2, 2)
    with pytest.raises(ValueError):
        Scenario(2, 2, 2, np.array([0.5, 0.5, 0.25, -0.25]))
    with pytest.raises(ValueError):
        Scenario(2, 2, 2, np.array([0.5, 0.5, 0.1, 0.1]))
    sc = Scenario(2, 2, 2, np.array([0.4, 0.1, 0.3, 0.2]))
    assert not sc.is_uniform()
    assert sc.setting_distribution[1] == 0.1
    # 2e-6 from uniform is beyond the absolute 1e-12: CHSH's bound 2 would not hold (its LR maximum is 2.000016)
    near = Scenario(2, 2, 2, np.array([0.250002, 0.249998, 0.25, 0.25]))
    assert not near.is_uniform()
    with pytest.raises(ValueError):
        chsh_functional(near)
    assert scenario_to_json(near)["setting_distribution"] == [0.250002, 0.249998, 0.25, 0.25]


def test_encode_examples(chsh_scenario):
    assert encode_result(chsh_scenario, (1, 1), (0, 0)) == 0
    assert encode_result(chsh_scenario, (2, 2), (1, 1)) == 15
    # mixed-radix arithmetic: (((0*2)+1)*2+1)*2+0
    assert encode_result(chsh_scenario, (1, 2), (1, 0)) == (((0 * 2) + 1) * 2 + 1) * 2 + 0


def test_encode_range_errors(chsh_scenario):
    with pytest.raises(ValueError):
        encode_result(chsh_scenario, (0, 1), (0, 0))
    with pytest.raises(ValueError):
        encode_result(chsh_scenario, (1, 1), (0, 2))
    with pytest.raises(ValueError):
        encode_result(chsh_scenario, (1,), (0,))


@pytest.mark.parametrize("field", ["setting", "outcome"])
@pytest.mark.parametrize("value", [1.9, True, "2", 3, -1])
def test_encode_refuses_an_entry_that_is_not_an_integer_in_range(chsh_scenario, field, value):
    # the float, bool and string were once coerced by int(): setting 1.9 of party 2 was encoded as setting 1
    settings, outcomes = [1, 2], [1, 0]
    (settings if field == "setting" else outcomes)[1] = value
    allowed = "1..2" if field == "setting" else "0..1"
    with pytest.raises(ValueError, match=re.escape(f"{field} {value!r} of party 2 is not an integer in {allowed}")):
        encode_result(chsh_scenario, settings, outcomes)


def test_encode_accepts_numpy_integers(chsh_scenario):
    for dtype in (np.int64, np.int32, np.uint8):
        assert encode_result(chsh_scenario, np.array([1, 2], dtype=dtype), np.array([1, 0], dtype=dtype)) == 6
    assert encode_result(chsh_scenario, (np.int64(2), 2), (np.uint64(1), 1)) == 15


@pytest.mark.parametrize(
    "dist,n",
    [(None, 1), (None, 40), ([0.8, 0.2], 60), ([0.5, 0.5], 200), ([0.99, 0.01], 200)],
)
def test_setting_bound_is_a_valid_pvalue(dist, n):
    # exact, over every type of n trials: P(bound <= t) <= t at each bound value t the types attain
    sc = Scenario(1, 2, 1, None if dist is None else np.array(dist))
    q = sc.setting_distribution[1]
    bounds = np.array([setting_log2_pvalue(sc, np.array([0] * (n - k) + [1] * k)) for k in range(n + 1)])
    probs = np.array([math.comb(n, k) * q**k * (1 - q) ** (n - k) for k in range(n + 1)])
    for t in np.unique(bounds):
        assert probs[bounds <= t].sum() <= 2.0**t * (1 + 1e-9)


def test_setting_bound_of_uniform_and_biased_settings(chsh_scenario):
    assert setting_log2_pvalue(chsh_scenario, np.arange(2000) % 16) == 0.0
    assert setting_log2_pvalue(chsh_scenario, np.zeros(0, dtype=np.int64)) == 0.0
    # all 50 trials at one setting: D = 2 bits, so the bound is 51^4 2^-100
    assert setting_log2_pvalue(chsh_scenario, np.zeros(50, dtype=np.int64)) == pytest.approx(4 * np.log2(51) - 100)
    zero = Scenario(2, 2, 2, np.array([0.5, 0.5, 0.0, 0.0]))
    assert setting_log2_pvalue(zero, np.array([0, 4, 8])) == -np.inf


@pytest.mark.parametrize("l,s,d", [(2, 2, 2), (2, 2, 3), (3, 2, 2), (1, 3, 4)])
def test_encode_decode_bijective(l, s, d):
    sc = Scenario(l, s, d)
    k = result_space_size(sc)
    seen = set()
    for i in range(k):
        x = decode_result(sc, i)
        assert encode_result(sc, *x) == i
        seen.add(x)
    assert len(seen) == k


def test_decode_out_of_range(chsh_scenario):
    with pytest.raises(ValueError):
        decode_result(chsh_scenario, 16)
    with pytest.raises(ValueError):
        decode_result(chsh_scenario, -1)


def test_decode_refuses_a_code_that_is_not_an_integer(chsh_scenario):
    # 5.7, True and np.float64(5.0) were coerced by int() to the records of codes 5, 1 and 5
    for code in (5.7, True, np.float64(5.0), np.bool_(True), "5"):
        with pytest.raises(ValueError, match=re.escape(f"index {code!r} is not an integer in 0..15")):
            decode_result(chsh_scenario, code)
    assert decode_result(chsh_scenario, 5) == decode_result(chsh_scenario, np.int64(5)) == ((1, 2), (0, 1))


def test_empirical_point_mass(chsh_scenario):
    x0 = encode_result(chsh_scenario, (1, 2), (1, 0))
    dist = empirical_distribution(chsh_scenario, np.array([x0] * 4))
    expected = np.zeros(16)
    expected[x0] = 1.0
    assert np.array_equal(dist.probs, expected)
    assert dist.empirical


def test_empirical_two_point(chsh_scenario):
    x0, x1 = encode_result(chsh_scenario, (1, 1), (0, 0)), encode_result(chsh_scenario, (2, 1), (1, 1))
    dist = empirical_distribution(chsh_scenario, np.array([x0, x1]))
    assert dist.probs[x0] == 0.5
    assert dist.probs[x1] == 0.5


def test_empirical_empty_rejected(chsh_scenario):
    with pytest.raises(ValueError):
        empirical_distribution(chsh_scenario, [])


@pytest.mark.parametrize("code", [16, -1])
def test_out_of_range_code_is_named(tmp_path, chsh_scenario, code):
    with pytest.raises(ValueError, match=f"encoded result index {code} outside 0..15"):
        empirical_distribution(chsh_scenario, [0, code])
    with pytest.raises(ValueError, match=f"encoded result index {code} outside 0..15"):
        write_trials(tmp_path / "t.jsonl", chsh_scenario, [0, code])
    assert not (tmp_path / "t.jsonl").exists()


def test_empirical_concentrates_on_source(chsh_q):
    freq = empirical_distribution(chsh_q.scenario, sample_encoded(chsh_q, 10_000, seed=42))
    assert np.max(np.abs(freq.probs - chsh_q.probs)) < 0.02


def test_empirical_sum_and_grid(chsh_scenario, chsh_q):
    freq = empirical_distribution(chsh_scenario, sample_encoded(chsh_q, 997, seed=3))
    assert abs(freq.probs.sum() - 1.0) < 1e-12
    # entries are multiples of 1/n up to rounding
    assert np.allclose(freq.probs * 997, np.round(freq.probs * 997), atol=1e-9)


def test_distribution_invariants(chsh_scenario):
    with pytest.raises(ValueError):
        Distribution(chsh_scenario, np.full(16, 0.0625)[:8])
    bad = np.full(16, 0.0625)
    bad[0] = -0.0625
    with pytest.raises(ValueError):
        Distribution(chsh_scenario, bad)
    with pytest.raises(ValueError):
        Distribution(chsh_scenario, np.full(16, 0.07))
    # a point mass violates the setting marginal unless flagged empirical
    point = np.zeros(16)
    point[0] = 1.0
    with pytest.raises(ValueError):
        Distribution(chsh_scenario, point)
    assert Distribution(chsh_scenario, point, empirical=True).probs[0] == 1.0
    # setting marginals 0.25 +/- 2e-6 miss the absolute 1e-10 limit
    skewed = np.full(16, 0.0625)
    skewed[:4] += 0.5e-6
    skewed[4:8] -= 0.5e-6
    with pytest.raises(ValueError):
        Distribution(chsh_scenario, skewed)


def test_uniform_outcome_distribution(chsh_scenario):
    dist = uniform_outcome_distribution(chsh_scenario)
    assert np.allclose(dist.probs, 1.0 / 16.0)
    marg = dist.probs.reshape(4, 4).sum(axis=1)
    assert np.allclose(marg, 0.25)


def test_trials_roundtrip(tmp_path, chsh_scenario, chsh_q):
    codes = sample_encoded(chsh_q, 1000, seed=11)
    path = tmp_path / "trials.jsonl"
    write_trials(path, chsh_scenario, codes)
    back = read_trials(path, chsh_scenario)
    assert back.dtype == np.int64
    assert np.array_equal(back, codes)


def test_trials_empty_file(tmp_path, chsh_scenario):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    back = read_trials(path, chsh_scenario)
    assert back.dtype == np.int64 and back.size == 0


def test_trials_single_line(tmp_path, chsh_scenario):
    path = tmp_path / "one.jsonl"
    path.write_text('{"settings":[1,2],"outcomes":[0,1]}\n')
    back = read_trials(path, chsh_scenario)
    assert back.tolist() == [encode_result(chsh_scenario, (1, 2), (0, 1))]


def test_trials_malformed_line_reports_number(tmp_path, chsh_scenario):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"settings":[1,1],"outcomes":[0,0]}\nnot json\n')
    with pytest.raises(TrialFormatError, match="line 2"):
        read_trials(path, chsh_scenario)


def test_trials_range_violation(tmp_path, chsh_scenario):
    path = tmp_path / "range.jsonl"
    path.write_text('{"settings":[1,3],"outcomes":[0,0]}\n')
    with pytest.raises(TrialFormatError, match="line 1"):
        read_trials(path, chsh_scenario)


def test_trials_missing_keys(tmp_path, chsh_scenario):
    path = tmp_path / "keys.jsonl"
    path.write_text('{"settings":[1,1]}\n')
    with pytest.raises(TrialFormatError, match="outcomes"):
        read_trials(path, chsh_scenario)


def test_trials_header_mismatch(tmp_path, chsh_scenario):
    path = tmp_path / "hdr.jsonl"
    for header in ('{"l":2,"s":2,"d":3}', '{"l":2,"s":2,"d":2,"setting_distribution":[0.250002,0.249998,0.25,0.25]}'):
        path.write_text(f'{{"scenario":{header}}}\n')
        with pytest.raises(ScenarioMismatchError):
            read_trials(path, chsh_scenario)


def test_scenario_json_roundtrip():
    sc = Scenario(2, 2, 3, np.array([0.4, 0.1, 0.3, 0.2]))
    back = scenario_from_json(scenario_to_json(sc))
    assert back.parties == 2 and back.outcomes_per_setting == 3
    assert np.allclose(back.setting_distribution, sc.setting_distribution)


def test_distribution_file_roundtrip(tmp_path, chsh_q):
    path = tmp_path / "dist.json"
    write_distribution(path, chsh_q)
    back = read_distribution(path)
    assert np.allclose(back.probs, chsh_q.probs)
    assert back.scenario.outcomes_per_setting == 2


def test_distribution_file_keeps_an_empirical_table(tmp_path, chsh_scenario):
    # frequencies of three trials do not reproduce the uniform setting distribution
    dist = empirical_distribution(chsh_scenario, np.array([0, 0, 15]))
    path = tmp_path / "dist.json"
    write_distribution(path, dist)
    assert json.loads(path.read_text())["empirical"] is True
    back = read_distribution(path)
    assert back.empirical and np.array_equal(back.probs, dist.probs)


@pytest.mark.parametrize("empirical", ["no", 1, None])
def test_distribution_file_empirical_must_be_a_boolean(tmp_path, chsh_q, empirical):
    path = tmp_path / "dist.json"
    write_distribution(path, chsh_q)
    path.write_text(json.dumps({**json.loads(path.read_text()), "empirical": empirical}))
    with pytest.raises(TrialFormatError, match="'empirical' must be a JSON boolean"):
        read_distribution(path)


def test_array_bearing_types_compare_by_identity(chsh_q):
    # comparing these must never hit numpy's ambiguous array truth value
    a, b = Scenario(2, 2, 2), Scenario(2, 2, 2)
    assert a == a and a != b
    assert chsh_q == chsh_q
    assert chsh_q != Distribution(a, chsh_q.probs)


def test_frozen_arrays_are_copies(chsh_q):
    dist = np.array([0.4, 0.1, 0.3, 0.2])
    sc = Scenario(2, 2, 2, dist)
    probs = np.array(chsh_q.probs)
    q = Distribution(chsh_q.scenario, probs)
    assert dist.flags.writeable and probs.flags.writeable
    assert not sc.setting_distribution.flags.writeable and not q.probs.flags.writeable
    dist[0], probs[0] = 9.0, 9.0
    assert sc.setting_distribution[0] == 0.4 and q.probs[0] == chsh_q.probs[0]


def _refused(build, error=ValueError) -> bool:
    try:
        build()
    except error:
        return True
    return False


@pytest.mark.parametrize("factor,ok", [(0.5, True), (2.0, False)], ids=["half", "twice"])
def test_setting_tolerance_at_each_of_its_sites(chsh_scenario, factor, ok):
    h = factor * SETTING_TOLERANCE
    assert _refused(lambda: Scenario(2, 2, 2, [0.25, 0.25, 0.25, 0.25 + h])) is not ok
    near = Scenario(2, 2, 2, [0.25 + h, 0.25 - h, 0.25, 0.25])
    assert near.is_uniform() is ok
    assert _refused(lambda: _check_same_scenario(near, chsh_scenario, "f"), ScenarioMismatchError) is not ok


@pytest.mark.parametrize("factor,ok", [(0.5, True), (2.0, False)], ids=["half", "twice"])
def test_probability_tolerance_at_each_of_its_sites(chsh_scenario, factor, ok):
    h = factor * PROBABILITY_TOLERANCE
    heavy, moved, weights = np.full(16, 1 / 16), np.full(16, 1 / 16), np.full(16, 1 / 16)
    heavy[0] += h  # sums to 1 + h
    moved[0], moved[4] = moved[0] + h, moved[4] - h  # setting marginals off by h
    weights[0] += h
    assert _refused(lambda: Distribution(chsh_scenario, heavy, empirical=True)) is not ok
    assert _refused(lambda: Distribution(chsh_scenario, moved)) is not ok
    assert _refused(lambda: mixture_distribution(chsh_scenario, weights)) is not ok
