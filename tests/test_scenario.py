import json

import numpy as np
import pytest

from bellcert import (
    Distribution,
    Scenario,
    ScenarioMismatchError,
    SizeLimitError,
    TrialFormatError,
    TrialResult,
    chsh_functional,
    decode_result,
    empirical_distribution,
    encode_result,
    read_distribution,
    read_trials,
    result_space_size,
    sample_encoded,
    uniform_outcome_distribution,
    write_distribution,
    write_trials,
)
from bellcert.scenario import encode_trials, scenario_from_json, scenario_to_json


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
    assert encode_result(chsh_scenario, TrialResult((1, 1), (0, 0))) == 0
    assert encode_result(chsh_scenario, TrialResult((2, 2), (1, 1))) == 15
    # mixed-radix arithmetic: (((0*2)+1)*2+1)*2+0
    assert encode_result(chsh_scenario, TrialResult((1, 2), (1, 0))) == (((0 * 2) + 1) * 2 + 1) * 2 + 0


def test_encode_range_errors(chsh_scenario):
    with pytest.raises(ValueError):
        encode_result(chsh_scenario, TrialResult((0, 1), (0, 0)))
    with pytest.raises(ValueError):
        encode_result(chsh_scenario, TrialResult((1, 1), (0, 2)))
    with pytest.raises(ValueError):
        encode_result(chsh_scenario, TrialResult((1,), (0,)))


@pytest.mark.parametrize("l,s,d", [(2, 2, 2), (2, 2, 3), (3, 2, 2), (1, 3, 4)])
def test_encode_decode_bijective(l, s, d):
    sc = Scenario(l, s, d)
    k = result_space_size(sc)
    seen = set()
    for i in range(k):
        x = decode_result(sc, i)
        x.validate_for(sc)
        assert encode_result(sc, x) == i
        seen.add((x.settings, x.outcomes))
    assert len(seen) == k


def test_decode_out_of_range(chsh_scenario):
    with pytest.raises(ValueError):
        decode_result(chsh_scenario, 16)
    with pytest.raises(ValueError):
        decode_result(chsh_scenario, -1)


def test_empirical_point_mass(chsh_scenario):
    x0 = TrialResult((1, 2), (1, 0))
    dist = empirical_distribution(chsh_scenario, encode_trials(chsh_scenario, [x0] * 4))
    expected = np.zeros(16)
    expected[encode_result(chsh_scenario, x0)] = 1.0
    assert np.array_equal(dist.probs, expected)
    assert dist.empirical


def test_empirical_two_point(chsh_scenario):
    x0, x1 = TrialResult((1, 1), (0, 0)), TrialResult((2, 1), (1, 1))
    dist = empirical_distribution(chsh_scenario, encode_trials(chsh_scenario, [x0, x1]))
    assert dist.probs[encode_result(chsh_scenario, x0)] == 0.5
    assert dist.probs[encode_result(chsh_scenario, x1)] == 0.5


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
    assert back.dtype == np.int64 and np.array_equal(back, encode_trials(chsh_scenario, []))


def test_trials_single_line(tmp_path, chsh_scenario):
    path = tmp_path / "one.jsonl"
    path.write_text('{"settings":[1,2],"outcomes":[0,1]}\n')
    back = read_trials(path, chsh_scenario)
    assert np.array_equal(back, encode_trials(chsh_scenario, [TrialResult((1, 2), (0, 1))]))


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


def test_encode_trials_vector(chsh_scenario):
    trials = [TrialResult((1, 1), (0, 0)), TrialResult((2, 2), (1, 1))]
    assert encode_trials(chsh_scenario, trials).tolist() == [0, 15]


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
