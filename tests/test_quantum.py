import math

import numpy as np
import pytest

from bellcert import (
    MeasurementBank,
    PureState,
    born_distribution,
    chsh_config,
    chsh_functional,
    cglmp_config,
    cglmp_functional,
    expectation,
    no_signaling_functionals,
)

from oracles import chsh_angle_oracle


def _rot(phi):
    c, s = math.cos(phi / 2.0), math.sin(phi / 2.0)
    return np.array([[c, -s], [s, c]])


def test_pure_state_validation():
    with pytest.raises(ValueError):
        PureState(np.array([[1.0, 0.0], [0.0, 1.0]]))  # norm 2
    with pytest.raises(ValueError):
        PureState(np.ones(4))


def test_bank_validation():
    good = _rot(0.3)
    bad = np.array([[1.0, 0.0], [0.5, 1.0]])
    with pytest.raises(ValueError):
        MeasurementBank((good, bad), (good, good))
    with pytest.raises(ValueError):
        MeasurementBank((good,), (good, good))
    # a basis column of norm 1 + 4e-6 is outside the absolute 1e-10 limit
    stretched = good.copy()
    stretched[:, 0] *= 1.0 + 4e-6
    with pytest.raises(ValueError):
        MeasurementBank((good, stretched), (good, good))


def test_born_product_state_reaches_lr_bound():
    # theta = 0 is a product state; with the z/x vs z settings the CHSH
    # expectation sits exactly at the LR bound 2
    state = PureState(np.diag([1.0, 0.0]).astype(complex))
    bank = MeasurementBank((_rot(0.0), _rot(math.pi / 2.0)), (_rot(0.0), _rot(0.0)))
    q = born_distribution(state, bank)
    f = chsh_functional(q.scenario)
    assert expectation(f, q) == pytest.approx(2.0, abs=1e-9)


def test_born_tsirelson(chsh_q):
    f = chsh_functional(chsh_q.scenario)
    assert expectation(f, chsh_q) == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-9)


@pytest.mark.parametrize("theta", [math.pi / 16, math.pi / 8, math.pi / 4])
def test_born_no_signaling_and_normalization(theta):
    state, bank = chsh_config(theta)
    q = born_distribution(state, bank)
    assert q.probs.sum() == pytest.approx(1.0, abs=1e-12)
    for f in no_signaling_functionals(q.scenario):
        assert expectation(f, q) == pytest.approx(0.0, abs=1e-10)


def test_born_dimension_mismatch():
    state = PureState(np.diag([1.0, 0.0]).astype(complex))
    d3 = np.eye(3)
    with pytest.raises(ValueError):
        born_distribution(state, MeasurementBank((d3, d3), (d3, d3)))


@pytest.mark.parametrize(
    "theta,expected",
    [
        (math.pi / 4.0, 2.0 * math.sqrt(2.0)),
        (math.pi / 8.0, 2.0 * math.sqrt(1.0 + 0.5)),
    ],
)
def test_chsh_config_horodecki_value(theta, expected):
    state, bank = chsh_config(theta)
    q = born_distribution(state, bank)
    f = chsh_functional(q.scenario)
    assert expectation(f, q) == pytest.approx(expected, abs=1e-9)


@pytest.mark.parametrize("theta", [math.pi / 16.0, math.pi / 8.0, math.pi / 4.0])
def test_chsh_config_is_optimal(theta):
    # grid + refinement over planar measurement angles finds nothing better
    state, bank = chsh_config(theta)
    q = born_distribution(state, bank)
    value = expectation(chsh_functional(q.scenario), q)
    assert value == pytest.approx(chsh_angle_oracle(theta), abs=1e-6)


def test_chsh_config_range():
    with pytest.raises(ValueError):
        chsh_config(0.0)
    with pytest.raises(ValueError):
        chsh_config(1.0)


def test_cglmp_config_d2_tsirelson():
    state, bank = cglmp_config(2)
    q = born_distribution(state, bank)
    f = cglmp_functional(q.scenario)
    assert expectation(f, q) == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-6)


def test_cglmp_config_d3_reference_state():
    state, bank = cglmp_config(3)
    amps = np.real(np.diag(state.amplitudes))
    assert np.allclose(amps, np.array([2.0, math.sqrt(3.0), 2.0]) / math.sqrt(11.0), atol=1e-12)
    q = born_distribution(state, bank)
    value = expectation(cglmp_functional(q.scenario), q)
    assert value == pytest.approx(32.0 / 11.0, abs=1e-9)
    assert value > 2.0  # genuine violation


@pytest.mark.parametrize("d", [4, 5])
def test_cglmp_config_beats_flat_state(d):
    # the shipped amplitudes should do at least as well as the flat state
    state, bank = cglmp_config(d)
    q = born_distribution(state, bank)
    f = cglmp_functional(q.scenario)
    best = expectation(f, q)
    flat = PureState(np.diag(np.full(d, 1.0 / math.sqrt(d))).astype(complex))
    assert best >= expectation(f, born_distribution(flat, bank)) - 1e-9
    assert best > 2.0


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_cglmp_config_distributions_valid(d):
    state, bank = cglmp_config(d)
    q = born_distribution(state, bank)
    assert q.probs.min() >= 0.0
    assert q.probs.sum() == pytest.approx(1.0, abs=1e-12)
    for f in no_signaling_functionals(q.scenario):
        assert expectation(f, q) == pytest.approx(0.0, abs=1e-10)


def test_cglmp_config_range():
    with pytest.raises(ValueError):
        cglmp_config(1)
    with pytest.raises(ValueError):
        cglmp_config(33)
