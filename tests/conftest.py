import numpy as np
import pytest

from bellcert import Distribution, Scenario, born_distribution, cglmp_config, chsh_config
from bellcert.quantum import MeasurementBank, _qubit_basis


@pytest.fixture(scope="session")
def chsh_scenario():
    return Scenario(2, 2, 2)


@pytest.fixture(scope="session")
def cglmp3_scenario():
    return Scenario(2, 2, 3)


@pytest.fixture(scope="session")
def chsh_q():
    state, bank = chsh_config(np.pi / 4.0)
    return born_distribution(state, bank)


@pytest.fixture(scope="session")
def cglmp3_q():
    state, bank = cglmp_config(3)
    return born_distribution(state, bank)


@pytest.fixture(scope="session")
def zero_setting_q():
    """A (2, 3, 2) source whose joint setting (3, 3) has probability 0; the other eight have 1/8.

    Its conditionals are the Born rule's for the maximally entangled CHSH configuration,
    with third bases at angles 0.3 (party A) and 1.1 (party B).
    """
    state, bank = chsh_config(np.pi / 4.0)
    bank = MeasurementBank(bank.party_a + (_qubit_basis(0.3),), bank.party_b + (_qubit_basis(1.1),))
    conditional = born_distribution(state, bank).probs.reshape(9, 4) * 9.0
    settings = np.r_[np.full(8, 1.0 / 8.0), 0.0]
    return Distribution(Scenario(2, 3, 2, settings), (conditional * settings[:, None]).reshape(-1))
