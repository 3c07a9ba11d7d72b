"""Quantum predictions for the bipartite test configurations.

Builds Born-rule trial distributions for projective measurements on pure
two-party states, the partially entangled two-qubit configuration with
CHSH-optimal settings, and the d-outcome Fourier-basis configurations.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .functionals import _cglmp_table
from .scenario import Distribution, Scenario

# Dense complex linear algebra is kept to small local dimensions.
DIMENSION_CAP = 32


@dataclass(frozen=True, eq=False)
class PureState:
    """Bipartite pure state as a (dA x dB) amplitude table in the product basis."""

    amplitudes: np.ndarray

    def __post_init__(self):
        amp = np.asarray(self.amplitudes, dtype=complex)
        if amp.ndim != 2:
            raise ValueError("amplitudes must be a 2-D table")
        if not abs(float(np.sum(np.abs(amp) ** 2)) - 1.0) <= 1e-12:
            raise ValueError("squared amplitudes must sum to 1 within 1e-12")
        amp.flags.writeable = False
        object.__setattr__(self, "amplitudes", amp)


@dataclass(frozen=True, eq=False)
class MeasurementBank:
    """Per party, per setting: an orthonormal outcome basis (columns of a unitary)."""

    party_a: tuple[np.ndarray, ...]
    party_b: tuple[np.ndarray, ...]

    def __post_init__(self):
        def check(mats, label):
            frozen = []
            for i, u in enumerate(mats):
                u = np.asarray(u, dtype=complex)
                if u.ndim != 2 or u.shape[0] != u.shape[1]:
                    raise ValueError(f"{label} setting {i + 1}: basis must be square")
                if not np.allclose(u.conj().T @ u, np.eye(u.shape[0]), rtol=0, atol=1e-10):
                    raise ValueError(f"{label} setting {i + 1}: basis is not orthonormal within 1e-10")
                u.flags.writeable = False
                frozen.append(u)
            return tuple(frozen)

        object.__setattr__(self, "party_a", check(self.party_a, "party A"))
        object.__setattr__(self, "party_b", check(self.party_b, "party B"))
        if len(self.party_a) != len(self.party_b):
            raise ValueError("both parties must have the same number of settings")


def born_distribution(state: PureState, bank: MeasurementBank) -> Distribution:
    """Trial distribution P(settings, outcomes) = pi(settings) * |<outcome vectors|state>|^2, pi uniform."""
    s = len(bank.party_a)
    da, db = state.amplitudes.shape
    if da != db:
        raise ValueError("state must have equal local dimensions")
    for u in bank.party_a + bank.party_b:
        if u.shape[0] != da:
            raise ValueError("measurement dimension does not match the state")
    scenario = Scenario(2, s, da)
    pi = scenario.setting_distribution.reshape(s, s)
    probs = np.zeros((s, s, da, da))
    for u in range(s):
        for v in range(s):
            amp = bank.party_a[u].conj().T @ state.amplitudes @ bank.party_b[v].conj()
            block = np.abs(amp) ** 2
            probs[u, v] = pi[u, v] * block / block.sum()
    return Distribution(scenario, probs.reshape(-1))


def _qubit_basis(phi: float) -> np.ndarray:
    # eigenbasis of cos(phi) sigma_z + sin(phi) sigma_x; column 0 is the +1 outcome
    c, s = np.cos(phi / 2.0), np.sin(phi / 2.0)
    return np.array([[c, -s], [s, c]], dtype=complex)


def chsh_config(theta: float) -> tuple[PureState, MeasurementBank]:
    """Two-qubit state cos(theta)|00> + sin(theta)|11> with CHSH-optimal settings.

    Party A measures along z and x; party B along z cos(mu) +/- x sin(mu) with
    tan(mu) = sin(2 theta), which attains <I_CHSH> = 2 sqrt(1 + sin^2(2 theta)).
    """
    if not 0.0 < theta <= np.pi / 4.0 + 1e-12:
        raise ValueError("theta must lie in (0, pi/4]")
    mu = np.arctan(np.sin(2.0 * theta))
    state = PureState(np.diag([np.cos(theta), np.sin(theta)]).astype(complex))
    bank = MeasurementBank(
        party_a=(_qubit_basis(0.0), _qubit_basis(np.pi / 2.0)),
        party_b=(_qubit_basis(mu), _qubit_basis(-mu)),
    )
    return state, bank


def _fourier_banks(d: int) -> MeasurementBank:
    # Standard phase conventions for the d-outcome two-setting configuration;
    # party B's setting order matches the functional catalog's labeling.
    alphas = (0.0, 0.5)
    betas = (-0.25, 0.25)
    q = np.arange(d)[:, None]
    k = np.arange(d)[None, :]
    party_a = tuple(np.exp(2j * np.pi * q * (k + a) / d) / np.sqrt(d) for a in alphas)
    party_b = tuple(np.exp(2j * np.pi * q * (-k + b) / d) / np.sqrt(d) for b in betas)
    return MeasurementBank(party_a, party_b)


def _max_violation_amplitudes(d: int, bank: MeasurementBank) -> np.ndarray:
    # <I_d> is a quadratic form in real Schmidt amplitudes; its leading
    # eigenvector is the violation-maximizing coefficient vector.
    values = _cglmp_table(d)
    m = np.zeros((d, d), dtype=complex)
    for u in range(2):
        for v in range(2):
            w = np.einsum("qk,ql->qkl", bank.party_a[u].conj(), bank.party_b[v].conj())
            m += 0.25 * np.einsum("kl,qkl,pkl->qp", values[u, v], w, w.conj())
    m = np.real(m + m.conj().T) / 2.0
    vals, vecs = np.linalg.eigh(m)
    c = vecs[:, -1]
    if c.sum() < 0.0:
        c = -c
    return c / np.linalg.norm(c)


def cglmp_config(d: int) -> tuple[PureState, MeasurementBank]:
    """Fourier-basis d-outcome configuration with the reference Schmidt amplitudes.

    d = 3 ships the amplitudes (2, sqrt(3), 2)/sqrt(11), the configuration the
    gain-rate targets are calibrated against; every other d uses the
    violation-maximizing amplitudes for the same measurement bases.
    """
    if not 2 <= d <= DIMENSION_CAP:
        raise ValueError(f"d must lie in 2..{DIMENSION_CAP}")
    bank = _fourier_banks(d)
    if d == 3:
        c = np.array([2.0, np.sqrt(3.0), 2.0]) / np.sqrt(11.0)
    else:
        c = _max_violation_amplitudes(d, bank)
    state = PureState(np.diag(c).astype(complex))
    return state, bank


def named_distribution(family: str, value) -> Distribution:
    """Trial distribution of the configuration ``chsh:<theta>`` or ``cglmp:<d>``; ``value`` may be text."""
    if family == "chsh":
        state, bank = chsh_config(float(value))
    elif family == "cglmp":
        d = float(value)
        if not d.is_integer():
            raise ValueError(f"cglmp needs an integer outcome count, got {value!r}")
        state, bank = cglmp_config(int(d))
    else:
        raise ValueError(f"unknown configuration family {family!r} (expected chsh:<theta> or cglmp:<d>)")
    return born_distribution(state, bank)
