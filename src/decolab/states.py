"""Constructors for the resource-state families and measurement bases.

Two three-qubit resource families are supported:

  ghz(alpha, beta)            alpha|000> + beta|111>,  |alpha|^2 + |beta|^2 = 1
  ghz_like(c1, c2, c3, c4)    (c1|001> + c2|010> + c3|100> + c4|111>) / 2,
                              |c1|^2 + ... + |c4|^2 = 4

plus the single payload qubit mu|0> + nu|1> that the teleportation protocol
carries, the Bell basis, and the rotated single-qubit analyzer basis.
"""

from __future__ import annotations

import math

import numpy as np

from .constants import NORM_TOL

# Amplitude of each term of the maximal GHZ state and of the default payload.
SQRT_HALF = 1.0 / math.sqrt(2.0)

_KET0 = np.array([1, 0], dtype=complex)
_KET1 = np.array([0, 1], dtype=complex)


def _as_amplitudes(values) -> np.ndarray:
    v = np.asarray(values, dtype=complex)
    if not np.all(np.isfinite(v)):
        raise ValueError("amplitudes contain NaN or Inf")
    return v


def _check_normalization(v: np.ndarray, target: float, what: str) -> None:
    total = float(np.sum(np.abs(v) ** 2))
    if abs(total - target) > NORM_TOL:
        raise ValueError(f"{what}: squared amplitudes sum to {total!r}, expected {target}")


def qubit(mu, nu) -> np.ndarray:
    """Single-qubit state mu|0> + nu|1>."""
    amps = _as_amplitudes([mu, nu])
    _check_normalization(amps, 1.0, "qubit amplitudes")
    return amps


def ghz(alpha, beta) -> np.ndarray:
    """Three-qubit state alpha|000> + beta|111> (normalized convention)."""
    amps = _as_amplitudes([alpha, beta])
    _check_normalization(amps, 1.0, "ghz amplitudes")
    vec = np.zeros(8, dtype=complex)
    vec[0] = amps[0]
    vec[7] = amps[1]
    return vec


def ghz_like(c1, c2, c3, c4) -> np.ndarray:
    """Three-qubit state (c1|001> + c2|010> + c3|100> + c4|111>) / 2."""
    amps = _as_amplitudes([c1, c2, c3, c4])
    _check_normalization(amps, 4.0, "ghz_like amplitudes")
    vec = np.zeros(8, dtype=complex)
    vec[1] = amps[0] / 2.0
    vec[2] = amps[1] / 2.0
    vec[4] = amps[2] / 2.0
    vec[7] = amps[3] / 2.0
    return vec


def maximal_ghz() -> np.ndarray:
    """(|000> + |111>) / sqrt(2), the maximally entangled member of the family."""
    return ghz(1 / np.sqrt(2), 1 / np.sqrt(2))


def maximal_ghz_like() -> np.ndarray:
    """(|001> + |010> + |100> + |111>) / 2, unit coefficients."""
    return ghz_like(1, 1, 1, 1)


def bell_basis() -> list[np.ndarray]:
    """The four Bell vectors, ordered [phi+, phi-, psi+, psi-]."""
    s = 1 / np.sqrt(2)
    k00 = np.kron(_KET0, _KET0)
    k01 = np.kron(_KET0, _KET1)
    k10 = np.kron(_KET1, _KET0)
    k11 = np.kron(_KET1, _KET1)
    return [s * (k00 + k11), s * (k00 - k11), s * (k01 + k10), s * (k01 - k10)]


def analyzer_basis(theta: float) -> tuple[np.ndarray, np.ndarray]:
    """Single-qubit basis rotated by `theta` (radians) from the computational basis.

    |x1> = cos(theta)|0> + sin(theta)|1>
    |x2> = -sin(theta)|0> + cos(theta)|1>

    At theta=0 this is {|0>, |1>}; the pair is orthonormal for every theta.
    """
    c, s = np.cos(theta), np.sin(theta)
    return c * _KET0 + s * _KET1, -s * _KET0 + c * _KET1


def density(psi) -> np.ndarray:
    """Rank-1 projector |psi><psi| for a unit vector psi."""
    v = _as_amplitudes(psi)
    if v.ndim != 1:
        raise ValueError(f"expected a state vector, got ndim={v.ndim}")
    _check_normalization(v, 1.0, "state vector")
    return np.outer(v, v.conj())
