import functools

import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_unitary(rng, dim: int) -> np.ndarray:
    """Haar-ish unitary via QR of a complex Gaussian matrix."""
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_density(rng, dim: int) -> np.ndarray:
    """Random full-rank density matrix."""
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


def random_payload(rng) -> tuple[complex, complex]:
    """Random normalized (mu, nu) pair, complex."""
    v = rng.normal(size=2) + 1j * rng.normal(size=2)
    v = v / np.linalg.norm(v)
    return complex(v[0]), complex(v[1])


def kron_embed(op, qubits, n: int) -> np.ndarray:
    """`op` acting on `qubits` (slots in the order given) of an n-qubit register,
    expanded in matrix units and placed factor by factor with np.kron."""
    k = len(qubits)
    t = np.asarray(op, dtype=complex).reshape([2] * (2 * k))
    full = np.zeros((2**n, 2**n), dtype=complex)
    for index in np.ndindex(*t.shape):
        factors = [np.eye(2)] * n
        for j, q in enumerate(qubits):
            factors[q] = np.zeros((2, 2))
            factors[q][index[j], index[k + j]] = 1.0
        full += t[index] * functools.reduce(np.kron, factors)
    return full
