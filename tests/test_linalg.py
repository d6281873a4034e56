import numpy as np
import pytest

from decolab import linalg
from decolab.linalg import (
    IDENTITY_2,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    apply_local,
    hermitian_eigenvalues,
    partial_transpose,
)

from conftest import kron_embed, random_density

KET0 = np.array([1, 0], dtype=complex)
KET1 = np.array([0, 1], dtype=complex)
PHI_PLUS = (np.kron(KET0, KET0) + np.kron(KET1, KET1)) / np.sqrt(2)


def test_pauli_algebra():
    assert np.allclose(SIGMA_X @ SIGMA_Y, 1j * SIGMA_Z)


def test_trace_and_norm_basics():
    assert linalg.real_trace(np.eye(8)) == 8.0


def test_nan_rejected():
    with pytest.raises(ValueError, match="NaN"):
        linalg.as_matrix([[np.nan, 0], [0, 1]])


def test_partial_transpose_product_state(rng):
    rho_a = random_density(rng, 2)
    rho_b = random_density(rng, 2)
    out = partial_transpose(np.kron(rho_a, rho_b), 0)
    assert np.allclose(out, np.kron(rho_a.T, rho_b), atol=1e-14)


def test_partial_transpose_bell_spectrum():
    rho = np.outer(PHI_PLUS, PHI_PLUS.conj())
    eigs = hermitian_eigenvalues(partial_transpose(rho, 0))
    assert np.allclose(eigs, [-0.5, 0.5, 0.5, 0.5], atol=1e-12)


def test_partial_transpose_involution(rng):
    rho = random_density(rng, 8)
    assert np.allclose(partial_transpose(partial_transpose(rho, 1), 1), rho, atol=1e-15)


def test_partial_transpose_preserves_trace_and_hermiticity(rng):
    for _ in range(5):
        rho = random_density(rng, 8)
        for q in range(3):
            pt = partial_transpose(rho, q)
            assert abs(np.trace(pt) - np.trace(rho)) < 1e-12
            assert np.abs(pt - pt.conj().T).max() < 1e-12


def test_partial_transpose_bad_qubit():
    with pytest.raises(ValueError, match="out of range"):
        partial_transpose(np.eye(4), 2)


def test_eigenvalues_diagonal():
    assert np.allclose(hermitian_eigenvalues(np.diag([0.75, 0.25])), [0.25, 0.75])


def test_eigenvalues_sigma_x():
    assert np.allclose(hermitian_eigenvalues(SIGMA_X), [-1.0, 1.0], atol=1e-14)


@pytest.mark.parametrize("dim", [2, 3, 4, 8, 16])
def test_eigenvalues_match_numpy(rng, dim):
    for _ in range(5):
        a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        h = (a + a.conj().T) / 2
        assert np.abs(hermitian_eigenvalues(h) - np.linalg.eigvalsh(h)).max() < 1e-11


def test_eigenvalue_sum_is_trace(rng):
    for _ in range(5):
        a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        h = (a + a.conj().T) / 2
        assert abs(hermitian_eigenvalues(h).sum() - np.trace(h).real) < 1e-10


def test_eigenvalue_spectral_bounds_probe(rng):
    a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    h = (a + a.conj().T) / 2
    eigs = hermitian_eigenvalues(h)
    for _ in range(50):
        v = rng.normal(size=8) + 1j * rng.normal(size=8)
        v = v / np.linalg.norm(v)
        rayleigh = (v.conj() @ h @ v).real
        assert eigs[0] - 1e-9 <= rayleigh <= eigs[-1] + 1e-9


def test_eigenvalues_reject_non_hermitian():
    with pytest.raises(ValueError, match="not Hermitian"):
        hermitian_eigenvalues([[0, 1], [0, 0]])


def test_stacks_match_each_matrix_and_symmetrise(rng):
    # a (2, 3) stack of states, each off Hermitian by a skew part below the tolerance
    stack = np.array([[random_density(rng, 8) for _ in range(3)] for _ in range(2)])
    skew = rng.normal(size=stack.shape) + 1j * rng.normal(size=stack.shape)
    stack = stack + 1e-12 * (skew - np.swapaxes(skew, -1, -2).conj())
    assert linalg.three_qubit_density(stack) is not None
    for q in range(3):
        pt = partial_transpose(stack, q)
        assert pt.shape == stack.shape
        for index in np.ndindex(2, 3):
            assert np.array_equal(pt[index], partial_transpose(stack[index], q))
    eigs = hermitian_eigenvalues(stack)
    hermitian = (stack + np.swapaxes(stack, -1, -2).conj()) / 2
    for index in np.ndindex(2, 3):
        assert np.array_equal(eigs[index], hermitian_eigenvalues(stack[index]))
        assert np.abs(eigs[index] - np.linalg.eigvalsh(hermitian[index])).max() <= 1e-14


def test_stack_validation_names_the_problem():
    rho = np.eye(8, dtype=complex) / 8
    with pytest.raises(ValueError, match="square"):
        hermitian_eigenvalues(np.zeros((3, 2, 4)))
    with pytest.raises(ValueError, match="NaN"):
        partial_transpose(np.full((2, 4, 4), np.nan), 0)
    with pytest.raises(ValueError, match="not Hermitian"):
        hermitian_eigenvalues(np.array([np.eye(2), [[0, 1], [0, 0]]]))
    bad = np.array([rho, rho])
    bad[1, 0, 1] = 0.5
    with pytest.raises(ValueError, match="Hermitian"):
        linalg.three_qubit_density(bad)
    with pytest.raises(ValueError, match=r"state trace 2\.0 is not 1"):
        linalg.three_qubit_density(np.array([rho, 2 * rho]))
    with pytest.raises(ValueError, match="8x8"):
        linalg.three_qubit_density(np.zeros((2, 4, 4)))


def sandwich(op, rho):
    return op @ rho @ op.conj().T


def test_apply_local_single_qubit(rng):
    rho = random_density(rng, 4)
    out = apply_local([SIGMA_X], rho, (1,))
    assert np.allclose(out, sandwich(np.kron(IDENTITY_2, SIGMA_X), rho), atol=1e-15)
    out = apply_local([SIGMA_X], rho, (0,))
    assert np.allclose(out, sandwich(np.kron(SIGMA_X, IDENTITY_2), rho), atol=1e-15)


def test_apply_local_contiguous_block(rng):
    rho = random_density(rng, 8)
    proj = np.outer(PHI_PLUS, PHI_PLUS.conj())
    out = apply_local([proj], rho, (0, 1))
    assert np.allclose(out, sandwich(np.kron(proj, IDENTITY_2), rho), atol=1e-15)
    out = apply_local([proj], rho, (1, 2))
    assert np.allclose(out, sandwich(np.kron(IDENTITY_2, proj), rho), atol=1e-15)


def test_apply_local_non_contiguous(rng):
    # a stack of two operators on qubits (0, 2) of 3: oracle via explicit basis mapping
    rho = random_density(rng, 8)
    ops = rng.normal(size=(2, 4, 4)) + 1j * rng.normal(size=(2, 4, 4))
    expected = np.zeros((8, 8), dtype=complex)
    for op in ops:
        lifted = np.zeros((8, 8), dtype=complex)
        for r in range(8):
            for c in range(8):
                r0, r1, r2 = (r >> 2) & 1, (r >> 1) & 1, r & 1
                c0, c1, c2 = (c >> 2) & 1, (c >> 1) & 1, c & 1
                if r1 == c1:
                    lifted[r, c] = op[2 * r0 + r2, 2 * c0 + c2]
        assert np.array_equal(kron_embed(op, (0, 2), 3), lifted)
        expected += sandwich(lifted, rho)
    assert np.allclose(apply_local(ops, rho, (0, 2)), expected, atol=1e-13)


def test_apply_local_order_matters(rng):
    # (q0, q1) vs (q1, q0) differ by a swap of the operator's slots
    rho = random_density(rng, 4)
    op = np.kron(SIGMA_X, SIGMA_Z)
    assert np.allclose(apply_local([op], rho, (0, 1)), sandwich(op, rho), atol=1e-15)
    swapped = sandwich(np.kron(SIGMA_Z, SIGMA_X), rho)
    assert np.allclose(apply_local([op], rho, (1, 0)), swapped, atol=1e-15)


@pytest.mark.parametrize(
    "ops, qubits, fragment",
    [
        ([SIGMA_X], (1, 1), "duplicates"),
        ([SIGMA_X], (3,), "out of range"),
        ([SIGMA_X], (0, 1), "does not match 2 qubits"),
        (SIGMA_X, (0,), "does not match 1 qubits"),
    ],
)
def test_apply_local_rejects_bad_input(ops, qubits, fragment):
    with pytest.raises(ValueError, match=fragment):
        apply_local(ops, np.eye(8) / 8, qubits)
