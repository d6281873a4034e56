"""Dense complex matrix algebra for small multi-qubit operators (dimension <= 16).

Qubit ordering is big-endian: qubit 0 is the leftmost tensor factor, matching
the ket notation |q1 q2 q3>. All functions are pure and never mutate inputs.
"""

from __future__ import annotations

import numpy as np

from .constants import HERMITICITY_TOL, NORM_TOL

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
IDENTITY_2 = np.eye(2, dtype=complex)

SIGMA_X.flags.writeable = False
SIGMA_Y.flags.writeable = False
SIGMA_Z.flags.writeable = False
IDENTITY_2.flags.writeable = False


def as_matrix(a) -> np.ndarray:
    """Coerce to a finite 2-D complex array (copying only if needed)."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={m.ndim}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix contains NaN or Inf entries")
    return m


def num_qubits(dim: int) -> int:
    """Number of qubits for a register of dimension `dim` (must be a power of 2)."""
    n = int(dim).bit_length() - 1
    if dim <= 0 or 2**n != dim:
        raise ValueError(f"dimension {dim} is not a power of 2")
    return n


def tensor(a, b) -> np.ndarray:
    """Kronecker product with a's indices major."""
    return np.kron(as_matrix(a), as_matrix(b))


def dagger(a) -> np.ndarray:
    """Conjugate transpose."""
    return as_matrix(a).conj().T


def frobenius_norm(a) -> float:
    return float(np.linalg.norm(as_matrix(a)))


def real_trace(a, tol: float = HERMITICITY_TOL) -> float:
    """Trace of a matrix that must be real up to `tol` (e.g. a density matrix)."""
    t = complex(np.trace(as_matrix(a)))
    if abs(t.imag) > tol:
        raise ValueError(f"trace has imaginary residue {t.imag:.3e}")
    return t.real


def is_hermitian(a, tol: float = HERMITICITY_TOL) -> bool:
    m = as_matrix(a)
    return m.shape[0] == m.shape[1] and np.abs(m - m.conj().T).max() <= tol


def three_qubit_density(rho) -> np.ndarray:
    """Validate an 8x8 Hermitian, unit-trace matrix and return it as an array."""
    m = as_matrix(rho)
    if m.shape != (8, 8):
        raise ValueError(f"expected an 8x8 three-qubit state, got shape {m.shape}")
    if not is_hermitian(m):
        raise ValueError("state is not Hermitian")
    trace = real_trace(m)
    if abs(trace - 1.0) > NORM_TOL:
        raise ValueError(f"state trace {trace!r} is not 1")
    return m


def _check_square_register(rho) -> tuple[np.ndarray, int]:
    m = as_matrix(rho)
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return m, num_qubits(m.shape[0])


def lift_operator(op, qubits: tuple[int, ...], n_qubits: int) -> np.ndarray:
    """Embed an operator acting on `qubits` into the full n-qubit register.

    `op` is a 2^k x 2^k matrix whose tensor slots correspond to `qubits` in the
    order given; unlisted qubits get the identity.
    """
    op = as_matrix(op)
    qubits = tuple(qubits)
    k = len(qubits)
    if len(set(qubits)) != k:
        raise ValueError(f"qubit list {qubits} contains duplicates")
    if any(q < 0 or q >= n_qubits for q in qubits):
        raise ValueError(f"qubit list {qubits} out of range for {n_qubits} qubits")
    if op.shape != (2**k, 2**k):
        raise ValueError(f"operator shape {op.shape} does not match {k} qubits")
    if k == n_qubits and qubits == tuple(range(n_qubits)):
        return op.copy()
    rest = [q for q in range(n_qubits) if q not in qubits]
    full = np.kron(op, np.eye(2 ** len(rest), dtype=complex))
    # `full` has tensor-slot order (qubits..., rest...); permute to 0..n-1.
    slot_of = {q: i for i, q in enumerate(list(qubits) + rest)}
    perm = [slot_of[q] for q in range(n_qubits)]
    t = full.reshape([2] * (2 * n_qubits))
    t = t.transpose(perm + [n_qubits + i for i in perm])
    return np.ascontiguousarray(t.reshape(2**n_qubits, 2**n_qubits))


def partial_transpose(rho, qubit: int, n_qubits: int | None = None) -> np.ndarray:
    """Transpose the indices of one tensor factor only."""
    m, n = _check_square_register(rho)
    if n_qubits is not None and n_qubits != n:
        raise ValueError(f"matrix dimension {m.shape[0]} does not match {n_qubits} qubits")
    if not 0 <= qubit < n:
        raise ValueError(f"qubit index {qubit} out of range for {n} qubits")
    t = m.reshape([2] * (2 * n))
    axes = list(range(2 * n))
    axes[qubit], axes[n + qubit] = axes[n + qubit], axes[qubit]
    return np.ascontiguousarray(t.transpose(axes).reshape(m.shape))


def partial_trace(rho, keep, n_qubits: int | None = None) -> np.ndarray:
    """Reduced matrix on the kept qubits, in ascending original-index order."""
    m, n = _check_square_register(rho)
    if n_qubits is not None and n_qubits != n:
        raise ValueError(f"matrix dimension {m.shape[0]} does not match {n_qubits} qubits")
    keep = sorted(set(int(q) for q in keep))
    if not keep:
        raise ValueError("keep set must be nonempty")
    if any(q < 0 or q >= n for q in keep):
        raise ValueError(f"keep set {keep} out of range for {n} qubits")
    if keep == list(range(n)):
        return m.copy()
    t = m.reshape([2] * (2 * n))
    # Row axis q gets label q; column axis q gets the same label when traced out.
    row = list(range(n))
    col = [q if q not in keep else n + q for q in range(n)]
    out = [q for q in keep] + [n + q for q in keep]
    return np.einsum(t, row + col, out).reshape(2 ** len(keep), 2 ** len(keep))


def hermitian_eigenvalues(h, tol: float = HERMITICITY_TOL) -> np.ndarray:
    """All real eigenvalues of a Hermitian matrix, ascending."""
    m = as_matrix(h)
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    defect = np.abs(m - m.conj().T).max() if m.size else 0.0
    if defect > tol:
        raise ValueError(f"matrix is not Hermitian (max deviation {defect:.3e})")
    return np.linalg.eigvalsh((m + m.conj().T) / 2.0)
