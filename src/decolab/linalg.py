"""Dense complex matrix algebra for small multi-qubit operators (dimension <= 16).

Qubit ordering is big-endian: qubit 0 is the leftmost tensor factor, matching
the ket notation |q1 q2 q3>. Operations on some qubits act on the axes of the
(2,)*2n register tensor, row axes first. All functions are pure and never
mutate inputs.
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


def check_qubits(qubits, n_qubits: int) -> tuple[int, ...]:
    """The qubit list as a tuple of ints, rejecting duplicates and out-of-range indices."""
    qubits = tuple(int(q) for q in qubits)
    if len(set(qubits)) != len(qubits):
        raise ValueError(f"qubit list {qubits} contains duplicates")
    if any(q < 0 or q >= n_qubits for q in qubits):
        raise ValueError(f"qubit list {qubits} out of range for {n_qubits} qubits")
    return qubits


def apply_local(ops, rho, qubits) -> np.ndarray:
    """sum_m A_m rho A_m^dagger for a stack of operators A_m acting on `qubits`.

    `ops` is a sequence of 2^k x 2^k matrices whose tensor slots correspond to
    `qubits` in the order given; unlisted qubits are left alone. The stack is
    contracted against those qubits' row and column axes of the register
    tensor, so no operator is embedded into the full register.
    """
    m, n = _check_square_register(rho)
    qubits = check_qubits(qubits, n)
    k = len(qubits)
    ops = np.asarray(ops, dtype=complex)
    if ops.ndim != 3 or ops.shape[1:] != (2**k, 2**k):
        raise ValueError(f"operator stack shape {ops.shape} does not match {k} qubits")
    a = ops.reshape([len(ops)] + [2] * (2 * k))
    # Row q of the register is label q and column q is n + q. The j-th listed
    # qubit's new row and column are 2n + j and 3n + j; label 4n sums the stack.
    rows, cols = range(2 * n, 2 * n + k), range(3 * n, 3 * n + k)
    out = list(range(2 * n))
    for q, r, c in zip(qubits, rows, cols):
        out[q], out[n + q] = r, c
    return np.einsum(
        a, [4 * n, *rows, *qubits],
        m.reshape([2] * (2 * n)), list(range(2 * n)),
        a.conj(), [4 * n, *cols, *(n + q for q in qubits)],
        out,
    ).reshape(m.shape)


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
