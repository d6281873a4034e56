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


def _square_stack(a) -> np.ndarray:
    """Coerce to a finite complex (..., d, d) array: one square matrix or a stack of them."""
    m = np.asarray(a, dtype=complex)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"expected a square matrix or a stack of them, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError("matrix contains NaN or Inf entries")
    return m


def num_qubits(dim: int) -> int:
    """Number of qubits for a register of dimension `dim` (must be a power of 2)."""
    n = int(dim).bit_length() - 1
    if dim <= 0 or 2**n != dim:
        raise ValueError(f"dimension {dim} is not a power of 2")
    return n


def real_trace(a, tol: float = HERMITICITY_TOL) -> float | np.ndarray:
    """Trace of a matrix, or of each in a stack, that must be real up to `tol`."""
    t = np.trace(_square_stack(a), axis1=-2, axis2=-1)
    residue = np.abs(t.imag).max(initial=0.0)
    if residue > tol:
        raise ValueError(f"trace has imaginary residue {residue:.3e}")
    return t.real


def is_hermitian(a, tol: float = HERMITICITY_TOL) -> bool:
    """Whether a matrix, or every matrix in a stack, is Hermitian up to `tol`."""
    m = _square_stack(a)
    return np.abs(m - m.swapaxes(-1, -2).conj()).max(initial=0.0) <= tol


def three_qubit_density(rho) -> np.ndarray:
    """Validate an 8x8 Hermitian, unit-trace matrix, or each of a (..., 8, 8)
    stack of them, and return it as an array; each check is one reduction."""
    m = np.asarray(rho, dtype=complex)
    if m.shape[-2:] != (8, 8):
        raise ValueError(f"expected an 8x8 three-qubit state, got shape {m.shape}")
    if not is_hermitian(m):
        raise ValueError("state is not Hermitian")
    trace = real_trace(m)
    bad = np.abs(trace - 1.0) > NORM_TOL
    if bad.any():
        raise ValueError(f"state trace {float(np.extract(bad, trace)[0])!r} is not 1")
    return m


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
    m = as_matrix(rho)
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    n = num_qubits(m.shape[0])
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
    """Transpose one tensor factor's indices, of a matrix or of each in a stack."""
    m = _square_stack(rho)
    n = num_qubits(m.shape[-1])
    if n_qubits is not None and n_qubits != n:
        raise ValueError(f"matrix dimension {m.shape[-1]} does not match {n_qubits} qubits")
    if not 0 <= qubit < n:
        raise ValueError(f"qubit index {qubit} out of range for {n} qubits")
    lead = m.ndim - 2
    t = m.reshape(m.shape[:lead] + (2,) * (2 * n))
    return np.ascontiguousarray(t.swapaxes(lead + qubit, lead + n + qubit).reshape(m.shape))


def hermitian_eigenvalues(h, tol: float = HERMITICITY_TOL) -> np.ndarray:
    """All real eigenvalues, ascending, of a Hermitian matrix or of each in a stack."""
    m = _square_stack(h)
    adjoint = m.swapaxes(-1, -2).conj()
    defect = np.abs(m - adjoint).max(initial=0.0)
    if defect > tol:
        raise ValueError(f"matrix is not Hermitian (max deviation {defect:.3e})")
    return np.linalg.eigvalsh((m + adjoint) / 2.0)
