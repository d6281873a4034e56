"""Three-party teleportation of a payload qubit over a (possibly damped) resource.

Register layout during a run: qubit 0 is Alice's payload mu|0> + nu|1>, qubits
1-3 hold the three-qubit resource. Alice also holds resource qubit 1, Bob holds
qubit 2, Charlie holds qubit 3. A run enumerates every branch of:

  1. Alice projects (payload, qubit 1) onto a Bell state.
  2. Charlie measures qubit 3 - with the rotated analyzer basis {x1, x2} for a
     GHZ resource (angle `theta`), or in the computational basis {0, 1} for a
     GHZ-like resource.
  3. Bob applies the correction the lookup table assigns to the two classical
     outcomes, and his state is scored against the payload.

The correction tables ship exactly as published in the protocol they implement.
The GHZ-kind table pairs every branch with I or S_z only; on a standard Bell
basis the psi+- branches would also need a bit flip, so those branches cannot
reach unit fidelity even on an ideal resource. No silent fix is applied - the
per-branch report keeps the defect visible.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import linalg, states
from .constants import (
    HERMITICITY_TOL,
    NORM_TOL,
    PROJECTOR_TOL,
    REAL_RESIDUE_TOL,
    ZERO_TRACE_TOL,
)


class BellOutcome(Enum):
    PHI_PLUS = "phi_plus"
    PHI_MINUS = "phi_minus"
    PSI_PLUS = "psi_plus"
    PSI_MINUS = "psi_minus"


class CharlieOutcome(Enum):
    X1 = "x1"
    X2 = "x2"
    ZERO = "0"
    ONE = "1"


class Correction(Enum):
    IDENTITY = "i"
    SZ = "sz"
    SX = "sx"
    SX_SZ = "sx_sz"


class ResourceKind(Enum):
    GHZ = "ghz"
    GHZ_LIKE = "ghz_like"


_B = BellOutcome
_C = CharlieOutcome

_GHZ_TABLE = {
    (_B.PHI_PLUS, _C.X1): Correction.IDENTITY,
    (_B.PHI_PLUS, _C.X2): Correction.SZ,
    (_B.PHI_MINUS, _C.X1): Correction.SZ,
    (_B.PHI_MINUS, _C.X2): Correction.IDENTITY,
    (_B.PSI_PLUS, _C.X1): Correction.IDENTITY,
    (_B.PSI_PLUS, _C.X2): Correction.SZ,
    (_B.PSI_MINUS, _C.X1): Correction.SZ,
    (_B.PSI_MINUS, _C.X2): Correction.IDENTITY,
}

_GHZ_LIKE_TABLE = {
    (_B.PHI_PLUS, _C.ONE): Correction.IDENTITY,
    (_B.PHI_PLUS, _C.ZERO): Correction.SX,
    (_B.PHI_MINUS, _C.ONE): Correction.SZ,
    (_B.PHI_MINUS, _C.ZERO): Correction.SX_SZ,
    (_B.PSI_PLUS, _C.ONE): Correction.SX,
    (_B.PSI_PLUS, _C.ZERO): Correction.IDENTITY,
    (_B.PSI_MINUS, _C.ONE): Correction.SX_SZ,
    (_B.PSI_MINUS, _C.ZERO): Correction.SZ,
}


def correction_lookup(kind: ResourceKind, bell: BellOutcome, charlie: CharlieOutcome) -> Correction:
    """Bob's correction for a pair of classical outcomes, straight from the table."""
    if kind is ResourceKind.GHZ:
        if charlie not in (_C.X1, _C.X2):
            raise ValueError(f"GHZ protocol expects analyzer outcomes, got {charlie}")
        return _GHZ_TABLE[(bell, charlie)]
    if kind is ResourceKind.GHZ_LIKE:
        if charlie not in (_C.ZERO, _C.ONE):
            raise ValueError(f"GHZ-like protocol expects computational outcomes, got {charlie}")
        return _GHZ_LIKE_TABLE[(bell, charlie)]
    raise ValueError(f"unknown resource kind {kind!r}")


def correction_matrix(correction: Correction) -> np.ndarray:
    """2x2 unitary for a correction; SX_SZ means S_z first, then S_x."""
    if correction is Correction.IDENTITY:
        return linalg.IDENTITY_2.copy()
    if correction is Correction.SZ:
        return linalg.SIGMA_Z.copy()
    if correction is Correction.SX:
        return linalg.SIGMA_X.copy()
    return linalg.SIGMA_X @ linalg.SIGMA_Z


def project_measurement(rho, projector, qubits) -> tuple[float, np.ndarray | None]:
    """Project a state onto a measurement outcome on a subset of qubits, the
    projector's tensor slots following `qubits` in the order given.

    Returns (probability, post-state on the unmeasured qubits). A branch with
    probability below the zero threshold returns (0.0, None) - absent, not NaN.
    """
    m = linalg.as_matrix(rho)
    n = linalg.num_qubits(m.shape[0])
    qubits = tuple(int(q) for q in qubits)
    proj = linalg.as_matrix(projector)
    if not linalg.is_hermitian(proj, PROJECTOR_TOL):
        raise ValueError("projector is not Hermitian")
    if np.abs(proj @ proj - proj).max() > PROJECTOR_TOL:
        raise ValueError("projector is not idempotent")
    keep = [q for q in range(n) if q not in qubits]
    if not keep:
        raise ValueError("measuring every qubit leaves no post-measurement register")
    post = linalg.apply_local([proj], m, qubits)
    probability = linalg.real_trace(post)
    if probability <= ZERO_TRACE_TOL:
        return 0.0, None
    reduced = linalg.partial_trace(post, keep, n) / probability
    return float(min(probability, 1.0)), reduced


def fidelity(bob, mu, nu) -> float:
    """Overlap <psi|rho_B|psi> of Bob's state with the payload mu|0> + nu|1>."""
    m = linalg.as_matrix(bob)
    if m.shape != (2, 2):
        raise ValueError(f"expected a single-qubit state, got shape {m.shape}")
    if not linalg.is_hermitian(m, HERMITICITY_TOL):
        raise ValueError("Bob state is not Hermitian")
    if abs(linalg.real_trace(m) - 1.0) > NORM_TOL:
        raise ValueError("Bob state trace is not 1")
    psi = states.qubit(mu, nu)
    value = complex(psi.conj() @ m @ psi)
    if abs(value.imag) > REAL_RESIDUE_TOL:
        raise ValueError(f"fidelity has imaginary residue {value.imag:.3e}")
    f = value.real
    if f < -REAL_RESIDUE_TOL or f > 1.0 + REAL_RESIDUE_TOL:
        raise ValueError(f"fidelity {f!r} outside [0, 1]")
    return float(min(max(f, 0.0), 1.0))


@dataclass(frozen=True)
class ProtocolRun:
    """One (Bell, Charlie) branch: its probability, Bob's corrected state, and
    the fidelity against the payload. Absent branches carry None, never NaN."""

    bell: BellOutcome
    charlie: CharlieOutcome
    probability: float
    bob_state: np.ndarray | None
    fidelity: float | None


@dataclass(frozen=True)
class ProtocolResult:
    runs: tuple[ProtocolRun, ...]
    average_fidelity: float

    def branch(self, bell: BellOutcome, charlie: CharlieOutcome) -> ProtocolRun:
        for run in self.runs:
            if run.bell is bell and run.charlie is charlie:
                return run
        raise KeyError(f"no branch ({bell}, {charlie})")


def run_protocol(mu, nu, resource, kind: ResourceKind, theta: float = 0.0) -> ProtocolResult:
    """Enumerate all 8 (Bell x Charlie) branches of the protocol.

    `theta` sets Charlie's analyzer angle and applies to the GHZ kind only;
    the GHZ-like kind measures Charlie's qubit in the computational basis.
    """
    rho_resource = linalg.three_qubit_density(resource)
    payload = states.qubit(mu, nu)
    rho_s = np.kron(states.density(payload), rho_resource)

    if kind is ResourceKind.GHZ:
        x1, x2 = states.analyzer_basis(theta)
        charlie_branches = [(_C.X1, x1), (_C.X2, x2)]
    elif kind is ResourceKind.GHZ_LIKE:
        zero = np.array([1, 0], dtype=complex)
        one = np.array([0, 1], dtype=complex)
        charlie_branches = [(_C.ZERO, zero), (_C.ONE, one)]
    else:
        raise ValueError(f"unknown resource kind {kind!r}")

    runs: list[ProtocolRun] = []
    for bell, bell_vec in zip(BellOutcome, states.bell_basis()):
        bell_prob, rho_bc = project_measurement(
            rho_s, np.outer(bell_vec, bell_vec.conj()), (0, 1)
        )
        for charlie, charlie_vec in charlie_branches:
            if rho_bc is None:
                runs.append(ProtocolRun(bell, charlie, 0.0, None, None))
                continue
            # Charlie holds original qubit 3, i.e. slot 1 of the reduced pair.
            charlie_prob, bob = project_measurement(
                rho_bc, np.outer(charlie_vec, charlie_vec.conj()), (1,)
            )
            if bob is None:
                runs.append(ProtocolRun(bell, charlie, 0.0, None, None))
                continue
            u = correction_matrix(correction_lookup(kind, bell, charlie))
            corrected = u @ bob @ u.conj().T
            runs.append(
                ProtocolRun(
                    bell,
                    charlie,
                    bell_prob * charlie_prob,
                    corrected,
                    fidelity(corrected, mu, nu),
                )
            )

    average = sum(r.probability * r.fidelity for r in runs if r.fidelity is not None)
    return ProtocolResult(tuple(runs), float(average))
