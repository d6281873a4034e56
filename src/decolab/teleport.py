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

No branch is projected one by one. Folding the payload into Alice's Bell bra
leaves, for branch (b, c), a bra on resource qubits 1 and 3 alone; two pairwise
einsums over the resource tensor give Bob's unnormalised state for all 8
branches at once. Its traces are the joint probabilities; a Bell outcome's
probability is their sum over Charlie's outcomes.

The correction tables ship exactly as published in the protocol they implement.
The GHZ-kind table pairs every branch with I or S_z only; on a standard Bell
basis the psi+- branches would also need a bit flip, so those branches cannot
reach unit fidelity even on an ideal resource. No silent fix is applied - the
per-branch report keeps the defect visible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import linalg, states
from .constants import HERMITICITY_TOL, NORM_TOL, REAL_RESIDUE_TOL, ZERO_TRACE_TOL


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

# Conjugated Bell vectors as bra[b, a, x]: outcome, payload qubit, resource qubit 1.
_BELL_BRAS = np.array(states.bell_basis()).conj().reshape(4, 2, 2)
_BELL_BRAS.flags.writeable = False

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
    if not math.isfinite(theta):
        raise ValueError(f"analyzer angle theta = {theta} is not finite")
    if kind is ResourceKind.GHZ:
        charlie_outcomes, charlie_vecs = (_C.X1, _C.X2), np.array(states.analyzer_basis(theta))
    elif kind is ResourceKind.GHZ_LIKE:
        charlie_outcomes, charlie_vecs = (_C.ZERO, _C.ONE), linalg.IDENTITY_2
    else:
        raise ValueError(f"unknown resource kind {kind!r}")
    rho = linalg.three_qubit_density(resource).reshape([2] * 6)
    payload = states.qubit(mu, nu)

    # bra[b, c, x, z] on resource qubits 1 (x) and 3 (z): Alice's Bell bra with
    # the payload folded in, times Charlie's bra. Bob keeps qubit 2 (y).
    bra = np.einsum("bax,a,cz->bcxz", _BELL_BRAS, payload, charlie_vecs.conj())
    half = np.einsum("bcxz,xyzuvw->bcyuvw", bra, rho)
    sigma = np.einsum("bcyuvw,bcuw->bcyv", half, bra.conj())
    joint = np.einsum("bcyy->bc", sigma)
    residue = np.abs(joint.imag).max()
    if residue > HERMITICITY_TOL:
        raise ValueError(f"trace has imaginary residue {residue:.3e}")
    joint = joint.real

    runs: list[ProtocolRun] = []
    for b, bell in enumerate(BellOutcome):
        bell_prob = joint[b].sum()
        for c, charlie in enumerate(charlie_outcomes):
            conditional = joint[b, c] / bell_prob if bell_prob > ZERO_TRACE_TOL else 0.0
            if conditional <= ZERO_TRACE_TOL:
                runs.append(ProtocolRun(bell, charlie, 0.0, None, None))
                continue
            u = correction_matrix(correction_lookup(kind, bell, charlie))
            corrected = u @ (sigma[b, c] / joint[b, c]) @ u.conj().T
            runs.append(
                ProtocolRun(
                    bell,
                    charlie,
                    float(min(bell_prob, 1.0) * min(conditional, 1.0)),
                    corrected,
                    fidelity(corrected, mu, nu),
                )
            )

    average = sum(r.probability * r.fidelity for r in runs if r.fidelity is not None)
    return ProtocolResult(tuple(runs), float(average))
