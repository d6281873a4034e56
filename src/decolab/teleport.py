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

No branch is projected or scored one by one. Folding the payload into Alice's
Bell bra leaves, for branch (b, c), a bra on resource qubits 1 and 3 alone; two
pairwise einsums over the resource tensor give Bob's unnormalised state for all
8 branches at once. Its traces are the joint probabilities; a Bell outcome's
probability is their sum over Charlie's outcomes. Correction, normalisation and
scoring are one array step each; `fidelity` is the batch-of-one case.

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


# Charlie's outcomes per kind, in run order; the GHZ pair is the analyzer basis.
_CHARLIE_OUTCOMES = {ResourceKind.GHZ: (_C.X1, _C.X2), ResourceKind.GHZ_LIKE: (_C.ZERO, _C.ONE)}

# Correction unitaries as u[b, c] per kind, read from the table above.
_CORRECTIONS = {
    kind: np.array(
        [[correction_matrix(correction_lookup(kind, b, c)) for c in outcomes] for b in _B]
    )
    for kind, outcomes in _CHARLIE_OUTCOMES.items()
}


def _scores(bob: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """Overlaps <psi|rho|psi> of a non-empty (n, 2, 2) stack; each check is one reduction."""
    if np.abs(bob - bob.conj().swapaxes(1, 2)).max() > HERMITICITY_TOL:
        raise ValueError("Bob state is not Hermitian")
    if np.abs(np.trace(bob, axis1=1, axis2=2).real - 1.0).max() > NORM_TOL:
        raise ValueError("Bob state trace is not 1")
    values = (psi.conj() @ bob) @ psi
    worst = values.imag[np.abs(values.imag).argmax()]
    if abs(worst) > REAL_RESIDUE_TOL:
        raise ValueError(f"fidelity has imaginary residue {worst:.3e}")
    outside = (values.real < -REAL_RESIDUE_TOL) | (values.real > 1.0 + REAL_RESIDUE_TOL)
    if outside.any():
        raise ValueError(f"fidelity {float(values.real[outside][0])!r} outside [0, 1]")
    return np.clip(values.real, 0.0, 1.0)


def fidelity(bob, mu, nu) -> float:
    """Overlap <psi|rho_B|psi> of Bob's state with the payload mu|0> + nu|1>."""
    m = linalg.as_matrix(bob)
    if m.shape != (2, 2):
        raise ValueError(f"expected a single-qubit state, got shape {m.shape}")
    return float(_scores(m[None], states.qubit(mu, nu))[0])


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
        charlie_vecs = np.array(states.analyzer_basis(theta))
    elif kind is ResourceKind.GHZ_LIKE:
        charlie_vecs = linalg.IDENTITY_2
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
    bell_prob = joint.sum(axis=1, keepdims=True)
    conditional = np.divide(
        joint, bell_prob, out=np.zeros_like(joint), where=bell_prob > ZERO_TRACE_TOL
    )
    present = conditional > ZERO_TRACE_TOL
    probability = np.minimum(bell_prob, 1.0) * np.minimum(conditional, 1.0)
    # The corrections are signed permutations, so U sigma U^dagger is exact and
    # normalising before or after correcting gives the same bits.
    u = _CORRECTIONS[kind]
    bob = np.divide(
        u @ sigma @ u.conj().swapaxes(2, 3),
        joint[..., None, None],
        out=np.zeros_like(sigma),
        where=present[..., None, None],
    )
    fids = np.zeros_like(joint)
    fids[present] = _scores(bob[present], payload)

    runs = tuple(
        ProtocolRun(bell, charlie, float(probability[b, c]), bob[b, c], float(fids[b, c]))
        if present[b, c]
        else ProtocolRun(bell, charlie, 0.0, None, None)
        for b, bell in enumerate(BellOutcome)
        for c, charlie in enumerate(_CHARLIE_OUTCOMES[kind])
    )
    # A plain sum in run order; numpy's pairwise sum of 8 terms rounds differently.
    average = sum((probability * fids).ravel().tolist())
    return ProtocolResult(runs, float(average))
