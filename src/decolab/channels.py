"""Generalized amplitude damping (GAD) as Kraus operator sets.

Two variants ship:

  gad_standard  the completeness-satisfying set (a physical CPTP channel),
                the default everywhere:

                    E0 = sqrt(p)     * [[1, 0], [0, sqrt(1-g)]]
                    E1 = sqrt(p*g)   * [[0, 1], [0, 0]]
                    E2 = sqrt(1-p)   * [[sqrt(1-g), 0], [0, 1]]
                    E3 = sqrt((1-p)*g) * [[0, 0], [1, 0]]

  gad_raw       the same operators with the completeness-restoring prefactors
                dropped from E1 and E3 (E1 = sqrt(p)*(sx + i*sy),
                E3 = sqrt((1-p)*g)*(sx - sy)). Not trace preserving for
                generic parameters; kept, unfixed, as the companion of the
                analytic coefficient route so the two can be compared.
                Apply it with renormalize=True.

`p` (strength) sets the asymptotic population split, `gamma` (damping) how far
toward it the qubit relaxes. Both live in [0, 1].

A channel acts on chosen qubits of a register in one of two ways:

  INDEPENDENT   every listed qubit gets its own Kraus index; this is local,
                uncorrelated noise and the experiments' default. Operators on
                distinct qubits commute, so `linalg.apply_local` applies the
                channel one qubit at a time, sum_n E_n rho E_n^dagger per qubit.
  CORRELATED    one index is shared across all listed qubits: one apply_local
                call with the products, sum_n (E_n x E_n x ...) rho (...)^dagger.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from . import linalg
from .constants import (
    HERMITICITY_TOL,
    KRAUS_COMPLETENESS_TOL,
    PSD_TOL,
    ZERO_TRACE_TOL,
)
from .errors import NumericalError


class ApplicationMode(Enum):
    INDEPENDENT = "independent"
    CORRELATED = "correlated"


class KrausVariant(Enum):
    STANDARD = "standard"
    RAW = "raw"


@dataclass(frozen=True, eq=False)
class KrausSet:
    """Ordered Kraus elements of equal square shape, with the trace-preservation
    flag computed at construction (never asserted by the caller)."""

    elements: tuple[np.ndarray, ...]
    trace_preserving: bool = field(init=False)

    def __post_init__(self):
        if not self.elements:
            raise ValueError("a Kraus set needs at least one element")
        mats = tuple(linalg.as_matrix(e) for e in self.elements)
        dim = mats[0].shape[0]
        for m in mats:
            if m.shape != (dim, dim):
                raise ValueError("Kraus elements must share one square shape")
            m.flags.writeable = False
        object.__setattr__(self, "elements", mats)
        defect = completeness_defect(self)
        object.__setattr__(self, "trace_preserving", defect < KRAUS_COMPLETENESS_TOL)

    @property
    def dim(self) -> int:
        return self.elements[0].shape[0]


def completeness_defect(kraus: KrausSet) -> float:
    """|| sum_n E_n^dagger E_n  -  I ||_F"""
    total = sum(e.conj().T @ e for e in kraus.elements)
    return float(np.linalg.norm(total - np.eye(kraus.dim)))


def check_params(p: float, gamma: float) -> tuple[float, float]:
    p, gamma = float(p), float(gamma)
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"channel strength p={p} outside [0, 1]")
    if not 0.0 <= gamma <= 1.0:
        raise ValueError(f"damping parameter gamma={gamma} outside [0, 1]")
    return p, gamma


def gad_standard(p: float, gamma: float) -> KrausSet:
    """Completeness-satisfying GAD set; identity channel at gamma=0."""
    p, gamma = check_params(p, gamma)
    sp, sq = np.sqrt(p), np.sqrt(1.0 - p)
    sg, s1g = np.sqrt(gamma), np.sqrt(1.0 - gamma)
    e0 = sp * np.array([[1, 0], [0, s1g]], dtype=complex)
    e1 = sp * sg * np.array([[0, 1], [0, 0]], dtype=complex)
    e2 = sq * np.array([[s1g, 0], [0, 1]], dtype=complex)
    e3 = sq * sg * np.array([[0, 0], [1, 0]], dtype=complex)
    return KrausSet((e0, e1, e2, e3))


def gad_raw(p: float, gamma: float) -> KrausSet:
    """GAD set without the completeness-restoring prefactors on E1 and E3.

    Not trace preserving for generic (p, gamma): E1 = 2*sqrt(p)|0><1| alone
    pushes sum E^dag E past the identity. Use with renormalize=True.
    """
    p, gamma = check_params(p, gamma)
    sp, sq = np.sqrt(p), np.sqrt(1.0 - p)
    sg, s1g = np.sqrt(gamma), np.sqrt(1.0 - gamma)
    eye = linalg.IDENTITY_2
    e0 = (sp / 2.0) * ((1.0 + s1g) * eye + (1.0 - s1g) * linalg.SIGMA_Z)
    e1 = sp * (linalg.SIGMA_X + 1j * linalg.SIGMA_Y)
    e2 = (sq / 2.0) * ((1.0 + s1g) * eye - (1.0 - s1g) * linalg.SIGMA_Z)
    e3 = sq * sg * (linalg.SIGMA_X - linalg.SIGMA_Y)
    return KrausSet((e0, e1, e2, e3))


def build_kraus(variant: KrausVariant, p: float, gamma: float) -> KrausSet:
    if variant is KrausVariant.STANDARD:
        return gad_standard(p, gamma)
    return gad_raw(p, gamma)


def apply_channel(
    rho,
    kraus: KrausSet,
    qubits,
    mode: ApplicationMode = ApplicationMode.INDEPENDENT,
    renormalize: bool = False,
) -> np.ndarray:
    """Apply a single-qubit Kraus set to the listed qubits of a density matrix.

    With renormalize=True the result is divided by its trace, which is required
    to get a state back from a non-trace-preserving set (gad_raw, or any set in
    CORRELATED mode); a trace at or below the zero threshold raises instead of
    silently returning a zero state.
    """
    m = linalg.as_matrix(rho)
    qubits = linalg.check_qubits(qubits, linalg.num_qubits(m.shape[0]))
    if not qubits:
        raise ValueError("qubit list must be nonempty")
    if kraus.dim != 2:
        raise ValueError("apply_channel expects single-qubit Kraus elements")
    if not linalg.is_hermitian(m, HERMITICITY_TOL):
        raise NumericalError("input state is not Hermitian")
    min_eig = linalg.hermitian_eigenvalues(m)[0]
    if min_eig < -PSD_TOL:
        raise NumericalError(f"input state is not PSD (min eigenvalue {min_eig:.3e})")

    if mode is ApplicationMode.INDEPENDENT:
        out = m
        for q in qubits:
            out = linalg.apply_local(kraus.elements, out, (q,))
    elif mode is ApplicationMode.CORRELATED:
        # E_n x E_n x ... as one broadcast product: factor j on row axis j and
        # column axis k + j, multiplied left to right as np.kron would.
        e, k = np.stack(kraus.elements), len(qubits)
        f = [e.reshape((-1,) + (1,) * j + (2,) + (1,) * (k - 1) + (2,) + (1,) * (k - 1 - j)) for j in range(k)]
        shared = math.prod(f[1:], start=f[0]).reshape(-1, 2**k, 2**k)
        out = linalg.apply_local(shared, m, qubits)
    else:
        raise ValueError(f"unknown application mode {mode!r}")

    if renormalize:
        trace = linalg.real_trace(out)
        if trace <= ZERO_TRACE_TOL:
            raise NumericalError(f"channel output trace {trace:.3e} too small to renormalize")
        out = out / trace
    return out
