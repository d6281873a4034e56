"""Negativity across the three one-vs-two cuts of a three-qubit state.

The cut negativity is -2 times the sum of the strictly negative eigenvalues of
the partial transpose; the tripartite figure is the geometric mean of the three
cuts. Eigenvalues within NEG_EIG_CUTOFF of zero are treated as zero so solver
noise cannot report entanglement on PPT states. `cut_negativities` scores a
(..., 8, 8) stack of states with one stacked eigensolve per cut; the
single-state functions are its batch-of-one callers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .constants import NEG_EIG_CUTOFF


@dataclass(frozen=True)
class NegativityReport:
    n_a_bc: float
    n_b_ac: float
    n_c_ab: float
    tripartite: float

    def cuts(self) -> tuple[float, float, float]:
        return (self.n_a_bc, self.n_b_ac, self.n_c_ab)


def cut_negativities(rho) -> np.ndarray:
    """(..., 3) negativities of a (..., 8, 8) stack; column q cuts qubit q from the rest."""
    m = linalg.three_qubit_density(rho)
    cuts = np.empty(m.shape[:-2] + (3,))
    for q in range(3):
        eigs = linalg.hermitian_eigenvalues(linalg.partial_transpose(m, q, 3))
        # + 0.0 turns the -0.0 of a cut without negative eigenvalues into 0.0.
        cuts[..., q] = -2.0 * np.where(eigs < -NEG_EIG_CUTOFF, eigs, 0.0).sum(axis=-1) + 0.0
    return cuts


def geometric_mean(cuts) -> np.ndarray:
    """Tripartite negativity of (..., 3) cut negativities: their geometric mean,
    taken in log space and zero as soon as any cut vanishes, so cube roots of
    tiny products cannot underflow."""
    positive = cuts > 0.0
    logs = np.log(np.where(positive, cuts, 1.0))
    return np.where(positive.all(axis=-1), np.exp(logs.mean(axis=-1)), 0.0)


def negativity_cut(rho, qubit: int) -> float:
    """Negativity of the cut separating `qubit` from the other two."""
    if not 0 <= qubit < 3:
        raise ValueError(f"qubit index {qubit} out of range for 3 qubits")
    return float(cut_negativities(linalg.as_matrix(rho))[qubit])


def tripartite_negativity(rho) -> NegativityReport:
    """All three cut negativities of one state plus their geometric mean."""
    cuts = cut_negativities(linalg.as_matrix(rho))
    return NegativityReport(*(float(c) for c in cuts), float(geometric_mean(cuts)))
