"""Negativity across the three one-vs-two cuts of a three-qubit state.

The cut negativity is -2 times the sum of the strictly negative eigenvalues of
the partial transpose; the tripartite figure is the geometric mean of the three
cuts. Eigenvalues within NEG_EIG_CUTOFF of zero are treated as zero so solver
noise cannot report entanglement on PPT states.
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


def negativity_cut(rho, qubit: int) -> float:
    """Negativity of the cut separating `qubit` from the other two."""
    m = linalg.three_qubit_density(rho)
    pt = linalg.partial_transpose(m, qubit, 3)
    eigs = linalg.hermitian_eigenvalues(pt)
    negative = eigs[eigs < -NEG_EIG_CUTOFF]
    return float(-2.0 * negative.sum()) if negative.size else 0.0


def tripartite_negativity(rho) -> NegativityReport:
    """All three cut negativities plus their geometric mean.

    The mean is taken in log space, short-circuiting to zero as soon as any
    cut vanishes, so cube roots of tiny products cannot underflow.
    """
    cuts = tuple(negativity_cut(rho, q) for q in range(3))
    if min(cuts) <= 0.0:
        tri = 0.0
    else:
        tri = float(np.exp(np.mean(np.log(cuts))))
    return NegativityReport(cuts[0], cuts[1], cuts[2], tri)
