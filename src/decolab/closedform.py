"""Closed-form coefficient and fidelity expressions for the damped resource families.

These expressions are the analytic companion of the Kraus simulation. They are
transcribed as-is rather than corrected - including a duplicated b13/b14 pair,
an extra p^3 term in b4, and strength/damping powers that match no single
application mode of the shipped channel - so the two routes can be diffed
honestly. `decolab diff-formulas` (see the sweep module) quantifies where they
disagree; the simulation is the ground truth throughout.

Complex parameters are accepted everywhere even though the expressions are
written for real ones; an output that must be real raises if its imaginary
residue exceeds the tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .channels import check_params
from .constants import REAL_RESIDUE_TOL
from .teleport import BellOutcome, CharlieOutcome


def _real_output(value: complex, what: str) -> float:
    value = complex(value)
    if abs(value.imag) > REAL_RESIDUE_TOL:
        raise ValueError(f"{what} has imaginary residue {value.imag:.3e}")
    return value.real


class _RegisterCoeffs:
    """Coefficients that each sit at one entry of the 8x8 register; `_SLOTS`
    lists (label, row, col) in ledger order."""

    _SLOTS: tuple = ()

    def entries(self) -> list[tuple[str, int, int, complex]]:
        """(label, row, col, value) for every coefficient, in ledger order."""
        return [(label, row, col, getattr(self, label)) for label, row, col in self._SLOTS]

    def matrix(self) -> np.ndarray:
        m = np.zeros((8, 8), dtype=complex)
        for _, row, col, value in self.entries():
            m[row, col] = value
        return m


@dataclass(frozen=True)
class GhzCoeffs(_RegisterCoeffs):
    """Entries of the damped GHZ state in the {|000>, |111>} block.

    a1 multiplies |000><000|, a2 |000><111|, a3 |111><000|, a4 |111><111|.
    The expressions carry the source's 1/2 prefactor; double them to compare
    against a normalized simulated state.
    """

    _SLOTS = (("a1", 0, 0), ("a2", 0, 7), ("a3", 7, 0), ("a4", 7, 7))

    a1: complex
    a2: complex
    a3: complex
    a4: complex


def ghz_coeffs(alpha, beta, p: float, gamma: float) -> GhzCoeffs:
    p, g = check_params(p, gamma)
    alpha, beta = complex(alpha), complex(beta)
    decay = (1.0 - g) ** 3
    coherence = (1.0 - g) ** 1.5
    a1 = (alpha**2 / 2.0) * (p**2 + (1.0 - p) ** 3 * decay)
    a2 = 0.5 * coherence * (p**2 * alpha * beta.conjugate() + alpha.conjugate() * beta * (1.0 - p) ** 3)
    a3 = 0.5 * coherence * (p**2 * alpha.conjugate() * beta + alpha * beta.conjugate() * (1.0 - p) ** 3)
    a4 = (beta**2 / 2.0) * (p**2 * decay + (1.0 - p) ** 3)
    return GhzCoeffs(a1, a2, a3, a4)


# Register indices of the GHZ-like basis {|001>, |010>, |100>, |111>}.
_GHZ_LIKE_BASIS = (1, 2, 4, 7)


@dataclass(frozen=True)
class GhzLikeCoeffs(_RegisterCoeffs):
    """The sixteen entries b1..b16 of the damped GHZ-like state, row-major over
    {|001>, |010>, |100>, |111>}, plus the three kappa weights.

    Transcribed as-is: b13 and b14 are displayed identically, b4 carries an
    extra p^3 cross term, and the b16 expression appears under a reused b12
    label in the source display (resolved to b16 by its |111><111| position).
    """

    _SLOTS = tuple(
        (f"b{4 * i + j + 1}", row, col)
        for i, row in enumerate(_GHZ_LIKE_BASIS)
        for j, col in enumerate(_GHZ_LIKE_BASIS)
    )

    b1: complex
    b2: complex
    b3: complex
    b4: complex
    b5: complex
    b6: complex
    b7: complex
    b8: complex
    b9: complex
    b10: complex
    b11: complex
    b12: complex
    b13: complex
    b14: complex
    b15: complex
    b16: complex
    kappa1: float
    kappa2: float
    kappa3: float

    def b(self, index: int) -> complex:
        if not 1 <= index <= 16:
            raise ValueError(f"coefficient index {index} outside 1..16")
        return getattr(self, f"b{index}")


def ghz_like_coeffs(c1, c2, c3, c4, p: float, gamma: float) -> GhzLikeCoeffs:
    p, g = check_params(p, gamma)
    c1, c2, c3, c4 = (complex(c) for c in (c1, c2, c3, c4))
    base = (1.0 - g) / 4.0
    tail = (1.0 - p) ** 1.5
    k1 = base * (p * np.sqrt(p) + tail)
    k2 = base * (p * np.sqrt(p) * (1.0 - g) + tail)
    k3 = base * (p * np.sqrt(p) * (1.0 - g) ** 3 + tail)
    return GhzLikeCoeffs(
        b1=abs(c3) ** 2 * k1,
        b2=c3 * c1.conjugate() * k1,
        b3=c3 * c2.conjugate() * k1,
        b4=c3 * c4.conjugate() * k2 + (p**3 / 4.0) * c4 * c3.conjugate(),
        b5=c1 * c3.conjugate() * k1,
        b6=abs(c1) ** 2 * k1,
        b7=c1 * c2.conjugate() * k1,
        b8=c1 * c4.conjugate() * k2,
        b9=c2 * c3.conjugate() * k1,
        b10=c2 * c1.conjugate() * k1,
        b11=abs(c2) ** 2 * k1,
        b12=c2 * c4.conjugate() * k2,
        b13=c4 * c1.conjugate() * k2,
        b14=c4 * c1.conjugate() * k2,
        b15=c4 * c2.conjugate() * k2,
        b16=abs(c4) ** 2 * k3,
        kappa1=float(k1),
        kappa2=float(k2),
        kappa3=float(k3),
    )


@dataclass(frozen=True)
class BellKappas:
    """Branch weights of the post-Bell-measurement Charlie/Bob state."""

    k00: complex
    k01: complex
    k10: complex
    k11: complex


def bell_kappas(mu, nu, coeffs: GhzCoeffs) -> BellKappas:
    mu, nu = complex(mu), complex(nu)
    mc, nc = mu.conjugate(), nu.conjugate()
    return BellKappas(
        k00=coeffs.a1 * (mu**2 + mc * nu + mc * nc + nu**2),
        k01=coeffs.a2 * (mu**2 - mc * nu + mc * nc - nu**2),
        k10=coeffs.a3 * (mu**2 + mc * nu - mc * nc - nu**2),
        k11=coeffs.a4 * (mu**2 - mc * nu - mc * nc + nu**2),
    )


def ghz_fidelity_formula(
    theta: float, mu, nu, kappas: BellKappas, which: CharlieOutcome
) -> float:
    """Analyzer-branch fidelity expression; X2 swaps the cos^2/sin^2 weights."""
    mu, nu = complex(mu), complex(nu)
    c2, s2 = np.cos(theta) ** 2, np.sin(theta) ** 2
    if which is CharlieOutcome.X1:
        w00, w11 = c2, s2
    elif which is CharlieOutcome.X2:
        w00, w11 = s2, c2
    else:
        raise ValueError(f"expected an analyzer outcome, got {which}")
    cross = 0.5 * np.sin(2.0 * theta) * (
        mu * nu.conjugate() * kappas.k01 + mu.conjugate() * nu * kappas.k10
    )
    value = mu**2 * kappas.k00 * w00 + cross + nu**2 * kappas.k11 * w11
    return _real_output(value, "analyzer fidelity formula")


def ghz_like_fidelity_formula(
    mu, nu, coeffs: GhzLikeCoeffs, bell: BellOutcome, charlie: CharlieOutcome
) -> float:
    """Computational-branch fidelity expression; the minus Bell branches reuse
    the plus ones, exactly as tabulated."""
    if charlie not in (CharlieOutcome.ZERO, CharlieOutcome.ONE):
        raise ValueError(f"expected a computational outcome, got {charlie}")
    mu, nu = complex(mu), complex(nu)
    m2, n2 = mu**2, nu**2
    phi = bell in (BellOutcome.PHI_PLUS, BellOutcome.PHI_MINUS)
    if charlie is CharlieOutcome.ONE:
        lead, tail = (coeffs.b1, coeffs.b16) if phi else (coeffs.b16, coeffs.b1)
        mid = coeffs.b4 + coeffs.b13
    else:
        lead, tail = (coeffs.b6, coeffs.b11) if phi else (coeffs.b11, coeffs.b6)
        mid = coeffs.b7 + coeffs.b10
    value = 0.5 * (m2**2 * lead + m2 * n2 * mid + n2**2 * tail)
    return _real_output(value, "computational fidelity formula")


def _format_value(value: complex) -> str:
    value = complex(value)
    if abs(value.imag) <= REAL_RESIDUE_TOL:
        return f"{value.real:.12g}"
    return f"{value.real:.12g}{value.imag:+.12g}j"


@dataclass(frozen=True)
class DiffRecord:
    """One ledger row: a named quantity at one grid point, both routes, and
    the absolute difference."""

    context: str
    p: float
    gamma: float
    theta: float
    quantity: str
    simulated: complex
    formula: complex

    @property
    def absdiff(self) -> float:
        return abs(complex(self.simulated) - complex(self.formula))


@dataclass
class DiffLedger:
    """Accumulates simulation-vs-formula rows and writes them as CSV."""

    rows: list[DiffRecord] = field(default_factory=list)

    HEADER = "context,p,gamma,theta,quantity,simulated,formula,absdiff"

    def add(self, record: DiffRecord) -> None:
        self.rows.append(record)

    def max_absdiff(self) -> float:
        return max((r.absdiff for r in self.rows), default=0.0)

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(self.HEADER + "\n")
            for r in self.rows:
                fh.write(
                    f"{r.context},{r.p:.12g},{r.gamma:.12g},{r.theta:.12g},"
                    f"{r.quantity},{_format_value(r.simulated)},"
                    f"{_format_value(r.formula)},{r.absdiff:.12g}\n"
                )
