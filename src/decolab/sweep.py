"""Parameter sweeps over (p, gamma, theta) grids: the datasets behind the
negativity-decay and fidelity curve families, plus channel validation and the
simulation-vs-formula diff.

Grid points are damped one after another. A negativity sweep scores each p
row as one (G, 8, 8) stack, a fidelity sweep point by point. Records are
emitted in a fixed p-major, gamma-minor order, so the same spec always gives
the same output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import closedform, entanglement, states, teleport
from .channels import ApplicationMode, KrausVariant, apply_channel, build_kraus, gad_raw, gad_standard, completeness_defect
from .closedform import DiffLedger, DiffRecord
from .errors import NumericalError
from .teleport import BellOutcome, CharlieOutcome, ResourceKind


class Quantity(Enum):
    NEGATIVITY = "negativity"
    FIDELITY_BRANCH = "fidelity_branch"
    FIDELITY_AVG = "fidelity_avg"


_ANALYZER = (CharlieOutcome.X1, CharlieOutcome.X2)
_COMPUTATIONAL = (CharlieOutcome.ZERO, CharlieOutcome.ONE)


# Amplitude names and defaults of each resource family, in argument order.
FAMILY_AMPLITUDES = {
    ResourceKind.GHZ: (("alpha", states.SQRT_HALF), ("beta", states.SQRT_HALF)),
    ResourceKind.GHZ_LIKE: (("c1", 1.0), ("c2", 1.0), ("c3", 1.0), ("c4", 1.0)),
}


def resource_vector(kind: ResourceKind, params) -> np.ndarray:
    """State vector of a resource family from its amplitudes."""
    if kind is ResourceKind.GHZ:
        return states.ghz(*params)
    return states.ghz_like(*params)


@dataclass(frozen=True)
class SweepSpec:
    """A fully validated sweep: resource family, channel settings, grids, and
    the quantity to record."""

    kind: ResourceKind
    quantity: Quantity
    state_params: tuple = ()
    mu: complex = states.SQRT_HALF
    nu: complex = states.SQRT_HALF
    variant: KrausVariant = KrausVariant.STANDARD
    mode: ApplicationMode = ApplicationMode.INDEPENDENT
    p_values: tuple[float, ...] = (0.0, 0.1, 0.3)
    gamma_start: float = 0.0
    gamma_stop: float = 1.0
    gamma_count: int = 51
    theta_values: tuple[float, ...] = (0.0,)
    bell: BellOutcome | None = None
    charlie: CharlieOutcome | None = None

    def __post_init__(self):
        amplitudes = FAMILY_AMPLITUDES[self.kind]
        if not self.state_params:
            object.__setattr__(self, "state_params", tuple(d for _, d in amplitudes))
        if len(self.state_params) != len(amplitudes):
            raise ValueError(
                f"{self.kind.value} takes {len(amplitudes)} state parameters, "
                f"got {len(self.state_params)}"
            )
        self.resource_vector()  # normalization check
        states.qubit(self.mu, self.nu)
        if not self.p_values:
            raise ValueError("p_values must be nonempty")
        for p in self.p_values:
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"p value {p} outside [0, 1]")
        if not (0.0 <= self.gamma_start <= 1.0 and 0.0 <= self.gamma_stop <= 1.0):
            raise ValueError("gamma grid must lie within [0, 1]")
        if self.gamma_count < (1 if self.gamma_start == self.gamma_stop else 2):
            raise ValueError("gamma grid needs at least 2 points (1 if gamma_start == gamma_stop)")
        for theta in self.theta_values:
            if not math.isfinite(theta):
                raise ValueError(f"theta value {theta} is not finite")
        if self.quantity is Quantity.FIDELITY_BRANCH:
            if self.bell is None or self.charlie is None:
                raise ValueError("fidelity_branch requires a (bell, charlie) selector")
            allowed = _ANALYZER if self.kind is ResourceKind.GHZ else _COMPUTATIONAL
            if self.charlie not in allowed:
                raise ValueError(
                    f"charlie outcome {self.charlie.value} does not fit {self.kind.value}"
                )

    def resource_vector(self) -> np.ndarray:
        return resource_vector(self.kind, self.state_params)

    def gamma_grid(self) -> tuple[float, ...]:
        return tuple(
            float(g) for g in np.linspace(self.gamma_start, self.gamma_stop, self.gamma_count)
        )


@dataclass(frozen=True)
class SweepRecord:
    p: float
    gamma: float
    theta: float
    quantity: str
    value: float

    def __post_init__(self):
        if not math.isfinite(self.value):
            raise ValueError(f"record value {self.value!r} is not finite")


def _quantity_label(spec: SweepSpec) -> str:
    if spec.quantity is Quantity.FIDELITY_BRANCH:
        return f"fidelity_{spec.bell.value}_{spec.charlie.value}"
    return spec.quantity.value


def _damp(spec: SweepSpec, rho0: np.ndarray, p: float, gamma: float) -> np.ndarray:
    kraus = build_kraus(spec.variant, p, gamma)
    try:
        # Renormalization is a no-op for a trace-preserving set and required for
        # gad_raw and for CORRELATED application, so it is always on here.
        return apply_channel(rho0, kraus, (0, 1, 2), spec.mode, renormalize=True)
    except NumericalError as exc:
        raise NumericalError(f"at grid point p={p:g}, gamma={gamma:g}: {exc}") from exc


def _fidelity(spec: SweepSpec, rho_f: np.ndarray, theta: float) -> float:
    result = teleport.run_protocol(spec.mu, spec.nu, rho_f, spec.kind, theta)
    if spec.quantity is Quantity.FIDELITY_AVG:
        return result.average_fidelity
    run = result.branch(spec.bell, spec.charlie)
    # An unobservable branch (probability 0) is recorded as 0, not NaN.
    return run.fidelity if run.fidelity is not None else 0.0


def run_sweep(spec: SweepSpec) -> list[SweepRecord]:
    """Evaluate the full p x gamma x theta grid, in deterministic order."""
    rho0 = states.density(spec.resource_vector())
    gammas, label = spec.gamma_grid(), _quantity_label(spec)
    records = []
    for p in spec.p_values:
        row = [_damp(spec, rho0, p, gamma) for gamma in gammas]
        if spec.quantity is Quantity.NEGATIVITY:
            values = entanglement.geometric_mean(entanglement.cut_negativities(np.stack(row)))
            records += [
                SweepRecord(p, gamma, theta, label, float(value))
                for gamma, value in zip(gammas, values)
                for theta in spec.theta_values
            ]
        else:
            records += [
                SweepRecord(p, gamma, theta, label, _fidelity(spec, rho_f, theta))
                for gamma, rho_f in zip(gammas, row)
                for theta in spec.theta_values
            ]
    return records


@dataclass(frozen=True)
class ChannelCheckRow:
    p: float
    gamma: float
    defect_standard: float
    defect_raw: float


DEFAULT_CHECK_GRID = (0.0, 0.25, 0.5, 0.75, 1.0)


def channel_check(p_values=DEFAULT_CHECK_GRID, gamma_values=DEFAULT_CHECK_GRID) -> list[ChannelCheckRow]:
    """Completeness defect of both Kraus variants over a (p, gamma) grid."""
    return [
        ChannelCheckRow(
            float(p),
            float(gamma),
            completeness_defect(gad_standard(p, gamma)),
            completeness_defect(gad_raw(p, gamma)),
        )
        for p in p_values
        for gamma in gamma_values
    ]


def formula_diff(spec: SweepSpec) -> DiffLedger:
    """Diff the closed-form coefficients against the simulated damped state,
    entry by entry, over the spec's (p, gamma) grid.

    GHZ coefficients are doubled before comparison (they carry a 1/2 prefactor
    relative to a normalized state); GHZ-like coefficients compare directly.
    """
    rho0 = states.density(spec.resource_vector())
    ghz = spec.kind is ResourceKind.GHZ
    context = "ghz_coeffs" if ghz else "ghz_like_coeffs"
    coeffs_of = closedform.ghz_coeffs if ghz else closedform.ghz_like_coeffs
    ledger = DiffLedger()
    for p in spec.p_values:
        for gamma in spec.gamma_grid():
            kraus = build_kraus(spec.variant, p, gamma)
            rho_f = apply_channel(rho0, kraus, (0, 1, 2), spec.mode, renormalize=True)
            point = (float(p), float(gamma), 0.0)
            for label, row, col, value in coeffs_of(*spec.state_params, p, gamma).entries():
                simulated = complex(rho_f[row, col])
                formula = complex(2.0 * value if ghz else value)
                ledger.add(DiffRecord(context, *point, label, simulated, formula))
    return ledger


CSV_HEADER = "p,gamma,theta,quantity,value"


def emit_csv(records, path) -> None:
    """Write records as CSV: fixed header, 12 significant digits, LF endings."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(CSV_HEADER + "\n")
        for r in records:
            fh.write(f"{r.p:.12g},{r.gamma:.12g},{r.theta:.12g},{r.quantity},{r.value:.12g}\n")


def read_csv(path) -> list[SweepRecord]:
    """Parse a file written by emit_csv back into records."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError(f"{path} does not start with the expected header")
    records = []
    for line in lines[1:]:
        p, gamma, theta, quantity, value = line.split(",")
        records.append(SweepRecord(float(p), float(gamma), float(theta), quantity, float(value)))
    return records
