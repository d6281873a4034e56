"""decolab: damped three-qubit entanglement and teleportation laboratory.

Simulates GHZ and GHZ-like resource states passing through a generalized
amplitude damping channel, quantifies what entanglement survives (tripartite
negativity), runs the full three-party teleportation protocol on the damped
resource, and diffs the closed-form coefficient route against the Kraus
simulation. Everything is immutable after construction and pure, so the whole
API is safe to share across threads.
"""

from .channels import (
    ApplicationMode,
    KrausSet,
    KrausVariant,
    apply_channel,
    build_kraus,
    completeness_defect,
    gad_raw,
    gad_standard,
)
from .closedform import (
    BellKappas,
    DiffLedger,
    DiffRecord,
    GhzCoeffs,
    GhzLikeCoeffs,
    bell_kappas,
    diff_report,
    ghz_coeffs,
    ghz_fidelity_formula,
    ghz_like_coeffs,
    ghz_like_fidelity_formula,
)
from .entanglement import NegativityReport, negativity_cut, tripartite_negativity
from .errors import NumericalError, RunfileError
from .runfile import RunConfig, parse_runfile
from .states import (
    analyzer_basis,
    bell_basis,
    density,
    ghz,
    ghz_like,
    maximal_ghz,
    maximal_ghz_like,
    qubit,
)
from .sweep import (
    Quantity,
    SweepRecord,
    SweepSpec,
    channel_check,
    emit_csv,
    formula_diff,
    read_csv,
    run_sweep,
)
from .svg import emit_svg_lineplot
from .teleport import (
    BellOutcome,
    CharlieOutcome,
    Correction,
    ProtocolResult,
    ProtocolRun,
    ResourceKind,
    correction_lookup,
    correction_matrix,
    fidelity,
    run_protocol,
)

__version__ = "0.1.0"

__all__ = [
    "ApplicationMode",
    "BellKappas",
    "BellOutcome",
    "CharlieOutcome",
    "Correction",
    "DiffLedger",
    "DiffRecord",
    "GhzCoeffs",
    "GhzLikeCoeffs",
    "KrausSet",
    "KrausVariant",
    "NegativityReport",
    "NumericalError",
    "ProtocolResult",
    "ProtocolRun",
    "Quantity",
    "ResourceKind",
    "RunConfig",
    "RunfileError",
    "SweepRecord",
    "SweepSpec",
    "analyzer_basis",
    "apply_channel",
    "bell_basis",
    "bell_kappas",
    "build_kraus",
    "channel_check",
    "completeness_defect",
    "correction_lookup",
    "correction_matrix",
    "density",
    "diff_report",
    "emit_csv",
    "emit_svg_lineplot",
    "fidelity",
    "formula_diff",
    "gad_raw",
    "gad_standard",
    "ghz",
    "ghz_coeffs",
    "ghz_fidelity_formula",
    "ghz_like",
    "ghz_like_coeffs",
    "ghz_like_fidelity_formula",
    "maximal_ghz",
    "maximal_ghz_like",
    "negativity_cut",
    "parse_runfile",
    "qubit",
    "read_csv",
    "run_protocol",
    "run_sweep",
    "tripartite_negativity",
]
