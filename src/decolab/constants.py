"""Numerical tolerances, centralized so every module agrees on what "zero" means."""

# Maximum allowed |H - H^dagger| entry before a matrix is rejected as non-Hermitian.
HERMITICITY_TOL = 1e-10

# Trace bookkeeping (partial traces, channel outputs).
TRACE_TOL = 1e-12

# State-vector and parameter normalization (|alpha|^2 + |beta|^2 = 1, etc.).
NORM_TOL = 1e-10

# A Kraus set counts as trace preserving when ||sum E^dag E - I||_F is below this.
KRAUS_COMPLETENESS_TOL = 1e-10

# Most negative eigenvalue tolerated before an input is rejected as non-PSD.
PSD_TOL = 1e-9

# Partial-transpose eigenvalues closer to zero than this do not count as negative,
# so solver noise cannot manufacture entanglement on PPT states.
NEG_EIG_CUTOFF = 1e-12

# Renormalizing a channel output with a trace at or below this is an error,
# never a silent zero state.
ZERO_TRACE_TOL = 1e-14

# Measurement operators must satisfy P^2 = P within this.
PROJECTOR_TOL = 1e-10

# Largest imaginary residue tolerated in a quantity that must be real
# (probabilities, fidelities, analytic formula outputs).
REAL_RESIDUE_TOL = 1e-10
