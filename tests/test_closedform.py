import numpy as np
import pytest

from decolab import states
from decolab.channels import apply_channel, gad_standard
from decolab.closedform import (
    BellKappas,
    DiffLedger,
    DiffRecord,
    bell_kappas,
    ghz_coeffs,
    ghz_fidelity_formula,
    ghz_like_coeffs,
    ghz_like_fidelity_formula,
)
from decolab.teleport import BellOutcome, CharlieOutcome, ResourceKind, run_protocol

B, C = BellOutcome, CharlieOutcome
SQ = 1 / np.sqrt(2)


def test_ghz_coeffs_no_noise():
    coeffs = ghz_coeffs(SQ, SQ, 0.0, 0.0)
    for value in (coeffs.a1, coeffs.a2, coeffs.a3, coeffs.a4):
        assert value == pytest.approx(0.25, abs=1e-12)


def test_ghz_coeffs_full_damping_kills_coherences():
    coeffs = ghz_coeffs(SQ, SQ, 0.4, 1.0)
    assert coeffs.a2 == 0.0
    assert coeffs.a3 == 0.0


def test_ghz_coeffs_strength_one():
    coeffs = ghz_coeffs(SQ, SQ, 1.0, 0.0)
    assert coeffs.a1 == pytest.approx(0.25, abs=1e-12)
    assert coeffs.a4 == pytest.approx(0.25, abs=1e-12)


def test_ghz_coeffs_conjugate_pair_for_real_amplitudes():
    coeffs = ghz_coeffs(0.5, np.sqrt(3) / 2, 0.3, 0.2)
    assert coeffs.a2 == pytest.approx(np.conj(coeffs.a3), abs=1e-12)


def test_ghz_coeffs_match_undamped_state():
    # with no noise the doubled coefficients are the density-matrix entries
    for alpha, beta in ((SQ, SQ), (0.5, np.sqrt(3) / 2)):
        coeffs = ghz_coeffs(alpha, beta, 0.0, 0.0)
        rho = states.density(states.ghz(alpha, beta))
        assert 2 * coeffs.a1 == pytest.approx(rho[0, 0], abs=1e-12)
        assert 2 * coeffs.a2 == pytest.approx(rho[0, 7], abs=1e-12)
        assert 2 * coeffs.a3 == pytest.approx(rho[7, 0], abs=1e-12)
        assert 2 * coeffs.a4 == pytest.approx(rho[7, 7], abs=1e-12)


def test_ghz_like_coeffs_no_noise_maximal():
    coeffs = ghz_like_coeffs(1, 1, 1, 1, 0.0, 0.0)
    assert coeffs.kappa1 == pytest.approx(0.25, abs=1e-12)
    assert coeffs.kappa2 == pytest.approx(0.25, abs=1e-12)
    assert coeffs.kappa3 == pytest.approx(0.25, abs=1e-12)
    for i in (1, 6, 11, 16):
        assert coeffs.b(i) == pytest.approx(0.25, abs=1e-12)


def test_ghz_like_coeffs_full_damping():
    p = 0.6
    coeffs = ghz_like_coeffs(1, 1, 1, 1, p, 1.0)
    assert coeffs.kappa1 == 0.0
    assert coeffs.kappa2 == 0.0
    assert coeffs.kappa3 == 0.0
    assert coeffs.b4 == pytest.approx(p**3 / 4, abs=1e-12)  # the extra p^3 term survives
    for i in range(1, 17):
        if i != 4:
            assert coeffs.b(i) == 0.0


def test_ghz_like_coeffs_common_factor():
    coeffs = ghz_like_coeffs(0.8, 0.7, 0.0, np.sqrt(4 - 0.64 - 0.49), 0.3, 0.2)
    assert coeffs.b1 == 0.0
    assert coeffs.b2 == 0.0
    assert coeffs.b3 == 0.0


def test_ghz_like_b13_b14_transcribed_duplicate():
    coeffs = ghz_like_coeffs(0.8, 0.7, 0.6, np.sqrt(2.51), 0.4, 0.3)
    assert coeffs.b13 == coeffs.b14


def test_bell_kappas_basis_payloads():
    coeffs = ghz_coeffs(0.5, np.sqrt(3) / 2, 0.3, 0.2)
    k = bell_kappas(1, 0, coeffs)
    assert (k.k00, k.k01, k.k10, k.k11) == (coeffs.a1, coeffs.a2, coeffs.a3, coeffs.a4)
    k = bell_kappas(0, 1, coeffs)
    assert (k.k00, k.k01, k.k10, k.k11) == (coeffs.a1, -coeffs.a2, -coeffs.a3, coeffs.a4)


def test_bell_kappas_symmetric_payload():
    coeffs = ghz_coeffs(SQ, SQ, 0.0, 0.0)
    k = bell_kappas(SQ, SQ, coeffs)
    assert k.k00 == pytest.approx(2 * coeffs.a1, abs=1e-12)
    assert k.k01 == pytest.approx(0.0, abs=1e-12)
    assert k.k10 == pytest.approx(0.0, abs=1e-12)
    assert k.k11 == pytest.approx(0.0, abs=1e-12)


def test_ghz_fidelity_formula_limits():
    coeffs = ghz_coeffs(SQ, SQ, 0.2, 0.3)
    k = bell_kappas(1, 0, coeffs)
    assert ghz_fidelity_formula(0.0, 1, 0, k, C.X1) == pytest.approx(k.k00.real, abs=1e-12)
    assert ghz_fidelity_formula(np.pi / 2, 1, 0, k, C.X1) == pytest.approx(0.0, abs=1e-12)


def test_ghz_fidelity_formula_symmetric_point():
    coeffs = ghz_coeffs(SQ, SQ, 0.0, 0.0)
    k = bell_kappas(SQ, SQ, coeffs)
    assert ghz_fidelity_formula(np.pi / 4, SQ, SQ, k, C.X1) == pytest.approx(0.125, abs=1e-12)


def test_ghz_fidelity_x1_x2_mirror():
    # the two analyzer branches are the same expression mirrored about pi/4
    coeffs = ghz_coeffs(0.5, np.sqrt(3) / 2, 0.35, 0.15)
    k = bell_kappas(0.6, 0.8, coeffs)
    for theta in np.linspace(0, np.pi, 9):
        left = ghz_fidelity_formula(theta, 0.6, 0.8, k, C.X1)
        right = ghz_fidelity_formula(np.pi / 2 - theta, 0.6, 0.8, k, C.X2)
        assert left == pytest.approx(right, abs=1e-12)


def test_ghz_fidelity_formula_rejects_analyzer_mismatch():
    coeffs = ghz_coeffs(SQ, SQ, 0.0, 0.0)
    k = bell_kappas(1, 0, coeffs)
    with pytest.raises(ValueError, match="analyzer"):
        ghz_fidelity_formula(0.0, 1, 0, k, C.ONE)


def test_ghz_fidelity_formula_imaginary_residue():
    k = BellKappas(1j, 0, 0, 0)
    with pytest.raises(ValueError, match="imaginary residue"):
        ghz_fidelity_formula(0.0, 1, 0, k, C.X1)


def test_ghz_like_formula_basis_payloads():
    coeffs = ghz_like_coeffs(0.8, 0.7, 0.6, np.sqrt(2.51), 0.3, 0.2)
    got = ghz_like_fidelity_formula(1, 0, coeffs, B.PHI_PLUS, C.ONE)
    assert got == pytest.approx(coeffs.b1.real / 2, abs=1e-12)
    got = ghz_like_fidelity_formula(1, 0, coeffs, B.PSI_PLUS, C.ONE)
    assert got == pytest.approx(coeffs.b16.real / 2, abs=1e-12)
    got = ghz_like_fidelity_formula(1, 0, coeffs, B.PHI_PLUS, C.ZERO)
    assert got == pytest.approx(coeffs.b6.real / 2, abs=1e-12)


def test_ghz_like_formula_minus_branches_reuse_plus():
    coeffs = ghz_like_coeffs(1, 1, 1, 1, 0.25, 0.4)
    for charlie in (C.ZERO, C.ONE):
        assert ghz_like_fidelity_formula(0.6, 0.8, coeffs, B.PHI_MINUS, charlie) == (
            ghz_like_fidelity_formula(0.6, 0.8, coeffs, B.PHI_PLUS, charlie)
        )
        assert ghz_like_fidelity_formula(0.6, 0.8, coeffs, B.PSI_MINUS, charlie) == (
            ghz_like_fidelity_formula(0.6, 0.8, coeffs, B.PSI_PLUS, charlie)
        )


def test_ghz_like_formula_matches_simulated_branch_weight_no_noise():
    # with no noise, each tabulated expression equals the simulated branch
    # probability times its fidelity
    coeffs = ghz_like_coeffs(1, 1, 1, 1, 0.0, 0.0)
    rho = states.density(states.maximal_ghz_like())
    for mu, nu in ((SQ, SQ), (0.6, 0.8), (1.0, 0.0)):
        result = run_protocol(mu, nu, rho, ResourceKind.GHZ_LIKE)
        for run in result.runs:
            formula = ghz_like_fidelity_formula(mu, nu, coeffs, run.bell, run.charlie)
            weight = run.probability * (run.fidelity if run.fidelity is not None else 0.0)
            assert formula == pytest.approx(weight, abs=1e-10)


def test_ghz_coeffs_deviate_from_simulation_under_noise():
    # away from the no-noise corner the closed forms and the channel disagree;
    # that gap is exactly what the diff ledger exists to record
    p, gamma = 0.5, 0.5
    coeffs = ghz_coeffs(SQ, SQ, p, gamma)
    rho = apply_channel(
        states.density(states.maximal_ghz()), gad_standard(p, gamma), (0, 1, 2)
    )
    assert abs(2 * coeffs.a1 - rho[0, 0]) > 1e-3


def test_diff_ledger_csv(tmp_path):
    ledger = DiffLedger()
    ledger.add(DiffRecord("ghz_coeffs", 0.5, 0.5, 0.0, "a1", 0.21875, 0.1328125))
    ledger.add(DiffRecord("ghz_coeffs", 0.0, 0.0, 0.0, "a2", 0.25, 0.25))
    path = tmp_path / "diffs.csv"
    ledger.write_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "context,p,gamma,theta,quantity,simulated,formula,absdiff"
    assert lines[1] == "ghz_coeffs,0.5,0.5,0,a1,0.21875,0.1328125,0.0859375"
    assert lines[2].endswith(",0")
    assert ledger.max_absdiff() == pytest.approx(0.0859375)
