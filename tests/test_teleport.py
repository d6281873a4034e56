import numpy as np
import pytest

from decolab import states
from decolab.channels import apply_channel, gad_standard
from decolab.teleport import (
    BellOutcome,
    CharlieOutcome,
    Correction,
    ResourceKind,
    correction_lookup,
    correction_matrix,
    fidelity,
    project_measurement,
    run_protocol,
)

from conftest import kron_embed, random_density, random_payload

B, C = BellOutcome, CharlieOutcome

GHZ_TABLE = [
    (B.PHI_PLUS, C.X1, Correction.IDENTITY),
    (B.PHI_PLUS, C.X2, Correction.SZ),
    (B.PHI_MINUS, C.X1, Correction.SZ),
    (B.PHI_MINUS, C.X2, Correction.IDENTITY),
    (B.PSI_PLUS, C.X1, Correction.IDENTITY),
    (B.PSI_PLUS, C.X2, Correction.SZ),
    (B.PSI_MINUS, C.X1, Correction.SZ),
    (B.PSI_MINUS, C.X2, Correction.IDENTITY),
]

GHZ_LIKE_TABLE = [
    (B.PHI_PLUS, C.ONE, Correction.IDENTITY),
    (B.PHI_PLUS, C.ZERO, Correction.SX),
    (B.PHI_MINUS, C.ONE, Correction.SZ),
    (B.PHI_MINUS, C.ZERO, Correction.SX_SZ),
    (B.PSI_PLUS, C.ONE, Correction.SX),
    (B.PSI_PLUS, C.ZERO, Correction.IDENTITY),
    (B.PSI_MINUS, C.ONE, Correction.SX_SZ),
    (B.PSI_MINUS, C.ZERO, Correction.SZ),
]


@pytest.mark.parametrize("bell,charlie,expected", GHZ_TABLE)
def test_ghz_correction_table(bell, charlie, expected):
    assert correction_lookup(ResourceKind.GHZ, bell, charlie) is expected


@pytest.mark.parametrize("bell,charlie,expected", GHZ_LIKE_TABLE)
def test_ghz_like_correction_table(bell, charlie, expected):
    assert correction_lookup(ResourceKind.GHZ_LIKE, bell, charlie) is expected


def test_correction_kind_mismatch():
    with pytest.raises(ValueError, match="analyzer"):
        correction_lookup(ResourceKind.GHZ, B.PHI_PLUS, C.ONE)
    with pytest.raises(ValueError, match="computational"):
        correction_lookup(ResourceKind.GHZ_LIKE, B.PHI_PLUS, C.X1)


def test_correction_matrices():
    assert np.array_equal(correction_matrix(Correction.IDENTITY), np.eye(2))
    assert np.array_equal(correction_matrix(Correction.SZ), np.diag([1, -1]).astype(complex))
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sz = np.diag([1, -1]).astype(complex)
    assert np.array_equal(correction_matrix(Correction.SX), sx)
    assert np.array_equal(correction_matrix(Correction.SX_SZ), sx @ sz)


def test_project_certain_outcome():
    rho = states.density(states.ghz(1, 0))  # |000>
    prob, post = project_measurement(rho, np.diag([1, 0]).astype(complex), (0,))
    assert prob == pytest.approx(1.0, abs=1e-12)
    expected = np.zeros((4, 4), dtype=complex)
    expected[0, 0] = 1.0
    assert np.allclose(post, expected, atol=1e-12)


def test_project_bell_branch_of_ideal_system():
    s = 1 / np.sqrt(2)
    rho = np.kron(states.density(states.qubit(s, s)), states.density(states.maximal_ghz()))
    phi_plus = states.bell_basis()[0]
    prob, post = project_measurement(rho, np.outer(phi_plus, phi_plus.conj()), (0, 1))
    assert prob == pytest.approx(0.25, abs=1e-12)
    # branch state on (2, 3) is mu|00> + nu|11>, here phi+ itself
    assert np.allclose(post, np.outer(phi_plus, phi_plus.conj()), atol=1e-12)


def test_project_non_contiguous_reversed_qubits(rng):
    # rank-1 projector on qubits (2, 0) of a random 3-qubit state; Bob keeps qubit 1
    rho = random_density(rng, 8)
    v = rng.normal(size=4) + 1j * rng.normal(size=4)
    proj = np.outer(v, v.conj()) / np.vdot(v, v).real
    prob, post = project_measurement(rho, proj, (2, 0))
    lifted = kron_embed(proj, (2, 0), 3)
    branch = lifted @ rho @ lifted
    expected_prob = np.trace(branch).real
    expected_post = np.einsum("aibajb->ij", branch.reshape([2] * 6)) / expected_prob
    assert prob == pytest.approx(expected_prob, abs=1e-14)
    assert np.allclose(post, expected_post, atol=1e-13)


def test_project_impossible_outcome_absent():
    rho = states.density(states.ghz(1, 0))
    prob, post = project_measurement(rho, np.diag([0, 1]).astype(complex), (0,))
    assert prob == 0.0
    assert post is None


def test_project_rejects_non_projector():
    rho = states.density(states.qubit(1, 0))
    with pytest.raises(ValueError, match="idempotent"):
        project_measurement(np.kron(rho, rho), np.diag([0.5, 0.5]).astype(complex), (0,))


def test_fidelity_examples():
    assert fidelity(np.diag([1, 0]).astype(complex), 1, 0) == pytest.approx(1.0)
    assert fidelity(np.eye(2) / 2, 0.6, 0.8) == pytest.approx(0.5)
    assert fidelity(np.diag([0, 1]).astype(complex), 1, 0) == pytest.approx(0.0)


def test_fidelity_rejects_bad_state():
    with pytest.raises(ValueError, match="trace"):
        fidelity(np.eye(2), 1, 0)


def test_ideal_ghz_like_teleports_perfectly(rng):
    rho = states.density(states.maximal_ghz_like())
    for _ in range(20):
        mu, nu = random_payload(rng)
        result = run_protocol(mu, nu, rho, ResourceKind.GHZ_LIKE)
        assert len(result.runs) == 8
        for run in result.runs:
            assert run.fidelity == pytest.approx(1.0, abs=1e-10)
        assert result.average_fidelity == pytest.approx(1.0, abs=1e-10)
        assert sum(r.probability for r in result.runs) == pytest.approx(1.0, abs=1e-10)


def test_ghz_like_protocol_ignores_theta(rng):
    rho = states.density(states.maximal_ghz_like())
    mu, nu = random_payload(rng)
    a = run_protocol(mu, nu, rho, ResourceKind.GHZ_LIKE, theta=0.0)
    b = run_protocol(mu, nu, rho, ResourceKind.GHZ_LIKE, theta=1.0)
    for ra, rb in zip(a.runs, b.runs):
        assert ra.probability == pytest.approx(rb.probability, abs=1e-12)
        assert ra.fidelity == pytest.approx(rb.fidelity, abs=1e-12)


def test_maximally_mixed_resource_floor(rng):
    rho = np.eye(8, dtype=complex) / 8
    for kind, theta in ((ResourceKind.GHZ, 0.4), (ResourceKind.GHZ_LIKE, 0.0)):
        mu, nu = random_payload(rng)
        result = run_protocol(mu, nu, rho, kind, theta)
        for run in result.runs:
            assert run.probability == pytest.approx(1 / 8, abs=1e-12)
            assert run.fidelity == pytest.approx(0.5, abs=1e-10)
        assert result.average_fidelity == pytest.approx(0.5, abs=1e-10)


def test_ideal_ghz_at_x_basis_angle():
    # At theta = pi/4 the analyzer is the {|+>, |->} pair: the phi branches
    # teleport perfectly under their I/S_z corrections, while the psi branches
    # end bit-flipped because the table assigns them no S_x factor.
    mu, nu = 0.6, 0.8
    rho = states.density(states.maximal_ghz())
    result = run_protocol(mu, nu, rho, ResourceKind.GHZ, theta=np.pi / 4)
    swapped = (2 * mu * nu) ** 2
    for run in result.runs:
        assert run.probability == pytest.approx(1 / 8, abs=1e-12)
        expected = 1.0 if run.bell in (B.PHI_PLUS, B.PHI_MINUS) else swapped
        assert run.fidelity == pytest.approx(expected, abs=1e-10)


def test_ideal_ghz_at_zero_angle_is_classical():
    # theta = 0 reads Charlie's qubit in the computational basis, which breaks
    # the quantum correlation: every branch collapses Bob onto |0> or |1>, so
    # x1 branches score mu^2, x2 branches nu^2, and the average is exactly 1/2.
    mu, nu = 0.6, 0.8
    rho = states.density(states.maximal_ghz())
    result = run_protocol(mu, nu, rho, ResourceKind.GHZ, theta=0.0)
    for run in result.runs:
        expected = mu**2 if run.charlie is C.X1 else nu**2
        assert run.fidelity == pytest.approx(expected, abs=1e-10)
    assert result.average_fidelity == pytest.approx(0.5, abs=1e-10)


def damped(state_vec, p, gamma):
    rho = states.density(state_vec)
    return apply_channel(rho, gad_standard(p, gamma), (0, 1, 2), renormalize=True)


def test_probabilities_sum_to_one_on_damped_resources(rng):
    for kind, vec in (
        (ResourceKind.GHZ, states.maximal_ghz()),
        (ResourceKind.GHZ_LIKE, states.maximal_ghz_like()),
    ):
        for p, gamma, theta in [(0.2, 0.3, 0.5), (0.7, 0.6, 1.2), (1.0, 0.9, 0.0)]:
            mu, nu = random_payload(rng)
            result = run_protocol(mu, nu, damped(vec, p, gamma), kind, theta)
            assert sum(r.probability for r in result.runs) == pytest.approx(1.0, abs=1e-10)


def test_minus_branches_match_plus_branches():
    # the minus Bell branches reproduce the plus ones once corrected
    mu, nu = 0.6, 0.8
    cases = [
        (ResourceKind.GHZ, states.maximal_ghz(), 0.7, (C.X1, C.X2)),
        (ResourceKind.GHZ_LIKE, states.maximal_ghz_like(), 0.0, (C.ZERO, C.ONE)),
    ]
    for kind, vec, theta, charlies in cases:
        result = run_protocol(mu, nu, damped(vec, 0.3, 0.25), kind, theta)
        for plus, minus in ((B.PHI_PLUS, B.PHI_MINUS), (B.PSI_PLUS, B.PSI_MINUS)):
            for charlie in charlies:
                assert result.branch(minus, charlie).fidelity == pytest.approx(
                    result.branch(plus, charlie).fidelity, abs=1e-10
                )


def test_theta_periodicity():
    mu, nu = 0.6, 0.8
    rho = damped(states.maximal_ghz(), 0.3, 0.25)
    for theta in (0.0, 0.4, 1.1):
        a = run_protocol(mu, nu, rho, ResourceKind.GHZ, theta)
        b = run_protocol(mu, nu, rho, ResourceKind.GHZ, theta + np.pi)
        for ra, rb in zip(a.runs, b.runs):
            assert ra.probability == pytest.approx(rb.probability, abs=1e-10)
            assert ra.fidelity == pytest.approx(rb.fidelity, abs=1e-10)


def test_zero_probability_branches_reported_absent():
    # full decay at p=1 leaves |000>; at theta=0 the x2/one outcomes can't occur
    rho = damped(states.maximal_ghz(), 1.0, 1.0)
    result = run_protocol(0.6, 0.8, rho, ResourceKind.GHZ, theta=0.0)
    absent = [r for r in result.runs if r.fidelity is None]
    present = [r for r in result.runs if r.fidelity is not None]
    assert absent and present
    for run in absent:
        assert run.probability == 0.0
        assert run.bob_state is None
    assert sum(r.probability for r in result.runs) == pytest.approx(1.0, abs=1e-10)


def test_rejects_bad_resource():
    with pytest.raises(ValueError, match="three-qubit"):
        run_protocol(1, 0, np.eye(4) / 4, ResourceKind.GHZ)
    with pytest.raises(ValueError, match="trace"):
        run_protocol(1, 0, np.eye(8), ResourceKind.GHZ)
