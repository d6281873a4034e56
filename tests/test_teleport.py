import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from decolab import states
from decolab.constants import ZERO_TRACE_TOL
from decolab.channels import apply_channel, gad_standard
from decolab.teleport import (
    BellOutcome,
    CharlieOutcome,
    Correction,
    ResourceKind,
    correction_lookup,
    correction_matrix,
    fidelity,
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


def test_fidelity_examples():
    assert fidelity(np.diag([1, 0]).astype(complex), 1, 0) == pytest.approx(1.0)
    assert fidelity(np.eye(2) / 2, 0.6, 0.8) == pytest.approx(0.5)
    assert fidelity(np.diag([0, 1]).astype(complex), 1, 0) == pytest.approx(0.0)


def test_fidelity_rejects_bad_state():
    with pytest.raises(ValueError, match=r"expected a single-qubit state, got shape \(4, 4\)"):
        fidelity(np.eye(4) / 4, 1, 0)
    with pytest.raises(ValueError, match="Bob state is not Hermitian"):
        fidelity([[0.5, 0.1], [0.0, 0.5]], 1, 0)
    with pytest.raises(ValueError, match="Bob state trace is not 1"):
        fidelity(np.eye(2), 1, 0)
    with pytest.raises(ValueError, match=r"fidelity 1.5 outside \[0, 1\]"):
        fidelity(np.diag([1.5, -0.5]), 1, 0)


def test_run_protocol_scores_branches_with_fidelity_checks():
    # Hermitian with unit trace but not positive: Bob's (phi+, 0) state is
    # diag(1.5, -0.5), which the S_x correction turns into fidelity -0.5.
    resource = np.diag([1.5, 0, -0.5, 0, 0, 0, 0, 0]).astype(complex)
    with pytest.raises(ValueError, match=r"fidelity -0.5 outside \[0, 1\]"):
        run_protocol(1, 0, resource, ResourceKind.GHZ_LIKE)


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


def charlie_vectors(kind, theta):
    if kind is ResourceKind.GHZ:
        return dict(zip((C.X1, C.X2), states.analyzer_basis(theta)))
    return {C.ZERO: np.array([1, 0], dtype=complex), C.ONE: np.array([0, 1], dtype=complex)}


def projected_branches(mu, nu, resource, kind, theta):
    """{(bell, charlie): (probability, Bob's corrected state, fidelity) or None},
    from explicit projectors on the 4-qubit register payload (x) resource."""
    payload = states.qubit(mu, nu)
    system = np.kron(np.outer(payload, payload.conj()), resource)
    out = {}
    for bell, b in zip(BellOutcome, states.bell_basis()):
        bell_proj = kron_embed(np.outer(b, b.conj()), (0, 1), 4)
        bell_prob = np.trace(bell_proj @ system @ bell_proj).real
        for charlie, c in charlie_vectors(kind, theta).items():
            proj = bell_proj @ kron_embed(np.outer(c, c.conj()), (3,), 4)
            branch = proj @ system @ proj
            joint = np.trace(branch).real
            if bell_prob <= ZERO_TRACE_TOL or joint / bell_prob <= ZERO_TRACE_TOL:
                out[bell, charlie] = None
                continue
            # trace out qubits 0, 1 and 3; Bob keeps qubit 2
            bob = np.einsum("abydabzd->yz", branch.reshape([2] * 8)) / joint
            u = correction_matrix(correction_lookup(kind, bell, charlie))
            bob = u @ bob @ u.conj().T
            probability = min(bell_prob, 1.0) * min(joint / bell_prob, 1.0)
            out[bell, charlie] = (probability, bob, (payload.conj() @ bob @ payload).real)
    return out


def assert_matches_projection(mu, nu, resource, kind, theta):
    result = run_protocol(mu, nu, resource, kind, theta)
    expected = projected_branches(mu, nu, resource, kind, theta)
    assert [(r.bell, r.charlie) for r in result.runs] == list(expected)
    for run in result.runs:
        branch = expected[run.bell, run.charlie]
        if branch is None:
            assert (run.probability, run.bob_state, run.fidelity) == (0.0, None, None)
            continue
        probability, bob, fid = branch
        assert abs(run.probability - probability) <= 1e-12
        assert np.abs(run.bob_state - bob).max() <= 1e-12
        assert abs(run.fidelity - fid) <= 1e-12
    assert abs(sum(r.probability for r in result.runs) - 1.0) <= 1e-12


seeds = st.integers(min_value=0, max_value=2**32 - 1)
angles = st.floats(min_value=-4.0, max_value=4.0, allow_nan=False)


@settings(max_examples=60, deadline=None)
@given(seeds, angles, st.sampled_from(ResourceKind))
def test_branches_match_kron_embed_projection(seed, theta, kind):
    rng = np.random.default_rng(seed)
    mu, nu = random_payload(rng)
    assert_matches_projection(mu, nu, random_density(rng, 8), kind, theta)


def test_absent_branches_match_kron_embed_projection():
    # Computational basis resources leave branches with probability exactly 0:
    # Charlie's outcome alone, or with the payload |0>, the Bell outcome too.
    for kind in ResourceKind:
        for theta in (0.0, np.pi / 4, np.pi / 2, 1.0):
            for mu, nu in ((0.6, 0.8j), (1.0, 0.0)):
                for index in range(8):
                    resource = np.zeros((8, 8), dtype=complex)
                    resource[index, index] = 1.0
                    assert_matches_projection(mu, nu, resource, kind, theta)


@settings(max_examples=60, deadline=None)
@given(seeds, angles)
def test_ghz_branches_are_affine_in_cos_and_sin_of_two_theta(seed, theta):
    # Charlie's analyzer projector is (I + cos2t Z + sin2t X) / 2, so every
    # branch's probability and probability x fidelity is A + B cos2t + C sin2t.
    rng = np.random.default_rng(seed)
    mu, nu = random_payload(rng)
    resource = random_density(rng, 8)

    def weights(t):
        runs = run_protocol(mu, nu, resource, ResourceKind.GHZ, t).runs
        return np.array([[r.probability, r.probability * r.fidelity] for r in runs])

    def basis(t):
        return [1.0, np.cos(2 * t), np.sin(2 * t)]

    fit_angles = (0.0, np.pi / 4, np.pi / 2)
    samples = np.array([weights(t) for t in fit_angles])  # (angle, branch, weight)
    coeffs = np.linalg.solve([basis(t) for t in fit_angles], samples.reshape(3, -1))
    predicted = (basis(theta) @ coeffs).reshape(8, 2)
    assert np.abs(weights(theta) - predicted).max() <= 1e-12


@settings(max_examples=60, deadline=None)
@given(seeds, angles, st.sampled_from(ResourceKind))
def test_branch_fidelities_match_public_fidelity(seed, theta, kind):
    rng = np.random.default_rng(seed)
    mu, nu = random_payload(rng)
    result = run_protocol(mu, nu, random_density(rng, 8), kind, theta)
    for run in result.runs:
        if run.fidelity is not None:
            assert abs(run.fidelity - fidelity(run.bob_state, mu, nu)) <= 1e-15


def test_bob_states_do_not_share_writes():
    rho = damped(states.maximal_ghz_like(), 0.3, 0.25)
    first = run_protocol(0.6, 0.8j, rho, ResourceKind.GHZ_LIKE)
    before = [run.bob_state.copy() for run in first.runs]
    first.runs[0].bob_state[...] = 7.0
    for run, state in zip(first.runs[1:], before[1:]):
        assert np.array_equal(run.bob_state, state)
    again = run_protocol(0.6, 0.8j, rho, ResourceKind.GHZ_LIKE)
    for run, state in zip(again.runs, before):
        assert np.array_equal(run.bob_state, state)
