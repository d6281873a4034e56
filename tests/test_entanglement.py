import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from decolab import states
from decolab.channels import ApplicationMode, KrausVariant, apply_channel, build_kraus, gad_standard
from decolab.constants import NEG_EIG_CUTOFF
from decolab.entanglement import cut_negativities, negativity_cut, tripartite_negativity

from conftest import random_density, random_unitary


def damped_ghz(p, gamma, mode=ApplicationMode.INDEPENDENT):
    rho = states.density(states.maximal_ghz())
    return apply_channel(rho, gad_standard(p, gamma), (0, 1, 2), mode, renormalize=True)


def damped_ghz_like(p, gamma):
    rho = states.density(states.maximal_ghz_like())
    return apply_channel(rho, gad_standard(p, gamma), (0, 1, 2), renormalize=True)


def test_maximal_ghz_every_cut_is_one():
    rho = states.density(states.maximal_ghz())
    for q in range(3):
        assert negativity_cut(rho, q) == pytest.approx(1.0, abs=1e-10)


def test_product_state_is_ppt():
    rho = states.density(states.ghz(1, 0))
    for q in range(3):
        assert negativity_cut(rho, q) == 0.0
    report = tripartite_negativity(rho)
    assert report.cuts() == (0.0, 0.0, 0.0)
    assert report.tripartite == 0.0


def test_partial_ghz_closed_form():
    # one negative PT eigenvalue at -|alpha*beta| gives N = 2|alpha*beta|
    alpha, beta = 0.5, np.sqrt(3) / 2
    rho = states.density(states.ghz(alpha, beta))
    assert negativity_cut(rho, 0) == pytest.approx(2 * alpha * beta, abs=1e-10)
    assert negativity_cut(rho, 0) == pytest.approx(np.sqrt(3) / 2, abs=1e-4)


def test_maximal_ghz_like_tripartite_is_one():
    rho = states.density(states.maximal_ghz_like())
    report = tripartite_negativity(rho)
    assert report.tripartite == pytest.approx(1.0, abs=1e-10)


def test_full_damping_kills_everything():
    for p in (0.0, 0.5, 1.0):
        for rho in (damped_ghz(p, 1.0), damped_ghz_like(p, 1.0)):
            report = tripartite_negativity(rho)
            assert report.tripartite == 0.0
            assert report.cuts() == (0.0, 0.0, 0.0)


def test_report_geometric_mean_consistency():
    rho = damped_ghz(0.3, 0.4)
    report = tripartite_negativity(rho)
    product = report.n_a_bc * report.n_b_ac * report.n_c_ab
    assert report.tripartite**3 == pytest.approx(product, abs=1e-12)


def test_permutation_symmetry_of_maximal_ghz():
    rho = damped_ghz(0.25, 0.35)
    report = tripartite_negativity(rho)
    assert report.n_a_bc == pytest.approx(report.n_b_ac, abs=1e-10)
    assert report.n_b_ac == pytest.approx(report.n_c_ab, abs=1e-10)


def test_local_unitary_invariance(rng):
    rho = damped_ghz_like(0.2, 0.3)
    base = tripartite_negativity(rho)
    for _ in range(3):
        u = np.kron(
            np.kron(random_unitary(rng, 2), random_unitary(rng, 2)), random_unitary(rng, 2)
        )
        rotated = u @ rho @ u.conj().T
        report = tripartite_negativity(rotated)
        for got, want in zip(report.cuts(), base.cuts()):
            assert got == pytest.approx(want, abs=1e-9)


@pytest.mark.parametrize("p", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("family", ["ghz", "ghz_like"])
def test_monotone_decay_in_gamma(p, family):
    build = damped_ghz if family == "ghz" else damped_ghz_like
    values = [tripartite_negativity(build(p, g)).tripartite for g in np.linspace(0, 1, 11)]
    for earlier, later in zip(values, values[1:]):
        assert later <= earlier + 1e-10


def test_components_within_single_qubit_cut_bound():
    for p, g in [(0.1, 0.2), (0.6, 0.5), (0.9, 0.8)]:
        report = tripartite_negativity(damped_ghz(p, g))
        for cut in report.cuts():
            assert -1e-12 <= cut <= 1.0 + 1e-9


def test_raw_variant_is_strength_sensitive_at_zero_damping():
    # the whole point of shipping gad_raw: with renormalization it loses
    # entanglement as p grows even at gamma=0, where the standard (physical)
    # variant is exactly the identity
    from decolab.channels import gad_raw

    rho = states.density(states.maximal_ghz())
    raw = [
        tripartite_negativity(
            apply_channel(rho, gad_raw(p, 0.0), (0, 1, 2), renormalize=True)
        ).tripartite
        for p in (0.0, 0.1, 0.3)
    ]
    assert raw[0] == pytest.approx(1.0, abs=1e-10)
    assert raw[1] < 0.5
    assert raw[2] < raw[1]
    std = tripartite_negativity(damped_ghz(0.3, 0.0)).tripartite
    assert std == pytest.approx(1.0, abs=1e-10)


def test_rejects_invalid_density():
    with pytest.raises(ValueError, match="trace"):
        negativity_cut(np.eye(8), 0)
    with pytest.raises(ValueError, match="8x8"):
        negativity_cut(np.eye(4) / 4, 0)
    with pytest.raises(ValueError, match="Hermitian"):
        bad = np.eye(8, dtype=complex) / 8
        bad[0, 1] = 0.5
        negativity_cut(bad, 0)


seeds = st.integers(min_value=0, max_value=2**32 - 1)
unit_interval = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
grid_points = st.lists(st.tuples(unit_interval, unit_interval), min_size=1, max_size=6)
X_SHAPE = (np.eye(8) + np.fliplr(np.eye(8))) > 0


def random_states(seed: int, count: int) -> np.ndarray:
    """Full-rank states, each mixed with a random pure state so that most are entangled."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        v = rng.normal(size=8) + 1j * rng.normal(size=8)
        v /= np.linalg.norm(v)
        w = rng.uniform(0.0, 0.95)
        out.append((1.0 - w) * random_density(rng, 8) + w * np.outer(v, v.conj()))
    return np.array(out)


def oracle_cut(rho, qubit: int) -> float:
    """Cut negativity from an index-by-index partial transpose and np.linalg.eigvalsh."""
    bit = 4 >> qubit
    pt = np.empty((8, 8), dtype=complex)
    for i in range(8):
        for j in range(8):
            # swap qubit `qubit` between the row index i and the column index j
            pt[(i & ~bit) | (j & bit), (j & ~bit) | (i & bit)] = rho[i, j]
    eigs = np.linalg.eigvalsh(pt)
    return -2.0 * eigs[eigs < -NEG_EIG_CUTOFF].sum()


@settings(max_examples=60, deadline=None)
@given(seeds, st.integers(min_value=1, max_value=5))
def test_stacked_cuts_match_per_state_oracle(seed, count):
    stack = random_states(seed, count)
    cuts = cut_negativities(stack)
    assert cuts.shape == (count, 3)
    want = [[oracle_cut(rho, q) for q in range(3)] for rho in stack]
    assert np.abs(cuts - want).max() <= 1e-12
    for rho, row in zip(stack, cuts):
        report = tripartite_negativity(rho)
        assert report.cuts() == tuple(row)
        mean = math.prod(row) ** (1 / 3) if min(row) > 0.0 else 0.0
        assert report.tripartite == pytest.approx(mean, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(seeds, st.sampled_from(KrausVariant), st.sampled_from(ApplicationMode), grid_points)
def test_damped_ghz_cuts_match_x_state_closed_form(seed, variant, mode, points):
    # The damped GHZ state stays an X state: nonzero only on the diagonal d and
    # the anti-diagonal. The partial transpose across qubit q moves the
    # |000><111| coherence into the 2x2 block (a, b); the other blocks stay
    # positive, so that block's smaller eigenvalue is the only negative one.
    rng = np.random.default_rng(seed)
    alpha, beta = rng.normal(size=2) + 1j * rng.normal(size=2)
    norm = math.hypot(abs(alpha), abs(beta))
    rho0 = states.density(states.ghz(alpha / norm, beta / norm))
    stack = np.array(
        [apply_channel(rho0, build_kraus(variant, p, g), (0, 1, 2), mode, renormalize=True)
         for p, g in points]
    )
    cuts = cut_negativities(stack)
    assert not np.signbit(cuts).any()
    for rho, row in zip(stack, cuts):
        assert not rho[~X_SHAPE].any()
        d, c = rho.diagonal().real, abs(rho[0, 7])
        for q, (a, b) in enumerate([(4, 3), (2, 5), (1, 6)]):
            want = 2.0 * max(0.0, math.sqrt(((d[a] - d[b]) / 2) ** 2 + c**2) - (d[a] + d[b]) / 2)
            assert abs(row[q] - want) <= 1e-11


@settings(max_examples=40, deadline=None)
@given(seeds, st.integers(min_value=1, max_value=4), st.permutations([0, 1, 2]))
def test_cuts_invariant_under_local_unitaries_and_relabelling(seed, count, perm):
    stack = random_states(seed, count)
    cuts = cut_negativities(stack)
    rng = np.random.default_rng(seed + 1)
    rotated = []
    for rho in stack:
        u = np.kron(np.kron(random_unitary(rng, 2), random_unitary(rng, 2)), random_unitary(rng, 2))
        rotated.append(u @ rho @ u.conj().T)
    assert np.abs(cut_negativities(np.array(rotated)) - cuts).max() <= 1e-12
    # new qubit j is old qubit perm[j], so new cut j is old cut perm[j]
    relabelled = stack.reshape((count,) + (2,) * 6).transpose(
        [0, *(1 + q for q in perm), *(4 + q for q in perm)]
    ).reshape(count, 8, 8)
    assert np.abs(cut_negativities(relabelled) - cuts[:, list(perm)]).max() <= 1e-12


def test_cuts_without_negative_eigenvalues_are_positive_zero():
    product = states.density(states.ghz(1, 0))
    stack = np.array([product, np.eye(8) / 8, damped_ghz(0.3, 1.0), damped_ghz_like(0.7, 1.0)])
    cuts = cut_negativities(stack)
    assert (cuts == 0.0).all() and not np.signbit(cuts).any()
    for c in tripartite_negativity(product).cuts():
        assert math.copysign(1.0, c) == 1.0


def test_stacked_input_is_validated_as_a_whole():
    good = states.density(states.maximal_ghz())
    with pytest.raises(ValueError, match="trace"):
        cut_negativities(np.array([good, 2 * good]))
    with pytest.raises(ValueError, match="8x8"):
        cut_negativities(np.zeros((2, 4, 4)))
    with pytest.raises(ValueError, match="out of range"):
        negativity_cut(good, 3)
