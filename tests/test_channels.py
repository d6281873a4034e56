import functools
import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from decolab import states
from decolab.channels import (
    ApplicationMode,
    KrausSet,
    KrausVariant,
    apply_channel,
    build_kraus,
    completeness_defect,
    gad_raw,
    gad_standard,
)
from decolab.errors import NumericalError

from conftest import random_density

unit_interval = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


def test_standard_gamma_zero_is_identity(rng):
    rho = random_density(rng, 2)
    for p in np.linspace(0, 1, 7):
        kraus = gad_standard(p, 0.0)
        assert kraus.trace_preserving
        out = apply_channel(rho, kraus, (0,))
        assert np.allclose(out, rho, atol=1e-12)


def test_standard_full_decay_to_ground(rng):
    kraus = gad_standard(1.0, 1.0)
    for _ in range(3):
        rho = random_density(rng, 2)
        out = apply_channel(rho, kraus, (0,))
        assert np.allclose(out, np.diag([1, 0]), atol=1e-12)


def test_standard_completeness():
    assert completeness_defect(gad_standard(0.3, 0.5)) < 1e-12
    assert completeness_defect(gad_standard(0.7, 0.4)) < 1e-12


@settings(max_examples=40, deadline=None)
@given(unit_interval, unit_interval)
def test_standard_completeness_everywhere(p, gamma):
    kraus = gad_standard(p, gamma)
    assert completeness_defect(kraus) < 1e-10
    assert kraus.trace_preserving


def test_raw_at_origin_is_identity_set():
    kraus = gad_raw(0.0, 0.0)
    assert np.allclose(kraus.elements[0], 0)
    assert np.allclose(kraus.elements[1], 0)
    assert np.allclose(kraus.elements[2], np.eye(2))
    assert np.allclose(kraus.elements[3], 0)
    assert kraus.trace_preserving
    assert completeness_defect(kraus) < 1e-12


def test_raw_strength_one_not_trace_preserving():
    kraus = gad_raw(1.0, 0.0)
    assert np.allclose(kraus.elements[0], np.eye(2))
    assert np.allclose(kraus.elements[1], 2 * np.array([[0, 1], [0, 0]]))
    assert completeness_defect(kraus) > 1.0
    assert not kraus.trace_preserving


def test_raw_generic_not_trace_preserving():
    assert not gad_raw(0.5, 0.5).trace_preserving


def test_build_kraus_dispatch():
    assert build_kraus(KrausVariant.STANDARD, 0.2, 0.3).trace_preserving
    assert not build_kraus(KrausVariant.RAW, 0.9, 0.1).trace_preserving


@pytest.mark.parametrize("bad", [-0.1, 1.1])
def test_params_out_of_range(bad):
    with pytest.raises(ValueError, match="outside"):
        gad_standard(bad, 0.5)
    with pytest.raises(ValueError, match="outside"):
        gad_raw(0.5, bad)


def test_kraus_set_shape_mismatch():
    with pytest.raises(ValueError, match="share one square shape"):
        KrausSet((np.eye(2), np.eye(4)))


def test_apply_identity_channel_both_modes():
    rho = states.density(states.maximal_ghz())
    for mode in ApplicationMode:
        out = apply_channel(rho, gad_standard(0.4, 0.0), (0, 1, 2), mode, renormalize=True)
        assert np.allclose(out, rho, atol=1e-12)


def test_apply_full_damping_concentrates_on_ground():
    rho = states.density(states.maximal_ghz())
    out = apply_channel(rho, gad_standard(1.0, 1.0), (0, 1, 2))
    expected = np.zeros((8, 8), dtype=complex)
    expected[0, 0] = 1.0
    assert np.allclose(out, expected, atol=1e-12)


def test_apply_preserves_trace_without_renormalize(rng):
    rho = random_density(rng, 8)
    rho = (rho + rho.conj().T) / 2
    out = apply_channel(rho, gad_standard(0.3, 0.6), (0, 1, 2))
    assert abs(np.trace(out).real - 1.0) < 1e-12


def test_apply_renormalized_trace_is_one(rng):
    rho = random_density(rng, 8)
    for mode in ApplicationMode:
        out = apply_channel(rho, gad_raw(0.6, 0.3), (0, 1, 2), mode, renormalize=True)
        assert abs(np.trace(out).real - 1.0) < 1e-12


def test_independent_equals_sequential(rng):
    # joint 4^3-term sum vs composing three single-qubit applications
    rho = random_density(rng, 8)
    kraus = gad_standard(0.35, 0.45)
    joint = apply_channel(rho, kraus, (0, 1, 2), ApplicationMode.INDEPENDENT)
    for order in ((0, 1, 2), (2, 0, 1), (1, 2, 0)):
        seq = rho
        for q in order:
            seq = apply_channel(seq, kraus, (q,))
        assert np.allclose(joint, seq, atol=1e-12)


def test_correlated_differs_from_independent():
    rho = states.density(states.maximal_ghz())
    kraus = gad_standard(0.5, 0.5)
    ind = apply_channel(rho, kraus, (0, 1, 2), ApplicationMode.INDEPENDENT, renormalize=True)
    cor = apply_channel(rho, kraus, (0, 1, 2), ApplicationMode.CORRELATED, renormalize=True)
    assert not np.allclose(ind, cor, atol=1e-6)


def test_output_stays_positive(rng):
    for _ in range(5):
        rho = random_density(rng, 8)
        out = apply_channel(rho, gad_standard(0.2, 0.7), (0, 1, 2))
        assert np.abs(out - out.conj().T).max() < 1e-12
        assert np.linalg.eigvalsh(out).min() > -1e-9


def test_zero_trace_renormalization_errors():
    dead = KrausSet((np.zeros((2, 2)),))
    rho = states.density([1, 0])
    with pytest.raises(NumericalError, match="too small"):
        apply_channel(rho, dead, (0,), renormalize=True)


def test_non_psd_input_rejected():
    bad = np.diag([1.5, -0.5]).astype(complex)
    with pytest.raises(NumericalError, match="not PSD"):
        apply_channel(bad, gad_standard(0.5, 0.5), (0,))


def test_bad_qubit_lists():
    rho = states.density(states.maximal_ghz())
    kraus = gad_standard(0.1, 0.1)
    with pytest.raises(ValueError, match="out of range"):
        apply_channel(rho, kraus, (0, 3))
    with pytest.raises(ValueError, match="duplicates"):
        apply_channel(rho, kraus, (1, 1))


def test_completeness_defect_examples():
    assert completeness_defect(gad_standard(0.7, 0.4)) < 1e-12
    assert completeness_defect(gad_raw(1.0, 0.0)) > 1.0
    assert completeness_defect(gad_raw(0.0, 0.0)) < 1e-12


def kron_sum_oracle(rho, kraus, qubits, mode):
    """The channel as an explicit sum over every Kraus product, each factor
    placed by np.kron: 4^k terms for INDEPENDENT, 4 shared-index terms for
    CORRELATED."""
    n = int(np.log2(rho.shape[0]))
    count = len(kraus.elements)
    if mode is ApplicationMode.INDEPENDENT:
        combos = itertools.product(range(count), repeat=len(qubits))
    else:
        combos = ((i,) * len(qubits) for i in range(count))
    out = np.zeros_like(rho)
    for combo in combos:
        factors = [np.eye(2, dtype=complex)] * n
        for q, i in zip(qubits, combo):
            factors[q] = kraus.elements[i]
        op = functools.reduce(np.kron, factors)
        out += op @ rho @ op.conj().T
    return out


seeds = st.integers(min_value=0, max_value=2**32 - 1)
qubit_subsets = st.lists(st.integers(0, 2), min_size=1, max_size=3, unique=True)


@settings(max_examples=80, deadline=None)
@given(
    seeds,
    unit_interval,
    unit_interval,
    st.sampled_from(KrausVariant),
    st.sampled_from(ApplicationMode),
    qubit_subsets,
)
def test_apply_matches_kron_sum_oracle(seed, p, gamma, variant, mode, qubits):
    rho = random_density(np.random.default_rng(seed), 8)
    kraus = build_kraus(variant, p, gamma)
    out = apply_channel(rho, kraus, qubits, mode)
    assert np.abs(out - kron_sum_oracle(rho, kraus, qubits, mode)).max() <= 1e-12


@settings(max_examples=60, deadline=None)
@given(seeds, unit_interval, unit_interval, unit_interval)
@example(seed=0, p=0.0, gamma1=0.5, gamma2=1.0 - 2.0**-53)
def test_gad_semigroup(seed, p, gamma1, gamma2):
    # two damping steps at one p compose to one step of 1 - (1-g1)(1-g2)
    rho = random_density(np.random.default_rng(seed), 8)
    qubits = (0, 1, 2)
    twice = apply_channel(
        apply_channel(rho, gad_standard(p, gamma1), qubits), gad_standard(p, gamma2), qubits
    )
    gamma12 = 1.0 - (1.0 - gamma1) * (1.0 - gamma2)
    once = apply_channel(rho, gad_standard(p, gamma12), qubits)
    # gamma12 can round (to 1.0 when gamma2 is within an ulp of 1), and sqrt(1 - gamma)
    # amplifies that; the coherence factor's rounding gap is added to the tolerance.
    gap = abs(np.sqrt(1.0 - gamma1) * np.sqrt(1.0 - gamma2) - np.sqrt(1.0 - gamma12))
    assert np.abs(twice - once).max() <= 1e-13 + 3.0 * gap
