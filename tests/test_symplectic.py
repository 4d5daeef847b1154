import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from graviphoton import (
    DimensionMismatch,
    DomainError,
    GaussianState,
    NonPhysicalState,
    NumericalError,
    SensingChannel,
    SymplecticMatrix,
    apply_symplectic,
    build_sensing_channel,
    embed_symplectic,
    gate_beamsplitter,
    gate_single_mode_squeezer,
    gate_two_mode_squeezer,
    mean_photon_number,
    mode_mixer_from_overlap,
    partial_trace,
    passive_symplectic,
    state_coherent,
    state_thermal,
    state_vacuum,
    symplectic_form,
    tensor_product,
    thermal_occupation,
    tritter,
    williamson_eigenvalues,
)
from graviphoton.constants import HBAR, K_BOLTZMANN
from graviphoton.metrology import MAX_SQUEEZING_R
from graviphoton.symplectic import STRUCTURE_TOL


def symplectic_residual(gate):
    omega = symplectic_form(gate.n_modes)
    s = gate.matrix
    return np.max(np.abs(s @ omega @ s.conj().T - omega))


def test_symplectic_form_blocks():
    omega = symplectic_form(2)
    assert np.array_equal(omega, np.diag([-1j, -1j, 1j, 1j]))


def test_gate_constructors_are_symplectic():
    for gate in (
        gate_single_mode_squeezer(0.9),
        gate_beamsplitter(1.2),
        gate_two_mode_squeezer(0.6),
        mode_mixer_from_overlap(0.4, 1.1),
    ):
        assert symplectic_residual(gate) < 1e-12
        assert gate.residual < 1e-12


def test_beamsplitter_is_passive():
    bs = gate_beamsplitter(0.7)
    assert np.max(np.abs(bs.beta)) == 0.0


def test_squeezers_are_active():
    assert np.max(np.abs(gate_single_mode_squeezer(0.3).beta)) > 0.0
    assert np.max(np.abs(gate_two_mode_squeezer(0.3).beta)) > 0.0


def test_composition_is_symplectic():
    a = gate_two_mode_squeezer(0.4)
    b = gate_beamsplitter(0.9)
    assert symplectic_residual(b @ a) < 1e-12


def test_non_symplectic_matrix_rejected():
    with pytest.raises(DomainError, match="conjugate block structure"):
        SymplecticMatrix(np.eye(4) + 0.1 * np.arange(16).reshape(4, 4))
    bad = np.diag([2.0, 2.0, 2.0, 2.0])  # right structure, wrong normalization
    with pytest.raises(DomainError, match="Bogoliubov residual"):
        SymplecticMatrix(bad)
    with pytest.raises(DimensionMismatch):
        SymplecticMatrix(np.eye(3))


def test_vacuum_state():
    vac = state_vacuum(3)
    assert vac.n_modes == 3
    assert np.array_equal(vac.covariance, np.eye(6))
    assert mean_photon_number(vac) == 0.0


def test_coherent_state_occupation():
    alpha = 1.3 - 0.4j
    st_ = state_coherent(alpha)
    assert math.isclose(mean_photon_number(st_), abs(alpha) ** 2, rel_tol=1e-12)
    assert np.array_equal(st_.covariance, np.eye(2))


def test_thermal_state_occupation():
    st_ = state_thermal(2.3)
    assert math.isclose(mean_photon_number(st_), 2.3, rel_tol=1e-12)
    assert williamson_eigenvalues(st_)[0] == pytest.approx(2.0 * 2.3 + 1.0, rel=1e-12)


def test_thermal_occupation_formula():
    w, t = 2.0e15, 300.0
    x = HBAR * w / (K_BOLTZMANN * t)
    assert math.isclose(
        thermal_occupation(w, t), 1.0 / (math.expm1(x)), rel_tol=1e-12
    )
    # far detuned: occupation underflows to exactly zero
    assert thermal_occupation(1e20, 1.0) == 0.0
    with pytest.raises(DomainError):
        thermal_occupation(-1.0, 300.0)
    with pytest.raises(DomainError):
        thermal_occupation(1e15, 0.0)


def test_tensor_product_and_partial_trace_roundtrip():
    a = state_thermal(0.7)
    b = apply_symplectic(state_vacuum(1), gate_single_mode_squeezer(0.4))
    joint = tensor_product(a, b)
    assert joint.n_modes == 2
    back_a = partial_trace(joint, (0,))
    back_b = partial_trace(joint, (1,))
    assert np.allclose(back_a.covariance, a.covariance, atol=1e-14)
    assert np.allclose(back_b.covariance, b.covariance, atol=1e-14)


def test_apply_symplectic_matches_direct_conjugation():
    st_ = tensor_product(state_thermal(0.3), state_coherent(0.5 + 0.2j))
    gate = gate_beamsplitter(0.8) @ gate_two_mode_squeezer(0.25)
    out = apply_symplectic(st_, gate)
    s = gate.matrix
    assert np.allclose(out.covariance, s @ st_.covariance @ s.conj().T, atol=1e-13)
    assert np.allclose(out.first_moments, s @ st_.first_moments, atol=1e-13)


def test_two_mode_squeezed_occupation_and_purity():
    r = 0.63
    st_ = apply_symplectic(state_vacuum(2), gate_two_mode_squeezer(r))
    assert math.isclose(mean_photon_number(st_), 2.0 * math.sinh(r) ** 2, rel_tol=1e-12)
    nus = williamson_eigenvalues(st_)
    assert np.allclose(nus, 1.0, atol=1e-10)


def test_two_singly_squeezed_modes_occupation():
    s = 0.41
    gate = embed_symplectic(gate_single_mode_squeezer(s), 2, (0,)) @ embed_symplectic(
        gate_single_mode_squeezer(s), 2, (1,)
    )
    st_ = apply_symplectic(state_vacuum(2), gate)
    assert math.isclose(mean_photon_number(st_), 2.0 * math.sinh(s) ** 2, rel_tol=1e-12)


def test_reduced_two_mode_squeezed_state_is_thermal():
    r = 0.52
    st_ = apply_symplectic(state_vacuum(2), gate_two_mode_squeezer(r))
    half = partial_trace(st_, (0,))
    nus = williamson_eigenvalues(half)
    assert math.isclose(nus[0], math.cosh(2.0 * r), rel_tol=1e-10)
    assert math.isclose(mean_photon_number(half), math.sinh(r) ** 2, rel_tol=1e-12)


def test_williamson_invariant_under_passive_gates():
    st_ = apply_symplectic(
        tensor_product(state_thermal(0.4), state_thermal(1.1)),
        gate_two_mode_squeezer(0.3),
    )
    before = williamson_eigenvalues(st_)
    after = williamson_eigenvalues(apply_symplectic(st_, gate_beamsplitter(1.0)))
    assert np.allclose(before, after, rtol=1e-10)


def test_williamson_rejects_unpaired_spectrum():
    with pytest.raises(NumericalError, match="pairs"):
        williamson_eigenvalues(np.diag([1.0, 3.0]))


def test_physicality_guard():
    with pytest.raises(NonPhysicalState, match="uncertainty bound"):
        GaussianState(np.zeros(2), 0.5 * np.eye(2))
    with pytest.raises(DomainError, match="Hermitian"):
        GaussianState(np.zeros(2), np.array([[1.0, 0.5], [0.1, 1.0]]))


def test_first_moment_conjugate_structure_enforced():
    GaussianState([0.3 + 0.1j, 0.3 - 0.1j], np.eye(2))
    with pytest.raises(DomainError):
        GaussianState([0.3 + 0.1j, 0.5 - 0.1j], np.eye(2))


def test_partial_trace_validation():
    st_ = state_vacuum(3)
    with pytest.raises(DimensionMismatch):
        partial_trace(st_, ())
    with pytest.raises(DimensionMismatch):
        partial_trace(st_, (0, 0))
    with pytest.raises(DimensionMismatch):
        partial_trace(st_, (5,))


def test_partial_trace_commutes_with_local_gate():
    st_ = apply_symplectic(state_vacuum(2), gate_two_mode_squeezer(0.35))
    local = gate_single_mode_squeezer(0.2)
    a = partial_trace(apply_symplectic(st_, embed_symplectic(local, 2, (0,))), (0,))
    b = apply_symplectic(partial_trace(st_, (0,)), local)
    assert np.allclose(a.covariance, b.covariance, atol=1e-13)


def test_embed_symplectic_matches_tensor_action():
    inner = gate_single_mode_squeezer(0.3)
    big = embed_symplectic(inner, 3, (1,))
    st_ = tensor_product(tensor_product(state_thermal(0.2), state_vacuum(1)), state_thermal(0.8))
    direct = apply_symplectic(st_, big)
    reduced = partial_trace(direct, (1,))
    expected = apply_symplectic(state_vacuum(1), inner)
    assert np.allclose(reduced.covariance, expected.covariance, atol=1e-13)
    with pytest.raises(DimensionMismatch):
        embed_symplectic(inner, 2, (3,))
    with pytest.raises(DimensionMismatch):
        embed_symplectic(gate_beamsplitter(0.1), 3, (1, 1))


def test_passive_symplectic_requires_unitary():
    u = np.array([[0.6, 0.8], [-0.8, 0.6]])
    gate = passive_symplectic(u)
    assert symplectic_residual(gate) < 1e-12
    with pytest.raises(DomainError, match="not unitary"):
        passive_symplectic(np.array([[1.0, 1.0], [0.0, 1.0]]))


def test_passive_gates_conserve_photon_number():
    st_ = apply_symplectic(
        tensor_product(state_coherent(0.7), state_thermal(0.9)),
        gate_beamsplitter(0.77),
    )
    before = mean_photon_number(
        apply_symplectic(tensor_product(state_coherent(0.7), state_thermal(0.9)), gate_beamsplitter(0.0))
    )
    assert math.isclose(mean_photon_number(st_), before, rel_tol=1e-12)


def test_mode_mixer_from_overlap_blocks():
    theta, phi = 0.35, 0.9
    gate = mode_mixer_from_overlap(theta, phi)
    c, s = math.cos(theta), math.sin(theta)
    expected = np.array([[c, s * np.exp(1j * phi)], [-s * np.exp(-1j * phi), c]])
    assert np.allclose(gate.alpha, expected, atol=1e-15)
    assert np.max(np.abs(gate.beta)) == 0.0


def test_tritter_unitarity_and_limits():
    rng = np.random.default_rng(2)
    for _ in range(50):
        u = tritter(*rng.uniform(0.0, 2.0 * math.pi, size=4))
        assert np.max(np.abs(u @ u.conj().T - np.eye(3))) < 1e-14
    # with the third-mode couplings off, the top block is a plain rotation
    u = tritter(0.25, 0.0, 0.0, 0.0)
    c, s = math.cos(0.25), math.sin(0.25)
    assert np.allclose(u, [[c, s, 0.0], [-s, c, 0.0], [0.0, 0.0, 1.0]], atol=1e-15)


@given(param=st.floats(-1.5, 1.5))
@settings(max_examples=60, deadline=None)
def test_gate_residual_property(param):
    for ctor in (gate_single_mode_squeezer, gate_beamsplitter, gate_two_mode_squeezer):
        assert ctor(param).residual < 1e-12


@given(r=st.floats(-20.0, 20.0))
@example(r=MAX_SQUEEZING_R)
@example(r=-MAX_SQUEEZING_R)
@settings(max_examples=60, deadline=None)
def test_strong_squeezing_passes_the_checks(r):
    # the rounding of A A^+ - B B^+ grows like eps cosh^2 r; the checks scale
    # with it, so exact gates and states pass at every r the sensing channel
    # accepts
    for ctor in (gate_single_mode_squeezer, gate_two_mode_squeezer):
        assert ctor(r).residual <= STRUCTURE_TOL * math.cosh(r) ** 2
    vacuum = apply_symplectic(state_vacuum(1), gate_single_mode_squeezer(r))
    assert vacuum.covariance[0, 0].real == pytest.approx(math.cosh(2.0 * r), rel=1e-12)
    _, tap = build_sensing_channel(SensingChannel(r))
    for theta in (0.0, 0.3, 1.2):
        want = 2.0 * math.sinh(r) ** 2 * math.cos(theta) ** 2
        assert mean_photon_number(tap(theta)) == pytest.approx(want, rel=1e-9, abs=1e-12)


def test_scaled_tolerance_still_rejects_a_perturbed_squeezer():
    # A scaled by 1 + 1e-9 at r = 10 leaves a residual of about 2e-9 cosh^2 r,
    # far above the rounding the scaled tolerance allows for
    m = gate_single_mode_squeezer(10.0).matrix.copy()
    m[0, 0] *= 1.0 + 1e-9
    m[1, 1] *= 1.0 + 1e-9
    with pytest.raises(DomainError, match="not symplectic"):
        SymplecticMatrix(m)


@given(r=st.floats(0.0, 1.2), nbar=st.floats(0.0, 3.0))
@settings(max_examples=40, deadline=None)
def test_thermal_squeezed_williamson_property(r, nbar):
    st_ = apply_symplectic(
        tensor_product(state_thermal(nbar), state_thermal(nbar)),
        gate_two_mode_squeezer(r),
    )
    nus = williamson_eigenvalues(st_)
    assert np.allclose(nus, 2.0 * nbar + 1.0, rtol=1e-9, atol=1e-9)
