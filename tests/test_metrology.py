import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

import fock_oracle as fo
from graviphoton import (
    DimensionMismatch,
    DomainError,
    EstimationReport,
    FidelityInputs,
    SensingChannel,
    StepUnderflow,
    apply_symplectic,
    build_sensing_channel,
    cramer_rao_bound,
    gate_beamsplitter,
    gate_single_mode_squeezer,
    gate_two_mode_squeezer,
    gaussian_fidelity,
    mean_photon_number,
    qfi_finite_difference,
    qfi_sweep,
    state_coherent,
    state_thermal,
    state_vacuum,
    tensor_product,
)


def fid(a, b):
    return gaussian_fidelity(FidelityInputs.from_states(a, b))


def squeezed_vacuum(s):
    return apply_symplectic(state_vacuum(1), gate_single_mode_squeezer(s))


def twin_beam(r):
    return apply_symplectic(state_vacuum(2), gate_two_mode_squeezer(r))


def test_self_fidelity_is_one():
    states = [
        state_vacuum(1),
        state_thermal(1.4),
        squeezed_vacuum(0.5),
        twin_beam(0.4),
        apply_symplectic(
            tensor_product(state_thermal(0.6), state_thermal(0.2)),
            gate_beamsplitter(0.8),
        ),
    ]
    for s in states:
        assert fid(s, s) == pytest.approx(1.0, abs=1e-9)


def test_fidelity_is_symmetric():
    pairs = [
        (state_vacuum(1), state_thermal(0.8)),
        (squeezed_vacuum(0.4), state_thermal(0.3)),
        (twin_beam(0.3), twin_beam(0.5)),
    ]
    for a, b in pairs:
        assert fid(a, b) == pytest.approx(fid(b, a), rel=1e-11)


def test_vacuum_thermal_closed_form():
    for nbar in (0.3, 1.7, 4.0):
        assert fid(state_vacuum(1), state_thermal(nbar)) == pytest.approx(
            1.0 / (1.0 + nbar), rel=1e-12
        )


def test_twin_beam_pair_closed_form():
    r, rp = 0.4, 0.55
    assert fid(twin_beam(r), twin_beam(rp)) == pytest.approx(
        1.0 / math.cosh(r - rp) ** 2, rel=1e-7
    )


def test_single_mode_squeezed_against_vacuum():
    s = 0.6
    assert fid(state_vacuum(1), squeezed_vacuum(s)) == pytest.approx(
        1.0 / math.cosh(s), rel=1e-12
    )


def test_nonzero_first_moments_rejected():
    with pytest.raises(DomainError, match="vanishing first moments"):
        FidelityInputs.from_states(state_coherent(0.3), state_vacuum(1))


def test_mode_count_limits():
    with pytest.raises(DimensionMismatch, match="at most 2 modes"):
        gaussian_fidelity(FidelityInputs(np.eye(6), np.eye(6)))
    with pytest.raises(DimensionMismatch):
        FidelityInputs(np.eye(2), np.eye(4))


def test_fidelity_against_number_basis_thermal():
    dim = 40
    rho_v = np.zeros((dim, dim))
    rho_v[0, 0] = 1.0
    rho_t = fo.thermal_density(0.5, dim)
    assert fid(state_vacuum(1), state_thermal(0.5)) == pytest.approx(
        fo.fidelity(rho_v, rho_t), abs=1e-9
    )


def test_fidelity_against_number_basis_squeezed_thermal():
    dim = 40
    v = fo.run_circuit([("sms", 0.3, 0)], 1, dim)
    rho_s = np.outer(v, v.conj())
    got = fid(squeezed_vacuum(0.3), state_thermal(0.4))
    assert got == pytest.approx(fo.fidelity(rho_s, fo.thermal_density(0.4, dim)), abs=1e-7)


def test_fidelity_against_number_basis_both_mixed():
    # both states mixed, so every determinant in the closed form is live
    dim = 40
    gen = fo.generator_squeezer(0.25, 0, 1, dim)
    u = expm(gen.toarray())
    rho_b = u @ fo.thermal_density(0.3, dim) @ u.conj().T
    got = fid(state_thermal(0.6), apply_symplectic(state_thermal(0.3), gate_single_mode_squeezer(0.25)))
    assert got == pytest.approx(fo.fidelity(fo.thermal_density(0.6, dim), rho_b), abs=1e-8)


def test_cramer_rao_bound_values():
    assert cramer_rao_bound(2.0, 4) == pytest.approx(0.125, rel=1e-15)
    assert cramer_rao_bound(0.0) == math.inf
    with pytest.raises(DomainError):
        cramer_rao_bound(-1.0)
    with pytest.raises(DomainError):
        cramer_rao_bound(math.nan)
    with pytest.raises(DomainError):
        cramer_rao_bound(1.0, 0)


def test_qfi_of_constant_channel_is_zero():
    frozen = state_thermal(0.5)
    rep = qfi_finite_difference(lambda th: frozen, 0.3)
    assert rep.qfi == 0.0
    assert rep.cramer_rao_bound == math.inf


def test_qfi_of_squeezing_channel():
    # single-mode squeezed vacuum scanned in its squeezing parameter has
    # fidelity 1/cosh(dr), whose Bures curvature gives a constant value 2
    rep = qfi_finite_difference(squeezed_vacuum, 0.4)
    assert rep.qfi == pytest.approx(2.0, rel=1e-5)


def test_sensing_channel_regression():
    _, tap = build_sensing_channel(SensingChannel(0.3))
    rep = qfi_finite_difference(lambda th: tap(th), 0.1)
    assert rep.qfi == pytest.approx(0.7259279991937243, rel=1e-9)
    assert rep.cramer_rao_bound == pytest.approx(1.0 / rep.qfi, rel=1e-15)


def test_probe_count_scales_the_bound():
    _, tap = build_sensing_channel(SensingChannel(0.3))
    one = qfi_finite_difference(lambda th: tap(th), 0.1)
    many = qfi_finite_difference(lambda th: tap(th), 0.1, probe_count=25)
    assert many.qfi == one.qfi
    assert many.cramer_rao_bound == pytest.approx(one.cramer_rao_bound / 25.0, rel=1e-15)


def test_step_floor_is_enforced():
    with pytest.raises(StepUnderflow, match="floor"):
        qfi_finite_difference(squeezed_vacuum, 0.2, base_step=1e-13)
    with pytest.raises(DomainError):
        qfi_finite_difference(squeezed_vacuum, 0.2, base_step=-1e-3)
    with pytest.raises(DomainError):
        qfi_finite_difference(squeezed_vacuum, 0.2, base_step=math.nan)


def test_estimation_report_is_frozen():
    rep = EstimationReport(
        theta=0.1, qfi=1.0, cramer_rao_bound=1.0, probe_count=1, step_used=1e-4
    )
    with pytest.raises(AttributeError):
        rep.qfi = 2.0


def test_sensing_channel_validation():
    with pytest.raises(DomainError):
        SensingChannel(math.inf)
    _, tap = build_sensing_channel(SensingChannel(0.3))
    with pytest.raises(DomainError):
        tap(3.0)


def test_sensing_initial_state_occupation():
    r = 0.3
    initial, tap = build_sensing_channel(SensingChannel(r))
    assert initial.n_modes == 4
    assert mean_photon_number(initial) == pytest.approx(
        2.0 * math.sinh(r) ** 2, rel=1e-12
    )
    # fully open taps swap the twin beam into the discarded ports
    emptied = tap(math.pi / 2.0)
    assert mean_photon_number(emptied) == pytest.approx(0.0, abs=1e-12)


def test_qfi_sweep_matches_pointwise_calls():
    _, tap = build_sensing_channel(SensingChannel(0.25))
    thetas = [0.05, 0.1, 0.2]
    reports = qfi_sweep(lambda th: tap(th), thetas, probe_count=3)
    assert [r.theta for r in reports] == thetas
    for rep, th in zip(reports, thetas):
        solo = qfi_finite_difference(lambda t: tap(t), th, probe_count=3)
        assert rep.qfi == solo.qfi
        assert rep.probe_count == 3


@given(
    nbar=st.floats(0.0, 3.0),
    s=st.floats(-0.8, 0.8),
)
@settings(max_examples=40, deadline=None)
def test_fidelity_stays_in_unit_interval(nbar, s):
    a = state_thermal(nbar)
    b = apply_symplectic(state_thermal(nbar / 2.0), gate_single_mode_squeezer(s))
    value = fid(a, b)
    assert 0.0 <= value <= 1.0
