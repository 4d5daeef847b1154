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
    GraviphotonError,
    NumericalError,
    SensingChannel,
    apply_symplectic,
    build_sensing_channel,
    cramer_rao_bound,
    embed_symplectic,
    gate_beamsplitter,
    gate_single_mode_squeezer,
    gate_two_mode_squeezer,
    gaussian_fidelity,
    mean_photon_number,
    metrology,
    mode_mixer_from_overlap,
    partial_trace,
    qfi_finite_difference,
    qfi_sweep,
    sensing_qfi,
    state_coherent,
    state_thermal,
    state_vacuum,
    tensor_product,
)
from graviphoton.metrology import MAX_SQUEEZING_R


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
        assert gaussian_fidelity(s, s) == pytest.approx(1.0, abs=1e-9)


def test_fidelity_is_symmetric():
    pairs = [
        (state_vacuum(1), state_thermal(0.8)),
        (squeezed_vacuum(0.4), state_thermal(0.3)),
        (twin_beam(0.3), twin_beam(0.5)),
    ]
    for a, b in pairs:
        assert gaussian_fidelity(a, b) == pytest.approx(gaussian_fidelity(b, a), rel=1e-11)


def test_vacuum_thermal_closed_form():
    for nbar in (0.3, 1.7, 4.0):
        assert gaussian_fidelity(state_vacuum(1), state_thermal(nbar)) == pytest.approx(
            1.0 / (1.0 + nbar), rel=1e-12
        )


def test_twin_beam_pair_closed_form():
    r, rp = 0.4, 0.55
    assert gaussian_fidelity(twin_beam(r), twin_beam(rp)) == pytest.approx(
        1.0 / math.cosh(r - rp) ** 2, rel=1e-7
    )


def test_single_mode_squeezed_against_vacuum():
    s = 0.6
    assert gaussian_fidelity(state_vacuum(1), squeezed_vacuum(s)) == pytest.approx(
        1.0 / math.cosh(s), rel=1e-12
    )


def test_nonzero_first_moments_rejected():
    with pytest.raises(DomainError, match="vanishing first moments"):
        gaussian_fidelity(state_coherent(0.3), state_vacuum(1))


def test_mode_count_limits():
    with pytest.raises(DimensionMismatch, match="at most 2 modes"):
        gaussian_fidelity(state_vacuum(3), state_vacuum(3))
    with pytest.raises(DimensionMismatch, match="act on 1 and 2 modes"):
        gaussian_fidelity(state_vacuum(1), state_vacuum(2))


def test_fidelity_against_number_basis_thermal():
    dim = 40
    rho_v = np.zeros((dim, dim))
    rho_v[0, 0] = 1.0
    rho_t = fo.thermal_density(0.5, dim)
    assert gaussian_fidelity(state_vacuum(1), state_thermal(0.5)) == pytest.approx(
        fo.fidelity(rho_v, rho_t), abs=1e-9
    )


def test_fidelity_against_number_basis_squeezed_thermal():
    dim = 40
    v = fo.run_circuit([("sms", 0.3, 0)], 1, dim)
    rho_s = np.outer(v, v.conj())
    got = gaussian_fidelity(squeezed_vacuum(0.3), state_thermal(0.4))
    assert got == pytest.approx(fo.fidelity(rho_s, fo.thermal_density(0.4, dim)), abs=1e-7)


def test_fidelity_against_number_basis_both_mixed():
    # both states mixed, so every determinant in the closed form is live
    dim = 40
    gen = fo.generator_squeezer(0.25, 0, 1, dim)
    u = expm(gen.toarray())
    rho_b = u @ fo.thermal_density(0.3, dim) @ u.conj().T
    squeezed_thermal = apply_symplectic(state_thermal(0.3), gate_single_mode_squeezer(0.25))
    got = gaussian_fidelity(state_thermal(0.6), squeezed_thermal)
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


@pytest.mark.parametrize("probe_count", [2.9, 2.0, True, "2"])
def test_cramer_rao_bound_refuses_non_integral_probe_counts(probe_count):
    # truncating would read 2.9 as 2 probes and True as one
    with pytest.raises(DomainError, match="probe_count must be an integer"):
        cramer_rao_bound(1.0, probe_count=probe_count)
    assert cramer_rao_bound(1.0, probe_count=np.int64(2)) == 0.5


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


def test_estimation_report_is_frozen():
    rep = EstimationReport(theta=0.1, qfi=1.0, cramer_rao_bound=1.0, probe_count=1)
    with pytest.raises(AttributeError):
        rep.qfi = 2.0


def test_sensing_channel_validation():
    for r in (math.inf, math.nan, MAX_SQUEEZING_R + 1.0, -800.0, True, False):
        with pytest.raises(DomainError, match="squeezing_r"):
            SensingChannel(r)
    # the squeezing is kept as a float, as the closed form reads it
    channel = SensingChannel("0.3")
    assert channel.squeezing_r == 0.3 and type(channel.squeezing_r) is float
    assert math.isfinite(sensing_qfi(channel, 0.4).qfi)
    assert sensing_qfi(channel, 0.4) == sensing_qfi(SensingChannel(0.3), 0.4)
    assert type(SensingChannel(np.float64(0.3)).squeezing_r) is float
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
    channel = SensingChannel(0.25)
    thetas = [0.05, 0.1, 0.2]
    reports = qfi_sweep(channel, thetas, probe_count=3)
    assert reports == [sensing_qfi(channel, th, probe_count=3) for th in thetas]
    assert [r.theta for r in reports] == thetas
    assert all(r.probe_count == 3 for r in reports)


def test_sensing_qfi_matches_number_basis_sld():
    # the circuit of criterion 07: the reduced state's derivative is exact,
    # from the generator of the two beamsplitters acting on the pure state
    r, dim = 0.3, 10
    gen = fo.generator_beamsplitter(1.0, (0, 2), 4, dim) + fo.generator_beamsplitter(
        1.0, (1, 3), 4, dim
    )
    for theta in (0.05, 0.4, 1.2):
        gates = [("tms", r, (0, 1)), ("bs", theta, (0, 2)), ("bs", theta, (1, 3))]
        psi = fo.run_circuit(gates, 4, dim)
        dpsi = gen @ psi
        rho = fo.reduce_to_modes_01(psi, dim)
        # Tr_23 of (psi + dpsi)(psi + dpsi)^+ minus the same with -dpsi
        drho = (
            fo.reduce_to_modes_01(psi + dpsi, dim) - fo.reduce_to_modes_01(psi - dpsi, dim)
        ) / 2.0
        want = fo.sld_qfi(rho, drho)
        assert sensing_qfi(SensingChannel(r), theta).qfi == pytest.approx(want, rel=2e-9)


def _sensing_tap(r):
    _, tap = build_sensing_channel(SensingChannel(r))
    return tap


def test_sensing_channel_is_symmetric_pure_loss():
    eye = np.eye(4)
    for r in (0.3, 1.0, 3.0, 10.0, 20.0):
        tap = _sensing_tap(r)
        sigma0 = tap(0.0).covariance
        bound = 1e-13 * np.max(np.abs(sigma0))
        for theta in (0.0, 0.05, 0.4, 1.2, math.pi / 2.0):
            want = eye + math.cos(theta) ** 2 * (sigma0 - eye)
            assert np.max(np.abs(tap(theta).covariance - want)) < bound, (r, theta)


def test_sensing_qfi_matches_gaussian_qfi_formula():
    # H = 1/2 vec(dsigma)^+ (conj(sigma) (x) sigma - K (x) K)^-1 vec(dsigma)
    # (Safranek, J. Phys. A 52, 035304, 2019).  Near theta = 0 the squeezed
    # covariance makes this 16x16 solve ill-conditioned (3e-7 off at r = 3,
    # theta = 0.05), so the angles stay interior
    eye = np.eye(4)
    k = np.diag([1.0, 1.0, -1.0, -1.0])
    for r in (0.3, 1.0, 3.0):
        tap = _sensing_tap(r)
        sigma0 = tap(0.0).covariance
        for theta in (0.4, 0.8, 1.2):
            sigma = tap(theta).covariance
            vec = (-math.sin(2.0 * theta) * (sigma0 - eye)).reshape(-1, order="F")
            m = np.kron(sigma.conj(), sigma) - np.kron(k, k)
            want = 0.5 * float(np.vdot(vec, np.linalg.solve(m, vec)).real)
            got = sensing_qfi(SensingChannel(r), theta).qfi
            assert got == pytest.approx(want, rel=1e-10), (r, theta)


def test_sensing_qfi_endpoints_and_parity():
    for r in (0.1, 0.3, 3.0, 40.0, MAX_SQUEEZING_R):
        endpoint = 8.0 * math.sinh(r) ** 2
        assert sensing_qfi(SensingChannel(r), 0.0).qfi == pytest.approx(endpoint, rel=1e-15)
        for theta in (0.0, 1e-9, 0.3, 1.2, math.pi / 2.0):
            rep = sensing_qfi(SensingChannel(r), theta)
            assert math.isfinite(rep.qfi) and math.isfinite(rep.cramer_rao_bound)
            assert rep == sensing_qfi(SensingChannel(-r), theta)
    assert sensing_qfi(SensingChannel(0.3), math.pi / 2.0).qfi == pytest.approx(
        8.0 * math.sinh(0.3) ** 2, rel=1e-15
    )
    still = sensing_qfi(SensingChannel(0.0), 0.4)
    assert still.qfi == 0.0 and still.cramer_rao_bound == math.inf
    with pytest.raises(DomainError):
        sensing_qfi(SensingChannel(0.3), 3.0)


@given(
    nbar=st.floats(0.0, 3.0),
    s=st.floats(-0.8, 0.8),
)
@settings(max_examples=40, deadline=None)
def test_fidelity_stays_in_unit_interval(nbar, s):
    a = state_thermal(nbar)
    b = apply_symplectic(state_thermal(nbar / 2.0), gate_single_mode_squeezer(s))
    value = gaussian_fidelity(a, b)
    assert 0.0 <= value <= 1.0


def test_one_gate_taps_equal_the_two_embedding_product(monkeypatch):
    # the map applies both taps as the passive unitary u (x) 1_2; it must
    # equal the product of the two embedded taps bit for bit, and so must
    # the kept pair it gives
    seen = []

    def recording(state, gate):
        seen.append(gate)
        return apply_symplectic(state, gate)

    initial, apply = build_sensing_channel(SensingChannel(0.6))
    monkeypatch.setattr(metrology, "apply_symplectic", recording)
    angles = np.linspace(0.0, math.pi / 2.0, 2001).tolist() + [1e-300, math.pi / 2.0 - 1e-16]
    assert angles[0] == 0.0 and angles[2000] == math.pi / 2.0
    for theta in angles:
        got = apply(theta)
        tap = gate_beamsplitter(theta)
        want = embed_symplectic(tap, 4, (0, 2)) @ embed_symplectic(tap, 4, (1, 3))
        assert np.array_equal(seen.pop().matrix, want.matrix), theta
        kept = partial_trace(apply_symplectic(initial, want), (0, 1))
        assert np.array_equal(got.covariance, kept.covariance), theta


def six_det_fidelity(a, b):
    """The two-mode fidelity with one ``det`` call per determinant, as its reference."""
    k, eye = np.diag([1.0, 1.0, -1.0, -1.0]).astype(complex), np.eye(4)
    sa, sb = a.covariance, b.covariance
    gamma_c = np.linalg.det(eye + k @ sa @ k @ sb)
    lam_c = np.linalg.det(eye + k @ sa) * np.linalg.det(eye + k @ sb)
    eta_c = np.linalg.det(k @ sa + k @ sb)
    scale = max(1.0, abs(gamma_c), abs(lam_c), abs(eta_c))
    for name, val in (("gamma", gamma_c), ("lambda", lam_c), ("eta", eta_c)):
        if abs(val.imag) > 1e-8 * scale:
            raise NumericalError(f"fidelity determinant {name} has imaginary part {val.imag:.3e}")
    gamma, lam, eta = gamma_c.real, lam_c.real, eta_c.real

    def clamped_sqrt(name, x):
        if x < 0.0:
            if x < -1e-9 * scale:
                raise NumericalError(f"fidelity determinant {name} is negative: {x:.3e}")
            x = 0.0
        return math.sqrt(x)

    if eta <= 0.0:
        raise NumericalError(f"fidelity determinant eta is not positive: {eta:.3e}")
    det_a = float(np.linalg.det(sa).real)
    det_b = float(np.linalg.det(sb).real)
    rg = clamped_sqrt("gamma", gamma)
    if min(abs(det_a - 1.0), abs(det_b - 1.0)) < 1e-10:
        fid = 4.0 * rg / eta
    else:
        rl = clamped_sqrt("lambda", lam)
        inner = clamped_sqrt("radical", (rg + rl) ** 2 - eta)
        fid = 4.0 * (rg + rl + inner) / eta
    if fid > 1.0:
        if fid > 1.0 + 1e-9:
            raise NumericalError(f"fidelity {fid!r} exceeds 1 beyond tolerance")
        fid = 1.0
    if fid < 0.0:
        raise NumericalError(f"fidelity {fid!r} is negative")
    return fid


def _outcome(fidelity, a, b):
    try:
        return fidelity(a, b).hex()
    except GraviphotonError as exc:
        return type(exc).__name__, str(exc)


def _random_two_mode_state(r, nbars, theta, phi, squeezings):
    state = apply_symplectic(
        tensor_product(state_thermal(nbars[0]), state_thermal(nbars[1])),
        gate_two_mode_squeezer(r),
    )
    state = apply_symplectic(state, mode_mixer_from_overlap(theta, phi))
    for mode, s in enumerate(squeezings):
        state = apply_symplectic(state, embed_symplectic(gate_single_mode_squeezer(s), 2, (mode,)))
    return state


def test_stacked_determinants_match_six_calls_bit_for_bit():
    rng = np.random.default_rng(24)
    pairs = []
    for r in (0.0, 0.1, 0.6, 2.0, 5.0, 10.0, 20.0):
        for _ in range(12):
            # pure inputs (nbar 0) take the pure branch, mixed ones the radical
            nbars = rng.choice([0.0, 0.0, 0.3, 2.0], size=2) * rng.uniform(0.5, 1.5, size=2)
            args = [r, nbars, rng.uniform(0.0, math.pi / 2.0), rng.uniform(-math.pi, math.pi),
                    rng.uniform(-1.0, 1.0, size=2)]
            a = _random_two_mode_state(*args)
            # a far state, and a near one that leaves the fidelity close to 1
            far = _random_two_mode_state(rng.uniform(0.0, r), nbars[::-1], *args[2:])
            args[2] += 1e-5
            near = _random_two_mode_state(*args)
            pairs += [(a, far), (a, near), (near, a), (a, a)]
    theta = 0.5
    base = 1e-4 * max(1.0, theta)
    for r in (0.1, 0.3, 0.6):
        _, apply = build_sensing_channel(SensingChannel(r))
        stencil = [apply(theta + sign * step / 2.0) for step in (base, base / 2.0) for sign in (-1, 1)]
        pairs += [(x, y) for x in stencil for y in stencil]
    outcomes = [_outcome(gaussian_fidelity, a, b) for a, b in pairs]
    assert outcomes == [_outcome(six_det_fidelity, a, b) for a, b in pairs]
    # the comparison reaches fidelities near 1, far below it, and refusals:
    # from r = 5 cancellation in gamma leaves imaginary parts past its check
    values = [float.fromhex(o) for o in outcomes if isinstance(o, str)]
    assert min(values) < 0.5 and max(values) > 1.0 - 1e-9
    assert len(pairs) // 2 < len(values) < len(pairs)
