import math
import warnings

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
    qfi_finite_difference,
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
    for bad in (math.nan, math.inf, -math.inf, complex(0.0, math.nan)):
        u = np.eye(2, dtype=complex)
        u[0, 1] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # refused before any product warns
            with pytest.raises(DomainError, match="unitary must have finite entries"):
                passive_symplectic(u)


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


# from r = 355.3 the state's covariance overflows to inf, and is refused
@pytest.mark.filterwarnings("ignore:(overflow|invalid value) encountered:RuntimeWarning")
def test_squeezing_near_the_float_limit_builds_or_is_refused():
    # covariance entries cosh 2r pass 9e307 from r = 354.9; they must neither
    # overflow the Hermitian part nor reach an eigensolver as inf
    for r in np.round(np.arange(353.0, 356.05, 0.1), 1):
        for gate, modes in ((gate_single_mode_squeezer, 1), (gate_two_mode_squeezer, 2)):
            try:
                state = apply_symplectic(state_vacuum(modes), gate(r))
            except DomainError:
                continue
            assert np.all(np.isfinite(state.covariance))
    assert apply_symplectic(state_vacuum(2), gate_two_mode_squeezer(355.2)).n_modes == 2


@pytest.mark.parametrize("r", [355.6, 500.0, 710.6, 720.0, -720.0, 1e300])
def test_squeezers_beyond_the_limit_raise_domain_error(r):
    for gate in (gate_single_mode_squeezer, gate_two_mode_squeezer):
        with pytest.raises(DomainError, match=r"\|r\| <= 355\.5"):
            gate(r)


@pytest.mark.parametrize("n_modes", [2.5, 2.0, True, np.float64(2.0)])
def test_state_vacuum_refuses_non_integral_mode_counts(n_modes):
    with pytest.raises(DomainError, match="n_modes must be an integer"):
        state_vacuum(n_modes)
    assert state_vacuum(np.int64(2)).n_modes == 2


@pytest.mark.parametrize("keep", [(1.9,), (0, 1.0), (True,), (np.float64(1.0),)])
def test_partial_trace_refuses_non_integral_modes(keep):
    # truncating would read 1.9 and True as mode 1
    with pytest.raises(DimensionMismatch, match="mode index must be an integer"):
        partial_trace(state_vacuum(2), keep)
    half = partial_trace(tensor_product(state_vacuum(1), state_thermal(0.5)), (np.int32(1),))
    assert np.array_equal(half.covariance, state_thermal(0.5).covariance)


def test_embed_symplectic_refuses_non_integral_targets():
    gate = gate_beamsplitter(0.3)
    with pytest.raises(DimensionMismatch, match="mode index must be an integer"):
        embed_symplectic(gate, 3, (0.2, 2.9))
    with pytest.raises(DimensionMismatch, match="mode index must be an integer"):
        embed_symplectic(gate, 3, (False, 2))
    with pytest.raises(DomainError, match="n_total must be an integer"):
        embed_symplectic(gate, 3.7, (0, 2))
    big = embed_symplectic(gate, np.int64(3), (np.int64(0), 2))
    assert np.array_equal(big.matrix, embed_symplectic(gate, 3, (0, 2)).matrix)


# ---------------------------------------------------------------------------
# the whole-matrix checks against the per-block checks they replaced


def reference_check(matrix):
    """The four-reduction structure and Bogoliubov check, with the same
    tolerances: ``(accepted, residual)``, the residual only when accepted."""
    arr = np.asarray(matrix, dtype=complex)
    if not np.all(np.isfinite(arr)):
        return False, None
    n = arr.shape[0] // 2
    a, b = arr[:n, :n], arr[:n, n:]
    structure = max(
        np.max(np.abs(arr[n:, :n] - b.conj())), np.max(np.abs(arr[n:, n:] - a.conj()))
    )
    if structure > STRUCTURE_TOL:
        return False, None
    residual = max(
        np.max(np.abs(a @ a.conj().T - b @ b.conj().T - np.eye(n))),
        np.max(np.abs(a @ b.T - b @ a.T)),
    )
    tol = STRUCTURE_TOL * max(1.0, float(np.max(np.sum(np.abs(a) ** 2, axis=1))))
    if residual <= STRUCTURE_TOL or residual <= tol < math.inf:
        return True, float(max(structure, residual))
    return False, None


def row_norm_sq(matrix):
    n = matrix.shape[0] // 2
    return float(np.max(np.sum(np.abs(matrix[:n, :n]) ** 2, axis=1)))


def perturbed(gate, kind, factor, where):
    """``gate`` moved to ``factor`` times the tolerance of one check.

    ``structure`` adds ``factor * STRUCTURE_TOL`` to one lower-row entry;
    ``scaled`` multiplies the matrix by ``lam`` with ``lam^2 - 1`` equal to
    ``factor`` times the scaled tolerance ``STRUCTURE_TOL * lam^2 |A|^2``.
    """
    m = gate.matrix.copy()
    n = gate.n_modes
    if kind == "structure":
        m[n + where % n, where % (2 * n)] += factor * STRUCTURE_TOL * np.exp(0.7j * where)
        return m
    return m * math.sqrt(1.0 / (1.0 - factor * STRUCTURE_TOL * row_norm_sq(m)))


angles = st.floats(-7.0, 7.0)
squeezings = st.floats(-355.5, 355.5)
one_mode = squeezings.map(gate_single_mode_squeezer)
two_mode = st.one_of(
    squeezings.map(gate_two_mode_squeezer),
    angles.map(gate_beamsplitter),
    st.tuples(angles, angles).map(lambda p: mode_mixer_from_overlap(*p)),
)
three_mode = st.tuples(angles, angles, angles, angles).map(
    lambda p: passive_symplectic(tritter(*p))
)
gates = st.one_of(one_mode, two_mode, three_mode)
gate_matrices = st.one_of(
    gates.map(lambda g: g.matrix),
    st.tuples(two_mode, two_mode).map(lambda g: g[0].matrix @ g[1].matrix),
    st.tuples(three_mode, two_mode, st.integers(0, 2)).map(
        lambda g: g[0].matrix @ embed_symplectic(g[1], 3, ((g[2] + 1) % 3, g[2])).matrix
    ),
    # non-adjacent targets, in either order
    st.tuples(gates, st.integers(0, 1)).map(
        lambda g: embed_symplectic(g[0], 4, [3, 1, 0][: g[0].n_modes][:: 1 - 2 * g[1]]).matrix
    ),
)


@given(matrix=gate_matrices)
@settings(max_examples=200, deadline=None)
@pytest.mark.filterwarnings("ignore:(overflow|invalid value) encountered:RuntimeWarning")
def test_whole_matrix_checks_accept_what_the_block_checks_accept(matrix):
    accepted, residual = reference_check(matrix)
    try:
        got = SymplecticMatrix(matrix)
    except DomainError:
        assert not accepted
        return
    assert accepted
    assert abs(got.residual - residual) <= 1e-15 * max(1.0, row_norm_sq(matrix))


@given(
    gate=st.one_of(
        st.floats(-2.0, 2.0).map(gate_single_mode_squeezer),
        st.floats(-2.0, 2.0).map(gate_two_mode_squeezer),
        angles.map(gate_beamsplitter),
        three_mode,
    ),
    factor=st.sampled_from([0.5, 2.0]),
    where=st.integers(0, 5),
)
# at r = 10 the scaled tolerance is 1.2e-4, eight decades above STRUCTURE_TOL;
# the structure perturbation lands on a zero entry
@example(gate=gate_two_mode_squeezer(10.0), factor=0.5, where=0)
@example(gate=gate_two_mode_squeezer(10.0), factor=2.0, where=0)
@settings(max_examples=120, deadline=None)
def test_whole_matrix_checks_hold_both_tolerances(gate, factor, where):
    for kind in ("structure", "scaled"):
        matrix = perturbed(gate, kind, factor, where)
        accepted, _ = reference_check(matrix)
        assert accepted == (factor < 1.0)
        if accepted:
            SymplecticMatrix(matrix)
        else:
            with pytest.raises(DomainError):
                SymplecticMatrix(matrix)


@pytest.mark.parametrize("factor", [0.5, 2.0])
def test_whole_matrix_checks_hold_the_second_identity(factor):
    # [[1, eps J], [eps J, 1]] with J antisymmetric meets A A^+ - B B^+ = 1 up
    # to eps^2 and misses A B^T = B A^T by 2 eps = factor * STRUCTURE_TOL
    j = 0.5 * factor * STRUCTURE_TOL * np.array([[0.0, 1.0], [-1.0, 0.0]])
    matrix = np.block([[np.eye(2), j], [j, np.eye(2)]])
    for m in (matrix, embed_symplectic(gate_beamsplitter(0.4), 2, (1, 0)).matrix @ matrix):
        assert reference_check(m)[0] == (factor < 1.0)
        if factor < 1.0:
            SymplecticMatrix(m)
        else:
            with pytest.raises(DomainError, match="not symplectic"):
                SymplecticMatrix(m)


def count_constructions(monkeypatch):
    """Counts of validated ``SymplecticMatrix`` and ``GaussianState`` builds."""
    counts = {SymplecticMatrix: 0, GaussianState: 0}
    for cls in counts:

        def counted(self, *args, _cls=cls, _init=cls.__init__):
            counts[_cls] += 1
            _init(self, *args)

        monkeypatch.setattr(cls, "__init__", counted)
    return counts


def test_every_sensing_object_is_still_validated(monkeypatch):
    counts = count_constructions(monkeypatch)
    _, apply = build_sensing_channel(SensingChannel(0.6))
    assert list(counts.values()) == [2, 2]
    # one apply: the tap gate and the four-mode taps, the evolved and the kept state
    apply(0.4)
    assert list(counts.values()) == [2 + 2, 2 + 2]
    qfi_finite_difference(apply, 0.4)
    assert list(counts.values()) == [4 + 8, 4 + 8]


def loop_embedding(gate, n_total, modes):
    """The scalar double loop ``embed_symplectic`` replaced, as its reference."""
    big = np.eye(2 * n_total, dtype=complex)
    a, b = gate.alpha, gate.beta
    for i, mi in enumerate(modes):
        for j, mj in enumerate(modes):
            big[mi, mj] = a[i, j]
            big[mi, n_total + mj] = b[i, j]
            big[n_total + mi, mj] = b[i, j].conjugate()
            big[n_total + mi, n_total + mj] = a[i, j].conjugate()
    return big


def test_embed_symplectic_matches_the_loop_construction():
    rng = np.random.default_rng(7)
    for _ in range(30):
        p = rng.uniform(-2.0, 2.0, size=6)
        # complex A and B, and a stored lower row off the conjugate of the
        # upper one within STRUCTURE_TOL: the embedding reads the upper row
        cases = (
            SymplecticMatrix(perturbed(gate_single_mode_squeezer(p[0]), "structure", 0.5, 1)),
            mode_mixer_from_overlap(p[1], p[2]) @ gate_two_mode_squeezer(p[3]),
            passive_symplectic(tritter(*p[2:]))
            @ embed_symplectic(gate_two_mode_squeezer(p[0]), 3, (2, 0)),
        )
        for gate in cases:
            n_total = gate.n_modes + int(rng.integers(2, 4))
            modes = [int(m) for m in rng.permutation(n_total)[: gate.n_modes]]
            got = embed_symplectic(gate, n_total, modes)
            assert np.array_equal(got.matrix, loop_embedding(gate, n_total, modes))
