"""End-to-end checks, one per advertised guarantee of the package.

Each test carries its own tolerance and wall-clock budget and is written
against independent references: 60-digit arithmetic for the closed forms
and truncated number-basis evolution for the Gaussian machinery.
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import expm

import fock_oracle as fo
import highprec as hp
from graviphoton import (
    GaussianProfile,
    LinkScenario,
    ObserverPath,
    RedshiftFactor,
    SchwarzschildGeometry,
    SensingChannel,
    apply_symplectic,
    build_sensing_channel,
    circular_orbit_angular_velocity,
    cli,
    embed_symplectic,
    gate_beamsplitter,
    gate_single_mode_squeezer,
    gate_two_mode_squeezer,
    gaussian_fidelity,
    interference_qber,
    l2_norm,
    mean_photon_number,
    overlap,
    partial_trace,
    qber_at_chi,
    qber_bandwidth_sweep,
    qfi_finite_difference,
    redshift_static_orbit,
    redshift_static_static,
    redshift_transform,
    sharp_commutator_scale,
    state_coherent,
    state_thermal,
    state_vacuum,
    static_proper_acceleration,
    tensor_product,
    thermal_occupation,
    tritter,
    williamson_eigenvalues,
)
from graviphoton.constants import EARTH_MASS_KG, EARTH_RADIUS_M, HBAR, K_BOLTZMANN
from graviphoton.wavepacket import SampledGridProfile

GOLDEN = Path(__file__).parent / "golden"

W0 = 2.0 * math.pi * 4.3e14
SIG = 2.0 * math.pi * 1.0e5


def test_criterion_01_redshift_matches_sixty_digit_reference():
    rng = np.random.default_rng(41)
    t0 = time.perf_counter()
    for _ in range(100):
        r_s = 10.0 ** rng.uniform(-3.0, 9.0)
        geom = SchwarzschildGeometry(r_s)
        ra = r_s * (1.0 + 10.0 ** rng.uniform(-5.0, 6.0))
        rb = r_s * (1.0 + 10.0 ** rng.uniform(-5.0, 6.0))
        got = redshift_static_static(geom, ra, rb).chi_squared
        want = hp.as_float(hp.chi_squared_static_static(r_s, ra, rb))
        assert math.isclose(got, want, rel_tol=1e-13)

        rb_orb = 1.5 * r_s * (1.0 + 10.0 ** rng.uniform(-3.0, 6.0))
        got = redshift_static_orbit(geom, ra, rb_orb).chi_squared
        want = hp.as_float(hp.chi_squared_static_orbit(r_s, ra, rb_orb))
        assert math.isclose(got, want, rel_tol=1e-13)
    assert time.perf_counter() - t0 < 1.0


def test_criterion_02_earth_surface_hover_acceleration():
    geom = SchwarzschildGeometry.from_mass(EARTH_MASS_KG)
    g = static_proper_acceleration(geom, EARTH_RADIUS_M)
    assert 9.7 <= g <= 9.9


def test_criterion_03_frequency_rescaling_preserves_and_inverts():
    rng = np.random.default_rng(73)
    t0 = time.perf_counter()
    for i in range(50):
        omega0 = 10.0 ** rng.uniform(14.8, 15.6)
        sigma = omega0 / 10.0 ** rng.uniform(1.1, 5.5)
        if i % 2 == 0:
            chi = 1.0 + rng.uniform(-1.0e-6, 1.0e-6)
        else:
            chi = rng.uniform(0.5, 2.0)
        if i % 3 == 0:
            u = np.linspace(-8.0, 8.0, 801)
            amp = (math.pi * sigma**2) ** -0.25 * np.exp(-(u**2) / 2.0)
            profile = SampledGridProfile.from_samples(omega0 + sigma * u, amp)
        else:
            profile = GaussianProfile(omega0, sigma)

        shifted = redshift_transform(profile, RedshiftFactor(chi))
        assert abs(l2_norm(shifted) - 1.0) < 1e-9
        back = redshift_transform(shifted, RedshiftFactor(1.0 / chi))
        assert abs(abs(overlap(profile, back)) - 1.0) < 1e-9
        if isinstance(profile, GaussianProfile):
            assert math.isclose(back.omega0_rad_s, profile.omega0_rad_s, rel_tol=1e-9)
            assert math.isclose(back.sigma_rad_s, profile.sigma_rad_s, rel_tol=1e-9)
    assert time.perf_counter() - t0 < 30.0


def test_criterion_04_sharp_momentum_commutator_scale():
    rng = np.random.default_rng(7)
    for _ in range(20):
        alpha = complex(rng.normal(), rng.normal())
        if alpha == 0:
            continue
        assert sharp_commutator_scale(alpha) == 1.0 / abs(alpha)


def test_criterion_05_gate_residuals_and_mode_occupations():
    rng = np.random.default_rng(11)
    t0 = time.perf_counter()
    ctors = (gate_single_mode_squeezer, gate_beamsplitter, gate_two_mode_squeezer)
    for k in range(1000):
        param = rng.uniform(-2.0, 2.0)
        assert ctors[k % 3](param).residual < 1e-12

    for _ in range(25):
        alpha = complex(rng.normal(), rng.normal())
        got = mean_photon_number(state_coherent(alpha))
        assert math.isclose(got, abs(alpha) ** 2, rel_tol=1e-12, abs_tol=1e-15)

        s = rng.uniform(0.0, 1.5)
        pair = apply_symplectic(
            state_vacuum(2),
            embed_symplectic(gate_single_mode_squeezer(s), 2, (0,))
            @ embed_symplectic(gate_single_mode_squeezer(s), 2, (1,)),
        )
        assert math.isclose(
            mean_photon_number(pair), 2.0 * math.sinh(s) ** 2, rel_tol=1e-12, abs_tol=1e-15
        )

        r = rng.uniform(0.0, 1.5)
        twin = apply_symplectic(state_vacuum(2), gate_two_mode_squeezer(r))
        assert math.isclose(
            mean_photon_number(twin), 2.0 * math.sinh(r) ** 2, rel_tol=1e-12, abs_tol=1e-15
        )

        nbar = rng.uniform(0.0, 5.0)
        assert math.isclose(
            mean_photon_number(state_thermal(nbar)), nbar, rel_tol=1e-12, abs_tol=1e-15
        )

        half = partial_trace(twin, (0,))
        assert math.isclose(
            williamson_eigenvalues(half)[0], math.cosh(2.0 * r), rel_tol=1e-10
        )

    for omega, temp in ((2.0e15, 300.0), (1.2e15, 40.0), (3.0e14, 77.0)):
        x = HBAR * omega / (K_BOLTZMANN * temp)
        assert math.isclose(
            thermal_occupation(omega, temp), 1.0 / math.expm1(x), rel_tol=1e-12
        )
    assert thermal_occupation(3.0e14, 2.7) == 0.0
    assert time.perf_counter() - t0 < 10.0


def _sample_budgeted_circuit(rng):
    """Random two-mode circuit whose squeezing stays checkable at dim 25.

    Truncated number-basis evolution at dimension 25 only reproduces second
    moments to 1e-8 while the total squeezing strength stays moderate, so
    draws spend a budget of two units (one per single-mode squeezer on
    distinct modes, two for a twin-beam squeezer) and keep squeezing
    parameters at or below 0.35; beamsplitters are free and bounded by 0.5.
    """
    gates = []
    budget = 2
    free_modes = [0, 1]
    for _ in range(int(rng.integers(1, 5))):
        kinds = ["bs"]
        if budget >= 1 and free_modes:
            kinds.append("sms")
        if budget >= 2:
            kinds.append("tms")
        kind = kinds[int(rng.integers(0, len(kinds)))]
        if kind == "bs":
            gates.append(("bs", float(rng.uniform(0.05, 0.5)), (0, 1)))
        elif kind == "sms":
            mode = free_modes.pop(int(rng.integers(0, len(free_modes))))
            budget -= 1
            gates.append(("sms", float(rng.uniform(0.05, 0.35)), mode))
        else:
            budget -= 2
            gates.append(("tms", float(rng.uniform(0.05, 0.35)), (0, 1)))
    return gates


def _gaussian_circuit_state(gates):
    state = state_vacuum(2)
    for kind, param, where in gates:
        if kind == "sms":
            gate = embed_symplectic(gate_single_mode_squeezer(param), 2, (where,))
        elif kind == "bs":
            gate = gate_beamsplitter(param)
        else:
            gate = gate_two_mode_squeezer(param)
        state = apply_symplectic(state, gate)
    return state


def test_criterion_06_circuits_match_number_basis_evolution():
    dim = 25
    t0 = time.perf_counter()
    circuits = [
        [("bs", 0.5, (0, 1))],
        [("tms", 0.5, (0, 1))],
        [("sms", 0.4, 0), ("bs", 0.5, (0, 1)), ("sms", 0.3, 1)],
        [("sms", 0.35, 0), ("tms", 0.35, (0, 1))],
        [("sms", 0.35, 0), ("bs", 0.5, (0, 1)), ("tms", 0.35, (0, 1))],
        [("tms", 0.35, (0, 1)), ("tms", 0.35, (0, 1))],
    ]
    rng = np.random.default_rng(20240601)
    circuits.extend(_sample_budgeted_circuit(rng) for _ in range(60))

    worst = 0.0
    for gates in circuits:
        state = _gaussian_circuit_state(gates)
        psi = fo.run_circuit(gates, 2, dim)
        first, sigma = fo.moments_from_vector(psi, 2, dim)
        err = max(
            float(np.max(np.abs(sigma - state.covariance))),
            float(np.max(np.abs(first - state.first_moments))),
        )
        worst = max(worst, err)
        assert err < 1e-8, gates
    assert time.perf_counter() - t0 < 60.0


def _fock_squeezed_thermal(s, nbar, dim):
    gen = fo.generator_squeezer(s, 0, 1, dim)
    u = expm(gen.toarray())
    return u @ fo.thermal_density(nbar, dim) @ u.conj().T


def _fock_rotated_thermal_pair(theta, nbar_a, nbar_b, dim):
    rho = np.kron(fo.thermal_density(nbar_a, dim), fo.thermal_density(nbar_b, dim))
    gen = fo.generator_beamsplitter(theta, (0, 1), 2, dim)
    u = expm(gen.toarray())
    return u @ rho @ u.conj().T


def test_criterion_07_fidelity_and_qfi_match_number_basis():
    t0 = time.perf_counter()
    dim1, dim2 = 40, 22

    sq = lambda s: apply_symplectic(state_vacuum(1), gate_single_mode_squeezer(s))
    sqth = lambda s, n: apply_symplectic(state_thermal(n), gate_single_mode_squeezer(s))
    tms = lambda r: apply_symplectic(state_vacuum(2), gate_two_mode_squeezer(r))
    rotth = lambda th, na, nb: apply_symplectic(
        tensor_product(state_thermal(na), state_thermal(nb)), gate_beamsplitter(th)
    )
    sspair = lambda sa, sb: apply_symplectic(
        state_vacuum(2),
        embed_symplectic(gate_single_mode_squeezer(sa), 2, (0,))
        @ embed_symplectic(gate_single_mode_squeezer(sb), 2, (1,)),
    )

    def vec1(gates):
        return fo.run_circuit(gates, 1, dim1)

    def vec2(gates):
        return fo.run_circuit(gates, 2, dim2)

    vac1 = np.zeros(dim1)
    vac1[0] = 1.0
    pairs = []
    for nbar in (0.2, 0.5, 0.8):
        pairs.append((state_vacuum(1), state_thermal(nbar), vac1, fo.thermal_density(nbar, dim1)))
    pairs.append((state_thermal(0.3), state_thermal(0.7), fo.thermal_density(0.3, dim1), fo.thermal_density(0.7, dim1)))
    pairs.append((state_thermal(0.1), state_thermal(0.6), fo.thermal_density(0.1, dim1), fo.thermal_density(0.6, dim1)))
    for s, nbar in ((0.2, 0.4), (0.35, 0.2), (0.5, 0.6)):
        pairs.append((sq(s), state_thermal(nbar), vec1([("sms", s, 0)]), fo.thermal_density(nbar, dim1)))
    for sa, sb in ((0.3, -0.25), (0.5, 0.1)):
        pairs.append((sq(sa), sq(sb), vec1([("sms", sa, 0)]), vec1([("sms", sb, 0)])))
    pairs.append((sqth(0.25, 0.3), state_thermal(0.6), _fock_squeezed_thermal(0.25, 0.3, dim1), fo.thermal_density(0.6, dim1)))
    pairs.append((sqth(0.2, 0.5), sqth(0.3, 0.1), _fock_squeezed_thermal(0.2, 0.5, dim1), _fock_squeezed_thermal(0.3, 0.1, dim1)))

    vac2 = np.zeros(dim2 * dim2)
    vac2[0] = 1.0
    for ra, rb in ((0.2, 0.3), (0.35, 0.5), (0.5, 0.25)):
        pairs.append((tms(ra), tms(rb), vec2([("tms", ra, (0, 1))]), vec2([("tms", rb, (0, 1))])))
    for r in (0.3, 0.45):
        pairs.append((tms(r), state_vacuum(2), vec2([("tms", r, (0, 1))]), vac2))
    pairs.append((tms(0.3), rotth(0.6, 0.4, 0.1), vec2([("tms", 0.3, (0, 1))]), _fock_rotated_thermal_pair(0.6, 0.4, 0.1, dim2)))
    pairs.append((rotth(0.6, 0.4, 0.1), rotth(1.1, 0.4, 0.1), _fock_rotated_thermal_pair(0.6, 0.4, 0.1, dim2), _fock_rotated_thermal_pair(1.1, 0.4, 0.1, dim2)))
    pairs.append((sspair(0.3, -0.2), tms(0.35), vec2([("sms", 0.3, 0), ("sms", -0.2, 1)]), vec2([("tms", 0.35, (0, 1))])))

    assert len(pairs) == 20
    # number-basis references: the general matrix-root fidelity amplifies
    # rank-deficiency rounding noise on projectors to ~1e-7, so pure states
    # (stored as vectors) use the exact pure-state reductions instead
    for state_a, state_b, fa, fb in pairs:
        got = gaussian_fidelity(state_a, state_b)
        if fa.ndim == 1 and fb.ndim == 1:
            want = abs(np.vdot(fa, fb)) ** 2
        elif fa.ndim == 1:
            want = float(np.vdot(fa, fb @ fa).real)
        elif fb.ndim == 1:
            want = float(np.vdot(fb, fa @ fb).real)
        else:
            want = fo.fidelity(fa, fb)
        assert abs(got - want) < 1e-7

    # phase estimation through weak taps on a twin beam, checked against the
    # symmetric-logarithmic-derivative value in the truncated number basis
    r_probe, theta_probe, dim_q, h = 0.3, 0.1, 10, 1e-3
    _, tap = build_sensing_channel(SensingChannel(r_probe))
    rep = qfi_finite_difference(lambda t: tap(t), theta_probe)

    def reduced(theta):
        gates = [
            ("tms", r_probe, (0, 1)),
            ("bs", theta, (0, 2)),
            ("bs", theta, (1, 3)),
        ]
        psi = fo.run_circuit(gates, 4, dim_q)
        return fo.reduce_to_modes_01(psi.reshape(dim_q, dim_q, dim_q, dim_q), dim_q)

    rho = reduced(theta_probe)
    drho = (reduced(theta_probe + h) - reduced(theta_probe - h)) / (2.0 * h)
    want = fo.sld_qfi(rho, drho)
    assert abs(rep.qfi - want) / want < 1e-4
    assert time.perf_counter() - t0 < 120.0


def test_criterion_08_satellite_link_error_budget():
    geom = SchwarzschildGeometry.from_mass(EARTH_MASS_KG)
    scenario = LinkScenario(
        geom,
        ObserverPath("static", EARTH_RADIUS_M),
        ObserverPath("static", EARTH_RADIUS_M + 5.0e5),
        GaussianProfile(W0, SIG),
    )
    grid = [2.0 * math.pi * f for f in (1.0e5, 2.0e5, 4.0e5, 1.0e6)]
    rows = qber_bandwidth_sweep(scenario, grid)
    assert any(0.003 <= row.qber <= 0.03 for row in rows)

    matched = qber_at_chi(GaussianProfile(W0, SIG), RedshiftFactor(1.0))
    assert matched.qber == 0.0

    sigma = 2.0 * math.pi * 5.0e6
    prof = GaussianProfile(W0, sigma)
    ts = [1.0e-11, 10.0**-10.5, 1.0e-10, 10.0**-9.5, 1.0e-9]
    zs, qs = [], []
    for t in ts:
        chi = RedshiftFactor(math.sqrt(1.0 + t))
        zs.append(chi.z)
        qs.append(qber_at_chi(prof, chi).qber)
    slope = np.polyfit(np.log(zs), np.log(qs), 1)[0]
    assert abs(slope - 2.0) < 0.05


def test_criterion_09_three_mode_mixer_unitarity():
    rng = np.random.default_rng(3)
    eye = np.eye(3)
    for _ in range(1000):
        u = tritter(*rng.uniform(0.0, 2.0 * math.pi, size=4))
        assert np.max(np.abs(u @ u.conj().T - eye)) < 1e-14


def _cli_corpus(tmp_path):
    """Twenty-three scenario files with their expected exit codes."""
    W = {"kind": "gaussian", "omega0_rad_s": W0, "sigma_rad_s": SIG, "phase_rad": 0.0}

    def link(task):
        return {
            "task": task,
            "body": {"mass_kg": EARTH_MASS_KG},
            "emitter": {"type": "static", "radius_m": EARTH_RADIUS_M},
            "receiver": {"type": "static", "radius_m": EARTH_RADIUS_M + 5.0e5},
        }

    u = np.linspace(-8.0, 8.0, 801)
    amp = (math.pi * SIG**2) ** -0.25 * np.exp(-(u**2) / 2.0)
    grid = SampledGridProfile.from_samples(W0 + SIG * u, amp)
    grid_record = {
        "kind": "grid",
        "omega_rad_s": grid.omega_rad_s.tolist(),
        "re": grid.amplitude.real.tolist(),
        "im": grid.amplitude.imag.tolist(),
    }

    corpus = []

    cfg = link("redshift")
    corpus.append(("v-redshift", cfg, 0))
    cfg = {
        "task": "redshift",
        "body": {"r_s_m": 0.009},
        "emitter": {"type": "static", "radius_m": 6.371e6},
        "receiver": {"type": "static", "radius_m": 7.0e6},
    }
    corpus.append(("v-schwarzschild-size", cfg, 0))
    cfg = link("redshift")
    cfg["receiver"] = {"type": "orbit", "radius_m": 6.771e6}
    corpus.append(("v-orbit", cfg, 0))
    cfg = link("overlap")
    cfg["photon"] = dict(W)
    corpus.append(("v-overlap", cfg, 0))
    cfg = link("overlap")
    cfg["photon"] = grid_record
    corpus.append(("v-overlap-grid", cfg, 0))
    cfg = link("qber-sweep")
    cfg["photon"] = dict(W)
    cfg["sweep"] = {"sigma_rad_s": [SIG, 2.0 * SIG]}
    corpus.append(("v-qber", cfg, 0))
    cfg = {"task": "qfi-sweep", "estimation": {"squeezing_r": 0.3, "theta_rad": [0.1, 0.2], "probe_count": 2}}
    corpus.append(("v-qfi", cfg, 0))
    cfg = {"task": "qfi-sweep", "estimation": {"squeezing_r": 0.2, "theta_rad": [0.3]}}
    corpus.append(("v-qfi-default-probes", cfg, 0))
    cfg = {"task": "qfi-sweep", "estimation": {"squeezing_r": 40.0, "theta_rad": [0.0, 1e-9, math.pi / 2.0]}}
    corpus.append(("v-qfi-strong-squeezing-endpoints", cfg, 0))

    corpus.append(("s-no-task", {"body": {"mass_kg": 1.0e24}}, 2))
    corpus.append(("s-bad-task", {"task": "resonance"}, 2))
    cfg = link("redshift")
    del cfg["receiver"]
    corpus.append(("s-missing-block", cfg, 2))
    cfg = link("redshift")
    cfg["body"] = {"mass_kg": EARTH_MASS_KG, "r_s_m": 0.009}
    corpus.append(("s-two-sizes", cfg, 2))
    cfg = {"task": "qfi-sweep", "estimation": {"squeezing_r": 0.3, "theta_rad": 0.1}}
    corpus.append(("s-scalar-grid", cfg, 2))
    cfg = link("redshift")
    cfg["output"] = {"format": "yaml"}
    corpus.append(("s-bad-format", cfg, 2))

    cfg = {
        "task": "redshift",
        "body": {"r_s_m": 1000.0},
        "emitter": {"type": "static", "radius_m": 900.0},
        "receiver": {"type": "static", "radius_m": 5000.0},
    }
    corpus.append(("d-inside-horizon", cfg, 3))
    cfg = {
        "task": "redshift",
        "body": {"r_s_m": 1000.0},
        "emitter": {"type": "static", "radius_m": 5000.0},
        "receiver": {"type": "orbit", "radius_m": 1400.0},
    }
    corpus.append(("d-low-orbit", cfg, 3))
    cfg = link("qber-sweep")
    cfg["photon"] = dict(W)
    cfg["sweep"] = {"sigma_rad_s": [2.0 * SIG, SIG]}
    corpus.append(("d-unsorted-grid", cfg, 3))
    cfg = {"task": "qfi-sweep", "estimation": {"squeezing_r": 0.3, "theta_rad": [3.0]}}
    corpus.append(("d-angle-range", cfg, 3))
    cfg = {"task": "qfi-sweep", "estimation": {"squeezing_r": 0.3, "theta_rad": [0.1], "probe_count": 0}}
    corpus.append(("d-zero-probes", cfg, 3))
    cfg = {"task": "qfi-sweep", "estimation": {"squeezing_r": 800.0, "theta_rad": [0.3]}}
    corpus.append(("d-squeezing-overflow", cfg, 3))
    cfg = link("qber-sweep")
    cfg["photon"] = grid_record
    cfg["sweep"] = {"sigma_rad_s": [SIG, 2.0 * SIG]}
    corpus.append(("d-sweep-needs-width", cfg, 3))
    cfg = link("qber-sweep")
    cfg["photon"] = {"kind": "gaussian", "omega0_rad_s": 1000.0, "sigma_rad_s": 10.0}
    cfg["sweep"] = {"sigma_rad_s": [10.0, 200.0]}  # omega0/sigma = 5 at the second width
    corpus.append(("d-sweep-width-beyond-carrier", cfg, 3))

    assert len(corpus) == 23
    paths = []
    for name, cfg, expected in corpus:
        p = tmp_path / f"{name}.json"
        p.write_text(json.dumps(cfg))
        paths.append((name, str(p), expected))
    return paths


def test_criterion_10_cli_golden_files_and_mode_agreement(tmp_path, capsys):
    t0 = time.perf_counter()
    for task, suffix in (
        ("redshift", "csv"),
        ("overlap", "csv"),
        ("qber-sweep", "csv"),
        ("qfi-sweep", "json"),
    ):
        cfg = str(GOLDEN / f"{task}.json")
        expected = (GOLDEN / f"{task}.expected.{suffix}").read_bytes()
        out_a = tmp_path / f"{task}-a.{suffix}"
        out_b = tmp_path / f"{task}-b.{suffix}"
        assert cli.main(["run", cfg, "--output", str(out_a)]) == 0
        assert cli.main(["run", cfg, "--output", str(out_b)]) == 0
        assert out_a.read_bytes() == expected, task
        assert out_b.read_bytes() == expected, task
    capsys.readouterr()

    table = tmp_path / "scratch.out"
    for name, path, expected in _cli_corpus(tmp_path):
        table.unlink(missing_ok=True)
        val_code = cli.main(["validate", path])
        val_out = capsys.readouterr().out
        run_code = cli.main(["run", path, "--output", str(table)])
        run_err = capsys.readouterr().err
        assert val_code == expected, name
        assert run_code == expected, name
        if expected == 0:
            cells = [c for line in table.read_text().splitlines()[1:] for c in line.split(",")]
            assert all(math.isfinite(float(c)) for c in cells), name
        if expected == 3:
            assert json.loads(run_err)["error"] == val_out.split(": ")[1], name
    assert time.perf_counter() - t0 < 120.0
