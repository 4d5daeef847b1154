import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import highprec as hp
from graviphoton import (
    DomainError,
    GaussianProfile,
    LinkScenario,
    ObserverPath,
    QberReport,
    RedshiftFactor,
    SchwarzschildGeometry,
    interference_qber,
    link_redshift,
    overlap,
    qber_at_chi,
    qber_bandwidth_sweep,
    redshift_static_orbit,
    redshift_transform,
    redshift_static_static,
)
from graviphoton.constants import EARTH_MASS_KG, EARTH_RADIUS_M
from graviphoton import wavepacket
from graviphoton.wavepacket import SampledGridProfile

W0 = 2.0 * math.pi * 4.3e14
SIG = 2.0 * math.pi * 1.0e5

EARTH = SchwarzschildGeometry.from_mass(EARTH_MASS_KG)
GROUND = ObserverPath("static", EARTH_RADIUS_M)
LEO = ObserverPath("static", EARTH_RADIUS_M + 5.0e5)
PHOTON = GaussianProfile(W0, SIG)


def leo_scenario(profile=PHOTON):
    return LinkScenario(EARTH, GROUND, LEO, profile)


# receivers of the benchmark's five links; the emitter hovers at the surface
BENCH_RECEIVERS = (
    ObserverPath("static", EARTH_RADIUS_M + 1.0),
    ObserverPath("static", EARTH_RADIUS_M + 1.0e3),
    LEO,
    ObserverPath("orbit", EARTH_RADIUS_M + 4.0e5),
    ObserverPath("orbit", 4.2164e7),
)


def object_path_report(sigma, chi, efficiency, phase):
    """The report of one width through the public profile objects."""
    p = GaussianProfile(W0, sigma, phase)
    magnitude = min(abs(overlap(p, redshift_transform(p, chi))), 1.0)
    visibility = efficiency * magnitude**2
    return QberReport(chi, magnitude, visibility, 0.5 * (1.0 - visibility), efficiency, sigma)


def oracle_qber(chi, sigma):
    # evaluates the closed-form overlap at the same double-precision profile
    # parameters the quadrature integrates, so only the integration itself is
    # under test and not the (trivial) parameter requantization
    sent = GaussianProfile(W0, sigma)
    got = redshift_transform(sent, chi)
    ov = hp.gaussian_overlap(
        hp.mp.mpf(repr(sent.omega0_rad_s)),
        hp.mp.mpf(repr(sent.sigma_rad_s)),
        hp.mp.mpf(repr(got.omega0_rad_s)),
        hp.mp.mpf(repr(got.sigma_rad_s)),
    )
    return hp.as_float((1 - ov**2) / 2)


def test_scenario_validation():
    with pytest.raises(DomainError, match="SchwarzschildGeometry"):
        LinkScenario(1.0, GROUND, LEO, PHOTON)
    with pytest.raises(DomainError, match="emitter must be an ObserverPath"):
        LinkScenario(EARTH, "ground", LEO, PHOTON)
    with pytest.raises(DomainError, match="spectral profile"):
        LinkScenario(EARTH, GROUND, LEO, profile=3.5)


def test_report_validation():
    chi = RedshiftFactor(1.0)
    QberReport(chi, 0.9, 0.81, 0.095)
    with pytest.raises(DomainError, match="overlap magnitude"):
        QberReport(chi, 1.2, 0.8, 0.1)
    with pytest.raises(DomainError, match="visibility"):
        QberReport(chi, 0.9, -0.1, 0.1)
    with pytest.raises(DomainError, match="qber"):
        QberReport(chi, 0.9, 0.8, 0.7)


def test_link_redshift_matches_pointwise_formulas():
    scen = leo_scenario()
    direct = redshift_static_static(EARTH, GROUND.radius_m, LEO.radius_m)
    assert link_redshift(scen).chi == direct.chi

    orbit = LinkScenario(EARTH, GROUND, ObserverPath("orbit", 6.771e6), PHOTON)
    direct = redshift_static_orbit(EARTH, GROUND.radius_m, 6.771e6)
    assert link_redshift(orbit).chi == direct.chi


def test_orbit_emitter_is_not_supported():
    scen = LinkScenario(EARTH, ObserverPath("orbit", 6.771e6), GROUND, PHOTON)
    with pytest.raises(DomainError, match="no redshift formula"):
        link_redshift(scen)


def test_matched_frequencies_give_zero_error_rate():
    rep = qber_at_chi(PHOTON, RedshiftFactor(1.0))
    assert rep.overlap_magnitude == 1.0
    assert rep.visibility == 1.0
    assert rep.qber == 0.0


def test_report_fields_are_consistent():
    chi = RedshiftFactor(math.sqrt(1.0 + 3.0e-11))
    rep = qber_at_chi(PHOTON, chi, efficiency=0.93)
    assert rep.visibility == pytest.approx(0.93 * rep.overlap_magnitude**2, rel=1e-15)
    assert rep.qber == pytest.approx((1.0 - rep.visibility) / 2.0, rel=1e-15)
    assert rep.efficiency == 0.93
    with pytest.raises(DomainError, match="efficiency"):
        qber_at_chi(PHOTON, chi, efficiency=1.2)


def test_lossy_detection_raises_floor_even_when_matched():
    rep = qber_at_chi(PHOTON, RedshiftFactor(1.0), efficiency=0.9)
    assert rep.qber == pytest.approx(0.05, rel=1e-15)


def test_ground_to_orbit_error_rate_against_reference():
    rep = interference_qber(leo_scenario())
    chi = link_redshift(leo_scenario())
    assert abs(chi.z + 5.0657256166955106e-11) < 1e-24
    assert rep.qber == pytest.approx(oracle_qber(chi, SIG), abs=1e-12)
    assert 0.003 < rep.qber < 0.03


def test_grid_photon_agrees_with_analytic_photon():
    omega = W0 + SIG * np.linspace(-8.0, 8.0, 1201)
    amp = (math.pi * SIG**2) ** -0.25 * np.exp(-((omega - W0) ** 2) / (2.0 * SIG**2))
    grid = SampledGridProfile.from_samples(omega, amp)
    chi = RedshiftFactor(math.sqrt(1.0 + 4.0e-11))
    a = qber_at_chi(PHOTON, chi)
    b = qber_at_chi(grid, chi)
    assert b.qber == pytest.approx(a.qber, abs=1e-8)


def test_bandwidth_sweep_rows():
    grid = [SIG, 2.0 * SIG, 4.0 * SIG, 8.0 * SIG]
    rows = qber_bandwidth_sweep(leo_scenario(), grid)
    assert [r.sigma_rad_s for r in rows] == grid
    # narrower filters suffer more from a fixed frequency offset
    qbers = [r.qber for r in rows]
    assert qbers == sorted(qbers, reverse=True)
    for row, sigma in zip(rows, grid):
        assert row.qber == pytest.approx(oracle_qber(row.chi, sigma), abs=1e-12)


def test_bandwidth_sweep_matches_single_point_calls():
    # 12 widths from 2 pi 1e4 to 2 pi 1e7 rad/s and one just inside the carrier rule
    phase = 0.7
    widths = [2.0 * math.pi * 10.0 ** (4.0 + 3.0 * k / 11.0) for k in range(12)]
    widths.append(W0 / 8.000001)
    for receiver in BENCH_RECEIVERS:
        scenario = LinkScenario(EARTH, GROUND, receiver, GaussianProfile(W0, SIG, phase))
        chi = link_redshift(scenario)
        for efficiency in (1.0, 0.9):
            rows = qber_bandwidth_sweep(scenario, widths, efficiency=efficiency)
            assert rows == [object_path_report(s, chi, efficiency, phase) for s in widths]
            solo = [
                qber_at_chi(GaussianProfile(W0, s, phase), chi, efficiency, sigma_rad_s=s)
                for s in widths
            ]
            assert rows == solo
        # a refused width, alone or among valid ones, reads as GaussianProfile refuses it
        for bad, among in ((W0 / 8.0, widths[:12] + [W0 / 8.0]), (1e-151, [1e-151] + widths)):
            with pytest.raises(DomainError) as want:
                GaussianProfile(W0, bad, phase)
            for grid in ([bad], among):
                with pytest.raises(DomainError) as got:
                    qber_bandwidth_sweep(scenario, grid)
                assert str(got.value) == str(want.value)


def test_tiny_widths_are_refused_below_the_floor():
    # at sigma = 1e-160 the overlap's 2 s_a s_b underflowed to a subnormal
    # and an error rate of 1e-12 read 0
    for sigma in (1e-170, 1e-160, 0.5 * wavepacket.MIN_WIDTH_RAD_S):
        with pytest.raises(DomainError, match="below the narrowest width"):
            GaussianProfile(10.0 * sigma, sigma)
    p = GaussianProfile(1e-149, wavepacket.MIN_WIDTH_RAD_S)
    assert qber_at_chi(p, 1.0 / 1.0000001).qber == pytest.approx(1.0e-12, rel=0.02)
    # an image narrower than the floor is refused as redshift_transform refuses it
    with pytest.raises(DomainError, match="below the narrowest width") as want:
        redshift_transform(p, 1.0000001)
    with pytest.raises(DomainError) as got:
        qber_at_chi(p, 1.0000001)
    assert str(got.value) == str(want.value)


def test_chi_whose_square_vanishes_or_overflows_is_refused():
    gaussian = GaussianProfile(2.7e15, 1e6)
    omega = 2.7e15 + 1e6 * np.linspace(-8.0, 8.0, 101)
    grid = SampledGridProfile.from_samples(omega, np.exp(-0.5 * ((omega - 2.7e15) / 1e6) ** 2))
    for profile in (gaussian, grid):
        for chi in (1e-200, 1e200):
            with pytest.raises(DomainError, match=r"chi\*\*2 must be finite and nonzero"):
                qber_at_chi(profile, chi)
    with pytest.raises(DomainError, match=r"chi\*\*2 must be finite and nonzero"):
        redshift_transform(gaussian, 1e-170)
    # images off the profile rules: a carrier past the largest float, a width below the floor
    for chi in (1e-150, 1e150):
        with pytest.raises(DomainError) as want:
            redshift_transform(gaussian, chi)
        with pytest.raises(DomainError) as got:
            qber_at_chi(gaussian, chi)
        assert str(got.value) == str(want.value)


def test_bandwidth_sweep_input_checks():
    scen = leo_scenario()
    with pytest.raises(DomainError, match="must not be empty"):
        qber_bandwidth_sweep(scen, [])
    with pytest.raises(DomainError, match="finite and positive"):
        qber_bandwidth_sweep(scen, [SIG, -SIG])
    with pytest.raises(DomainError, match="strictly increasing"):
        qber_bandwidth_sweep(scen, [2.0 * SIG, SIG])
    omega = W0 + SIG * np.linspace(-8.0, 8.0, 801)
    amp = np.exp(-((omega - W0) ** 2) / (2.0 * SIG**2))
    grid_photon = SampledGridProfile.from_samples(omega, amp)
    with pytest.raises(DomainError, match="analytic width"):
        qber_bandwidth_sweep(leo_scenario(grid_photon), [SIG])


def test_identical_radii_sweep_is_all_zeros():
    scen = LinkScenario(EARTH, GROUND, ObserverPath("static", GROUND.radius_m), PHOTON)
    rows = qber_bandwidth_sweep(scen, [SIG, 2.0 * SIG])
    assert all(r.qber == 0.0 for r in rows)


def test_error_rate_symmetric_between_up_and_down_links():
    # kappa -> 1/kappa leaves both the prefactor and the exponent of the
    # gaussian overlap invariant, so uplink and downlink budgets agree
    for kappa, ratio in [(1.002, 0.4), (1.07, 1.3), (1.5, 2.6), (1.9, 0.7)]:
        sigma = min(W0 * (kappa - 1.0) / ratio, W0 / 8.6)
        prof = GaussianProfile(W0, sigma)
        up = qber_at_chi(prof, RedshiftFactor(math.sqrt(kappa)))
        down = qber_at_chi(prof, RedshiftFactor(math.sqrt(1.0 / kappa)))
        assert up.qber == pytest.approx(down.qber, rel=1e-10, abs=1e-13)


def test_small_shift_scaling_is_quadratic():
    sigma = 2.0 * math.pi * 5.0e6
    prof = GaussianProfile(W0, sigma)
    ts = [1.0e-11, 1.0e-10, 1.0e-9]
    qs = [qber_at_chi(prof, RedshiftFactor(math.sqrt(1.0 + t))).qber for t in ts]
    slope = (math.log(qs[2]) - math.log(qs[0])) / (math.log(ts[2]) - math.log(ts[0]))
    assert slope == pytest.approx(2.0, abs=0.01)


@given(
    u=st.floats(-3.0, -0.1),
    ratio=st.floats(0.25, 2.8),
    eff=st.floats(0.5, 1.0),
)
@settings(max_examples=40, deadline=None)
def test_symmetry_property(u, ratio, eff):
    kappa = 1.0 + 10.0**u
    sigma = min(W0 * (kappa - 1.0) / ratio, W0 / 8.6)
    prof = GaussianProfile(W0, sigma)
    up = qber_at_chi(prof, RedshiftFactor(math.sqrt(kappa)), efficiency=eff)
    down = qber_at_chi(prof, RedshiftFactor(math.sqrt(1.0 / kappa)), efficiency=eff)
    assert up.qber == pytest.approx(down.qber, rel=1e-9, abs=1e-12)
