import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import highprec as hp
from graviphoton import (
    DomainError,
    HorizonError,
    ObserverPath,
    OrbitDomainError,
    RedshiftFactor,
    SchwarzschildGeometry,
    circular_orbit_angular_velocity,
    redshift_static_orbit,
    redshift_static_static,
    static_proper_acceleration,
)
from graviphoton.constants import C_LIGHT, EARTH_MASS_KG, EARTH_RADIUS_M, G_NEWTON

EARTH = SchwarzschildGeometry.from_mass(EARTH_MASS_KG)


def test_schwarzschild_radius_from_mass():
    expected = 2.0 * G_NEWTON * EARTH_MASS_KG / C_LIGHT**2
    assert math.isclose(EARTH.schwarzschild_radius_m, expected, rel_tol=1e-15)
    assert math.isclose(EARTH.mass_kg, EARTH_MASS_KG, rel_tol=1e-15)


def test_lapse_approaches_unity_far_away():
    assert math.isclose(EARTH.lapse_squared(1e30), 1.0, rel_tol=1e-15)


def test_lapse_monotone_in_radius():
    radii = np.geomspace(EARTH.schwarzschild_radius_m * 2, 1e12, 50)
    lapses = [EARTH.lapse_squared(r) for r in radii]
    assert all(a < b for a, b in zip(lapses, lapses[1:]))


def test_horizon_guard():
    with pytest.raises(HorizonError, match="horizon guard band"):
        EARTH.lapse_squared(EARTH.schwarzschild_radius_m * 0.5)
    with pytest.raises(HorizonError):
        EARTH.lapse_squared(EARTH.schwarzschild_radius_m)


def test_invalid_geometry_and_radius():
    with pytest.raises(DomainError):
        SchwarzschildGeometry(-1.0)
    with pytest.raises(DomainError):
        SchwarzschildGeometry(float("nan"))
    with pytest.raises(DomainError):
        EARTH.lapse_squared(0.0)


def test_observer_path_validation():
    ObserverPath("static", 7e6)
    ObserverPath("orbit", 7e6)
    with pytest.raises(DomainError, match="observer kind"):
        ObserverPath("hovering", 7e6)
    with pytest.raises(DomainError):
        ObserverPath("static", -2.0)


def test_redshift_factor_accessors():
    f = RedshiftFactor(0.5)
    assert f.chi_squared == 0.25
    assert f.z == 0.25 - 1.0


def test_redshift_factor_refuses_a_square_that_vanishes_or_overflows():
    # every frequency a redshift maps is divided by chi**2
    for chi in (1e-200, 1e-170, 1e155, 1e200):
        with pytest.raises(DomainError, match=r"chi\*\*2 must be finite and nonzero"):
            RedshiftFactor(chi)
    for chi in (1e-160, 1e154):  # a subnormal and a near-largest square stay
        assert 0.0 < RedshiftFactor(chi).chi_squared < math.inf


def test_static_static_equal_radii_is_exactly_one():
    chi = redshift_static_static(EARTH, 6.371e6, 6.371e6)
    assert chi.chi == 1.0
    assert chi.z == 0.0


def test_static_static_against_reference():
    chi = redshift_static_static(EARTH, EARTH_RADIUS_M, EARTH_RADIUS_M + 5e5)
    ref = hp.chi_squared_static_static(
        EARTH.schwarzschild_radius_m, EARTH_RADIUS_M, EARTH_RADIUS_M + 5e5
    )
    assert math.isclose(chi.chi_squared, hp.as_float(ref), rel_tol=1e-14)
    # photon climbing out of the well arrives redshifted
    assert chi.chi_squared < 1.0


def test_static_orbit_against_reference():
    chi = redshift_static_orbit(EARTH, EARTH_RADIUS_M, 2.6561e7)
    ref = hp.chi_squared_static_orbit(
        EARTH.schwarzschild_radius_m, EARTH_RADIUS_M, 2.6561e7
    )
    assert math.isclose(chi.chi_squared, hp.as_float(ref), rel_tol=1e-14)


def test_static_static_reciprocity():
    rng = np.random.default_rng(5)
    for _ in range(25):
        rs = 10.0 ** rng.uniform(-3, 8)
        ra = rs * 10.0 ** rng.uniform(0.05, 6)
        rb = rs * 10.0 ** rng.uniform(0.05, 6)
        up = redshift_static_static(SchwarzschildGeometry(rs), ra, rb)
        down = redshift_static_static(SchwarzschildGeometry(rs), rb, ra)
        assert math.isclose(up.chi_squared * down.chi_squared, 1.0, rel_tol=1e-14)


def test_static_static_composition():
    geo = SchwarzschildGeometry(1.0)
    ra, rb, rc = 3.0, 17.0, 400.0
    direct = redshift_static_static(geo, ra, rc).chi_squared
    via = (
        redshift_static_static(geo, ra, rb).chi_squared
        * redshift_static_static(geo, rb, rc).chi_squared
    )
    assert math.isclose(direct, via, rel_tol=1e-14)


def test_orbit_domain_guard():
    geo = SchwarzschildGeometry(1.0e6)
    with pytest.raises(OrbitDomainError, match="innermost allowed orbit"):
        redshift_static_orbit(geo, 5.0e6, 1.4e6)
    with pytest.raises(OrbitDomainError):
        circular_orbit_angular_velocity(geo, 1.5e6)


def test_surface_acceleration_earth():
    g = static_proper_acceleration(EARTH, 6.371e6)
    assert 9.7 <= g <= 9.9
    ref = hp.hover_acceleration(EARTH.schwarzschild_radius_m, 6.371e6)
    assert math.isclose(g, hp.as_float(ref), rel_tol=1e-13)


def test_acceleration_respects_horizon_guard():
    with pytest.raises(HorizonError):
        static_proper_acceleration(EARTH, EARTH.schwarzschild_radius_m * 0.9)


def test_orbital_angular_velocity():
    omega = circular_orbit_angular_velocity(EARTH, 6.791e6)
    ref = hp.orbit_angular_velocity(EARTH.schwarzschild_radius_m, 6.791e6)
    assert math.isclose(omega, hp.as_float(ref), rel_tol=1e-13)
    period_min = 2.0 * math.pi / omega / 60.0
    assert 90.0 < period_min < 95.0


@given(
    rs=st.floats(1e-3, 1e9),
    fa=st.floats(1e-5, 1e6),
    fb=st.floats(1e-5, 1e6),
)
@settings(max_examples=60, deadline=None)
def test_static_static_matches_reference_everywhere(rs, fa, fb):
    ra, rb = rs * (1.0 + fa), rs * (1.0 + fb)
    chi = redshift_static_static(SchwarzschildGeometry(rs), ra, rb)
    ref = hp.as_float(hp.chi_squared_static_static(rs, ra, rb))
    assert chi.chi > 0.0 and math.isfinite(chi.chi)
    assert math.isclose(chi.chi_squared, ref, rel_tol=1e-13)


@given(
    rs=st.floats(1e-3, 1e9),
    fa=st.floats(1e-5, 1e6),
    fb=st.floats(0.501, 1e6),
)
@settings(max_examples=60, deadline=None)
def test_static_orbit_matches_reference_everywhere(rs, fa, fb):
    ra, rb = rs * (1.0 + fa), rs * (1.5 + fb)
    chi = redshift_static_orbit(SchwarzschildGeometry(rs), ra, rb)
    ref = hp.as_float(hp.chi_squared_static_orbit(rs, ra, rb))
    assert math.isclose(chi.chi_squared, ref, rel_tol=1e-13)
