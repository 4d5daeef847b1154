"""Schwarzschild geometry, observer families, and frequency-shift factors.

All radii are areal (Schwarzschild) radial coordinates in metres.  The
frequency ratio between an emitting observer A and a receiving observer B is
expressed through the factor ``chi`` defined by ``chi**2 = omega_B / omega_A``,
so ``chi**2 - 1`` is the usual redshift parameter ``z`` (negative when the
photon climbs out of the potential well).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .constants import C_LIGHT, G_NEWTON
from .errors import DomainError, HorizonError, OrbitDomainError

# Radii where the relevant metric function drops below this floor are
# rejected rather than evaluated; the formulas degrade far before it.
LAPSE_FLOOR = 1e-12

OBSERVER_KINDS = ("static", "orbit")


def _check_radius(radius_m: float, name: str = "radius_m") -> float:
    radius_m = float(radius_m)
    if not math.isfinite(radius_m) or radius_m <= 0.0:
        raise DomainError(f"{name} must be a finite positive number, got {radius_m!r}")
    return radius_m


@dataclass(frozen=True)
class SchwarzschildGeometry:
    """Static spherically symmetric vacuum exterior of a central mass.

    Parameters
    ----------
    schwarzschild_radius_m : float
        Horizon radius ``r_s = 2 G M / c**2`` in metres.
    """

    schwarzschild_radius_m: float

    def __post_init__(self):
        rs = float(self.schwarzschild_radius_m)
        if not math.isfinite(rs) or rs <= 0.0:
            raise DomainError(
                f"schwarzschild_radius_m must be finite and positive, got {rs!r}"
            )
        object.__setattr__(self, "schwarzschild_radius_m", rs)

    @classmethod
    def from_mass(cls, mass_kg: float) -> "SchwarzschildGeometry":
        mass_kg = float(mass_kg)
        if not math.isfinite(mass_kg) or mass_kg <= 0.0:
            raise DomainError(f"mass_kg must be finite and positive, got {mass_kg!r}")
        return cls(2.0 * G_NEWTON * mass_kg / C_LIGHT**2)

    @property
    def mass_kg(self) -> float:
        return self.schwarzschild_radius_m * C_LIGHT**2 / (2.0 * G_NEWTON)

    @property
    def gravitational_parameter(self) -> float:
        """Product ``G M`` in m^3/s^2."""
        return self.schwarzschild_radius_m * C_LIGHT**2 / 2.0

    def lapse_squared(self, radius_m: float) -> float:
        """Metric function ``f(r) = 1 - r_s / r`` at the given radius.

        Raises
        ------
        HorizonError
            If ``f(r)`` falls below the guard floor, i.e. the radius sits at or
            inside the horizon for practical purposes.
        """
        radius_m = _check_radius(radius_m)
        # (r - r_s) / r rather than 1 - r_s / r: the subtraction of exact
        # inputs is correctly rounded, so accuracy does not degrade near the
        # horizon the way the textbook ordering does.
        f = (radius_m - self.schwarzschild_radius_m) / radius_m
        if f < LAPSE_FLOOR:
            raise HorizonError(
                f"radius {radius_m!r} m is inside the horizon guard band "
                f"(f(r) = {f:.3e} < {LAPSE_FLOOR:.0e})"
            )
        return f


@dataclass(frozen=True)
class ObserverPath:
    """Worldline family of an emitter or receiver.

    ``kind`` is ``"static"`` for an observer held at fixed radius or
    ``"orbit"`` for an equatorial circular geodesic orbit at fixed radius.
    """

    kind: str
    radius_m: float

    def __post_init__(self):
        if self.kind not in OBSERVER_KINDS:
            raise DomainError(
                f"observer kind must be one of {OBSERVER_KINDS}, got {self.kind!r}"
            )
        object.__setattr__(self, "radius_m", _check_radius(self.radius_m))


@dataclass(frozen=True)
class RedshiftFactor:
    """Frequency-scaling factor of a one-way photon exchange."""

    chi: float

    def __post_init__(self):
        chi = float(self.chi)
        if not math.isfinite(chi) or chi <= 0.0:
            raise DomainError(f"chi must be finite and positive, got {chi!r}")
        # frequencies are divided by chi**2: it must neither vanish nor overflow
        if not 0.0 < chi * chi < math.inf:
            raise DomainError(f"chi**2 must be finite and nonzero, got chi = {chi!r}")
        object.__setattr__(self, "chi", chi)

    @property
    def chi_squared(self) -> float:
        return self.chi * self.chi

    @property
    def z(self) -> float:
        """Redshift parameter ``chi**2 - 1``.

        Factored as ``(chi - 1) * (chi + 1)``: near-unit factors make the
        subtraction exact, so weak-field shifts keep full relative precision
        instead of being quantized at one ulp of 1.
        """
        return (self.chi - 1.0) * (self.chi + 1.0)


def _orbit_factor(geometry: SchwarzschildGeometry, radius_m: float) -> float:
    """Proper-time factor ``1 - 3 G M / (c**2 r)`` of a circular orbit."""
    radius_m = _check_radius(radius_m, "orbit radius_m")
    r_s = geometry.schwarzschild_radius_m
    # two-step subtraction keeps full precision down to the innermost orbit;
    # r - r_s is exact whenever r <= 2 r_s and r_s / 2 carries no rounding
    val = ((radius_m - r_s) - 0.5 * r_s) / radius_m
    if val < LAPSE_FLOOR:
        raise OrbitDomainError(
            f"circular orbit radius {radius_m!r} m is at or below the "
            f"innermost allowed orbit (1 - 3GM/(c^2 r) = {val:.3e})"
        )
    return val


def redshift_static_static(
    geometry: SchwarzschildGeometry, r_emit_m: float, r_receive_m: float
) -> RedshiftFactor:
    """Frequency factor between two static observers.

    ``chi**2 = sqrt(f(r_emit)) / sqrt(f(r_receive))``, so a photon sent
    upward (``r_receive > r_emit``) arrives with lower frequency.
    """
    fa = geometry.lapse_squared(r_emit_m)
    fb = geometry.lapse_squared(r_receive_m)
    chi_sq = math.sqrt(fa) / math.sqrt(fb)
    return RedshiftFactor(math.sqrt(chi_sq))


def redshift_static_orbit(
    geometry: SchwarzschildGeometry, r_emit_m: float, r_orbit_m: float
) -> RedshiftFactor:
    """Frequency factor from a static emitter to a circular-orbit receiver.

    The receiver's proper time runs with the orbital factor
    ``1 - 3 G M / (c**2 r)``, giving
    ``chi**2 = sqrt(1 - 2GM/(c^2 r_A)) / sqrt(1 - 3GM/(c^2 r_B))``.
    """
    fa = geometry.lapse_squared(r_emit_m)
    ob = _orbit_factor(geometry, r_orbit_m)
    chi_sq = math.sqrt(fa) / math.sqrt(ob)
    return RedshiftFactor(math.sqrt(chi_sq))


def clock_rate_squared(geometry: SchwarzschildGeometry, observer: ObserverPath) -> float:
    """Squared rate ``(dtau/dt)**2`` of the observer's clock against coordinate time.

    ``1 - r_s / r`` for a static observer and ``1 - 3 G M / (c**2 r)`` on a
    circular orbit; :class:`HorizonError` or :class:`OrbitDomainError` where
    no such worldline exists at the observer's radius.
    """
    if observer.kind == "static":
        return geometry.lapse_squared(observer.radius_m)
    return _orbit_factor(geometry, observer.radius_m)


def check_redshift_pair(emitter_kind: str, receiver_kind: str) -> None:
    """Raise :class:`DomainError` unless the pair has a formula: a static emitter."""
    if emitter_kind != "static":
        raise DomainError(
            f"no redshift formula for emitter kind {emitter_kind!r} "
            f"with receiver kind {receiver_kind!r}"
        )


def redshift_between(
    geometry: SchwarzschildGeometry, emitter: ObserverPath, receiver: ObserverPath
) -> RedshiftFactor:
    """Frequency factor from ``emitter`` to ``receiver``, for any supported pair."""
    check_redshift_pair(emitter.kind, receiver.kind)
    if receiver.kind == "static":
        return redshift_static_static(geometry, emitter.radius_m, receiver.radius_m)
    return redshift_static_orbit(geometry, emitter.radius_m, receiver.radius_m)


def static_proper_acceleration(geometry: SchwarzschildGeometry, radius_m: float) -> float:
    """Radial acceleration ``G M / r**2`` needed to hover at ``radius_m``.

    Returns m/s^2.  At the surface of the Earth this is the familiar ``g``.
    """
    geometry.lapse_squared(radius_m)  # domain guard
    return geometry.gravitational_parameter / (float(radius_m) ** 2)


def circular_orbit_angular_velocity(
    geometry: SchwarzschildGeometry, radius_m: float
) -> float:
    """Coordinate angular velocity ``sqrt(G M / r**3)`` of a circular orbit."""
    _orbit_factor(geometry, radius_m)  # domain guard
    radius_m = float(radius_m)
    return math.sqrt(geometry.gravitational_parameter / radius_m**3)
