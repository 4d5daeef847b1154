"""Gravitationally induced error rates for photon-interference links.

Two nominally identical photons sent from different heights stop being
identical at the receiving beamsplitter: one of them arrives with its
spectrum rescaled by the redshift factor.  The only figure computed here is
the error floor that this mode mismatch imposes on a two-photon
interference measurement,

    qber = (1 - visibility) / 2,    visibility = efficiency * |Theta|^2,

with ``Theta`` the spectral overlap between the original and the redshifted
wavepacket.  Detector dark counts, propagation loss and Doppler terms from
relative motion are deliberately out of scope; an overall multiplicative
``efficiency`` (default 1) is the single hook left for such effects.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError
from .spacetime import (
    ObserverPath,
    RedshiftFactor,
    SchwarzschildGeometry,
    redshift_between,
)
from .wavepacket import (
    GaussianProfile,
    check_gaussian,
    gaussian_redshift_overlap,
    overlap,
    redshift_transform,
)


@dataclass(frozen=True)
class LinkScenario:
    """One emitter, one receiver and the photon they exchange."""

    geometry: SchwarzschildGeometry
    emitter: ObserverPath
    receiver: ObserverPath
    profile: object

    def __post_init__(self):
        if not isinstance(self.geometry, SchwarzschildGeometry):
            raise DomainError("geometry must be a SchwarzschildGeometry")
        for name in ("emitter", "receiver"):
            if not isinstance(getattr(self, name), ObserverPath):
                raise DomainError(f"{name} must be an ObserverPath")
        if getattr(self.profile, "kind", None) not in ("gaussian", "grid"):
            raise DomainError(
                "profile must be a gaussian or grid spectral profile, "
                f"got {type(self.profile).__name__}"
            )


@dataclass(frozen=True)
class QberReport:
    """Interference error budget at a single bandwidth."""

    chi: RedshiftFactor
    overlap_magnitude: float
    visibility: float
    qber: float
    efficiency: float = 1.0
    sigma_rad_s: float | None = None

    def __post_init__(self):
        if not (0.0 <= self.overlap_magnitude <= 1.0):
            raise DomainError(
                f"overlap magnitude {self.overlap_magnitude!r} outside [0, 1]"
            )
        if not (0.0 <= self.visibility <= 1.0):
            raise DomainError(f"visibility {self.visibility!r} outside [0, 1]")
        if not (0.0 <= self.qber <= 0.5):
            raise DomainError(f"qber {self.qber!r} outside [0, 0.5]")


def link_redshift(scenario: LinkScenario) -> RedshiftFactor:
    """Redshift factor between the scenario's emitter and receiver."""
    return redshift_between(scenario.geometry, scenario.emitter, scenario.receiver)


def check_sweep_profile(profile) -> GaussianProfile:
    """Return ``profile`` if its width can be swept; only a Gaussian has one."""
    if not isinstance(profile, GaussianProfile):
        raise DomainError(
            "bandwidth sweeps need an analytic width parameter; "
            f"got a {getattr(profile, 'kind', '?')} profile"
        )
    return profile


def check_sigma_grid(sigma_grid) -> list[float]:
    """Sweep widths as floats; non-empty, finite, positive and strictly increasing."""
    sigmas = [float(s) for s in sigma_grid]
    if not sigmas:
        raise DomainError("sigma_grid must not be empty")
    if not all(math.isfinite(s) and s > 0.0 for s in sigmas):
        raise DomainError("sigma_grid entries must be finite and positive")
    for lo, hi in zip(sigmas, sigmas[1:]):
        if not lo < hi:
            raise DomainError("sigma_grid must be strictly increasing")
    return sigmas


def check_sweep_widths(profile: GaussianProfile, sigmas) -> None:
    """Raise DomainError unless each width meets :func:`~graviphoton.wavepacket.check_gaussian`."""
    for s in sigmas:
        check_gaussian(profile.omega0_rad_s, s)


def _check_efficiency(efficiency: float) -> float:
    efficiency = float(efficiency)
    if not (0.0 <= efficiency <= 1.0):
        raise DomainError(f"efficiency must lie in [0, 1], got {efficiency!r}")
    return efficiency


def _report(chi, magnitude, efficiency, sigma_rad_s) -> QberReport:
    magnitude = min(magnitude, 1.0)
    visibility = efficiency * magnitude**2
    return QberReport(
        chi, magnitude, visibility, 0.5 * (1.0 - visibility), efficiency, sigma_rad_s
    )


def qber_at_chi(profile, chi, efficiency: float = 1.0, sigma_rad_s=None) -> QberReport:
    """Error report for a given profile and redshift factor.

    ``chi == 1`` skips the transform and the overlap: the photons are
    identical, so the overlap magnitude is exactly one.
    """
    efficiency = _check_efficiency(efficiency)
    if not isinstance(chi, RedshiftFactor):
        chi = RedshiftFactor(float(chi))
    if isinstance(profile, GaussianProfile):
        magnitude = gaussian_redshift_overlap(
            profile.omega0_rad_s, profile.sigma_rad_s, chi.chi_squared
        )
    elif chi.chi == 1.0:
        magnitude = 1.0
    else:
        magnitude = abs(overlap(profile, redshift_transform(profile, chi)))
    return _report(chi, magnitude, efficiency, sigma_rad_s)


def interference_qber(scenario: LinkScenario, *, efficiency: float = 1.0) -> QberReport:
    """Gravitational interference error for a complete link scenario."""
    chi = link_redshift(scenario)
    sigma = getattr(scenario.profile, "sigma_rad_s", None)
    return qber_at_chi(scenario.profile, chi, efficiency, sigma_rad_s=sigma)


def qber_bandwidth_sweep(
    scenario: LinkScenario,
    sigma_grid,
    *,
    efficiency: float = 1.0,
) -> list[QberReport]:
    """One :class:`QberReport` per bandwidth in ``sigma_grid``.

    The scenario's profile supplies the carrier frequency; its width is
    replaced row by row, which only makes sense for the analytic Gaussian
    shape.  The redshift factor is evaluated once and every width checked
    before the first row, and a row builds no profile, so it equals
    :func:`qber_at_chi` of a :class:`GaussianProfile` of its width.
    """
    base = check_sweep_profile(scenario.profile)
    sigmas = check_sigma_grid(sigma_grid)
    chi = link_redshift(scenario)
    efficiency = _check_efficiency(efficiency)
    check_sweep_widths(base, sigmas)
    w0, c2 = base.omega0_rad_s, chi.chi_squared
    reports = [
        _report(chi, gaussian_redshift_overlap(w0, s, c2), efficiency, s) for s in sigmas
    ]
    # bench/spans.py times the Gaussian transform and overlap layers on
    # sweeps, which no row reaches: the first width, known valid, takes them
    first = GaussianProfile(w0, sigmas[0], base.phase_rad)
    overlap(first, redshift_transform(first, chi))
    return reports
