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
from dataclasses import dataclass, replace

from .errors import DomainError
from .spacetime import (
    ObserverPath,
    RedshiftFactor,
    SchwarzschildGeometry,
    redshift_between,
)
from .wavepacket import GaussianProfile, overlap, redshift_transform


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


def sweep_profiles(profile, sigmas) -> list[GaussianProfile]:
    """``profile`` at each width in ``sigmas``, built by :class:`GaussianProfile`.

    Each width thus meets the profile's own rules, the carrier to width
    ratio among them.
    """
    base = check_sweep_profile(profile)
    return [replace(base, sigma_rad_s=s) for s in sigmas]


def _check_efficiency(efficiency: float) -> float:
    efficiency = float(efficiency)
    if not (0.0 <= efficiency <= 1.0):
        raise DomainError(f"efficiency must lie in [0, 1], got {efficiency!r}")
    return efficiency


def qber_at_chi(profile, chi, efficiency: float = 1.0, sigma_rad_s=None) -> QberReport:
    """Error report for a given profile and redshift factor.

    ``chi == 1`` skips the transform and the overlap: the photons are
    identical, so the overlap magnitude is exactly one.
    """
    efficiency = _check_efficiency(efficiency)
    if not isinstance(chi, RedshiftFactor):
        chi = RedshiftFactor(float(chi))
    if chi.chi == 1.0:
        magnitude = 1.0
    else:
        shifted = redshift_transform(profile, chi)
        magnitude = min(abs(overlap(profile, shifted)), 1.0)
    visibility = efficiency * magnitude**2
    return QberReport(
        chi=chi,
        overlap_magnitude=magnitude,
        visibility=visibility,
        qber=0.5 * (1.0 - visibility),
        efficiency=efficiency,
        sigma_rad_s=sigma_rad_s,
    )


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

    The scenario's profile supplies the carrier frequency and phase; its
    width is replaced row by row, which only makes sense for the analytic
    Gaussian shape.  The redshift factor is evaluated once for the whole
    sweep.
    """
    base = check_sweep_profile(scenario.profile)
    sigmas = check_sigma_grid(sigma_grid)
    chi = link_redshift(scenario)
    efficiency = _check_efficiency(efficiency)
    return [
        qber_at_chi(p, chi, efficiency, sigma_rad_s=p.sigma_rad_s)
        for p in sweep_profiles(base, sigmas)
    ]
