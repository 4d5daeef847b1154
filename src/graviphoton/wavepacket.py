"""Spectral amplitudes of finite-bandwidth photons and their gravitational reshaping.

A single photon is described by a square-integrable spectral amplitude
``F(omega)`` supported on positive frequencies.  Propagation between two
observers with frequency factor ``chi`` acts as

    F'(omega) = chi * F(chi**2 * omega)

which preserves the L2 norm exactly.  Overlaps between amplitudes are plain
L2 inner products, ``<F, G> = integral conj(F(w)) G(w) dw``: in closed form
for two Gaussians and for two tabulated profiles (whose cubic splines,
fitted by :mod:`graviphoton.spline`, multiply to a degree six polynomial
between nodes), and by a nested four/seven point Gauss rule per panel,
with a checked error estimate, for a Gaussian with a tabulated profile.
Only tabulated profiles use numpy, which loads on their first use.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

from . import spline
from ._lazy import NumpyOnFirstUse
from .errors import DomainError, NormalizationError, QuadratureError
from .spacetime import RedshiftFactor

np = NumpyOnFirstUse(globals())

NORM_TOL = 1e-9
QUAD_ABS_TOL = 1e-10
QUAD_EVAL_BUDGET = 2**20
# Half width of the integration window of a Gaussian, in units of sigma.
# The neglected tail mass is below 1e-30 of the norm.
_SUPPORT_SIGMAS = 12.0
# A Gaussian amplitude must satisfy omega0/sigma > this ratio so that the
# negative-frequency tail stays below 1e-14 of the norm.
MIN_CARRIER_TO_WIDTH = 8.0


@dataclass(frozen=True)
class GaussianProfile:
    """Gaussian spectral amplitude centred at ``omega0_rad_s``.

    The amplitude is ``(pi sigma^2)^(-1/4) exp(-(w - w0)^2 / (2 sigma^2))``
    times an optional constant phase, which gives unit L2 norm over the real
    line.  ``sigma_rad_s`` is the 1/e half width of the amplitude, so the
    intensity ``|F|^2`` has standard deviation ``sigma / sqrt(2)``.
    """

    omega0_rad_s: float
    sigma_rad_s: float
    phase_rad: float = 0.0

    kind = "gaussian"

    def __post_init__(self):
        w0, sg = float(self.omega0_rad_s), float(self.sigma_rad_s)
        ph = float(self.phase_rad)
        if not math.isfinite(w0) or w0 <= 0.0:
            raise DomainError(f"omega0_rad_s must be finite and positive, got {w0!r}")
        if not math.isfinite(sg) or sg <= 0.0:
            raise DomainError(f"sigma_rad_s must be finite and positive, got {sg!r}")
        if not math.isfinite(ph):
            raise DomainError(f"phase_rad must be finite, got {ph!r}")
        if w0 / sg <= MIN_CARRIER_TO_WIDTH:
            raise DomainError(
                f"carrier to width ratio omega0/sigma = {w0 / sg:.3f} is too small; "
                f"require > {MIN_CARRIER_TO_WIDTH:g} so the amplitude is negligible "
                "at negative frequencies"
            )
        object.__setattr__(self, "omega0_rad_s", w0)
        object.__setattr__(self, "sigma_rad_s", sg)
        object.__setattr__(self, "phase_rad", ph)

    def __call__(self, omega):
        out = self.amplitude_at_offset(0.0, omega)
        return out if out.shape else complex(out)

    def amplitude_at_offset(self, ref, u):
        # Evaluate at omega = ref + u without forming the large absolute
        # frequency.  Optical carriers sit around 1e15 rad/s while sub-MHz
        # bandwidths need the argument resolved far below one ULP of that,
        # so the shift from the carrier is accumulated in small numbers.
        x = ((ref - self.omega0_rad_s) + np.asarray(u, dtype=float)) / self.sigma_rad_s
        amp = (math.pi * self.sigma_rad_s**2) ** (-0.25) * np.exp(-0.5 * x * x)
        return amp * np.exp(1j * self.phase_rad)

    def support(self):
        lo = max(0.0, self.omega0_rad_s - _SUPPORT_SIGMAS * self.sigma_rad_s)
        return (lo, self.omega0_rad_s + _SUPPORT_SIGMAS * self.sigma_rad_s)


class SampledGridProfile:
    """Spectral amplitude tabulated on a strictly increasing frequency grid.

    Values between nodes come from a complex cubic spline; outside the grid
    the amplitude is zero.  The tabulated amplitude must already be unit
    normalized (within ``NORM_TOL``); use :meth:`from_samples` to normalize
    raw data.
    """

    kind = "grid"

    def __init__(self, omega_rad_s, amplitude, phase_rad: float = 0.0):
        omega, amp = _check_samples(omega_rad_s, amplitude, phase_rad)
        self._init_from_offsets(float(omega[0]), omega - omega[0], amp, float(phase_rad))
        nrm = l2_norm(self)
        if abs(nrm - 1.0) > NORM_TOL:
            raise NormalizationError(
                f"grid profile has L2 norm {nrm!r}, expected 1 within {NORM_TOL:g}"
            )

    def _init_from_offsets(self, base, du, amp, phase_rad, coeffs=None):
        # The grid is held as a base frequency plus small offsets and the
        # spline coefficients (layout of graviphoton.spline) live in offset
        # coordinates, so evaluation and rescaling keep full precision at
        # optical frequencies where one ULP of the absolute node value can
        # rival a narrow bandwidth.
        self._base = base
        self._du = du
        self._amp = amp
        self.phase_rad = phase_rad
        self._c = spline.not_a_knot(du, amp) if coeffs is None else coeffs

    @classmethod
    def from_samples(cls, omega_rad_s, amplitude, phase_rad: float = 0.0):
        """Build a profile from raw samples, rescaling to unit norm."""
        omega, amp = _check_samples(omega_rad_s, amplitude, phase_rad)
        du = omega - omega[0]
        # bring arbitrary sample scales near unit norm first, so the squares
        # in the norm integral neither overflow nor lose digits to underflow
        rough = math.sqrt(float(np.trapezoid(np.abs(amp) ** 2, du)))
        if rough <= 0.0 or not math.isfinite(rough):
            raise DomainError("samples have no usable L2 norm")
        out = cls.__new__(cls)
        out._init_from_offsets(float(omega[0]), du, amp / rough, float(phase_rad))
        nrm = l2_norm(out)
        if nrm <= 0.0 or not math.isfinite(nrm):
            raise DomainError("samples have no usable L2 norm")
        # the spline is linear in its data: dividing its coefficients
        # normalizes it without a second fit or a second norm integral
        out._amp = out._amp / nrm
        out._c /= nrm
        return out

    @classmethod
    def _rescaled(cls, other, scale):
        """Copy of ``other`` with nodes divided and amplitudes multiplied.

        Offsets are rescaled directly, which preserves node spacing, and with
        it the tabulated norm, to machine precision; the norm is therefore not
        integrated again.  Only the base frequency picks up a single rounding.
        Not-a-knot interpolation commutes with affine maps of the abscissa,
        so the spline is not fitted again either: on each piece of
        ``sqrt(scale) S(scale t)`` the coefficient of ``(t - x/scale)^(3-k)``
        is the parent's times ``sqrt(scale) scale^(3-k)``.
        """
        powers = math.sqrt(scale) * scale ** np.arange(3.0, -1.0, -1.0)
        out = cls.__new__(cls)
        out._init_from_offsets(
            other._base / scale,
            other._du / scale,
            other._amp * math.sqrt(scale),
            other.phase_rad,
            other._c * powers[:, None],
        )
        return out

    @property
    def omega_rad_s(self):
        return self._base + self._du

    @property
    def amplitude(self):
        return self._amp.copy()

    def __call__(self, omega):
        out = self.amplitude_at_offset(0.0, omega)
        return out if out.shape else complex(out)

    def amplitude_at_offset(self, ref, u):
        return self._amplitude((ref - self._base) + np.asarray(u, dtype=float))

    def _amplitude(self, t, piece=None):
        """Values at spline offsets ``t``; ``piece`` as in ``spline.evaluate``."""
        vals = spline.evaluate(self._du, self._c, t, piece)
        vals *= cmath.exp(1j * self.phase_rad)
        return vals

    def support(self):
        return (self._base + float(self._du[0]), self._base + float(self._du[-1]))


def _check_samples(omega_rad_s, amplitude, phase_rad):
    """Grid nodes and amplitudes as arrays, after the checks on outside input."""
    omega = np.asarray(omega_rad_s, dtype=float)
    amp = np.asarray(amplitude, dtype=complex)
    if omega.ndim != 1 or omega.size < 4:
        raise DomainError("frequency grid must be one dimensional with >= 4 nodes")
    if amp.shape != omega.shape:
        raise DomainError(
            f"amplitude shape {amp.shape} does not match "
            f"the frequency grid shape {omega.shape}"
        )
    if not np.all(np.isfinite(omega)) or not np.all(np.isfinite(amp)):
        raise DomainError("grid nodes and amplitudes must be finite")
    if omega[0] < 0.0:
        raise DomainError("frequency grid must be non-negative")
    if not np.all(np.diff(omega) > 0.0):
        raise DomainError("frequency grid must be strictly increasing")
    if not math.isfinite(float(phase_rad)):
        raise DomainError(f"phase_rad must be finite, got {phase_rad!r}")
    return omega, amp


def _check_budget(nevals):
    if nevals > QUAD_EVAL_BUDGET:
        raise QuadratureError(
            f"integration needs {nevals} evaluations, budget is {QUAD_EVAL_BUDGET}"
        )


def _check_quadrature(err):
    if err > QUAD_ABS_TOL:
        raise QuadratureError(
            f"integration error estimate {err:.3e} exceeds tolerance {QUAD_ABS_TOL:g}"
        )


@functools.cache
def _nested_rule():
    """Nodes and weights of the 4 and the 7 point Gauss-Legendre rules, joined."""
    rules = [np.polynomial.legendre.leggauss(n) for n in (4, 7)]
    return tuple(np.concatenate(parts) for parts in zip(*rules))


def _panel_edges(profiles, ref, lo, hi):
    """Subdivision of ``[lo, hi]`` aligned with every profile's structure.

    Tabulated profiles contribute their spline nodes, so between consecutive
    edges each spline factor is a single cubic piece.  Analytic profiles
    contribute a half-width lattice around their carrier so the peak is
    resolved.  All coordinates are offsets from ``ref``.  The evaluation
    count, 11 per panel, meets the budget before a lattice is built.
    """
    parts = [np.array([lo, hi])]
    for p in profiles:
        if isinstance(p, SampledGridProfile):
            parts.append((p._base - ref) + p._du)
        else:
            step = 0.5 * p.sigma_rad_s
            _check_budget(11 * math.floor((hi - lo) / step))
            c = p.omega0_rad_s - ref
            k0 = math.floor((lo - c) / step)
            k1 = math.ceil((hi - c) / step)
            parts.append(c + step * np.arange(k0, k1 + 1))
    edges = np.concatenate(parts)
    edges = edges[(edges > lo) & (edges < hi)]
    edges = np.unique(np.concatenate((edges, [lo, hi])))
    _check_budget(11 * (edges.size - 1))
    return edges


def _panel_integral(a, b, ref, edges):
    """Nested four/seven point Gauss-Legendre rules per panel of a mixed pair.

    Returns the seven point value and, as its error estimate, the difference
    of the two.  Both rules are evaluated in one batch of 11 points per
    panel.  Every node of the tabulated profile is a panel edge, so all
    points of a panel lie in one spline piece, looked up once per panel.
    """
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    nodes, weights = _nested_rule()
    u = mid[:, None] + half[:, None] * nodes[None, :]

    def amplitude(p):
        if not isinstance(p, SampledGridProfile):
            return p.amplitude_at_offset(ref, u)
        shift = ref - p._base
        piece = np.searchsorted(p._du[1:-1], shift + mid, side="right")
        return p._amplitude(shift + u, piece[:, None])

    vals = np.conj(amplitude(a))
    vals *= amplitude(b)
    vals *= half[:, None] * weights[None, :]
    coarse = complex(np.sum(vals[:, :4]))
    fine = complex(np.sum(vals[:, 4:]))
    return fine, abs(fine - coarse)


def overlap(a, b) -> complex:
    """L2 inner product ``<a, b>`` over non-negative frequencies.

    Two Gaussians overlap in closed form,
    ``e^{i(phi_b - phi_a)} sqrt(2 s_a s_b/(s_a^2 + s_b^2))
    exp(-d^2/(2(s_a^2 + s_b^2)))`` with ``d`` the carrier separation; the
    negative-frequency tails it counts are below 1e-14 of the norm by the
    ``MIN_CARRIER_TO_WIDTH`` guard.  Two tabulated profiles overlap in closed
    form too: between the nodes of both grids the product of their spline
    pieces is a degree six polynomial, integrated exactly by
    :func:`graviphoton.spline.overlap`, with no error estimate.  A Gaussian
    and a tabulated profile are integrated over the intersection of their
    supports (``0j`` where they are disjoint), panel by panel between the
    spline nodes with a nested four/seven point Gauss rule (11 evaluations
    per panel), whose difference is the error estimate checked against
    ``QUAD_ABS_TOL``.  The panel count is checked before any work on the
    panels: a mixed pair may use up to ``QUAD_EVAL_BUDGET`` evaluations, 11
    per panel, and two tabulated profiles, which evaluate no point, may span
    up to ``QUAD_EVAL_BUDGET / 4`` = 262,144 panels (the error message
    counts them as 4 evaluations each).

    Raises
    ------
    QuadratureError
        If a tabulated overlap exceeds its panel limit or evaluation
        budget, or a mixed one cannot meet the error estimate.
    """
    if isinstance(a, GaussianProfile) and isinstance(b, GaussianProfile):
        sa, sb = a.sigma_rad_s, b.sigma_rad_s
        s2 = sa * sa + sb * sb
        d = a.omega0_rad_s - b.omega0_rad_s
        mag = math.sqrt(2.0 * sa * sb / s2) * math.exp(-d * d / (2.0 * s2))
        return cmath.exp(1j * (b.phase_rad - a.phase_rad)) * mag
    if isinstance(a, SampledGridProfile) and isinstance(b, SampledGridProfile):
        if b is a:
            _check_budget(4 * (a._du.size - 1))
            return spline.overlap(a._du, a._c, a._du, a._c)
        # offsets from a's base keep a's nodes exact
        xb = (b._base - a._base) + b._du
        _check_budget(4 * (np.union1d(a._du, xb).size - 1))
        phase = cmath.exp(1j * (b.phase_rad - a.phase_rad))
        return phase * spline.overlap(a._du, a._c, xb, b._c)
    # only the intersection of the supports counts: a tabulated amplitude is
    # zero off its grid, a Gaussian below e^-72 of its peak off its support.
    # Quadrature runs in the offset u = omega - ref, so node placement is not
    # limited by the ULP of the absolute optical frequency.
    lo = max(a.support()[0], b.support()[0])
    hi = min(a.support()[1], b.support()[1])
    if lo >= hi:
        return 0j
    ref = 0.5 * (lo + hi)
    edges = _panel_edges((a, b), ref, lo - ref, hi - ref)
    val, err = _panel_integral(a, b, ref, edges)
    _check_quadrature(err)
    return val


def l2_norm(profile) -> float:
    """L2 norm ``sqrt(<F, F>)`` of a profile, from :func:`overlap`."""
    return math.sqrt(max(overlap(profile, profile).real, 0.0))


def redshift_transform(profile, chi):
    """Image of a spectral amplitude under the frequency factor ``chi``.

    Implements ``F'(w) = chi F(chi**2 w)``.  Gaussian profiles map to
    Gaussian profiles with rescaled centre and width; grid profiles keep
    their tabulated values and rescale their nodes, both exactly norm
    preserving.  ``chi`` may be a float or a :class:`RedshiftFactor`.
    """
    c = (chi if isinstance(chi, RedshiftFactor) else RedshiftFactor(chi)).chi
    if c == 1.0:
        return profile
    c2 = c * c
    if isinstance(profile, GaussianProfile):
        return GaussianProfile(
            profile.omega0_rad_s / c2, profile.sigma_rad_s / c2, profile.phase_rad
        )
    if isinstance(profile, SampledGridProfile):
        return SampledGridProfile._rescaled(profile, c2)
    raise DomainError(f"unsupported profile type {type(profile).__name__!r}")


def mixing_angle(overlap_value: complex):
    """Beamsplitter angles ``(theta, phi)`` equivalent to an imperfect overlap.

    ``cos(theta)`` equals the magnitude of ``overlap_value``, the overlap
    ``<expected, received>`` of :func:`overlap`; the relative phase ``phi`` is
    fixed to zero by convention (constant phases drop out of the magnitude).
    """
    theta = math.acos(min(abs(overlap_value), 1.0))
    return theta, 0.0


def sharp_commutator_scale(alpha: complex) -> float:
    """Scale ``1/|alpha|`` at which a sharp-frequency mode description fails.

    A strictly monochromatic mode cannot support a canonical commutator for
    any finite normalization constant ``alpha``; the returned scale quantifies
    the divergence and never vanishes.
    """
    alpha = complex(alpha)
    if alpha == 0:
        raise DomainError("alpha must be nonzero")
    if not (math.isfinite(alpha.real) and math.isfinite(alpha.imag)):
        raise DomainError(f"alpha must be finite, got {alpha!r}")
    return 1.0 / abs(alpha)

