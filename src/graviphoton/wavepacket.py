"""Spectral amplitudes of finite-bandwidth photons and their gravitational reshaping.

A single photon is described by a square-integrable spectral amplitude
``F(omega)`` supported on positive frequencies.  Propagation between two
observers with frequency factor ``chi`` acts as

    F'(omega) = chi * F(chi**2 * omega)

which preserves the L2 norm exactly.  Overlaps between amplitudes are plain
L2 inner products, ``<F, G> = integral conj(F(w)) G(w) dw``, all in closed
form: for two Gaussians, for two tabulated profiles (whose cubic splines,
fitted by :mod:`graviphoton.spline`, multiply to a degree six polynomial
between nodes), and for a Gaussian with a tabulated profile (a cubic times a
Gaussian integrates to error functions and exponentials on each piece).
Only tabulated profiles use numpy, which loads on their first use.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from . import spline
from ._lazy import NumpyOnFirstUse
from .errors import DomainError, NormalizationError, QuadratureError
from .spacetime import RedshiftFactor

np = NumpyOnFirstUse(globals())

NORM_TOL = 1e-9
QUAD_EVAL_BUDGET = 2**20
# Half width of the support of a Gaussian, in units of sigma.  The
# neglected tail mass is below 1e-30 of the norm.
_SUPPORT_SIGMAS = 12.0
# A Gaussian amplitude must satisfy omega0/sigma > this ratio so that the
# negative-frequency tail stays below 1e-14 of the norm.
MIN_CARRIER_TO_WIDTH = 8.0
# Narrowest Gaussian width, in rad/s: the product of two widths stays a normal
# float, so the overlap's 2 s_a s_b / (s_a^2 + s_b^2) keeps its digits.
MIN_WIDTH_RAD_S = 1e-150


def check_gaussian(omega0_rad_s: float, sigma_rad_s: float, phase_rad: float = 0.0) -> None:
    """Raise DomainError unless a Gaussian amplitude may take these floats.

    The one rule of :class:`GaussianProfile`, of its image under a redshift
    and of each width a bandwidth sweep takes.
    """
    w0, sg = omega0_rad_s, sigma_rad_s
    # chained comparisons are false for NaN
    if not 0.0 < w0 < math.inf:
        raise DomainError(f"omega0_rad_s must be finite and positive, got {w0!r}")
    if not 0.0 < sg < math.inf:
        raise DomainError(f"sigma_rad_s must be finite and positive, got {sg!r}")
    if not -math.inf < phase_rad < math.inf:
        raise DomainError(f"phase_rad must be finite, got {phase_rad!r}")
    if w0 / sg <= MIN_CARRIER_TO_WIDTH:
        raise DomainError(
            f"carrier to width ratio omega0/sigma = {w0 / sg:.3f} is too small; "
            f"require > {MIN_CARRIER_TO_WIDTH:g} so the amplitude is negligible "
            "at negative frequencies"
        )
    if sg < MIN_WIDTH_RAD_S:
        raise DomainError(
            f"sigma_rad_s = {sg!r} is below the narrowest width {MIN_WIDTH_RAD_S:g}"
        )


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
        check_gaussian(w0, sg, ph)
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
        # an exact power of two takes the largest part to [0.5, 1), and a rough norm
        # then near unit norm, so no square in a norm overflows or underflows
        parts = amp.view(float)
        amp = np.ldexp(parts, -math.frexp(float(np.abs(parts).max()))[1]).view(complex)
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
        vals = spline.evaluate(self._du, self._c, (ref - self._base) + np.asarray(u, dtype=float))
        vals *= cmath.exp(1j * self.phase_rad)
        return vals

    def support(self):
        return (self._base + float(self._du[0]), self._base + float(self._du[-1]))


def _check_samples(omega_rad_s, amplitude, phase_rad):
    """Grid nodes and amplitudes as arrays, after the checks on outside input."""
    omega = np.asarray(omega_rad_s, dtype=float)
    amp = np.ascontiguousarray(amplitude, dtype=complex)
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


def _erf_difference(u, v):
    """``erf(v) - erf(u)``, ``u <= v``; from ``erfc`` if both lie on one side of 0."""
    if u >= 0.0:
        return math.erfc(u) - math.erfc(v)
    if v <= 0.0:
        return math.erfc(-v) - math.erfc(-u)
    return math.erf(v) - math.erf(u)


def _gaussian_moments(a, h):
    """Rows ``J_k = integral_0^h s^k exp(-(s + a)^2 / 2) ds``, k = 0..3.

    ``J_0`` is a difference of error functions, ``J_1 = e^(-a^2/2) -
    e^(-(a+h)^2/2) - a J_0`` and ``J_(k+1) = k J_(k-1) - a J_k - h^k
    e^(-(a+h)^2/2)``, by parts.  Those differences lose digits as ``1/h`` on
    short pieces, ``(1 + |a|) h < 1``, which sum ``J_k = e^(-a^2/2) h^(k+1)
    sum_n P_n / (n + k + 1)`` instead, ``P_n = He_n(a) (-h)^n / n!``, until
    two terms in a row are below rounding.
    """
    out = np.empty((4, a.size))
    short = (1.0 + np.abs(a)) * h < 1.0
    al, hl = a[~short], h[~short]
    eb = np.exp(-0.5 * (al + hl) ** 2)
    j0 = np.frompyfunc(_erf_difference, 2, 1)(al / math.sqrt(2.0), (al + hl) / math.sqrt(2.0))
    j0 = math.sqrt(0.5 * math.pi) * j0.astype(float)
    j1 = np.exp(-0.5 * al * al) - eb - al * j0
    j2 = j0 - al * j1 - hl * eb
    out[:, ~short] = j0, j1, j2, 2.0 * j1 - al * j2 - hl * hl * eb
    a, h, k1 = a[short], h[short], np.arange(1.0, 5.0)[:, None]
    sums, p_prev, p, n = np.zeros((4, a.size)), np.zeros_like(a), np.ones_like(a), 0
    while True:
        sums += p / (n + k1)
        if (np.abs(p) + np.abs(p_prev)).max(initial=0.0) < 2.0**-53:
            break
        p_prev, p, n = p, -h * (a * p + h * p_prev) / (n + 1), n + 1
    out[:, short] = np.exp(-0.5 * a * a) * h**k1 * sums
    return out


def _gaussian_grid_overlap(g, p):
    """``<g, p>`` over the spline pieces inside the Gaussian's support.

    The first and last piece are cut at its edges, the first shifted there
    by synthetic division.  On a piece from ``x``, with ``a = (x - omega0)/
    sigma``, ``h = width/sigma`` and ``t = x + sigma s``, the spline is
    ``sum_k c[3 - k] (sigma s)^k``, which adds ``sum_k c[3 - k] sigma^(k+1)
    J_k`` (:func:`_gaussian_moments`).  Offsets on ``p``'s grid keep full
    precision at optical frequencies.
    """
    sg, mu, x = g.sigma_rad_s, g.omega0_rad_s - p._base, p._du
    lo, hi = mu - _SUPPORT_SIGMAS * sg, mu + _SUPPORT_SIGMAS * sg
    first = max(int(np.searchsorted(x, lo, side="right")) - 1, 0)
    stop = min(int(np.searchsorted(x, hi)), x.size - 1)
    if first >= stop:
        return 0j
    left, right, c = x[first:stop].copy(), x[first + 1 : stop + 1].copy(), p._c[:, first:stop]
    right[-1] = min(right[-1], hi)
    if lo > left[0]:
        c, d, left[0] = c.copy(), lo - left[0], lo
        for j in (1, 2, 3, 1, 2, 1):
            c[j, 0] += d * c[j - 1, 0]
    moments = _gaussian_moments((left - mu) / sg, (right - left) / sg)
    # sigma^(k+1) of the pieces times (pi sigma^2)^(-1/4) of the amplitude
    moments *= (sg ** np.arange(0.5, 4.0) / math.pi**0.25)[:, None]
    # each piece is summed first: its terms may cancel, the pieces' totals less so
    total = complex(np.vecdot(moments.T, c[::-1].T).sum())
    return cmath.exp(1j * (p.phase_rad - g.phase_rad)) * total


def _gaussian_overlap(sa, sb, d):
    """``|<a, b>|`` of two Gaussians of widths ``sa``, ``sb`` and carriers ``d`` apart."""
    s2 = sa * sa + sb * sb
    return math.sqrt(2.0 * sa * sb / s2) * math.exp(-d * d / (2.0 * s2))


def overlap(a, b) -> complex:
    """L2 inner product ``<a, b>`` over non-negative frequencies.

    Two Gaussians overlap in closed form,
    ``e^{i(phi_b - phi_a)} sqrt(2 s_a s_b/(s_a^2 + s_b^2))
    exp(-d^2/(2(s_a^2 + s_b^2)))`` with ``d`` the carrier separation; the
    negative-frequency tails it counts are below 1e-14 of the norm by the
    ``MIN_CARRIER_TO_WIDTH`` guard.  Two tabulated profiles multiply to a
    degree six polynomial between the nodes of both grids, integrated exactly
    by :func:`graviphoton.spline.overlap`; they may span up to
    ``QUAD_EVAL_BUDGET / 4`` = 262,144 panels (the error message counts them
    as 4 evaluations each), checked before any work.  A Gaussian and a
    tabulated profile overlap over the spline pieces inside the Gaussian's
    carrier +- 12 sigma (``0j`` if none), each a cubic times a Gaussian, in
    error functions and exponentials.  No overlap evaluates a point.

    Raises
    ------
    DomainError
        If an argument is neither a Gaussian nor a tabulated profile.
    QuadratureError
        If a tabulated overlap exceeds its panel limit.
    """
    if isinstance(a, GaussianProfile) and isinstance(b, GaussianProfile):
        mag = _gaussian_overlap(a.sigma_rad_s, b.sigma_rad_s, a.omega0_rad_s - b.omega0_rad_s)
        return cmath.exp(1j * (b.phase_rad - a.phase_rad)) * mag
    if isinstance(a, SampledGridProfile) and isinstance(b, SampledGridProfile):
        if b is a:
            _check_budget(4 * (a._du.size - 1))
            return spline.overlap(a._du, a._c, a._du, a._c)
        # offsets from a's base keep a's nodes exact
        xb = (b._base - a._base) + b._du
        # the union has at most a._du.size + xb.size nodes; count it only past that bound
        if 4 * (a._du.size + xb.size - 1) > QUAD_EVAL_BUDGET:
            _check_budget(4 * (np.union1d(a._du, xb).size - 1))
        phase = cmath.exp(1j * (b.phase_rad - a.phase_rad))
        return phase * spline.overlap(a._du, a._c, xb, b._c)
    if isinstance(a, GaussianProfile) and isinstance(b, SampledGridProfile):
        return _gaussian_grid_overlap(a, b)
    if isinstance(a, SampledGridProfile) and isinstance(b, GaussianProfile):
        return _gaussian_grid_overlap(b, a).conjugate()
    odd = b if isinstance(a, (GaussianProfile, SampledGridProfile)) else a
    raise DomainError(f"unsupported profile type {type(odd).__name__!r}")


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
        image = _gaussian_image(profile.omega0_rad_s, profile.sigma_rad_s, c2)
        return GaussianProfile(*image, profile.phase_rad)
    if isinstance(profile, SampledGridProfile):
        return SampledGridProfile._rescaled(profile, c2)
    raise DomainError(f"unsupported profile type {type(profile).__name__!r}")


def _gaussian_image(omega0, sigma, c2):
    """Carrier and width of a Gaussian's image under ``chi**2 = c2``."""
    return omega0 / c2, sigma / c2


def gaussian_redshift_overlap(omega0_rad_s, sigma_rad_s, chi_squared) -> float:
    """``|<F, U_chi F>|`` of a Gaussian ``F`` under ``chi**2 = chi_squared``, no profile built.

    Floats meeting :func:`check_gaussian` in, and out, for ``chi_squared !=
    1``, ``abs(overlap(p, redshift_transform(p, chi)))`` bit for bit, or its
    error, for ``p = GaussianProfile(omega0_rad_s, sigma_rad_s, phase)``.
    """
    if chi_squared == 1.0:
        return 1.0
    w1, s1 = _gaussian_image(omega0_rad_s, sigma_rad_s, chi_squared)
    check_gaussian(w1, s1)
    return _gaussian_overlap(sigma_rad_s, s1, omega0_rad_s - w1)


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

