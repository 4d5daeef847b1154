"""Distinguishability of Gaussian states and estimation error bounds.

Fidelity here is the squared Uhlmann overlap; for zero-mean Gaussian states
of at most two modes it reduces to a closed form in three determinants.  The
quantum Fisher information bounds the variance of any unbiased estimate
through the Cramer-Rao inequality ``var >= 1 / (N H)`` for ``N`` independent
probes.  For the twin-beam sensing channel it is one scalar closed form
(:func:`sensing_qfi`); for a general channel :func:`qfi_finite_difference`
takes it from the decay of the fidelity under a small parameter step,

    H(theta) = lim 8 (1 - sqrt(F(rho_theta, rho_theta+dtheta))) / dtheta^2.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

from ._lazy import NumpyOnFirstUse
from .errors import DimensionMismatch, DomainError, NumericalError
from .symplectic import (
    GaussianState,
    apply_symplectic,
    embed_symplectic,
    gate_beamsplitter,
    gate_two_mode_squeezer,
    partial_trace,
    passive_symplectic,
    state_vacuum,
)

np = NumpyOnFirstUse(globals())

_CLAMP_TOL = 1e-9
_PURITY_TOL = 1e-10
_BASE_STEP_SCALE = 1e-4
# the endpoint value 8 sinh^2 r of sensing_qfi overflows from |r| = 354.5
MAX_SQUEEZING_R = 350.0


@functools.cache
def _two_mode_metric():
    """``K = i Omega`` on two modes and the 4 x 4 identity, built once and read-only."""
    k, eye = np.diag([1.0, 1.0, -1.0, -1.0]).astype(complex), np.eye(4)
    k.setflags(write=False)
    eye.setflags(write=False)
    return k, eye


def _single_mode_fidelity(sa: np.ndarray, sb: np.ndarray) -> float:
    """One-mode closed form in two determinants.

    Every term is non-negative, so unlike the two-mode radical there is
    nothing to cancel and near-pure inputs keep full precision.
    """
    delta = float(np.linalg.det(sa + sb).real)
    if delta <= 0.0:
        raise NumericalError(f"fidelity determinant delta is not positive: {delta:.3e}")
    excess = []
    for name, sigma in (("a", sa), ("b", sb)):
        p = float(np.linalg.det(sigma).real) - 1.0
        if p < -_CLAMP_TOL:
            raise NumericalError(
                f"covariance {name} has determinant {1.0 + p!r}, below the pure-state floor"
            )
        excess.append(max(p, 0.0))
    lam = excess[0] * excess[1]
    # rationalized from 2 / (sqrt(delta + lam) - sqrt(lam))
    return 2.0 * (math.sqrt(delta + lam) + math.sqrt(lam)) / delta


def gaussian_fidelity(a: GaussianState, b: GaussianState) -> float:
    """Squared Uhlmann fidelity of two zero-mean Gaussian states.

    Supports one- and two-mode inputs, each through its own closed form in
    a handful of determinants.  Larger registers are rejected.  The states
    were validated when built, so their covariances are used as they are.
    """
    for st in (a, b):
        drift = float(abs(st.first_moments).max())
        if drift > 1e-12:
            raise DomainError(
                f"fidelity requires vanishing first moments, found |d| up to {drift:.3e}"
            )
    if a.n_modes != b.n_modes:
        raise DimensionMismatch(f"states act on {a.n_modes} and {b.n_modes} modes")
    if a.n_modes > 2:
        raise DimensionMismatch(
            f"closed-form fidelity covers at most 2 modes, got {a.n_modes}"
        )
    sa, sb = a.covariance, b.covariance
    if a.n_modes == 1:
        return _finish_fidelity(_single_mode_fidelity(sa, sb))
    k, eye = _two_mode_metric()
    ka, kb = k @ sa, k @ sb
    # gamma, the two factors of lambda, eta, det sigma_a and det sigma_b in one
    # call; det(K) = 1 on four modes, so the symplectic-form prefactor drops out
    dets = np.linalg.det(np.stack((eye + ka @ k @ sb, eye + ka, eye + kb, ka + kb, sa, sb)))
    gamma_c, lam_c, eta_c = dets[0], dets[1] * dets[2], dets[3]
    scale = max(1.0, abs(gamma_c), abs(lam_c), abs(eta_c))
    for name, val in (("gamma", gamma_c), ("lambda", lam_c), ("eta", eta_c)):
        if abs(val.imag) > 1e-8 * scale:
            raise NumericalError(
                f"fidelity determinant {name} has imaginary part {val.imag:.3e}"
            )
    gamma, lam, eta = gamma_c.real, lam_c.real, eta_c.real

    def _clamped_sqrt(name, x):
        if x < 0.0:
            if x < -_CLAMP_TOL * scale:
                raise NumericalError(f"fidelity determinant {name} is negative: {x:.3e}")
            import logging  # here only, so runs that never clamp do not load it

            logging.getLogger(__name__).debug(
                "clamping slightly negative %s = %.3e to zero", name, x
            )
            x = 0.0
        return math.sqrt(x)

    if eta <= 0.0:
        raise NumericalError(f"fidelity determinant eta is not positive: {eta:.3e}")
    rg = _clamped_sqrt("gamma", gamma)
    if min(abs(dets[4].real - 1.0), abs(dets[5].real - 1.0)) < _PURITY_TOL:
        # with a pure input, lambda and the radical vanish identically; the
        # general branch would take sqrt of pure rounding noise there
        fid = 4.0 * rg / eta
    else:
        rl = _clamped_sqrt("lambda", lam)
        inner = _clamped_sqrt("radical", (rg + rl) ** 2 - eta)
        # 4 / (rg + rl - inner) after multiplying through by the conjugate;
        # the direct form cancels whenever the states nearly agree
        fid = 4.0 * (rg + rl + inner) / eta
    return _finish_fidelity(fid)


def _finish_fidelity(fid: float) -> float:
    if fid > 1.0:
        if fid > 1.0 + _CLAMP_TOL:
            raise NumericalError(f"fidelity {fid!r} exceeds 1 beyond tolerance")
        fid = 1.0
    if fid < 0.0:
        raise NumericalError(f"fidelity {fid!r} is negative")
    return fid


@dataclass(frozen=True)
class EstimationReport:
    """Outcome of a quantum Fisher information evaluation at one angle."""

    theta: float
    qfi: float
    cramer_rao_bound: float
    probe_count: int


def check_probe_count(probe_count: int) -> int:
    """``probe_count`` as an int, if at least one probe is sent."""
    count = None
    if not isinstance(probe_count, bool):
        try:
            count = operator.index(probe_count)
        except TypeError:
            pass
    if count is None:
        raise DomainError(f"probe_count must be an integer, got {probe_count!r}")
    if count < 1:
        raise DomainError(f"probe_count must be >= 1, got {count}")
    return count


def cramer_rao_bound(qfi: float, probe_count: int = 1) -> float:
    """Lower bound ``1 / (probe_count * qfi)`` on the estimator variance."""
    probe_count = check_probe_count(probe_count)
    qfi = float(qfi)
    if not math.isfinite(qfi) or qfi < 0.0:
        raise DomainError(f"qfi must be finite and >= 0, got {qfi!r}")
    if qfi == 0.0:
        return math.inf
    return 1.0 / (probe_count * qfi)


def qfi_finite_difference(channel, theta: float, *, probe_count: int = 1) -> EstimationReport:
    """Quantum Fisher information of ``channel`` at ``theta``.

    ``channel`` maps a real parameter to a zero-mean :class:`GaussianState`.
    The curvature of the fidelity is taken by central differences at a base
    step ``1e-4 * max(1, |theta|)`` and half of it, combined with one
    Richardson extrapolation.
    """
    theta, probe_count = float(theta), check_probe_count(probe_count)
    base_step = _BASE_STEP_SCALE * max(1.0, abs(theta))
    fine_step = base_step / 2.0

    def curvature(step):
        lo = channel(theta - step / 2.0)
        hi = channel(theta + step / 2.0)
        fid = gaussian_fidelity(lo, hi)
        return 8.0 * (1.0 - math.sqrt(fid)) / step**2

    coarse = curvature(base_step)
    fine = curvature(fine_step)
    qfi = (4.0 * fine - coarse) / 3.0
    if qfi < 0.0:
        if qfi < -1e-6:
            raise NumericalError(f"quantum Fisher information is negative: {qfi!r}")
        qfi = 0.0
    return EstimationReport(
        theta=theta,
        qfi=qfi,
        cramer_rao_bound=cramer_rao_bound(qfi, probe_count),
        probe_count=probe_count,
    )


@dataclass(frozen=True)
class SensingChannel:
    """Twin-beam probe interfering with two weak taps of angle ``theta``.

    A two-mode squeezed pair (modes ``b1, b2``) meets two vacuum ports
    (``c1, c2``) on a pair of beamsplitters, both at the angle ``theta`` that
    the map :func:`build_sensing_channel` returns takes; the ``c`` ports are
    discarded.  Angles live in ``[0, pi/2]``, and
    ``|squeezing_r|`` is at most ``MAX_SQUEEZING_R``.
    """

    squeezing_r: float

    def __post_init__(self):
        r = self.squeezing_r
        # a bool is refused, not read as 0 or 1
        if isinstance(r, bool) or not abs(float(r)) <= MAX_SQUEEZING_R:
            raise DomainError(
                f"squeezing_r must be a finite number with |r| <= {MAX_SQUEEZING_R:g}, got {r!r}"
            )
        object.__setattr__(self, "squeezing_r", float(r))


def check_probe_angle(theta: float) -> float:
    """``theta`` as a float, if it lies in the tap range ``[0, pi/2]``."""
    theta = float(theta)
    if not (0.0 <= theta <= math.pi / 2.0):
        raise DomainError(f"probe angle must lie in [0, pi/2], got {theta!r}")
    return theta


def build_sensing_channel(channel: SensingChannel):
    """Initial four-mode state and the map from angles to the kept pair.

    Returns ``(initial, apply)`` where ``apply(theta)`` gives the reduced
    two-mode state after both beamsplitters at ``theta``.
    """
    squeezer = embed_symplectic(
        gate_two_mode_squeezer(channel.squeezing_r), 4, (0, 1)
    )
    initial = apply_symplectic(state_vacuum(4), squeezer)

    def apply(theta: float) -> GaussianState:
        # tap k mixes b_k with c_k: both taps are the unitary u (x) 1_2 on (b1, b2, c1, c2)
        u = gate_beamsplitter(check_probe_angle(theta)).alpha
        taps = passive_symplectic((u[:, None, :, None] * np.eye(2)[:, None]).reshape(4, 4))
        return partial_trace(apply_symplectic(initial, taps), (0, 1))

    return initial, apply


def sensing_qfi(channel: SensingChannel, theta: float, probe_count: int = 1) -> EstimationReport:
    """Quantum Fisher information of the sensing channel at ``theta``, in closed form.

    Both taps at ``theta`` send the twin beam through pure loss of
    transmissivity ``cos^2 theta``.  With ``s = sinh^2 r`` and
    ``x = sin^2 2 theta`` its QFI is (Safranek, PRA 95, 052320, 2017)

        H = 8 s / (1 + s x) * (cos^2 2 theta + (1 + s) x / (2 + s x)),

    ``8 s`` at both endpoints.  Every term is non-negative, and grouped this
    way nothing overflows for ``|r| <= MAX_SQUEEZING_R``.
    """
    theta, probe_count = check_probe_angle(theta), check_probe_count(probe_count)
    s = math.sinh(channel.squeezing_r) ** 2
    x = math.sin(2.0 * theta) ** 2
    qfi = 8.0 * s / (1.0 + s * x) * (math.cos(2.0 * theta) ** 2 + (1.0 + s) * x / (2.0 + s * x))
    return EstimationReport(
        theta=theta,
        qfi=qfi,
        cramer_rao_bound=cramer_rao_bound(qfi, probe_count),
        probe_count=probe_count,
    )


def qfi_sweep(channel: SensingChannel, thetas, probe_count: int = 1) -> list[EstimationReport]:
    """Evaluate :func:`sensing_qfi` over a grid of angles."""
    return [sensing_qfi(channel, t, probe_count) for t in thetas]
