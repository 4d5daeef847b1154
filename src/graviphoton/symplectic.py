"""Gaussian states and symplectic transformations in annihilation ordering.

The mode-operator vector is ``X = (a_1 .. a_N, a_1^+ .. a_N^+)`` and the
symplectic form is ``Omega = diag(-i, .., -i, i, .., i)``.  A symplectic
matrix has the block form ``S = [[A, B], [conj(B), conj(A)]]`` and satisfies
``S Omega S^+ = Omega``, equivalently the Bogoliubov identities
``A A^+ - B B^+ = 1`` and ``A B^T = B A^T``.

A Gaussian state carries first moments ``d = (<a_1> .. <a_N>, c.c.)`` and the
covariance matrix ``sigma_nm = <X_n X_m^+ + X_m^+ X_n> - 2 <X_n><X_m^+>``,
normalized so the vacuum has ``sigma = 1``.  Evolution acts as
``d -> S d`` and ``sigma -> S sigma S^+``.

Everything here is closed-form numpy.  ``SymplecticMatrix`` checks the block form and both
identities in one reduction each; ``GaussianState`` checks conjugate moments, Hermiticity and
``sigma + i Omega >= 0`` (one eigenvalue solve).
"""

from __future__ import annotations

import cmath
import functools
import math
import operator

from ._lazy import NumpyOnFirstUse
from .errors import DimensionMismatch, DomainError, NonPhysicalState, NumericalError

np = NumpyOnFirstUse(globals())

STRUCTURE_TOL = 1e-12
PHYSICALITY_TOL = 1e-10
_PAIRING_TOL = 1e-8
# squeezers beyond |r| = 355.58 overflow cosh(r)^2, the scale of their check
_MAX_SQUEEZING = 355.5


def symplectic_form(n_modes: int) -> np.ndarray:
    """The matrix ``Omega = diag(-i .. -i, i .. i)`` for ``n_modes`` modes."""
    return np.diag([-1j] * n_modes + [1j] * n_modes)


@functools.cache
def _uncertainty_metric(n_modes: int) -> np.ndarray:
    # i * Omega, the Hermitian metric entering the physicality bound; cached, so read-only
    metric = np.diag([1.0] * n_modes + [-1.0] * n_modes).astype(complex)
    metric.setflags(write=False)
    return metric


def _conjugate_row(top: np.ndarray) -> np.ndarray:
    """``[conj B, conj A]``, the lower block row that the upper ``[A, B]`` fixes."""
    n = top.shape[0]
    return top.reshape(n, 2, n)[:, ::-1].conj().reshape(n, 2 * n)


def _as_int(value, what: str, error) -> int:
    """``value`` as an int; bools and non-integral numbers raise ``error``."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise error(f"{what} must be an integer, got {value!r}")


def _as_square_even(matrix, what: str) -> tuple[np.ndarray, int]:
    arr = np.asarray(matrix, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] % 2:
        raise DimensionMismatch(
            f"{what} must be a square matrix of even dimension, got shape {arr.shape}"
        )
    if not np.isfinite(arr).all():
        raise DomainError(f"{what} must have finite entries")
    return arr, arr.shape[0] // 2


class SymplecticMatrix:
    """Validated symplectic matrix in annihilation ordering.

    Construction checks the conjugate block structure and the Bogoliubov
    identities; the worst violation is stored as :attr:`residual`, an
    absolute value.  The identities are held to ``STRUCTURE_TOL`` times
    ``max(1, |A|^2)``, the largest row norm squared of ``A``, because their
    rounding grows with it: a squeezer of parameter ``r`` carries rounding
    of order ``eps cosh^2 r``.
    """

    def __init__(self, matrix):
        arr, n = _as_square_even(matrix, "symplectic matrix")
        top = arr[:n]
        low = _conjugate_row(top)
        structure = abs(arr[n:] - low).max()
        if structure > STRUCTURE_TOL:
            raise DomainError(
                f"matrix lacks the conjugate block structure (deviation {structure:.3e})"
            )
        # [A, -B] [[A, B], [conj B, conj A]]^+ = [A A^+ - B B^+, A B^T - B A^T]
        ident = (top * _uncertainty_metric(n).diagonal()) @ np.concatenate((top, low)).conj().T
        ident.ravel()[:: 2 * n + 1] -= 1.0  # the diagonal of the left block
        residual = abs(ident).max()
        if not residual <= STRUCTURE_TOL:
            # scaled only here, so gates that pass outright pay nothing for
            # it; the row norms of A bound B's, and an A whose products
            # overflow (residual nan, scale inf) is never accepted
            tol = STRUCTURE_TOL * max(1.0, float((abs(top[:, :n]) ** 2).sum(axis=1).max()))
            if not residual <= tol < math.inf:
                raise DomainError(
                    f"matrix is not symplectic to tolerance {tol:.3g} "
                    f"(Bogoliubov residual {residual:.3e})"
                )
        arr = arr.copy()
        arr.setflags(write=False)
        self._matrix = arr
        self.n_modes = n
        self.residual = float(max(structure, residual))

    @property
    def matrix(self) -> np.ndarray:
        return self._matrix

    @property
    def alpha(self) -> np.ndarray:
        return self._matrix[: self.n_modes, : self.n_modes]

    @property
    def beta(self) -> np.ndarray:
        return self._matrix[: self.n_modes, self.n_modes :]

    def __matmul__(self, other: "SymplecticMatrix") -> "SymplecticMatrix":
        if not isinstance(other, SymplecticMatrix):
            return NotImplemented
        if other.n_modes != self.n_modes:
            raise DimensionMismatch(
                f"cannot compose {self.n_modes}-mode with {other.n_modes}-mode matrices"
            )
        return SymplecticMatrix(self._matrix @ other._matrix)

    def __repr__(self):
        return f"SymplecticMatrix(n_modes={self.n_modes}, residual={self.residual:.2e})"


class GaussianState:
    """First and second moments of a Gaussian state of ``N`` modes."""

    def __init__(self, first_moments, covariance):
        sigma, n = _as_square_even(covariance, "covariance matrix")
        d = np.asarray(first_moments, dtype=complex).reshape(-1)
        if d.shape != (2 * n,):
            raise DimensionMismatch(f"first moments have shape {d.shape}, expected ({2 * n},)")
        if not np.isfinite(d).all():
            raise DomainError("first moments must be finite")
        # each scale is at least 1, so it is only needed past the unscaled bound
        pair = abs(d[n:] - d[:n].conj()).max()
        if pair > STRUCTURE_TOL and pair > STRUCTURE_TOL * max(1.0, float(abs(d).max())):
            raise DomainError("first moments must come in conjugate pairs (d_k, conj(d_k))")
        # halved first, so entries near the float limit do not overflow the
        # sum; halving is exact, so herm is |sigma - sigma^+| to the bit
        half = 0.5 * sigma
        half_h = half.conj().T
        herm = 2.0 * float(abs(half - half_h).max())
        if herm > 1e-10 and herm > 1e-10 * max(1.0, float(abs(sigma).max())):
            raise DomainError(f"covariance is not Hermitian (deviation {herm:.3e})")
        sigma = half + half_h
        wmin = float(np.linalg.eigvalsh(sigma + _uncertainty_metric(n))[0])
        if wmin < -PHYSICALITY_TOL:
            # eigenvalues are rounded relative to the largest variance
            tol = PHYSICALITY_TOL * max(1.0, float(sigma.diagonal().real.max()))
            if wmin < -tol:
                raise NonPhysicalState(
                    f"covariance violates the uncertainty bound to tolerance {tol:.3g} "
                    f"(min eigenvalue of sigma + i Omega is {wmin:.3e})"
                )
        sigma.setflags(write=False)  # a fresh sum, shared with no caller
        d = d.copy()
        d.setflags(write=False)
        self._d = d
        self._sigma = sigma
        self.n_modes = n

    @property
    def first_moments(self) -> np.ndarray:
        return self._d

    @property
    def covariance(self) -> np.ndarray:
        return self._sigma

    @property
    def mode_amplitudes(self) -> np.ndarray:
        """The ``<a_k>`` entries of the first moments."""
        return self._d[: self.n_modes]

    def __repr__(self):
        return f"GaussianState(n_modes={self.n_modes})"


def state_vacuum(n_modes: int) -> GaussianState:
    n_modes = _as_int(n_modes, "n_modes", DomainError)
    if n_modes < 1:
        raise DomainError("n_modes must be at least 1")
    return GaussianState(np.zeros(2 * n_modes), np.eye(2 * n_modes))


def state_coherent(alpha: complex) -> GaussianState:
    alpha = complex(alpha)
    if not (math.isfinite(alpha.real) and math.isfinite(alpha.imag)):
        raise DomainError(f"alpha must be finite, got {alpha!r}")
    return GaussianState([alpha, alpha.conjugate()], np.eye(2))


def state_thermal(nbar: float) -> GaussianState:
    nbar = float(nbar)
    if not math.isfinite(nbar) or nbar < 0.0:
        raise DomainError(f"mean occupation must be finite and >= 0, got {nbar!r}")
    return GaussianState(np.zeros(2), (2.0 * nbar + 1.0) * np.eye(2))


def thermal_occupation(omega_rad_s: float, temperature_k: float) -> float:
    """Bose-Einstein occupation ``1 / (exp(hbar w / k T) - 1)``."""
    from .constants import HBAR, K_BOLTZMANN

    omega_rad_s, temperature_k = float(omega_rad_s), float(temperature_k)
    if omega_rad_s <= 0.0 or not math.isfinite(omega_rad_s):
        raise DomainError("omega_rad_s must be finite and positive")
    if temperature_k <= 0.0 or not math.isfinite(temperature_k):
        raise DomainError("temperature_k must be finite and positive")
    x = HBAR * omega_rad_s / (K_BOLTZMANN * temperature_k)
    if x > 700.0:
        return 0.0
    return 1.0 / math.expm1(x)


def tensor_product(a: GaussianState, b: GaussianState) -> GaussianState:
    """Joint state of two independent subsystems, modes of ``a`` first."""
    na, nb = a.n_modes, b.n_modes
    d_dir = np.concatenate([a.first_moments, b.first_moments])
    sig_dir = np.zeros((2 * (na + nb), 2 * (na + nb)), dtype=complex)
    sig_dir[: 2 * na, : 2 * na] = a.covariance
    sig_dir[2 * na :, 2 * na :] = b.covariance
    perm = (
        list(range(na))
        + [2 * na + k for k in range(nb)]
        + [na + k for k in range(na)]
        + [2 * na + nb + k for k in range(nb)]
    )
    return GaussianState(d_dir[perm], sig_dir[np.ix_(perm, perm)])


def apply_symplectic(state: GaussianState, gate: SymplecticMatrix) -> GaussianState:
    if gate.n_modes != state.n_modes:
        raise DimensionMismatch(f"gate acts on {gate.n_modes} modes, state has {state.n_modes}")
    s = gate.matrix
    return GaussianState(s @ state.first_moments, s @ state.covariance @ s.conj().T)


def partial_trace(state: GaussianState, keep) -> GaussianState:
    """Reduced state of the listed modes, in the listed order."""
    keep = [_as_int(k, "mode index", DimensionMismatch) for k in keep]
    n = state.n_modes
    if not keep:
        raise DimensionMismatch("keep must name at least one mode")
    if len(set(keep)) != len(keep):
        raise DimensionMismatch(f"keep has repeated modes: {keep}")
    if any(k < 0 or k >= n for k in keep):
        raise DimensionMismatch(f"keep {keep} out of range for {n} modes")
    idx = np.array(keep + [n + k for k in keep])
    return GaussianState(state.first_moments[idx], state.covariance[idx[:, None], idx])


def mean_photon_number(state: GaussianState) -> float:
    """Total ``sum_k (sigma_kk - 1)/2 + |<a_k>|^2`` over all modes."""
    n = state.n_modes
    diag = np.real(np.diagonal(state.covariance)[:n])
    return float(np.sum((diag - 1.0) / 2.0) + np.sum(np.abs(state.mode_amplitudes) ** 2))


def williamson_eigenvalues(state_or_covariance) -> np.ndarray:
    """Symplectic spectrum, sorted in decreasing order.

    The eigenvalues of ``i Omega sigma`` come in pairs ``(+nu, -nu)``; the
    returned array holds one ``nu >= 1`` per mode for a physical state.
    """
    if isinstance(state_or_covariance, GaussianState):
        sigma = state_or_covariance.covariance
        n = state_or_covariance.n_modes
    else:
        sigma, n = _as_square_even(state_or_covariance, "covariance matrix")
        herm = abs(sigma - sigma.conj().T).max()
        if herm > 1e-10 * max(1.0, float(abs(sigma).max())):
            raise DomainError(f"covariance is not Hermitian (deviation {herm:.3e})")
    vals = np.abs(np.linalg.eigvals(_uncertainty_metric(n) @ sigma))
    vals.sort()
    lo, hi = vals[0::2], vals[1::2]
    scale = max(1.0, float(vals[-1]))
    gap = float(abs(hi - lo).max())
    if gap > _PAIRING_TOL * scale:
        raise NumericalError(
            f"symplectic spectrum does not split into +/- pairs (worst gap {gap:.3e})"
        )
    return 0.5 * (lo + hi)[::-1]


# ---------------------------------------------------------------------------
# gate constructors


def gate_single_mode_squeezer(s: float) -> SymplecticMatrix:
    """Single-mode squeezer ``[[cosh s, sinh s], [sinh s, cosh s]]``."""
    s = float(s)
    if not abs(s) <= _MAX_SQUEEZING:
        raise DomainError(
            f"squeezing parameter must be finite with |r| <= {_MAX_SQUEEZING:g}, got {s!r}"
        )
    c, sh = math.cosh(s), math.sinh(s)
    return SymplecticMatrix(np.array([[c, sh], [sh, c]], dtype=complex))


def gate_beamsplitter(theta: float) -> SymplecticMatrix:
    """Two-mode beamsplitter with rotation blocks ``[[cos, sin], [-sin, cos]]``.

    The mode mixer of :func:`mode_mixer_from_overlap` at ``phi = 0``.
    """
    return mode_mixer_from_overlap(theta)


def gate_two_mode_squeezer(r: float) -> SymplecticMatrix:
    """Two-mode squeezer coupling the pair through ``sinh r`` on the cross block."""
    r = float(r)
    if not abs(r) <= _MAX_SQUEEZING:
        raise DomainError(
            f"squeezing parameter must be finite with |r| <= {_MAX_SQUEEZING:g}, got {r!r}"
        )
    c, sh = math.cosh(r), math.sinh(r)
    m = [[c, 0.0, 0.0, sh], [0.0, c, sh, 0.0], [0.0, sh, c, 0.0], [sh, 0.0, 0.0, c]]
    return SymplecticMatrix(np.array(m, dtype=complex))


def mode_mixer_from_overlap(theta: float, phi: float = 0.0) -> SymplecticMatrix:
    """Passive mixing of a matched and an orthogonal mode.

    The unitary block is ``[[cos t, e^{i phi} sin t], [-e^{-i phi} sin t, cos t]]``;
    with ``(theta, phi)`` taken from :func:`graviphoton.wavepacket.mixing_angle`
    this reproduces the mode rotation a frequency shift induces at a receiver
    matched to the unshifted amplitude.
    """
    theta, phi = float(theta), float(phi)
    if not (math.isfinite(theta) and math.isfinite(phi)):
        raise DomainError("mixer angles must be finite")
    c, sn = math.cos(theta), math.sin(theta)
    u = np.array(
        [[c, cmath.exp(1j * phi) * sn], [-cmath.exp(-1j * phi) * sn, c]], dtype=complex
    )
    return passive_symplectic(u)


def passive_symplectic(unitary) -> SymplecticMatrix:
    """Embed an ``N x N`` unitary ``U`` as the photon-conserving ``U + conj(U)``."""
    u = np.asarray(unitary, dtype=complex)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise DimensionMismatch(f"unitary must be square, got shape {u.shape}")
    if not np.isfinite(u).all():
        raise DomainError("unitary must have finite entries")
    dev = abs(u @ u.conj().T - np.eye(u.shape[0])).max()
    if dev > STRUCTURE_TOL:
        raise DomainError(f"matrix is not unitary (deviation {dev:.3e})")
    n = u.shape[0]
    s = np.zeros((2 * n, 2 * n), dtype=complex)
    s[:n, :n] = u
    s[n:, n:] = u.conj()
    return SymplecticMatrix(s)


def tritter(theta12: float, theta23: float, theta13: float, delta: float) -> np.ndarray:
    """Three-mode mixing unitary in the standard three-angle, one-phase form.

    Returns the plain ``3 x 3`` complex unitary; embed it with
    :func:`passive_symplectic` to act on Gaussian states.
    """
    c12, s12 = math.cos(theta12), math.sin(theta12)
    c23, s23 = math.cos(theta23), math.sin(theta23)
    c13, s13 = math.cos(theta13), math.sin(theta13)
    ep, em = np.exp(1j * delta), np.exp(-1j * delta)
    return np.array(
        [
            [c12 * c13, s12 * c13, s13 * em],
            [
                -s12 * c23 - c12 * s23 * s13 * ep,
                c12 * c23 - s12 * s23 * s13 * ep,
                s23 * c13,
            ],
            [
                s12 * s23 - c12 * c23 * s13 * ep,
                -c12 * s23 - s12 * c23 * s13 * ep,
                c23 * c13,
            ],
        ],
        dtype=complex,
    )


def embed_symplectic(gate: SymplecticMatrix, n_total: int, modes) -> SymplecticMatrix:
    """Act with ``gate`` on the listed modes of a larger register."""
    modes = [_as_int(m, "mode index", DimensionMismatch) for m in modes]
    n_total = _as_int(n_total, "n_total", DomainError)
    if len(modes) != gate.n_modes:
        raise DimensionMismatch(f"gate needs {gate.n_modes} modes, got {len(modes)} targets")
    if len(set(modes)) != len(modes) or any(m < 0 or m >= n_total for m in modes):
        raise DimensionMismatch(f"invalid target modes {modes} for {n_total} modes")
    # [[A, B], [conj B, conj A]] from the gate's upper row, on rows and columns idx
    top = gate.matrix[: gate.n_modes]
    idx = np.array(modes + [n_total + m for m in modes])
    big = np.eye(2 * n_total, dtype=complex)
    big[idx[:, None], idx] = np.concatenate((top, _conjugate_row(top)))
    return SymplecticMatrix(big)
