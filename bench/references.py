"""Reference values for the benchmark, computed apart from graviphoton.

Nothing here imports the package under test.  Redshifts and Gaussian
overlaps are evaluated in 60-digit mpmath from the textbook formulas; the
quantum Fisher information of the sensing channel comes from the symmetric
logarithmic derivative of the reduced density matrix written out in the
photon-number basis.

Regenerate ``references.json`` (needs mpmath) with::

    python3 bench/references.py
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCES_PATH = os.path.join(HERE, "references.json")
# copies of the four golden scenario files, kept here so the workload does
# not change when the test goldens do
CONFIG_DIR = os.path.join(HERE, "configs")

# Physical inputs shared with the workload generator.  Radii and frequencies
# are the exact doubles the program receives.
EARTH_MASS_KG = 5.9722e24
EARTH_RADIUS_M = 6.371e6
OMEGA0_RAD_S = 2.0 * math.pi * 4.3e14
LINKS = {
    # name: (receiver kind, receiver radius); the emitter hovers at the surface
    "hover-1m": ("static", EARTH_RADIUS_M + 1.0),
    "hover-1km": ("static", EARTH_RADIUS_M + 1.0e3),
    "hover-500km": ("static", EARTH_RADIUS_M + 5.0e5),
    "leo": ("orbit", EARTH_RADIUS_M + 4.0e5),
    "geo": ("orbit", 4.2164e7),
}
# Bandwidths span 2 pi 1e4 .. 2 pi 1e7 rad/s in SIGMA_STRATA log-spaced
# strata; each stratum holds SIGMA_VARIANTS evenly spaced candidates and the
# seed picks one per stratum, so the cost of a sweep does not depend on it.
SIGMA_STRATA = 12
SIGMA_VARIANTS = 16
SIGMA_DECADES = (4.0, 7.0)

SQUEEZINGS = (0.1, 0.3, 0.6)
# Angles every round runs whatever the seed: both interval endpoints and the
# small angles where a finite-difference stencil is least reliable.
FIXED_ANGLES = (0.0, 1.0e-3, 1.0e-2, 0.05, math.pi / 2.0)
# Seeded angles: ANGLE_STRATA strata over ANGLE_RANGE, ANGLE_VARIANTS each.
ANGLE_RANGE = (0.25, 1.35)
ANGLE_STRATA = 8
ANGLE_VARIANTS = 16
FOCK_CUTOFF = 48


def sigma_candidates(stratum: int) -> list[float]:
    lo, hi = SIGMA_DECADES
    width = (hi - lo) / SIGMA_STRATA
    return [
        2.0 * math.pi * 10.0 ** (lo + width * (stratum + (v + 0.5) / SIGMA_VARIANTS))
        for v in range(SIGMA_VARIANTS)
    ]


def angle_candidates(stratum: int) -> list[float]:
    lo, hi = ANGLE_RANGE
    width = (hi - lo) / ANGLE_STRATA
    return [lo + width * (stratum + (v + 0.5) / ANGLE_VARIANTS) for v in range(ANGLE_VARIANTS)]


# ---------------------------------------------------------------------------
# 60-digit redshift and Gaussian overlap


def _mp():
    import mpmath

    mpmath.mp.dps = 60
    return mpmath


def redshift_z(receiver_kind: str, receiver_radius_m: float,
               mass_kg: float = EARTH_MASS_KG, emitter_radius_m: float = EARTH_RADIUS_M):
    """``z = chi**2 - 1`` from a hovering emitter, as a 60-digit number."""
    mp = _mp()
    c = mp.mpf(299792458)
    g = mp.mpf("6.67430e-11")
    r_s = 2 * g * mp.mpf(mass_kg) / c**2
    f_emit = 1 - r_s / mp.mpf(emitter_radius_m)
    factor = mp.mpf(3) / 2 if receiver_kind == "orbit" else mp.mpf(1)
    f_recv = 1 - factor * r_s / mp.mpf(receiver_radius_m)
    return mp.sqrt(f_emit) / mp.sqrt(f_recv) - 1


def gaussian_deficit(z, sigma_rad_s: float, omega0_rad_s: float = OMEGA0_RAD_S):
    """``1 - |Theta|**2`` between a Gaussian amplitude and its redshifted image.

    ``F'(w) = chi F(chi**2 w)`` maps centre and width to ``w0/chi**2`` and
    ``sigma/chi**2``; the overlap of two normalized Gaussians is closed form.
    """
    mp = _mp()
    chi_sq = 1 + z
    s1 = mp.mpf(sigma_rad_s)
    s2 = s1 / chi_sq
    d = mp.mpf(omega0_rad_s) * z / chi_sq
    theta_sq = 2 * s1 * s2 / (s1**2 + s2**2) * mp.exp(-(d**2) / (s1**2 + s2**2))
    return 1 - theta_sq


# ---------------------------------------------------------------------------
# number-basis QFI of the sensing channel


def _beamsplitter_amplitudes(n_max: int, theta: float):
    """``b[n, k]`` for ``|n, 0> -> sum_k b[n, k] |k, n - k>`` and its derivative."""
    c, s = math.cos(theta), math.sin(theta)
    b = np.zeros((n_max + 1, n_max + 1))
    db = np.zeros_like(b)
    for n in range(n_max + 1):
        for k in range(n + 1):
            root = math.sqrt(math.comb(n, k))
            b[n, k] = root * c**k * s ** (n - k)
            if k >= 1:
                db[n, k] -= root * k * c ** (k - 1) * s ** (n - k + 1)
            if n - k >= 1:
                db[n, k] += root * (n - k) * c ** (k + 1) * s ** (n - k - 1)
    return b, db


def _sld_qfi_at(r: float, theta: float, cutoff: int, support_tol: float = 1e-14) -> float:
    """SLD quantum Fisher information of the kept pair at one interior angle.

    A twin beam ``sum_n c_n |n, n>`` meets vacuum taps on two beam splitters
    of the same angle; tracing out the taps leaves a density matrix that is
    block diagonal in ``k - l``, so each block is diagonalized on its own.
    """
    lam = math.tanh(r)
    c = np.array([lam**n / math.cosh(r) for n in range(cutoff + 1)])
    b, db = _beamsplitter_amplitudes(cutoff, theta)
    qfi = 0.0
    j1 = np.arange(cutoff + 1)[:, None]
    for m in range(-cutoff, cutoff + 1):
        k = np.arange(max(m, 0), min(cutoff, cutoff + m) + 1)[None, :]
        n = j1 + k  # photons in each twin-beam term feeding (k, k - m)
        ok = n <= cutoff
        n = np.where(ok, n, 0)
        kk, ll = np.broadcast_to(k, n.shape), np.broadcast_to(k - m, n.shape)
        v = np.where(ok, c[n] * b[n, kk] * b[n, ll], 0.0)
        dv = np.where(ok, c[n] * (db[n, kk] * b[n, ll] + b[n, kk] * db[n, ll]), 0.0)
        rho = v.T @ v
        drho = dv.T @ v + v.T @ dv
        p, vecs = np.linalg.eigh(rho)
        mat = vecs.T @ drho @ vecs
        denom = p[:, None] + p[None, :]
        keep = denom > support_tol
        qfi += float(np.sum(2.0 * mat[keep] ** 2 / denom[keep]))
    return qfi


def sld_qfi(r: float, theta: float, cutoff: int = FOCK_CUTOFF) -> float:
    """QFI at ``theta`` in [0, pi/2]; at an endpoint, its limit from inside.

    At either endpoint the kept pair is pure and the rank of the state jumps,
    so the value there is extrapolated from two nearby interior angles,
    ``H(d) = H0 + a d**2``.
    """
    if 0.0 < theta < math.pi / 2.0:
        return _sld_qfi_at(r, theta, cutoff)
    d = 1e-4
    sign = 1.0 if theta == 0.0 else -1.0
    h1 = _sld_qfi_at(r, theta + sign * d, cutoff)
    h2 = _sld_qfi_at(r, theta + sign * 2.0 * d, cutoff)
    return (4.0 * h1 - h2) / 3.0


# ---------------------------------------------------------------------------


def golden_references() -> dict:
    """References for the scenario files the cold-CLI workload runs."""
    out = {}
    for fname in sorted(os.listdir(CONFIG_DIR)):
        with open(os.path.join(CONFIG_DIR, fname), encoding="utf-8") as fh:
            cfg = json.load(fh)
        task = cfg["task"]
        if task == "qfi-sweep":
            est = cfg["estimation"]
            out[task] = {"qfi": [sld_qfi(est["squeezing_r"], t) for t in est["theta_rad"]]}
            continue
        z = redshift_z(
            cfg["receiver"]["type"],
            cfg["receiver"]["radius_m"],
            cfg["body"]["mass_kg"],
            cfg["emitter"]["radius_m"],
        )
        entry = {"z": float(z)}
        if task == "overlap":
            entry["deficit"] = [float(gaussian_deficit(z, cfg["photon"]["sigma_rad_s"],
                                                       cfg["photon"]["omega0_rad_s"]))]
        elif task == "qber-sweep":
            entry["deficit"] = [
                float(gaussian_deficit(z, s, cfg["photon"]["omega0_rad_s"]))
                for s in cfg["sweep"]["sigma_rad_s"]
            ]
        out[task] = entry
    return out


def build_references() -> dict:
    links = {}
    for name, (kind, radius) in LINKS.items():
        z = redshift_z(kind, radius)
        sigmas = [sigma_candidates(i) for i in range(SIGMA_STRATA)]
        links[name] = {
            "receiver_kind": kind,
            "receiver_radius_m": radius,
            "z": float(z),
            "sigma_rad_s": sigmas,
            "deficit": [[float(gaussian_deficit(z, s)) for s in row] for row in sigmas],
        }
    qfi = {}
    for r in SQUEEZINGS:
        angles = [angle_candidates(i) for i in range(ANGLE_STRATA)]
        qfi[repr(r)] = {
            "fixed_theta": list(FIXED_ANGLES),
            "fixed_qfi": [sld_qfi(r, t) for t in FIXED_ANGLES],
            "theta": angles,
            "qfi": [[sld_qfi(r, t) for t in row] for row in angles],
        }
    return {
        "earth_mass_kg": EARTH_MASS_KG,
        "earth_radius_m": EARTH_RADIUS_M,
        "omega0_rad_s": OMEGA0_RAD_S,
        "links": links,
        "qfi": qfi,
        "golden": golden_references(),
    }


def main() -> int:
    refs = build_references()
    with open(REFERENCES_PATH, "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
