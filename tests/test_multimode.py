"""Redshift as multimode mixing, against the number basis.

In ``x = (omega - omega0)/sigma`` an emitted Gaussian photon is the vacuum
wavefunction, and the photon received under the frequency factor ``chi``
is ``D(alpha) S(zeta)|0>`` with ``S(zeta) = exp(zeta/2 (a†^2 - a^2))``,
``zeta = ln chi^2`` and ``alpha = z omega0/(sqrt(2) sigma)``, ``z = chi^2 - 1``.
Its amplitude on the m-th Hermite-Gauss mode of the emitted photon is
``c_m = <m|D(alpha) S(zeta)|0>``.  The package applies the inverse of that
unitary (ROADMAP item 9).  That changes ``c_1``, whose sign tells the two
apart, but neither ``|c_0|`` nor the total weight, which are checked here.
"""

import math

import numpy as np
import pytest

import fock_oracle as fo
from graviphoton import GaussianProfile, SampledGridProfile, overlap, redshift_transform

CUTOFF = 160


def number_amplitudes(carrier_to_width, z):
    """``c_m`` for m below the cutoff, from the truncated number basis."""
    a = fo.destroy(CUTOFF)
    alpha = z * carrier_to_width / math.sqrt(2.0)
    psi = fo.vacuum_vector(1, CUTOFF)
    psi = fo.apply_generator(psi, fo.generator_squeezer(math.log1p(z), 0, 1, CUTOFF))
    return fo.apply_generator(psi, alpha * (a.conj().T - a))


# alpha from 0.1 to 4 of either sign, carriers from just above the 8-width
# minimum to 1e5 widths: the Gaussian overlap is a closed form in the
# carrier separation d = omega0 - omega0/chi^2, whose rounding (relative
# eps/|z|, the weak-field precision of ROADMAP item 2) the bound allows
@pytest.mark.parametrize("alpha", [0.1, 0.5, 2.0, 4.0, -0.5, -2.0, -4.0])
@pytest.mark.parametrize("carrier_to_width", [8.5, 10.0, 100.0, 1e3, 1e4, 1e5])
def test_vacuum_amplitude_is_the_overlap_magnitude(carrier_to_width, alpha):
    z = alpha * math.sqrt(2.0) / carrier_to_width
    c = number_amplitudes(carrier_to_width, z)
    assert abs(np.vdot(c, c) - 1.0) < 1e-14  # nothing lost to the cutoff
    sigma = 2.0 * math.pi * 1e5
    emitted = GaussianProfile(carrier_to_width * sigma, sigma)
    theta = overlap(emitted, redshift_transform(emitted, math.sqrt(1.0 + z)))
    assert abs(abs(theta) - abs(c[0])) <= 1e-14 + 2.0**-50 * alpha**2 / abs(z)


def hermite_gauss(x, count):
    """The first ``count`` Hermite-Gauss functions at ``x``, by their recurrence."""
    out = [math.pi**-0.25 * np.exp(-0.5 * x * x)]
    out.append(math.sqrt(2.0) * x * out[0])
    for m in range(1, count - 1):
        out.append(math.sqrt(2.0 / (m + 1)) * x * out[m] - math.sqrt(m / (m + 1)) * out[m - 1])
    return out


@pytest.mark.parametrize("chi_squared", [1.2, 1 / 1.2, 1.02])
def test_hermite_gauss_weights_of_the_received_photon_sum_to_one(chi_squared):
    # tabulated photons at 16 carrier widths on 20,001 nodes over +-12 widths;
    # the received photon's nodes are the emitted ones over chi^2, so every
    # overlap merges two distinct grids.  Past 48 modes the weight is below
    # 1e-15, and the splines interpolate to about 1e-13 of it
    sigma = 2.0 * math.pi * 1e5
    x = np.linspace(-12.0, 12.0, 20_001)
    omega = sigma * (16.0 + x)
    modes = [SampledGridProfile.from_samples(omega, f) for f in hermite_gauss(x, 48)]
    received = redshift_transform(modes[0], math.sqrt(chi_squared))
    weights = [abs(overlap(mode, received)) ** 2 for mode in modes]
    assert abs(math.fsum(weights) - 1.0) <= 1e-12
    c = number_amplitudes(16.0, chi_squared - 1.0)
    assert abs(math.sqrt(weights[0]) - abs(c[0])) <= 1e-12
