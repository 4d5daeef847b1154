import cmath
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import CubicSpline

import highprec as hp
from graviphoton import (
    DomainError,
    GaussianProfile,
    NormalizationError,
    RedshiftFactor,
    SampledGridProfile,
    SchwarzschildGeometry,
    cli,
    l2_norm,
    mixing_angle,
    overlap,
    redshift_static_static,
    redshift_transform,
    sharp_commutator_scale,
    wavepacket,
)
from graviphoton.constants import EARTH_MASS_KG, EARTH_RADIUS_M

W0 = 2.0 * math.pi * 4.3e14
SIG = 2.0 * math.pi * 1e5


def sampled_gaussian(omega0, sigma, n=801, phase=0.0):
    """Tabulated copy of an analytic Gaussian for grid-path tests."""
    w = np.linspace(omega0 - 8.0 * sigma, omega0 + 8.0 * sigma, n)
    amp = (math.pi * sigma**2) ** -0.25 * np.exp(
        -((w - omega0) ** 2) / (2.0 * sigma**2)
    )
    return SampledGridProfile.from_samples(w, amp * np.exp(1j * phase))


# an optical carrier near 2**51 rad/s (358 THz), held exactly together with
# every node offset that is a multiple of 0.5 rad/s
OPTICAL = 2.0**51


def exact_grid(n, start, step, seed, phase=0.0):
    """Chirped bump tabulated on jittered nodes ``start + step * k``.

    ``step`` is a power of two and every node an exact binary number, so
    ``omega_rad_s - omega_rad_s[0]`` recovers the profile's offsets exactly
    and a spline refitted to the public samples is the profile's own.
    """
    rng = np.random.default_rng(seed)
    du = step * np.concatenate(([0.0], np.cumsum(rng.integers(800, 1201, n - 1))))
    x = (du - 0.5 * du[-1]) / (0.12 * du[-1])
    amp = np.exp(-0.5 * x * x + 1j * (0.3 * x * x + rng.uniform(-0.2, 0.2) * x))
    return SampledGridProfile.from_samples(start + du, amp, phase)


def reference_overlap(a, b):
    """``<a, b>`` at 60 digits from not-a-knot splines refitted to the public
    samples of two grids that start at the same frequency."""
    origin = a.omega_rad_s[0]
    assert b.omega_rad_s[0] == origin
    sa = CubicSpline(a.omega_rad_s - origin, a.amplitude)
    sb = CubicSpline(b.omega_rad_s - origin, b.amplitude)
    phase = hp.mp.expj(hp.mp.mpf(b.phase_rad) - hp.mp.mpf(a.phase_rad))
    return complex(phase * hp.piecewise_cubic_overlap(sa.x, sa.c, sb.x, sb.c))


def record_calls(monkeypatch):
    """List that collects ``(profile, point count)`` per amplitude evaluation,
    counted in ``amplitude_at_offset(ref, u)``, where every evaluation ends up."""
    calls = []
    for cls in (GaussianProfile, SampledGridProfile):
        def counted(profile, ref, u, _method=cls.amplitude_at_offset):
            calls.append((profile, np.size(u)))
            return _method(profile, ref, u)

        monkeypatch.setattr(cls, "amplitude_at_offset", counted)
    return calls


def record_closed_forms(monkeypatch):
    """List that collects the arguments of every closed-form spline overlap."""
    calls = []
    exact = wavepacket.spline.overlap

    def counted(*args):
        calls.append(args)
        return exact(*args)

    monkeypatch.setattr(wavepacket.spline, "overlap", counted)
    return calls


def test_gaussian_profile_is_normalized():
    assert math.isclose(l2_norm(GaussianProfile(W0, SIG)), 1.0, abs_tol=1e-11)


def test_gaussian_peak_amplitude_at_every_width():
    # (pi sigma^2)**-0.25 read 0 from sigma ~ 7.6e153 and raised OverflowError from 1.4e154
    for sigma in 10.0 ** np.linspace(-150.0, 300.0, 451):
        peak = GaussianProfile(10.0 * sigma, sigma)(10.0 * sigma)
        assert peak * math.sqrt(sigma) * math.pi**0.25 == pytest.approx(1.0, rel=4e-16)


def test_gaussian_profile_guards():
    with pytest.raises(DomainError):
        GaussianProfile(-W0, SIG)
    with pytest.raises(DomainError):
        GaussianProfile(W0, -1.0)
    with pytest.raises(DomainError, match="carrier to width ratio"):
        GaussianProfile(1000.0, 500.0)
    with pytest.raises(DomainError):
        GaussianProfile(W0, SIG, float("inf"))


def test_self_overlap_is_unity():
    f = GaussianProfile(W0, SIG)
    assert abs(overlap(f, f) - 1.0) < 1e-10


def test_equal_width_shifted_overlap():
    # peak separation of twice the width leaves 1/e of the overlap; the
    # carrier sum rounds at its own ulp (~2e-7 of the separation), so the
    # spot check is loose while the reference comparison below is tight
    f = GaussianProfile(W0, SIG)
    g = GaussianProfile(W0 + 2.0 * SIG, SIG)
    assert math.isclose(abs(overlap(f, g)), math.exp(-1.0), rel_tol=1e-6)
    ref = hp.as_float(hp.gaussian_overlap(W0, SIG, g.omega0_rad_s, SIG))
    assert math.isclose(abs(overlap(f, g)), ref, rel_tol=1e-10)


def _seeded_gaussian_pairs(count, seed=20140804):
    """Gaussian pairs spanning optical carriers, bandwidths and detunings."""
    rng = np.random.default_rng(seed)
    pairs = []
    while len(pairs) < count:
        w0 = 10.0 ** rng.uniform(14.5, 15.6)
        s1 = w0 / 10.0 ** rng.uniform(1.2, 9.0)
        s2 = s1 * 10.0 ** rng.uniform(-0.5, 0.5)
        ph1 = rng.uniform(-math.pi, math.pi)
        ph2 = ph1 if len(pairs) % 2 else rng.uniform(-math.pi, math.pi)
        try:
            f = GaussianProfile(w0, s1, ph1)
            g = GaussianProfile(w0 + rng.uniform(-6.0, 6.0) * s1, s2, ph2)
        except DomainError:  # a draw too wide for its carrier; draw again
            continue
        pairs.append((f, g))
    return pairs


def test_overlap_against_reference():
    f = GaussianProfile(W0, SIG)
    g = GaussianProfile(W0 + 0.7 * SIG, 1.9 * SIG)
    ref = hp.as_float(hp.gaussian_overlap(W0, SIG, W0 + 0.7 * SIG, 1.9 * SIG))
    assert math.isclose(overlap(f, g).real, ref, rel_tol=1e-10)
    assert abs(overlap(f, g).imag) < 1e-12
    # magnitude to 1e-14 relative against 60 digits on the stored float
    # parameters, and the phase e^{i(phi_g - phi_f)}, exactly real when equal
    for f, g in _seeded_gaussian_pairs(300):
        val = overlap(f, g)
        ref = hp.as_float(
            hp.gaussian_overlap(f.omega0_rad_s, f.sigma_rad_s, g.omega0_rad_s, g.sigma_rad_s)
        )
        assert math.isclose(abs(val), ref, rel_tol=1e-14), (f, g)
        assert abs(val / abs(val) - cmath.exp(1j * (g.phase_rad - f.phase_rad))) < 1e-14
        if f.phase_rad == g.phase_rad:
            assert val.imag == 0.0


def test_overlap_conjugate_symmetry():
    f = GaussianProfile(W0, SIG, 0.3)
    g = GaussianProfile(W0 + SIG, 1.4 * SIG, 1.1)
    ab, ba = overlap(f, g), overlap(g, f)
    assert abs(ab - ba.conjugate()) < 1e-12


def test_constant_phase_shows_up_in_overlap_argument():
    f = GaussianProfile(W0, SIG)
    g = GaussianProfile(W0, SIG, 0.8)
    val = overlap(f, g)
    assert math.isclose(cmath.phase(val), 0.8, rel_tol=1e-9)
    assert math.isclose(abs(val), 1.0, abs_tol=1e-10)


def test_transform_gaussian_parameters():
    chi = 1.3
    out = redshift_transform(GaussianProfile(W0, SIG), chi)
    assert isinstance(out, GaussianProfile)
    assert math.isclose(out.omega0_rad_s, W0 / chi**2, rel_tol=1e-15)
    assert math.isclose(out.sigma_rad_s, SIG / chi**2, rel_tol=1e-15)


def test_transform_identity_returns_same_object():
    f = GaussianProfile(W0, SIG)
    assert redshift_transform(f, 1.0) is f
    g = sampled_gaussian(W0, SIG)
    assert redshift_transform(g, RedshiftFactor(1.0)) is g


def test_transform_accepts_redshift_factor():
    direct = redshift_transform(GaussianProfile(W0, SIG), 1.2)
    wrapped = redshift_transform(GaussianProfile(W0, SIG), RedshiftFactor(1.2))
    assert direct.omega0_rad_s == wrapped.omega0_rad_s


def test_transform_rejects_bad_chi():
    with pytest.raises(DomainError):
        redshift_transform(GaussianProfile(W0, SIG), 0.0)
    with pytest.raises(DomainError):
        redshift_transform(GaussianProfile(W0, SIG), float("nan"))


def test_grid_transform_preserves_norm():
    g = sampled_gaussian(W0, SIG)
    for chi in (0.999999, 1.0000001, 0.7, 1.6):
        out = redshift_transform(g, chi)
        assert abs(l2_norm(out) - 1.0) < 1e-9


def test_grid_transform_inversion():
    g = sampled_gaussian(W0, SIG)
    back = redshift_transform(redshift_transform(g, 1.37), 1.0 / 1.37)
    assert np.max(np.abs(back.omega_rad_s - g.omega_rad_s)) < 1.0  # ~1 ulp at 2.7e15
    assert np.max(np.abs(back.amplitude - g.amplitude)) < 1e-12
    assert abs(overlap(g, back) - 1.0) < 1e-9


@pytest.mark.parametrize("n", [100, 1000])
@pytest.mark.parametrize("case", ["norm", "phase-shifted", "redshifted", "weak-field"])
def test_grid_overlap_against_exact_spline_integral(n, case):
    if case == "norm":
        a = b = exact_grid(n, OPTICAL, 8.0, seed=n)
    elif case == "phase-shifted":
        a = exact_grid(n, OPTICAL, 8.0, seed=n)
        b = exact_grid(n, OPTICAL, 8.0, seed=n + 1, phase=0.8)
    else:
        # grids from zero frequency keep the rescaled offsets public exactly
        a = exact_grid(n, 0.0, 2.0**-20, seed=n)
        b = redshift_transform(a, math.sqrt(1.02 if case == "redshifted" else 1.0 + 1e-9))
    assert abs(overlap(a, b) - reference_overlap(a, b)) < 1e-15


def test_grid_overlaps_allocate_blocks_not_grids():
    # two 100k-node grids interleave to about 2e5 panels, where a (4, panels)
    # complex array alone would take 12 MiB; bytes are counted, not time
    a = sampled_gaussian(W0, SIG, n=100_001)
    b = redshift_transform(a, 1.0 + 1e-10)  # shifted by 0.86 sigma
    assert abs(overlap(a, b)) > 0.5  # first calls fill the caches
    l2_norm(a)
    for call, limit_mib in ((lambda: overlap(a, b), 8), (lambda: l2_norm(a), 1)):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - base <= limit_mib * 2**20


def test_spline_fit_allocates_little_beyond_its_coefficients():
    # the fit computes in place in its output; at 100,001 nodes the
    # coefficients take 6.1 MiB, and everything else at its peak less than 2.5 times that
    w = np.linspace(W0 - 8.0 * SIG, W0 + 8.0 * SIG, 100_001)
    du, amp = w - w[0], np.exp(-(((w - W0) / SIG) ** 2) / 2.0 + 0.3j * (w - W0) / SIG)
    wavepacket.spline.not_a_knot(du, amp)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        c = wavepacket.spline.not_a_knot(du, amp)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - base <= 3.5 * c.nbytes


def test_million_node_overlap_has_no_limit_and_bounded_memory():
    # two 150k-node grids on the same nodes differ by their phase alone
    a = sampled_gaussian(W0, SIG, n=150_000)
    b = sampled_gaussian(W0, SIG, n=150_000, phase=0.7)
    assert abs(overlap(a, b) - cmath.exp(0.7j)) < 1e-9
    del a, b
    # a Gaussian and its image 500 km up, on 1000 and on 1M nodes; the large
    # overlap interleaves two 1M-node grids and allocates O(n), not O(panels x 4)
    earth = SchwarzschildGeometry.from_mass(EARTH_MASS_KG)
    chi = redshift_static_static(earth, EARTH_RADIUS_M, EARTH_RADIUS_M + 5.0e5)
    small = sampled_gaussian(W0, SIG, n=1000)
    want = abs(overlap(small, redshift_transform(small, chi)))
    n = 1_000_000
    a = sampled_gaussian(W0, SIG, n=n)
    b = redshift_transform(a, chi)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        got = abs(overlap(a, b))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert abs(got - want) < 1e-10
    assert peak - base <= 40 * n


def test_grid_overlap_evaluation_counts(monkeypatch):
    a = exact_grid(100, 0.0, 2.0**-20, seed=3)
    b = exact_grid(120, 0.0, 2.0**-20, seed=4)
    g = exact_grid(100, OPTICAL, 8.0, seed=5)
    lo, hi = g.support()
    f = GaussianProfile(0.5 * (lo + hi), 0.1 * (hi - lo))
    calls = record_calls(monkeypatch)
    closed = record_closed_forms(monkeypatch)
    # every overlap is closed form: no point is evaluated, and only the
    # grid-grid pair and the grid norm integrate two splines
    overlap(a, b)
    l2_norm(a)
    overlap(f, g)
    overlap(g, f)
    assert calls == []
    assert len(closed) == 2


def dense_mixed_reference(f, g):
    """``<f, g>`` of a Gaussian and a grid: a refitted scipy spline times the
    Gaussian, with 20 Gauss points on every panel between the spline nodes
    and a sigma/4 lattice over the Gaussian's +-12 sigma, independent of the
    package's closed form."""
    origin = g.omega_rad_s[0]
    s = CubicSpline(g.omega_rad_s - origin, g.amplitude)
    lattice = (f.omega0_rad_s - origin) + f.sigma_rad_s * np.arange(-48, 49) / 4.0
    edges = np.union1d(s.x, lattice[(lattice > s.x[0]) & (lattice < s.x[-1])])
    nodes, weights = np.polynomial.legendre.leggauss(20)
    mid, half = 0.5 * (edges[1:] + edges[:-1]), 0.5 * np.diff(edges)
    t = mid[:, None] + half[:, None] * nodes
    x = ((origin - f.omega0_rad_s) + t) / f.sigma_rad_s
    gauss = (math.pi * f.sigma_rad_s**2) ** -0.25 * np.exp(-0.5 * x * x)
    phase = cmath.exp(1j * (g.phase_rad - f.phase_rad))
    return np.sum(gauss * s(t) * half[:, None] * weights) * phase


@pytest.mark.parametrize("width", [0.02, 0.1, 0.6])
def test_mixed_overlap_against_dense_reference(width):
    g = exact_grid(100, OPTICAL, 8.0, seed=11, phase=0.4)
    lo, hi = g.support()
    f = GaussianProfile(lo + 0.45 * (hi - lo), width * (hi - lo), -0.3)
    ref = dense_mixed_reference(f, g)
    assert abs(overlap(f, g) - ref) < 1e-14
    assert abs(overlap(g, f) - ref.conjugate()) < 1e-14


def test_mixed_overlap_runs_over_the_intersection_of_supports():
    # a Gaussian 1e-4 of a 16 sigma grid's sigma wide: only the one spline
    # piece it lies in counts, cut to the Gaussian's own support
    g = exact_grid(401, OPTICAL, 8.0, seed=12, phase=0.4)
    lo, hi = g.support()
    f = GaussianProfile(lo + 0.45 * (hi - lo), (hi - lo) / 16e4, -0.3)
    ref = dense_mixed_reference(f, g)
    assert abs(ref) > 1e-3
    assert abs(overlap(f, g) - ref) < 1e-14
    assert abs(overlap(g, f) - ref.conjugate()) < 1e-14


def test_mixed_overlap_of_disjoint_supports_is_zero():
    # 1e5 sigma apart: no spline piece counts, however wide the gap
    g = sampled_gaussian(W0, SIG, n=401)
    f = GaussianProfile(W0 + 1e5 * SIG, SIG)
    assert overlap(f, g) == 0j
    assert overlap(g, f) == 0j


def mixed_reference(f, g):
    """``<f, g>`` of a Gaussian and a grid at 60 digits: the Gaussian times a
    scipy spline refitted to the grid's public samples, integrated over every
    piece in closed form.  The grid's nodes and the carrier must be exact
    offsets from the first node, as on :func:`exact_grid` near ``OPTICAL``."""
    origin = g.omega_rad_s[0]
    mu = f.omega0_rad_s - origin
    assert math.fsum([f.omega0_rad_s, -origin, -mu]) == 0.0
    s = CubicSpline(g.omega_rad_s - origin, g.amplitude)
    val = hp.gaussian_spline_overlap(mu, f.sigma_rad_s, s.x, s.c)
    return complex(val * hp.mp.expj(hp.mp.mpf(g.phase_rad) - hp.mp.mpf(f.phase_rad)))


def piece_kinds(f, g):
    """Which closed form each spline piece inside the Gaussian's +-12 sigma
    takes: the series on short pieces, ``(1 + |a|) h < 1``, else the
    recursion from erfc on one side of the carrier or from erf across it."""
    x = (g.omega_rad_s - f.omega0_rad_s) / f.sigma_rad_s
    a, b = x[:-1], x[1:]
    inside = (b > -12.0) & (a < 12.0)
    a, b = np.maximum(a[inside], -12.0), np.minimum(b[inside], 12.0)
    short = (1.0 + np.abs(a)) * (b - a) < 1.0
    kinds = np.where(short, "series", np.where(a >= 0.0, "right", np.where(b <= 0.0, "left", "across")))
    return set(kinds.tolist()), int(inside.sum()), float(np.abs(a).max(initial=0.0))


def mixed_case(name):
    """A Gaussian and a grid for one closed-form route of the mixed overlap."""
    if name.startswith("tail"):
        # the grid spans 9 to 12 sigma on one side of the carrier, in long pieces
        g = exact_grid(20, OPTICAL, 8.0, seed=13, phase=0.4)
        lo, hi = g.support()
        sigma = (hi - lo) / 3.0
        w0 = lo - 9.0 * sigma if name == "tail-right" else hi + 9.0 * sigma
        return GaussianProfile(w0, sigma, -0.3), g
    n, width = {"erf-and-both-erfc": (100, 0.01), "series-and-recursion": (100, 0.05),
                "narrower-than-a-piece": (401, 1.0 / 16e4)}[name]
    g = exact_grid(n, OPTICAL, 8.0, seed=11, phase=0.4)
    lo, hi = g.support()
    return GaussianProfile(lo + 0.45 * (hi - lo), width * (hi - lo), -0.3), g


@pytest.mark.parametrize(
    "name, kinds",
    [
        ("erf-and-both-erfc", {"left", "across", "right"}),
        ("series-and-recursion", {"series", "left", "right"}),
        ("narrower-than-a-piece", {"across"}),
        ("tail-right", {"right"}),
        ("tail-left", {"left"}),
    ],
)
def test_mixed_overlap_against_sixty_digit_reference(name, kinds):
    f, g = mixed_case(name)
    found, pieces, reach = piece_kinds(f, g)
    assert kinds <= found
    if name == "narrower-than-a-piece":
        assert pieces == 1
    ref = mixed_reference(f, g)
    # relative to |ref|, which is below 1 as both profiles have unit norm;
    # on long pieces 9 to 12 sigma out, where |ref| is near 2e-22, the
    # recursion keeps its absolute error, near 1e-31, but not its relative one
    bound = 1e-14 * abs(ref)
    if name.startswith("tail"):
        assert reach > 11.5 and abs(ref) < 1e-20
        bound = 1e-8 * abs(ref)
    assert abs(overlap(f, g) - ref) <= bound
    assert abs(overlap(g, f) - ref.conjugate()) <= bound


@pytest.mark.parametrize("other", [object(), None, 1.0], ids=["object", "None", "float"])
def test_overlap_refuses_unsupported_profiles(other):
    name = type(other).__name__
    for profile in (GaussianProfile(W0, SIG), sampled_gaussian(W0, SIG, n=64)):
        with pytest.raises(DomainError, match=f"unsupported profile type '{name}'"):
            overlap(profile, other)
        with pytest.raises(DomainError, match=f"unsupported profile type '{name}'"):
            overlap(other, profile)


def test_grid_matches_analytic_gaussian():
    g = sampled_gaussian(W0, SIG, n=1201)
    f = GaussianProfile(W0, SIG)
    assert abs(overlap(f, g) - 1.0) < 1e-7  # limited by spline interpolation
    chi = 1.0000002
    ov_grid = overlap(sampled_gaussian(W0, SIG, n=1201), redshift_transform(g, chi))
    ov_ana = overlap(f, redshift_transform(f, chi))
    assert abs(ov_grid - ov_ana) < 1e-6


def test_grid_profile_validation():
    w = np.linspace(1e3, 2e3, 8)
    amp = np.ones(8)
    SampledGridProfile.from_samples(w, amp)
    with pytest.raises(DomainError, match=">= 4 nodes"):
        SampledGridProfile.from_samples(w[:3], amp[:3])
    with pytest.raises(DomainError, match="match the frequency grid"):
        SampledGridProfile.from_samples(w, amp[:5])
    with pytest.raises(DomainError, match="increasing"):
        SampledGridProfile.from_samples(w[::-1], amp)
    with pytest.raises(DomainError, match="non-negative"):
        SampledGridProfile.from_samples(w - 5e3, amp)
    with pytest.raises(DomainError):
        SampledGridProfile.from_samples(w, np.full(8, np.nan))


def test_from_samples_normalizes_samples_of_any_finite_scale():
    # the rough norm squares the samples: scaled first by a power of two,
    # they neither overflow nor underflow there, at no cost in digits
    w = exact_grid(200, OPTICAL, 8.0, seed=14).omega_rad_s
    amp = np.exp(-0.5 * np.linspace(-4.0, 4.0, 200) ** 2 + 0.3j * np.linspace(-4.0, 4.0, 200))
    g = SampledGridProfile.from_samples(w, amp)
    t = np.random.default_rng(15).uniform(w[0], w[-1], 500)
    for scale in (2.0**600, 2.0**-600, 2.0**1000, 2.0**-1000):
        out = SampledGridProfile.from_samples(w, amp * scale)
        assert np.array_equal(out.amplitude, g.amplitude)
        assert np.array_equal(out(t), g(t))
    for scale in (1e150, 1e-170):
        out = SampledGridProfile.from_samples(w, amp * scale)
        assert np.max(np.abs(out.amplitude - g.amplitude)) <= 4 * 2.0**-52 * np.max(np.abs(amp))
        assert abs(l2_norm(out) - 1.0) <= 1e-15


def test_grid_profile_rejects_unnormalized_direct_input():
    w = np.linspace(1e3, 2e3, 8)
    with pytest.raises(NormalizationError):
        SampledGridProfile(w, np.ones(8))
    # however far off the norm is, it is a normalization error, not a
    # numerical one
    g = SampledGridProfile.from_samples(
        np.linspace(1e3, 2e3, 200), np.exp(-0.5 * np.linspace(-4.0, 4.0, 200) ** 2)
    )
    for k in (10.0, 300.0, 1e4):
        with pytest.raises(NormalizationError):
            SampledGridProfile(g.omega_rad_s, k * g.amplitude)


def test_mixing_angle_limits():
    f = GaussianProfile(W0, SIG)
    theta, phi = mixing_angle(overlap(f, f))
    assert theta < 2e-5  # acos near 1 is sqrt-sensitive to quadrature noise
    assert phi == 0.0
    far = GaussianProfile(W0 + 40.0 * SIG, SIG)
    theta, _ = mixing_angle(overlap(f, far))
    assert math.isclose(theta, math.pi / 2.0, rel_tol=1e-6)


def test_mixing_angle_matches_overlap():
    # chi pulls the carrier by ~0.9 widths, so the overlap is mid-range
    f = GaussianProfile(W0, SIG)
    g = redshift_transform(f, 1.0000000001)
    theta, _ = mixing_angle(overlap(f, g))
    assert math.isclose(math.cos(theta), abs(overlap(f, g)), rel_tol=1e-9)
    assert 0.2 < math.cos(theta) < 0.95


def test_sharp_commutator_scale():
    rng = np.random.default_rng(17)
    for _ in range(10):
        alpha = complex(rng.normal(), rng.normal())
        if alpha == 0:
            continue
        assert sharp_commutator_scale(alpha) == 1.0 / abs(alpha)
    with pytest.raises(DomainError, match="nonzero"):
        sharp_commutator_scale(0.0)


def photon_roundtrip(block):
    """Send a photon block through JSON text and build it as the CLI does."""
    found = []
    built = cli.build_blocks({"photon": json.loads(json.dumps(block))}, found)
    assert found == []
    return built["photon"]


def test_gaussian_record_roundtrip():
    f = GaussianProfile(W0, SIG, 0.25)
    back = photon_roundtrip(
        {"kind": "gaussian", "omega0_rad_s": f.omega0_rad_s,
         "sigma_rad_s": f.sigma_rad_s, "phase_rad": f.phase_rad}
    )
    assert back.omega0_rad_s == f.omega0_rad_s
    assert back.sigma_rad_s == f.sigma_rad_s
    assert back.phase_rad == f.phase_rad


def test_grid_record_roundtrip():
    g = sampled_gaussian(W0, SIG, n=64)
    back = photon_roundtrip(
        {"kind": "grid", "omega_rad_s": g.omega_rad_s.tolist(),
         "re": g.amplitude.real.tolist(), "im": g.amplitude.imag.tolist()}
    )
    assert np.array_equal(back.omega_rad_s, g.omega_rad_s)
    assert np.array_equal(back.amplitude, g.amplitude)


@given(chi=st.one_of(st.floats(0.999999, 1.000001), st.floats(0.5, 2.0)))
@settings(max_examples=40, deadline=None)
def test_transform_norm_preservation_property(chi):
    out = redshift_transform(GaussianProfile(W0, SIG), chi)
    assert abs(l2_norm(out) - 1.0) < 1e-9


@given(
    chi_squared=st.one_of(st.floats(1.0 - 1e-6, 1.0 + 1e-6), st.floats(0.5, 1.0)),
    phase=st.floats(-3.0, 3.0),
)
@settings(max_examples=40, deadline=None)
def test_rescaled_spline_matches_a_fresh_fit(chi_squared, phase):
    # a grid from zero frequency, so public nodes are the spline's offsets
    g = exact_grid(400, 0.0, 2.0**-20, seed=8, phase=phase)
    chi = math.sqrt(chi_squared)
    c2 = RedshiftFactor(chi).chi_squared
    out = redshift_transform(g, chi)
    fresh = CubicSpline(g.omega_rad_s / c2, g.amplitude * chi)
    lo, hi = out.support()
    t = np.random.default_rng(9).uniform(lo, hi, 1000)
    want = fresh(t) * np.exp(1j * phase)
    assert np.max(np.abs(out(t) - want)) <= 1e-13 * np.max(np.abs(want))


@given(
    shift=st.floats(-3.0, 3.0),
    widen=st.floats(0.5, 2.0),
    phase=st.floats(0.0, 6.2),
)
@settings(max_examples=40, deadline=None)
def test_overlap_magnitude_bounded(shift, widen, phase):
    f = GaussianProfile(W0, SIG)
    g = GaussianProfile(W0 + shift * SIG, widen * SIG, phase)
    assert abs(overlap(f, g)) <= 1.0 + 1e-10
