"""The numpy spline against scipy's CubicSpline and 60-digit integrals."""

import numpy as np
import pytest
from scipy.interpolate import CubicSpline

import highprec as hp
from graviphoton import spline


def random_nodes(rng, n):
    """Jittered nodes: spacings drawn from [0.5, 1.5]."""
    return rng.uniform(-5.0, 5.0) + np.cumsum(rng.uniform(0.5, 1.5, n))


def random_values(rng, n):
    return rng.normal(size=n) + 1j * rng.normal(size=n)


# interior systems of n - 2 unknowns at 2^k - 1, 2^k and 2^k + 1 for the
# reduction, plus the sizes tabulated photons reach
@pytest.mark.parametrize("n", [4, 5, 6, 7, 8, 9, 100, 1000, 10000])
def test_not_a_knot_matches_scipy(n):
    rng = np.random.default_rng(n)
    for _ in range(3):
        x, y = random_nodes(rng, n), random_values(rng, n)
        got, want = spline.not_a_knot(x, y), CubicSpline(x, y).c
        assert got.shape == want.shape == (4, n - 1)
        # each term c[m, i] (t - x[i])^(3 - m) over its piece, against the data
        reach = np.diff(x) ** np.arange(3.0, -1.0, -1.0)[:, None]
        assert np.max(np.abs(got - want) * reach) <= 1e-14 * np.max(np.abs(y))


def test_evaluate_at_nodes_ends_outside_and_nan():
    rng = np.random.default_rng(1)
    x, y = random_nodes(rng, 12), random_values(rng, 12)
    c = spline.not_a_knot(x, y)
    # interpolation at every node, both ends included
    assert np.max(np.abs(spline.evaluate(x, c, x) - y)) <= 1e-14 * np.max(np.abs(y))
    t = rng.uniform(x[0], x[-1], 500)
    want = CubicSpline(x, y)(t)
    assert np.max(np.abs(spline.evaluate(x, c, t) - want)) <= 1e-14 * np.max(np.abs(want))
    piece = np.searchsorted(x[1:-1], t, side="right")
    assert np.array_equal(spline.evaluate(x, c, t, piece), spline.evaluate(x, c, t))
    off = np.array([x[0] - 1e-9, x[-1] + 1e-9, -np.inf, np.inf, np.nan])
    assert np.array_equal(spline.evaluate(x, c, off), np.zeros(5, dtype=complex))
    assert spline.evaluate(x, c, np.nan) == 0.0


@pytest.mark.parametrize("shift", [0.0, 7.3, -11.9])
def test_overlap_matches_sixty_digit_integral(shift):
    rng = np.random.default_rng(2)
    xa, xb = random_nodes(rng, 30), random_nodes(rng, 25) + shift
    ca = spline.not_a_knot(xa, random_values(rng, 30))
    cb = spline.not_a_knot(xb, random_values(rng, 25))
    norm_a = complex(hp.piecewise_cubic_overlap(xa, ca, xa, ca)).real
    norm_b = complex(hp.piecewise_cubic_overlap(xb, cb, xb, cb)).real
    want = complex(hp.piecewise_cubic_overlap(xa, ca, xb, cb))
    # relative to the Cauchy-Schwarz bound sqrt(<a, a><b, b>)
    assert abs(spline.overlap(xa, ca, xb, cb) - want) <= 1e-14 * np.sqrt(norm_a * norm_b)
    assert abs(spline.overlap(xa, ca, xa, ca) - norm_a) <= 1e-14 * norm_a


def test_overlap_of_disjoint_supports_is_zero():
    rng = np.random.default_rng(3)
    xa = random_nodes(rng, 10)
    xb = xa[-1] + np.cumsum(rng.uniform(0.1, 1.0, 8))  # touches at one point only
    ca = spline.not_a_knot(xa, random_values(rng, 10))
    cb = spline.not_a_knot(xb, random_values(rng, 8))
    assert spline.overlap(xa, ca, xb, cb) == 0.0
    assert spline.overlap(xb, cb, xa + 100.0, ca) == 0.0
