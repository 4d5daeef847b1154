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


def geometric_nodes(n):
    """Spacings growing by 1% per node."""
    return np.concatenate(([0.0], np.cumsum(1.01 ** np.arange(n - 1))))


def sinh_nodes(n):
    """Nodes clustered at the centre, spacings spread over a factor of 10."""
    return np.sinh(3.0 * np.linspace(-1.0, 1.0, n))


# the reduction runs down to one unknown up to 65 nodes on these grids and
# stops on its decoupling check from 66 on (two unknowns left); grids whose
# spacings alternate 1e-3 and 1, or whose first gap is 1e-6, are left out:
# their fits miss the 60-digit one by up to 5e-10, the parent's fit alike
@pytest.mark.parametrize("n", [64, 65, 66, 67, 100, 1000])
@pytest.mark.parametrize("nodes", [geometric_nodes, sinh_nodes])
def test_not_a_knot_matches_sixty_digit_fit(nodes, n):
    rng = np.random.default_rng(n)
    x, y = nodes(n), random_values(rng, n)
    want = np.array([[complex(v) for v in row] for row in hp.not_a_knot(x, y)])
    reach = np.diff(x) ** np.arange(3.0, -1.0, -1.0)[:, None]
    assert np.max(np.abs(spline.not_a_knot(x, y) - want) * reach) <= 1e-14 * np.max(np.abs(y))


def test_evaluate_at_nodes_ends_outside_and_nan():
    rng = np.random.default_rng(1)
    x, y = random_nodes(rng, 12), random_values(rng, 12)
    c = spline.not_a_knot(x, y)
    # interpolation at every node, both ends included
    assert np.max(np.abs(spline.evaluate(x, c, x) - y)) <= 1e-14 * np.max(np.abs(y))
    t = rng.uniform(x[0], x[-1], 500)
    want = CubicSpline(x, y)(t)
    assert np.max(np.abs(spline.evaluate(x, c, t) - want)) <= 1e-14 * np.max(np.abs(want))
    off = np.array([x[0] - 1e-9, x[-1] + 1e-9, -np.inf, np.inf, np.nan])
    assert np.array_equal(spline.evaluate(x, c, off), np.zeros(5, dtype=complex))
    assert spline.evaluate(x, c, np.nan) == 0.0


# the last pair spans more than one block of panels, its union grid and the
# norm of its first spline alike
@pytest.mark.parametrize(
    "shift, na, nb",
    [(0.0, 30, 25), (7.3, 30, 25), (-11.9, 30, 25), (500.0, 2050, 1100)],
    ids=["0.0", "7.3", "-11.9", "two-blocks"],
)
def test_overlap_matches_sixty_digit_integral(shift, na, nb):
    rng = np.random.default_rng(2)
    xa, xb = random_nodes(rng, na), random_nodes(rng, nb) + shift
    ca = spline.not_a_knot(xa, random_values(rng, na))
    cb = spline.not_a_knot(xb, random_values(rng, nb))
    norm_a = complex(hp.piecewise_cubic_overlap(xa, ca, xa, ca)).real
    norm_b = complex(hp.piecewise_cubic_overlap(xb, cb, xb, cb)).real
    want = complex(hp.piecewise_cubic_overlap(xa, ca, xb, cb))
    # relative to the Cauchy-Schwarz bound sqrt(<a, a><b, b>)
    assert abs(spline.overlap(xa, ca, xb, cb) - want) <= 1e-14 * np.sqrt(norm_a * norm_b)
    assert abs(spline.overlap(xa, ca, xa, ca) - norm_a) <= 1e-14 * norm_a


def test_evaluate_equals_the_column_gather():
    rng = np.random.default_rng(4)
    x, y = random_nodes(rng, 2000), random_values(rng, 2000)
    c = spline.not_a_knot(x, y)
    t = rng.uniform(x[0], x[-1], 22_000)
    piece = np.searchsorted(x[1:-1], t, side="right")
    dt, cp = t - x[piece], c[:, piece]
    want = ((cp[0] * dt + cp[1]) * dt + cp[2]) * dt + cp[3]
    assert np.array_equal(spline.evaluate(x, c, t), want)


def _overlap_case(name, rng):
    """Node lists for the edge cases of the merge of two grids."""
    xa = random_nodes(rng, 40)
    if name == "equal-nodes":
        return xa, xa.copy()  # the same values in another array: every node shared
    if name == "every-third":
        return xa, xa[::3]
    if name == "inside":
        return xa, np.linspace(xa[5] + 0.3, xa[30] - 0.2, 17)
    if name == "touching":
        return xa, xa[-1] + np.cumsum(np.r_[0.0, rng.uniform(0.5, 1.5, 9)])
    # 3000 panels of B in A's first piece: B's panels span two blocks
    xb = random_nodes(rng, 3000)
    return np.r_[xb[0] - 0.5, xb[-1] + 0.25, xb[-1] + 1.0, xb[-1] + 2.0], xb


@pytest.mark.parametrize("name", ["equal-nodes", "every-third", "inside", "touching", "4-3000"])
def test_overlap_edge_cases_match_sixty_digit_integral(name):
    rng = np.random.default_rng(5)
    xa, xb = _overlap_case(name, rng)
    ca = spline.not_a_knot(xa, random_values(rng, xa.size))
    cb = spline.not_a_knot(xb, random_values(rng, xb.size))
    norm_a = complex(hp.piecewise_cubic_overlap(xa, ca, xa, ca)).real
    norm_b = complex(hp.piecewise_cubic_overlap(xb, cb, xb, cb)).real
    want = complex(hp.piecewise_cubic_overlap(xa, ca, xb, cb))
    bound = 1e-14 * np.sqrt(norm_a * norm_b)
    assert abs(spline.overlap(xa, ca, xb, cb) - want) <= bound
    assert abs(spline.overlap(xb, cb, xa, ca) - want.conjugate()) <= bound


def test_overlap_of_disjoint_supports_is_zero():
    rng = np.random.default_rng(3)
    xa = random_nodes(rng, 10)
    xb = xa[-1] + np.cumsum(rng.uniform(0.1, 1.0, 8))  # touches at one point only
    ca = spline.not_a_knot(xa, random_values(rng, 10))
    cb = spline.not_a_knot(xb, random_values(rng, 8))
    assert spline.overlap(xa, ca, xb, cb) == 0.0
    assert spline.overlap(xb, cb, xa + 100.0, ca) == 0.0
