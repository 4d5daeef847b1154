"""Arbitrary-precision reference values for the closed-form quantities.

Everything here is computed with mpmath at 60 significant digits and written
independently of the package under test: formulas are spelled out from
scratch rather than imported, so agreement is meaningful.
"""

import mpmath as mp

mp.mp.dps = 60

C_LIGHT = mp.mpf("299792458")
G_NEWTON = mp.mpf("6.67430e-11")


def chi_squared_static_static(r_s_m, radius_a_m, radius_b_m):
    """Frequency ratio (receiver over emitter) for two hovering observers."""
    r_s = mp.mpf(r_s_m)
    fa = 1 - r_s / mp.mpf(radius_a_m)
    fb = 1 - r_s / mp.mpf(radius_b_m)
    return mp.sqrt(fa) / mp.sqrt(fb)


def chi_squared_static_orbit(r_s_m, radius_a_m, radius_b_m):
    """Hovering emitter, circularly orbiting receiver."""
    r_s = mp.mpf(r_s_m)
    fa = 1 - r_s / mp.mpf(radius_a_m)
    fb = 1 - mp.mpf(3) / 2 * r_s / mp.mpf(radius_b_m)
    return mp.sqrt(fa) / mp.sqrt(fb)


def gravitational_parameter(r_s_m):
    return mp.mpf(r_s_m) * C_LIGHT**2 / 2


def hover_acceleration(r_s_m, radius_m):
    return gravitational_parameter(r_s_m) / mp.mpf(radius_m) ** 2


def orbit_angular_velocity(r_s_m, radius_m):
    return mp.sqrt(gravitational_parameter(r_s_m) / mp.mpf(radius_m) ** 3)


def gaussian_overlap(omega1, sigma1, omega2, sigma2):
    """Inner product of two normalized real Gaussian amplitudes.

    Both are (pi s^2)^(-1/4) exp(-(w - w0)^2 / (2 s^2)); the negative
    frequency tail is ignored, which is exact to far below working precision
    whenever the carriers sit many widths above zero.
    """
    s1, s2 = mp.mpf(sigma1), mp.mpf(sigma2)
    d = mp.mpf(omega1) - mp.mpf(omega2)
    return mp.sqrt(2 * s1 * s2 / (s1**2 + s2**2)) * mp.exp(
        -(d**2) / (2 * (s1**2 + s2**2))
    )


def as_float(x):
    return float(x)


def not_a_knot(x, y):
    """Not-a-knot cubic spline coefficients at the working precision.

    Returns rows ``c[m][i]``, highest power first, in the layout of scipy's
    ``PPoly``.  The slopes ``s`` at the nodes solve de Boor's n rows, the
    rows of scipy's ``CubicSpline``: interior rows ``dx[i] s[i-1] + 2 (dx[i-1]
    + dx[i]) s[i] + dx[i-1] s[i+1] = 3 (dx[i] m[i-1] + dx[i-1] m[i])`` with
    secant slopes ``m``, and the two not-a-knot rows at the ends.  The system
    is tridiagonal and is eliminated in order, without pivoting, which at 60
    digits leaves far more correct digits than a double holds.  Float inputs
    are taken as exact binary values.
    """
    xs = [mp.mpf(float(v)) for v in x]
    ys = [mp.mpc(complex(v)) for v in y]
    n = len(xs)
    dx = [xs[i + 1] - xs[i] for i in range(n - 1)]
    m = [(ys[i + 1] - ys[i]) / dx[i] for i in range(n - 1)]
    d0, d1 = xs[2] - xs[0], xs[-1] - xs[-3]
    # row i: sub[i] s[i-1] + diag[i] s[i] + sup[i] s[i+1] = rhs[i]
    sub = [mp.mpf(0)] + dx[1:] + [d1]
    diag = [dx[1]] + [2 * (dx[i - 1] + dx[i]) for i in range(1, n - 1)] + [dx[-2]]
    sup = [d0] + dx[:-1] + [mp.mpf(0)]
    rhs = (
        [((dx[0] + 2 * d0) * dx[1] * m[0] + dx[0] ** 2 * m[1]) / d0]
        + [3 * (dx[i] * m[i - 1] + dx[i - 1] * m[i]) for i in range(1, n - 1)]
        + [(dx[-1] ** 2 * m[-2] + (2 * d1 + dx[-1]) * dx[-2] * m[-1]) / d1]
    )
    for i in range(1, n):
        w = sub[i] / diag[i - 1]
        diag[i] -= w * sup[i - 1]
        rhs[i] -= w * rhs[i - 1]
    s = [mp.mpc(0)] * n
    s[-1] = rhs[-1] / diag[-1]
    for i in range(n - 2, -1, -1):
        s[i] = (rhs[i] - sup[i] * s[i + 1]) / diag[i]
    t = [(s[i] + s[i + 1] - 2 * m[i]) / dx[i] for i in range(n - 1)]
    return [
        [t[i] / dx[i] for i in range(n - 1)],
        [(m[i] - s[i]) / dx[i] - t[i] for i in range(n - 1)],
        s[:-1],
        ys[:-1],
    ]


def _shifted_cubic(coeffs, d):
    """Ascending coefficients in ``s`` of ``sum_m c_m (s + d)^(3 - m)``."""
    out = [mp.mpc(0)] * 4
    for m, c in enumerate(coeffs):
        p = 3 - m
        for j in range(p + 1):
            out[j] += c * mp.binomial(p, j) * d ** (p - j)
    return out


def piecewise_cubic_overlap(xa, ca, xb, cb):
    """Exact ``integral conj(A(t)) B(t) dt`` of two piecewise cubics.

    Each function is given in the layout of a scipy ``PPoly``: increasing
    breakpoints ``x`` (length n) and coefficients ``c`` of shape (4, n - 1),
    so that ``A(t) = sum_m c[m, i] (t - x[i])^(3 - m)`` on ``[x[i], x[i+1]]``,
    and zero outside ``[x[0], x[-1]]``.  Between consecutive breakpoints of
    the union both factors are single cubics, so the product is a degree six
    polynomial, integrated term by term at the working precision.  Float
    inputs are taken as exact binary values.
    """
    import bisect

    def pieces(x, c):
        xs = [mp.mpf(float(v)) for v in x]
        cs = [[mp.mpc(complex(c[m, i])) for m in range(4)] for i in range(len(xs) - 1)]
        return xs, cs

    def local(xs, cs, left):
        i = bisect.bisect_right(xs, left) - 1
        if i < 0 or i >= len(cs):
            return None
        return _shifted_cubic(cs[i], left - xs[i])

    xa, ca = pieces(xa, ca)
    xb, cb = pieces(xb, cb)
    edges = sorted(set(xa) | set(xb))
    total = mp.mpc(0)
    for left, right in zip(edges[:-1], edges[1:]):
        pa, pb = local(xa, ca, left), local(xb, cb, left)
        if pa is None or pb is None:
            continue
        h = right - left
        for j, u in enumerate(pa):
            for k, v in enumerate(pb):
                total += mp.conj(u) * v * h ** (j + k + 1) / (j + k + 1)
    return total


def gaussian_spline_overlap(omega0, sigma, x, c):
    """``integral g(t) S(t) dt`` of a piecewise cubic ``S`` and the unit-norm
    Gaussian ``g(t) = (pi sigma^2)^(-1/4) exp(-(t - omega0)^2 / (2 sigma^2))``.

    ``x`` and ``c`` are in the layout of a scipy ``PPoly``, as in
    :func:`piecewise_cubic_overlap`, and every piece counts, however far out
    in the Gaussian's tail.  Each piece is expanded about the Gaussian's peak:
    with ``u = (t - omega0)/sigma`` and ``a = (x[i] - omega0)/sigma``,
    ``(t - x[i])^p = sigma^p (u - a)^p`` expands in powers of ``u``, and the
    moments ``M_l = integral u^l exp(-u^2/2) du`` over the piece follow from
    ``M_0`` in error functions and ``M_(l+1) = l M_(l-1) - [u^l exp(-u^2/2)]``.
    Float inputs are taken as exact binary values.
    """
    mu, sg = mp.mpf(float(omega0)), mp.mpf(float(sigma))
    xs = [mp.mpf(float(v)) for v in x]
    total = mp.mpc(0)
    for i in range(len(xs) - 1):
        a, b = (xs[i] - mu) / sg, (xs[i + 1] - mu) / sg
        ends = [mp.exp(-(a**2) / 2), mp.exp(-(b**2) / 2)]
        moments = [mp.sqrt(mp.pi / 2) * (mp.erf(b / mp.sqrt(2)) - mp.erf(a / mp.sqrt(2)))]
        for l in range(3):
            prev = l * moments[l - 1] if l else 0
            moments.append(prev + a**l * ends[0] - b**l * ends[1])
        for m in range(4):
            p = 3 - m
            cm = mp.mpc(complex(c[m, i]))
            for l in range(p + 1):
                total += cm * sg ** (p + 1) * mp.binomial(p, l) * (-a) ** (p - l) * moments[l]
    return total / mp.root(mp.pi * sg**2, 4)
