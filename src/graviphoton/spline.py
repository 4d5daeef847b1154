"""Complex cubic splines: not-a-knot fit, evaluation and exact overlaps.

A spline is held as breakpoints ``x`` (length n, strictly increasing) and
coefficients ``c`` of shape (4, n - 1), highest power first, so that on
``[x[i], x[i+1]]`` it equals ``sum_m c[m, i] (t - x[i])^(3 - m)`` (the layout
of scipy's ``PPoly``).  Outside ``[x[0], x[-1]]`` it is zero.  Everything is
vectorized numpy; nothing loops over nodes in Python.
"""

from __future__ import annotations

import functools

from ._lazy import NumpyOnFirstUse

np = NumpyOnFirstUse(globals())


@functools.cache
def _gram():
    """Integrals over [0, 1] of s^(3-j) s^(3-k), for the product of two cubics."""
    return 1.0 / (7.0 - np.arange(4)[:, None] - np.arange(4)[None, :])


def not_a_knot(x, y):
    """Complex coefficients of the not-a-knot cubic interpolant of ``y`` at ``x``.

    Needs n >= 4 nodes.  The unknowns are the slopes at the nodes; the end
    conditions (continuous third derivative at ``x[1]`` and ``x[-2]``, de Boor,
    *A Practical Guide to Splines*, 1978) are folded into the first and last
    interior rows, which leaves a strictly diagonally dominant tridiagonal
    system, solved by cyclic reduction.  The rows are those of scipy's
    ``CubicSpline``.  Real and imaginary parts are carried as two real rows,
    since numpy mixes real and complex operands far slower than two reals.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=complex)
    y = np.stack((y.real, y.imag))
    dx = np.diff(x)
    slope = np.diff(y) / dx
    # interior rows i = 1..n-2, off-diagonals stored negated:
    # dx[i] s[i-1] + 2 (dx[i-1] + dx[i]) s[i] + dx[i-1] s[i+1] = rhs[i]
    lower = -dx[1:]
    diag = 2.0 * (dx[:-1] + dx[1:])
    upper = -dx[:-1]
    rhs = 3.0 * (dx[1:] * slope[:, :-1] + dx[:-1] * slope[:, 1:])
    # end rows: dx[1] s[0] + d0 s[1] = r0 and d1 s[-2] + dx[-2] s[-1] = r1;
    # subtracting them from rows 1 and n-2 removes s[0] and s[-1]
    d0, d1 = x[2] - x[0], x[-1] - x[-3]
    r0 = ((dx[0] + 2.0 * d0) * dx[1] * slope[:, 0] + dx[0] ** 2 * slope[:, 1]) / d0
    r1 = (dx[-1] ** 2 * slope[:, -2] + (2.0 * d1 + dx[-1]) * dx[-2] * slope[:, -1]) / d1
    diag[0] -= d0
    rhs[:, 0] -= r0
    diag[-1] -= d1
    rhs[:, -1] -= r1
    lower[0] = upper[-1] = 0.0
    inner = _cyclic_reduction(lower, diag, upper, rhs)
    s = np.column_stack(
        ((r0 - d0 * inner[:, 0]) / dx[1], inner, (r1 - d1 * inner[:, -1]) / dx[-2])
    )
    t = (s[:, :-1] + s[:, 1:] - 2.0 * slope) / dx
    parts = (t / dx, (slope - s[:, :-1]) / dx - t, s[:, :-1], y[:, :-1])
    c = np.empty((4, dx.size), dtype=complex)
    c.real, c.imag = np.stack(parts, axis=1)
    return c


def _cyclic_reduction(lower, diag, upper, rhs):
    """Solve a diagonally dominant tridiagonal system by odd-even reduction.

    Row i reads ``diag[i] v[i] - lower[i] v[i-1] - upper[i] v[i+1] = rhs[i]``
    (off-diagonals negated), with ``lower[0] = upper[-1] = 0``; ``rhs`` may
    hold several right-hand sides along its leading axis.  Each level adds
    multiples of the even rows to the odd ones, which removes the even
    unknowns, halves the system and keeps it diagonally dominant, so no
    pivoting is needed.
    """
    m = diag.size
    if m == 1:
        return rhs / diag
    if m % 2 == 0:  # append the decoupled row v = 0, so both ends are even
        lower, diag, upper = np.append(lower, 0.0), np.append(diag, 1.0), np.append(upper, 0.0)
        rhs = np.append(rhs, np.zeros(rhs.shape[:-1] + (1,)), axis=-1)
    le, de, ue, re = lower[0::2], diag[0::2], upper[0::2], rhs[..., 0::2]
    f = lower[1::2] / de[:-1]
    g = upper[1::2] / de[1:]
    odd = _cyclic_reduction(
        f * le[:-1],
        diag[1::2] - f * ue[:-1] - g * le[1:],
        g * ue[1:],
        rhs[..., 1::2] + f * re[..., :-1] + g * re[..., 1:],
    )
    # each even row between its odd neighbours, zero beyond both ends
    pad = np.zeros(odd.shape[:-1] + (1,))
    around = np.concatenate((pad, odd, pad), axis=-1)
    v = np.empty(rhs.shape)
    v[..., 1::2] = odd
    v[..., 0::2] = (re + le * around[..., :-1] + ue * around[..., 1:]) / de
    return v[..., :m]


def evaluate(x, c, t, piece=None):
    """Spline values at ``t``: zero outside ``[x[0], x[-1]]`` and at NaN.

    ``piece`` (broadcastable to ``t``) names the piece each point lies in,
    as ``np.searchsorted(x[1:-1], t, side="right")`` would; a caller that
    knows it for a whole block of points saves the search per point.
    """
    t = np.asarray(t, dtype=float)
    s = np.atleast_1d(t)
    if piece is None:
        piece = np.searchsorted(x[1:-1], s, side="right")
    outside = ~((s >= x[0]) & (s <= x[-1]))
    # updated in place: every fresh array of the size of t costs as much
    # as a pass of Horner's rule
    dt = s - x[piece]
    dt[outside] = 0.0
    cp = c[:, piece]
    v = cp[0] * dt
    for k in (1, 2):
        v += cp[k]
        v *= dt
    v += cp[3]
    v[outside] = 0.0
    return v.reshape(t.shape)


def overlap(xa, ca, xb, cb):
    """Exact ``integral conj(A(t)) B(t) dt`` of two splines.

    Between consecutive breakpoints of both splines, inside the intersection
    of their supports, each factor is one cubic.  Its coefficients are
    shifted to the panel's left edge and scaled to the panel width ``w``, and
    the product of the two cubics is integrated term by term,
    ``w conj(a)^T G b`` with ``G[j, k] = 1/(7 - j - k)``.  Disjoint supports
    give 0.  Passing the same arrays twice (a norm) computes one factor.
    """
    lo, hi = max(xa[0], xb[0]), min(xa[-1], xb[-1])
    if not lo < hi:
        return 0j
    edges = xa if xb is xa else np.union1d(xa, xb)
    edges = np.concatenate(([lo], edges[(edges > lo) & (edges < hi)], [hi]))
    width = np.diff(edges)
    a = _panel_cubics(xa, ca, edges[:-1], width)
    b = a if (xb is xa and cb is ca) else _panel_cubics(xb, cb, edges[:-1], width)
    return complex(np.sum(width * np.sum(np.conj(a) * (_gram() @ b), axis=0)))


def _panel_cubics(x, c, left, width):
    """Coefficients, highest power first, in ``(t - left)/width`` per panel."""
    i = np.searchsorted(x[1:-1], left, side="right")
    h = left - x[i]
    out = c[:, i]
    for k in range(3):  # Taylor shift to the left edge by synthetic division
        for j in range(1, 4 - k):
            out[j] += h * out[j - 1]
    out[0] *= width**3
    out[1] *= width**2
    out[2] *= width
    return out
