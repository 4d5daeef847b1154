"""Complex cubic splines: not-a-knot fit, evaluation and exact overlaps.

A spline is held as breakpoints ``x`` (length n, strictly increasing) and
coefficients ``c`` of shape (4, n - 1), highest power first, so that on
``[x[i], x[i+1]]`` it equals ``sum_m c[m, i] (t - x[i])^(3 - m)`` (the layout
of scipy's ``PPoly``).  Outside ``[x[0], x[-1]]`` it is zero.  Everything is
vectorized numpy.  The fit works in place in its output and stops reducing
once the rows decouple.  An overlap merges the two node lists once and walks
the panels in blocks of ``_BLOCK``, so a large grid neither spills the cache
nor maps fresh pages for every array it builds.
"""

from __future__ import annotations

import functools

from ._lazy import NumpyOnFirstUse

np = NumpyOnFirstUse(globals())

# (4, 2048) complex blocks are 128 KiB, in L2; of 256 to 8192, 2048 ran fastest or tied
_BLOCK = 2048


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
    ``CubicSpline``.  They carry real and imaginary parts as two real rows,
    since numpy mixes real and complex operands far slower than two reals.
    """
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=complex)
    dx = np.diff(x)
    c = np.empty((4, dx.size), dtype=complex)
    re = c.view(float).reshape(4, dx.size, 2).transpose(0, 2, 1)  # re[m]: c[m] as 2 real rows
    sl, sr, s = c[1], re[1], c[2]  # c[1] holds the secant slopes until the end, c[2] the slopes
    c[3] = y[:-1]
    np.subtract(y[1:], y[:-1], out=sl)
    sr /= dx
    # interior rows i = 1..n-2 as (lower, upper, rhs.real, rhs.imag), off-diagonals
    # negated: dx[i] s[i-1] + 2 (dx[i-1] + dx[i]) s[i] + dx[i-1] s[i+1] = rhs[i]
    rows = np.array([-dx[1:], -dx[:-1], *(3.0 * (sr[:, :-1] * dx[1:] + sr[:, 1:] * dx[:-1]))])
    diag = 2.0 * (dx[:-1] + dx[1:])
    # end rows: dx[1] s[0] + d0 s[1] = r0 and d1 s[-2] + dx[-2] s[-1] = r1;
    # subtracting them from rows 1 and n-2 removes s[0] and s[-1]
    d0, d1 = x[2] - x[0], x[-1] - x[-3]
    r0 = ((dx[0] + 2.0 * d0) * dx[1] * sl[0] + dx[0] ** 2 * sl[1]) / d0
    r1 = (dx[-1] ** 2 * sl[-2] + (2.0 * d1 + dx[-1]) * dx[-2] * sl[-1]) / d1
    diag[[0, -1]] -= d0, d1
    rows[2:, [0, -1]] -= (r0.real, r1.real), (r0.imag, r1.imag)
    rows[0, 0] = rows[1, -1] = 0.0
    _cyclic_reduction(rows, diag)
    re[2, :, 1:] = rows[2:]
    s[0] = (r0 - d0 * s[1]) / dx[1]
    # t = (s[:-1] + s[1:] - 2 sl)/dx; then c[0] = t/dx and c[1] = (sl - s[:-1])/dx - t
    np.add(s[:-1], s[1:], out=c[0, :-1])
    c[0, -1] = s[-1] + (r1 - d1 * s[-1]) / dx[-2]
    c[0] -= 2.0 * sl
    re[0] /= dx
    sl -= s
    sr /= dx
    sl -= c[0]
    re[0] /= dx
    return c


def _cyclic_reduction(rows, diag):
    """Solve a diagonally dominant tridiagonal system by odd-even reduction.

    ``rows`` stacks ``(lower, upper, rhs...)``; row i reads ``diag[i] v[i] -
    lower[i] v[i-1] - upper[i] v[i+1] = rhs[i]`` with ``lower[0] = upper[-1]
    = 0``, and ``v`` overwrites ``rhs``.  Each level adds multiples of the even
    rows to the odd ones, which removes the even unknowns, halves the system
    and keeps it diagonally dominant, so no pivoting is needed.  Off-diagonals
    fall about quadratically per level against the diagonal (Heller, *SIAM J.
    Numer. Anal.* 13, 1976): once below rounding in every row, they are dropped.
    """
    even, odd, de = rows[:, 0::2], rows[:, 1::2], diag[0::2]
    k, q = odd.shape[1], de.size - 1  # the first q odd rows have an even row on their right
    low = even[:, :k] * (odd[0] / de[:k])  # becomes the reduced system
    high = even[:, 1:] * (odd[1, :q] / de[1:])
    dn = diag[1::2] - low[1]
    dn[:q] -= high[0]
    low[1, :q], low[1, q:] = high[1], 0.0
    low[2:] += odd[2:]
    low[2:, :q] += high[2:]
    # a reduced system has no negative off-diagonal
    if k > 1 and ((low[0] + low[1]) / dn).max() > 2.0**-53:
        _cyclic_reduction(low, dn)
    else:
        low[2:] /= dn
    odd[2:] = low[2:]
    even[2:, 1:] += even[0, 1:] * low[2:, :q]
    even[2:, :k] += even[1, :k] * low[2:]
    even[2:] /= de


def evaluate(x, c, t):
    """Spline values at ``t``: zero outside ``[x[0], x[-1]]`` and at NaN."""
    t = np.asarray(t, dtype=float)
    s = np.atleast_1d(t)
    piece = np.searchsorted(x[1:-1], s, side="right")
    outside = ~((s >= x[0]) & (s <= x[-1]))
    # updated in place: every fresh array of the size of t costs as much
    # as a pass of Horner's rule
    dt = s - x[piece]
    dt[outside] = 0.0
    cp = np.take(c, piece, axis=1)  # row-major, unlike c[:, piece]
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
    give 0.  One merge of the node lists finds the panels: each starts at a
    node of one spline, whose cubic needs no shift, and ends at the next node
    of either.  Splines on the same breakpoints (a norm) skip the merge.
    """
    if not max(xa[0], xb[0]) < min(xa[-1], xb[-1]):
        return 0j
    if xb is xa:
        return _panels(xa, ca, 0, xa.size - 1, cb)
    # xb[j] follows kb[j] nodes of A and xa[i] follows ka[i] nodes of B, so a
    # node of both starts a zero-width panel from B, which adds exactly 0
    kb = np.searchsorted(xa, xb)
    ka = np.bincount(kb, minlength=xa.size)[: xa.size].cumsum()
    from_b = _panels(xb, cb, ka[0], min(xb.size - 1, ka[-1]), ca, xa, kb)
    return _panels(xa, ca, kb[0], min(xa.size - 1, kb[-1]), cb, xb, ka) + from_b.conjugate()


def _panels(x, c, first, stop, cy, y=None, k=None):
    """``integral conj(X) Y`` over the panels from ``x[first:stop]`` to the next
    node of X or Y, where Y is the piece at ``y[k - 1]`` (X's nodes if no ``y``)."""
    total = 0j
    for start in range(first, stop, _BLOCK):
        end = min(start + _BLOCK, stop)
        left, right, b = x[start:end], x[start + 1 : end + 1], cy[:, start:end]
        if y is not None:  # Y's pieces, shifted to the left edge by synthetic division
            right = np.minimum(right, y.take(k[start:end]))
            piece = k[start:end] - 1
            h = np.subtract(left, y.take(piece), dtype=complex)
            b = np.take(cy, piece, axis=1)  # row-major, unlike cy[:, piece]
            for j in (1, 2, 3, 1, 2, 1):
                b[j] += h * b[j - 1]
        width = right - left
        # w^4 .. w^0, complex once per block, so no product below casts it again
        scale, w2 = np.empty((5, end - start), dtype=complex), width * width
        scale[0], scale[1], scale[2], scale[3], scale[4] = w2 * w2, w2 * width, w2, width, 1.0
        b = np.multiply(b, scale[1:], out=None if y is None else b)
        # G is real: one real product acts on real and imaginary parts at once
        gb = (_gram() @ b.view(float)).view(complex)
        gb *= scale[:4]  # X's own powers of w, times w
        total += np.vecdot(c[:, start:end], gb).sum()
    return complex(total)
