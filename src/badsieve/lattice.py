"""Exact box queries on 3-D integer lattices.

box_points answers the one lattice question of the package: which points
of the lattice L spanned by the integer rows of a basis B lie in the closed
box lo_j <= x_j <= hi_j? Record enumeration (bestapprox._box) asks it on
the lattice of (m1, m2, A1*m1 + A2*m2 + D*m0), verify's q-scan
(verify._weighted_score) once per block of q on that of
(x, a1*x + D*k1, a2*x + D*k2).

The answer is exact for any basis. A point x = u*B has u = x*adj(B)/det(B),
so over the box each u[i] lies in an interval with centre c*adj(B)[:, i]/det,
c the box's centre, and radius sum_j |adj(B)[j][i]|*(hi_j - lo_j)/(2|det|)
(Cramer's rule); box_points lists that integer parallelepiped and filters
the box exactly. _reduce only keeps it small (as in L^2, Nguyen-Stehle):
it shortens B in the metric in which the box is a cube, and runs only when
the basis given, the previous query's, would list over REDUCE_ABOVE points.
Both work on local ints, the nine entries of B
and, in _reduce, the six distinct entries of its Gram matrix: at desk scale
(168-600-bit entries) most of a query's time is interpreter overhead, not
big-integer arithmetic.
"""

from __future__ import annotations

from .errors import ConfigError
from .rationals import brief_rational

# a listing of LIST_LIMIT points takes about 0.4 GB; a larger one is refused
REDUCE_ABOVE = 64
LIST_LIMIT = 1 << 20


def _reduce(b: list[list[int]], w: tuple[int, int, int]) -> None:
    """Reduce the three independent integer rows b in place on their Gram
    matrix G[i][j] = sum_k b[i][k]*b[j][k]*w[k], weighted by w. A pass sorts
    the rows by norm, then Gauss-reduces row 1 by row 0 or Babai-rounds row 2
    against rows 0 and 1 (Cramer coordinates c/det). The moves depend on G
    alone, so with w the squared column scales they are the moves of the
    column-scaled rows under unit weights. On return norms are sorted, rows
    0, 1 Lagrange-reduced, |2*c[i]| <= det.

    The rows live in nine local ints and G in six (gij, i <= j), updated in
    place by each move; b is written once, on return. The sort is a bubble
    sort of three compare-and-swaps, each on strict <, so rows of equal norm
    keep their order, as under a stable sort."""
    w0, w1, w2 = w
    (x0, x1, x2), (y0, y1, y2), (z0, z1, z2) = b
    u0, u1, u2 = x0 * w0, x1 * w1, x2 * w2
    v0, v1, v2 = y0 * w0, y1 * w1, y2 * w2
    g00 = x0 * u0 + x1 * u1 + x2 * u2
    g11 = y0 * v0 + y1 * v1 + y2 * v2
    g22 = z0 * z0 * w0 + z1 * z1 * w1 + z2 * z2 * w2
    g01 = y0 * u0 + y1 * u1 + y2 * u2
    g02 = z0 * u0 + z1 * u1 + z2 * u2
    g12 = z0 * v0 + z1 * v1 + z2 * v2
    while True:
        if g11 < g00:  # swap rows 0 and 1
            x0, x1, x2, y0, y1, y2 = y0, y1, y2, x0, x1, x2
            g00, g11, g02, g12 = g11, g00, g12, g02
        if g22 < g11:  # swap rows 1 and 2, then 0 and 1 again if need be
            y0, y1, y2, z0, z1, z2 = z0, z1, z2, y0, y1, y2
            g11, g22, g01, g02 = g22, g11, g02, g01
            if g11 < g00:
                x0, x1, x2, y0, y1, y2 = y0, y1, y2, x0, x1, x2
                g00, g11, g02, g12 = g11, g00, g12, g02
        if 2 * abs(g01) > g00:  # row 1 -= q * row 0, q != 0
            q = (2 * g01 + g00) // (2 * g00)
            y0, y1, y2 = y0 - q * x0, y1 - q * x1, y2 - q * x2
            g11 += q * q * g00 - 2 * q * g01
            g01 -= q * g00
            g12 -= q * g02
            continue
        det = g00 * g11 - g01 * g01
        two = 2 * det
        q0 = (2 * (g11 * g02 - g01 * g12) + det) // two
        q1 = (2 * (g00 * g12 - g01 * g02) + det) // two
        if q0:  # row 2 -= q0 * row 0
            z0, z1, z2 = z0 - q0 * x0, z1 - q0 * x1, z2 - q0 * x2
            g22 += q0 * q0 * g00 - 2 * q0 * g02
            g02 -= q0 * g00
            g12 -= q0 * g01
        if q1:  # row 2 -= q1 * row 1
            z0, z1, z2 = z0 - q1 * y0, z1 - q1 * y1, z2 - q1 * y2
            g22 += q1 * q1 * g11 - 2 * q1 * g12
            g02 -= q1 * g01
            g12 -= q1 * g11
        if g22 >= g11:  # else row 2 got shorter and the norm sum fell
            b[:] = [[x0, x1, x2], [y0, y1, y2], [z0, z1, z2]]
            return


def box_points(
    b: list[list[int]], box: tuple[tuple[int, int], tuple[int, int], tuple[int, int]]
) -> tuple[list[tuple[int, int, int]], int]:
    """Every point of the lattice spanned by the rows of b in the closed box
    ((lo_0, hi_0), (lo_1, hi_1), (lo_2, hi_2)), each once, and the number of
    parallelepiped points listed to find them. Twice the centre keeps the
    bounds integral: with r = sum_j |adj[j][i]|*(hi_j - lo_j) and
    n = sign(det)*sum_j adj[j][i]*(lo_j + hi_j), u[i] runs over
    [-((r - n) // 2|det|), (r + n) // 2|det|]. b is reduced in place when
    its listing would pass REDUCE_ABOVE points, the caller's warm start for
    its next query, on the cube metric's weights ((w1*w2)^2, (w0*w2)^2,
    (w0*w1)^2), w_j = max(hi_j - lo_j, 1), over their common power of two
    2^t, t = 2*(t0 + t1 + t2 - max t_j), t_j the trailing zero bits of w_j:
    _reduce's moves do not change when G is scaled. A listing still over
    LIST_LIMIT points raises ConfigError."""
    (l0, h0), (l1, h1), (l2, h2) = box
    d0, d1, d2 = h0 - l0, h1 - l1, h2 - l2
    e0, e1, e2 = l0 + h0, l1 + h1, l2 + h2
    for reduced in (False, True):  # bound b's parallelepiped; if too large, reduce b
        (a0, a1, a2), (b0, b1, b2), (c0, c1, c2) = b
        # the columns of adj(b): (b x c, c x a, a x b)
        x0, x1, x2 = b1 * c2 - b2 * c1, b2 * c0 - b0 * c2, b0 * c1 - b1 * c0
        y0, y1, y2 = c1 * a2 - c2 * a1, c2 * a0 - c0 * a2, c0 * a1 - c1 * a0
        z0, z1, z2 = a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0
        det = a0 * x0 + a1 * x1 + a2 * x2
        nx = x0 * e0 + x1 * e1 + x2 * e2
        ny = y0 * e0 + y1 * e1 + y2 * e2
        nz = z0 * e0 + z1 * e1 + z2 * e2
        if det < 0:
            det, nx, ny, nz = -det, -nx, -ny, -nz
        two = 2 * det
        r = abs(x0) * d0 + abs(x1) * d1 + abs(x2) * d2
        lx, ux = -((r - nx) // two), (r + nx) // two
        r = abs(y0) * d0 + abs(y1) * d1 + abs(y2) * d2
        ly, uy = -((r - ny) // two), (r + ny) // two
        r = abs(z0) * d0 + abs(z1) * d1 + abs(z2) * d2
        lz, uz = -((r - nz) // two), (r + nz) // two
        n = (ux - lx + 1) * (uy - ly + 1) * (uz - lz + 1)
        if reduced or n <= REDUCE_ABOVE:
            break
        w0, w1, w2 = max(d0, 1), max(d1, 1), max(d2, 1)
        t0, t1, t2 = ((w & -w).bit_length() - 1 for w in (w0, w1, w2))
        t = 2 * (t0 + t1 + t2 - max(t0, t1, t2))
        _reduce(b, ((w1 * w2) ** 2 >> t, (w0 * w2) ** 2 >> t, (w0 * w1) ** 2 >> t))
    if n > LIST_LIMIT:
        raise ConfigError(f"box query would list {brief_rational(n)} points, over 2^20")
    out = []
    for k2 in range(lz, uz + 1):
        for k1 in range(ly, uy + 1):
            p0, p1, p2 = k1 * b0 + k2 * c0, k1 * b1 + k2 * c1, k1 * b2 + k2 * c2
            for k0 in range(lx, ux + 1):
                v0, v1, v2 = p0 + k0 * a0, p1 + k0 * a1, p2 + k0 * a2
                if l0 <= v0 <= h0 and l1 <= v1 <= h1 and l2 <= v2 <= h2:
                    out.append((v0, v1, v2))
    return out, n
