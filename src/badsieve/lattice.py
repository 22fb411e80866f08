"""Exact box queries on 3-D integer lattices.

box_points answers the one lattice question of the package: which points
of the lattice L spanned by the integer rows of a basis B lie in the closed
box lo_j <= x_j <= hi_j? Record enumeration (bestapprox._box) asks it on
the lattice of (m1, m2, A1*m1 + A2*m2 + D*m0), verify's q-scan
(modmin.weighted_min_scan) once per block of q on that of
(x, a1*x + D*k1, a2*x + D*k2).

The answer is exact for any basis. A point x = u*B has u = x*adj(B)/det(B),
so over the box each u[i] lies in an interval with centre c*adj(B)[:, i]/det,
c the box's centre, and radius sum_j |adj(B)[j][i]|*(hi_j - lo_j)/(2|det|)
(Cramer's rule); box_points lists that integer parallelepiped and filters
the box exactly. _reduce only keeps it small: it shortens B in the metric
in which the box is a cube.
"""

from __future__ import annotations


def _reduce(b: list[list[int]], w: tuple[int, int, int]) -> None:
    """Reduce the three independent integer rows b in place on their Gram
    matrix G[i][j] = sum_k b[i][k]*b[j][k]*w[k], weighted by w. A pass sorts
    the rows by norm, then Gauss-reduces row 1 by row 0 or Babai-rounds row 2
    against rows 0 and 1 (Cramer coordinates c/det). The moves depend on G
    alone, so with w the squared column scales they are the moves of the
    column-scaled rows under unit weights. On return norms are sorted, rows
    0, 1 Lagrange-reduced, |2*c[i]| <= det."""
    w0, w1, w2 = w
    G = [[0] * 3 for _ in range(3)]
    for i, j in (0, 0), (1, 0), (1, 1), (2, 0), (2, 1), (2, 2):
        (x0, x1, x2), (y0, y1, y2) = b[i], b[j]
        G[i][j] = G[j][i] = x0 * y0 * w0 + x1 * y1 * w1 + x2 * y2 * w2

    def sub(i: int, j: int, q: int) -> None:  # row i -= q * row j
        if q:
            (x0, x1, x2), (y0, y1, y2) = b[i], b[j]
            b[i] = [x0 - q * y0, x1 - q * y1, x2 - q * y2]
            Gi, Gj = G[i], G[j]
            Gi[i] += q * q * Gj[j] - 2 * q * Gi[j]
            for k in 0, 3 - i:  # the other two rows; i is 1 or 2
                Gi[k] = G[k][i] = Gi[k] - q * Gj[k]

    while True:
        order = sorted(range(3), key=lambda i: G[i][i])
        if order != [0, 1, 2]:
            b[:] = [b[i] for i in order]
            G[:] = [[G[i][j] for j in order] for i in order]
        if 2 * abs(G[1][0]) > G[0][0]:
            sub(1, 0, (2 * G[1][0] + G[0][0]) // (2 * G[0][0]))
            continue
        det = G[0][0] * G[1][1] - G[0][1] ** 2
        c0 = G[1][1] * G[2][0] - G[0][1] * G[2][1]
        c1 = G[0][0] * G[2][1] - G[0][1] * G[2][0]
        sub(2, 0, (2 * c0 + det) // (2 * det))
        sub(2, 1, (2 * c1 + det) // (2 * det))
        if G[2][2] >= G[1][1]:  # else row 2 got shorter and the norm sum fell
            return


def box_points(
    b: list[list[int]], box: tuple[tuple[int, int], tuple[int, int], tuple[int, int]]
) -> tuple[list[tuple[int, int, int]], int]:
    """Every point of the lattice spanned by the rows of b in the closed box
    ((lo_0, hi_0), (lo_1, hi_1), (lo_2, hi_2)), each once, and the number of
    parallelepiped points listed to find them. b is reduced in place, the
    caller's warm start for its next query, on the cube metric's weights
    ((w1*w2)^2, (w0*w2)^2, (w0*w1)^2), w_j = max(hi_j - lo_j, 1). Twice the
    centre keeps the bounds integral: with r = sum_j |adj[j][i]|*(hi_j - lo_j)
    and n = sign(det)*sum_j adj[j][i]*(lo_j + hi_j), u[i] runs over
    [-((r - n) // 2|det|), (r + n) // 2|det|]."""
    (l0, h0), (l1, h1), (l2, h2) = box
    d0, d1, d2 = h0 - l0, h1 - l1, h2 - l2
    w0, w1, w2 = max(d0, 1), max(d1, 1), max(d2, 1)
    _reduce(b, ((w1 * w2) ** 2, (w0 * w2) ** 2, (w0 * w1) ** 2))
    (a0, a1, a2), (b0, b1, b2), (c0, c1, c2) = b
    # the columns of adj(b): (b x c, c x a, a x b)
    x0, x1, x2 = b1 * c2 - b2 * c1, b2 * c0 - b0 * c2, b0 * c1 - b1 * c0
    y0, y1, y2 = c1 * a2 - c2 * a1, c2 * a0 - c0 * a2, c0 * a1 - c1 * a0
    z0, z1, z2 = a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0
    det = a0 * x0 + a1 * x1 + a2 * x2
    e0, e1, e2 = l0 + h0, l1 + h1, l2 + h2
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
    out = []
    for k2 in range(lz, uz + 1):
        for k1 in range(ly, uy + 1):
            p0, p1, p2 = k1 * b0 + k2 * c0, k1 * b1 + k2 * c1, k1 * b2 + k2 * c2
            for k0 in range(lx, ux + 1):
                v0, v1, v2 = p0 + k0 * a0, p1 + k0 * a1, p2 + k0 * a2
                if l0 <= v0 <= h0 and l1 <= v1 <= h1 and l2 <= v2 <= h2:
                    out.append((v0, v1, v2))
    return out, (ux - lx + 1) * (uy - ly + 1) * (uz - lz + 1)
