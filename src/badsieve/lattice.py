"""Exact box queries on 3-D integer lattices.

Both lattice searches of the package ask one question: which points of a
coset t + L, with L spanned by the three integer rows of a basis B, lie in
the box |x_j| <= half_j? The record enumerator (bestapprox._box) asks it
with t = 0 on the lattice of (m1, m2, A1*m1 + A2*m2 + D*m0); verify's
weighted q-scan (modmin.weighted_min_scan) asks it once per block of q on
the lattice of (x, a1*x + D*k1, a2*x + D*k2).

The answer is exact for any basis of L. A point t + u*B has
u = (x - t)*adj(B)/det(B), so over the box each u[i] lies in an interval
whose centre is -t*adj(B)[:, i]/det and whose radius is
sum_j |adj(B)[j][i]|*half_j/|det| (Cramer's rule); listing that integer
parallelepiped and filtering the box exactly finds every point. _reduce
only keeps the parallelepiped small: it shortens B in the metric in which
the box is a cube.
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
            b[i] = [x - q * y for x, y in zip(b[i], b[j])]
            G[i][i] += q * q * G[j][j] - 2 * q * G[i][j]
            for k in {0, 1, 2} - {i}:
                G[i][k] = G[k][i] = G[i][k] - q * G[j][k]

    while True:
        order = sorted(range(3), key=lambda i: G[i][i])
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


def parallelepiped(
    b: list[list[int]], half: tuple[int, int, int], t: tuple[int, int, int] = (0, 0, 0)
) -> tuple[tuple[int, int], tuple[int, int], tuple[int, int]]:
    """The integer ranges (lo_i, hi_i), i = 0, 1, 2, that hold u[i] for every
    point t + u*b in the box |x_j| <= half_j. The column of adj(b) that gives
    u[i] is the cross product of the other two rows. With t = 0 each range
    is symmetric, (-U_i, U_i)."""
    (a0, a1, a2), (b0, b1, b2), (c0, c1, c2) = b
    h0, h1, h2 = half
    t0, t1, t2 = t
    # the columns of adj(b): (b x c, c x a, a x b)
    x0, x1, x2 = b1 * c2 - b2 * c1, b2 * c0 - b0 * c2, b0 * c1 - b1 * c0
    y0, y1, y2 = c1 * a2 - c2 * a1, c2 * a0 - c0 * a2, c0 * a1 - c1 * a0
    z0, z1, z2 = a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0
    det = a0 * x0 + a1 * x1 + a2 * x2
    sign = 1 if det > 0 else -1
    det *= sign
    out = []
    for p0, p1, p2 in (x0, x1, x2), (y0, y1, y2), (z0, z1, z2):
        r = abs(p0) * h0 + abs(p1) * h1 + abs(p2) * h2
        n = -sign * (p0 * t0 + p1 * t1 + p2 * t2)  # det * the interval's centre
        out.append((-((r - n) // det), (r + n) // det))
    return tuple(out)


def coset_points(
    b: list[list[int]], t: tuple[int, int, int], half: tuple[int, int, int]
) -> tuple[list[tuple[int, int, int]], int]:
    """Every point of the coset t + L, L spanned by the rows of b, in the box
    |x_j| <= half_j, each once, and the number of parallelepiped points
    listed to find them."""
    (l0, u0), (l1, u1), (l2, u2) = parallelepiped(b, half, t)
    (a0, a1, a2), (b0, b1, b2), (c0, c1, c2) = b
    h0, h1, h2 = half
    t0, t1, t2 = t
    out = []
    for k2 in range(l2, u2 + 1):
        for k1 in range(l1, u1 + 1):
            p0 = t0 + k1 * b0 + k2 * c0
            p1 = t1 + k1 * b1 + k2 * c1
            p2 = t2 + k1 * b2 + k2 * c2
            for k0 in range(l0, u0 + 1):
                x0, x1, x2 = p0 + k0 * a0, p1 + k0 * a1, p2 + k0 * a2
                if -h0 <= x0 <= h0 and -h1 <= x1 <= h1 and -h2 <= x2 <= h2:
                    out.append((x0, x1, x2))
    listed = max(0, u0 - l0 + 1) * max(0, u1 - l1 + 1) * max(0, u2 - l2 + 1)
    return out, listed
