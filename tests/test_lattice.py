from hypothesis import given, settings, strategies as st

from badsieve.lattice import _reduce, coset_points


def _naive_coset_box(a1, a2, D, t, half):
    """Every (x, y1, y2) with |x| <= h, yi = ti + ai*x (mod D) and
    |yi| <= si, found by walking x and each congruence class."""
    h, s1, s2 = half
    out = []
    for x in range(-h, h + 1):
        ys = []
        for ti, ai, si in (t[1], a1, s1), (t[2], a2, s2):
            y = -si + (ti + ai * x + si) % D  # least y >= -si in the class
            ys.append(range(y, si + 1, D))
        out.extend((x, y1, y2) for y1 in ys[0] for y2 in ys[1])
    return sorted(out)


def _det3(b):
    (a, b_, c), (d, e, f), (g, h, i) = b
    return a * (e * i - f * h) - b_ * (d * i - f * g) + c * (d * h - e * g)


@settings(max_examples=200, deadline=None)
@given(
    D=st.one_of(st.integers(1, 40), st.integers(1, 10**6), st.integers(1, 10**12)),
    data=st.data(),
    blocks=st.lists(
        st.tuples(
            st.one_of(st.just(0), st.integers(0, 200)),
            st.sampled_from(["zero", "random", "half"]),
            st.sampled_from(["zero", "random", "half"]),
            st.integers(0, 10**12),
            st.integers(0, 10**12),
            st.integers(0, 10**12),
            st.integers(0, 10**12),
        ),
        min_size=1,
        max_size=5,
    ),
)
def test_coset_listing_matches_naive_listing(D, data, blocks):
    # the scan's lattice (x, a1*x + D*k1, a2*x + D*k2), several boxes
    # chained on one warm basis as consecutive blocks use it, each reduced
    # on the scan's weights; with D even, s = D // 2 reaches y = +-D/2
    a1 = data.draw(st.integers(0, D - 1))
    a2 = data.draw(st.integers(0, D - 1))
    basis = [[1, a1, a2], [0, D, 0], [0, 0, D]]
    for h, kind1, kind2, r1, r2, u1, u2 in blocks:
        s1, s2 = ({"zero": 0, "random": r % (D // 2 + 1), "half": D // 2}[k]
                  for k, r in ((kind1, r1), (kind2, r2)))
        t = (0, u1 % D - D // 2, u2 % D - D // 2)
        w1, w2, hw = max(s1, 1), max(s2, 1), max(h, 1)
        _reduce(basis, ((w1 * w2) ** 2, (hw * w2) ** 2, (hw * w1) ** 2))
        points, listed = coset_points(basis, t, (h, s1, s2))
        assert sorted(points) == _naive_coset_box(a1, a2, D, t, (h, s1, s2))
        assert len(points) <= listed
        # the reduced rows still span the lattice, whose covolume is D^2
        assert all((y1 - a1 * x) % D == 0 == (y2 - a2 * x) % D for x, y1, y2 in basis)
        assert abs(_det3(basis)) == D * D
