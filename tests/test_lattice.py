import pytest
from hypothesis import given, settings, strategies as st

from badsieve.lattice import box_points


def _det3(b):
    (a, b_, c), (d, e, f), (g, h, i) = b
    return a * (e * i - f * h) - b_ * (d * i - f * g) + c * (d * h - e * g)


def _class(lo, hi, r, D):
    """The integers in [lo, hi] congruent to r mod D."""
    return range(lo + (r - lo) % D, hi + 1, D)


def _naive(kind, a1, a2, D, box):
    """Every point in box of the enumerator's lattice, the (m1, m2, z) with
    z = a1*m1 + a2*m2 (mod D), or of the scan's, the (x, y1, y2) with
    yi = ai*x (mod D), by walking the box's free coordinates and each
    congruence class."""
    (l0, h0), (l1, h1), (l2, h2) = box
    if kind == "records":
        return sorted(
            (m1, m2, z)
            for m1 in range(l0, h0 + 1)
            for m2 in range(l1, h1 + 1)
            for z in _class(l2, h2, a1 * m1 + a2 * m2, D)
        )
    return sorted(
        (x, y1, y2)
        for x in range(l0, h0 + 1)
        for y1 in _class(l1, h1, a1 * x, D)
        for y2 in _class(l2, h2, a2 * x, D)
    )


def _interval(bound):
    """A closed interval inside [-bound, bound]: any, one of zero width,
    or only 0, so that boxes miss the origin, are flat on any axis, or hold
    only the origin."""
    end = st.integers(-bound, bound)
    return st.one_of(
        st.tuples(end, end).map(sorted).map(tuple),
        end.map(lambda x: (x, x)),
        st.just((0, 0)),
    )


@settings(max_examples=150, deadline=None)
@given(
    kind=st.sampled_from(["records", "scan"]),
    D=st.one_of(st.integers(1, 40), st.integers(1, 10**6), st.integers(1, 10**12)),
    a1=st.integers(0, 10**12),
    a2=st.integers(0, 10**12),
    data=st.data(),
)
def test_box_points_match_naive_listing(kind, D, a1, a2, data):
    # the enumerator's rows [1, 0, a1], [0, 1, a2], [0, 0, D] and the
    # scan's [1, a1, a2], [0, D, 0], [0, 0, D], several boxes chained on one
    # warm basis as consecutive queries use it
    a1, a2 = a1 % D, a2 % D
    if kind == "records":
        basis = [[1, 0, a1], [0, 1, a2], [0, 0, D]]
        free = (200, 12)
    else:
        basis = [[1, a1, a2], [0, D, 0], [0, 0, D]]
        free = (200,)
    bounds = free + (2 * D,) * (3 - len(free))
    boxes = st.lists(st.tuples(*map(_interval, bounds)), min_size=1, max_size=5)
    for box in data.draw(boxes):
        points, listed = box_points(basis, box)
        assert sorted(points) == _naive(kind, a1, a2, D, box)
        assert len(points) <= listed
        # the reduced rows are still points of the lattice and have its
        # covolume, so they still span it
        if kind == "records":
            assert all((z - a1 * m1 - a2 * m2) % D == 0 for m1, m2, z in basis)
            assert abs(_det3(basis)) == D
        else:
            assert all((y1 - a1 * x) % D == 0 == (y2 - a2 * x) % D for x, y1, y2 in basis)
            assert abs(_det3(basis)) == D * D


@pytest.mark.parametrize(
    "basis, box",
    [([[1, 0, 1], [0, 1, 10**6], [0, 0, 10**12 + 39]], ((0, 0), (0, 0), (0, 0))),
     ([[1, 0, 10**7], [0, 1, 10**6], [0, 0, 10**12 + 39]], ((-1, 1), (0, 0), (-10**5, 10**5))),
     ([[1, 3, 10**11], [0, 10**12 + 39, 0], [0, 0, 10**12 + 39]], ((0, 0), (-5, 5), (-5, 5)))],
)
def test_box_holding_only_the_origin(basis, box):
    # boxes symmetric about the origin, flat on some axes, that hold no
    # other lattice point
    points, listed = box_points(basis, box)
    assert points == [(0, 0, 0)] and listed >= 1
