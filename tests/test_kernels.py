import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roitel import BBox, InvalidParam, iou
from roitel.kernels import as_box_array, backend_name, greedy_associate, greedy_match, pairwise_iou


def test_backend_is_reported():
    assert backend_name() == "python"


def test_as_box_array_shapes():
    out = as_box_array([[0, 0, 1, 1], [2, 2, 3, 3]])
    assert out.shape == (2, 4)
    assert out.dtype == np.float64
    assert out.flags["C_CONTIGUOUS"]
    assert as_box_array([]).shape == (0, 4)


@pytest.mark.parametrize("boxes", [[[0, 0, 1]], [0, 0, 1, 1], [[[0, 0, 1, 1]]]])
def test_as_box_array_refuses_other_shapes(boxes):
    message = f"expected an (N,4) box array, got shape {np.shape(boxes)}"
    with pytest.raises(InvalidParam, match=re.escape(message)):
        as_box_array(boxes)


@st.composite
def box_sets(draw):
    """Two box sets, up to a few hundred boxes each, rich in boundary cases.

    Coordinates sit on a grid, so many boxes coincide or share an edge. The
    second set also gets, for some boxes of the first, an identical copy, a
    neighbour touching its right or bottom edge, and a neighbour just past
    that edge, which is disjoint in one axis while overlapping in the other.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    step = draw(st.sampled_from([0.1, 0.5, 2.5, 7.0]))

    def grid_boxes(n):
        return np.column_stack(
            [rng.integers(0, 120, (n, 2)) * step, rng.integers(1, 25, (n, 2)) * step]
        )

    a = grid_boxes(draw(st.integers(0, 250)))
    b = grid_boxes(draw(st.integers(0, 250)))
    x, y, w, h = a[: draw(st.integers(0, 40))].T
    derived = [
        np.column_stack(cols)
        for cols in (
            (x, y, w, h),
            (x + w, y, w, h),
            (x, y + h, w, h),
            (x + w + step, y + step, w, h),
            (x + step, y + h + step, w, h),
        )
    ]
    b = np.concatenate([b, *derived])
    return a, rng.permutation(b)


@settings(max_examples=40, deadline=None)
@given(box_sets())
def test_pairwise_iou_against_scalar(sets):
    # the scalar domain implementation is an independent oracle: same
    # formula, so the match is exact, clamped identical boxes included
    a, b = sets
    m = pairwise_iou(a, b)
    assert m.shape == (len(a), len(b))
    boxes_b = [BBox(*row) for row in b]
    for i, row in enumerate(a):
        box = BBox(*row)
        assert m[i].tolist() == [iou(box, other) for other in boxes_b], i


@settings(max_examples=40, deadline=None)
@given(box_sets(), st.sampled_from([0.0, 5e-324, 0.1, 1 / 3, 0.5, 1.0]))
def test_greedy_associate_equals_greedy_match_on_the_matrix(sets, min_iou):
    # walking only the admissible pairs gives the dense matrix's matching:
    # grid boxes tie on IoU, and min_iou = 0 admits disjoint pairs
    a, b = sets
    assert greedy_associate(a, b, min_iou) == greedy_match(pairwise_iou(a, b), min_iou)


def exhaustive_greedy(a, b, min_iou):
    """Brute-force greedy on scalar IoU, as in acceptance check C10."""
    boxes_a = [BBox(*row) for row in a]
    boxes_b = [BBox(*row) for row in b]
    pairs = [
        (iou(ba, bb), i, j)
        for i, ba in enumerate(boxes_a)
        for j, bb in enumerate(boxes_b)
    ]
    pairs.sort(key=lambda p: (-p[0], p[1], p[2]))
    used_a, used_b, matches = set(), set(), []
    for v, i, j in pairs:
        if v >= min_iou and i not in used_a and j not in used_b:
            used_a.add(i)
            used_b.add(j)
            matches.append((i, j))
    return matches


@pytest.mark.parametrize("seed", [0, 1])
def test_greedy_associate_matches_exhaustive_greedy_at_scale(seed):
    rng = np.random.default_rng(seed)
    # about 200 tracks against their jittered successors on a coarse grid,
    # so there are many competing overlaps and many exact IoU ties
    a = np.column_stack(
        [rng.integers(0, 60, (200, 2)) * 5.0, rng.integers(2, 12, (200, 2)) * 5.0]
    )
    b = a[rng.permutation(200)[:190]].copy()
    b[:, :2] += rng.integers(-2, 3, (190, 2)) * 2.5
    b = np.concatenate([b, a[:10]])
    for min_iou in (0.0, 0.1, 0.3, 0.7):
        assert greedy_associate(a, b, min_iou) == exhaustive_greedy(a, b, min_iou), min_iou


def test_pairwise_iou_empty():
    empty = np.zeros((0, 4))
    a = np.array([[0.0, 0.0, 1.0, 1.0]])
    assert pairwise_iou(empty, a).shape == (0, 1)
    assert pairwise_iou(a, empty).shape == (1, 0)


def test_greedy_match_order_and_uniqueness():
    m = np.array(
        [
            [0.6, 0.5],
            [0.55, 0.1],
        ]
    )
    # highest IoU first; each row/col used once; 0.1 fails min_iou
    assert greedy_match(m, 0.3) == [(0, 0)] or greedy_match(m, 0.3) == [(0, 0), (1, 1)]
    assert greedy_match(m, 0.3) == [(0, 0)]


def test_greedy_match_tie_breaks_low_row_then_col():
    m = np.array(
        [
            [0.5, 0.5],
            [0.5, 0.5],
        ]
    )
    assert greedy_match(m, 0.1) == [(0, 0), (1, 1)]


def test_greedy_match_inclusive_threshold():
    m = np.array([[0.3]])
    assert greedy_match(m, 0.3) == [(0, 0)]
    assert greedy_match(m, 0.3000001) == []


@settings(max_examples=60)
@given(
    st.lists(
        st.tuples(
            st.floats(0, 100), st.floats(0, 100), st.floats(0.5, 40), st.floats(0.5, 40)
        ),
        max_size=6,
    ),
    st.lists(
        st.tuples(
            st.floats(0, 100), st.floats(0, 100), st.floats(0.5, 40), st.floats(0.5, 40)
        ),
        max_size=6,
    ),
)
def test_greedy_associate_is_one_to_one(boxes_a, boxes_b):
    matches = greedy_associate(boxes_a, boxes_b, 0.2)
    rows = [r for r, _ in matches]
    cols = [c for _, c in matches]
    assert len(set(rows)) == len(rows)
    assert len(set(cols)) == len(cols)
    assert all(0 <= r < len(boxes_a) and 0 <= c < len(boxes_b) for r, c in matches)


def test_greedy_match_rejects_bad_matrix():
    from roitel import InvalidParam

    with pytest.raises(InvalidParam):
        greedy_match(np.zeros((2, 2, 2)), 0.3)
