"""Association kernel: greedy one-to-one matching on pairwise IoU.

The tracker associates every processed frame, so on dense streams (hundreds
of boxes per frame) this is the hot loop. ``greedy_associate`` works on 1-D
per-box columns, derived once per call, and evaluates the IoU formula only
for pairs whose x-intervals can overlap and whose height overlap is
positive; every other pair's IoU is exactly 0.0. It builds no IoU matrix.
The suite checks it against greedy matching on the dense matrix of the
(N, 4) pair expression, the scalar IoU and the brute-force greedy of
acceptance check C10, all kept in ``tests/helpers.py``.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidParam


def backend_name() -> str:
    """Name of the association kernel implementation; always ``"python"``."""
    return "python"


def as_box_array(boxes) -> np.ndarray:
    """Coerce a sequence of (x, y, w, h) rows to a C-contiguous (N,4) array."""
    arr = np.ascontiguousarray(boxes, dtype=np.float64)
    if arr.size == 0:
        return np.zeros((0, 4), dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != 4:
        raise InvalidParam(f"expected an (N,4) box array, got shape {arr.shape}")
    return arr


def _x_overlap_pairs(left_a, right_a, left_b, right_b) -> tuple[np.ndarray, np.ndarray]:
    """(row, position) index arrays covering every pair with a positive
    x-overlap, where ``left_b`` is ascending and a position indexes it.

    The positions a row can overlap form one contiguous range: it ends
    before the first left edge at or past the row's right edge, and starts
    after the last position where the running maximum of right edges is
    still at or before the row's left edge. A pair outside the range has
    ``min(right) <= max(left)``, so its IoU is exactly 0.0; pairs inside it
    may still be disjoint.
    """
    lo = np.maximum.accumulate(right_b).searchsorted(left_a, side="right")
    hi = left_b.searchsorted(right_a, side="left")
    counts = np.maximum(hi - lo, 0)
    rows = np.arange(len(left_a)).repeat(counts)
    starts = (lo - (counts.cumsum() - counts)).repeat(counts)
    return rows, np.arange(rows.size) + starts


def greedy_associate(boxes_a, boxes_b, min_iou: float) -> list[tuple[int, int]]:
    """Greedy one-to-one matching of boxes_a rows to boxes_b columns.

    Pairs with ``iou >= min_iou`` are taken in descending IoU order; ties
    break toward the lower row index, then the lower column index. Returns
    (row, col) pairs in selection order. Only pairs that overlap in both x
    and y can have a positive IoU: the x sweep finds the candidates, their
    height overlap cuts them, the IoU is evaluated on the rest, and the
    admissible positive pairs are sorted and walked. At ``min_iou <= 0``
    every pair whose row and column are both left free then has an IoU of
    exactly 0.0, since a positive one would have been taken; those pairs
    come last in (row, col) order, which pairs the free rows and the free
    columns in ascending order.
    """
    a = as_box_array(boxes_a)
    b = as_box_array(boxes_b)
    by_left = b[:, 0].argsort(kind="stable")
    x_a, y_a, w_a, h_a = a.T
    x_b, y_b, w_b, h_b = b[by_left].T
    right_a, bottom_a, right_b, bottom_b = x_a + w_a, y_a + h_a, x_b + w_b, y_b + h_b
    rows, pos = _x_overlap_pairs(x_a, right_a, x_b, right_b)
    # far-apart boxes can overflow to -inf in an overlap: the height filter
    # drops such a pair, and the clip makes such a width 0
    with np.errstate(over="ignore"):
        height = np.minimum(bottom_a[rows], bottom_b[pos]) - np.maximum(y_a[rows], y_b[pos])
        cut = height > 0.0
        rows, pos, height = rows[cut], pos[cut], height[cut]
        width = np.minimum(right_a[rows], right_b[pos]) - np.maximum(x_a[rows], x_b[pos])
    np.maximum(width, 0.0, out=width)
    inter = width * height
    union = (w_a * h_a)[rows] + (w_b * h_b)[pos] - inter
    val = np.divide(inter, union, out=np.zeros_like(inter), where=union > 0.0)
    # identical boxes can round to inter > union by a few ulps
    np.minimum(val, 1.0, out=val)
    # a NaN min_iou admits nothing
    keep = val > 0.0 if min_iou <= 0.0 else val >= min_iou
    rows, cols, val = rows[keep], by_left[pos[keep]], val[keep]
    order = np.lexsort((cols, rows, -val))
    used_rows: set[int] = set()
    used_cols: set[int] = set()
    matches: list[tuple[int, int]] = []
    for r, c in zip(rows[order].tolist(), cols[order].tolist()):
        if r in used_rows or c in used_cols:
            continue
        used_rows.add(r)
        used_cols.add(c)
        matches.append((r, c))
    if min_iou <= 0.0:
        free_rows = (r for r in range(a.shape[0]) if r not in used_rows)
        free_cols = (c for c in range(b.shape[0]) if c not in used_cols)
        matches.extend(zip(free_rows, free_cols))
    return matches
