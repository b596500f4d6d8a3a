"""Association kernel: pairwise IoU and greedy one-to-one matching.

The tracker associates every processed frame, so on dense streams (hundreds
of boxes per frame) this is the hot loop. ``pairwise_iou`` evaluates the IoU
formula only for pairs whose x-intervals can overlap. Every other entry is
left at exactly 0.0, which is what the formula gives there, so the matrix is
the dense one bit for bit and equals ``domain.iou`` element by element.
``greedy_associate`` skips the matrix whenever an IoU of 0.0 is not
admissible, and walks only the admissible pairs. Both are checked against
the brute-force greedy of acceptance check C10.
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


def _x_overlap_pairs(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(row, col) index arrays covering every pair with a positive x-overlap.

    With boxes_b sorted by left edge, the columns a row can overlap form one
    contiguous range of that order: it ends before the first left edge at or
    past the row's right edge, and starts after the last position where the
    running maximum of right edges is still at or before the row's left
    edge. A pair outside the range has ``min(right) <= max(left)``, so its
    IoU is exactly 0.0; pairs inside it may still be disjoint.
    """
    order = np.argsort(b[:, 0], kind="stable")
    left = b[order, 0]
    reach = np.maximum.accumulate(left + b[order, 2])
    lo = np.searchsorted(reach, a[:, 0], side="right")
    hi = np.searchsorted(left, a[:, 0] + a[:, 2], side="left")
    counts = np.maximum(hi - lo, 0)
    rows = np.repeat(np.arange(a.shape[0]), counts)
    starts = np.repeat(lo - (np.cumsum(counts) - counts), counts)
    return rows, order[np.arange(rows.size) + starts]


def _pair_iou(pa: np.ndarray, pb: np.ndarray) -> np.ndarray:
    """IoU of row-aligned box pairs, ``domain.iou``'s expression: the one
    both ``pairwise_iou`` and ``greedy_associate`` evaluate."""
    # x and y side by side: column 0 is the overlap width, column 1 the height
    side = np.minimum(pa[:, :2] + pa[:, 2:], pb[:, :2] + pb[:, 2:])
    # far-apart boxes can overflow to -inf here, which the clip makes 0
    with np.errstate(over="ignore"):
        side -= np.maximum(pa[:, :2], pb[:, :2])
    np.maximum(side, 0.0, out=side)
    inter = side[:, 0] * side[:, 1]
    union = pa[:, 2] * pa[:, 3] + pb[:, 2] * pb[:, 3] - inter
    val = np.divide(inter, union, out=np.zeros_like(inter), where=union > 0.0)
    # identical boxes can round to inter > union by a few ulps
    return np.minimum(val, 1.0, out=val)


def pairwise_iou(boxes_a, boxes_b) -> np.ndarray:
    """IoU matrix between two box sets; rows index boxes_a, cols boxes_b."""
    a = as_box_array(boxes_a)
    b = as_box_array(boxes_b)
    out = np.zeros((a.shape[0], b.shape[0]), dtype=np.float64)
    rows, cols = _x_overlap_pairs(a, b)
    out[rows, cols] = _pair_iou(a[rows], b[cols])
    return out


def _take_greedily(rows: np.ndarray, cols: np.ndarray) -> list[tuple[int, int]]:
    """Walk pairs in the given order, taking each whose row and column are
    both still free."""
    used_rows: set[int] = set()
    used_cols: set[int] = set()
    matches: list[tuple[int, int]] = []
    for r, c in zip(rows.tolist(), cols.tolist()):
        if r in used_rows or c in used_cols:
            continue
        used_rows.add(r)
        used_cols.add(c)
        matches.append((r, c))
    return matches


def greedy_match(iou_matrix: np.ndarray, min_iou: float) -> list[tuple[int, int]]:
    """Greedy one-to-one matching on a precomputed IoU matrix.

    Pairs are taken in descending IoU order among pairs with
    ``iou >= min_iou``; ties break toward the lower row index, then the
    lower column index. Returns (row, col) pairs in selection order.
    """
    mat = np.asarray(iou_matrix, dtype=np.float64)
    if mat.ndim != 2:
        raise InvalidParam(f"expected a 2-D IoU matrix, got shape {mat.shape}")
    rows, cols = np.nonzero(mat >= float(min_iou))
    order = np.lexsort((cols, rows, -mat[rows, cols]))
    return _take_greedily(rows[order], cols[order])


def greedy_associate(boxes_a, boxes_b, min_iou: float) -> list[tuple[int, int]]:
    """``greedy_match(pairwise_iou(boxes_a, boxes_b), min_iou)``, without
    the matrix when ``min_iou > 0``.

    Then only pairs that overlap in x can be admissible, so the IoU is
    evaluated on those alone, and the pairs with ``iou >= min_iou`` are
    sorted and walked in ``greedy_match``'s order. At ``min_iou <= 0``
    every pair is admissible, and the dense matrix is built.
    """
    if not min_iou > 0.0:
        return greedy_match(pairwise_iou(boxes_a, boxes_b), min_iou)
    a = as_box_array(boxes_a)
    b = as_box_array(boxes_b)
    rows, cols = _x_overlap_pairs(a, b)
    val = _pair_iou(a[rows], b[cols])
    keep = val >= min_iou
    rows, cols, val = rows[keep], cols[keep], val[keep]
    order = np.lexsort((cols, rows, -val))
    return _take_greedily(rows[order], cols[order])
