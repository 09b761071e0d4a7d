"""Nearest-condition empirical resampler.

A deliberately model-free backend: "sampling" a channel matrix under a
condition returns one of the stored training matrices whose condition is
among the k nearest in normalized condition space, drawn with replacement.
Because its outputs are real encoded matrices, any distributional mismatch
after decoding isolates codec problems from generative-model quality.

The neighbour query is exact: it returns the k nearest by (squared
normalized distance, index), every tie at the k-th distance considered,
the picks a scan of all N conditions makes.  It reads about k stored
conditions per query when they sit at a few heights, not all N.  An index
built once orders the conditions by (height bin, distance, index).  A bin
is a run of neighbouring cells of a grid of pitch sqrt(k / N) over
normalized height that holds at least 2k conditions: the surrogate's five
heights are five bins, and conditions that each have their own height
fall into bins of nearby heights.  A query bounds its k-th squared
distance by the k-th among the 2k conditions nearest its distance in the
bin nearest its height, then reads, in every bin whose heights lie within
that bound, the contiguous run of distances the bound allows, and orders
those candidates.
"""

import math

import numpy as np

from ..errors import DataError
from ..rng import substream
from . import is_int, sample_request, training_pairs

__all__ = ["EmpiricalResampler"]

BLOCK = 2**15  # elements of a block's (queries, window) and candidate work arrays
# A distance range is widened past the float64 rounding of its bound, the
# height gap and the query by this relative margin, and by the smallest
# normal float for squares that underflow; the exact d2 filter then drops
# what the widening let in
MARGIN, TINY = 16 * np.finfo(np.float64).eps, np.finfo(np.float64).tiny


class EmpiricalResampler:
    """k-nearest-condition resampling over stored training matrices."""

    def __init__(self, matrices, conditions, k: int = 50):
        self.matrices, self.conditions = training_pairs(matrices, conditions)
        if not is_int(k) or k < 1:
            raise DataError(f"k must be a positive integer, got {k!r}")
        self.k = int(min(k, len(self.matrices)))
        self.cond_min = self.conditions.min(axis=0)
        self.cond_max = self.conditions.max(axis=0)
        span = self.cond_max - self.cond_min
        self._span = np.where(span > 0, span, 1.0)
        norm = (self.conditions - self.cond_min) / self._span
        # a bin is a run of neighbouring cells of a sqrt(k / N) grid over
        # height holding at least one window, min(2k, N) conditions
        n = len(norm)
        self._window = w = min(2 * self.k, n)
        cell = np.floor(norm[:, 1] / math.sqrt(self.k / n)).astype(np.intp)
        labels, last, size, rest = [], 0, 0, n
        for count in np.bincount(cell).tolist():
            if size >= w and rest >= w:  # this bin is full and the rest fills another
                last, size = last + 1, 0
            labels.append(last)
            size, rest = size + count, rest - count
        label = np.asarray(labels)[cell]
        self._order = np.lexsort((norm[:, 0], label))  # stable: ties keep index order
        self._x, self._y, label = norm[self._order, 0], norm[self._order, 1], label[self._order]
        self._starts = np.searchsorted(label, np.arange(last + 2))
        self._bin_lo = np.minimum.reduceat(self._y, self._starts[:-1])
        self._bin_hi = np.maximum.reduceat(self._y, self._starts[:-1])
        # one sorted search key for every bin's distances: bin b's keys lie in
        # [2b, 2b + 1], and rounding them keeps their order
        self._key = 2.0 * label + self._x

    def _search(self, bins, x, side="left"):
        """Positions of distances x (clipped to [0, 1]) in bins, as searchsorted would place them."""
        return np.searchsorted(self._key, 2.0 * bins + np.clip(x, 0.0, 1.0), side)

    def _neighbours(self, qx, qy):
        """(len(qx), k) indices of the k stored conditions nearest each normalized query.

        Neighbours are ordered by (squared normalized distance d2, index),
        where d2 = (x - qx)**2 + (y - qy)**2 in float64, so ties resolve
        deterministically and every tie at the k-th distance is considered.
        """
        k, n, w, x, y = self.k, len(self._x), self._window, self._x, self._y
        lo, hi, last = self._bin_lo, self._bin_hi, len(self._bin_lo) - 1
        cx, cy = qx[:, None], qy[:, None]  # the queries as columns
        # any k conditions bound the k-th d2: take the 2k-wide distance window
        # around qx in the bin nearest in height
        above = np.searchsorted(lo, qy, "right")
        up, down = np.minimum(above, last), np.maximum(above - 1, 0)
        near = np.where(lo[up] - qy < qy - hi[down], up, down)
        first = np.clip(self._search(near, qx) - k, self._starts[near], self._starts[near + 1] - w)
        window = first[:, None] + np.arange(w)
        d2 = (x[window] - cx) ** 2 + (y[window] - cy) ** 2
        r2 = np.partition(d2, k - 1, axis=1)[:, k - 1:k]

        # in each bin within the bound, the run of distances |dx|**2 <= r2 - dy**2
        dy = np.maximum(np.maximum(lo - cy, cy - hi), 0.0)  # (c, bins)
        dy2 = dy * dy
        half = np.sqrt(np.fmax(r2 - dy2, 0.0) + MARGIN * r2 + TINY) * (1.0 + MARGIN)
        pad = MARGIN * (np.abs(cx) + half)
        bins = np.arange(last + 1)
        start = self._search(bins, cx - half - pad)
        count = np.where(dy2 <= r2, self._search(bins, cx + half + pad, "right") - start, 0)
        if count.sum() > BLOCK and len(qx) > 1:  # halve the block, down to one query
            h = len(qx) // 2
            return np.concatenate([self._neighbours(qx[:h], qy[:h]),
                                   self._neighbours(qx[h:], qy[h:])])

        per_row, count = count.sum(axis=1), count.ravel()
        pos = np.arange(per_row.sum()) + np.repeat(start.ravel() - (np.cumsum(count) - count), count)
        row = np.repeat(np.arange(len(qx)), per_row)
        d2 = (x[pos] - qx[row]) ** 2 + (y[pos] - qy[row]) ** 2
        keep = d2 <= r2[row, 0]
        idx, d2, row = self._order[pos[keep]], d2[keep], row[keep]
        # order by (row, d2, index) with one integer sort: d2 becomes its rank
        # among the kept values, equal values sharing one (the key stays below
        # 2**63 for N up to 2**33)
        by_d2 = np.argsort(d2)
        ranked = d2[by_d2]
        rank = np.empty(len(d2), dtype=np.int64)
        rank[by_d2] = np.cumsum(np.concatenate(([0], ranked[1:] != ranked[:-1])))
        order = np.argsort((row * len(d2) + rank) * n + idx)
        kept = np.bincount(row, minlength=len(qx))
        return idx[order[(np.cumsum(kept) - kept)[:, None] + np.arange(k)]]

    def sample(self, cond, n: int, seed: int, out=None) -> np.ndarray:
        """n stored matrices resampled near the condition(s).

        cond is one (dist2d, height) pair, or an (n, 2) array pairing one
        condition per output matrix.  The picks are gathered a block of
        queries at a time, BLOCK // min(2k, N) of them.  out, when given, is
        an (n, *matrix shape) array that receives each block, cast to out's
        dtype (the CLI passes float32, the CHIM payload's), and is returned;
        otherwise the matrices are returned as a new array of the stored
        matrices' dtype.
        """
        cond, out = sample_request(cond, n, self.matrices.shape[1:], self.matrices.dtype, out)
        draws = substream(seed, "resampler").integers(self.k, size=n)
        # a query beyond 1e300 ties every condition at d2 = inf, as it does at
        # 1e300, and the clip keeps an overflowed query finite
        qx, qy = np.clip((cond - self.cond_min) / self._span, -1e300, 1e300).T
        step = max(1, BLOCK // self._window)
        for start in range(0, n, step):
            nb = self._neighbours(qx[start:start + step], qy[start:start + step])
            c = len(nb)
            out[start:start + c] = self.matrices[nb[np.arange(c), draws[start:start + c]]]
        return out
