"""Nearest-condition empirical resampler.

A deliberately model-free backend: "sampling" a channel matrix under a
condition returns one of the stored training matrices whose condition is
among the k nearest in normalized condition space, drawn with replacement.
Because its outputs are real encoded matrices, any distributional mismatch
after decoding isolates codec problems from generative-model quality.
"""

import numpy as np

from ..errors import DataError
from ..rng import substream
from . import is_int, sample_request, training_pairs

__all__ = ["EmpiricalResampler"]

QUERY_CHUNK = 32  # queries per distance block; bounds the (chunk, N) work arrays


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
        self._nx = np.ascontiguousarray(norm[:, 0])
        self._ny = np.ascontiguousarray(norm[:, 1])

    def _nearest_blocks(self, queries):
        """Yield (start, (c, k) indices of the k nearest stored conditions) per query block.

        Blocks hold QUERY_CHUNK query rows, the last one fewer.  Neighbours
        are ordered by (squared normalized distance, index), the order of a
        full lexsort, so ties resolve deterministically.  The (chunk, N)
        work arrays are allocated once, for every block.
        """
        q = (queries - self.cond_min) / self._span
        d2 = np.empty((min(len(q), QUERY_CHUNK), len(self._nx)))
        work, far = np.empty_like(d2), np.empty(d2.shape, dtype=bool)
        for start in range(0, len(q), QUERY_CHUNK):
            c = min(QUERY_CHUNK, len(q) - start)
            dd, ww, ff = d2[:c], work[:c], far[:c]
            np.square(np.subtract(self._nx, q[start:start + c, 0:1], out=dd), out=dd)
            np.square(np.subtract(self._ny, q[start:start + c, 1:2], out=ww), out=ww)
            dd += ww  # (c, N)
            np.copyto(ww, dd)
            ww.partition(self.k - 1, axis=1)
            # every condition not beyond the k-th distance is a candidate, so
            # the ties at that distance are all in
            np.logical_not(np.greater(dd, ww[:, self.k - 1:self.k], out=ff), out=ff)
            flat = np.flatnonzero(ff)  # grouped by row, by index within one
            rows, cols = np.divmod(flat, dd.shape[1])
            order = np.lexsort((dd.ravel()[flat], rows))  # stable: ties keep index order
            first = np.searchsorted(rows, np.arange(c))
            yield start, cols[order[first[:, None] + np.arange(self.k)]]

    def sample(self, cond, n: int, seed: int, out=None) -> np.ndarray:
        """n stored matrices resampled near the condition(s).

        cond is one (dist2d, height) pair, or an (n, 2) array pairing one
        condition per output matrix.  The picks are gathered QUERY_CHUNK at
        a time.  out, when given, is an (n, *matrix shape) array that
        receives each block, cast to out's dtype (the CLI passes float32,
        the CHIM payload's), and is returned; otherwise the matrices are
        returned as a new array of the stored matrices' dtype.
        """
        cond, out = sample_request(cond, n, self.matrices.shape[1:], self.matrices.dtype, out)
        draws = substream(seed, "resampler").integers(self.k, size=n)
        for start, nb in self._nearest_blocks(cond):
            c = len(nb)
            out[start:start + c] = self.matrices[nb[np.arange(c), draws[start:start + c]]]
        return out
