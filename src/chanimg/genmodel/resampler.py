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

__all__ = ["EmpiricalResampler"]

QUERY_CHUNK = 256  # queries per distance block; bounds the (chunk, N) work arrays


class EmpiricalResampler:
    """k-nearest-condition resampling over stored training matrices."""

    def __init__(self, matrices, conditions, k: int = 50):
        self.matrices = np.asarray(matrices)
        self.conditions = np.asarray(conditions, dtype=np.float64)
        if len(self.matrices) == 0:
            raise DataError("resampler needs a non-empty dataset")
        if len(self.matrices) != len(self.conditions):
            raise DataError("matrices and conditions must pair up")
        # min and max propagate NaN and show +-inf, without a full-size mask
        if not (np.isfinite([self.matrices.min(), self.matrices.max()]).all()
                and np.isfinite(self.conditions).all()):
            raise DataError("resampler matrices or conditions contain non-finite values")
        self.k = int(min(k, len(self.matrices)))
        if self.k < 1:
            raise DataError("k must be >= 1")
        self.cond_min = self.conditions.min(axis=0)
        self.cond_max = self.conditions.max(axis=0)
        span = self.cond_max - self.cond_min
        self._span = np.where(span > 0, span, 1.0)
        norm = (self.conditions - self.cond_min) / self._span
        self._nx = np.ascontiguousarray(norm[:, 0])
        self._ny = np.ascontiguousarray(norm[:, 1])

    def _nearest(self, queries) -> np.ndarray:
        """(m, k) indices of the k nearest stored conditions per query row.

        Neighbours are ordered by (squared normalized distance, index), the
        order of a full lexsort, so ties resolve deterministically.  The
        (chunk, N) blocks are allocated once: no short-lived ones to place.
        """
        q = (queries - self.cond_min) / self._span
        out = np.empty((len(q), self.k), dtype=np.intp)
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
            # the ties at that distance are all in; a NaN row keeps them all
            np.logical_not(np.greater(dd, ww[:, self.k - 1:self.k], out=ff), out=ff)
            flat = np.flatnonzero(ff)  # grouped by row, by index within one
            rows, cols = np.divmod(flat, dd.shape[1])
            order = np.lexsort((dd.ravel()[flat], rows))  # stable: ties keep index order
            first = np.searchsorted(rows, np.arange(c))
            out[start:start + c] = cols[order[first[:, None] + np.arange(self.k)]]
        return out

    def sample(self, cond, n: int, seed: int) -> np.ndarray:
        """n stored matrices resampled near the condition(s).

        cond is one (dist2d, height) pair, or an (n, 2) array pairing one
        condition per output matrix.
        """
        if n == 0:
            return self.matrices[:0].copy()
        cond = np.asarray(cond, dtype=np.float64)
        rng = substream(seed, "resampler")
        if cond.ndim == 1:
            nb = self._nearest(cond[None, :])
            picks = nb[0, rng.integers(self.k, size=n)]
        else:
            if cond.shape != (n, 2):
                raise DataError("cond must be one pair or an (n, 2) array")
            nb = self._nearest(cond)
            picks = nb[np.arange(n), rng.integers(self.k, size=n)]
        return self.matrices[picks]  # fancy indexing already copies
